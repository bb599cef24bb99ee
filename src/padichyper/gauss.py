"""Complex floating-point Gauss sums over F_q, and both sides of the
character-sum facts that live in C rather than Z_q: the G_k G_{-k} product,
the expansion of the additive character through Gauss sums, and the
Davenport-Hasse relation.  The verification suite's records compare the sides
within ``default_tolerance``.

This module is float-only and quarantined: nothing p-adic depends on it.
Roots of unity are tabulated once per field model so each sum is a table
gather, and all q-1 Gauss sums of a field come from one inverse DFT of the
additive character along the powers of the generator.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

import numpy as np

from .errors import ModulusMismatch, TrivialCharacter, ZeroArgument
from .fields import FqElement, FqField, field_for, trace

#: Complex values are plain double-precision Python complex numbers.
ComplexVal = complex


def default_tolerance(field: FqField, rhs: ComplexVal = 0) -> float:
    """Tolerance 1e-6 * max(q, |rhs|): q-1 unit-modulus terms accumulate
    error linearly in q at double precision, and a product of Gauss sums,
    of modulus up to q^(m/2), carries that error relative to its size."""
    return 1e-6 * max(field.q, abs(rhs))


class GaussTables:
    """Root-of-unity tables and all q-1 Gauss sums of the field of ``model``;
    they hold no field."""

    def __init__(self, model: tuple[int, int, int]):
        field = field_for(model)
        q1, p, r = field.q - 1, field.p, field.r
        self.zeta_q1 = np.exp(2j * math.pi * np.arange(q1) / q1)
        self.zeta_p = np.exp(2j * math.pi * np.arange(p) / p)
        # the trace is F_p-linear: Tr(g^s) is the base-p digits of exp[s]
        # dotted with the traces of the basis elements 1, x, ..., x^(r-1)
        basis = p ** np.arange(r, dtype=np.int64)
        digits = field.exp_np[:q1, None] // basis % p
        tr_basis = np.array([trace(field.from_index(int(b))) for b in basis], dtype=np.int64)
        # theta(g^s) for s = 0..q-2
        theta = self.zeta_p[digits @ tr_basis % p]
        # G[m] = sum_s zeta_(q-1)^(ms) theta(g^s), one inverse DFT
        self.G = q1 * np.fft.ifft(theta)
        if not np.all(np.isfinite(self.G)):
            raise ArithmeticError("non-finite Gauss sum")


gauss_tables = lru_cache(maxsize=64)(GaussTables)


def gauss_sum(m: int, field: FqField) -> ComplexVal:
    """G(T^m) = sum over x != 0 of T^m(x) theta(x); the x = 0 term vanishes
    by the chi(0) = 0 convention."""
    e = m % (field.q - 1)
    return complex(gauss_tables(field.model).G[e])


def _char_value(e: int, x: FqElement) -> ComplexVal:
    """T^e(x) for nonzero x, as an exact table root of unity."""
    tab = gauss_tables(x.field.model)
    return complex(tab.zeta_q1[e * x.dlog() % (x.field.q - 1)])


def gk_product_sides(k: int, field: FqField) -> tuple[ComplexVal, ComplexVal]:
    """(G_k G_{-k}, q T^k(-1)) for a nontrivial character index k."""
    q1 = field.q - 1
    e = k % q1
    if e == 0:
        raise TrivialCharacter("k must be nonzero mod q-1")
    tab = gauss_tables(field.model)
    lhs = complex(tab.G[e] * tab.G[(-e) % q1])
    # T^k(-1) = zeta^{k (q-1)/2} = (-1)^k exactly
    rhs = complex(field.q * (-1 if e % 2 else 1))
    return lhs, rhs


def theta_expansion_sides(alpha: FqElement, field: FqField) -> tuple[ComplexVal, ComplexVal]:
    """(theta(alpha), its expansion (1/(q-1)) sum_m G_{-m} T^m(alpha))."""
    if alpha.is_zero:
        raise ZeroArgument("alpha must be nonzero")
    tab = gauss_tables(field.model)
    q1 = field.q - 1
    lhs = complex(tab.zeta_p[trace(alpha)])
    s = alpha.dlog()
    ms = np.arange(q1)
    rhs = complex(np.sum(tab.G[(-ms) % q1] * tab.zeta_q1[(ms * s) % q1]) / q1)
    return lhs, rhs


def davenport_hasse_sides(m: int, psi: int, field: FqField) -> tuple[ComplexVal, ComplexVal]:
    """(product of G over the m-torsion characters twisted by psi,
    -G(psi^m) psi(m^-m) times the untwisted product): Davenport-Hasse."""
    q1 = field.q - 1
    if m <= 0 or q1 % m != 0:
        raise ModulusMismatch(f"q = {field.q} is not 1 mod {m}")
    e = psi % q1
    tab = gauss_tables(field.model)
    step = q1 // m
    lhs = 1 + 0j
    base = 1 + 0j
    for k in range(m):
        lhs *= tab.G[(k * step + e) % q1]
        base *= tab.G[k * step]
    m_elt = field.element(m) ** (-m)
    rhs = -tab.G[(m * e) % q1] * _char_value(e, m_elt) * base
    if not (cmath.isfinite(lhs) and cmath.isfinite(rhs)):
        raise ArithmeticError("non-finite product")
    return complex(lhs), complex(rhs)
