"""Complex floating-point Gauss sums over F_q, and the tolerance within which
``verify``'s rows decide the character-sum relations between them: the
G_k G_{-k} product, the expansion of the additive character through Gauss
sums, and the Davenport-Hasse relation.

This module is float-only and quarantined: nothing p-adic depends on it.
Roots of unity and the traces Tr(g^s) are tabulated once per field model,
and all q-1 Gauss sums of a field come from one inverse DFT of the additive
character along the powers of the generator.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .fields import FqField, field_for, trace

#: Complex values are plain double-precision Python complex numbers.
ComplexVal = complex


def default_tolerance(field: FqField, rhs=0):
    """Tolerance 1e-6 * max(q, |rhs|) at each rhs: q-1 unit-modulus terms
    accumulate error linearly in q at double precision, and a product of
    Gauss sums, of modulus up to q^(m/2), carries that error relative to its
    size.  |rhs| is ``np.hypot``, which rounds as ``abs`` of a complex does."""
    rhs = np.asarray(rhs)
    return 1e-6 * np.maximum(field.q, np.hypot(rhs.real, rhs.imag))


class GaussTables:
    """Root-of-unity tables, the traces Tr(g^s) and all q-1 Gauss sums of
    the field of ``model``, as read-only arrays; they hold no field."""

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
        self.trace = digits @ tr_basis % p  # Tr(g^s) for s = 0..q-2
        # G[m] = sum_s zeta_(q-1)^(ms) theta(g^s), one inverse DFT
        self.G = q1 * np.fft.ifft(self.zeta_p[self.trace])
        if not np.all(np.isfinite(self.G)):
            raise ArithmeticError("non-finite Gauss sum")
        for table in (self.zeta_q1, self.zeta_p, self.trace, self.G):
            table.flags.writeable = False


gauss_tables = lru_cache(maxsize=64)(GaussTables)


def gauss_sum(m: int, field: FqField) -> ComplexVal:
    """G(T^m) = sum over x != 0 of T^m(x) theta(x); the x = 0 term vanishes
    by the chi(0) = 0 convention."""
    e = m % (field.q - 1)
    return complex(gauss_tables(field.model).G[e])
