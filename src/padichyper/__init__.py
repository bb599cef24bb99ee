"""Exact p-adic hypergeometric series over finite fields, with the point
counting and character machinery to verify their transformation identities.

Layers, bottom up:

- ``padic``: the unramified extension Z_q mod p^K (Z/p^K is its r = 1
  case), Teichmueller lifts, and valuation/unit p-adic numbers with tracked
  absolute precision, which every series value reaches through one
  renormaliser.  Scalar ring arithmetic is left to the test oracles.
- ``gamma``: Morita's p-adic gamma at rational arguments (polynomial time
  in p and K) by one array evaluator; a single point is an array of one.
- ``fields``: F_{p^r} with deterministic generator and discrete-log tables,
  multiplicative characters, trace.
- ``gauss``: complex-float Gauss sums and their tolerance.
- ``hyper``: the nGn series evaluator (``g_eval`` and ``GProfile.eval_qg``
  share one gather-and-dot-product sum) and integer recovery.
- ``curves``: Weierstrass/Hessian point counts and the parameter bridge.
- ``verify``: identity checks as records, each its identity's one pass/fail
  decision, every check a row of instances at a time; range sweeps and
  reports.
- ``cli``: the command-line entry point.
"""

from .errors import (
    BoundTooLargeForPrecision,
    CompositeP,
    ContextMismatch,
    DenominatorDivisibleByP,
    FieldTooLarge,
    ModulusMismatch,
    NoRepresentativeInBound,
    NotAnInteger,
    NotAUnit,
    PadicHyperError,
    PrecisionExhausted,
    PreconditionFailed,
    SingularCurve,
    SingularHessian,
    TrivialCharacter,
    ZeroArgument,
)
from .padic import (
    PadicNumber,
    UnramifiedContext,
    ZqElement,
    default_precision,
    padic_sum,
    teichmueller,
    unramified_context,
    zq_inv,
    zq_pow,
)
from .gamma import GammaCache, gamma_cache, verify_reflection
from .fields import (
    FqElement,
    FqField,
    build_field,
    check_orthogonality,
    phi,
    trace,
    uctx_for,
)
from .gauss import gauss_sum
from .hyper import GInstance, GParams, GProfile, g_eval, g_term, gparams, profile_for, recover_integer
from .curves import (
    CurveCount,
    HessianCurve,
    WeierstrassCurve,
    check_count_relation,
    count_hessian,
    count_weierstrass,
    hessian_bridge,
    j_invariant,
)
from .verify import (
    RangeSpec,
    Report,
    VerifyRecord,
    run_suite,
    verify_bs1,
    verify_cor2,
    verify_hessian,
    verify_mc,
    verify_mt1,
)

__version__ = "0.1.0"
