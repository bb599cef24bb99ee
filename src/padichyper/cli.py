"""Command-line surface: gamma values, series evaluation, point counts, and
the verification suite.

Exit codes: 0 all checks passed, 1 at least one identity failed, 2 usage or
configuration error, or a sweep that checked no identity.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .curves import HessianCurve, WeierstrassCurve, count_hessian, count_weierstrass
from .errors import PadicHyperError
from .fields import FqElement, FqField, build_field, uctx_for
from .gamma import gamma_cache
from .hyper import GInstance, g_eval, gparams
from .padic import default_precision
from .verify import THEOREM_NAMES, RangeSpec, run_suite


def _parse_element(field: FqField, text: str) -> FqElement:
    """An integer (prime-subfield value) or comma-separated coefficient vector."""
    parts = text.split(",")
    if len(parts) == 1:
        return field.element(int(parts[0]))
    return field.element([int(c) for c in parts])


def _cmd_gamma(args) -> int:
    try:
        x = Fraction(args.x)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {args.x!r}") from None
    K = args.K if args.K is not None else default_precision(args.p, 1)
    cache = gamma_cache(args.p, K)
    value = cache.gamma(x)
    digits = [str(value // args.p**k % args.p) for k in range(K)]
    print(f"Gamma_{args.p}({x}) mod {args.p}^{K} = {value}")
    print(f"digits (low first): {','.join(digits)}")
    return 0


def _cmd_gg(args) -> int:
    params = gparams(args.params)
    field = build_field(args.p, args.r)
    K = args.K if args.K is not None else default_precision(args.p, args.r)
    uctx = uctx_for(field, K)
    t = _parse_element(field, args.t)
    value = g_eval(GInstance(params, field, uctx, t))
    print(f"nGn over F_{field.q} at t={args.t}, precision {args.p}^{K}")
    print(f"value = {value.digits()}")
    qg = value.scale_int(field.q)
    print(f"q * value = {qg.digits()}")
    return 0


def _cmd_count(args) -> int:
    needed = ("a", "b") if args.kind == "weier" else ("d",)
    missing = [f"--{name}" for name in needed if getattr(args, name) is None]
    if missing:
        print(f"count {args.kind} needs {' and '.join(missing)}", file=sys.stderr)
        return 2
    field = build_field(args.p, args.r)
    if args.kind == "weier":
        E = WeierstrassCurve(_parse_element(field, args.a), _parse_element(field, args.b))
        cc = count_weierstrass(E)
        print(f"affine={cc.affine} projective={cc.projective} trace={cc.trace}")
    else:
        C = HessianCurve(_parse_element(field, args.d))
        print(f"affine={count_hessian(C)}")
    return 0


def _cmd_verify(args) -> int:
    theorems = THEOREM_NAMES if args.theorem == "all" else (args.theorem,)
    try:
        r_values = tuple(sorted({int(x) for x in args.r.split(",")}))
    except ValueError:
        print(f"bad --r list: {args.r!r}", file=sys.stderr)
        return 2
    spec = RangeSpec(
        theorems=theorems,
        pmin=args.pmin,
        pmax=args.pmax,
        r_values=r_values,
        K=args.K,
        seed=args.seed,
        sample=args.sample,
        allow_p5=args.allow_p5,
        qmax=args.qmax,
    )
    try:
        report = run_suite(spec)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    rendered = getattr(report, f"to_{args.format}")()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(rendered)
            if not rendered.endswith("\n"):
                fh.write("\n")
    else:
        print(rendered)
    if not report.records:
        print(f"no identity was checked (skipped={report.summary['skipped']})", file=sys.stderr)
        return 2
    return 0 if report.all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padichyper",
        description="p-adic hypergeometric series over finite fields: evaluation and identity verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gamma = sub.add_parser("gamma", help="Morita p-adic gamma of a rational")
    p_gamma.add_argument("x", help="rational argument, e.g. 1/2 or -3/4")
    p_gamma.add_argument("--p", type=int, required=True)
    p_gamma.add_argument("--K", type=int, default=None)
    p_gamma.set_defaults(fn=_cmd_gamma)

    p_gg = sub.add_parser("gg", help="evaluate the nGn series")
    p_gg.add_argument("--p", type=int, required=True)
    p_gg.add_argument("--r", type=int, default=1)
    p_gg.add_argument("--params", required=True, help="a1,a2;b1,b2 (rationals)")
    p_gg.add_argument("--t", required=True, help="field element: int or c0,c1,...")
    p_gg.add_argument("--K", type=int, default=None)
    p_gg.set_defaults(fn=_cmd_gg)

    p_count = sub.add_parser("count", help="point counts")
    p_count.add_argument("kind", choices=("weier", "hessian"))
    p_count.add_argument("--p", type=int, required=True)
    p_count.add_argument("--r", type=int, default=1)
    p_count.add_argument("--a", default=None)
    p_count.add_argument("--b", default=None)
    p_count.add_argument("--d", default=None)
    p_count.set_defaults(fn=_cmd_count)

    p_verify = sub.add_parser("verify", help="run identity checks over a range")
    p_verify.add_argument("theorem", choices=THEOREM_NAMES + ("all",))
    p_verify.add_argument("--pmin", type=int, default=7)
    p_verify.add_argument("--pmax", type=int, default=47)
    p_verify.add_argument("--r", default="1,2", help="comma list of extension degrees")
    p_verify.add_argument("--K", type=int, default=None)
    p_verify.add_argument("--format", choices=("table", "json", "csv"), default="table")
    p_verify.add_argument("--out", default=None)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--allow-p5", action="store_true", dest="allow_p5")
    p_verify.add_argument("--sample", type=int, default=None)
    p_verify.add_argument("--qmax", type=int, default=RangeSpec.qmax, help="largest field size swept")
    p_verify.set_defaults(fn=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except PadicHyperError as exc:
        print(f"error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
