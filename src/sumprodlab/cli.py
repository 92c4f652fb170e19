"""Command line entry points.

Exit codes: 0 on success, 1 when a verification suite fails or an exact
invariant is violated (RuntimeError), 2 on usage errors (bad arguments,
malformed configs; ValueError).
"""

from __future__ import annotations

import argparse
import json
import sys

from .energy import energy
from .fields import make_field
from .gauss import GAUSS_CSV_HEADER, gauss_bounds_report, gauss_sum_by_subgroup
from .sets import ESet, product_set
from .subgroups import (difference_count, gcd_growth_condition, nth_power_subgroup,
                        subfield_overlap_condition, subgroup_of_order)
from .sweep import SweepConfig, _fmt, exponent_fit, run_sweep
from .verify import SUITE_NAMES, run_suite

_KINDS = {"add": "additive", "mult": "multiplicative"}

CONDITION_CSV_HEADER = ("q", "p", "m", "n", "nu", "lhs", "rhs", "ratio", "pass")


def _add_field_args(sp):
    sp.add_argument("--p", type=int, required=True, help="field characteristic (prime)")
    sp.add_argument("--m", type=int, default=1, help="extension degree (default 1)")


def _add_json_flag(sp):
    sp.add_argument("--json", action="store_true", help="emit a single JSON object")


def _cmd_field_info(args) -> int:
    ctx = make_field(args.p, args.m)
    info = {"p": ctx.p, "m": ctx.m, "q": ctx.q,
            "modulus": list(ctx.modulus), "generator": ctx.generator()}
    if args.json:
        print(json.dumps(info, sort_keys=True))
    else:
        print(f"{ctx!r}: q = {ctx.q}")
        print(f"modulus coefficients, low degree first: {list(ctx.modulus)}")
        print(f"multiplicative generator: {info['generator']}")
    return 0


def _cmd_prodset(args) -> int:
    ctx = make_field(args.p, args.m)
    out = product_set(ESet.from_text(ctx, args.a), ESet.from_text(ctx, args.b))
    if args.json:
        print(json.dumps({"size": len(out), "codes": out.codes.tolist()}))
    else:
        print(f"|A*B| = {len(out)}")
        print(out.to_text())
    return 0


def _cmd_energy(args) -> int:
    ctx = make_field(args.p, args.m)
    A = ESet.from_text(ctx, args.a)
    B = ESet.from_text(ctx, args.b) if args.b else None
    rep = energy(A, B, kind=_KINDS[args.kind])
    if args.json:
        print(json.dumps(rep.as_dict(), sort_keys=True))
    else:
        print(f"{rep.kind} energy = {rep.value} (support {rep.support_size})")
    return 0


def _print_condition_csv(ctx, n, rows):
    print(",".join(CONDITION_CSV_HEADER))
    for row in rows:
        vals = (ctx.q, ctx.p, ctx.m, "" if n is None else n, row.nu,
                row.lhs, row.rhs, row.ratio, row.pass_at_constant_one)
        print(",".join(_fmt(v) for v in vals))


def _cmd_subgroup(args) -> int:
    ctx = make_field(args.p, args.m)
    if args.order is not None:
        info = subgroup_of_order(ctx, args.order)
        rows = subfield_overlap_condition(info) if args.check_conditions else None
        n_col = None
    else:
        info = nth_power_subgroup(ctx, args.nth)
        rows = gcd_growth_condition(ctx, args.nth) if args.check_conditions else None
        n_col = args.nth
    if args.json:
        payload = {"order": info.order, "n": info.n,
                   "generator_power": info.generator_power,
                   "codes": info.elements.codes.tolist()}
        if rows is not None:
            payload["conditions"] = [
                {"nu": r.nu, "lhs": r.lhs, "rhs": r.rhs, "ratio": r.ratio,
                 "pass": r.pass_at_constant_one} for r in rows]
        print(json.dumps(payload, sort_keys=True))
        return 0
    print(f"subgroup of order {info.order} generated by {info.generator_power}")
    if info.n is not None:
        print(f"arises as {info.n}-th powers")
    shown = info.elements.to_text() if info.order <= 64 else \
        ",".join(map(str, info.elements.codes[:64].tolist())) + ",..."
    print(shown)
    if rows is not None:
        _print_condition_csv(ctx, n_col, rows)
    return 0


def _cmd_gauss(args) -> int:
    ctx = make_field(args.p, args.m)
    if args.n >= 2:
        rep = gauss_bounds_report(ctx, args.n, args.a)
        if args.json:
            print(json.dumps(rep.as_dict(), sort_keys=True))
        else:
            print(",".join(GAUSS_CSV_HEADER))
            print(",".join(rep.csv_row()))
        return 0
    val = gauss_sum_by_subgroup(ctx, args.n, args.a)
    if args.json:
        print(json.dumps({"q": ctx.q, "n": args.n, "a": args.a,
                          "re": val.real, "im": val.imag}, sort_keys=True))
    else:
        print(f"S_1({args.a}) = {val.real!r} + {val.imag!r}i (full-field sum, always 0)")
    return 0


def _cmd_count(args) -> int:
    ctx = make_field(args.p, args.m)
    G = subgroup_of_order(ctx, args.g_order).elements
    H = subgroup_of_order(ctx, args.h_order).elements
    res = difference_count(G, H, args.d)
    if args.json:
        print(json.dumps({"count": res.count, "ratio": res.ratio,
                          "exponent": res.exponent}, sort_keys=True))
    else:
        print(f"solutions of g - h = {args.d}: {res.count}")
        print(f"count / max(|G|,|H|)^{res.exponent!r} = {res.ratio!r}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = SweepConfig.from_json(args.config)
    rows = run_sweep(cfg, threads=args.threads)
    fit = None
    if len({r.size for r in rows}) >= 2:
        fit = exponent_fit(rows)
    if args.json:
        payload = {"rows": len(rows), "outputs": cfg.outputs}
        if fit:
            payload["fit"] = {"slope": fit[0], "intercept": fit[1]}
        print(json.dumps(payload, sort_keys=True))
    else:
        dest = cfg.outputs if cfg.outputs else "(not written)"
        print(f"{len(rows)} rows -> {dest}")
        if fit:
            print(f"growth exponent fit: slope = {fit[0]!r}, intercept = {fit[1]!r}")
    return 0


def _cmd_verify(args) -> int:
    results = run_suite(args.suite, max_q=args.max_q)
    for r in results:
        print(r.line())
    passed = sum(1 for r in results if r.ok)
    print(f"{passed}/{len(results)} checks passed")
    return 0 if passed == len(results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sumprod-lab",
        description="Finite-field growth, energy and character-sum laboratory.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_field = sub.add_parser("field", help="field context commands")
    field_sub = p_field.add_subparsers(dest="field_command", required=True)
    p_info = field_sub.add_parser("info", help="modulus, order and generator")
    _add_field_args(p_info)
    _add_json_flag(p_info)
    p_info.set_defaults(func=_cmd_field_info)

    p_prod = sub.add_parser("prodset", help="product set of two code lists")
    _add_field_args(p_prod)
    p_prod.add_argument("--a", required=True, help="comma-separated element codes")
    p_prod.add_argument("--b", required=True, help="comma-separated element codes")
    _add_json_flag(p_prod)
    p_prod.set_defaults(func=_cmd_prodset)

    p_energy = sub.add_parser("energy", help="additive or multiplicative energy")
    _add_field_args(p_energy)
    p_energy.add_argument("--a", required=True, help="comma-separated element codes")
    p_energy.add_argument("--b", default=None, help="second set (defaults to A)")
    p_energy.add_argument("--kind", choices=sorted(_KINDS), default="add")
    _add_json_flag(p_energy)
    p_energy.set_defaults(func=_cmd_energy)

    p_sub = sub.add_parser("subgroup", help="multiplicative subgroup reports")
    _add_field_args(p_sub)
    which = p_sub.add_mutually_exclusive_group(required=True)
    which.add_argument("--order", type=int, help="subgroup order (divides q-1)")
    which.add_argument("--nth", type=int, help="build as n-th powers")
    p_sub.add_argument("--check-conditions", action="store_true",
                       help="emit the per-subfield condition CSV")
    _add_json_flag(p_sub)
    p_sub.set_defaults(func=_cmd_subgroup)

    p_gauss = sub.add_parser("gauss", help="Gauss sum report (direct + subgroup + bounds)")
    _add_field_args(p_gauss)
    p_gauss.add_argument("--n", type=int, required=True, help="power index, must divide q-1")
    p_gauss.add_argument("--a", type=int, required=True, help="character index, nonzero code")
    _add_json_flag(p_gauss)
    p_gauss.set_defaults(func=_cmd_gauss)

    p_count = sub.add_parser("count", help="difference counts between two subgroups")
    _add_field_args(p_count)
    p_count.add_argument("--g-order", type=int, required=True)
    p_count.add_argument("--h-order", type=int, required=True)
    p_count.add_argument("--d", type=int, required=True, help="nonzero difference code")
    _add_json_flag(p_count)
    p_count.set_defaults(func=_cmd_count)

    p_sweep = sub.add_parser("sweep", help="run a sweep config and write its CSV")
    p_sweep.add_argument("--config", required=True, help="JSON config path")
    p_sweep.add_argument("--threads", type=int, default=1)
    _add_json_flag(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_verify = sub.add_parser("verify", help="run a self-verification suite")
    p_verify.add_argument("suite", choices=list(SUITE_NAMES))
    p_verify.add_argument("--max-q", type=int, default=4096,
                          help="cap on field orders (default 4096)")
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
