"""Command-line front end: compute targets, verify suites, Betti tables.

Results go to stdout, diagnostics to stderr.  Exit codes: 0 success,
1 hard invariant failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys
from fractions import Fraction

from . import __version__
from .errors import CriticalSigma, OutOfRange, TripleHodgeError
from .laurent import LaurentPoly
from .moduli import e_m3, e_n31_closed, poincare
from .rank2 import e_m2_odd, e_m2s_even, e_triples21
from .stability import TripleType, _walls, chamber_bounds
from .verify import GRIDS, SUITES, run_suite
from .zoo import (
    HodgeResult,
    e_grassmannian,
    e_jacobian,
    e_projective,
    e_sym,
)

_RATIONAL = re.compile(r"^[+-]?\d+(/\d+)?$")

_TABLE_TARGETS = (
    "n31",
    "n21",
    "m2odd",
    "m2even",
    "m3",
    "sym",
    "jac",
    "grass",
    "proj",
)


class UsageError(Exception):
    pass


def _parse_sigma(text: str) -> Fraction:
    if not _RATIONAL.match(text):
        raise UsageError(
            f"sigma must be an integer or a rational p/q, got {text!r}"
        )
    if "/" in text and int(text.split("/")[1]) == 0:
        raise UsageError("sigma denominator must be nonzero")
    return Fraction(text)


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise UsageError(f"expected comma-separated integers, got {text!r}")


# -- compute ----------------------------------------------------------


def _chamber_payload(h: HodgeResult):
    if h.chamber is None:
        return None
    sigma, lo, hi = h.chamber
    return {"sigma": str(sigma), "lo": str(lo), "hi": str(hi)}


def _render_hodge(target: str, h: HodgeResult, fmt: str) -> str:
    if fmt == "latex":
        return h.poly.to_latex()
    if fmt == "json":
        payload = {
            "target": target,
            "poly": h.poly.to_triples(),
            "dim": h.dim,
            "empty": h.empty,
            "smooth_projective": h.smooth_projective,
            "chamber": _chamber_payload(h),
        }
        return json.dumps(payload)
    lines = [h.poly.to_text(), f"dim: {h.dim}"]
    if h.chamber is not None:
        sigma, lo, hi = h.chamber
        lines.append(f"sigma: {sigma}")
        lines.append(f"chamber: ({lo}, {hi})")
    if h.empty:
        lines.append("empty: true")
    return "\n".join(lines)


def _compute_hodge(args) -> HodgeResult:
    target = args.target
    if target == "n31" or target == "n21":
        sigma = _parse_sigma(args.sigma) if args.sigma is not None else None
        fn = e_n31_closed if target == "n31" else e_triples21
        return fn(args.g, args.d1, args.d2, sigma, chamber=args.chamber)
    if target == "m2odd":
        return e_m2_odd(args.g)
    if target == "m2even":
        return e_m2s_even(args.g)
    if target == "m3":
        return e_m3(args.g, args.d)
    if target == "sym":
        return e_sym(args.k, args.g)
    if target == "jac":
        return e_jacobian(args.g)
    if target == "grass":
        return e_grassmannian(args.k, args.n)
    if target == "proj":
        return e_projective(args.n)
    raise UsageError(f"unknown compute target {target!r}")


def _triple_type(ranks: str, g: int, d1: int, d2: int) -> TripleType:
    """The type (n1, n2, d1, d2) whose ranks are spelled "31" or "21"."""
    return TripleType(int(ranks[0]), int(ranks[1]), d1, d2, g)


def _render_criticals(args) -> str:
    pairs = _walls(_triple_type(args.ranks, args.g, args.d1, args.d2))
    label = "n" if args.ranks == "31" else "dM"
    if args.output == "json":
        return json.dumps(
            {"target": "criticals", "ranks": args.ranks, "pairs": pairs}
        )
    if not pairs:
        return "none"
    return "; ".join(f"{label}={n} σ={s}" for n, s in pairs)


def _render_chambers(args) -> str:
    bounds = chamber_bounds(
        _triple_type(args.ranks, args.g, args.d1, args.d2)
    )
    if args.output == "json":
        rows = [
            {"index": i, "lo": str(lo), "hi": str(hi)}
            for i, (lo, hi) in enumerate(bounds, start=1)
        ]
        return json.dumps({"target": "chambers", "chambers": rows})
    if not bounds:
        return "none"
    return "; ".join(
        f"{i}: ({lo}, {hi})" for i, (lo, hi) in enumerate(bounds, start=1)
    )


def _cmd_compute(args) -> int:
    if args.target == "criticals":
        print(_render_criticals(args))
        return 0
    if args.target == "chambers":
        print(_render_chambers(args))
        return 0
    if args.target in ("n31", "n21") and (
        (args.sigma is None) == (args.chamber is None)
    ):
        raise UsageError("pass exactly one of --sigma and --chamber")
    result = _compute_hodge(args)
    print(_render_hodge(args.target, result, args.output))
    return 0


# -- verify -----------------------------------------------------------


def _cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    exit_code = 0
    for name in names:
        report = run_suite(name, args.grid)
        print(f"suite: {name} (grid: {args.grid})")
        passes = 0
        for case_id, status, detail in report.cases:
            if status == "pass":
                passes += 1
            line = f"{status.upper():<4} {case_id}"
            if detail:
                line = f"{line}  [{detail}]"
            print(line)
        print(
            f"summary: {len(report.cases)} cases, {passes} pass, "
            f"{report.failures} fail, {report.warnings} warn"
        )
        print(f"wall: {report.wall_time:.2f}s", file=sys.stderr)
        if report.failures:
            exit_code = 1
    return exit_code


# -- table ------------------------------------------------------------


def _betti(h: HodgeResult) -> list[int]:
    if h.empty or h.poly.is_zero():
        return []
    series = poincare(h).as_univariate()
    return [series.get(k, 0) for k in range(max(series) + 1)]


def _row(target, h: HodgeResult, g="", d1="", d2="", chamber="") -> dict:
    return {
        "target": target,
        "g": g,
        "d1": d1,
        "d2": d2,
        "chamber": chamber,
        "empty": h.empty,
        "betti": _betti(h),
    }


def _chamber_rows(target: str, g: int, d1: int, d2: int) -> list[dict]:
    bounds = chamber_bounds(_triple_type(target[1:], g, d1, d2))
    compute = e_n31_closed if target == "n31" else e_triples21
    if not bounds:
        empty = HodgeResult(poly=LaurentPoly.zero(), dim=0, empty=True)
        return [_row(target, empty, g, d1, d2, "-")]
    return [
        _row(target, compute(g, d1, d2, chamber=index), g, d1, d2, index)
        for index in range(1, len(bounds) + 1)
    ]


def _table_rows(args) -> list[dict]:
    rows: list[dict] = []
    for target in args.targets:
        if target in ("n31", "n21"):
            for g in args.g:
                for d1 in args.d1:
                    for d2 in args.d2:
                        rows.extend(_chamber_rows(target, g, d1, d2))
        elif target in ("m2odd", "m2even", "m3", "jac"):
            fn = {
                "m2odd": e_m2_odd,
                "m2even": e_m2s_even,
                "jac": e_jacobian,
            }.get(target)
            for g in args.g:
                h = e_m3(g, args.d) if target == "m3" else fn(g)
                rows.append(_row(target, h, g))
        elif target == "sym":
            for g in args.g:
                for k in args.k:
                    rows.append(_row(target, e_sym(k, g), g, chamber=k))
        elif target == "grass":
            for k in args.k:
                for n in args.n:
                    h = e_grassmannian(k, n)
                    rows.append(_row(target, h, chamber=f"{k}/{n}"))
        elif target == "proj":
            for n in args.n:
                rows.append(_row(target, e_projective(n)))
        else:
            raise UsageError(f"unknown table target {target!r}")
    return rows


def _cmd_table(args) -> int:
    args.targets = [part for part in args.targets.split(",") if part]
    for target in args.targets:
        if target not in _TABLE_TARGETS:
            raise UsageError(f"unknown table target {target!r}")
    needs_g = {"n31", "n21", "m2odd", "m2even", "m3", "sym", "jac"}
    if needs_g & set(args.targets) and not args.g:
        raise UsageError("--g is required for the requested targets")
    if {"n31", "n21"} & set(args.targets) and not args.d1:
        raise UsageError("--d1 is required for triple targets")
    if {"sym", "grass"} & set(args.targets) and not args.k:
        raise UsageError("--k is required for sym and grass targets")
    if {"grass", "proj"} & set(args.targets) and not args.n:
        raise UsageError("--n is required for grass and proj targets")
    rows = _table_rows(args)
    if args.output == "json":
        print(json.dumps(rows))
        return 0
    width = max((len(row["betti"]) for row in rows), default=0)
    width = max(width, 1)
    writer = csv.writer(sys.stdout)
    header = ["target", "g", "d1", "d2", "chamber", "empty"]
    header += [f"b{k}" for k in range(width)]
    writer.writerow(header)
    for row in rows:
        betti = row["betti"] + [0] * (width - len(row["betti"]))
        writer.writerow(
            [
                row["target"],
                row["g"],
                row["d1"],
                row["d2"],
                row["chamber"],
                "yes" if row["empty"] else "no",
                *betti,
            ]
        )
    return 0


# -- parser -----------------------------------------------------------


def _add_output_flag(parser, choices=("text", "json", "latex")) -> None:
    parser.add_argument("--output", choices=choices, default=choices[0])


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triplehodge",
        description=(
            "Exact Hodge polynomials of triple and bundle moduli spaces"
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser(
        "compute", help="evaluate one closed-form target"
    )
    targets = compute.add_subparsers(dest="target", required=True)

    for name in ("n31", "n21"):
        p = targets.add_parser(name, help=f"triple space of type ({name[1]},1)")
        p.add_argument("--g", type=int, required=True)
        p.add_argument("--d1", type=int, required=True)
        p.add_argument("--d2", type=int, required=True)
        p.add_argument("--sigma", type=str, default=None)
        p.add_argument("--chamber", type=int, default=None)
        _add_output_flag(p)

    for name, help_text in (
        ("m2odd", "rank-2 moduli, odd degree"),
        ("m2even", "rank-2 semistable locus, even degree"),
        ("jac", "Jacobian of the curve"),
    ):
        p = targets.add_parser(name, help=help_text)
        p.add_argument("--g", type=int, required=True)
        _add_output_flag(p)

    p = targets.add_parser("m3", help="rank-3 moduli, degree coprime to 3")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--d", type=int, default=1)
    _add_output_flag(p)

    p = targets.add_parser("sym", help="symmetric power of the curve")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--g", type=int, required=True)
    _add_output_flag(p)

    p = targets.add_parser("grass", help="Grassmannian Gr(k, n)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    _add_output_flag(p)

    p = targets.add_parser("proj", help="projective space P^(n-1)")
    p.add_argument("--n", type=int, required=True)
    _add_output_flag(p)

    for name, help_text in (
        ("criticals", "critical values of the stability parameter"),
        ("chambers", "open chambers between critical values"),
    ):
        p = targets.add_parser(name, help=help_text)
        p.add_argument("--g", type=int, required=True)
        p.add_argument("--d1", type=int, required=True)
        p.add_argument("--d2", type=int, required=True)
        p.add_argument("--ranks", choices=("31", "21"), default="31")
        _add_output_flag(p, choices=("text", "json"))

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("suite", choices=(*SUITES, "all"))
    verify.add_argument("--grid", choices=tuple(GRIDS), default="quick")

    table = sub.add_parser("table", help="emit Betti-number tables")
    table.add_argument("--targets", type=str, required=True)
    table.add_argument("--g", type=str, default="")
    table.add_argument("--d1", type=str, default="")
    table.add_argument("--d2", type=str, default="0")
    table.add_argument("--k", type=str, default="")
    table.add_argument("--n", type=str, default="")
    table.add_argument("--d", type=int, default=1)
    table.add_argument("--output", choices=("csv", "json"), default="csv")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if args.command == "compute":
            return _cmd_compute(args)
        if args.command == "verify":
            return _cmd_verify(args)
        for flag in ("g", "d1", "d2", "k", "n"):
            setattr(args, flag, _int_list(getattr(args, flag)))
        return _cmd_table(args)
    except CriticalSigma as exc:
        criticals = ",".join(str(c) for c in exc.criticals)
        print(
            f"error: {exc}; criticals are {{{criticals}}}; "
            "pass a chamber or a non-critical rational",
            file=sys.stderr,
        )
        return 2
    except (UsageError, OutOfRange) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TripleHodgeError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
