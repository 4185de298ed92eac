"""Command-line front end: compute targets, verify suites, Betti tables.

Results go to stdout, diagnostics to stderr.  Exit codes: 0 success,
1 hard invariant failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
from collections.abc import Callable
from fractions import Fraction
from itertools import product
from typing import NamedTuple

from . import __version__
from .errors import CriticalSigma, OutOfRange, TripleHodgeError
from .laurent import ZERO
from .moduli import e_m3, e_n31_closed, poincare
from .rank2 import e_m2_odd, e_m2s_even, e_triples21
from .stability import TripleType, chamber_bounds, criticals
from .verify import GRIDS, SUITES, run_suite
from .zoo import (
    HodgeResult,
    e_grassmannian,
    e_jacobian,
    e_projective,
    e_sym,
)

_RATIONAL = re.compile(r"^[+-]?\d+(/\d+)?$")


class _Target(NamedTuple):
    """One Hodge target of ``compute`` and ``table``.

    fn takes keyword arguments named after the flags: the integer flags
    in the order ``table`` nests its loops, then (flag, default) scalars
    that ``table`` does not loop over.  ranks "31" or "21" marks a
    triple space, placed by --sigma or --chamber and tabled one row per
    chamber; column fills the "chamber" column of the other targets.
    """

    fn: Callable[..., HodgeResult]
    help: str
    flags: tuple[str, ...]
    ranks: str = ""
    scalars: tuple[tuple[str, int], ...] = ()
    column: Callable[[dict], object] = lambda values: ""


# a triple type's flags, which are also the table's type columns
_TRIPLE = ("g", "d1", "d2")
_G = ("g",)

_TARGETS = {
    "n31": _Target(e_n31_closed, "triple space of type (3,1)", _TRIPLE, "31"),
    "n21": _Target(e_triples21, "triple space of type (2,1)", _TRIPLE, "21"),
    "m2odd": _Target(e_m2_odd, "rank-2 moduli, odd degree", _G),
    "m2even": _Target(e_m2s_even, "rank-2 semistable locus, even degree", _G),
    "jac": _Target(e_jacobian, "Jacobian of the curve", _G),
    "m3": _Target(
        e_m3, "rank-3 moduli, degree coprime to 3", _G, scalars=(("d", 1),)
    ),
    "sym": _Target(
        e_sym,
        "symmetric power of the curve",
        ("g", "k"),
        column=lambda values: values["k"],
    ),
    "grass": _Target(
        e_grassmannian,
        "Grassmannian Gr(k, n)",
        ("k", "n"),
        column="{k}/{n}".format_map,
    ),
    "proj": _Target(e_projective, "projective space P^(n-1)", ("n",)),
}

# table's comma-separated integer lists, and its unlooped integer flags
_LIST_FLAGS = tuple(
    dict.fromkeys(flag for t in _TARGETS.values() for flag in t.flags)
)
_SCALARS = dict(pair for t in _TARGETS.values() for pair in t.scalars)


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


def _attach_list_values(argv: list[str]) -> list[str]:
    """Rewrite ``table … --d2 -1,-2`` as ``table … --d2=-1,-2``.

    argparse reads a separate token that starts with ``-`` as an option
    unless it is one negative number, so a list that starts with a
    negative value is attached to its flag before parsing.
    """
    if argv[:1] != ["table"]:
        return argv
    flags = [f"--{flag}" for flag in _LIST_FLAGS]
    out = [argv[0]]
    for token in argv[1:]:
        if out[-1] in flags and re.match(r"-\d", token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise UsageError(f"expected comma-separated integers, got {text!r}")


# -- compute ----------------------------------------------------------


def _chamber_payload(h: HodgeResult):
    ch = h.chamber
    if ch is None:
        return None
    return {"sigma": str(ch.sigma), "lo": str(ch.lo), "hi": str(ch.hi)}


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
    ch = h.chamber
    if ch is not None:
        lines.append(f"sigma: {ch.sigma}")
        lines.append(f"chamber: ({ch.lo}, {ch.hi})")
    if h.empty:
        lines.append("empty: true")
    return "\n".join(lines)


def _compute_hodge(args) -> HodgeResult:
    target = _TARGETS[args.target]
    flags = (*target.flags, *(flag for flag, _ in target.scalars))
    kwargs = {flag: getattr(args, flag) for flag in flags}
    if target.ranks:
        if (args.sigma is None) == (args.chamber is None):
            raise UsageError("pass exactly one of --sigma and --chamber")
        sigma = _parse_sigma(args.sigma) if args.sigma is not None else None
        kwargs.update(sigma=sigma, chamber=args.chamber)
    return target.fn(**kwargs)


def _triple_type(ranks: str, g: int, d1: int, d2: int) -> TripleType:
    """The type (n1, n2, d1, d2) whose ranks are spelled "31" or "21"."""
    return TripleType(int(ranks[0]), int(ranks[1]), d1, d2, g)


def _render_criticals(args) -> str:
    pairs = criticals(_triple_type(args.ranks, args.g, args.d1, args.d2))
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
    if h.empty:
        return []
    series = poincare(h).as_univariate()
    return [series.get(k, 0) for k in range(max(series) + 1)]


def _row(name: str, h: HodgeResult, values: dict, chamber) -> dict:
    return {
        "target": name,
        **{flag: values.get(flag, "") for flag in _TRIPLE},
        "chamber": chamber,
        "empty": h.empty,
        "betti": _betti(h),
    }


def _target_rows(name: str, target: _Target, values: dict) -> list[dict]:
    """The rows of one point of a target's flag grid: one per chamber
    for a triple target, else one."""
    if not target.ranks:
        h = target.fn(**values)
        return [_row(name, h, values, target.column(values))]
    count = len(chamber_bounds(_triple_type(target.ranks, **values)))
    if not count:
        return [_row(name, HodgeResult(ZERO, 0), values, "-")]
    return [
        _row(name, target.fn(**values, chamber=index), values, index)
        for index in range(1, count + 1)
    ]


def _table_rows(args) -> list[dict]:
    rows: list[dict] = []
    for name in args.targets:
        target = _TARGETS[name]
        scalars = {flag: getattr(args, flag) for flag, _ in target.scalars}
        grid = product(*(getattr(args, flag) for flag in target.flags))
        for point in grid:
            values = dict(zip(target.flags, point), **scalars)
            rows.extend(_target_rows(name, target, values))
    return rows


def _cmd_table(args) -> int:
    args.targets = [part for part in args.targets.split(",") if part]
    for name in args.targets:
        if name not in _TARGETS:
            raise UsageError(f"unknown table target {name!r}")
    for flag in _LIST_FLAGS:
        users = [name for name in args.targets if flag in _TARGETS[name].flags]
        if users and not getattr(args, flag):
            raise UsageError(f"--{flag} is required for {', '.join(users)}")
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
        empty = "yes" if row["empty"] else "no"
        writer.writerow([*(row[key] for key in header[:5]), empty, *betti])
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

    for name, target in _TARGETS.items():
        p = targets.add_parser(name, help=target.help)
        for flag in target.flags:
            p.add_argument(f"--{flag}", type=int, required=True)
        for flag, default in target.scalars:
            p.add_argument(f"--{flag}", type=int, default=default)
        if target.ranks:
            p.add_argument("--sigma", type=str, default=None)
            p.add_argument("--chamber", type=int, default=None)
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
    for flag in _LIST_FLAGS:
        # triple rows default to d2 = 0
        table.add_argument(
            f"--{flag}", type=str, default="0" if flag == "d2" else ""
        )
    for flag, default in _SCALARS.items():
        table.add_argument(f"--{flag}", type=int, default=default)
    table.add_argument("--output", choices=("csv", "json"), default="csv")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(
            _attach_list_values(sys.argv[1:] if argv is None else list(argv))
        )
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if args.command == "compute":
            code = _cmd_compute(args)
        elif args.command == "verify":
            code = _cmd_verify(args)
        else:
            for flag in _LIST_FLAGS:
                setattr(args, flag, _int_list(getattr(args, flag)))
            code = _cmd_table(args)
        # a reader that has gone is met here, not in the flush at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # stdout's reader closed it (``| head -1``): what is still
        # buffered goes to devnull, so the exit writes nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
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
