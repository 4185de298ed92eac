"""Verification suites: invariants and cross-path identities over grids.

Every closed-form result in the package has at least one independent
computation route; these suites run them against each other exactly (no
tolerances anywhere) over desk-scale parameter grids, and are exposed
through the command-line `verify` subcommand.
"""

from __future__ import annotations

import time
from contextlib import suppress
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from random import Random
from typing import Callable

from .errors import NotCritical, ParityError
from .laurent import ONE, UV, ZERO, FractionUV, LaurentPoly, divide_exact
from .series import (
    XSeries,
    f1_via_series,
    f2_via_series,
    residue_f1,
    residue_f2,
)
from .stability import TripleType, chamber_bounds, chi_triples, criticals
from .zoo import (
    e_grassmannian,
    e_jacobian,
    e_projective,
    e_sym,
    e_sym2_quotient,
    smooth_projective_failures,
)
from .rank2 import (
    e_m2_odd,
    e_m2_odd_via_pipeline,
    e_m2s_even,
    e_triples21,
    e_triples21_critical_stable,
)
from .flips import c_n_even, c_n_odd, flip_contribution
from .moduli import (
    e_m3,
    e_m3_via_pipeline,
    e_n31_closed,
    e_n31_flipsum,
    poincare,
    poincare_m3,
    poincare_n31,
)

__all__ = ["Grid", "VerifyReport", "GRIDS", "SUITES", "run_suite"]

# a check returns its pass detail and raises to fail
Case = tuple[str, Callable[[], str]]


@dataclass(frozen=True)
class Grid:
    gs: tuple[int, ...]
    d1s: tuple[int, ...]
    d2s: tuple[int, ...]
    m3_gs: tuple[int, ...]


GRIDS = {
    "quick": Grid((2,), (4, 5, 6, 7), (0,), (2,)),
    "full": Grid((2, 3), (4, 5, 6, 7, 8, 9), (0, 1), (2, 3, 4)),
}


@dataclass
class VerifyReport:
    suite: str
    cases: list[tuple[str, str, str]]
    wall_time: float

    @property
    def failures(self) -> int:
        return sum(1 for _, status, _ in self.cases if status == "fail")

    @property
    def warnings(self) -> int:
        return sum(1 for _, status, _ in self.cases if status == "warn")


class _CheckFailed(Exception):
    """A check's verdict other than pass: its detail, "fail" or "warn"."""

    def __init__(self, detail: str, status: str = "fail"):
        super().__init__(detail)
        self.status = status


def _triple_types(grid: Grid) -> list[TripleType]:
    return [
        TripleType(3, 1, d1, d2, g)
        for g in grid.gs
        for d1 in grid.d1s
        for d2 in grid.d2s
        if d1 - 3 * d2 > 0
    ]


# -- algebra ----------------------------------------------------------


def _random_poly(rng: Random, terms: int = 4, span: int = 3) -> LaurentPoly:
    poly = ZERO
    for _ in range(rng.randint(1, terms)):
        a = rng.randint(-span, span)
        b = rng.randint(-span, span)
        poly = poly + LaurentPoly.monomial(a, b, rng.randint(-9, 9))
    return poly


def _suite_algebra(grid: Grid) -> list[Case]:
    def ring_axioms():
        rng = Random(97)
        for _ in range(25):
            p, q, r = (_random_poly(rng) for _ in range(3))
            if (p + q) * r != p * r + q * r:
                raise _CheckFailed(f"distributivity: {p}, {q}, {r}")
            if p * q != q * p:
                raise _CheckFailed(f"commutativity: {p}, {q}")
            if (p * q) * r != p * (q * r):
                raise _CheckFailed(f"associativity: {p}, {q}, {r}")
        return "75 identities on randomized Laurent inputs"

    def division_roundtrip():
        rng = Random(11)
        count = 0
        for _ in range(40):
            p = _random_poly(rng)
            q = _random_poly(rng)
            if q.is_zero():
                continue
            if divide_exact(p * q, q) != p:
                raise _CheckFailed(f"(p*q)/q != p for p={p}, q={q}")
            count += 1
        return f"{count} exact divisions round-tripped"

    def serialization_roundtrip():
        rng = Random(23)
        for _ in range(40):
            p = _random_poly(rng)
            if LaurentPoly.parse(p.to_text()) != p:
                raise _CheckFailed(f"text round-trip: {p.to_text()}")
            if LaurentPoly.from_triples(p.to_triples()) != p:
                raise _CheckFailed(f"triple round-trip: {p}")
        return "text and JSON-triple round-trips"

    def fraction_normalize():
        rng = Random(41)
        for _ in range(30):
            num = _random_poly(rng)
            den = _random_poly(rng)
            if den.is_zero():
                den = ONE - UV
            f = FractionUV(num, den)
            if f.normalize() != f:
                raise _CheckFailed(f"normalize changed value of {f}")
        return "30 normalizations value-preserving"

    def geometric_unit():
        rng = Random(59)
        for _ in range(20):
            m = LaurentPoly.monomial(rng.randint(-3, 3), rng.randint(-3, 3))
            series = XSeries.geometric(m, 8)
            shifted = XSeries(8, [ONE, -m])
            prod = series * shifted
            for k in range(8):
                want = ONE if k == 0 else ZERO
                if prod.coeff(k) != want:
                    raise _CheckFailed(f"geometric({m}) inverse fails at x^{k}")
        return "geometric series times (1 - m x) is 1"

    def residue_oracle():
        rng = Random(73)
        exponents = list(range(-3, 5))
        done = 0
        while done < 50:
            g = rng.choice((2, 3))
            picks = rng.sample(exponents, 4)
            a, b, c, d = (UV**e for e in picks)
            if residue_f1(g, a, b, c) != f1_via_series(g, a, b, c):
                raise _CheckFailed(f"F1 mismatch at g={g}, poles (uv)^{picks[:3]}")
            if residue_f2(g, a, b, c, d) != f2_via_series(g, a, b, c, d):
                raise _CheckFailed(f"F2 mismatch at g={g}, poles (uv)^{picks}")
            done += 1
        return "50 randomized instances, negative poles included"

    return [
        ("algebra/ring-axioms", ring_axioms),
        ("algebra/division-roundtrip", division_roundtrip),
        ("algebra/serialization-roundtrip", serialization_roundtrip),
        ("algebra/fraction-normalize", fraction_normalize),
        ("algebra/geometric-unit", geometric_unit),
        ("algebra/residue-oracle", residue_oracle),
    ]


# -- zoo --------------------------------------------------------------


def _suite_zoo(grid: Grid) -> list[Case]:
    def projective():
        if e_projective(3).poly.to_text() != "1 + u*v + u^2*v^2":
            raise _CheckFailed("e(P^2) text form")
        got = poincare(e_projective(4)).as_univariate()
        if got != {0: 1, 2: 1, 4: 1, 6: 1}:
            raise _CheckFailed(f"P^3 Betti numbers {got}")
        return ""

    def symmetric_powers():
        for g in grid.gs:
            for k in range(0, 7):
                h = e_sym(k, g)
                bad = smooth_projective_failures(h.poly, h.dim)
                if bad:
                    raise _CheckFailed(f"Sym^{k}, g={g}: {bad[0]}")
                if h.poly.coefficient(0, 0) != 1:
                    raise _CheckFailed(f"Sym^{k}, g={g}: constant term != 1")
        pinned = LaurentPoly.parse(
            "1 + 2*u + 2*v + u^2 + 5*u*v + v^2 + 2*u^2*v + 2*u*v^2 + u^2*v^2"
        )
        if e_sym(2, 2).poly != pinned:
            raise _CheckFailed("Sym^2 X at g=2 differs from pin")
        return ""

    def jacobian():
        h = e_jacobian(2)
        pinned = LaurentPoly.parse(
            "1 + 2*u + 2*v + u^2 + 4*u*v + v^2 + 2*u^2*v + 2*u*v^2 + u^2*v^2"
        )
        if h.poly != pinned:
            raise _CheckFailed("e(Jac) at g=2 differs from pin")
        if h.poly.evaluate(1, 1) != 16:
            raise _CheckFailed("e(Jac)(1,1) != 16 at g=2")
        return ""

    def grassmannian():
        pinned = LaurentPoly.parse(
            "1 + u*v + 2*u^2*v^2 + u^3*v^3 + u^4*v^4"
        )
        if e_grassmannian(2, 4).poly != pinned:
            raise _CheckFailed("Gr(2,4) differs from pin")
        for n in range(0, 7):
            for k in range(0, n + 1):
                h = e_grassmannian(k, n)
                if h.poly != e_grassmannian(n - k, n).poly:
                    raise _CheckFailed(f"Gr({k},{n}) != Gr({n-k},{n})")
                bad = smooth_projective_failures(h.poly, h.dim)
                if bad:
                    raise _CheckFailed(f"Gr({k},{n}): {bad[0]}")
        for n in range(1, 6):
            if e_grassmannian(1, n).poly != e_projective(n).poly:
                raise _CheckFailed(f"Gr(1,{n}) != P^{n-1}")
        return "pins, duality, and projective-space agreement"

    def sym2_quotient():
        if e_sym2_quotient(e_projective(2)).poly != e_projective(3).poly:
            raise _CheckFailed("(P^1 x P^1)/Z2 differs from P^2")
        return ""

    return [
        ("zoo/projective", projective),
        ("zoo/symmetric-powers", symmetric_powers),
        ("zoo/jacobian", jacobian),
        ("zoo/grassmannian", grassmannian),
        ("zoo/sym2-quotient", sym2_quotient),
    ]


# -- rank2 ------------------------------------------------------------


def _suite_rank2(grid: Grid) -> list[Case]:
    cases: list[Case] = []
    m2_gs = tuple(sorted(set(grid.gs) | set(grid.m3_gs)))

    def m2odd():
        for g in m2_gs:
            h = e_m2_odd(g)
            bad = smooth_projective_failures(h.poly, h.dim)
            if bad:
                raise _CheckFailed(f"g={g}: {bad[0]}")
            if h.poly.coefficient(0, 0) != 1:
                raise _CheckFailed(f"g={g}: constant term != 1")
            if h.poly != e_m2_odd_via_pipeline(g).poly:
                raise _CheckFailed(f"g={g}: closed form != pipeline quotient")
        return f"duality and degree at g in {m2_gs}"

    def m2even():
        for g in m2_gs:
            h = e_m2s_even(g)
            if h.poly.total_degree() != 2 * (4 * g - 3):
                raise _CheckFailed(f"g={g}: degree != {2 * (4 * g - 3)}")
            if h.smooth_projective:
                raise _CheckFailed(f"g={g}: stable locus flagged projective")
        return "halving exact, degree right, flag off"

    cases.append(("rank2/m2odd-invariants", m2odd))
    cases.append(("rank2/m2even-exact", m2even))

    pairs = sorted({(d1, d2) for d1 in grid.d1s for d2 in grid.d2s})
    for g in grid.gs:
        for d1, d2 in pairs:
            if d1 - 2 * d2 <= 0:
                continue
            cases.append(
                (
                    f"rank2/chambers-g{g}-d{d1}-{d2}",
                    partial(_rank2_chambers, g, d1, d2),
                )
            )
            cases.append(
                (
                    f"rank2/wall-replay-g{g}-d{d1}-{d2}",
                    partial(_rank2_wall, g, d1, d2),
                )
            )
    return cases


def _rank2_chambers(g: int, d1: int, d2: int) -> str:
    dim = 3 * g - 2 + d1 - 2 * d2
    bounds = chamber_bounds(TripleType(2, 1, d1, d2, g))
    for index in range(1, len(bounds) + 1):
        h = e_triples21(g, d1, d2, chamber=index)
        if h.empty:
            continue
        bad = smooth_projective_failures(h.poly, dim)
        if bad:
            raise _CheckFailed(f"chamber {index}: {bad[0]}")
    return f"{len(bounds)} chambers checked"


def _rank2_wall(g: int, d1: int, d2: int) -> str:
    t = TripleType(2, 1, d1, d2, g)
    bounds = chamber_bounds(t)
    crits = criticals(t)
    jac = e_jacobian(g).poly
    jac2 = jac * jac
    for i, (d_m, _sigma) in enumerate(crits):
        flip = flip_contribution(t, d_m)
        below = e_triples21(g, d1, d2, chamber=i + 1).poly
        stable = e_triples21_critical_stable(g, d1, d2, d_m).poly
        # S^- = e(Jac)^2 e(Sym^N1) e(P^(N2-1)) by plain *, independent of
        # the binomial kernel that built the record's jump
        s_minus = jac2 * (
            e_sym(flip.N1, g).poly * e_projective(int(flip.N2)).poly
        )
        if below - s_minus != stable:
            raise _CheckFailed(f"d_m={d_m}: below - S^- != stable locus")
        above = (
            e_triples21(g, d1, d2, chamber=i + 2).poly
            if i + 2 <= len(bounds)
            else ZERO
        )
        if flip.cn != above - below:
            raise _CheckFailed(f"d_m={d_m}: chamber jump != C_n")
    return f"{len(crits)} walls replayed"


# -- flips ------------------------------------------------------------


def _suite_flips(grid: Grid) -> list[Case]:
    cases: list[Case] = [
        ("flips/criticals-pinned", _flips_pinned),
        ("flips/error-paths", _flips_errors),
    ]
    for t in _triple_types(grid):
        label = f"g{t.g}-d{t.d1}-{t.d2}"
        cases.append((f"flips/chi-pairs-{label}", partial(_flips_chi, t)))
        cases.append((f"flips/jumps-{label}", partial(_flips_cn, t)))
    return cases


def _flips_pinned() -> str:
    t = TripleType(3, 1, 5, 0, 2)
    if criticals(t) != [(4, 3), (5, 5)]:
        raise _CheckFailed("criticals of (3,1,5,0) at g=2")
    t = TripleType(3, 1, 6, 0, 2)
    if criticals(t) != [(5, 4), (6, 6)]:
        raise _CheckFailed("criticals of (3,1,6,0) at g=2")
    if criticals(TripleType(3, 1, 3, 1, 2)):
        raise _CheckFailed("criticals of (3,1,3,1) not empty")
    return ""


def _flips_errors() -> str:
    t = TripleType(3, 1, 5, 0, 2)
    for route, n, error, detail in (
        (c_n_odd, 4, ParityError, "ParityError not raised for even n"),
        (c_n_even, 5, ParityError, "ParityError not raised for odd n"),
        (c_n_odd, 7, NotCritical, "NotCritical not raised for n=7"),
    ):
        # the expected error ends the block; none fails the check
        with suppress(error):
            route(t, n)
            raise _CheckFailed(detail)
    return "parity and criticality errors raised"


def _flips_chi(t: TripleType) -> str:
    g, d1, d2 = t.g, t.d1, t.d2
    for n, _sigma in criticals(t):
        n1 = d1 - d2 - n
        two_n2 = 2 * g - 2 - 2 * d1 + 3 * n
        rank11 = TripleType(1, 1, d1 - n, d2, g)
        bundle2 = TripleType(2, 0, n, 0, g)
        if -chi_triples(rank11, bundle2) != 2 * n1:
            raise _CheckFailed(f"n={n}: -chi != 2N1")
        if -chi_triples(bundle2, rank11) != two_n2:
            raise _CheckFailed(f"n={n}: -chi != 2N2")
        if n % 2 == 0:
            n2 = two_n2 // 2
            pair21 = TripleType(2, 1, d1 - n // 2, d2, g)
            line = TripleType(1, 0, n // 2, 0, g)
            checks = [
                (-chi_triples(pair21, line), g - 1 + n1, "g-1+N1"),
                (-chi_triples(line, pair21), g - 1 + n2, "g-1+N2"),
                (-chi_triples(rank11, line), n1, "N1"),
                (-chi_triples(line, rank11), n2, "N2"),
                (-chi_triples(line, line), g - 1, "g-1"),
            ]
            for got, want, name in checks:
                if got != want:
                    raise _CheckFailed(f"n={n}: -chi != {name}")
    return f"{len(criticals(t))} criticals checked"


def _flips_cn(t: TripleType) -> str:
    g, d1, d2 = t.g, t.d1, t.d2
    jac = e_jacobian(g).poly
    for n, _sigma in criticals(t):
        flip = flip_contribution(t, n)
        if 2 * flip.N2 != 2 * g - 2 - 2 * d1 + 3 * n:
            raise _CheckFailed(f"n={n}: N2 wrong")
        if n % 2 == 0 and flip.N2.denominator != 1:
            raise _CheckFailed(f"n={n}: N2 not integral for even n")
        if n % 2 == 1:
            n1 = flip.N1
            bracket = (
                e_projective(2 * n1).poly
                - e_projective(2 * g - 2 - 2 * d1 + 3 * n).poly
            )
            structural = FractionUV(
                jac * e_sym(n1, g).poly * bracket * e_m2_odd(g).poly
            )
            if flip.cn != structural:
                raise _CheckFailed(f"n={n}: odd jump != structural form")
        if flip.N1 == flip.N2 and not flip.cn.is_zero():
            raise _CheckFailed(f"n={n}: N1 == N2 but jump nonzero")
    return f"{len(criticals(t))} jumps checked"


# -- crosspath --------------------------------------------------------


def _suite_crosspath(grid: Grid) -> list[Case]:
    cases: list[Case] = []
    for t in _triple_types(grid):
        label = f"g{t.g}-d{t.d1}-{t.d2}"
        bounds = chamber_bounds(t)
        for index in range(1, len(bounds) + 1):
            cases.append(
                (
                    f"crosspath/{label}-ch{index}",
                    partial(_crosspath_chamber, t, index),
                )
            )
        cases.append(
            (f"crosspath/{label}-edges", partial(_crosspath_edges, t))
        )
    return cases


def _crosspath_chamber(t: TripleType, index: int) -> str:
    g, d1, d2 = t.g, t.d1, t.d2
    lo, hi = chamber_bounds(t)[index - 1]
    closed = e_n31_closed(g, d1, d2, chamber=index)
    summed = e_n31_flipsum(g, d1, d2, chamber=index)
    if closed.poly != summed.poly:
        raise _CheckFailed("closed form != flip sum")
    second = lo + (hi - lo) / 3
    again = e_n31_closed(g, d1, d2, second)
    if again.poly != closed.poly:
        raise _CheckFailed("not constant within the chamber")
    if not closed.empty:
        bad = smooth_projective_failures(closed.poly, closed.dim)
        if bad:
            raise _CheckFailed(bad[0])
    if poincare_n31(g, d1, d2, chamber=index) != poincare(closed):
        raise _CheckFailed("t-display != diagonal")
    return ""


def _crosspath_edges(t: TripleType) -> str:
    g, d1, d2 = t.g, t.d1, t.d2
    crits = criticals(t)
    top_n, top_sigma = crits[-1]
    above = e_n31_closed(g, d1, d2, Fraction(top_sigma) + 1)
    if not above.empty:
        raise _CheckFailed("nonempty above sigma_M")
    top = e_n31_closed(g, d1, d2, chamber=len(crits))
    single = -flip_contribution(t, top_n).cn.as_polynomial()
    if top.poly != single:
        raise _CheckFailed("top chamber != -C_top")
    return ""


# -- m3 ---------------------------------------------------------------


def _suite_m3(grid: Grid) -> list[Case]:
    cases: list[Case] = []
    for g in grid.m3_gs:
        cases.append((f"m3/pipeline-g{g}", partial(_m3_pipeline, g)))
        cases.append((f"m3/b0-g{g}", partial(_m3_b0, g)))
    return cases


def _m3_pipeline(g: int) -> str:
    closed = e_m3(g)
    pipeline = e_m3_via_pipeline(g)
    if closed.poly != pipeline.poly:
        raise _CheckFailed("closed form != pipeline quotient")
    bad = smooth_projective_failures(closed.poly, closed.dim)
    if bad:
        raise _CheckFailed(bad[0])
    if poincare(closed) != poincare_m3(g):
        raise _CheckFailed("Poincare display != diagonal")
    return f"dim {closed.dim}, degree {closed.poly.total_degree()}"


def _m3_b0(g: int) -> str:
    b0 = e_m3(g).poly.coefficient(0, 0)
    if b0 != 1:
        raise _CheckFailed(f"b0 = {b0}, expected 1", status="warn")
    return ""


# -- runner -----------------------------------------------------------

SUITES = {
    "algebra": _suite_algebra,
    "zoo": _suite_zoo,
    "rank2": _suite_rank2,
    "flips": _suite_flips,
    "crosspath": _suite_crosspath,
    "m3": _suite_m3,
}


def _run_one(case: Case) -> tuple[str, str, str]:
    """(name, status, detail) of one case: the one place a status is set."""
    name, fn = case
    try:
        return (name, "pass", fn())
    except _CheckFailed as exc:
        return (name, exc.status, str(exc))
    except Exception as exc:  # a raised invariant is a hard failure
        return (name, "fail", f"{type(exc).__name__}: {exc}")


def run_suite(suite: str, grid_name: str = "quick") -> VerifyReport:
    """Run one named suite over a named grid and collect the report."""
    grid = GRIDS[grid_name]
    cases = SUITES[suite](grid)
    start = time.perf_counter()
    results = [_run_one(case) for case in cases]
    return VerifyReport(
        suite=suite, cases=results, wall_time=time.perf_counter() - start
    )
