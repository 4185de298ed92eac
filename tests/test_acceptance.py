"""Acceptance gate: the eight headline claims, at exact equality.

Each test is one criterion; running ``pytest -v tests/test_acceptance.py``
prints one pass/fail line per criterion.  Everything here is integer
arithmetic, so there are no tolerances anywhere.
"""

import random
import time

import oracles
from triplehodge import (
    LaurentPoly,
    TripleType,
    c_n_even,
    chamber_bounds,
    chi_triples,
    criticals,
    e_grassmannian,
    e_jacobian,
    e_m2_odd,
    e_m3,
    e_m3_via_pipeline,
    e_n31_closed,
    e_n31_flipsum,
    e_projective,
    e_sym,
    e_sym2_quotient,
    e_triples21,
    e_triples21_critical_stable,
    poincare_m3,
    residue_f1,
    residue_f2,
)
from triplehodge.flips import strata
from triplehodge.laurent import UV, ZERO
from triplehodge.series import f1_via_series, f2_via_series
from triplehodge.stability import chamber_bounds

GRID_31 = [
    (g, d1, d2)
    for g in (2, 3)
    for d1 in range(4, 10)
    for d2 in (0, 1)
    if d1 - 3 * d2 > 0
]

GRID_21 = [(2, d1, 0) for d1 in range(3, 7)]


def _duality_violations(poly: LaurentPoly, dim: int) -> list[str]:
    problems = []
    terms = poly.terms
    for (p, q), c in terms.items():
        if p < 0 or q < 0:
            problems.append(f"negative exponent at ({p}, {q})")
        if c < 0:
            problems.append(f"negative coefficient {c} at ({p}, {q})")
        if terms.get((q, p), 0) != c:
            problems.append(f"conjugation asymmetry at ({p}, {q})")
        if terms.get((dim - p, dim - q), 0) != c:
            problems.append(f"duality failure at ({p}, {q})")
    if poly.total_degree() != 2 * dim:
        problems.append(f"degree {poly.total_degree()} != {2 * dim}")
    return problems


def test_criterion_1_closed_form_equals_wall_crossing_on_full_grid():
    started = time.monotonic()
    chambers_checked = 0
    for g, d1, d2 in GRID_31:
        t = TripleType(3, 1, d1, d2, g)
        for index in range(1, len(chamber_bounds(t)) + 1):
            closed = e_n31_closed(g, d1, d2, chamber=index)
            summed = e_n31_flipsum(g, d1, d2, chamber=index)
            assert closed.poly == summed.poly, (
                f"(g,d1,d2)=({g},{d1},{d2}) chamber {index}"
            )
            chambers_checked += 1
    assert chambers_checked >= 40
    assert time.monotonic() - started < 120


def test_criterion_2_rank3_closed_form_equals_pipeline():
    for g in (2, 3, 4):
        direct = e_m3(g)
        lifted = e_m3_via_pipeline(g)
        assert direct.poly == lifted.poly, f"g={g}"
        dim = 9 * g - 8
        assert direct.dim == dim
        assert _duality_violations(direct.poly, dim) == [], f"g={g}"
        assert direct.poly.diagonal() == poincare_m3(g), f"g={g}"


def test_criterion_3_even_wall_strata_sum_to_closed_jump():
    even_walls = 0
    for g, d1, d2 in GRID_31:
        t = TripleType(3, 1, d1, d2, g)
        for n, _sigma in criticals(t):
            if n % 2:
                continue
            # building the contribution re-checks the strata internally
            # and raises StrataMismatch on any disagreement
            flip = c_n_even(t, n)
            total = sum(strata(t, n), ZERO)
            assert total == flip.cn.as_polynomial(), (
                f"(g,d1,d2,n)=({g},{d1},{d2},{n})"
            )
            even_walls += 1
    assert even_walls >= 10


def test_criterion_4_chi_reproduces_every_fiber_dimension():
    for g, d1, d2 in GRID_31:
        t = TripleType(3, 1, d1, d2, g)
        for n, _sigma in criticals(t):
            where = f"(g,d1,d2,n)=({g},{d1},{d2},{n})"
            n1 = d1 - d2 - n
            two_n2 = 2 * g - 2 - 2 * d1 + 3 * n
            rank11 = TripleType(1, 1, d1 - n, d2, g)
            bundle2 = TripleType(2, 0, n, 0, g)
            assert -chi_triples(rank11, bundle2) == 2 * n1, where
            assert -chi_triples(bundle2, rank11) == two_n2, where
            if n % 2 == 0:
                n2 = two_n2 // 2
                pair21 = TripleType(2, 1, d1 - n // 2, d2, g)
                line = TripleType(1, 0, n // 2, 0, g)
                assert -chi_triples(pair21, line) == g - 1 + n1, where
                assert -chi_triples(line, pair21) == g - 1 + n2, where
                assert -chi_triples(rank11, line) == n1, where
                assert -chi_triples(line, rank11) == n2, where
                assert -chi_triples(line, line) == g - 1, where


def test_criterion_5_residue_formulas_match_series_extraction():
    rng = random.Random(20260819)
    instances = 0
    saw_negative_pole = False
    for g in (2, 3):
        for _ in range(25):
            exps = rng.sample(range(-3, 5), 4)
            saw_negative_pole = saw_negative_pole or min(exps) < 0
            poles3 = [UV**e for e in exps[:3]]
            assert residue_f1(g, *poles3) == f1_via_series(g, *poles3)
            poles4 = [UV**e for e in exps]
            assert residue_f2(g, *poles4) == f2_via_series(g, *poles4)
            instances += 1
    assert instances == 50
    assert saw_negative_pole


def test_criterion_6_building_block_regressions():
    assert e_sym(2, 2).poly == LaurentPoly(oracles.SYM2_G2)
    assert e_grassmannian(2, 4).poly == LaurentPoly(oracles.GR24)
    assert e_sym2_quotient(e_projective(2)).poly == e_projective(3).poly


def test_criterion_7_rank2_duality_everywhere():
    for g in (2, 3, 4):
        h = e_m2_odd(g)
        assert _duality_violations(h.poly, 4 * g - 3) == [], f"g={g}"
    for g, d1, d2 in GRID_21:
        dim = 3 * g - 2 + d1 - 2 * d2
        bounds = chamber_bounds(TripleType(2, 1, d1, d2, g))
        for index in range(1, len(bounds) + 1):
            h = e_triples21(g, d1, d2, chamber=index)
            if h.empty:
                continue
            assert _duality_violations(h.poly, dim) == [], (
                f"(g,d1,d2)=({g},{d1},{d2}) chamber {index}"
            )


def test_criterion_8_stable_locus_replay_at_rank2_walls():
    for g, d1, d2 in GRID_21:
        jac2 = e_jacobian(g).poly ** 2
        walls = criticals(TripleType(2, 1, d1, d2, g))
        for i, (d_m, _sigma) in enumerate(walls):
            below = e_triples21(g, d1, d2, chamber=i + 1).poly
            s_minus = (
                jac2
                * e_sym(d1 - d2 - d_m, g).poly
                * e_projective(2 * d_m - d1 + g - 1).poly
            )
            stable = e_triples21_critical_stable(g, d1, d2, d_m).poly
            assert below - s_minus == stable, (
                f"(g,d1,d2)=({g},{d1},{d2}) wall d_m={d_m}"
            )
