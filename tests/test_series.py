"""Tests for truncated x-series and the residue coefficient formulas."""

import random
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from triplehodge import (
    DegeneratePoles,
    LaurentPoly,
    OrderTooLow,
    XSeries,
    residue_f1,
    residue_f2,
)
from triplehodge.laurent import ONE, U, UV, V, ZERO
from triplehodge.series import (
    curve_numerator,
    extract,
    f1_via_series,
    f2_via_series,
    sym_series,
)


# -- series mechanics ---------------------------------------------------


def test_geometric_coefficients():
    s = XSeries.geometric(UV, 6)
    for k in range(6):
        assert s.coeff(k) == UV**k
    assert s.coeff(-1) == ZERO
    with pytest.raises(OrderTooLow):
        s.coeff(6)


def test_geometric_times_one_minus_ratio_is_one():
    for ratio in (ONE, UV, UV**-1, LaurentPoly.monomial(2, 1)):
        prod = XSeries.geometric(ratio, 8) * XSeries(8, [ONE, -ratio])
        assert prod.coeff(0) == ONE
        for k in range(1, 8):
            assert prod.coeff(k).is_zero()


def test_series_linear_ops():
    s = XSeries.geometric(UV, 5)
    t = XSeries(5, [ONE])
    assert (s * 3).coeff(1) == 3 * UV
    assert (2 * t).coeff(0) == 2 * ONE


def test_product_truncates_to_min_order():
    s = XSeries.geometric(ONE, 7)
    t = XSeries(4, [ONE])
    assert (s * t).order == 4


def test_coefficient_validation():
    s = XSeries(3, [1, UV])
    assert s.coeff(0) == ONE
    assert s.coeff(2).is_zero()
    with pytest.raises(TypeError):
        XSeries(3, ["u"])
    with pytest.raises(ValueError):
        XSeries(-1, [])


# -- curve and symmetric-power series ------------------------------------


def test_curve_numerator_binomial_coefficients():
    g, order = 3, 8
    s = curve_numerator(g, order)
    for k in range(order):
        expected = LaurentPoly(
            {
                (i, k - i): comb(g, i) * comb(g, k - i)
                for i in range(max(0, k - g), min(g, k) + 1)
                if k - i <= g
            }
        )
        assert s.coeff(k) == expected


def test_sym_series_matches_brute_force():
    for g in (2, 3):
        s = sym_series(g, 7)
        for k in range(7):
            assert s.coeff(k) == LaurentPoly(oracles.sym_power_curve(k, g))


# -- coefficient extraction ------------------------------------------------

_monomial_exps = st.tuples(st.integers(-3, 3), st.integers(-3, 3))


@settings(max_examples=60, deadline=None)
@given(
    g=st.integers(0, 4),
    k=st.integers(-2, 8),
    exps=st.lists(_monomial_exps, max_size=4),
)
def test_extract_matches_brute_force(g, k, exps):
    poles = [LaurentPoly.monomial(a, b) for a, b in exps]
    got = extract(curve_numerator(g, max(k + 1, 0)), poles, k)
    expected = oracles.coeff_extract(g, [{e: 1} for e in exps], k)
    assert got == LaurentPoly(expected)


# poles with several terms, repeated poles, and -u and -u - v, which
# cancel one and both terms of c[1] = u + v at g = 1
_POLE_LISTS = [
    [ONE + U],
    [2 + UV],
    [U - V**2],
    [UV, UV],
    [ONE + U, 2 + UV, U - V**2, UV, UV],
    [-U],
    [-U - V],
    [-U - V, ONE + U, -U - V],
]


@pytest.mark.parametrize("poles", _POLE_LISTS)
@pytest.mark.parametrize("g", [0, 1, 3])
def test_extract_at_polynomial_and_repeated_poles(g, poles):
    dicts = [p.terms for p in poles]
    for k in range(7):
        got = extract(curve_numerator(g, k + 1), poles, k)
        assert got == LaurentPoly(oracles.coeff_extract(g, dicts, k))
        assert 0 not in got.terms.values()


def test_extract_needs_the_coefficient_it_reads():
    expected = oracles.coeff_extract(2, [{(1, 1): 1}] * 2, 3)
    assert extract(curve_numerator(2, 4), [UV, UV], 3) == LaurentPoly(expected)
    for order in (0, 3):
        with pytest.raises(OrderTooLow):
            extract(curve_numerator(2, order), [UV], 3)
    assert extract(curve_numerator(2, 0), [UV], -1) == ZERO


# -- residue coefficient formulas ----------------------------------------


def _uv_pole(e: int) -> LaurentPoly:
    return UV**e


def test_residue_f1_three_routes_agree():
    rng = random.Random(5)
    for g in (2, 3):
        for _ in range(10):
            exps = rng.sample(range(-3, 5), 3)
            poles = [_uv_pole(e) for e in exps]
            closed = residue_f1(g, *poles)
            via = f1_via_series(g, *poles)
            brute = LaurentPoly(
                oracles.coeff_extract(g, [{(e, e): 1} for e in exps], 2 * g - 2)
            )
            assert via == brute
            assert closed == brute


def test_residue_f2_three_routes_agree():
    rng = random.Random(6)
    for g in (2, 3):
        for _ in range(10):
            exps = rng.sample(range(-3, 5), 4)
            poles = [_uv_pole(e) for e in exps]
            closed = residue_f2(g, *poles)
            via = f2_via_series(g, *poles)
            brute = LaurentPoly(
                oracles.coeff_extract(g, [{(e, e): 1} for e in exps], 2 * g - 3)
            )
            assert via == brute
            assert closed == brute


def test_residues_with_mixed_pole_shapes():
    g = 2
    poles = [ONE, UV, LaurentPoly.monomial(2, 1)]
    dicts = [{(0, 0): 1}, {(1, 1): 1}, {(2, 1): 1}]
    brute = LaurentPoly(oracles.coeff_extract(g, dicts, 2 * g - 2))
    assert residue_f1(g, *poles) == brute
    assert f1_via_series(g, *poles) == brute


# non-monomial poles: their differences reach the heap route of
# divide_exact inside the divided-difference table
_POLES = {
    "1 + u": {(0, 0): 1, (1, 0): 1},
    "v": {(0, 1): 1},
    "1 - uv": {(0, 0): 1, (1, 1): -1},
    "2 + uv": {(0, 0): 2, (1, 1): 1},
    "u - v^2": {(1, 0): 1, (0, 2): -1},
    "u^2 v": {(2, 1): 1},
}


@pytest.mark.parametrize("g", [2, 3])
def test_residues_match_brute_force_at_non_monomial_poles(g):
    for count, residue in ((3, residue_f1), (4, residue_f2)):
        for names in combinations(_POLES, count):
            dicts = [_POLES[name] for name in names]
            brute = oracles.coeff_extract(g, dicts, 2 * g + 1 - count)
            closed = residue(g, *map(LaurentPoly, dicts))
            assert closed == LaurentPoly(brute), names


def test_residue_pole_order_is_immaterial():
    g = 3
    a, b, c = ONE, UV, UV**2
    assert residue_f1(g, a, b, c) == residue_f1(g, c, a, b)
    d = UV**-1
    assert residue_f2(g, a, b, c, d) == residue_f2(g, d, c, b, a)


def test_residue_degenerate_poles_rejected():
    with pytest.raises(DegeneratePoles):
        residue_f1(2, UV, UV, UV**2)
    with pytest.raises(DegeneratePoles):
        residue_f2(2, ONE, UV, UV, UV**2)
