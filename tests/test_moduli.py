"""Tests for N_sigma(3, 1) triple spaces and the rank-3 moduli space."""

from fractions import Fraction

import pytest

import oracles
import triplehodge
from triplehodge import moduli
from triplehodge import (
    CriticalSigma,
    FractionUV,
    LaurentPoly,
    OutOfRange,
    TripleType,
    criticals_31,
    e_jacobian,
    e_m3,
    e_m3_via_pipeline,
    e_n31_closed,
    e_n31_flipsum,
    flip_contribution,
    poincare,
    poincare_m3,
    poincare_n31,
)
from triplehodge.laurent import ONE, UV
from triplehodge.stability import chamber_bounds
from triplehodge.zoo import smooth_projective_failures

CROSS_GRID = [
    (g, d1, d2)
    for g in (2, 3)
    for d1 in range(4, 10)
    for d2 in (0, 1)
    if d1 - 3 * d2 > 0
]


def _betti(poly: LaurentPoly) -> list[int]:
    diag = poly.diagonal().as_univariate()
    return [diag.get(k, 0) for k in range(max(diag) + 1)]


# -- two routes to the same triple space ----------------------------------


@pytest.mark.parametrize("g,d1,d2", [(2, 5, 0), (2, 6, 0), (2, 7, 1), (3, 8, 0)])
def test_closed_equals_flipsum_every_chamber(g, d1, d2):
    t = TripleType(3, 1, d1, d2, g)
    for index in range(1, len(chamber_bounds(t)) + 1):
        closed = e_n31_closed(g, d1, d2, chamber=index)
        summed = e_n31_flipsum(g, d1, d2, chamber=index)
        assert closed.poly == summed.poly


def test_constant_within_chamber():
    g, d1, d2 = 2, 5, 0
    lo, hi = chamber_bounds(TripleType(3, 1, d1, d2, g))[0]
    probes = [lo + (hi - lo) * Fraction(k, 5) for k in (1, 2, 4)]
    polys = {e_n31_closed(g, d1, d2, s).poly for s in probes}
    assert len(polys) == 1


def test_chamber_invariants():
    for g, d1, d2 in ((2, 5, 0), (2, 6, 0), (3, 7, 0)):
        t = TripleType(3, 1, d1, d2, g)
        dim = 7 * g - 6 + d1 - 3 * d2
        for index in range(1, len(chamber_bounds(t)) + 1):
            h = e_n31_closed(g, d1, d2, chamber=index)
            assert h.dim == dim
            if not h.empty:
                assert smooth_projective_failures(h.poly, dim) == []


def test_empty_above_top_critical():
    g, d1, d2 = 2, 5, 0
    top = criticals_31(TripleType(3, 1, d1, d2, g))[-1][1]
    assert e_n31_closed(g, d1, d2, Fraction(top) + 1).empty
    assert e_n31_flipsum(g, d1, d2, Fraction(top) + 1).empty


def test_empty_below_sigma_min():
    g, d1, d2 = 2, 5, 0
    assert e_n31_closed(g, d1, d2, Fraction(5, 3)).empty
    assert e_n31_closed(g, d1, d2, 0).empty


def test_top_chamber_is_single_flip():
    for g, d1, d2 in ((2, 5, 0), (2, 6, 0)):
        t = TripleType(3, 1, d1, d2, g)
        crits = criticals_31(t)
        top_n = crits[-1][0]
        top = e_n31_closed(g, d1, d2, chamber=len(crits))
        single = (-flip_contribution(t, top_n).cn).as_polynomial()
        assert top.poly == single


def test_low_chamber_pinned_product_form():
    # just above sigma_m for (3, 1, 5, 0) at g = 2 the closed formula
    # collapses to Jac^2 (1 - (uv)^7) times the common wall kernel
    g = 2
    jac = e_jacobian(g).poly
    kernel = FractionUV(
        (ONE + LaurentPoly.monomial(2, 1)) ** g
        * (ONE + LaurentPoly.monomial(1, 2)) ** g
        - UV**g * jac,
        (ONE - UV) ** 2 * (ONE - UV**2),
    )
    expected = (FractionUV(jac * jac * (ONE - UV**7)) * kernel).as_polynomial()
    h = e_n31_closed(g, 5, 0, Fraction(7, 2))
    assert h.poly == expected
    assert h.poly.total_degree() == 26
    assert h.dim == 13


def test_critical_sigma_and_argument_errors():
    with pytest.raises(CriticalSigma) as info:
        e_n31_closed(2, 5, 0, 3)
    assert info.value.criticals == [3, 5]
    with pytest.raises(CriticalSigma):
        e_n31_flipsum(2, 5, 0, 5)
    with pytest.raises(OutOfRange):
        e_n31_closed(2, 5, 0, 2, chamber=1)
    with pytest.raises(OutOfRange):
        e_n31_closed(2, 5, 0)
    with pytest.raises(OutOfRange):
        e_n31_closed(1, 5, 0, 2)


def test_chamber_descriptor_attached():
    h = e_n31_closed(2, 5, 0, Fraction(7, 3))
    assert h.chamber == (Fraction(7, 3), Fraction(5, 3), Fraction(3))
    assert e_n31_closed(2, 5, 0, chamber=2).chamber == (
        Fraction(4),
        Fraction(3),
        Fraction(5),
    )


# -- independent t-variable display ----------------------------------------


def test_poincare_display_matches_diagonal():
    for g, d1, d2 in ((2, 5, 0), (2, 6, 0), (2, 7, 1)):
        t = TripleType(3, 1, d1, d2, g)
        for index in range(1, len(chamber_bounds(t)) + 1):
            closed = e_n31_closed(g, d1, d2, chamber=index)
            assert poincare_n31(g, d1, d2, chamber=index) == poincare(closed)


def test_poincare_helper_accepts_both_shapes():
    h = e_m3(2)
    assert poincare(h) == poincare(h.poly)
    assert poincare_n31(2, 5, 0, 10).is_zero()


# -- rank-3 moduli space -----------------------------------------------------


def test_m3_equals_pipeline():
    for g in (2, 3):
        assert e_m3(g).poly == e_m3_via_pipeline(g).poly


def test_m3_invariants():
    for g in (2, 3):
        h = e_m3(g)
        assert h.dim == 9 * g - 8
        assert h.smooth_projective
        assert h.poly.coefficient(0, 0) == 1
        assert h.poly.total_degree() == 18 * g - 16
        assert smooth_projective_failures(h.poly, h.dim) == []


def test_m3_betti_matches_hn_recursion():
    for g in (2, 3):
        betti = _betti(e_m3(g).poly)
        assert betti == oracles.M31_BETTI[g]
        assert betti == oracles.hn_moduli_betti(3, 1, g)


def test_m3_euler_characteristic_vanishes():
    # the Jacobian factor (1+u)^g (1+v)^g divides the polynomial, so
    # the Euler characteristic P(-1) vanishes; the total Betti sum is
    # P(1) = 1536 at genus 2
    assert e_m3(2).poly.evaluate(-1, -1) == 0
    assert e_m3(2).poly.evaluate(1, 1) == 1536


def test_m3_degree_validation():
    assert e_m3(2, 2).poly == e_m3(2, 1).poly
    assert e_m3(2, -1).poly == e_m3(2, 1).poly
    with pytest.raises(OutOfRange):
        e_m3(2, 3)
    with pytest.raises(OutOfRange):
        e_m3(2, 0)
    with pytest.raises(OutOfRange):
        e_m3(1)


def test_m3_poincare_display():
    for g in (2, 3):
        assert poincare_m3(g) == poincare(e_m3(g))


def test_m3_betti_first_values():
    # b2 = 1 and b4 = 2 are forced by the stack structure; the full
    # lists for g = 2, 3 are pinned against the independent recursion
    betti = _betti(e_m3(2).poly)
    assert betti[0] == 1
    assert betti[1] == 4
    assert betti[2] == 7


def test_package_exports_every_moduli_name():
    assert set(moduli.__all__) <= set(triplehodge.__all__)
    for name in moduli.__all__:
        assert getattr(triplehodge, name) is getattr(moduli, name)
