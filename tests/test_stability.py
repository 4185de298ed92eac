"""Tests for stability ranges, critical values, chambers, and chi."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from triplehodge import (
    CriticalSigma,
    NotCritical,
    OutOfRange,
    TripleType,
    c_n_odd,
    criticals,
    e_triples21_critical_stable,
    sigma_range,
)
from triplehodge.stability import Chamber, chamber_bounds, chi_triples, locate


# -- type validation ------------------------------------------------------


def test_type_validation():
    with pytest.raises(OutOfRange):
        TripleType(3, 1, 5, 0, 1)
    with pytest.raises(OutOfRange):
        TripleType(-1, 1, 5, 0, 2)
    with pytest.raises(OutOfRange):
        TripleType(0, 0, 5, 0, 2)
    with pytest.raises(TypeError):
        TripleType(3, 1, Fraction(5), 0, 2)
    # rank zero on one side is a legitimate chi operand
    assert TripleType(2, 0, 4, 0, 2).n2 == 0


# -- sigma ranges -----------------------------------------------------------


def test_sigma_range_31():
    rng = sigma_range(TripleType(3, 1, 5, 0, 2))
    assert rng.sigma_m == Fraction(5, 3)
    assert rng.sigma_M == 5
    assert rng.criticals == (Fraction(3), Fraction(5))
    assert not rng.empty


def test_sigma_range_21():
    rng = sigma_range(TripleType(2, 1, 5, 0, 2))
    assert rng.sigma_m == Fraction(5, 2)
    assert rng.sigma_M == 10
    assert rng.criticals == (Fraction(4), Fraction(7), Fraction(10))
    assert not rng.empty


def test_sigma_range_top_critical_is_sigma_max():
    for d1, d2 in ((4, 0), (5, 0), (7, 1), (9, 1)):
        rng = sigma_range(TripleType(3, 1, d1, d2, 2))
        if rng.criticals:
            assert rng.criticals[-1] == rng.sigma_M


def test_sigma_range_empty_when_interval_inverts():
    rng = sigma_range(TripleType(3, 1, 3, 2, 2))
    assert rng.empty
    assert rng.criticals == ()


def test_empty_range_has_no_criticals():
    # SigmaRange.empty is derived from the interval alone; the chamber
    # code relies on an inverted interval never carrying a wall
    empties = 0
    for ranks in ((2, 1), (3, 1)):
        for d1 in range(-12, 13):
            for d2 in range(-12, 13):
                t = TripleType(*ranks, d1, d2, 2)
                if sigma_range(t).empty:
                    empties += 1
                    assert criticals(t) == [], t
    assert empties > 0


def test_sigma_range_equal_ranks_unbounded():
    rng = sigma_range(TripleType(1, 1, 4, 0, 2))
    assert rng.sigma_M is None
    assert rng.criticals == ()


def test_sigma_range_needs_positive_ranks():
    with pytest.raises(OutOfRange):
        sigma_range(TripleType(2, 0, 4, 0, 2))


# -- critical values ----------------------------------------------------------


def test_criticals_31_pinned():
    assert criticals(TripleType(3, 1, 5, 0, 2)) == oracles.CRITICALS_3150
    assert criticals(TripleType(3, 1, 6, 0, 2)) == oracles.CRITICALS_3160
    assert criticals(TripleType(3, 1, 3, 1, 2)) == []


def test_criticals_31_structure():
    for d1 in range(4, 10):
        for d2 in (0, 1):
            crits = criticals(TripleType(3, 1, d1, d2, 3))
            for n, sigma in crits:
                assert sigma == 2 * n - d1 - d2
                assert 3 * n > 2 * d1
                assert n <= d1 - d2
            assert [n for n, _ in crits] == sorted(n for n, _ in crits)


def test_criticals_follow_the_ranks():
    assert criticals(TripleType(2, 1, 5, 0, 2)) == [(3, 4), (4, 7), (5, 10)]
    assert criticals(TripleType(1, 1, 5, 0, 2)) == []


def test_criticals_21_pinned():
    assert criticals(TripleType(2, 1, 5, 0, 2)) == [(3, 4), (4, 7), (5, 10)]
    assert criticals(TripleType(2, 1, 4, 0, 2)) == [(3, 5), (4, 8)]
    assert criticals(TripleType(2, 1, 4, 1, 2)) == [(3, 4)]
    assert criticals(TripleType(2, 1, 3, 2, 2)) == []


def test_not_critical_names_the_walls_for_both_ranks():
    with pytest.raises(NotCritical, match=r"\(3,1,5,0\).*\[4, 5\]"):
        c_n_odd(TripleType(3, 1, 5, 0, 2), 7)
    with pytest.raises(NotCritical, match=r"\(2,1,5,0\).*\[3, 4, 5\]"):
        e_triples21_critical_stable(2, 5, 0, 2)


# -- chambers -------------------------------------------------------------------


def test_chamber_bounds_pinned():
    bounds = chamber_bounds(TripleType(3, 1, 5, 0, 2))
    assert bounds == [(Fraction(5, 3), Fraction(3)), (Fraction(3), Fraction(5))]
    assert chamber_bounds(TripleType(3, 1, 3, 1, 2)) == []


def test_locate():
    t = TripleType(3, 1, 5, 0, 2)  # sigma in (5/3, 5], criticals 3 and 5
    assert locate(t, Fraction(2)) == Chamber(
        Fraction(2), Fraction(5, 3), Fraction(3), 4
    )
    assert locate(t, "7/2") == Chamber(
        Fraction(7, 2), Fraction(3), Fraction(5), 5
    )
    assert locate(t, 2).sigma == Fraction(2)
    # a chamber index stands for the chamber's midpoint
    assert locate(t, chamber=1) == Chamber(
        Fraction(7, 3), Fraction(5, 3), Fraction(3), 4
    )
    assert locate(t, chamber=2).sigma == Fraction(4)
    # outside (sigma_m, sigma_M] the space is empty
    assert locate(t, 1) is None
    assert locate(t, Fraction(5, 3)) is None
    assert locate(t, 6) is None
    with pytest.raises(OutOfRange):
        locate(t, chamber=0)
    with pytest.raises(OutOfRange):
        locate(t, chamber=3)
    with pytest.raises(OutOfRange):
        locate(TripleType(3, 1, 3, 1, 2), chamber=1)
    with pytest.raises(OutOfRange):
        locate(t, 2, 1)
    with pytest.raises(OutOfRange):
        locate(t, None, None)
    # a critical value lies in no chamber
    with pytest.raises(CriticalSigma) as info:
        locate(t, 3)
    assert str(info.value) == "sigma=3 is critical for (3,1,5,0)"
    assert info.value.criticals == [3, 5]
    with pytest.raises(CriticalSigma) as info:
        locate(TripleType(2, 1, 5, 0, 2), 4)
    assert str(info.value) == "sigma=4 is critical for (2,1,5,0)"


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([2, 3]),
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=-12, max_value=12),
    st.integers(min_value=-6, max_value=6),
    st.data(),
)
def test_locate_agrees_with_closed_forms(n1, g, d1, d2, data):
    sigma_m, sigma_M = oracles.sigma_interval(n1, d1, d2)
    sigma = data.draw(
        st.fractions(
            min_value=min(sigma_m, sigma_M) - 1,
            max_value=max(sigma_m, sigma_M) + 1,
            max_denominator=12,
        )
    )
    inside = sigma_m < sigma <= sigma_M
    # critical values: 2n - d1 - d2 for (3,1), 3*d_m - d1 - d2 for (2,1)
    step = 2 if n1 == 3 else 3
    critical = inside and ((sigma + d1 + d2) / step).denominator == 1
    t = TripleType(n1, 1, d1, d2, g)
    if critical:
        with pytest.raises(CriticalSigma):
            locate(t, sigma)
        return
    ch = locate(t, sigma)
    assert (ch is None) == (not inside)
    if ch is not None:
        assert ch.lo < ch.sigma == sigma < ch.hi
        wall = oracles.wall_31 if n1 == 3 else oracles.wall_21
        assert ch.wall == wall(sigma, d1, d2)


# -- euler characteristics of hom complexes ---------------------------------------


def test_chi_genus_mismatch():
    with pytest.raises(OutOfRange):
        chi_triples(TripleType(1, 1, 1, 0, 2), TripleType(1, 1, 1, 0, 3))


def test_chi_flip_locus_dimensions():
    # fibers of the flip loci at an even critical index n: the table of
    # -chi values below is exactly what makes the strata projective
    # bundles of the advertised dimensions
    for g, d1, d2, n in ((2, 5, 0, 4), (3, 8, 0, 6), (3, 9, 1, 8)):
        n1 = d1 - d2 - n
        n2 = (2 * g - 2 - 2 * d1 + 3 * n) // 2
        rank11 = TripleType(1, 1, d1 - n, d2, g)
        bundle2 = TripleType(2, 0, n, 0, g)
        pair21 = TripleType(2, 1, d1 - n // 2, d2, g)
        line = TripleType(1, 0, n // 2, 0, g)
        assert -chi_triples(rank11, bundle2) == 2 * n1
        assert -chi_triples(bundle2, rank11) == 2 * n2
        assert -chi_triples(pair21, line) == g - 1 + n1
        assert -chi_triples(line, pair21) == g - 1 + n2
        assert -chi_triples(rank11, line) == n1
        assert -chi_triples(line, rank11) == n2
        assert -chi_triples(line, line) == g - 1
