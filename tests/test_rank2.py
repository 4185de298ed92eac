"""Tests for rank-2 bundle moduli and (2, 1) triple spaces."""

from fractions import Fraction

import pytest

import oracles
from triplehodge import (
    CriticalSigma,
    NotCritical,
    OutOfRange,
    TripleType,
    chamber_bounds,
    criticals,
    e_jacobian,
    e_m2_odd,
    e_m2s_even,
    e_projective,
    e_sym,
    e_triples21,
    e_triples21_critical_stable,
    e_triples21_flipsum,
    flip_contribution,
)
from triplehodge.laurent import ZERO, FractionUV
from triplehodge.zoo import smooth_projective_failures


# -- rank-2 bundle moduli -------------------------------------------------


@pytest.mark.parametrize("g", range(2, 11))
def test_m2_odd_matches_hn_recursion(g):
    assert e_m2_odd(g).poly.terms == oracles.hn_moduli_hodge(2, 1, g)


def test_m2_odd_invariants():
    for g in (2, 3, 4):
        h = e_m2_odd(g)
        assert h.dim == 4 * g - 3
        assert h.smooth_projective
        assert h.poly.coefficient(0, 0) == 1
        assert smooth_projective_failures(h.poly, h.dim) == []
    with pytest.raises(OutOfRange):
        e_m2_odd(1)


def test_m2_even_stable_locus():
    for g in (2, 3):
        h = e_m2s_even(g)
        assert h.dim == 4 * g - 3
        assert not h.smooth_projective
        assert h.poly.total_degree() == 8 * g - 6
        assert h.poly.coefficient(4 * g - 3, 4 * g - 3) == 1
        # removing the semistable boundary kills H^0 and breaks duality
        assert h.poly.coefficient(0, 0) == 0
        assert smooth_projective_failures(h.poly, h.dim) != []
    with pytest.raises(OutOfRange):
        e_m2s_even(1)


# -- (2, 1) triple spaces ----------------------------------------------------


def test_triples21_chamber_equals_midpoint_sigma():
    g, d1, d2 = 2, 5, 0
    (lo, hi) = chamber_bounds(TripleType(2, 1, d1, d2, g))[0]
    via_chamber = e_triples21(g, d1, d2, chamber=1)
    via_sigma = e_triples21(g, d1, d2, (lo + hi) / 2)
    assert via_chamber.poly == via_sigma.poly
    assert via_chamber.chamber == via_sigma.chamber


def test_triples21_constant_within_chamber():
    g, d1, d2 = 2, 5, 0
    lo, hi = chamber_bounds(TripleType(2, 1, d1, d2, g))[1]
    a = e_triples21(g, d1, d2, lo + Fraction(1, 7) * (hi - lo))
    b = e_triples21(g, d1, d2, lo + Fraction(5, 7) * (hi - lo))
    assert a.poly == b.poly


def test_triples21_invariants_every_chamber():
    for d1 in range(3, 7):
        g, d2 = 2, 0
        dim = 3 * g - 2 + d1 - 2 * d2
        bounds = chamber_bounds(TripleType(2, 1, d1, d2, g))
        for index in range(1, len(bounds) + 1):
            h = e_triples21(g, d1, d2, chamber=index)
            assert h.dim == dim
            if not h.empty:
                assert smooth_projective_failures(h.poly, dim) == []


def test_triples21_empty_outside_range():
    g, d1, d2 = 2, 5, 0
    assert e_triples21(g, d1, d2, Fraction(5, 2)).empty
    assert e_triples21(g, d1, d2, 11).empty
    assert not e_triples21(g, d1, d2, Fraction(19, 2)).empty


def test_triples21_critical_sigma_raises():
    with pytest.raises(CriticalSigma) as info:
        e_triples21(2, 5, 0, 4)
    assert info.value.criticals == [4, 7, 10]
    with pytest.raises(OutOfRange):
        e_triples21(2, 5, 0, 4, chamber=1)
    with pytest.raises(OutOfRange):
        e_triples21(2, 5, 0)


def test_triples21_stable_locus_requires_critical():
    with pytest.raises(NotCritical):
        e_triples21_critical_stable(2, 5, 0, 2)


def test_triples21_wall_replay():
    # crossing the wall at d_m removes the S^- stratum and glues in S^+:
    # just below, the space is the stable locus plus a projective bundle
    # over Jac^2 x Sym^{d1-d2-d_m}, and the chamber-to-chamber jump is
    # the difference of the two strata, which flip_contribution holds
    for d1 in range(3, 7):
        g, d2 = 2, 0
        jac2 = e_jacobian(g).poly ** 2
        t = TripleType(2, 1, d1, d2, g)
        bounds = chamber_bounds(t)
        crits = criticals(t)
        for i, (d_m, _sigma) in enumerate(crits):
            k = d1 - d2 - d_m
            sym = e_sym(k, g).poly
            s_minus = jac2 * sym * e_projective(2 * d_m - d1 + g - 1).poly
            s_plus = jac2 * sym * e_projective(k).poly
            below = e_triples21(g, d1, d2, chamber=i + 1).poly
            stable = e_triples21_critical_stable(g, d1, d2, d_m).poly
            assert below - s_minus == stable
            above = (
                e_triples21(g, d1, d2, chamber=i + 2).poly
                if i + 2 <= len(bounds)
                else ZERO
            )
            assert below - above == s_minus - s_plus
            flip = flip_contribution(t, d_m)
            assert (flip.N1, flip.N2) == (k, 2 * d_m - d1 + g - 1)
            assert flip.cn == FractionUV(s_plus - s_minus)


def test_triples21_top_chamber_matches_oracle_bundle():
    # just below sigma_M the space is a P^(h-1)-bundle over Jac x Jac,
    # h = d1 - 2*d2 + g - 1; the prediction is built from the oracles
    # only, and both routes must meet it
    curve = oracles.pmul({(0, 0): 1, (1, 0): 1}, {(0, 0): 1, (0, 1): 1})
    types = 0
    for g in range(2, 6):
        jac2 = oracles.ppow(curve, 2 * g)
        for d2 in range(-2, 3):
            for d1 in range(max(1, 2 * d2 + 1), 16):
                # sigma_M is critical and the next critical value is
                # sigma_M - 3, so sigma_M - 1/2 lies in the top chamber
                _, sigma_top = oracles.sigma_interval(2, d1, d2)
                h = d1 - 2 * d2 + g - 1
                fiber = {(k, k): 1 for k in range(h)}
                want = oracles.pmul(jac2, fiber)
                for route in (e_triples21, e_triples21_flipsum):
                    got = route(g, d1, d2, sigma_top - Fraction(1, 2))
                    assert got.poly.terms == want, (route.__name__, g, d1, d2)
                types += 1
    assert types == 276


def test_triples21_top_chamber_closed_form():
    # in the chamber just below the top critical value the space is a
    # projective bundle over Jac x Jac
    for d1 in range(3, 7):
        g, d2 = 2, 0
        bounds = chamber_bounds(TripleType(2, 1, d1, d2, g))
        top = e_triples21(g, d1, d2, chamber=len(bounds))
        jac2 = e_jacobian(g).poly ** 2
        expected = jac2 * e_projective(g - 1 + d1 - 2 * d2).poly
        assert top.poly == expected
