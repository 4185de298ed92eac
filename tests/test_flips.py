"""Tests for wall-crossing contributions at (3, 1) critical values."""

from fractions import Fraction

import pytest

import oracles
from triplehodge import flips
from triplehodge import (
    FractionUV,
    NotCritical,
    OutOfRange,
    ParityError,
    TripleType,
    c_n_even,
    c_n_odd,
    criticals,
    e_jacobian,
    e_m2_odd,
    e_n31_flipsum,
    e_projective,
    e_sym,
    flip_contribution,
)
from triplehodge.laurent import ZERO
from triplehodge.stability import chamber_bounds
from triplehodge.verify import GRIDS


def test_parity_and_criticality_errors():
    t = TripleType(3, 1, 5, 0, 2)
    with pytest.raises(ParityError):
        c_n_odd(t, 4)
    with pytest.raises(ParityError):
        c_n_even(t, 5)
    with pytest.raises(NotCritical):
        c_n_odd(t, 7)
    with pytest.raises(NotCritical):
        flip_contribution(t, 3)
    with pytest.raises(OutOfRange):
        flip_contribution(TripleType(2, 1, 5, 0, 2), 4)


def test_contribution_fields():
    t = TripleType(3, 1, 5, 0, 2)
    even = flip_contribution(t, 4)
    assert even.n == 4
    assert even.N1 == 1
    assert even.N2 == Fraction(2)
    assert even.strata is not None and len(even.strata) == 6
    odd = flip_contribution(t, 5)
    assert odd.n == 5
    assert odd.N1 == 0
    assert odd.N2 == Fraction(7, 2)
    assert odd.strata is None
    assert c_n_odd(t, 5) == odd


def test_even_jump_equals_stratum_sum():
    # c_n_even cross-checks internally; the test re-adds the exposed
    # strata and compares against the closed jump once more
    for g, d1, d2 in ((2, 5, 0), (2, 6, 0), (3, 8, 0), (2, 7, 1)):
        t = TripleType(3, 1, d1, d2, g)
        for n, _sigma in criticals(t):
            if n % 2:
                continue
            flip = c_n_even(t, n)
            total = FractionUV(ZERO)
            for piece in flip.strata:
                total = total + piece
            assert total == flip.cn


def test_odd_jump_structural_form():
    # at odd n the jump factors through the rank-2 odd moduli space:
    # C_n = e(Jac) e(Sym^{N1}) ((uv)^{2 N2} ... ) e(M(2,1)) with the
    # bracket a difference of projective-space polynomials
    for g, d1, d2 in ((2, 5, 0), (2, 6, 0), (3, 7, 0), (2, 8, 1)):
        t = TripleType(3, 1, d1, d2, g)
        jac = e_jacobian(g).poly
        for n, _sigma in criticals(t):
            if n % 2 == 0:
                continue
            flip = c_n_odd(t, n)
            n1 = flip.N1
            bracket = (
                e_projective(2 * n1).poly
                - e_projective(2 * g - 2 - 2 * d1 + 3 * n).poly
            )
            structural = FractionUV(
                jac * e_sym(n1, g).poly * bracket * e_m2_odd(g).poly
            )
            assert flip.cn == structural


def test_balanced_wall_contributes_nothing():
    # N1 == N2 == 2 at n = 6 for (3, 1, 8, 0) over genus 2: the two
    # flip loci have equal fiber dimensions and the jump cancels
    t = TripleType(3, 1, 8, 0, 2)
    flip = flip_contribution(t, 6)
    assert flip.N1 == 2 and flip.N2 == 2
    assert flip.cn.is_zero()


def test_n2_integrality_tracks_parity():
    for d1, d2 in ((5, 0), (6, 0), (7, 1), (9, 1)):
        t = TripleType(3, 1, d1, d2, 2)
        for n, _sigma in criticals(t):
            flip = flip_contribution(t, n)
            assert 2 * flip.N2 == 2 * t.g - 2 - 2 * d1 + 3 * n
            assert (flip.N2.denominator == 1) == (n % 2 == 0)


def test_criticals_pinned_here_too():
    assert criticals(TripleType(3, 1, 5, 0, 2)) == oracles.CRITICALS_3150
    assert criticals(TripleType(3, 1, 6, 0, 2)) == oracles.CRITICALS_3160


def test_chamber_sweep_builds_each_wall_once(monkeypatch):
    # sweeping every chamber of a type telescopes over the same walls;
    # the flip-sum route must build each of them once, not once per
    # chamber above it
    flips._wall_jump.cache_clear()
    calls = []
    original = flips.flip_contribution

    def counted(t, n):
        calls.append((t, n))
        return original(t, n)

    monkeypatch.setattr(flips, "flip_contribution", counted)
    walls = set()
    for g in (2, 3, 4):
        t = TripleType(3, 1, 2 * g + 3, 0, g)
        walls |= {(t, n) for n, _sigma in criticals(t)}
        for index in range(1, len(chamber_bounds(t)) + 1):
            e_n31_flipsum(g, t.d1, 0, chamber=index)
    assert sorted(calls, key=repr) == sorted(walls, key=repr)

    quick = GRIDS["quick"]
    for g in quick.gs:
        for d1 in quick.d1s:
            for d2 in quick.d2s:
                t = TripleType(3, 1, d1, d2, g)
                for n, _sigma in criticals(t):
                    expected = original(t, n).cn.as_polynomial()
                    assert flips._wall_jump(t, n) == expected
