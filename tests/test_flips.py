"""Tests for wall-crossing contributions at (3, 1) and (2, 1) critical values."""

import hashlib
import json
from collections import Counter
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from triplehodge import flips, laurent, rank2, verify, zoo
from triplehodge import (
    FractionUV,
    NonIntegral,
    NotCritical,
    OutOfRange,
    ParityError,
    StrataMismatch,
    TripleType,
    c_n_even,
    c_n_odd,
    criticals,
    e_affine,
    e_grassmannian,
    e_jacobian,
    e_m2_odd,
    e_m2s_even,
    e_n31_closed,
    e_n31_flipsum,
    e_projective,
    e_sym,
    e_sym2_quotient,
    e_triples21_critical_stable,
    flip_contribution,
)
from triplehodge._memo import clear_all
from triplehodge.flips import strata
from triplehodge.laurent import ONE, UV, ZERO, LaurentPoly
from triplehodge.stability import chamber_bounds
from triplehodge.verify import GRIDS, run_suite


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
    with pytest.raises(NotCritical):
        flip_contribution(TripleType(2, 1, 5, 0, 2), 6)
    with pytest.raises(OutOfRange):
        flip_contribution(TripleType(1, 1, 5, 0, 2), 4)
    with pytest.raises(ParityError):
        strata(t, 5)
    with pytest.raises(NotCritical):
        strata(t, 6)


_NOT_31 = "expected ranks (3, 1), got ({}, 1)"
_NOT_31_21 = "expected ranks (3, 1) or (2, 1), got ({}, 1)"
_NOT_WALL = "index {} is not critical for (3,1,5,0); criticals are [4, 5]"
_NOT_WALL_21 = "index {} is not critical for (2,1,5,0); criticals are [3, 4, 5]"
_NOT_INT = "wall index must be an integer, got {}"
_EVEN = "n={} is even; use the even-index form"
_ODD = "n={} is odd; use the odd-index form"


# (3, 1, 5, 0) at g = 2 has the walls 4 and 5; each check of c_n_odd,
# c_n_even and strata runs in the order parity, ranks (3, 1), critical
# integer index, so a wrong parity is named first even on a (2, 1) type
# or a non-integer index.  flip_contribution also takes (2, 1, 5, 0),
# walls 3, 4 and 5, and checks only its critical integer index; its
# refusal of other ranks names both
@pytest.mark.parametrize("name, ranks, n, error, text", [
    ("c_n_odd", 31, 4, ParityError, _EVEN.format(4)),
    ("c_n_odd", 31, 6, ParityError, _EVEN.format(6)),
    ("c_n_odd", 31, 7, NotCritical, _NOT_WALL.format(7)),
    ("c_n_odd", 31, 4.0, ParityError, _EVEN.format(4.0)),
    ("c_n_odd", 31, Fraction(4), ParityError, _EVEN.format(4)),
    ("c_n_odd", 31, 4.5, TypeError, _NOT_INT.format(4.5)),
    ("c_n_odd", 21, 4, ParityError, _EVEN.format(4)),
    ("c_n_odd", 21, 5, OutOfRange, _NOT_31.format(2)),
    ("c_n_even", 31, 5, ParityError, _ODD.format(5)),
    ("c_n_even", 31, 6, NotCritical, _NOT_WALL.format(6)),
    ("c_n_even", 31, 4.0, TypeError, _NOT_INT.format(4.0)),
    ("c_n_even", 31, 4.5, ParityError, _ODD.format(4.5)),
    ("c_n_even", 31, Fraction(9, 2), ParityError, _ODD.format("9/2")),
    ("c_n_even", 21, 4, OutOfRange, _NOT_31.format(2)),
    ("c_n_even", 21, 5, ParityError, _ODD.format(5)),
    ("strata", 31, 3, ParityError, _ODD.format(3)),
    ("strata", 31, 6, NotCritical, _NOT_WALL.format(6)),
    ("strata", 31, Fraction(4), TypeError, _NOT_INT.format("Fraction(4, 1)")),
    ("strata", 31, 5.0, ParityError, _ODD.format(5.0)),
    ("strata", 21, 4, OutOfRange, _NOT_31.format(2)),
    ("strata", 21, 3, ParityError, _ODD.format(3)),
    ("flip_contribution", 31, 3, NotCritical, _NOT_WALL.format(3)),
    ("flip_contribution", 31, 6, NotCritical, _NOT_WALL.format(6)),
    ("flip_contribution", 31, 5.0, TypeError, _NOT_INT.format(5.0)),
    ("flip_contribution", 31, 4.5, TypeError, _NOT_INT.format(4.5)),
    ("flip_contribution", 21, 6, NotCritical, _NOT_WALL_21.format(6)),
    ("flip_contribution", 21, 4.0, TypeError, _NOT_INT.format(4.0)),
    ("flip_contribution", 11, 4, OutOfRange, _NOT_31_21.format(1)),
])
def test_wall_index_errors_keep_their_types_and_texts(name, ranks, n, error,
                                                      text):
    t = TripleType(*divmod(ranks, 10), 5, 0, 2)
    with pytest.raises(error) as info:
        getattr(flips, name)(t, n)
    assert type(info.value) is error
    assert str(info.value) == text


def test_non_integer_wall_index_is_a_type_error():
    # 4.0 and Fraction(4) compare equal to the wall 4, but no formula is
    # written for them: the index check names the index, instead of an
    # unrelated TypeError from deep inside the build
    t = TripleType(3, 1, 5, 0, 2)
    for call, args in (
        (c_n_even, (t, 4.0)),
        (flip_contribution, (t, Fraction(4))),
        (strata, (t, 4.0)),
        (e_triples21_critical_stable, (2, 5, 0, 3.0)),
    ):
        with pytest.raises(TypeError, match=r"wall index must be an integer"):
            call(*args)


def test_contribution_fields():
    t = TripleType(3, 1, 5, 0, 2)
    even = flip_contribution(t, 4)
    assert even.n == 4
    assert even.N1 == 1
    assert even.N2 == Fraction(2)
    assert len(strata(t, 4)) == 6
    odd = flip_contribution(t, 5)
    assert odd.n == 5
    assert odd.N1 == 0
    assert odd.N2 == Fraction(7, 2)
    assert c_n_odd(t, 5) == odd
    # the memo hands back the record it built, equal to a fresh build
    assert flip_contribution(t, 4) is even
    assert c_n_even(t, 4) == even


def test_even_jump_equals_stratum_sum():
    # c_n_even cross-checks internally; the test re-adds the exposed
    # strata and compares against the closed jump once more
    for g, d1, d2 in ((2, 5, 0), (2, 6, 0), (3, 8, 0), (2, 7, 1)):
        t = TripleType(3, 1, d1, d2, g)
        for n, _sigma in criticals(t):
            if n % 2:
                continue
            total = sum(strata(t, n), ZERO)
            assert total == c_n_even(t, n).cn.as_polynomial()


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
    clear_all()
    calls = []
    builders = {name: getattr(flips, name) for name in ("c_n_even", "c_n_odd")}
    for name, original in builders.items():

        def counted(t, n, original=original):
            calls.append((t, n))
            return original(t, n)

        monkeypatch.setattr(flips, name, counted)
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
                    build = builders["c_n_odd" if n % 2 else "c_n_even"]
                    assert flip_contribution(t, n) == build(t, n)


def test_walls_never_divide_by_one_term(monkeypatch):
    # a jump that collapses to a polynomial keeps no denominator, so no
    # wall divides by a monomial on the heap route
    clear_all()
    divisors = []
    original = laurent.divide_exact

    def spy(num, den):
        divisors.append(len(den))
        return original(num, den)

    for module in (laurent, rank2, zoo):
        monkeypatch.setattr(module, "divide_exact", spy)
    quick = GRIDS["quick"]
    for g in quick.gs:
        for d1 in quick.d1s:
            for d2 in quick.d2s:
                t = TripleType(3, 1, d1, d2, g)
                for n, _sigma in criticals(t):
                    flip_contribution(t, n).cn.as_polynomial()
    assert divisors and 1 not in divisors


def test_verify_suites_build_each_wall_once(monkeypatch):
    # the crosspath suite's flip sums and -C_top checks reuse the jumps
    # the flips suite has built and checked, so across both suites each
    # wall's C_n is computed once
    clear_all()
    calls = Counter()
    for name in ("c_n_even", "c_n_odd"):
        original = getattr(flips, name)

        def counted(t, n, name=name, original=original):
            calls[name, t, n] += 1
            return original(t, n)

        for module in (flips, verify):
            monkeypatch.setattr(module, name, counted)
    for suite in ("flips", "crosspath"):
        assert run_suite(suite, "quick").failures == 0
    assert calls and set(calls.values()) == {1}


@pytest.mark.parametrize("g", range(2, 11))
def test_wall_kernel_anchor(g):
    # the kernel's numerator over (1 - uv)^2 (1 - (uv)^2), times e(Jac),
    # is e(M(2, odd)) (1 - uv) (1 - (uv)^2)
    lhs = rank2._wall_kernel(g) * e_jacobian(g).poly
    assert lhs == e_m2_odd(g).poly * (ONE - UV) * (ONE - UV**2)
    # e_m2_odd's numerator is the kernel too, so anchor K itself on the
    # dict oracle: (1 + u^2 v)^g (1 + u v^2)^g - (uv)^g e(Jac)
    one = {(0, 0): 1}
    k = oracles.ppow(oracles.pmul({**one, (2, 1): 1}, {**one, (1, 2): 1}), g)
    jac = oracles.ppow(oracles.pmul({**one, (1, 0): 1}, {**one, (0, 1): 1}), g)
    k = oracles.psub(k, oracles.pmul({(g, g): 1}, jac))
    assert rank2._wall_kernel(g).terms == k


def test_sym2_stratum_by_product_rule_equals_the_literal_form():
    # the fifth stratum is Sym^2(P^{m-1} x Jac) - e(Jac) Sym^2(P^{m-1})
    # at m = N1 minus the same at N2, times e(Jac) e(Sym^{N1}); the
    # strata take it by the product rule, here it is squared out
    def literal(m, jac):
        p = e_projective(m).poly
        return e_sym2_quotient(p * jac).poly - jac * e_sym2_quotient(p).poly

    walls = 0
    for g in (2, 3, 4):
        jac = e_jacobian(g).poly
        for d1 in range(1, 12):
            for d2 in (0, 1):
                t = TripleType(3, 1, d1, d2, g)
                for n, _sigma in criticals(t):
                    if n % 2:
                        continue
                    n1 = d1 - d2 - n
                    n2 = g - 1 - d1 + (3 * n) // 2
                    expected = (literal(n1, jac) - literal(n2, jac)) * (
                        jac * e_sym(n1, g).poly
                    )
                    assert strata(t, n)[4] == expected
                    walls += 1
    assert walls > 50


def test_sym2_stratum_of_a_non_hodge_factor_is_nonintegral(monkeypatch):
    # the Sym^2 stratum halves a polynomial that is even for Hodge
    # inputs; fed a factor that is not one, the halving meets an odd
    # coefficient and raises NonIntegral, which the CLI reports without
    # a traceback, never a bare ValueError
    jac_1, neg_jac_1, m2s_0 = flips._strata_bases(2)
    monkeypatch.setattr(
        flips, "_strata_bases", lambda g: (jac_1, neg_jac_1 + ONE, m2s_0)
    )
    with pytest.raises(NonIntegral):
        c_n_even(TripleType(3, 1, 5, 0, 2), 4)


# a few (3, 1) types with several chambers each
_SUM_TYPES = [
    TripleType(3, 1, d1, d2, g)
    for g, d1, d2 in ((2, 7, 0), (2, 9, 1), (3, 8, 0), (3, 9, 0), (2, 10, 0))
]


@cache
def _flip_sum_from_scratch(t, wall):
    # -C_n summed over the walls n >= wall, each jump built afresh
    total = ZERO
    for n, _sigma in criticals(t):
        if n >= wall:
            total = total - flip_contribution(t, n).cn.as_polynomial()
    return total


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_flip_sum_memo_in_any_query_order(data):
    # the running sums of a type are filled from the top wall down by
    # whichever chamber is asked first; the chambers of two types asked
    # in an interleaved order must each still give the whole sum
    pair = data.draw(
        st.lists(st.sampled_from(_SUM_TYPES), min_size=2, max_size=2,
                 unique=True)
    )
    queries = [(t, k) for t in pair for k in range(1, len(criticals(t)) + 1)]
    order = data.draw(st.lists(st.sampled_from(queries), min_size=1,
                               max_size=2 * len(queries)))
    for t, k in order:
        wall = criticals(t)[k - 1][0]
        got = e_n31_flipsum(t.g, t.d1, t.d2, chamber=k).poly
        assert got == _flip_sum_from_scratch(t, wall)
        assert got == e_n31_closed(t.g, t.d1, t.d2, chamber=k).poly


def test_a_wrong_stratum_raises_strata_mismatch(monkeypatch):
    # shift Gr(2, m) by m*uv, so the sixth stratum moves by (N1 - N2) uv
    # times e(Jac)^2 e(Sym^{N1}) and the sum leaves the closed form
    grass = flips.e_grassmannian

    def shifted(k, m):
        return zoo.HodgeResult(grass(k, m).poly + m * UV, 0)

    clear_all()
    monkeypatch.setattr(flips, "e_grassmannian", shifted)
    try:
        t = TripleType(3, 1, 5, 0, 2)  # n = 4: N1 = 1, N2 = 2
        with pytest.raises(StrataMismatch):
            c_n_even(t, 4)
        # the flip-sum route builds its jumps with the same check
        with pytest.raises(StrataMismatch):
            e_n31_flipsum(3, 9, 0, chamber=1)
    finally:
        monkeypatch.undo()
        clear_all()
    assert flips.e_grassmannian is grass


def test_production_routes_multiply_out_no_strata(monkeypatch):
    # the flip sums and the flips suite read C_n only; the six strata
    # stay factored, checked through one product by e(Jac) e(Sym^{N1})
    built = []
    monkeypatch.setattr(flips, "strata", lambda t, n: built.append((t, n)))
    clear_all()
    t = TripleType(3, 1, 9, 0, 3)
    assert any(n % 2 == 0 for n, _sigma in criticals(t))
    for index in range(1, len(chamber_bounds(t)) + 1):
        e_n31_flipsum(3, 9, 0, chamber=index)
    assert flip_contribution.cache_info().misses == len(criticals(t))
    clear_all()
    assert run_suite("flips", "quick").failures == 0
    assert built == []


def test_each_stratum_equals_its_literal_form():
    # the six strata written out as plain products of public values, so
    # no regrouping of the factors can move weight from one to another
    def pp(m):
        return e_projective(m).poly

    def cone(m):
        return e_affine(m - 1).poly * pp(m)

    def sym2(m, jac):
        p = pp(m)
        return e_sym2_quotient(p * jac).poly - jac * e_sym2_quotient(p).poly

    walls = 0
    for g, d1, d2 in ((2, 5, 0), (2, 8, 0), (3, 8, 0), (3, 11, 1)):
        t = TripleType(3, 1, d1, d2, g)
        jac = e_jacobian(g).poly
        for n, _sigma in criticals(t):
            if n % 2:
                continue
            n1 = d1 - d2 - n
            n2 = g - 1 - d1 + (3 * n) // 2
            sym = e_sym(n1, g).poly
            stable = e_triples21_critical_stable(g, d1 - n // 2, d2, n // 2)
            literal = [
                (pp(g - 1 + n1) - pp(g - 1 + n2)) * jac * stable.poly,
                (pp(2 * n1) - pp(2 * n2)) * e_m2s_even(g).poly * jac * sym,
                (pp(2 * n1) - pp(n1) - pp(2 * n2) + pp(n2)) * pp(g - 1)
                * (jac * jac - jac) * jac * sym,
                (cone(n1) - cone(n2)) * pp(g) * jac * jac * sym,
                (sym2(n1, jac) - sym2(n2, jac)) * jac * sym,
                (e_grassmannian(2, n1).poly - e_grassmannian(2, n2).poly)
                * jac * jac * sym,
            ]
            pieces = strata(t, n)
            assert list(pieces) == literal, (g, d1, d2, n)
            assert all(isinstance(piece, LaurentPoly) for piece in pieces)
            walls += 1
    assert walls == 7


def test_strata_and_jumps_digest():
    # every even wall's strata and C_n over g = 2..5, d1 = 4..13,
    # d2 in {0, 1}, n ascending, fed to one sha256: pins their values
    # byte for byte, whatever type holds them
    def pair(x):
        if isinstance(x, LaurentPoly):
            x = FractionUV(x)
        return [x.num.to_json(), x.den.to_json()]

    digest = hashlib.sha256()
    for g in range(2, 6):
        for d1 in range(4, 14):
            for d2 in (0, 1):
                t = TripleType(3, 1, d1, d2, g)
                for n, _sigma in criticals(t):
                    if n % 2:
                        continue
                    flip = c_n_even(t, n)
                    record = [g, d1, d2, n, [pair(s) for s in strata(t, n)],
                              pair(flip.cn)]
                    digest.update(json.dumps(record, sort_keys=True).encode())
    assert digest.hexdigest() == (
        "2c16e72fc2abe6992cb60c47d33adcc025ba5dc6f959aabc21bd1962e6a6dab1"
    )


def test_jacobian_square_times_the_core_is_the_critical_stable_locus():
    # the strata's x1 reads the (2, 1) stable locus before its factor
    # e(Jac)^2; multiplied back by plain *, it is the public value
    walls = 0
    for g in range(2, 5):
        jac2 = e_jacobian(g).poly * e_jacobian(g).poly
        for d1 in range(1, 9):
            for d2 in (-1, 0, 1):
                t = TripleType(2, 1, d1, d2, g)
                for d_m, _sigma in criticals(t):
                    stable = e_triples21_critical_stable(g, d1, d2, d_m).poly
                    assert jac2 * rank2._critical_stable_core(t, d_m) == stable
                    walls += 1
    assert walls > 100


@pytest.mark.parametrize("g", range(2, 7))
def test_strata_bases_are_over_the_jacobian(g):
    # J - 1, J(-u, -v) - 1 and e(M^s(2, even)) / J, J = e(Jac)
    jac = e_jacobian(g).poly
    jac_1, neg_jac_1, m2s_0 = flips._strata_bases(g)
    assert m2s_0 * jac == e_m2s_even(g).poly
    assert jac_1 == jac - ONE
    # J(-u, -v) J = J(-u^2, -v^2)
    assert (neg_jac_1 + ONE) * jac == jac.square_negate()


@pytest.mark.parametrize("g", range(2, 5))
def test_checked_strata_sum_lacks_the_jacobian_square(g):
    # c_n_even compares x1 + (y2 + ... + y6) js with C_n / e(Jac)^2, of
    # total degree deg C_n - 4g; e(Jac)^2 enters only after the check
    t = TripleType(3, 1, 2 * g + 3, 0, g)
    walls = 0
    for n, _sigma in criticals(t):
        if n % 2:
            continue
        x1, ys, js = flips._strata_factors(t, n, *flips._fibers(t, n, 0))
        checked = x1 + sum(ys, ZERO) * js
        cn = c_n_even(t, n).cn.as_polynomial()
        assert checked.total_degree() == cn.total_degree() - 4 * g
        assert checked == flips._closed_cn(t, n, *flips._fibers(t, n, 0))
        walls += 1
    assert walls >= 1


def test_a_wrong_fixed_determinant_stratum_raises_strata_mismatch(
    monkeypatch,
):
    # e(M^s(2, even)) / J one too big moves the second stratum by
    # (e(P^{2 N1 - 1}) - e(P^{2 N2 - 1})) e(Sym^{N1}), which is not zero
    jac_1, neg_jac_1, m2s_0 = flips._strata_bases(2)
    monkeypatch.setattr(
        flips, "_strata_bases", lambda g: (jac_1, neg_jac_1, m2s_0 + ONE)
    )
    with pytest.raises(StrataMismatch):
        c_n_even(TripleType(3, 1, 5, 0, 2), 4)
