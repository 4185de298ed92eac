"""Tests for N_sigma(3, 1) triple spaces and the rank-3 moduli space."""

import dataclasses
import importlib
import pkgutil
from fractions import Fraction
from itertools import product

import pytest

import oracles
import triplehodge
from triplehodge import moduli, rank2
from triplehodge import (
    CriticalSigma,
    LaurentPoly,
    OutOfRange,
    TripleType,
    criticals,
    e_affine,
    e_grassmannian,
    e_jacobian,
    e_m2_odd,
    e_m2s_even,
    e_m3,
    e_m3_via_pipeline,
    e_n31_closed,
    e_n31_flipsum,
    e_projective,
    e_sym,
    e_sym2_quotient,
    e_triples21,
    e_triples21_critical_stable,
    e_triples21_flipsum,
    flip_contribution,
    poincare,
    poincare_m3,
    poincare_n31,
)
from triplehodge.laurent import ONE, UV, divide_exact
from triplehodge.stability import chamber_bounds, locate
from triplehodge.verify import GRIDS
from triplehodge.zoo import smooth_projective_failures

CROSS_GRID = [
    (g, d1, d2)
    for g in (2, 3)
    for d1 in range(4, 10)
    for d2 in (0, 1)
    if d1 - 3 * d2 > 0
]


# the rank-3 recursion takes 0.2-1.7 s per genus from g = 6 on, so
# those genera are marked slow and run in their own CI step
HN_CASES = [
    *((g, d) for g in range(2, 6) for d in (1, 2)),
    *(pytest.param(g, 1, marks=pytest.mark.slow) for g in range(6, 11)),
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


# the g = 4..6 part of the 990-chamber grid takes about 1 s, so it runs
# in the slow step
@pytest.mark.parametrize("g", [
    2, 3, *(pytest.param(g, marks=pytest.mark.slow) for g in (4, 5, 6)),
])
def test_triples21_flipsum_equals_closed_form_every_chamber(g):
    # walking down from the empty top chamber by the (2, 1) jumps of
    # flips gives the closed formula of rank2 on every chamber
    chambers = 0
    for d1, d2 in product(range(1, 2 * g + 8), (-1, 0, 1)):
        t = TripleType(2, 1, d1, d2, g)
        for index in range(1, len(chamber_bounds(t)) + 1):
            closed = e_triples21(g, d1, d2, chamber=index)
            summed = e_triples21_flipsum(g, d1, d2, chamber=index)
            assert closed.poly == summed.poly, (t, index)
            chambers += 1
    assert chambers == {2: 108, 3: 147, 4: 192, 5: 243, 6: 300}[g]


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


def test_dimensions_match_closed_forms_on_the_full_grid():
    # the package reads every triple dimension off 1 - chi(T, T); the
    # oracle spells the closed forms
    full = GRIDS["full"]
    routes = (
        (3, oracles.dim_31, e_n31_closed),
        (3, oracles.dim_31, e_n31_flipsum),
        (2, oracles.dim_21, e_triples21),
        (2, oracles.dim_21, e_triples21_flipsum),
    )
    for g, d1, d2 in product(full.gs, full.d1s, full.d2s):
        for n1, dim, route in routes:
            t = TripleType(n1, 1, d1, d2, g)
            for index in range(1, len(chamber_bounds(t)) + 1):
                h = route(g, d1, d2, chamber=index)
                assert h.dim == dim(g, d1, d2), (route.__name__, t, index)
        for d_m, _sigma in criticals(TripleType(2, 1, d1, d2, g)):
            h = e_triples21_critical_stable(g, d1, d2, d_m)
            assert h.dim == oracles.dim_21(g, d1, d2), (g, d1, d2, d_m)


def test_empty_above_top_critical():
    g, d1, d2 = 2, 5, 0
    top = criticals(TripleType(3, 1, d1, d2, g))[-1][1]
    assert e_n31_closed(g, d1, d2, Fraction(top) + 1).empty
    assert e_n31_flipsum(g, d1, d2, Fraction(top) + 1).empty


def test_empty_below_sigma_min():
    g, d1, d2 = 2, 5, 0
    assert e_n31_closed(g, d1, d2, Fraction(5, 3)).empty
    assert e_n31_closed(g, d1, d2, 0).empty


def test_top_chamber_is_single_flip():
    for g, d1, d2 in ((2, 5, 0), (2, 6, 0)):
        t = TripleType(3, 1, d1, d2, g)
        crits = criticals(t)
        top_n = crits[-1][0]
        top = e_n31_closed(g, d1, d2, chamber=len(crits))
        single = -flip_contribution(t, top_n).cn.as_polynomial()
        assert top.poly == single


def test_top_chamber_matches_oracle_bundle():
    # just below sigma_M the space is a P^(h-1)-bundle over M(2, d1 - d2)
    # x Jac, h = d1 - 3*d2 + 2g - 2, for d1 - d2 odd; the prediction is
    # built from the oracles only, and both routes must meet it
    curve = oracles.pmul({(0, 0): 1, (1, 0): 1}, {(0, 0): 1, (0, 1): 1})
    types = 0
    for g in (2, 3):
        jac = oracles.ppow(curve, g)
        for d2 in (-1, 0, 1):
            for d1 in range(2 * g + 1, 2 * g + 8):
                if (d1 - d2) % 2 == 0:
                    continue
                # sigma_M is critical and the next critical value is
                # sigma_M - 2, so sigma_M - 1 lies in the top chamber
                _, sigma_top = oracles.sigma_interval(3, d1, d2)
                h = d1 - 3 * d2 + 2 * g - 2
                m2 = oracles.hn_moduli_hodge(2, d1 - d2, g)
                fiber = {(k, k): 1 for k in range(h)}
                want = oracles.pmul(oracles.pmul(m2, jac), fiber)
                for route in (e_n31_closed, e_n31_flipsum):
                    got = route(g, d1, d2, sigma_top - 1)
                    assert got.poly.terms == want, (route.__name__, g, d1, d2)
                types += 1
    assert types == 20


def test_low_chamber_pinned_product_form():
    # just above sigma_m for (3, 1, 5, 0) at g = 2 the closed formula
    # collapses to Jac^2 (1 - (uv)^7) times the common wall kernel
    g = 2
    jac = e_jacobian(g).poly
    kernel = (
        (ONE + LaurentPoly.monomial(2, 1)) ** g
        * (ONE + LaurentPoly.monomial(1, 2)) ** g
        - UV**g * jac
    )
    expected = divide_exact(
        jac * jac * (ONE - UV**7) * kernel, (ONE - UV) ** 2 * (ONE - UV**2)
    )
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


@pytest.mark.parametrize(
    "fn, args, kwargs, name",
    [(e_m3, (2, 2.5), {}, "d"), (e_m3_via_pipeline, (2.0,), {}, "genus"),
     (poincare_m3, (2.0,), {}, "genus"),
     (e_n31_closed, (2, 7, 0), {"chamber": 1.5}, "chamber index"),
     (e_triples21, (2, 5, 0), {"chamber": 2.0}, "chamber index"),
     (e_triples21_flipsum, (2, 5, 0), {"chamber": 2.0}, "chamber index"),
     (poincare_n31, (2, 7, 0), {"chamber": 1.5}, "chamber index"),
     (e_m3, (2, True), {}, "d"),
     (e_n31_closed, (2, 7, 0), {"chamber": True}, "chamber index")],
    ids=["e_m3-d", "e_m3_via_pipeline", "poincare_m3", "e_n31_closed",
         "e_triples21", "e_triples21_flipsum", "poincare_n31", "e_m3-d-bool",
         "e_n31_closed-bool"],
)
def test_a_non_integer_argument_is_refused_by_name(fn, args, kwargs, name):
    # a float degree would pass d % 3 and a float chamber would reach
    # tuple indexing, and a bool would pass as 1; each is refused by the
    # one integer check
    with pytest.raises(TypeError, match=f"^{name} must be an integer, got "):
        fn(*args, **kwargs)


def test_chamber_descriptor_attached():
    h = e_n31_closed(2, 5, 0, Fraction(7, 3))
    assert (h.chamber.lo, h.chamber.hi) == (Fraction(5, 3), Fraction(3))
    g, d1, d2 = 2, 5, 0
    routes = (
        (3, e_n31_closed), (3, e_n31_flipsum), (2, e_triples21),
        (2, e_triples21_flipsum),
    )
    for n1, route in routes:
        t = TripleType(n1, 1, d1, d2, g)
        bounds = chamber_bounds(t)
        for index, (lo, hi) in enumerate(bounds, start=1):
            sigma = (2 * lo + hi) / 3
            assert route(g, d1, d2, sigma).chamber == locate(t, sigma)
            h = route(g, d1, d2, chamber=index)
            assert h.chamber == locate(t, chamber=index)
            assert h.chamber.sigma == (lo + hi) / 2
        for outside in (bounds[0][0] - 1, bounds[-1][1] + 1):
            h = route(g, d1, d2, outside)
            assert h.chamber is None
            assert h.empty


@pytest.mark.parametrize(
    "n1, memo, route, built",
    [(3, moduli._closed_n31, e_n31_closed, None),
     (2, rank2._closed_21, e_triples21, None),
     # the flip sum's one build walks down to the lowest wall and keeps
     # the sum at every wall it passes
     (2, moduli._flip_sum, e_triples21_flipsum, 1)],
    ids=["3", "2", "21-flipsum"],
)
def test_each_chamber_built_once_for_the_last_type(monkeypatch, n1, memo,
                                                   route, built):
    # a route depends on sigma only through the chamber's wall: a
    # second sigma in a chamber reuses the first one's polynomial,
    # while only the last queried type's chambers are held
    builds = []
    build = memo.build

    def spy(t, wall):
        builds.append((t, wall))
        return build(t, wall)

    monkeypatch.setattr(memo, "build", spy)
    g = 2
    t, other = (TripleType(n1, 1, d1, 0, g) for d1 in (7, 6))

    def sweep(t):
        for index, (lo, hi) in enumerate(chamber_bounds(t), start=1):
            mid = route(g, t.d1, t.d2, chamber=index)
            again = route(g, t.d1, t.d2, lo + (hi - lo) / 3)
            assert again.poly == mid.poly
            assert again.chamber == locate(t, lo + (hi - lo) / 3)
            assert mid.chamber == locate(t, chamber=index)
        return [(t, wall) for wall, _sigma in criticals(t)][:built]

    sweep(other)
    builds.clear()
    expected = sweep(t) + sweep(other) + sweep(t)
    assert builds == expected
    # sigma is placed before the memo switches type: a query of another
    # type that raises or lies outside the range keeps t's chambers
    with pytest.raises(CriticalSigma):
        route(g, other.d1, other.d2, criticals(other)[0][1])
    assert route(g, other.d1, other.d2, chamber_bounds(other)[0][0]).empty
    builds.clear()
    sweep(t)
    assert builds == []


def test_twisting_by_a_line_bundle_changes_nothing():
    # tensoring E1 and E2 by a line bundle of degree l maps
    # N_sigma(n1, 1, d1, d2) onto N_sigma(n1, 1, d1 + n1 l, d2 + l) for
    # every sigma: same walls, same chambers, same polynomial on each
    checked = 0
    for (n1, route), g, d1, d2 in product(
        ((3, e_n31_closed), (2, e_triples21), (2, e_triples21_flipsum)),
        (2, 3), range(10), (-1, 0, 1),
    ):
        t = TripleType(n1, 1, d1, d2, g)
        bounds = chamber_bounds(t)
        polys = [
            route(g, d1, d2, chamber=k).poly
            for k in range(1, len(bounds) + 1)
        ]
        for l in (-1, 2):
            twisted = TripleType(n1, 1, d1 + n1 * l, d2 + l, g)
            assert [s for _, s in criticals(twisted)] == [
                s for _, s in criticals(t)
            ]
            assert chamber_bounds(twisted) == bounds
            for k, poly in enumerate(polys, start=1):
                assert route(g, twisted.d1, twisted.d2, chamber=k).poly == poly
            checked += len(polys)
    assert checked == 828


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


# g = 11..16 are the sizes past the north star's g = 10
@pytest.mark.parametrize(
    "g",
    [
        *range(2, 11),
        *(pytest.param(g, marks=pytest.mark.slow) for g in range(11, 17)),
    ],
)
def test_m3_equals_pipeline(g):
    assert e_m3(g).poly == e_m3_via_pipeline(g).poly


# -- fixed-determinant values -----------------------------------------------


def _fixed_results(g):
    # (result, k) for every route that sets fixed, poly = e(Jac)^k fixed:
    # the bundle routes, then the value corpus's triple types
    yield from ((r, 1) for r in (e_m2_odd(g), e_m2s_even(g), e_m3(g),
                                 e_m3_via_pipeline(g)))
    for d1, d2 in product((2 * g + 3, 2 * g + 4), (0, 1)):
        for n1, route in ((3, e_n31_closed), (2, e_triples21)):
            t = TripleType(n1, 1, d1, d2, g)
            for k in range(1, len(chamber_bounds(t)) + 1):
                yield route(g, d1, d2, chamber=k), 2
        for d_m, _sigma in criticals(TripleType(2, 1, d1, d2, g)):
            yield e_triples21_critical_stable(g, d1, d2, d_m), 2


@pytest.mark.parametrize("g", [2, 3, 4])
def test_fixed_times_jacobian_power_is_the_polynomial(g):
    # e(Jac) from the dict oracle, not from _times_jacobian
    jac = oracles.pmul(oracles.ppow({(0, 0): 1, (1, 0): 1}, g),
                       oracles.ppow({(0, 0): 1, (0, 1): 1}, g))
    powers = {k: oracles.ppow(jac, k) for k in (1, 2)}
    checked = 0
    for r, k in _fixed_results(g):
        assert r.poly.terms == oracles.pmul(powers[k], r.fixed.terms)
        checked += 1
    assert checked > 4


def test_fixed_is_none_where_no_route_has_it():
    for g, d1, d2 in ((2, 7, 0), (3, 9, 1)):
        for n1, route in ((3, e_n31_flipsum), (2, e_triples21_flipsum)):
            t = TripleType(n1, 1, d1, d2, g)
            for k in range(1, len(chamber_bounds(t)) + 1):
                assert route(g, d1, d2, chamber=k).fixed is None
    for r in (e_jacobian(3), e_projective(4), e_sym(2, 3),
              e_grassmannian(2, 4), e_affine(2), e_sym2_quotient(e_m3(2)),
              e_n31_closed(2, 7, 0, 100)):
        assert r.fixed is None


def test_result_equality_ignores_fixed():
    h = e_m3(2)
    other = dataclasses.replace(h, fixed=h.fixed + ONE)
    assert other == h
    assert hash(other) == hash(h)
    assert "fixed" not in repr(h)


def _spy(monkeypatch, name, calls):
    # record the arguments of every call of name, through whichever
    # submodule imported it
    for module in SUBMODULES:
        original = vars(module).get(name)
        if original is not None:
            def spy(*args, original=original):
                calls.append(args)
                return original(*args)

            monkeypatch.setattr(module, name, spy)


@pytest.mark.parametrize("g", [2, 3, 5])
def test_pipeline_divides_once_and_a_warm_read_multiplies_nothing(
    monkeypatch, g
):
    # cold but for the zoo's e(P^{3g-3}), the pipeline's divisions
    # outside e_n31_closed are the one by e(P^{3g-3})
    triplehodge._memo.clear_all()
    projective = e_projective(3 * g - 2).poly
    divisions = []
    closed = moduli.e_n31_closed

    def closed_unrecorded(*args, **kwargs):
        before = len(divisions)
        low = closed(*args, **kwargs)
        del divisions[before:]
        return low

    monkeypatch.setattr(moduli, "e_n31_closed", closed_unrecorded)
    _spy(monkeypatch, "divide_exact", divisions)
    pipeline = e_m3_via_pipeline(g)
    assert [den for _num, den in divisions] == [projective]
    # the chamber memo holds e(N_0) beside e(N_sigma), so a warm read of
    # the chamber multiplies nothing in
    products = []
    _spy(monkeypatch, "_times_jacobian", products)
    low = e_n31_closed(g, 6 * g - 5, 0, chamber=1)
    assert products == []
    assert divisions[0][0] == low.fixed
    assert pipeline.fixed == divide_exact(low.fixed, projective)


def test_m3_invariants():
    for g in (2, 3):
        h = e_m3(g)
        assert h.dim == 9 * g - 8
        assert h.smooth_projective
        assert h.poly.coefficient(0, 0) == 1
        assert h.poly.total_degree() == 18 * g - 16
        assert smooth_projective_failures(h.poly, h.dim) == []


@pytest.mark.parametrize("g,d", HN_CASES)
def test_m3_matches_hn_recursion(g, d):
    assert e_m3(g, d).poly.terms == oracles.hn_moduli_hodge(3, d, g)


@pytest.mark.parametrize("g", [2, 3])
def test_hn_recursion_diagonal_matches_frozen_betti(g):
    # guards the oracle itself: its Hodge values must still give the
    # Betti numbers that the Betti-only recursion gave
    for n, frozen in ((2, oracles.M21_BETTI), (3, oracles.M31_BETTI)):
        hodge = oracles.hn_moduli_hodge(n, 1, g)
        assert oracles.pdiagonal(hodge) == frozen[g]


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


SUBMODULES = [
    importlib.import_module(f"triplehodge.{info.name}")
    for info in pkgutil.iter_modules(triplehodge.__path__)
]


def test_package_exports_match_every_submodule():
    for module in SUBMODULES:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"
    for name in triplehodge.__all__:
        value = getattr(triplehodge, name)
        home = importlib.import_module(value.__module__)
        assert name in getattr(home, "__all__", [name]), name
        assert getattr(home, name) is value, name
    assert set(moduli.__all__) <= set(triplehodge.__all__)
