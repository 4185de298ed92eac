"""Tests for the zoo of auxiliary varieties and the result wrapper."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from triplehodge import (
    HodgeResult,
    LaurentPoly,
    e_affine,
    e_grassmannian,
    e_jacobian,
    e_projective,
    e_sym,
    e_sym2_quotient,
)
from triplehodge.laurent import ONE, U, UV, V, ZERO
from triplehodge.zoo import smooth_projective_failures


# -- projective and affine spaces -----------------------------------------


def test_projective_space_pinned():
    h = e_projective(3)
    assert h.poly.to_text() == "1 + u*v + u^2*v^2"
    assert h.dim == 2
    assert h.smooth_projective
    assert not h.empty


def test_projective_space_betti():
    betti = e_projective(4).poly.diagonal().as_univariate()
    assert [betti.get(k, 0) for k in range(7)] == oracles.P3_BETTI


def test_projective_space_empty_cases():
    assert e_projective(0).empty
    assert e_projective(-2).empty
    assert e_projective(0).poly.is_zero()


def test_affine_space():
    h = e_affine(3)
    assert h.poly == UV**3
    assert h.dim == 3
    assert not h.smooth_projective
    assert e_affine(-1).empty


# -- jacobian --------------------------------------------------------------


def test_jacobian_pinned():
    h = e_jacobian(2)
    assert h.poly == LaurentPoly(oracles.JAC_G2)
    assert h.dim == 2
    assert h.smooth_projective
    assert h.poly.evaluate(1, 1) == 16


def test_jacobian_invariants():
    for g in range(6):
        h = e_jacobian(g)
        assert h.poly.evaluate(1, 1) == 2 ** (2 * g)
        assert smooth_projective_failures(h.poly, h.dim) == []
    with pytest.raises(ValueError):
        e_jacobian(-1)


# -- symmetric powers -------------------------------------------------------


def test_sym_matches_brute_force():
    for g in (2, 3):
        for k in range(7):
            h = e_sym(k, g)
            assert h.poly == LaurentPoly(oracles.sym_power_curve(k, g))
            assert h.dim == k
            assert smooth_projective_failures(h.poly, h.dim) == []


def test_sym_pinned_g2():
    assert e_sym(1, 2).poly == LaurentPoly(oracles.SYM1_G2)
    assert e_sym(2, 2).poly == LaurentPoly(oracles.SYM2_G2)


def test_sym_small_cases():
    assert e_sym(0, 3).poly == ONE
    assert e_sym(0, 3).dim == 0
    assert e_sym(1, 3).poly == ONE + 3 * U + 3 * V + UV
    assert e_sym(-1, 3).empty
    with pytest.raises(ValueError):
        e_sym(2, -1)


# -- grassmannians -----------------------------------------------------------


def test_grassmannian_pinned():
    h = e_grassmannian(2, 4)
    assert h.poly == LaurentPoly(oracles.GR24)
    assert h.dim == 4
    assert h.smooth_projective


def test_grassmannian_duality_and_projective_case():
    for n in range(7):
        for k in range(n + 1):
            assert e_grassmannian(k, n).poly == e_grassmannian(n - k, n).poly
        assert e_grassmannian(1, n).poly == e_projective(n).poly


def test_grassmannian_out_of_range_is_empty():
    assert e_grassmannian(3, 2).empty
    assert e_grassmannian(-1, 4).empty
    assert e_grassmannian(2, -1).empty


def test_grassmannian_invariants():
    for n in range(2, 7):
        for k in range(1, n):
            h = e_grassmannian(k, n)
            assert h.dim == k * (n - k)
            assert smooth_projective_failures(h.poly, h.dim) == []


# -- symmetric-square quotients ----------------------------------------------


def test_sym2_quotient_of_p1_is_p2():
    got = e_sym2_quotient(e_projective(2))
    assert got.poly == LaurentPoly(oracles.SYM2_P1)
    assert got.poly == e_projective(3).poly
    assert got.dim == 2


def test_sym2_quotient_of_curve_is_sym2():
    for g in (2, 3):
        assert e_sym2_quotient(e_sym(1, g)).poly == e_sym(2, g).poly


def test_sym2_quotient_accepts_raw_polynomial():
    got = e_sym2_quotient(e_projective(2).poly)
    assert got.poly == e_projective(3).poly


@given(
    st.dictionaries(
        st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
        st.integers(-50, 50),
        max_size=8,
    )
)
@settings(max_examples=60, deadline=None)
def test_sym2_quotient_halves_any_laurent_polynomial(f):
    # f^2 and f(-u^2, -v^2) agree mod 2 for every integer Laurent f, so
    # the halving is exact whether or not f is a Hodge polynomial
    substituted = {
        (2 * a, 2 * b): c if (a + b) % 2 == 0 else -c for (a, b), c in f.items()
    }
    doubled = oracles.padd(oracles.pmul(f, f), substituted)
    got = e_sym2_quotient(LaurentPoly(f)).poly
    assert oracles.padd(got.terms, got.terms) == doubled


# -- smooth-projective invariant checks ---------------------------------------


def test_failure_checks_pass_on_genuine_spaces():
    assert smooth_projective_failures(e_projective(5).poly, 4) == []
    assert smooth_projective_failures(e_grassmannian(2, 5).poly, 6) == []


def test_failure_checks_catch_violations():
    assert smooth_projective_failures(U**-1, 0)
    assert smooth_projective_failures(U, 1)
    assert smooth_projective_failures(LaurentPoly.constant(-1), 0)
    assert smooth_projective_failures(ONE + UV, 2)


def test_failure_checks_report_a_lone_degree_failure():
    # every term passes its own checks; only the total degree is off
    assert smooth_projective_failures(UV, 2) == ["total degree 2 != 2*dim = 4"]


def test_failure_messages_ignore_term_insertion_order():
    # one polynomial, its term map filled in two orders
    terms = [((0, 0), 1), ((1, 0), -2), ((0, 1), 3), ((2, 1), 4), ((1, 1), -1)]
    forward = LaurentPoly(dict(terms))
    backward = LaurentPoly(dict(reversed(terms)))
    assert list(forward.terms) != list(backward.terms)
    messages = smooth_projective_failures(forward, 1)
    assert len(messages) > 3
    assert smooth_projective_failures(backward, 1) == messages


# -- integer arguments ------------------------------------------------------


@pytest.mark.parametrize(
    "fn, args, name",
    [(e_affine, (2.0,), "n"), (e_affine, (-1.0,), "n"),
     (e_projective, (-2.0,), "n"), (e_sym, (-1.0, 2), "k"),
     (e_sym, (2.0, 3), "k"), (e_grassmannian, (3.0, 2), "k"),
     (e_grassmannian, (2.0, 4), "k"), (e_grassmannian, (2, 4.0), "n"),
     (e_projective, (True,), "n"), (e_sym, (True, 2), "k")],
    ids=["affine-2.0", "affine-neg", "projective-neg", "sym-neg-k",
         "sym-k", "grassmannian-k-above-n", "grassmannian-k",
         "grassmannian-n", "projective-bool", "sym-bool"],
)
def test_a_non_integer_argument_is_refused_by_name(fn, args, name):
    # a negative float dimension is no empty variety, and a float one is
    # refused before range() or an exponent meets it; a bool is no integer
    with pytest.raises(TypeError, match=f"^{name} must be an integer, got "):
        fn(*args)


# -- result wrapper -------------------------------------------------------------


def test_result_empty_is_derived_from_the_polynomial():
    assert HodgeResult(ZERO, 0).empty
    assert not HodgeResult(ONE, 0).empty
    assert e_projective(0) == HodgeResult(ZERO, 0)
    assert e_projective(0).chamber is None
    with pytest.raises(TypeError):
        HodgeResult(ZERO, 0, empty=True)
