"""Unit tests for the exact Laurent-polynomial layer."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from triplehodge import FractionUV, LaurentPoly, NonDivisible, divide_exact
from triplehodge.laurent import ONE, U, UV, V, ZERO, halve_exact

exponents = st.integers(min_value=-3, max_value=3)
coeffs = st.integers(min_value=-9, max_value=9)
term_maps = st.dictionaries(
    st.tuples(exponents, exponents), coeffs, max_size=5
)
polys = term_maps.map(LaurentPoly)


# -- construction and queries ------------------------------------------


def test_zero_coefficients_dropped():
    p = LaurentPoly({(1, 0): 0, (0, 1): 3})
    assert len(p) == 1
    assert p.coefficient(1, 0) == 0
    assert p.coefficient(0, 1) == 3


def test_non_integer_coefficient_rejected():
    with pytest.raises(TypeError):
        LaurentPoly({(0, 0): 1.5})


def test_constructors():
    assert LaurentPoly.zero().is_zero()
    assert not LaurentPoly.zero()
    assert LaurentPoly.one() == LaurentPoly({(0, 0): 1})
    assert LaurentPoly.monomial(2, 3, -4) == LaurentPoly({(2, 3): -4})
    assert LaurentPoly.constant(7) == LaurentPoly({(0, 0): 7})
    assert LaurentPoly.constant(0).is_zero()


def test_basic_queries():
    p = LaurentPoly({(-1, 2): 3, (2, 0): -6})
    assert p.total_degree() == 2
    assert p.min_exponents() == (-1, 0)
    assert not p.is_polynomial()
    assert (U + V).is_polynomial()
    assert p.content() == 3
    assert ZERO.content() == 0
    assert ZERO.total_degree() == 0
    assert ZERO.min_exponents() == (0, 0)


def test_leading_term_graded_lex():
    # ties in total degree break toward the larger v-exponent
    p = U * U + V * V + U * V
    assert p.leading_term() == ((0, 2), 1)
    with pytest.raises(ValueError):
        ZERO.leading_term()


def test_int_coercion_both_sides():
    assert 1 + U == ONE + U
    assert 2 * U == U + U
    assert U - 1 == U + LaurentPoly.constant(-1)
    assert 1 - U == ONE - U
    assert (U == 0) is False
    assert (ZERO == 0) is True


# -- ring axioms --------------------------------------------------------


@given(polys, polys, polys)
@settings(max_examples=60, deadline=None)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + ZERO == p
    assert p * ONE == p
    assert p - p == ZERO
    assert p + (-p) == ZERO


@given(term_maps, term_maps)
@settings(max_examples=60, deadline=None)
def test_mul_matches_dict_oracle(d1, d2):
    got = LaurentPoly(d1) * LaurentPoly(d2)
    assert got == LaurentPoly(oracles.pmul(d1, d2))


@given(polys, st.integers(min_value=0, max_value=5))
@settings(max_examples=40, deadline=None)
def test_pow_matches_repeated_multiplication(p, k):
    expected = ONE
    for _ in range(k):
        expected = expected * p
    assert p**k == expected


def test_pow_negative_unit_monomials():
    assert UV**-2 == LaurentPoly.monomial(-2, -2)
    assert U**-1 * U == ONE
    minus_u = LaurentPoly.monomial(1, 0, -1)
    assert minus_u**-1 == LaurentPoly.monomial(-1, 0, -1)
    assert minus_u**-2 == LaurentPoly.monomial(-2, 0)
    assert minus_u**-1 * minus_u == ONE


def test_pow_negative_rejections():
    with pytest.raises(ValueError):
        (ONE + U) ** -1
    with pytest.raises(ValueError):
        LaurentPoly.monomial(1, 0, 2) ** -1
    with pytest.raises(ValueError):
        U ** Fraction(1, 2)


def test_hash_consistent_with_eq():
    p = (ONE + U) * (ONE + V)
    q = ONE + U + V + UV
    assert p == q
    assert hash(p) == hash(q)
    assert len({p, q}) == 1


# -- division -----------------------------------------------------------


@given(polys, polys.filter(lambda p: not p.is_zero()))
@settings(max_examples=60, deadline=None)
def test_divide_exact_roundtrip(a, b):
    assert divide_exact(a * b, b) == a


@given(polys, polys.filter(lambda p: not p.is_zero()))
@settings(max_examples=100, deadline=None)
def test_divide_exact_quotient_or_remainder(num, den):
    try:
        q = divide_exact(num, den)
    except NonDivisible as exc:
        r = exc.remainder
        assert not r.is_zero()
        assert divide_exact(num - r, den) * den == num - r
    else:
        assert q * den == num


def _production_divisors(g):
    jacobian = (ONE + U) ** g * (ONE + V) ** g
    cyclotomic = ONE
    for k in range(1, g + 1):
        cyclotomic = cyclotomic * (ONE - UV**k)
    return jacobian, cyclotomic


@pytest.mark.parametrize("g", range(1, 7))
def test_divide_exact_production_divisors(g):
    jacobian, cyclotomic = _production_divisors(g)
    shape = ONE + 2 * U - 3 * V**2 + U**-1 * V
    for den, other in ((jacobian, cyclotomic), (cyclotomic, jacobian)):
        q = other * shape
        num = q * den
        assert num.terms == oracles.pmul(q.terms, den.terms)
        assert divide_exact(num, den) == q
        with pytest.raises(NonDivisible) as info:
            divide_exact(num + 1, den)
        r = info.value.remainder
        assert not r.is_zero()
        assert divide_exact(num + 1 - r, den) * den == num + 1 - r


def test_divide_exact_laurent_inputs():
    num = U**-2 - ONE
    den = U**-1 + ONE
    assert divide_exact(num, den) == U**-1 - ONE


def test_divide_exact_remainder_carried():
    num = ONE + U
    den = ONE + V
    with pytest.raises(NonDivisible) as info:
        divide_exact(num, den)
    assert info.value.remainder == num


def test_divide_exact_zero_cases():
    assert divide_exact(ZERO, ONE + U).is_zero()
    with pytest.raises(ZeroDivisionError):
        divide_exact(ONE, ZERO)


def test_divide_exact_integer_coefficient_failure():
    with pytest.raises(NonDivisible):
        divide_exact(U, LaurentPoly.constant(2))


@given(polys)
@settings(max_examples=40, deadline=None)
def test_halve_exact_roundtrip(p):
    assert halve_exact(p + p) == p


def test_halve_exact_rejects_odd():
    with pytest.raises(ValueError):
        halve_exact(ONE + LaurentPoly.monomial(1, 0, 2))


# -- substitutions ------------------------------------------------------


def test_diagonal_collects_by_total_degree():
    p = ONE + U + V + UV
    assert p.diagonal() == LaurentPoly({(0, 0): 1, (1, 0): 2, (2, 0): 1})
    # cancellation across terms of equal total degree
    assert (U - V).diagonal().is_zero()


def test_square_negate():
    p = ONE + U + V + UV
    expected = LaurentPoly({(0, 0): 1, (2, 0): -1, (0, 2): -1, (2, 2): 1})
    assert p.square_negate() == expected


def test_invert_variables():
    p = LaurentPoly({(1, -2): 5, (0, 0): 1})
    assert p.invert_variables() == LaurentPoly({(-1, 2): 5, (0, 0): 1})
    assert p.invert_variables().invert_variables() == p


def test_evaluate_exact():
    p = ONE + UV + UV**2
    assert p.evaluate(1, 1) == 3
    assert p.evaluate(Fraction(1, 2), 2) == 3
    q = U**-1
    assert q.evaluate(Fraction(2, 3), 1) == Fraction(3, 2)
    with pytest.raises(ZeroDivisionError):
        q.evaluate(0, 1)


def test_as_univariate():
    p = LaurentPoly({(0, 0): 1, (2, 0): 5})
    assert p.as_univariate() == {0: 1, 2: 5}
    with pytest.raises(ValueError):
        (ONE + V).as_univariate()


# -- serialization ------------------------------------------------------


def test_canonical_text_order():
    sym1 = LaurentPoly(oracles.SYM1_G2)
    assert sym1.to_text() == "1 + 2*u + 2*v + u*v"
    sym2 = LaurentPoly(oracles.SYM2_G2)
    assert sym2.to_text() == (
        "1 + 2*u + 2*v + u^2 + 5*u*v + v^2"
        " + 2*u^2*v + 2*u*v^2 + u^2*v^2"
    )


def test_text_negative_coefficients_and_exponents():
    p = LaurentPoly({(-1, 0): -3, (0, 0): 1})
    assert p.to_text() == "-3*u^-1 + 1"
    q = LaurentPoly({(0, 0): 1, (1, 1): -1})
    assert q.to_text() == "1 - u*v"
    assert ZERO.to_text() == "0"


def test_text_alternate_variables():
    p = ONE + LaurentPoly.monomial(2, 0, 3)
    assert p.to_text("t", "s") == "1 + 3*t^2"


def test_latex_rendering():
    p = (ONE + U) ** 2
    assert p.to_latex() == "1 + 2 u + u^{2}"
    q = LaurentPoly({(0, 0): 1, (2, 3): -4})
    assert q.to_latex() == "1 - 4 u^{2} v^{3}"
    assert ZERO.to_latex() == "0"


def test_triples_and_json_roundtrip():
    p = LaurentPoly(oracles.SYM2_G2)
    triples = p.to_triples()
    assert triples[0] == [0, 0, "1"]
    assert all(isinstance(c, str) for _, _, c in triples)
    assert LaurentPoly.from_triples(triples) == p
    assert LaurentPoly.from_json(p.to_json()) == p


def test_from_triples_rejects_duplicates():
    with pytest.raises(ValueError):
        LaurentPoly.from_triples([[0, 0, "1"], [0, 0, "2"]])


@given(polys)
@settings(max_examples=60, deadline=None)
def test_parse_roundtrip(p):
    assert LaurentPoly.parse(p.to_text()) == p
    assert LaurentPoly.from_json(p.to_json()) == p


def test_parse_flexible_input():
    assert LaurentPoly.parse("u^-2*v - 3") == LaurentPoly(
        {(-2, 1): 1, (0, 0): -3}
    )
    assert LaurentPoly.parse("2u") == LaurentPoly.monomial(1, 0, 2)
    assert LaurentPoly.parse("  0 ") == ZERO
    assert LaurentPoly.parse("u + u") == LaurentPoly.monomial(1, 0, 2)
    assert LaurentPoly.parse("1 + 3*t^2", "t", "s") == LaurentPoly(
        {(0, 0): 1, (2, 0): 3}
    )


def test_parse_rejects_malformed():
    # adjacent terms need an explicit +/- between them
    with pytest.raises(ValueError):
        LaurentPoly.parse("v u")
    with pytest.raises(ValueError):
        LaurentPoly.parse("1 + ?")


# -- fractions ----------------------------------------------------------


def test_fraction_equality_cross_multiplies():
    a = FractionUV(ONE - UV**2, ONE - UV)
    b = FractionUV(ONE + UV)
    assert a == b
    assert FractionUV(U, V) != FractionUV(V, U)


def test_fraction_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        FractionUV(ONE, ZERO)
    with pytest.raises(ZeroDivisionError):
        FractionUV(ONE, ONE) / FractionUV(ZERO, ONE)


def test_fraction_arithmetic():
    half_ish = FractionUV(ONE, ONE - UV)
    other = FractionUV(ONE, ONE + UV)
    total = half_ish + other
    assert total == FractionUV(2 * ONE, ONE - UV**2)
    assert half_ish - half_ish == FractionUV.zero()
    assert (half_ish * other).den == (ONE - UV) * (ONE + UV)
    assert half_ish / half_ish == FractionUV.one()
    assert 1 - FractionUV(UV) == FractionUV(ONE - UV)


def test_fraction_pow_negative_swaps():
    f = FractionUV(ONE + U, ONE + V)
    inv = f**-1
    assert inv.num == ONE + V
    assert inv.den == ONE + U
    assert f**0 == FractionUV.one()
    with pytest.raises(ValueError):
        f ** Fraction(1, 2)


def test_fraction_normalize():
    f = FractionUV(
        LaurentPoly.monomial(1, 1, 2) - LaurentPoly.monomial(2, 2, 2),
        UV * (ONE - UV) * 2,
    )
    n = f.normalize()
    assert n.num == ONE and n.den == ONE
    # 1 - uv leads with -uv, so the sign fix flips both parts
    m = FractionUV(ONE, ONE - UV).normalize()
    assert m.den.leading_term()[1] > 0
    assert m == FractionUV(ONE, ONE - UV)


def test_fraction_as_polynomial():
    f = FractionUV(ONE - UV**3, ONE - UV)
    assert f.as_polynomial() == ONE + UV + UV**2
    with pytest.raises(NonDivisible):
        FractionUV(ONE, ONE - UV).as_polynomial()


def test_fraction_str_forms():
    assert str(FractionUV(ONE + UV)) == "1 + u*v"
    assert str(FractionUV(ONE, ONE - UV)) == "(1) / (1 - u*v)"
