"""Unit tests for the exact Laurent-polynomial layer."""

import re
import sys
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from triplehodge import (
    FractionUV,
    LaurentPoly,
    NonDivisible,
    divide_exact,
    e_jacobian,
    e_m3,
)
from triplehodge import laurent
from triplehodge.laurent import ONE, U, UV, V, ZERO, halve_exact

exponents = st.integers(min_value=-3, max_value=3)
coeffs = st.integers(min_value=-9, max_value=9)
term_maps = st.dictionaries(
    st.tuples(exponents, exponents), coeffs, max_size=5
)
polys = term_maps.map(LaurentPoly)


@st.composite
def product_operands(draw):
    """Up to 60 nonzero terms in a square box of side 1..21 within -20..20.

    At most half of the box is filled, so narrow boxes come out dense and
    wide ones sparse, and pairs of operands fall on both sides of both
    of ``__mul__``'s routing rules.
    """
    lo = draw(st.integers(min_value=-20, max_value=0))
    side = draw(st.integers(min_value=1, max_value=21))
    scale = draw(st.sampled_from([1, 9, 10**40]))
    count = min(draw(st.integers(min_value=1, max_value=60)), max(1, side**2 // 2))
    cells = draw(
        st.lists(
            st.integers(min_value=0, max_value=side**2 - 1),
            min_size=count,
            max_size=count,
            unique=True,
        )
    )
    nonzero = st.integers(min_value=-scale, max_value=scale - 1).map(
        lambda c: c + (c >= 0)
    )
    coeffs = draw(st.lists(nonzero, min_size=count, max_size=count))
    return LaurentPoly(
        {(lo + i // side, lo + i % side): c for i, c in zip(cells, coeffs)}
    )


# -- construction and queries ------------------------------------------


def test_zero_coefficients_dropped():
    p = LaurentPoly({(1, 0): 0, (0, 1): 3})
    assert len(p) == 1
    assert p.coefficient(1, 0) == 0
    assert p.coefficient(0, 1) == 3


def test_non_integer_coefficient_rejected():
    with pytest.raises(TypeError):
        LaurentPoly({(0, 0): 1.5})


@pytest.mark.parametrize("build, bad", [
    (lambda: LaurentPoly({(1.5, 0): 1}), "1.5"),
    (lambda: LaurentPoly({(0, 2.0): 1}), "2.0"),
    (lambda: LaurentPoly.monomial(Fraction(3, 2), 0), "Fraction(3, 2)"),
    (lambda: LaurentPoly({("2", 0): 1}), "'2'"),
    (lambda: LaurentPoly.from_triples([[1.9, 0, "3"]]), "1.9"),
    (lambda: LaurentPoly.from_triples([[1, "0", 3]]), "'0'"),
])
def test_non_integer_exponent_rejected(build, bad):
    # int() would truncate 1.5 to 1 and read "2" as 2: a wrong polynomial
    # instead of an error
    with pytest.raises(TypeError, match=rf"^exponent {re.escape(bad)} is "):
        build()


def test_from_triples_reads_int_and_decimal_coefficients_only():
    assert LaurentPoly.from_triples([[1, 0, "3"], [0, 1, -2]]) == 3 * U - 2 * V
    with pytest.raises(TypeError, match=r"^coefficient 1\.5 is not"):
        LaurentPoly.from_triples([[1, 0, 1.5]])


def test_constructors():
    assert ZERO.is_zero()
    assert not ZERO
    assert ONE == LaurentPoly({(0, 0): 1})
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


def _production_divisors(g):
    jacobian = (ONE + U) ** g * (ONE + V) ** g
    cyclotomic = ONE
    for k in range(1, g + 1):
        cyclotomic = cyclotomic * (ONE - UV**k)
    return jacobian, cyclotomic


@given(product_operands(), product_operands())
@settings(max_examples=100, deadline=None)
def test_large_mul_matches_dict_oracle(p, q):
    got = p * q
    assert got.terms == oracles.pmul(p.terms, q.terms)
    assert 0 not in got.terms.values()
    # p(u, v) * p(-u, v) is even in u: every odd-u coefficient cancels
    flipped = LaurentPoly(
        {(a, b): -c if a % 2 else c for (a, b), c in p.terms.items()}
    )
    even = p * flipped
    assert even.terms == oracles.pmul(p.terms, flipped.terms)
    assert all(a % 2 == 0 for a, _ in even.terms)


@pytest.mark.parametrize("c", [3, 50, 2**30 - 1, 2**62 - 1])
def test_mul_reaches_the_coefficient_bound(c):
    # the middle coefficient of p * p is 16 c^2, the bound that sizes the
    # product's slots, and its bit length is a multiple of 8, so only a
    # slot with a byte to spare for the sign holds it
    p = LaurentPoly({(i, 0): c for i in range(16)})
    assert (16 * c * c).bit_length() % 8 == 0
    for q in (p, -p):
        assert (p * q).terms == oracles.pmul(p.terms, q.terms)


@pytest.mark.parametrize(
    "p, q, packed",
    [
        # 15 x 16 = 240 term pairs: below the size rule
        ((ONE + U) ** 14, (ONE + V) ** 15, False),
        # 16 x 16 = 256 term pairs filling a 16 x 16 box
        ((ONE + U) ** 15, (ONE + V) ** 15, True),
        # 256 term pairs spread over a 31 x 16 box
        ((ONE + U**2) ** 15, (ONE + V) ** 15, False),
        # 121 x 40 term pairs over a 66 x 66 box
        (*_production_divisors(10), True),
    ],
)
def test_mul_routing(monkeypatch, p, q, packed):
    calls = []
    kronecker = laurent._mul_kronecker

    def spy(*args):
        calls.append(args)
        return kronecker(*args)

    monkeypatch.setattr(laurent, "_mul_kronecker", spy)
    assert (p * q).terms == oracles.pmul(p.terms, q.terms)
    assert bool(calls) == packed


@pytest.mark.parametrize("g", range(1, 11))
def test_production_products_match_dict_oracle(g):
    jacobian, cyclotomic = _production_divisors(g)
    curve = oracles.pmul({(0, 0): 1, (1, 0): 1}, {(0, 0): 1, (0, 1): 1})
    assert jacobian.terms == oracles.ppow(curve, g)
    expected = {(0, 0): 1}
    for k in range(1, g + 1):
        expected = oracles.pmul(expected, {(0, 0): 1, (k, k): -1})
    assert cyclotomic.terms == expected
    for p, q in ((jacobian, cyclotomic), (jacobian, jacobian)):
        assert (p * q).terms == oracles.pmul(p.terms, q.terms)


# the monomials m of the binomials 1 +- m in the package's closed forms
_BINOMIAL_MONOMIALS = [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (2, 3), (3, 2)]
binomial_maps = st.dictionaries(
    st.tuples(st.sampled_from(_BINOMIAL_MONOMIALS), st.sampled_from([1, -1])),
    st.integers(min_value=0, max_value=6),
    max_size=4,
)


@given(polys, binomial_maps)
@example(ZERO, {((1, 0), 1): 3})
@example(LaurentPoly.parse("u^-2*v - 3 + 5*u*v^3"), {})
@settings(max_examples=100, deadline=None)
def test_times_binomials_matches_dict_oracle(p, factors):
    binomials = {
        LaurentPoly({(0, 0): 1, m: sign}): k for (m, sign), k in factors.items()
    }
    expected = p.terms
    for (m, sign), k in factors.items():
        expected = oracles.pmul(expected, oracles.ppow({(0, 0): 1, m: sign}, k))
    assert laurent._binomial_sum([(1, 0, 0, p, binomials)]).terms == expected


@pytest.mark.parametrize("c, k", [(7, 5), (200, 8), (2**30 - 1, 2), (3, 62)])
def test_times_binomials_reaches_the_coefficient_bound(c, k):
    # k + 1 equal coefficients c times (1 + u)^k give c * 2^k at u^k, the
    # bound that sizes the slots, and its bit length is a multiple of 8,
    # so only a slot with a byte to spare for the sign holds it
    assert (c << k).bit_length() % 8 == 0
    p = LaurentPoly({(i, 0): c for i in range(k + 1)})
    alternating = LaurentPoly({(i, 0): (-1) ** i * c for i in range(k + 1)})
    for q, binomial in ((p, ONE + U), (-p, ONE + U), (alternating, ONE - U)):
        got = laurent._binomial_sum([(1, 0, 0, q, {binomial: k})])
        assert abs(got.coefficient(k, 0)) == c << k
        assert got.terms == oracles.pmul(q.terms, oracles.ppow(binomial.terms, k))


# -- Kronecker slots ----------------------------------------------------

_SLOT_SIZES = [1, 2, 4, 8, 16, 24]


@st.composite
def slot_packings(draw):
    """A term map for slots of 1 to 24 bytes, and a box width that fits it.

    Coefficients take both signs up to the ends of the slot's signed
    range, exponents may be negative, and rows of the box may be empty.
    """
    size = draw(st.sampled_from(_SLOT_SIZES))
    half = 1 << (8 * size - 1)
    coeff = st.one_of(
        st.sampled_from([-half, half - 1, -1, 1]),
        st.integers(min_value=-half, max_value=half - 1).filter(bool),
    )
    exponent = st.integers(min_value=-4, max_value=4)
    terms = draw(
        st.dictionaries(st.tuples(exponent, exponent), coeff, min_size=1, max_size=12)
    )
    vs = [b for _, b in terms]
    width = max(vs) - min(vs) + 1 + draw(st.integers(min_value=0, max_value=3))
    return terms, width, size


@given(slot_packings())
@example(({(-3, 0): -1, (2, 1): 1}, 2, 1))
@example(({(0, -2): -(2**127), (4, 0): 2**127 - 1, (1, 3): -1}, 6, 16))
@example(({(0, 0): 2**191 - 1, (3, 2): -(2**191)}, 3, 24))
@settings(max_examples=150, deadline=None)
def test_pack_unpack_roundtrip(packing):
    terms, width, size = packing
    packed, a0, b0 = laurent._pack(terms, width, size)
    assert (a0, b0) == (min(a for a, _ in terms), min(b for _, b in terms))
    assert packed == sum(
        c << 8 * size * ((a - a0) * width + b - b0) for (a, b), c in terms.items()
    )
    height = max(a for a, _ in terms) - a0 + 1
    for rows in (height, height + 2):
        assert laurent._unpack(packed, a0, b0, width, rows, size) == terms


# bit lengths of the slot bound at and just below each word edge, and
# the slot that holds that bound plus a sign bit
_WORD_EDGES = [
    (7, 1), (8, 2), (15, 2), (16, 4), (31, 4), (32, 8),
    (63, 8), (64, 16), (127, 16), (128, 24),
]


@pytest.mark.parametrize("bits, size", _WORD_EDGES)
def test_mul_fills_word_sized_slots_to_the_edge(bits, size):
    # 16 x 16 term pairs in a 31-slot box take the Kronecker route, and the
    # middle coefficient of p * p is 16 c^2, the bound that sizes the slots
    c = isqrt(((1 << bits) - 1) // 16)
    assert (16 * c * c).bit_length() == bits
    assert laurent._slot_bytes(16 * c * c) == size
    p = LaurentPoly({(i, 0): c for i in range(16)})
    alternating = LaurentPoly({(i, 0): (-1) ** i * c for i in range(16)})
    for q in (p, -p, alternating):
        assert (p * q).terms == oracles.pmul(p.terms, q.terms)


@pytest.mark.parametrize("bits, size", _WORD_EDGES)
def test_times_binomials_fills_word_sized_slots_to_the_edge(bits, size):
    # seven equal coefficients c times (1 + u)^6 give c * 2^6 at u^6, the
    # bound that sizes the slots
    c = (1 << (bits - 6)) - 1
    assert (c << 6).bit_length() == bits
    assert laurent._slot_bytes(c << 6) == size
    p = LaurentPoly({(i, 0): c for i in range(7)})
    alternating = LaurentPoly({(i, 0): (-1) ** i * c for i in range(7)})
    for q, binomial in ((p, ONE + U), (-p, ONE + U), (alternating, ONE - U)):
        got = laurent._binomial_sum([(1, 0, 0, q, {binomial: 6})])
        assert abs(got.coefficient(6, 0)) == c << 6
        assert got.terms == oracles.pmul(q.terms, oracles.ppow(binomial.terms, 6))


@pytest.mark.parametrize(
    "factor",
    ["-1 + u", "2 + u", "1 + 3*u", "1 + u + v", "u^-1 + 1"],
)
def test_times_binomials_refuses_a_factor_that_is_no_binomial(factor):
    f = LaurentPoly.parse(factor)
    with pytest.raises(ValueError, match=re.escape(f"({f})^1")):
        laurent._binomial_sum([(1, 0, 0, ONE, {f: 1})])


@pytest.mark.parametrize("k", [-1, True, 2.0])
def test_times_binomials_refuses_a_multiplicity_that_is_no_count(k):
    with pytest.raises(ValueError, match=re.escape(f"(1 + u)^{k!r}")):
        laurent._binomial_sum([(1, 0, 0, ONE, {ONE + U: k})])


def _binomial_product_oracle(c, a, b, p, factors):
    expected = oracles.pmul({(a, b): c}, p.terms)
    for (m, sign), k in factors.items():
        expected = oracles.pmul(expected, oracles.ppow({(0, 0): 1, m: sign}, k))
    return expected


binomial_pieces = st.lists(
    st.tuples(
        st.integers(min_value=-3, max_value=3),
        exponents,
        exponents,
        st.integers(min_value=0, max_value=2),
        binomial_maps,
    ),
    max_size=4,
)


@given(st.lists(polys, min_size=3, max_size=3), binomial_pieces)
@example([ZERO, ONE, ONE], [])
@example(
    [LaurentPoly.parse("u^-2*v - 3 + 5*u*v^3"), ZERO, ONE],
    [(2, -1, 3, 0, {((1, 0), 1): 2}), (-3, 0, -2, 0, {((2, 3), -1): 1}),
     (0, 1, 1, 2, {((1, 1), 1): 1}), (1, 2, 0, 1, {})],
)
@settings(max_examples=60, deadline=None)
def test_binomial_sum_matches_dict_oracle(pool, pieces):
    # pieces draw their polynomial from a pool of three, so one object
    # often serves two pieces and is packed once for both
    expected = {}
    for c, a, b, index, factors in pieces:
        expected = oracles.padd(
            expected, _binomial_product_oracle(c, a, b, pool[index], factors)
        )
    got = laurent._binomial_sum([
        (c, a, b, pool[index],
         {LaurentPoly({(0, 0): 1, m: sign}): k for (m, sign), k in factors.items()})
        for c, a, b, index, factors in pieces
    ])
    assert got.terms == expected


def test_binomial_sum_of_no_pieces_is_zero():
    assert laurent._binomial_sum([]) is ZERO
    assert laurent._binomial_sum([(0, 1, 1, ONE, {ONE + U: 3})]) is ZERO


@pytest.mark.parametrize(
    "bits, size", [(bits, size) for bits, size in _WORD_EDGES if bits % 8 == 0]
)
def test_binomial_sum_sizes_slots_by_the_sum_of_the_bounds(bits, size):
    # two pieces, each c * 2^6 at u^6 and so fitting the slot below, add to
    # c * 2^7 there, which needs the next slot size
    c = (1 << (bits - 7)) - 1
    assert laurent._slot_bytes(c << 6) < size == laurent._slot_bytes(c << 7)
    p = LaurentPoly({(i, 0): c for i in range(7)})
    alternating = LaurentPoly({(i, 0): (-1) ** i * c for i in range(7)})
    for q, binomial in ((p, ONE + U), (-p, ONE + U), (alternating, ONE - U)):
        got = laurent._binomial_sum([(1, 0, 0, q, {binomial: 6})] * 2)
        assert abs(got.coefficient(6, 0)) == c << 7
        expected = oracles.pmul(q.terms, oracles.ppow(binomial.terms, 6))
        assert got.terms == oracles.padd(expected, expected)


@pytest.mark.parametrize("size", _SLOT_SIZES)
def test_pack_and_unpack_convert_once_per_box(size):
    # a 20 x 20 box of nonzero slots: int.to_bytes and int.from_bytes run
    # a fixed number of times, not once per term or per slot
    terms = {(a, b): (-1) ** b * (a + 1) for a in range(20) for b in range(20)}
    conversions = []

    def profile(frame, event, arg):
        if event == "c_call" and arg.__name__ in ("to_bytes", "from_bytes"):
            conversions.append(arg.__name__)

    sys.setprofile(profile)
    try:
        packed, a0, b0 = laurent._pack(terms, 20, size)
        packing = len(conversions)
        got = laurent._unpack(packed, a0, b0, 20, 20, size)
    finally:
        sys.setprofile(None)
    assert got == terms
    assert packing <= 3
    assert conversions[packing:].count("from_bytes") <= 1
    assert len(conversions) - packing <= 3


def test_e_m3_multiplies_by_e_jacobian_with_shifts(monkeypatch):
    operands = []
    kronecker = laurent._mul_kronecker

    def spy(p, q, *rest):
        operands.extend((p, q))
        return kronecker(p, q, *rest)

    monkeypatch.setattr(laurent, "_mul_kronecker", spy)
    for g in range(2, 7):
        assert e_m3.__wrapped__(g) == e_m3(g)
        assert e_jacobian(g).poly.terms not in operands


@given(polys, st.integers(min_value=0, max_value=5))
@settings(max_examples=40, deadline=None)
def test_pow_matches_repeated_multiplication(p, k):
    expected = ONE
    for _ in range(k):
        expected = expected * p
    assert p**k == expected


@pytest.mark.parametrize(
    "base",
    [
        LaurentPoly.parse("2*u - 3*v"),
        LaurentPoly.parse("-5*u^-2*v + 4*u*v^-3"),
        LaurentPoly.parse("7*u^-1"),
        LaurentPoly.parse("-2"),
    ],
)
def test_pow_of_one_and_two_terms_matches_dict_oracle(base):
    for k in range(8):
        assert (base**k).terms == oracles.ppow(base.terms, k)


def test_pow_of_zero():
    assert ZERO**0 == ONE
    assert ZERO**1 == ZERO**5 == ZERO
    with pytest.raises(ValueError):
        ZERO**-1


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
    with pytest.raises(TypeError, match=r"exponent Fraction\(1, 2\)"):
        U ** Fraction(1, 2)


def test_hash_consistent_with_eq():
    p = (ONE + U) * (ONE + V)
    q = ONE + U + V + UV
    assert p == q
    assert hash(p) == hash(q)
    assert len({p, q}) == 1


def test_constants_hash_as_their_ints():
    assert ONE == 1 and hash(ONE) == hash(1)
    assert ZERO == 0 and hash(ZERO) == hash(0)
    assert LaurentPoly.constant(7) == 7
    assert hash(LaurentPoly.constant(7)) == hash(7)
    assert len({ONE, 1}) == len({ZERO, 0}) == 1
    assert FractionUV(ONE) == 1 and hash(FractionUV(ONE)) == hash(1)


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
    # 1 - uv divides, 2 does not
    with pytest.raises(NonDivisible):
        divide_exact((ONE + 3 * UV) * (ONE - UV), 2 - 2 * UV)


@pytest.mark.parametrize(
    "num, den",
    [
        # one term on each of two lines of m: neither line is a multiple
        # of D(m), but the two laid end to end read 1 - x^2, which is
        (ONE - U, ONE - UV),
        (ONE - U, ONE - V),
        (ONE - U**2, ONE + UV),
        # three lines of uv laid end to end divide by (1 - uv)(1 - (uv)^2),
        # but the quotient spills into a line's padding
        (2 * V**4 - ONE - U**4, (ONE - UV) * (ONE - UV**2)),
    ],
)
def test_divide_exact_lines_divide_one_by_one(num, den):
    with pytest.raises(NonDivisible) as info:
        divide_exact(num, den)
    r = info.value.remainder
    assert not r.is_zero()
    assert divide_exact(num - r, den) * den == num - r


def test_divide_exact_coerces_ints():
    assert divide_exact(6, 2) == LaurentPoly.constant(3)
    assert divide_exact(ONE - UV**2, 1) == ONE - UV**2
    assert divide_exact(0, ONE + U).is_zero()
    with pytest.raises(NonDivisible):
        divide_exact(7, 2)
    with pytest.raises(ZeroDivisionError):
        divide_exact(U, 0)
    for bad in ((1.5, ONE), (ONE, "u"), (Fraction(1, 2), ONE)):
        with pytest.raises(TypeError, match="expected a LaurentPoly or an int"):
            divide_exact(*bad)


def _kernel_denominators():
    # the wall kernel's, part B's of the closed N_sigma(3,1) form, and
    # their t-display counterparts, which lie on the ray of u
    t = U
    return [
        (ONE - UV) ** 2 * (ONE - UV**2),
        (ONE - UV) ** 2 * (ONE + UV),
        (ONE - t**2) ** 2 * (ONE - t**4),
        (ONE - t**2) ** 2 * (ONE + t**2),
    ]


_N = 10**6


@pytest.mark.parametrize(
    "num, den, route",
    [
        *(
            (den * (ONE + 2 * U - 3 * V**2 + U**-1 * V) ** 3, den, "lines")
            for den in (
                _production_divisors(6)[1],
                (ONE + U) ** 6,
                (ONE + V) ** 6,
                (ONE - UV) * (ONE - UV**2) ** 2 * (ONE - UV**3),
                *_kernel_denominators(),
                # normalized FractionUV denominators have constant term -1
                -((ONE - UV) ** 2 * (ONE + UV)),
            )
        ),
        # two unit terms: 1 - (uv)^4
        (_production_divisors(6)[0] * (ONE - UV**4), ONE - UV**4, "walk"),
        # on one ray, but not a product of binomials: a cofactor
        # 1 + 2uv + 3(uv)^2
        *(
            (_production_divisors(4)[0] * den, den, "heap")
            for den in (
                (ONE - UV) * (1 + 2 * UV + 3 * UV**2),
                (ONE + UV) * (1 + 2 * UV + 3 * UV**2),
            )
        ),
        # e(P^4) = (1 - (uv)^5) / (1 - uv): 1 - uv multiplied in
        (
            _production_divisors(4)[0] * (ONE + UV + UV**2 + UV**3 + UV**4),
            ONE + UV + UV**2 + UV**3 + UV**4,
            "lines",
        ),
        # bivariate e(Jac): no single monomial carries it
        (
            _production_divisors(6)[0] * (ONE + U + V) ** 4,
            _production_divisors(6)[0],
            "heap",
        ),
        # u - v = u (1 - v/u): two unit terms, walked along v/u
        ((U - V) * (ONE + U + V) ** 4, U - V, "walk"),
        # sparse: two numerator terms on one line of (uv)^N
        (ONE - UV ** (2 * _N), ONE - UV**_N, "walk"),
        # two terms, but 2 is no unit
        ((2 - 2 * UV) * (ONE + U + V) ** 4, 2 - 2 * UV, "heap"),
        # the pipeline's e(P^9) at g = 4, (1 - (uv)^10) / (1 - uv): 1 - uv
        # multiplied in
        (
            _production_divisors(4)[0] * sum((UV**k for k in range(10)), ZERO),
            sum((UV**k for k in range(10)), ZERO),
            "lines",
        ),
        # (1 + uv)(1 - (uv)^3)^2 = (1 - (uv)^2)(1 - (uv)^3)^2 / (1 - uv),
        # whose lowest binomials 1 - uv and 1 + uv both divide
        (
            _production_divisors(4)[0] * (ONE + UV) * (ONE - UV**3) ** 2,
            (ONE + UV) * (ONE - UV**3) ** 2,
            "lines",
        ),
        # no product of binomials over factors 1 - m^k either:
        # 1 + uv + 2(uv)^2, whose factors 1 - m^k multiplied in would
        # pass its degree
        *(
            (_production_divisors(4)[0] * den, den, "heap")
            for den in (
                ONE + UV + 2 * UV**2,
                (ONE - UV) * (ONE + UV + 2 * UV**2),
            )
        ),
    ],
)
def test_divide_routing(monkeypatch, num, den, route):
    routes = []
    for name in ("_divide_walk", "_divide_lines"):
        original = getattr(laurent, name)

        def spy(*args, name=name, original=original):
            result = original(*args)
            if result is not None:
                routes.append(name)
            return result

        monkeypatch.setattr(laurent, name, spy)
    quotient = divide_exact(num, den)
    assert (quotient * den).terms == num.terms
    assert routes == {"walk": ["_divide_walk"], "lines": ["_divide_lines"],
                      "heap": []}[route]


@st.composite
def line_divisors(draw):
    """+-u^a v^b times binomial powers (1 +- m^k)^e (k <= 4, e <= 10),
    optionally e(P^(n-1))
    in m^k = (1 - m^(nk)) / (1 - m^k) (n <= 7, k <= 2), and optionally a
    cofactor c0 + c1*m + c2*m^2 with c0 != 0, for one m among u, v, uv
    and u^2 v.  Unless the cofactor is itself a product of binomials,
    or one over factors 1 - m^k such as 1 + m + m^2, such a divisor must
    fall through to the heap route."""
    m = draw(st.sampled_from([U, V, UV, U**2 * V]))
    den = LaurentPoly.monomial(draw(exponents), draw(exponents))
    binomials = st.tuples(
        st.integers(1, 4), st.sampled_from([-1, 1]), st.integers(1, 10)
    )
    for k, sign, e in draw(st.lists(binomials, min_size=1, max_size=4)):
        den = den * (ONE + sign * m**k) ** e
    if draw(st.booleans()):
        n, k = draw(st.integers(2, 7)), draw(st.integers(1, 2))
        den = den * sum((m ** (k * t) for t in range(n)), ZERO)
    if draw(st.booleans()):
        c0 = draw(coeffs.filter(bool))
        c1, c2 = draw(coeffs), draw(coeffs)
        den = den * (c0 + c1 * m + c2 * m**2)
    return -den if draw(st.booleans()) else den


quotients = st.dictionaries(
    st.tuples(st.integers(-2, 3), st.integers(-2, 3)),
    coeffs.filter(bool),
    min_size=1,
    max_size=12,
).map(LaurentPoly)
bumps = st.builds(
    LaurentPoly.monomial,
    st.integers(-4, 12),
    st.integers(-4, 12),
    coeffs.filter(bool),
)


@given(quotients, line_divisors(), bumps)
@settings(max_examples=150, deadline=None)
def test_line_route_matches_heap_route(q, den, bump):
    num = q * den
    lined = []
    lines = laurent._divide_lines

    def spy(*args):
        result = lines(*args)
        lined.append(result is not None)
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(laurent, "_divide_lines", spy)
        assert divide_exact(num, den) == q
        exact = len(lined)
        with pytest.raises(NonDivisible) as by_lines:
            divide_exact(num + bump, den)
    # no line route divides a numerator that is off by one term, and a
    # two-term divisor is left to the walk and the heap route
    assert lined[exact:] == ([] if len(den) == 2 else [False])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(laurent, "_divide_lines", lambda *args: None)
        assert divide_exact(num, den) == q
        with pytest.raises(NonDivisible) as by_heap:
            divide_exact(num + bump, den)
    assert by_lines.value.remainder == by_heap.value.remainder
    assert str(by_lines.value) == str(by_heap.value)


@pytest.mark.parametrize("m", [U, V, UV])
@pytest.mark.parametrize("e", range(2, 11))
def test_line_route_refuses_one_binomial_too_many(m, e):
    # (1 + m)^(e - 1) divides num, (1 + m)^e does not: the line route
    # multiplies (1 - m)^e in, peels (1 - m^2)^e at once and must see
    # the remainder, which the heap route then builds
    cofactor = 2 + U + V**2
    den = (ONE + m) ** e
    assert laurent._divide_lines((den * cofactor).terms, den.terms, 0, 0) == (
        cofactor.terms
    )
    num = (ONE + m) ** (e - 1) * cofactor
    assert laurent._divide_lines(num.terms, den.terms, 0, 0) is None
    with pytest.raises(NonDivisible) as by_lines:
        divide_exact(num, den)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(laurent, "_divide_lines", lambda *args: None)
        with pytest.raises(NonDivisible) as by_heap:
            divide_exact(num, den)
    assert not by_lines.value.remainder.is_zero()
    assert by_lines.value.remainder == by_heap.value.remainder
    assert str(by_lines.value) == str(by_heap.value)


def _times_binomial(values, k, sign):
    # the list ``values`` times 1 + sign*x^k
    return [
        c + sign * (values[n - k] if 0 <= n - k < len(values) else 0)
        for n, c in enumerate(values + [0] * k)
    ]


@given(
    st.lists(coeffs, min_size=1, max_size=30),
    st.integers(1, 4),
    st.integers(1, 10),
    st.integers(0, 10),
    st.integers(0, 40),
    coeffs,
)
# (1 - x)^2, and (1 - x)^2 + 5x^4: the first prefix sum's top entry is
# 5, the second's top two entries are 0 and 5, so one check must cover
# both
@example([1, -2, 1], 1, 2, 0, 0, 0)
@example([1, -2, 1, 0, 5], 1, 2, 0, 0, 0)
@settings(max_examples=200, deadline=None)
def test_power_peel_matches_chained_peels(
    values, k, power, times, place, bump
):
    # ``values`` times (1 - x^k)^times, so the power peel is drawn both
    # exact and one or more binomials short, plus a bump at a place
    # counted from the top: near the top, only the later chained peels
    # see it
    for _ in range(times):
        values = _times_binomial(values, k, -1)
    values[-1 - place % len(values)] += bump
    chained = values
    for _ in range(power):
        chained = laurent._peel(chained, k, 1)
        if chained is None:
            break
    assert laurent._peel(values, k, power) == chained


# binomial powers (1 +- x^step)^e as (step, sign, e)
binomial_powers = st.lists(
    st.tuples(st.integers(1, 4), st.sampled_from([-1, 1]), st.integers(1, 10)),
    max_size=4,
)


def _binomial_products(binomials, n, k, cofactor=(1,)):
    # the coefficient lists of the binomial powers, alone and times
    # e(P^(n-1)) in x^k, each times the cofactor, by plain list products
    projective = [int(t % k == 0) for t in range(k * (n - 1) + 1)]
    for coeffs in ([1], projective):
        for step, sign, e in binomials:
            for _ in range(e):
                coeffs = _times_binomial(coeffs, step, sign)
        product_ = [0] * (len(coeffs) + len(cofactor) - 1)
        for s, c in enumerate(coeffs):
            for t, d in enumerate(cofactor):
                product_[s + t] += c * d
        yield product_


@given(binomial_powers, st.integers(1, 7), st.integers(1, 2))
@example([], 7, 1)
@example([(1, 1, 1), (3, -1, 2)], 1, 1)
@example([(1, 1, 1), (3, -1, 2)], 3, 1)
@settings(max_examples=150, deadline=None)
def test_binomial_split_multiplies_in_at_most_deg_d(binomials, n, k):
    # the line route pads each line by deg D alone; that holds a line
    # times the factors 1 - x^k multiplied in only because their degree
    # stays within deg D.  Every product of binomials (1 +- x^k)^e, alone
    # and times e(P^(n-1)) in x^k, splits
    for coeffs in _binomial_products(binomials, n, k):
        split = laurent._binomial_factors(coeffs)
        assert split is not None
        assert sum(-step * e for step, e in split if e < 0) <= len(coeffs) - 1


@given(
    binomial_powers,
    st.integers(1, 7),
    st.integers(1, 2),
    st.lists(coeffs.filter(bool), max_size=2).map(lambda tail: [1, *tail]),
)
@example([(1, 1, 1), (3, -1, 2)], 1, 1, [1])
@example([], 1, 1, [1, 1, 2])
@example([(1, -1, 1)], 3, 1, [1, 1, 1])
@settings(max_examples=150, deadline=None)
def test_binomial_split_exponents_reproduce_the_divisor(
    binomials, n, k, cofactor
):
    # prod_(e > 0) (1 - x^k)^e == D * prod_(e < 0) (1 - x^k)^(-e), both
    # sides built by plain list products; a cofactor that is no product
    # of binomials may leave D without a split
    for coeffs in _binomial_products(binomials, n, k, cofactor):
        split = laurent._binomial_factors(coeffs)
        if split is None:
            assert cofactor != [1]
            continue
        steps = [step for step, _ in split]
        assert steps == sorted(set(steps)) and all(e for _, e in split)
        peeled, multiplied = [1], coeffs
        for step, e in split:
            for _ in range(abs(e)):
                if e > 0:
                    peeled = _times_binomial(peeled, step, -1)
                else:
                    multiplied = _times_binomial(multiplied, step, -1)
        assert peeled == multiplied


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", range(3, 21))
def test_binomial_split_of_projective_space_is_one_multiply_in(n, k):
    # e(P^(n-1)) in x^k = (1 - x^(nk)) / (1 - x^k): one factor 1 - x^k
    # multiplied in and one peel, also for even n, where 1 + x^k divides
    projective = [int(t % k == 0) for t in range(k * (n - 1) + 1)]
    assert laurent._binomial_factors(projective) == [(k, -1), (n * k, 1)]
    assert _times_binomial(projective, k, -1) == _times_binomial([1], n * k, -1)


@pytest.mark.parametrize("g", range(1, 13))
def test_binomial_split_of_a_power_of_one_plus_x(g):
    # (1 + x)^g = (1 - x^2)^g / (1 - x)^g: g factors 1 - x multiplied in,
    # then one peel of (1 - x^2)^g
    coeffs = [1]
    for _ in range(g):
        coeffs = _times_binomial(coeffs, 1, 1)
    assert laurent._binomial_factors(coeffs) == [(1, -g), (2, g)]


# m = u^k, v^k, (uv)^k with k <= 7, or u^2 v^3
walk_steps = st.one_of(
    st.integers(1, 7).flatmap(
        lambda k: st.sampled_from([(k, 0), (0, k), (k, k)])
    ),
    st.just((2, 3)),
)


@st.composite
def two_term_divisors(draw):
    """+-u^a v^b (+-1 +- m) for a step m of ``walk_steps``."""
    a, b = draw(exponents), draw(exponents)
    i, j = draw(walk_steps)
    signs = st.sampled_from([1, -1])
    return LaurentPoly({(a, b): draw(signs), (a + i, b + j): draw(signs)})


@given(polys, two_term_divisors())
@settings(max_examples=100, deadline=None)
def test_walk_divides_every_multiple(p, den):
    num = LaurentPoly(oracles.pmul(p.terms, den.terms))
    assert divide_exact(num, den) == p


@given(polys, two_term_divisors(), bumps)
@settings(max_examples=100, deadline=None)
def test_walk_leaves_non_multiples_to_the_old_routes(p, den, bump):
    num = LaurentPoly(oracles.pmul(p.terms, den.terms)) + bump
    assert laurent._divide_walk(num.terms, den.terms) is None
    with pytest.raises(NonDivisible) as walked:
        divide_exact(num, den)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(laurent, "_divide_walk", lambda *args: None)
        with pytest.raises(NonDivisible) as unwalked:
            divide_exact(num, den)
    assert str(walked.value) == str(unwalked.value)
    assert walked.value.remainder == unwalked.value.remainder


@st.composite
def any_two_terms(draw):
    """c0*u^a v^b + c1*u^c v^d, units or not, comparable monomials or
    not."""
    keys = st.tuples(exponents, exponents)
    (k0, k1) = draw(st.lists(keys, min_size=2, max_size=2, unique=True))
    nonzero = st.integers(-3, 3).filter(bool)
    return LaurentPoly({k0: draw(nonzero), k1: draw(nonzero)})


@given(polys, any_two_terms(), st.one_of(st.just(ZERO), bumps))
@settings(max_examples=100, deadline=None)
def test_two_term_divisors_skip_the_line_route(p, den, bump):
    # a two-term divisor splits into binomials 1 +- m^k only when both of
    # its terms are units, and the walk takes that case; the line route
    # has nothing to add, so divide_exact never tries it
    seen = []
    lines = laurent._divide_lines

    def spy(terms, dterms, da, db):
        seen.append(dterms)
        return lines(terms, dterms, da, db)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(laurent, "_divide_lines", spy)
        try:
            quotient = divide_exact(p * den + bump, den)
        except NonDivisible:
            quotient = None
    assert seen == []
    if bump.is_zero():
        assert quotient == p


def test_walk_skips_the_gap_between_far_terms():
    # a line of (uv)^N with terms at t = 0 and t = 2 costs three steps
    assert divide_exact(ONE - UV ** (2 * _N), ONE - UV**_N) == ONE + UV**_N
    assert divide_exact(ONE + UV ** (3 * _N), ONE + UV**_N) == (
        ONE - UV**_N + UV ** (2 * _N)
    )


@given(polys)
@settings(max_examples=40, deadline=None)
def test_halve_exact_roundtrip(p):
    assert halve_exact(p + p) == p


def test_halve_exact_rejects_odd():
    with pytest.raises(ValueError):
        halve_exact(ONE + LaurentPoly.monomial(1, 0, 2))


def test_halve_exact_message_ignores_term_insertion_order():
    terms = [((2, 0), 3), ((0, 0), 2), ((0, 1), 5), ((1, 1), 7)]
    messages = set()
    for order in (terms, terms[::-1]):
        with pytest.raises(ValueError) as info:
            halve_exact(LaurentPoly(dict(order)))
        messages.add(str(info.value))
    assert messages == {"odd coefficient 5 at (0, 1)"}


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


def test_bool_coefficients_become_ints():
    p = LaurentPoly({(0, 0): True, (1, 0): False, (0, 1): True})
    assert p.to_json() == '[[0, 0, "1"], [0, 1, "1"]]'
    assert LaurentPoly.from_json(p.to_json()) == p == ONE + V
    assert all(type(c) is int for c in p.terms.values())


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


def test_fraction_hash_consistent_with_eq():
    # equal fractions that do not collapse to polynomials hash alike
    a = FractionUV(ONE, ONE - UV)
    b = FractionUV(ONE + UV, ONE - UV**2)
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    # equal fractions that collapse hash as their polynomial
    c = FractionUV(ONE - UV**2, ONE - UV)
    assert hash(c) == hash(FractionUV(ONE + UV)) == hash(ONE + UV)


def test_fraction_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        FractionUV(ONE, ZERO)


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


# binomials 1 +- m^k for m among u, v, uv, u^2 v and k <= 4, and opaque
# factors that split into no such binomials
_BINOMIALS = [
    {(0, 0): 1, (i * k, j * k): sign}
    for i, j in ((1, 0), (0, 1), (1, 1), (2, 1))
    for k in range(1, 5)
    for sign in (1, -1)
]
_OPAQUE = [{(0, 0): 2}, {(0, 0): 1, (1, 0): 1, (0, 1): 1}, {(0, 0): 1, (1, 1): 2}]


@st.composite
def factored_fractions(draw):
    """(num, den, quotient) dicts: den is a monomial times binomials and
    an optional opaque factor; quotient is num / den, or None when a
    stray monomial added to a multiple of den leaves a remainder.

    A nonzero polynomial that den divides spans at least den's exponent
    box, so one stray term is never divisible by a den of two terms or
    more.
    """
    den = {(draw(exponents), draw(exponents)): draw(st.sampled_from([1, -1]))}
    for factor in draw(st.lists(st.sampled_from(_BINOMIALS), max_size=3)):
        den = oracles.pmul(den, factor)
    opaque = draw(st.sampled_from([None, *_OPAQUE]))
    if opaque:
        den = oracles.pmul(den, opaque)
    quotient = LaurentPoly(draw(term_maps)).terms
    num = oracles.pmul(quotient, den)
    if len(den) > 1 and draw(st.booleans()):
        stray = {(draw(exponents), draw(exponents)): draw(coeffs) or 1}
        num, quotient = oracles.padd(num, stray), None
    return num, den, quotient


def _equals(f, num, den):
    # f == num / den by cross-multiplication on plain dicts
    return oracles.pmul(f.num.terms, den) == oracles.pmul(num, f.den.terms)


@given(factored_fractions(), factored_fractions(), st.sampled_from(_BINOMIALS))
@settings(max_examples=150, deadline=None)
def test_fraction_matches_dict_cross_multiplication(x, y, extra):
    (n1, d1, q1), (n2, d2, _) = x, y
    f1 = FractionUV(LaurentPoly(n1), LaurentPoly(d1))
    f2 = FractionUV(LaurentPoly(n2), LaurentPoly(d2))
    assert _equals(f1, n1, d1)
    pmul = oracles.pmul
    assert (f1 == f2) == (pmul(n1, d2) == pmul(n2, d1))
    widened = FractionUV(LaurentPoly(pmul(n1, extra)), LaurentPoly(pmul(d1, extra)))
    assert f1 == widened and widened == f1
    if q1 is None:
        with pytest.raises(NonDivisible):
            f1.as_polynomial()
    else:
        assert f1.as_polynomial().terms == q1

