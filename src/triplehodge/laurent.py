"""Exact bivariate Laurent polynomials in (u, v) and fractions thereof.

``LaurentPoly`` is the universal value type of the package: a finite map
from exponent pairs ``(a, b)`` (the monomial ``u^a v^b``, exponents may be
negative) to nonzero Python integers.  All arithmetic is exact; there is
no floating point anywhere.

The monomial order is fixed project-wide to graded lexicographic with
``u < v``: monomials compare by total degree ``a + b`` first, then by the
exponent of ``v``.  Division and printing are deterministic under this
order.  The canonical serialization order lists terms by total degree
ascending, then by the ``v``-exponent ascending, e.g.::

    1 + 2*u + 2*v + 5*u*v

Products are formed by Kronecker substitution (D. Harvey, J. Symbolic
Comput. 44, 2009).  Each operand is shifted to its minimum exponents and
packed into one integer: the coefficient of ``u^a v^b`` fills the slot
``a*W + b``, with ``W`` the product's v-span.  Slots are word-sized (1,
2, 4 or 8 bytes, or a run of 8-byte words), wide enough for
max|c_p| * max|c_q| * min(len p, len q) plus a sign bit, so a buffer
is written and read by one typed ``memoryview`` cast, with no loop per
slot or per term.  CPython's Karatsuba bigint product then does the
convolution.  Two rules keep the term-pair dict loop where it is faster,
both measured with ``perfbench``: products of fewer than 256 term pairs,
and products whose exponent box has more slots than there are term
pairs (sparse operands such as a product of factors ``1 - (uv)^k``).

A product by binomials, ``poly`` times prod(1 +- m)^k with each m a
monomial u^i v^j, takes one packing (``_times_binomials``): ``poly``
fills the product's box in slots that hold max|c| * 2^K plus a sign
bit, K the total multiplicity, and each factor 1 +- m is one shift-add
of the packed integer by i*W + j slots.  The closed forms multiply by
e(Jac) = (1 + u)^g (1 + v)^g, by its square and by their other
binomial powers this way.  ``FractionUV`` lifts, which are small, and
the cross-check routes (the strata of an even wall, the rank-2 flip
loci, the structural odd jump) keep ``*``, so the checks stay
independent of the kernel.

Exact division (``divide_exact``) takes a line route when the divisor
is D(m), a polynomial in one monomial m = u^i v^j, and D is +-1 times a
product of binomials 1 +- m^k, as every divisor on the M(3) and
N_sigma(3, 1) routes is: each binomial is divided out of the
numerator's lines along m by prefix sums.  The route is skipped for
sparse inputs whose padded lines would need more than len(num) * len(den)
slots.  Any other divisor, and any division that leaves a remainder,
goes through heap-ordered multivariate long division, which also
builds the ``NonDivisible`` remainder.

``FractionUV`` carries intermediate rational expressions such as
``1/((1-uv)^2 (1-(uv)^2))``.  Every denominator on a production route is
a product of binomials 1 +- m^k, so it is kept as a multiset of them:
products add multiplicities, and sums and equality lift both numerators
to the common multiple, multiplying each only by the factors it lacks.
Conversion to an honest polynomial is one exact division by the product,
which fails loudly (``NonDivisible``) instead of rounding.

Measured timings of these routes are in the README and in the
``BENCH_*.json`` files at the root of the repository.
"""

from __future__ import annotations

import json
import re
import sys
from collections import Counter, deque
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import accumulate, compress, count, product, repeat
from math import comb, gcd
from operator import add, and_, lshift, mul, neg, rshift, sub
from typing import Iterable, Mapping

from .errors import NonDivisible

__all__ = [
    "LaurentPoly",
    "FractionUV",
    "divide_exact",
    "ZERO",
    "ONE",
    "U",
    "V",
    "UV",
    "U2V",
    "UV2",
]


def _order_key(exponents):
    # graded lex with u < v: total degree first, v-exponent breaks ties;
    # the same key orders division leads and canonical output
    a, b = exponents
    return (a + b, b)


class LaurentPoly:
    """Immutable bivariate Laurent polynomial with integer coefficients.

    The term map never stores a zero coefficient and the zero polynomial
    is the empty map.  Instances are hashable and safe to share.
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[tuple[int, int], int] | None = None):
        clean: dict[tuple[int, int], int] = {}
        if terms:
            for (a, b), c in terms.items():
                if not isinstance(c, int):
                    raise TypeError(f"coefficient {c!r} is not an integer")
                if c:
                    clean[(int(a), int(b))] = int(c)
        self._terms = clean
        self._hash = None

    # -- constructors ------------------------------------------------

    @classmethod
    def monomial(cls, a: int, b: int, coeff: int = 1) -> "LaurentPoly":
        """The single term ``coeff * u^a v^b``."""
        return cls({(a, b): coeff})

    @classmethod
    def constant(cls, c: int) -> "LaurentPoly":
        return cls({(0, 0): c})

    # -- basic queries -----------------------------------------------

    @property
    def terms(self) -> dict[tuple[int, int], int]:
        """A copy of the term map."""
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def coefficient(self, a: int, b: int) -> int:
        return self._terms.get((a, b), 0)

    def total_degree(self) -> int:
        """Maximum of a + b over the support (0 for the zero polynomial)."""
        if not self._terms:
            return 0
        return max(a + b for a, b in self._terms)

    def min_exponents(self) -> tuple[int, int]:
        """Componentwise minimum of the support; (0, 0) for zero."""
        if not self._terms:
            return (0, 0)
        return (
            min(a for a, _ in self._terms),
            min(b for _, b in self._terms),
        )

    def is_polynomial(self) -> bool:
        """True when no exponent is negative."""
        return all(a >= 0 and b >= 0 for a, b in self._terms)

    def leading_term(self) -> tuple[tuple[int, int], int]:
        """Leading (monomial, coefficient) under the division order."""
        if not self._terms:
            raise ValueError("zero polynomial has no leading term")
        key = max(self._terms, key=_order_key)
        return key, self._terms[key]

    def content(self) -> int:
        """gcd of all coefficients (0 for the zero polynomial)."""
        g = 0
        for c in self._terms.values():
            g = gcd(g, c)
            if g == 1:
                break
        return g

    # -- ring operations ---------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._terms)
        for k, c in other._terms.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return _raw(out)

    __radd__ = __add__

    def __neg__(self):
        return _raw({k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self._terms or not other._terms:
            return ZERO
        p, q = self._terms, other._terms
        # Kronecker packing pays only for enough term pairs that fill
        # the product's exponent box; otherwise packing and unpacking
        # cost more than the term-pair loop saves (see the module doc)
        pairs = len(p) * len(q)
        if pairs >= 256:
            pa, pb = zip(*p)
            qa, qb = zip(*q)
            width = max(pb) - min(pb) + max(qb) - min(qb) + 1
            height = max(pa) - min(pa) + max(qa) - min(qa) + 1
            if height * width <= pairs:
                return _raw(_mul_kronecker(p, q, width, height))
        # iterate over the smaller support in the outer loop
        if len(p) > len(q):
            p, q = q, p
        out: dict[tuple[int, int], int] = {}
        for (a1, b1), c1 in p.items():
            for (a2, b2), c2 in q.items():
                k = (a1 + a2, b1 + b2)
                s = out.get(k, 0) + c1 * c2
                if s:
                    out[k] = s
                else:
                    del out[k]
        return _raw(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise ValueError("exponent must be an integer")
        terms = self._terms
        if k < 0 and len(terms) != 1:
            # only unit monomials are invertible in the Laurent ring
            raise ValueError("negative exponent needs a monomial base")
        if len(terms) == 1:
            ((a, b), c), = terms.items()
            if k < 0 and c not in (1, -1):
                raise ValueError("negative exponent needs a unit coefficient")
            return _raw({(a * k, b * k): c ** abs(k)})
        if len(terms) == 2:
            # the binomial theorem; distinct i give distinct monomials
            ((a0, b0), c0), ((a1, b1), c1) = terms.items()
            out = {}
            for i in range(k + 1):
                out[(a0 * (k - i) + a1 * i, b0 * (k - i) + b1 * i)] = (
                    comb(k, i) * c0 ** (k - i) * c1**i
                )
            return _raw(out)
        result = ONE
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        if self._hash is None:
            terms = self._terms
            # a constant equals its int (ONE == 1), so it hashes as one
            if terms.keys() <= {(0, 0)}:
                self._hash = hash(terms.get((0, 0), 0))
            else:
                self._hash = hash(frozenset(terms.items()))
        return self._hash

    # -- substitutions -----------------------------------------------

    def diagonal(self) -> "LaurentPoly":
        """Substitute u -> t, v -> t; the result lives in the u-slot.

        For a smooth projective Hodge polynomial this is the Poincare
        polynomial, with the coefficient of ``u^k`` the k-th Betti number.
        """
        out: dict[tuple[int, int], int] = {}
        for (a, b), c in self._terms.items():
            k = (a + b, 0)
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            else:
                del out[k]
        return _raw(out)

    def square_negate(self) -> "LaurentPoly":
        """Substitute u -> -u^2, v -> -v^2."""
        out = {}
        for (a, b), c in self._terms.items():
            out[(2 * a, 2 * b)] = c if (a + b) % 2 == 0 else -c
        return _raw(out)

    def invert_variables(self) -> "LaurentPoly":
        """Substitute u -> 1/u, v -> 1/v (negate every exponent)."""
        return _raw({(-a, -b): c for (a, b), c in self._terms.items()})

    def evaluate(self, u0, v0) -> Fraction:
        """Exact value at rational arguments.

        Raises ZeroDivisionError when a negative exponent meets a zero
        argument.
        """
        u0 = Fraction(u0)
        v0 = Fraction(v0)
        total = Fraction(0)
        for (a, b), c in self._terms.items():
            total += c * u0**a * v0**b
        return total

    def as_univariate(self) -> dict[int, int]:
        """Coefficient map of a polynomial supported on the u-slot only."""
        out = {}
        for (a, b), c in self._terms.items():
            if b != 0:
                raise ValueError("polynomial is not univariate in u")
            out[a] = c
        return out

    # -- serialization -----------------------------------------------

    def sorted_terms(self) -> list[tuple[int, int, int]]:
        """Terms as (a, b, coeff) in the canonical serialization order."""
        return [
            (a, b, self._terms[(a, b)])
            for a, b in sorted(self._terms, key=_order_key)
        ]

    def to_text(self, var1: str = "u", var2: str = "v") -> str:
        """Render in the canonical textual format, e.g. ``1 + 2*u + u^2``."""
        return self._render(var1, var2, "{}^{}", "*")

    def to_latex(self, var1: str = "u", var2: str = "v") -> str:
        return self._render(var1, var2, "{}^{{{}}}", " ")

    def _render(self, var1: str, var2: str, power: str, sep: str) -> str:
        # power formats (variable, exponent); sep joins the factors
        if not self._terms:
            return "0"
        pieces = []
        for a, b, c in self.sorted_terms():
            factors = [
                var if e == 1 else power.format(var, e)
                for var, e in ((var1, a), (var2, b))
                if e != 0
            ]
            if abs(c) != 1 or not factors:
                factors.insert(0, str(abs(c)))
            body = sep.join(factors)
            if pieces:
                body = ("+ " if c > 0 else "- ") + body
            elif c < 0:
                body = "-" + body
            pieces.append(body)
        return " ".join(pieces)

    def to_triples(self) -> list[list]:
        """JSON-ready ``[a, b, "coeff"]`` triples, coefficient as a string.

        The decimal-string coefficient keeps arbitrary-precision integers
        intact through JSON round trips.
        """
        return [[a, b, str(c)] for a, b, c in self.sorted_terms()]

    def to_json(self) -> str:
        return json.dumps(self.to_triples())

    @classmethod
    def from_triples(cls, triples: Iterable) -> "LaurentPoly":
        terms: dict[tuple[int, int], int] = {}
        for entry in triples:
            a, b, c = entry
            key = (int(a), int(b))
            if key in terms:
                raise ValueError(f"duplicate monomial {key} in triples")
            terms[key] = int(c)
        return cls(terms)

    @classmethod
    def from_json(cls, text: str) -> "LaurentPoly":
        return cls.from_triples(json.loads(text))

    @classmethod
    def parse(cls, text: str, var1: str = "u", var2: str = "v") -> "LaurentPoly":
        """Parse the textual format produced by :meth:`to_text`.

        Accepts optional ``*`` between factors, ``^`` exponents (possibly
        negative) and leading signs: ``1 + 2*u + 2*v + 5*u*v``,
        ``u^-2*v - 3``.
        """
        stripped = text.strip()
        if stripped in ("0", "-0", "+0"):
            return ZERO
        term_re = re.compile(
            r"""(?P<sign>[+-]?)\s*
                (?P<coef>\d+)?\s*
                (?:\*?\s*(?P<v1>%s)(?:\^(?P<e1>-?\d+))?)?\s*
                (?:\*?\s*(?P<v2>%s)(?:\^(?P<e2>-?\d+))?)?\s*
            """
            % (re.escape(var1), re.escape(var2)),
            re.VERBOSE,
        )
        terms: dict[tuple[int, int], int] = {}
        pos = 0
        first = True
        while pos < len(stripped):
            m = term_re.match(stripped, pos)
            if not m or m.end() == pos:
                raise ValueError(f"cannot parse polynomial at: {stripped[pos:]!r}")
            sign, coef, v1, e1, v2, e2 = m.group(
                "sign", "coef", "v1", "e1", "v2", "e2"
            )
            if coef is None and v1 is None and v2 is None:
                raise ValueError(f"empty term at: {stripped[pos:]!r}")
            if not first and not sign:
                raise ValueError(f"missing +/- before: {stripped[pos:]!r}")
            c = int(coef) if coef is not None else 1
            if sign == "-":
                c = -c
            a = (int(e1) if e1 is not None else 1) if v1 else 0
            b = (int(e2) if e2 is not None else 1) if v2 else 0
            key = (a, b)
            terms[key] = terms.get(key, 0) + c
            pos = m.end()
            first = False
        return cls(terms)

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        return f"LaurentPoly({self.to_text()})"


def _raw(terms: dict[tuple[int, int], int]) -> LaurentPoly:
    # trusted constructor: terms already clean (no zeros, int coefficients)
    p = LaurentPoly.__new__(LaurentPoly)
    p._terms = terms
    p._hash = None
    return p


def _slot_bytes(bound: int) -> int:
    """Bytes per Kronecker slot that hold every |c| <= bound and a sign bit.

    The width is rounded up to 1, 2, 4 or 8 bytes, or to a multiple of 8,
    so that a memoryview cast reads and writes the slots as whole words.
    """
    size = bound.bit_length() // 8 + 1
    if size > 8:
        return -(-size // 8) * 8
    return 1 << (size - 1).bit_length()


_WORD = (1 << 64) - 1


def _words(buffer, size: int):
    # ``buffer`` as native words, least significant first, read signed and
    # unsigned: one word per slot up to 8 bytes, else ``size // 8`` words
    # of 8 bytes, of which only the top one carries the slot's sign
    code = min(size, 8).bit_length() - 1
    view = memoryview(buffer)
    signed, unsigned = view.cast("bhiq"[code]), view.cast("BHIQ"[code])
    if sys.byteorder == "big":
        return signed[::-1], unsigned[::-1]
    return signed, unsigned


def _half_fill(size: int, slots: int) -> int:
    # half a slot, 1 << (8*size - 1), in each of ``slots`` slots
    half = (1 << (8 * size - 1)).to_bytes(size, sys.byteorder)
    return int.from_bytes(half * slots, sys.byteorder)


def _pack(terms, width: int, size: int) -> tuple[int, int, int]:
    # u^a v^b -> slot (a - a0) * width + (b - b0) of ``size`` bytes, with
    # (a0, b0) the operand's minimum exponents.  Each coefficient is
    # written in two's complement into its own slot; flipping every
    # slot's top bit then turns c into c + half, so subtracting the
    # half-fill leaves the signed packing without borrows between slots
    us, vs = zip(*terms)
    a0, b0 = min(us), min(vs)
    slots = (max(us) - a0 + 1) * width
    buffer = bytearray(slots * size)
    signed, unsigned = _words(buffer, size)
    span = len(signed) // slots
    index = list(
        map(sub, map(add, map(mul, us, repeat(width)), vs), repeat(a0 * width + b0))
    )
    coeffs = terms.values()
    top = span - 1
    shifted = map(rshift, coeffs, repeat(64 * top))
    deque(map(signed[top::span].__setitem__, index, shifted), 0)
    for t in range(top):
        low = map(and_, map(rshift, coeffs, repeat(64 * t)), repeat(_WORD))
        deque(map(unsigned[t::span].__setitem__, index, low), 0)
    fill = _half_fill(size, slots)
    return (int.from_bytes(buffer, sys.byteorder) ^ fill) - fill, a0, b0


def _mul_kronecker(p, q, width: int, height: int):
    """Product by Kronecker substitution: one bigint product of packings.

    ``width`` and ``height`` are the product's v- and u-spans.  Each
    operand becomes one integer whose slot a*width + b holds the
    coefficient of u^a v^b, so v-exponents never carry into the next
    row.  A slot holds max|c_p| * max|c_q| * min(len p, len q), which
    bounds every product coefficient, plus a sign bit.
    """
    bound = (
        max(map(abs, p.values()))
        * max(map(abs, q.values()))
        * min(len(p), len(q))
    )
    size = _slot_bytes(bound)
    pp, pa0, pb0 = _pack(p, width, size)
    qq, qa0, qb0 = _pack(q, width, size)
    return _unpack(pp * qq, pa0 + qa0, pb0 + qb0, width, height, size)


def _times_binomials(poly: LaurentPoly, binomials) -> LaurentPoly:
    """``poly`` times prod(1 +- m)^k by shift-adds on one packing.

    ``binomials`` maps each 1 +- m, m = u^i v^j != 1 with i, j >= 0, to
    its multiplicity k, like a ``FractionUV`` factor multiset.
    """
    terms = poly._terms
    if not terms:
        return ZERO
    us, vs = zip(*terms)
    height = max(us) - min(us) + 1
    width = max(vs) - min(vs) + 1
    total = 0
    steps = []
    for binomial, k in binomials.items():
        (i, j), sign = max(binomial._terms.items())
        steps.append((i, j, sign, k))
        height += i * k
        width += j * k
        total += k
    size = _slot_bytes(max(map(abs, terms.values())) << total)
    n, a0, b0 = _pack(terms, width, size)
    for i, j, sign, k in steps:
        shift = (i * width + j) * 8 * size
        for _ in range(k):
            n = n + (n << shift) if sign > 0 else n - (n << shift)
    return _raw(_unpack(n, a0, b0, width, height, size))


def _unpack(packed, a0: int, b0: int, width: int, height: int, size: int):
    # the term map of a packing whose slot (a - a0) * width + (b - b0),
    # of ``size`` bytes, holds the signed coefficient of u^a v^b: adding
    # the half-fill makes every slot c + half, which never borrows from
    # the next, and flipping every slot's top bit leaves c in two's
    # complement, so one ``to_bytes`` and a signed cast read the box back
    slots = height * width
    fill = _half_fill(size, slots)
    blob = ((packed + fill) ^ fill).to_bytes(slots * size, sys.byteorder)
    signed, unsigned = _words(blob, size)
    span = len(signed) // slots
    values = signed[span - 1 :: span]
    for t in range(span - 2, -1, -1):
        values = list(map(add, map(lshift, values, repeat(64)), unsigned[t::span]))
    points = product(range(a0, a0 + height), range(b0, b0 + width))
    return dict(zip(compress(points, values), filter(None, values)))


def _coerce(value):
    if isinstance(value, LaurentPoly):
        return value
    if isinstance(value, int):
        return LaurentPoly.constant(value) if value else ZERO
    return NotImplemented


def _as_poly(value) -> LaurentPoly:
    """``value`` as a LaurentPoly; an int becomes a constant."""
    poly = _coerce(value)
    if poly is NotImplemented:
        raise TypeError(f"expected a LaurentPoly or an int, got {value!r}")
    return poly


ZERO = _raw({})
ONE = _raw({(0, 0): 1})
U = LaurentPoly.monomial(1, 0)
V = LaurentPoly.monomial(0, 1)
UV = LaurentPoly.monomial(1, 1)
U2V = LaurentPoly.monomial(2, 1)
UV2 = LaurentPoly.monomial(1, 2)


def divide_exact(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    """Exact quotient num / den, or raise ``NonDivisible``.

    An int argument is read as a constant, as in the ring operators.
    Both arguments may be Laurent: monomial content is cleared first (the
    minimum exponent of a product is additive in each variable, so exact
    Laurent divisibility reduces to honest-polynomial divisibility).

    Line route.  When the shifted divisor is D(m) for one monomial
    m = u^i v^j (a constant term 1 or -1, and every term on the ray
    k*(i, j)), multiplying by D maps each line ``base + t*(i, j)`` to
    itself, so the quotient is found line by line, on the lines laid end
    to end in one list of integers.  D's coefficient list, times its
    constant term, must split into binomials 1 - x^k and 1 + x^k, peeled
    at its lowest nonzero k; each comes out of every line by prefix sums
    over stride-k slices.  The route is taken only when the lines, each
    with deg D slots of padding, fit in ``len(num) * len(den)`` slots, so
    a sparse input such as (1 - (uv)^(2N)) / (1 - (uv)^N) never
    allocates O(N) lists.  Every divisor of ``e_m3``, of the
    N_sigma(3, 1) closed form and of the wall kernel is such a product
    in uv, the t-displays divide by one in u, and the M(3) pipeline
    divides by 1 - (uv)^n, then by (1 + u)^g and by (1 + v)^g.  The
    README gives the measured gain.

    Heap route.  Any other divisor, or a line route that leaves a
    remainder, goes through multivariate long division under the project
    monomial order, on the original inputs.  Leading terms come off a
    min-heap keyed by ``(-(a + b), -b)``, so each step takes the
    graded-lex largest term without scanning the rest.  A term whose
    monomial the divisor's lead does not divide, or whose coefficient its
    lead coefficient does not divide over the integers, moves to the
    remainder; once every term is used up, a nonzero remainder raises
    ``NonDivisible`` carrying ``num - q*den`` for the quotient ``q``
    built up to that point.
    """
    num = _as_poly(num)
    den = _as_poly(den)
    if den.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if num.is_zero():
        return ZERO

    da, db = den.min_exponents()
    dterms = {(a - da, b - db): c for (a, b), c in den._terms.items()}
    lined = _divide_lines(num._terms, dterms, da, db)
    if lined is not None:
        return _raw(lined)

    na, nb = num.min_exponents()
    shift = (na - da, nb - db)
    work = {(a - na, b - nb): c for (a, b), c in num._terms.items()}

    dlead = max(dterms, key=_order_key)
    dla, dlb = dlead
    dlc = dterms.pop(dlead)

    quotient: dict[tuple[int, int], int] = {}
    remainder: dict[tuple[int, int], int] = {}

    # Every key of ``work`` sits in the heap exactly once; a cancelled
    # term stays in ``work`` as 0 and is skipped when popped.  The order
    # is a monomial order, so each subtracted term lies strictly below
    # the current lead and a popped key never re-enters ``work``.
    heap = [(-(a + b), -b) for a, b in work]
    heapify(heap)
    while heap:
        negdeg, negb = heappop(heap)
        lb = -negb
        la = -negdeg - lb
        c = work.pop((la, lb))
        if not c:
            continue
        qa, qb = la - dla, lb - dlb
        if qa < 0 or qb < 0 or c % dlc != 0:
            remainder[(la, lb)] = c
            continue
        qc = c // dlc
        quotient[(qa, qb)] = qc
        for (ta, tb), tc in dterms.items():
            k = (ta + qa, tb + qb)
            if k in work:
                work[k] -= qc * tc
            else:
                work[k] = -qc * tc
                heappush(heap, (-(ta + tb + qa + qb), -(tb + qb)))

    if remainder:
        rem = _raw({(a + na, b + nb): c for (a, b), c in remainder.items()})
        raise NonDivisible(
            f"polynomial division left remainder {rem.to_text()}", remainder=rem
        )
    sa, sb = shift
    return _raw({(a + sa, b + sb): c for (a, b), c in quotient.items()})


def _divide_lines(terms, dterms, da, db):
    """``terms / (u^da v^db * dterms)`` along the lines of one monomial m.

    ``dterms`` has minimum exponents (0, 0).  None means the line route
    does not apply (the divisor is not +-1 times a product of binomials
    1 +- m^k, or the list below would hold more than
    ``len(terms) * len(dterms)`` slots) or the division leaves a
    remainder; the caller then runs the heap route.  Neither map is
    mutated.

    The numerator's lines are laid end to end in one integer list, each
    followed by ``deg D`` slots of padding, so every binomial divides all
    lines in one pass.  Each line divides exactly if and only if the
    whole list does and the quotient is zero on every line's padding: a
    line's quotient times D then stays inside the line and its padding.
    """
    if len(dterms) < 2:
        return None
    split = _ray_binomials(dterms)
    if split is None:
        return None
    i, j, unit, factors = split
    s = i + j
    degree = sum(k for k, _ in factors)

    # u^a v^b lies on line a*j - b*i; as (i, j) is primitive, (a + b) // s
    # numbers the points of every line consecutively
    keys = [a * j - b * i for a, b in terms]
    places = [(a + b) // s for a, b in terms]
    lows: dict[int, int] = {}
    highs: dict[int, int] = {}
    for key, place in zip(keys, places):
        if lows.get(key, place) >= place:
            lows[key] = place
        if highs.get(key, place) <= place:
            highs[key] = place
    # each line is followed by deg D slots of padding
    starts = {}
    size = 0
    for key, low in lows.items():
        starts[key] = size - low
        size += highs[key] - low + 1 + degree
    if size > len(terms) * len(dterms):
        return None
    flat = [0] * size
    for key, place, c in zip(keys, places, terms.values()):
        flat[starts[key] + place] = unit * c

    for k, sign in factors:
        flat = _peel(flat, k, sign)
        if flat is None:
            return None

    inverse = pow(i, -1, s)
    out: dict[tuple[int, int], int] = {}
    for key, low in lows.items():
        start = starts[key] + low
        end = start + highs[key] - low + 1
        if any(flat[end : end + degree]):
            return None
        # the line's first point: a + b = total, a*j - b*i = key
        total = low * s + (-key * inverse) % s
        a = (key + i * total) // s
        line = flat[start:end]
        points = zip(count(a - da, i), count(total - a - db, j))
        out.update(compress(zip(points, line), line))
    return out


def _ray_binomials(dterms):
    """Split ``dterms`` as unit * prod(1 + sign*m^k) for one monomial m.

    ``dterms`` has minimum exponents (0, 0).  Returns
    ``(i, j, unit, [(k, sign), ...])`` with m = u^i v^j, (i, j)
    primitive, and unit the constant term 1 or -1 (a FractionUV
    denominator normalized to a positive lead has constant term -1); a
    lone unit is the empty product, on the ray of u.  None means
    ``dterms`` is no such product.
    """
    unit = dterms.get((0, 0))
    if unit not in (1, -1):
        return None
    if len(dterms) == 1:
        return 1, 0, unit, []
    a, b = max(dterms)
    step = gcd(a, b)
    i, j = a // step, b // step
    s = i + j
    coeffs = [0] * (step + 1)
    for (a, b), c in dterms.items():
        if a * j != b * i:
            return None
        coeffs[(a + b) // s] = unit * c
    factors = _binomial_factors(coeffs)
    return None if factors is None else (i, j, unit, factors)


def _binomial_factors(coeffs):
    """Split a coefficient list into binomials 1 + sign*x^k.

    ``coeffs[0]`` is 1, and each division keeps it.  Returns
    ``[(k, sign), ...]`` whose product is ``coeffs``, or None when
    ``coeffs`` is not such a product.  Each step tries 1 - x^k and
    1 + x^k at the lowest k with a nonzero coefficient.  In a product of
    such binomials that lowest term comes from the factors with the least
    k, or, where those cancel in pairs (1 - x^k)(1 + x^k) = 1 - x^(2k),
    from the binomial they multiply to; either way one of the two trials
    divides, so a product of binomials always splits completely.
    """
    factors = []
    while len(coeffs) > 1:
        k = next(t for t in range(1, len(coeffs)) if coeffs[t])
        for sign in (-1, 1):
            quotient = _peel(coeffs, k, sign)
            if quotient is not None:
                break
        else:
            return None
        factors.append((k, sign))
        coeffs = quotient
    return factors


def _peel(coeffs, k, sign):
    """``coeffs / (1 + sign*x^k)`` as a list, or None on a remainder.

    The quotient q satisfies q[n] = coeffs[n] - sign*q[n - k], so along
    each residue class mod k it is a prefix sum (a sign-alternated one
    for 1 + x^k); the sums past the quotient's degree are the remainder.
    """
    n = len(coeffs)
    if n <= k:
        return None
    out = coeffs[:]
    for r in range(k):
        column = coeffs[r::k]
        if sign < 0:
            out[r::k] = accumulate(column)
        else:
            column[1::2] = map(neg, column[1::2])
            sums = list(accumulate(column))
            sums[1::2] = map(neg, sums[1::2])
            out[r::k] = sums
    if any(out[n - k :]):
        return None
    del out[n - k :]
    return out


def halve_exact(p: LaurentPoly) -> LaurentPoly:
    """Divide every coefficient by 2, raising on any odd coefficient.

    Used by the averaged (1/2) formulas; the error type is chosen by the
    caller, so this raises ``ValueError`` and the zoo wraps it.
    """
    out = {}
    for a, b, c in p.sorted_terms():
        if c % 2 != 0:
            raise ValueError(f"odd coefficient {c} at {(a, b)}")
        out[(a, b)] = c // 2
    return _raw(out)


class FractionUV:
    """Quotient of a Laurent polynomial by a multiset of factors.

    The denominator is kept factored.  Its monomial part and a constant
    term of -1 move into the numerator, since both are units of the
    Laurent ring; the rest is split into binomials 1 +- m^k when it is
    +-1 times a product of them on the ray of one monomial m, and is
    otherwise one opaque factor.  ``den`` is the product of the stored
    factors.  ``*`` adds multiplicities; ``+`` and ``==`` lift both
    numerators to the common multiple that takes each factor's larger
    multiplicity, multiplying each only by the factors it lacks:

    >>> a = FractionUV(ONE, (ONE - UV) ** 2 * (ONE - UV**2))
    >>> b = FractionUV(UV, (ONE - UV) ** 2 * (ONE + UV))
    >>> print(a + b)
    (1 + u*v - u^2*v^2) / (1 - 2*u*v + 2*u^3*v^3 - u^4*v^4)
    >>> (a + b).den == (ONE - UV) ** 2 * (ONE - UV**2)
    True

    :meth:`as_polynomial` divides the numerator by ``den`` exactly, and
    :meth:`normalize` collapses the denominator to 1 when that division
    succeeds.  No full multivariate gcd is ever computed.
    """

    __slots__ = ("num", "_factors")

    def __init__(self, num, den=None):
        num = _as_poly(num)
        factors = Counter()
        if den is not None:
            den = _as_poly(den)
            if den.is_zero():
                raise ZeroDivisionError("fraction with zero denominator")
            da, db = den.min_exponents()
            if da or db:
                num = num * _raw({(-da, -db): 1})
            rest = {(a - da, b - db): c for (a, b), c in den._terms.items()}
            split = _ray_binomials(rest)
            if split is None:
                factors[_raw(rest)] = 1
            else:
                i, j, unit, binomials = split
                if unit < 0:
                    num = -num
                for k, sign in binomials:
                    factors[_raw({(0, 0): 1, (i * k, j * k): sign})] += 1
        self.num = num
        self._factors = factors

    @property
    def den(self) -> LaurentPoly:
        """The product of the stored factors; ONE when there are none."""
        return _lift(ONE, self._factors)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __add__(self, other):
        other = _coerce_fraction(other)
        if other is NotImplemented:
            return NotImplemented
        common = self._factors | other._factors
        num = _lift(self.num, common - self._factors) + _lift(
            other.num, common - other._factors
        )
        return _fraction(num, common)

    __radd__ = __add__

    def __neg__(self):
        return _fraction(-self.num, self._factors)

    def __mul__(self, other):
        other = _coerce_fraction(other)
        if other is NotImplemented:
            return NotImplemented
        if self.num.is_zero() or other.num.is_zero():
            return FractionUV(ZERO)
        return _fraction(self.num * other.num, self._factors + other._factors)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = _coerce_fraction(other)
        if other is NotImplemented:
            return NotImplemented
        # lift to the common multiple; never normalizes, never rounds
        common = self._factors | other._factors
        return _lift(self.num, common - self._factors) == _lift(
            other.num, common - other._factors
        )

    def __hash__(self):
        # normalize computes no gcd, so a fraction that does not collapse
        # has no canonical form to hash; equal fractions either both
        # collapse to the same polynomial or both take the fixed value
        try:
            return hash(self.as_polynomial())
        except NonDivisible:
            return hash(FractionUV)

    def normalize(self) -> "FractionUV":
        """Polynomial form when ``den`` divides exactly; otherwise the
        content-reduced quotient over one factor with a positive lead."""
        if not self._factors:
            return self
        try:
            return FractionUV(self.as_polynomial())
        except NonDivisible:
            pass
        num, den = self.num, self.den
        cg = gcd(num.content(), den.content())
        if den.leading_term()[1] < 0:
            cg = -cg
        num = _raw({k: c // cg for k, c in num._terms.items()})
        den = _raw({k: c // cg for k, c in den._terms.items()})
        return _fraction(num, Counter({den: 1}))

    def as_polynomial(self) -> LaurentPoly:
        """Collapse to a LaurentPoly, raising ``NonDivisible`` on failure."""
        if not self._factors:
            return self.num
        return divide_exact(self.num, self.den)

    def __str__(self):
        if not self._factors:
            return self.num.to_text()
        return f"({self.num.to_text()}) / ({self.den.to_text()})"

    def __repr__(self):
        return f"FractionUV({self})"


def _fraction(num: LaurentPoly, factors: Counter) -> FractionUV:
    # trusted constructor: factors already split, never mutated after
    f = FractionUV.__new__(FractionUV)
    f.num = num
    f._factors = factors
    return f


def _lift(poly: LaurentPoly, factors: Counter) -> LaurentPoly:
    """``poly`` times the product of ``factors`` with multiplicity."""
    if not factors:
        return poly
    scale = ONE
    for factor, times in factors.items():
        scale = scale * factor**times
    return poly * scale


def _coerce_fraction(value):
    if isinstance(value, FractionUV):
        return value
    if isinstance(value, (LaurentPoly, int)):
        return FractionUV(value)
    return NotImplemented
