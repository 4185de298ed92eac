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
``a*W + b``, with ``W`` the product's v-span, and every slot is a whole
number of bytes, wide enough for max|c_p| * max|c_q| * min(len p, len q)
plus a sign bit.  CPython's Karatsuba bigint product then does the
convolution, and one ``to_bytes`` call reads the slots back.  Two rules
keep the term-pair dict loop where it is faster, both measured with
``perfbench``: products of fewer than 256 term pairs, and products whose
exponent box has more slots than there are term pairs (sparse operands
such as a product of factors ``1 - (uv)^k``).  On 2 cores with Python
3.11, ``verify all --grid full`` took 23% longer without the first rule,
8% longer without the second, and 64% longer without either.

``FractionUV`` is a lazily normalized quotient of two ``LaurentPoly``
values.  It exists to carry intermediate rational expressions such as
``1/((1-uv)^2 (1-(uv)^2))``; equality is always decided by
cross-multiplication, and conversion to an honest polynomial goes through
exact long division which fails loudly (``NonDivisible``) instead of
rounding.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd
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
                    clean[(int(a), int(b))] = c
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
        if k < 0:
            # only unit monomials are invertible in the Laurent ring
            if len(self._terms) != 1:
                raise ValueError("negative exponent needs a monomial base")
            ((a, b), c) = next(iter(self._terms.items()))
            if c not in (1, -1):
                raise ValueError("negative exponent needs a unit coefficient")
            coeff = 1 if (c == 1 or k % 2 == 0) else -1
            return _raw({(a * k, b * k): coeff})
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
            self._hash = hash(frozenset(self._terms.items()))
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


def _pack(terms, width: int, size: int) -> tuple[int, int, int]:
    # u^a v^b -> slot (a - a0) * width + (b - b0) of ``size`` bytes, with
    # (a0, b0) the operand's minimum exponents; positive and negative
    # coefficients fill separate buffers, so packing stays linear
    us, vs = zip(*terms)
    a0, b0 = min(us), min(vs)
    pos = bytearray((max(us) - a0 + 1) * width * size)
    neg = bytearray(len(pos))
    for (a, b), c in terms.items():
        i = ((a - a0) * width + b - b0) * size
        if c > 0:
            pos[i : i + size] = c.to_bytes(size, "little")
        else:
            neg[i : i + size] = (-c).to_bytes(size, "little")
    packed = int.from_bytes(pos, "little") - int.from_bytes(neg, "little")
    return packed, a0, b0


def _mul_kronecker(p, q, width: int, height: int):
    """Product by Kronecker substitution: one bigint product of packings.

    ``width`` and ``height`` are the product's v- and u-spans.  Each
    operand becomes one integer whose slot a*width + b holds the
    coefficient of u^a v^b, so v-exponents never carry into the next
    row.  A slot holds max|c_p| * max|c_q| * min(len p, len q), which
    bounds every product coefficient, plus a sign bit.  Adding half a
    slot to every slot makes each one nonnegative, so one ``to_bytes``
    reads the whole product back, slot by slot.
    """
    bound = (
        max(map(abs, p.values()))
        * max(map(abs, q.values()))
        * min(len(p), len(q))
    )
    size = bound.bit_length() // 8 + 1
    slots = height * width
    half_slot = bytes(size - 1) + b"\x80"
    half = 1 << (8 * size - 1)
    pp, pa0, pb0 = _pack(p, width, size)
    qq, qa0, qb0 = _pack(q, width, size)
    product = pp * qq + int.from_bytes(half_slot * slots, "little")
    blob = product.to_bytes(slots * size, "little")
    out: dict[tuple[int, int], int] = {}
    i = 0
    for a in range(pa0 + qa0, pa0 + qa0 + height):
        for b in range(pb0 + qb0, pb0 + qb0 + width):
            chunk = blob[i : i + size]
            if chunk != half_slot:
                out[(a, b)] = int.from_bytes(chunk, "little") - half
            i += size
    return out


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

    Both arguments may be Laurent: monomial content is cleared first (the
    minimum exponent of a product is additive in each variable, so exact
    Laurent divisibility reduces to honest-polynomial divisibility).  The
    honest parts then go through multivariate long division under the
    project monomial order.  Leading terms come off a min-heap keyed by
    ``(-(a + b), -b)``, so each step takes the graded-lex largest term
    without scanning the rest.  A term whose monomial the divisor's lead
    does not divide, or whose coefficient its lead coefficient does not
    divide over the integers, moves to the remainder; once every term is
    used up, a nonzero remainder raises ``NonDivisible`` carrying
    ``num - q*den`` for the quotient ``q`` built up to that point.
    """
    if den.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if num.is_zero():
        return ZERO

    na, nb = num.min_exponents()
    da, db = den.min_exponents()
    shift = (na - da, nb - db)
    work = {(a - na, b - nb): c for (a, b), c in num.terms.items()}
    dterms = {(a - da, b - db): c for (a, b), c in den.terms.items()}

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
    """Quotient of two Laurent polynomials with exact arithmetic.

    Normalization is lazy: arithmetic just cross-multiplies, and
    :meth:`normalize` removes the joint monomial and integer content and
    collapses the denominator to 1 when exact division succeeds.  No full
    multivariate gcd is ever computed.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = _as_poly(num)
        den = ONE if den is None else _as_poly(den)
        if den.is_zero():
            raise ZeroDivisionError("fraction with zero denominator")
        self.num = num
        self.den = den

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __add__(self, other):
        other = _coerce_fraction(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den == other.den:
            return FractionUV(self.num + other.num, self.den)
        return FractionUV(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self):
        return FractionUV(-self.num, self.den)

    def __mul__(self, other):
        other = _coerce_fraction(other)
        if other is NotImplemented:
            return NotImplemented
        if self.num.is_zero() or other.num.is_zero():
            return FractionUV(ZERO)
        return FractionUV(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = _coerce_fraction(other)
        if other is NotImplemented:
            return NotImplemented
        # cross-multiplication; never normalizes, never rounds
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        n = self.normalize()
        return hash((n.num, n.den))

    def normalize(self) -> "FractionUV":
        """Content-reduced, sign-fixed and (when possible) polynomial form."""
        if self.num.is_zero():
            return FractionUV(ZERO)
        num, den = self.num, self.den
        na, nb = num.min_exponents()
        da, db = den.min_exponents()
        sa, sb = min(na, da), min(nb, db)
        if sa or sb:
            shift = LaurentPoly.monomial(-sa, -sb)
            num = num * shift
            den = den * shift
        cg = gcd(num.content(), den.content())
        if cg > 1:
            num = _raw({k: c // cg for k, c in num.terms.items()})
            den = _raw({k: c // cg for k, c in den.terms.items()})
        if den.leading_term()[1] < 0:
            num, den = -num, -den
        try:
            return FractionUV(divide_exact(num, den), ONE)
        except NonDivisible:
            return FractionUV(num, den)

    def as_polynomial(self) -> LaurentPoly:
        """Collapse to a LaurentPoly, raising ``NonDivisible`` on failure."""
        return divide_exact(self.num, self.den)

    def __str__(self):
        if self.den == ONE:
            return self.num.to_text()
        return f"({self.num.to_text()}) / ({self.den.to_text()})"

    def __repr__(self):
        return f"FractionUV({self})"


def _coerce_fraction(value):
    if isinstance(value, FractionUV):
        return value
    if isinstance(value, (LaurentPoly, int)):
        return FractionUV(value)
    return NotImplemented
