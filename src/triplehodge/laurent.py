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

A sum of pieces c * u^a v^b * poly * prod(1 +- m)^k, each m a monomial
u^i v^j, takes one packing (``_binomial_sum``; ``_times_binomials`` is
a one-piece call): each poly is packed once into the box of the whole
sum, in slots that hold the sum of the pieces' bounds
|c| * max|poly| * 2^K plus a sign bit, K a piece's total multiplicity;
each factor 1 +- m is one shift-add of the packed integer by i*W + j
slots, and the pieces add as integers before one unpack.  A factor
other than 1 +- u^i v^j with i, j >= 0, or a multiplicity that is no
int >= 0, raises ``ValueError``.  The closed forms are built on it: the
N_sigma(3, 1) numerator K x + (uv)^(g-1) e(Jac) (1 - uv) y, the three
pieces of e(M(3)), the numerators of e(M(2, odd)) and e(M^s(2, even))
over e(Jac), the wall kernel K and every product by e(Jac) = (1 + u)^g
(1 + v)^g or its square.  The closed jump C_n / e(Jac)^2 of ``flips``
keeps ``*``, because it was slower on the kernel at the verify grid's
small walls, and so do the cross-check routes (the strata check of an
even wall, the rank-2 flip loci, the t-displays), so the checks stay
independent of the kernel.

Exact division (``divide_exact``) picks its route by the shape of the
divisor; every divisor on a production route is built from binomials
1 +- m, m = u^i v^j.  Two unit terms, +-u^a v^b (+-1 +- m), take the
walk: along each line of m the quotient follows
q_t = c0*(n_t - c1*q_(t-1)), one step per term of the numerator and of
the quotient.  +-1 times a product of binomials 1 +- m^k on one ray,
such as DEN = (1 - uv)^2 (1 - (uv)^2) of the N_sigma(3, 1) routes, or
such a product over factors 1 - m^k, such as e(P^(n-1)) = (1 - m^n) /
(1 - m), takes the line route: the factors 1 - m^k are multiplied into
the numerator's lines along m and each (1 +- m^k)^e is divided out by e
prefix sums, unless the padded lines would need more than len(num) *
len(den) slots.  Any other divisor takes heap-ordered multivariate long
division.  The walk and the line route give up on a remainder, and the
heap route, run on the original inputs, builds the ``NonDivisible``
remainder.

``FractionUV`` carries intermediate rational expressions such as
``1/((1-uv)^2 (1-(uv)^2))`` as a plain (num, den) pair.  On a production
route the denominator is 1 or the N_sigma(3, 1) routes' DEN, over which
they sum numerators and divide once.  Equality compares numerators
over equal denominators and otherwise cross-multiplies; conversion to
an honest polynomial is one exact division, which fails loudly
(``NonDivisible``) instead of rounding.

Measured timings of these routes are in the README and in the
``BENCH_*.json`` files at the root of the repository.
"""

from __future__ import annotations

import json
import re
import sys
from collections import deque
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import accumulate, compress, count, groupby, product, repeat
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
                for e in (a, b):
                    if not isinstance(e, int):
                        raise TypeError(f"exponent {e!r} is not an integer")
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
        out = dict(self._terms)
        for k, c in other._terms.items():
            s = out.get(k, 0) - c
            if s:
                out[k] = s
            else:
                del out[k]
        return _raw(out)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

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
            raise TypeError(f"exponent {k!r} is not an integer")
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
        """Inverse of :meth:`to_triples`; int coefficients are read too."""
        terms: dict[tuple[int, int], int] = {}
        for entry in triples:
            a, b, c = entry
            if (a, b) in terms:
                raise ValueError(f"duplicate monomial {(a, b)} in triples")
            terms[a, b] = int(c) if isinstance(c, str) else c
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


def _pack(terms, width: int, size: int, axes=None) -> tuple[int, int, int]:
    # u^a v^b -> slot (a - a0) * width + (b - b0) of ``size`` bytes, with
    # (a0, b0) the operand's minimum exponents; ``axes`` is zip(*terms)
    # when the caller has it already.  Each coefficient is
    # written in two's complement into its own slot; flipping every
    # slot's top bit then turns c into c + half, so subtracting the
    # half-fill leaves the signed packing without borrows between slots
    us, vs = axes or zip(*terms)
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


def _binomial_sum(pieces) -> LaurentPoly:
    """The sum of c * u^a v^b * poly * prod(1 +- m)^k over ``pieces``.

    Each piece is ``(c, a, b, poly, binomials)``; ``binomials`` maps each
    factor 1 +- m, m = u^i v^j != 1 with i, j >= 0, to its multiplicity,
    an int >= 0, and any other factor or multiplicity raises
    ``ValueError``.  A poly that pieces share is packed once (see the
    module doc for the slots and the shift-adds).
    """
    live = []
    extents = {}
    bound = 0
    for c, a, b, poly, binomials in pieces:
        steps, di, dj, total = _binomial_steps(binomials)
        terms = poly._terms
        if not (c and terms):
            continue
        key = id(poly)
        if key not in extents:
            us, vs = axes = tuple(zip(*terms))
            extents[key] = (
                min(us), max(us), min(vs), max(vs),
                max(map(abs, terms.values())), axes,
            )
        pa0, pa1, pb0, pb1, top, _ = extents[key]
        box = (a + pa0, b + pb0, a + pa1 + di, b + pb1 + dj)
        if live:
            box = (
                min(box[0], a0), min(box[1], b0), max(box[2], a1), max(box[3], b1)
            )
        a0, b0, a1, b1 = box
        bound += abs(c) * top << total
        live.append((c, a + pa0, b + pb0, poly, steps))
    if not live:
        return ZERO
    width = b1 - b0 + 1
    height = a1 - a0 + 1
    size = _slot_bytes(bound)
    bits = 8 * size
    packed = {}
    whole = 0
    for c, a, b, poly, steps in live:
        key = id(poly)
        if key not in packed:
            packed[key] = _pack(poly._terms, width, size, extents[key][-1])[0]
        n = packed[key]
        if a != a0 or b != b0:
            n <<= ((a - a0) * width + b - b0) * bits
        for i, j, sign, k in steps:
            shift = (i * width + j) * bits
            for _ in range(k):
                n = n + (n << shift) if sign > 0 else n - (n << shift)
        if c != 1:
            n *= c
        whole = whole + n if whole else n
    return _raw(_unpack(whole, a0, b0, width, height, size))


def _binomial_steps(binomials):
    # (i, j, sign, k) for each factor 1 + sign * u^i v^j of multiplicity
    # k, and the u-degree, v-degree and multiplicity they add in all
    steps = []
    di = dj = total = 0
    for factor, k in binomials.items():
        terms = factor._terms if isinstance(factor, LaurentPoly) else {}
        if len(terms) == 2 and terms.get((0, 0)) == 1:
            (i, j), sign = max(terms.items())
            if (
                i >= 0 and j >= 0 and i + j and sign in (1, -1)
                and type(k) is int and k >= 0
            ):
                steps.append((i, j, sign, k))
                di += i * k
                dj += j * k
                total += k
                continue
        raise ValueError(
            f"binomial factor ({factor})^{k!r} is not (1 +- u^i v^j)^k"
            " with i, j >= 0, (i, j) != (0, 0) and an int k >= 0"
        )
    return steps, di, dj, total


def _times_binomials(poly: LaurentPoly, binomials) -> LaurentPoly:
    """``poly`` times prod(1 +- m)^k: the one-piece ``_binomial_sum``."""
    return _binomial_sum(((1, 0, 0, poly, binomials),))


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

    Walk.  A divisor of two unit terms, +-u^a v^b (+-1 +- m), divides
    along the lines of m, one step per term of the numerator and of the
    quotient, so (1 - (uv)^(2N)) / (1 - (uv)^N) takes three steps.  The
    residue forms' differences of monomial poles and 1 - uv are such
    divisors.

    Line route.  When a divisor of three or more terms, shifted, is D(m)
    for one monomial m = u^i v^j (a constant term 1 or -1, and every term
    on the ray k*(i, j)), multiplying by D maps each line
    ``base + t*(i, j)`` to itself, so the quotient is found line by line,
    on the lines laid end to end in one list of integers.  D's
    coefficient list, times its constant term, must split into binomials
    1 - x^k and 1 + x^k, peeled at its lowest nonzero k; a run of e
    equal ones comes out of every line by e prefix sums over stride-k
    slices.  Where neither binomial divides at k and the coefficient
    there is 1, a factor 1 - x^k is multiplied into D and into every
    line instead, up to deg D in all.  Before any trial, e(P^(n-1)) in
    m^k with n >= 3 splits as one peel of 1 - m^(nk) over one factor
    1 - m^k multiplied in.  The route is taken only when the padded
    lines fit in ``len(num) * len(den)`` slots.
    DEN = (1 - uv)^2 (1 - (uv)^2), over which every N_sigma(3, 1) route
    divides once, the denominator of ``e_m3``, its t-display, and the
    pipeline's one division, e(N_0) by e(P^(3g-3)), take it.

    Heap route.  Any other divisor, or a walk or line route that leaves
    a remainder, goes through multivariate long division under the project
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
    if len(dterms) == 2:
        # a two-term D(m) splits into binomials only when both of its
        # terms are units, so the line route could add nothing to the walk
        quotient = _divide_walk(num._terms, den._terms)
    else:
        quotient = _divide_lines(num._terms, dterms, da, db)
    if quotient is not None:
        return _raw(quotient)

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


def _divide_walk(terms, dterms):
    """``terms / dterms`` for a divisor c0*u^a0 v^b0 + c1*u^a1 v^b1 with
    (a0, b0) < (a1, b1), or None when c0 or c1 is no unit or on a
    remainder.  The sorted numerator meets each line of the step
    m = (a1 - a0, b1 - b0) in ascending order; along it the quotient
    follows q_t = c0*(n_t - c1*q_(t-1)), written out while nonzero up to
    the line's next term, and a nonzero q_t past its last term is a
    remainder.  Neither map is mutated."""
    ((a0, b0), c0), ((a1, b1), c1) = sorted(dterms.items())
    if c0 not in (1, -1) or c1 not in (1, -1):
        return None
    i, j, r = a1 - a0, b1 - b0, -c0 * c1
    # no term lies past this bound on a coordinate that m moves
    limit = max(terms)[0] if i else max(b for _, b in terms)
    quotient: dict[tuple[int, int], int] = {}
    for (a, b), c in sorted(terms.items()):
        # q_(t-1) is stored at (a, b) - m - (a0, b0)
        q = c0 * c + r * quotient.get((a - a1, b - b1), 0)
        while q:
            quotient[a - a0, b - b0] = q
            a, b = a + i, b + j
            if (a, b) in terms:
                break
            if (a if i else b) > limit:
                return None
            q *= r
    return quotient


def _divide_lines(terms, dterms, da, db):
    """``terms / (u^da v^db * dterms)`` along the lines of one monomial m.

    ``dterms`` has minimum exponents (0, 0).  None means the line route
    does not apply (``_binomial_factors`` finds no split, or the list
    below would hold more than ``len(terms) * len(dterms)`` slots) or the
    division leaves a remainder; the caller then runs the heap route.
    Neither map is mutated.  The unit +-1 is the divisor's constant
    term: a denominator normalized to a positive lead has constant term
    -1.

    The numerator's lines are laid end to end in one integer list, each
    followed by ``deg D`` slots of padding, so every factor multiplies
    all lines in one pass and every run of equal binomials, such as
    (1 + u)^g, divides them in one.  The factors 1 - m^k multiplied in
    have degree E <= deg D (``_binomial_factors`` keeps that budget), so
    each line times them stays inside the line and its padding, and the
    list is the exact product.  Cancelling them, the list is exactly the
    quotient times D.  Each line divides exactly if and only if the
    whole list does and the quotient is zero on every line's padding: a
    line's quotient times D then stays inside the line and its padding.
    """
    unit = dterms.get((0, 0))
    if len(dterms) < 2 or unit not in (1, -1):
        return None
    # D = unit * prod(1 + sign*m^k), m = u^i v^j with (i, j) primitive,
    # when every term lies on the ray of D's far end and the coefficient
    # list along it splits into binomials
    a, b = max(dterms)
    degree = gcd(a, b)
    i, j = a // degree, b // degree
    s = i + j
    coeffs = [0] * (degree + 1)
    for (a, b), c in dterms.items():
        if a * j != b * i:
            return None
        coeffs[(a + b) // s] = unit * c
    split = _binomial_factors(coeffs)
    if split is None:
        return None
    factors, times = split

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

    for k in times:
        flat = _times_one_minus(flat, k)
    for (k, sign), run in groupby(factors):
        flat = _peel(flat, k, sign, len(list(run)))
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


def _binomial_factors(coeffs):
    """Split a coefficient list, times factors 1 - x^k, into binomials
    1 + sign*x^k.

    ``coeffs[0]`` is 1, and each step keeps it.  Returns ``(factors,
    times)``: the product of ``[(k, sign), ...]`` is ``coeffs`` times
    prod(1 - x^k) over ``times``; or None when there is no such split.
    Each step takes the lowest k with a nonzero coefficient.  The list
    of e(P^(n-1)) in x^k, n >= 3, ends the split as 1 - x^(nk) over
    1 - x^k (even n would peel 1 + x^k, 1 + x^(2k), ...); 1 + x^k is
    left whole, so (1 + x)^g stays one run.  Otherwise the step tries
    1 - x^k and 1 + x^k.  In a product of such binomials that lowest term
    comes from the factors with the least k, or, where those cancel in
    pairs (1 - x^k)(1 + x^k) = 1 - x^(2k), from the binomial they
    multiply to; either way one of the two trials divides.  Taking
    1 - x^k where both do can still strand the rest: (1 + x)(1 - x^3)^2
    gives None, and its division goes to the heap route.  Where neither
    divides and the coefficient is 1, as in (1 + x + x^2)(1 + x^2),
    1 - x^k is multiplied in to cancel it, up to the degree of ``coeffs``
    in all (``_divide_lines`` pads by that degree), so the split ends:
    1 + x + 2x^2 gives None after 1 - x.
    """
    factors, times = [], []
    budget = len(coeffs) - 1
    while len(coeffs) > 1:
        k = next(t for t in range(1, len(coeffs)) if coeffs[t])
        n = (len(coeffs) + k - 1) // k
        if n > 2 and k <= budget and coeffs == ([1] + [0] * (k - 1)) * (n - 1) + [1]:
            factors.append((n * k, -1))
            times.append(k)
            return factors, times
        for sign in (-1, 1):
            quotient = _peel(coeffs, k, sign)
            if quotient is not None:
                factors.append((k, sign))
                break
        else:
            if coeffs[k] != 1 or k > budget:
                return None
            budget -= k
            times.append(k)
            quotient = _times_one_minus(coeffs + [0] * k, k)
        coeffs = quotient
    return factors, times


def _times_one_minus(values, k):
    # the list ``values`` times 1 - x^k, cut to its own length
    return list(map(sub, values, [0] * k + values[:-k]))


def _peel(coeffs, k, sign, power=1):
    """``coeffs / (1 + sign*x^k)^power`` as a list, or None on a remainder.

    Along each residue class mod k, in y = x^k, the quotient is
    ``power`` prefix sums (for 1 + y, between two sign flips of alternate
    entries, y -> -y); run over the whole list, they leave its top
    k*power entries all zero if and only if the division is exact.
    """
    cut = len(coeffs) - k * power
    if cut <= 0:
        return None
    out = coeffs[:]
    for r in range(k):
        column = coeffs[r::k]
        if sign > 0:
            column[1::2] = map(neg, column[1::2])
        for _ in range(power):
            column = list(accumulate(column))
        if sign > 0:
            column[1::2] = map(neg, column[1::2])
        out[r::k] = column
    if any(out[cut:]):
        return None
    del out[cut:]
    return out


def halve_exact(p: LaurentPoly) -> LaurentPoly:
    """Divide every coefficient by 2, raising on any odd coefficient.

    Used by the averaged (1/2) formulas; the error type is chosen by the
    caller, so this raises ``ValueError`` and the rank-2 stable locus and
    the strata of an even wall wrap it.
    """
    terms = p._terms
    if any(c & 1 for c in terms.values()):
        # name the first odd coefficient in canonical order, so the
        # message does not depend on the order the terms were built in
        a, b, c = next(t for t in p.sorted_terms() if t[2] & 1)
        raise ValueError(f"odd coefficient {c} at {(a, b)}")
    return _raw({k: c >> 1 for k, c in terms.items()})


class FractionUV:
    """Quotient of two Laurent polynomials, kept as the pair it was given.

    ``den`` is ONE when omitted.  ``==`` compares the numerators over
    equal denominators and otherwise cross-multiplies:

    >>> den = (ONE - UV) ** 2 * (ONE - UV**2)
    >>> FractionUV(ONE, ONE - UV) == FractionUV(ONE + UV, ONE - UV**2)
    True
    >>> print(FractionUV((ONE + UV) * den, den).as_polynomial())
    1 + u*v

    :meth:`as_polynomial` divides the numerator by ``den`` exactly, and
    :meth:`normalize` collapses the denominator to 1 when that division
    succeeds.  No full multivariate gcd is ever computed.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        self.num = _as_poly(num)
        self.den = ONE if den is None else _as_poly(den)
        if self.den.is_zero():
            raise ZeroDivisionError("fraction with zero denominator")

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __eq__(self, other):
        other = _coerce_fraction(other)
        if other is NotImplemented:
            return NotImplemented
        # never normalizes, never rounds
        if self.den == other.den:
            return self.num == other.num
        return self.num * other.den == other.num * self.den

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
        content-reduced pair with a positive lead in ``den``."""
        if self.den == ONE:
            return self
        try:
            return FractionUV(self.as_polynomial())
        except NonDivisible:
            pass
        num, den = self.num, self.den
        cg = gcd(num.content(), den.content())
        if den.leading_term()[1] < 0:
            cg = -cg
        return FractionUV(
            _raw({k: c // cg for k, c in num._terms.items()}),
            _raw({k: c // cg for k, c in den._terms.items()}),
        )

    def as_polynomial(self) -> LaurentPoly:
        """Collapse to a LaurentPoly, raising ``NonDivisible`` on failure."""
        if self.den == ONE:
            return self.num
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
