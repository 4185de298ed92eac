"""Truncated power series in x over the Laurent polynomial ring.

All generating functions in this package are rational in an auxiliary
variable x with poles of the form 1/(1 - m x) for a Laurent monomial m,
so a truncated series with ``LaurentPoly`` coefficients is enough: every
coefficient we ever extract is an honest Laurent polynomial, and the
rational prefactors in (u, v) are applied after extraction.

``extract`` is the one extraction primitive: it reads [x^k] of a series
divided by poles (1 - m x) with a prefix recurrence over term dicts, so no
route multiplies series or polynomials just to read one coefficient.

The module also carries the closed residue forms ``residue_f1`` and
``residue_f2``.  They evaluate the x^0-coefficient extractions that
appear in the final rank-(3,1) formulas as finite sums over the poles,
sum_i N(p_i) / prod_(j != i) (p_i - p_j) with N(x) = (x+u)^g (x+v)^g:
Newton's divided difference N[p_0, ..., p_k], computed by its table with
exact divisions and never ``extract``.  No production route calls them:
the closed route extracts coefficients from series like every other
route, and only the verification suite and the tests compare the
residue forms with ``f1_via_series`` and ``f2_via_series``.
"""
from __future__ import annotations

from math import comb

from ._memo import Table
from .errors import DegeneratePoles, OrderTooLow
from .laurent import (
    ONE, ZERO, LaurentPoly, U, V, _as_poly, _raw, divide_exact
)
from .stability import _require_int

__all__ = [
    "XSeries",
    "curve_numerator",
    "extract",
    "sym_series",
    "residue_f1",
    "residue_f2",
    "f1_via_series",
    "f2_via_series",
]


class XSeries:
    """Power series in x truncated at a fixed order.

    ``order`` is the number of known coefficients: the series is known
    modulo ``x^order``.  Coefficients are ``LaurentPoly`` values.

    Example::

        >>> s = XSeries.geometric(ONE, 4)      # 1/(1-x) mod x^4
        >>> s.coeff(3).to_text()
        '1'
    """

    __slots__ = ("order", "_coeffs")

    def __init__(self, order: int, coeffs):
        if order < 0:
            raise ValueError("series order must be nonnegative")
        coeffs = [_as_poly(c) for c in coeffs[:order]]
        coeffs.extend([ZERO] * (order - len(coeffs)))
        self.order = order
        self._coeffs = coeffs

    @classmethod
    def geometric(cls, ratio, order: int) -> "XSeries":
        """1/(1 - ratio*x) = sum_k ratio^k x^k, truncated."""
        ratio = _as_poly(ratio)
        coeffs = []
        acc = ONE
        for _ in range(order):
            coeffs.append(acc)
            acc = acc * ratio
        return cls(order, coeffs)

    def coeff(self, k: int) -> LaurentPoly:
        """Coefficient of x^k; zero for k < 0, error past the truncation."""
        if k < 0:
            return ZERO
        if k >= self.order:
            raise OrderTooLow(
                f"coefficient of x^{k} requested from a series known only "
                f"modulo x^{self.order}"
            )
        return self._coeffs[k]

    def __mul__(self, other):
        if isinstance(other, (LaurentPoly, int)):
            m = _as_poly(other)
            return XSeries(self.order, [c * m for c in self._coeffs])
        if not isinstance(other, XSeries):
            return NotImplemented
        n = min(self.order, other.order)
        out = [ZERO] * n
        for i in range(n):
            a = self._coeffs[i]
            if a.is_zero():
                continue
            for j in range(n - i):
                b = other._coeffs[j]
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return XSeries(n, out)

    __rmul__ = __mul__

    def __repr__(self):
        shown = ", ".join(c.to_text() for c in self._coeffs[:4])
        if self.order > 4:
            shown += ", ..."
        return f"XSeries(order={self.order}, [{shown}])"


def curve_numerator(g: int, order: int) -> XSeries:
    """(1 + u x)^g (1 + v x)^g truncated at the given order.

    Coefficient of x^k is sum over i+j=k of C(g,i) C(g,j) u^i v^j; this
    is the Hodge-weighted count of the curve's cohomology in the
    symmetric-power generating function.
    """
    coeffs = []
    for k in range(order):
        terms = {}
        for i in range(max(0, k - g), min(g, k) + 1):
            terms[(i, k - i)] = comb(g, i) * comb(g, k - i)
        coeffs.append(LaurentPoly(terms))
    return XSeries(order, coeffs)


# the longest sym_series built so far, per genus
_sym_longest = Table(f"{__name__}._sym_longest")


def sym_series(g: int, order: int) -> XSeries:
    """Generating series of symmetric powers of a genus-g curve.

    (1+ux)^g (1+vx)^g / ((1-x)(1-uvx)); the coefficient of x^k is the
    Hodge polynomial of Sym^k of the curve.  The coefficient of x^k does
    not depend on the truncation order, so the longest series built so
    far for g is kept and a shorter order is its truncation: one series
    per genus is held, and it is built again only for a longer order.
    Each caller gets its own series; the coefficients are shared and
    never mutated; ``clear_all`` empties the table of longest series.
    """
    # the table is keyed by g, where 2.0 would find the series of 2
    _require_int(g, "genus", 0)
    w = _sym_longest.get(g)
    if w is None or w.order < order:
        _sym_longest.misses += 1
        w = _sym_longest[g] = (
            curve_numerator(g, order)
            * XSeries.geometric(ONE, order)
            * XSeries.geometric(U * V, order)
        )
    else:
        _sym_longest.hits += 1
    return XSeries(order, w._coeffs)


def extract(w: XSeries, poles, k: int) -> LaurentPoly:
    """Coefficient of x^k in w(x) / prod(1 - m x) over the poles m.

    Dividing by 1 - m x is the prefix recurrence c[j] += m c[j-1]: for
    each j, every term of m shifts every term of c[j-1] into a copy of
    c[j], deleting a coefficient that reaches 0, so no product, sum or
    series is built.  Poles may repeat.  Zero for k < 0; OrderTooLow
    when w is not known up to x^k.

    Example: [x^2] of 1/((1-x)(1-uv x)) is 1 + uv + (uv)^2::

        >>> extract(XSeries(3, [ONE]), [ONE, U * V], 2).to_text()
        '1 + u*v + u^2*v^2'
    """
    if k < 0:
        return ZERO
    coeffs = [w.coeff(j)._terms for j in range(k + 1)]
    for pole in poles:
        pole = _as_poly(pole)._terms.items()
        for j in range(1, k + 1):
            prev, acc = coeffs[j - 1], coeffs[j].copy()
            for (ma, mb), mc in pole:
                for (a, b), c in prev.items():
                    key = (a + ma, b + mb)
                    s = acc.get(key, 0) + mc * c
                    if s:
                        acc[key] = s
                    else:
                        del acc[key]
            coeffs[j] = acc
    return _raw(coeffs[k])


def _check_distinct(poles):
    for i in range(len(poles)):
        for j in range(i + 1, len(poles)):
            if poles[i] == poles[j]:
                raise DegeneratePoles(
                    f"coincident pole arguments {poles[i].to_text()!r}; the "
                    "closed residue form needs pairwise distinct poles"
                )


def _divided_difference(g: int, poles) -> LaurentPoly:
    # N[p_0, ..., p_k] for N(x) = (x + u)^g (x + v)^g; x - y divides
    # N(x) - N(y), so every entry is a polynomial and every division exact
    poles = [_as_poly(p) for p in poles]
    _check_distinct(poles)
    row = [(p + U) ** g * (p + V) ** g for p in poles]
    for step in range(1, len(poles)):
        row = [
            divide_exact(row[i] - row[i + 1], poles[i] - poles[i + step])
            for i in range(len(row) - 1)
        ]
    return row[0]


def residue_f1(g: int, a, b, c) -> LaurentPoly:
    """Closed form of [x^(2g-2)] (1+ux)^g (1+vx)^g / ((1-ax)(1-bx)(1-cx)).

    Equals the sum over the three poles of
    (p+u)^g (p+v)^g / prod(p - other poles), by the residue theorem: the
    integrand has no pole at infinity, so the coefficient at x^(2g-2) is
    minus the sum of the residues at the finite nonzero poles.  That sum
    is the divided difference N[a, b, c] of N(x) = (x+u)^g (x+v)^g,
    three exact divisions of a difference of entries by a difference of
    poles.  Coincident poles raise ``DegeneratePoles`` before any.
    """
    return _divided_difference(g, (a, b, c))


def residue_f2(g: int, a, b, c, d) -> LaurentPoly:
    """Closed form of [x^(2g-3)] (1+ux)^g (1+vx)^g / ((1-ax)(1-bx)(1-cx)(1-dx)).

    Four-pole analogue of :func:`residue_f1`; each summand divides by the
    product of the three differences to the other poles, and the sum is
    the divided difference N[a, b, c, d], six exact divisions.
    """
    return _divided_difference(g, (a, b, c, d))


def f1_via_series(g: int, a, b, c) -> LaurentPoly:
    """Series-expansion evaluation of the same coefficient as residue_f1."""
    return extract(curve_numerator(g, 2 * g - 1), (a, b, c), 2 * g - 2)


def f2_via_series(g: int, a, b, c, d) -> LaurentPoly:
    """Series-expansion evaluation of the same coefficient as residue_f2."""
    w = curve_numerator(g, max(2 * g - 2, 1))
    return extract(w, (a, b, c, d), 2 * g - 3)
