"""Hodge polynomials of the standard building-block varieties.

Every public function returns a :class:`HodgeResult` whose polynomial is the
Hodge polynomial e(Z)(u, v) of the named variety: the coefficient of u^p v^q
is (-1)^{p+q} h^{p,q} with the sign conventions that make all coefficients
nonnegative for the smooth projective cases handled here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .errors import NonIntegral, OutOfRange
from .laurent import (
    ONE,
    UV,
    ZERO,
    LaurentPoly,
    U,
    V,
    _times_binomials,
    divide_exact,
    halve_exact,
)
from .series import sym_series
from .stability import Chamber

__all__ = [
    "HodgeResult",
    "e_affine",
    "e_grassmannian",
    "e_jacobian",
    "e_projective",
    "e_sym",
    "e_sym2_quotient",
    "smooth_projective_failures",
]


@dataclass(frozen=True)
class HodgeResult:
    """A Hodge polynomial together with the geometry it came from.

    Attributes:
        poly: the Hodge polynomial, always an honest polynomial
            (nonnegative exponents); rational closed forms are divided
            out exactly before a result is built.
        dim: complex dimension of the variety.
        smooth_projective: True only when the variety is known smooth
            projective, so Poincare duality and the degree bound hold.
        chamber: for moduli of triples, the :class:`Chamber` that
            ``stability.locate`` placed the query's sigma in.  None for
            other varieties and for a sigma outside the allowed range.
    """

    poly: LaurentPoly
    dim: int
    smooth_projective: bool = False
    chamber: Chamber | None = None

    @property
    def empty(self) -> bool:
        """True when the variety is empty, i.e. the polynomial is zero."""
        return self.poly.is_zero()


@cache
def e_affine(n: int) -> HodgeResult:
    """Hodge polynomial (uv)^n of affine n-space."""
    if n < 0:
        return HodgeResult(ZERO, 0)
    # affine space is not projective, so duality-based flags stay off
    return HodgeResult(poly=UV**n, dim=n, smooth_projective=False)


@cache
def e_projective(n: int) -> HodgeResult:
    """Hodge polynomial of the projective space P^(n-1).

    The argument is the dimension of the underlying vector space, so
    e_projective(3) is e(P^2) = 1 + uv + (uv)^2.  Nonpositive n gives
    the empty variety.
    """
    if n <= 0:
        return HodgeResult(ZERO, 0)
    poly = divide_exact(ONE - UV**n, ONE - UV)
    return HodgeResult(poly=poly, dim=n - 1, smooth_projective=True)


@cache
def e_jacobian(g: int) -> HodgeResult:
    """Hodge polynomial (1+u)^g (1+v)^g of the Jacobian of a genus-g curve."""
    if g < 0:
        raise OutOfRange(f"genus must be nonnegative, got {g}")
    poly = _times_jacobian(ONE, g)
    return HodgeResult(poly=poly, dim=g, smooth_projective=True)


def _times_jacobian(poly: LaurentPoly, g: int, power: int = 1) -> LaurentPoly:
    """``poly`` times e(Jac)^power, with e(Jac) = (1 + u)^g (1 + v)^g."""
    return _times_binomials(poly, {ONE + U: power * g, ONE + V: power * g})


@cache
def e_sym(k: int, g: int) -> HodgeResult:
    """Hodge polynomial of the k-th symmetric power of a genus-g curve.

    Extracted from the generating series
    (1+ux)^g (1+vx)^g / ((1-x)(1-uvx)); Sym^0 is a point.  Negative k
    gives the empty variety.
    """
    if g < 0:
        raise OutOfRange(f"genus must be nonnegative, got {g}")
    if k < 0:
        return HodgeResult(ZERO, 0)
    poly = sym_series(g, k + 1).coeff(k)
    return HodgeResult(poly=poly, dim=k, smooth_projective=True)


@cache
def e_grassmannian(k: int, n: int) -> HodgeResult:
    """Hodge polynomial of the Grassmannian Gr(k, n) of k-planes in C^n.

    Gaussian-binomial product in uv; out-of-range (k, n) gives the
    empty variety rather than an error, matching the convention used by
    the flip-locus formulas where Gr(2, N) with N < 2 contributes zero.
    """
    if k < 0 or n < 0 or k > n:
        return HodgeResult(ZERO, 0)
    num = ONE
    den = ONE
    for i in range(1, k + 1):
        num = num * (ONE - UV ** (n - k + i))
        den = den * (ONE - UV**i)
    poly = divide_exact(num, den)
    return HodgeResult(poly=poly, dim=k * (n - k), smooth_projective=True)


def e_sym2_quotient(e_m: HodgeResult | LaurentPoly) -> HodgeResult:
    """Hodge polynomial of the symmetric square (M x M)/Z_2.

    Computed as (e(M)^2 + e(M)(-u^2, -v^2)) / 2; the halving must be
    exact, otherwise the input was not a genuine Hodge polynomial and
    NonIntegral is raised.
    """
    if isinstance(e_m, HodgeResult):
        poly = e_m.poly
        dim = 2 * e_m.dim
    else:
        poly = e_m
        dim = poly.total_degree() if not poly.is_zero() else 0
    doubled = poly * poly + poly.square_negate()
    try:
        half = halve_exact(doubled)
    except ValueError as exc:
        raise NonIntegral(
            "symmetric-square polynomial has odd coefficients; "
            "input is not a Hodge polynomial"
        ) from exc
    return HodgeResult(poly=half, dim=dim)


def smooth_projective_failures(poly: LaurentPoly, dim: int) -> list[str]:
    """Check the invariants a smooth projective Hodge polynomial satisfies.

    Returns a list of human-readable violation descriptions; empty list
    means all checks passed.  Checked: honest polynomial, conjugation
    symmetry a_{p,q} = a_{q,p}, nonnegative coefficients, total degree
    2*dim, and Poincare duality a_{p,q} = a_{dim-p, dim-q}.
    """
    failures: list[str] = []
    terms = poly._terms
    get = terms.get
    # one unsorted pass over the live term map; only a polynomial that
    # fails a check pays for the ordered diagnostic below
    for (a, b), c in terms.items():
        if c < 0 or a < 0 or b < 0:
            break
        if get((b, a)) != c or get((dim - a, dim - b)) != c:
            break
    else:
        if not terms or poly.total_degree() == 2 * dim:
            return failures
    if not poly.is_polynomial():
        failures.append("negative exponents present")
        return failures
    ordered = poly.sorted_terms()
    for a, b, c in ordered:
        if c < 0:
            failures.append(f"negative coefficient {c} at u^{a} v^{b}")
        if terms.get((b, a)) != c:
            failures.append(f"conjugation symmetry fails at ({a}, {b})")
    if poly.total_degree() != 2 * dim:
        failures.append(
            f"total degree {poly.total_degree()} != 2*dim = {2 * dim}"
        )
    for a, b, c in ordered:
        if terms.get((dim - a, dim - b)) != c:
            failures.append(f"Poincare duality fails at ({a}, {b})")
    return failures
