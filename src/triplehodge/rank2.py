"""Moduli of rank-2 bundles and of triples of type (2, 1) on a genus-g curve.

Closed-form Hodge polynomials: the smooth moduli space M(2, d) for odd d,
the Hodge polynomial of the semistable locus for even d, and the
sigma-stable triple spaces N_sigma(2, 1, d1, d2) chamber by chamber, with
the stable locus at critical values.
"""

from __future__ import annotations

from functools import cache

from .errors import NonIntegral, OutOfRange
from .laurent import (
    ONE,
    U2V,
    UV,
    UV2,
    ZERO,
    FractionUV,
    LaurentPoly,
    U,
    V,
    divide_exact,
    halve_exact,
)
from .series import extract, sym_series
from .stability import TripleType, _require_critical, chi_triples, locate
from .zoo import HodgeResult, e_jacobian

__all__ = [
    "e_m2_odd",
    "e_m2s_even",
    "e_triples21",
    "e_triples21_critical_stable",
]


@cache
def e_m2_odd(g: int) -> HodgeResult:
    """Hodge polynomial of M(2, d) for odd d, dimension 4g - 3.

    The space is smooth projective and independent of the odd degree d.
    """
    if g < 2:
        raise OutOfRange(f"genus must be at least 2, got {g}")
    jac = e_jacobian(g).poly
    num = (
        jac * (ONE + U2V) ** g * (ONE + UV2) ** g
        - UV**g * (ONE + U) ** (2 * g) * (ONE + V) ** (2 * g)
    )
    den = (ONE - UV) * (ONE - UV**2)
    poly = divide_exact(num, den)
    return HodgeResult(poly=poly, dim=4 * g - 3, smooth_projective=True)


@cache
def e_m2s_even(g: int) -> HodgeResult:
    """Hodge polynomial of the stable locus M^s(2, d) for even d.

    The stable locus is smooth but not projective (its compactification
    adds the strictly semistable boundary), so the smooth-projective
    flag stays off even though the polynomial is exact.
    """
    if g < 2:
        raise OutOfRange(f"genus must be at least 2, got {g}")
    a = (
        (ONE + U) ** g
        * (ONE + V) ** g
        * (ONE + U2V) ** g
        * (ONE + UV2) ** g
    )
    b = (ONE + U) ** (2 * g) * (ONE + V) ** (2 * g)
    c = (ONE - LaurentPoly.monomial(2, 0)) ** g * (
        ONE - LaurentPoly.monomial(0, 2)
    ) ** g
    correction = ONE + LaurentPoly.monomial(g + 1, g + 1, 2) - UV**2
    num = 2 * a - b * correction - c * (ONE - UV) ** 2
    den = (ONE - UV) * (ONE - UV**2)
    try:
        half = halve_exact(divide_exact(num, den))
    except ValueError as exc:
        raise NonIntegral(
            "stable-locus polynomial has odd coefficients"
        ) from exc
    return HodgeResult(poly=half, dim=4 * g - 3, smooth_projective=False)


def e_triples21(
    g: int,
    d1: int,
    d2: int,
    sigma=None,
    *,
    chamber: int | None = None,
) -> HodgeResult:
    """Hodge polynomial of N_sigma(2, 1, d1, d2), dimension 3g - 2 + d1 - 2*d2.

    sigma may be any exact rational; alternatively pass chamber=k to use
    the midpoint of the k-th chamber (1-based).  A sigma outside the
    allowed range (sigma_m, sigma_M] gives the empty space; a sigma
    exactly at a critical value raises CriticalSigma, since the moduli
    space is not fine there.
    """
    t = TripleType(2, 1, d1, d2, g)
    ch = locate(t, sigma, chamber)
    if ch is None:
        return HodgeResult(ZERO, 0)

    # the sum is cut at the least critical index d0 above sigma
    d0 = ch.wall
    k = d1 - d2 - d0
    w = sym_series(g, k + 1)
    c1 = extract(w, [UV**-1], k)
    c2 = extract(w, [UV**2], k)
    bracket = UV**k * c1 - UV ** (g - 1 - d1 + 2 * d0) * c2
    jac = e_jacobian(g).poly
    poly = FractionUV(jac * jac * bracket, ONE - UV).as_polynomial()
    return HodgeResult(
        poly=poly,
        dim=1 - chi_triples(t, t),
        smooth_projective=True,
        chamber=ch,
    )


def e_triples21_critical_stable(
    g: int, d1: int, d2: int, d_m: int
) -> HodgeResult:
    """Hodge polynomial of the stable locus at the critical value 3*d_m - d1 - d2.

    d_m indexes the critical value by the degree of the destabilizing
    line subbundle; NotCritical is raised when (d_m, sigma) is not in
    the critical list.  The stable locus is open in the full moduli
    space, hence not projective: flag off.
    """
    t = TripleType(2, 1, d1, d2, g)
    _require_critical(t, d_m)
    k = d1 - d2 - d_m
    w = sym_series(g, k + 1)
    c1 = extract(w, [UV**-1], k)
    c2 = extract(w, [UV**2], k - 1)
    c3 = w.coeff(k)
    bracket = UV**k * c1 - UV ** (g + 1 - d1 + 2 * d_m) * c2 - c3
    jac = e_jacobian(g).poly
    poly = FractionUV(jac * jac * bracket, ONE - UV).as_polynomial()
    return HodgeResult(
        poly=poly, dim=1 - chi_triples(t, t), smooth_projective=False
    )
