"""Moduli of rank-2 bundles and of triples of type (2, 1) on a genus-g curve.

Closed-form Hodge polynomials: the smooth moduli space M(2, d) for odd d,
the Hodge polynomial of the semistable locus for even d, and the
sigma-stable triple spaces N_sigma(2, 1, d1, d2) chamber by chamber, with
the stable locus at critical values.
"""

from __future__ import annotations

from ._memo import memo
from .errors import NonIntegral
from .laurent import (
    ONE,
    U2V,
    UV,
    UV2,
    LaurentPoly,
    U,
    V,
    _binomial_sum,
    divide_exact,
    halve_exact,
)
from .series import extract, sym_series
from .stability import (
    TripleType, _require_critical, _require_int, chi_triples
)
from .zoo import HodgeResult, _ChamberMemo, _jacobian_factors, _times_jacobian

__all__ = [
    "e_m2_odd",
    "e_m2s_even",
    "e_triples21",
    "e_triples21_critical_stable",
]


@memo
def e_m2_odd(g: int) -> HodgeResult:
    """Hodge polynomial of M(2, d) for odd d, dimension 4g - 3.

    The space is smooth projective and independent of the odd degree d.
    """
    _require_int(g, "genus", 2)
    # the numerator is the wall kernel K; e(Jac) = (1 + u)^g (1 + v)^g
    # is prime to the cyclotomic denominator, so it is multiplied in
    # after the division
    den = (ONE - UV) * (ONE - UV**2)
    fixed = divide_exact(_wall_kernel(g), den)
    poly = _times_jacobian(fixed, g)
    return HodgeResult(poly, 4 * g - 3, smooth_projective=True, fixed=fixed)


@memo
def e_m2s_even(g: int) -> HodgeResult:
    """Hodge polynomial of the stable locus M^s(2, d) for even d.

    The stable locus is smooth but not projective (its compactification
    adds the strictly semistable boundary), so the smooth-projective
    flag stays off even though the polynomial is exact.
    """
    _require_int(g, "genus", 2)
    correction = ONE + LaurentPoly.monomial(g + 1, g + 1, 2) - UV**2
    # the numerator over e(Jac) = (1 + u)^g (1 + v)^g, on one packing:
    # 2 (1 + u^2 v)^g (1 + u v^2)^g - e(Jac) correction
    # - (1 - u)^g (1 - v)^g (1 - uv)^2
    num = _binomial_sum([
        (2, 0, 0, ONE, {ONE + U2V: g, ONE + UV2: g}),
        (-1, 0, 0, correction, _jacobian_factors(g)),
        (-1, 0, 0, ONE, {ONE - U: g, ONE - V: g, ONE - UV: 2}),
    ])
    den = (ONE - UV) * (ONE - UV**2)
    # e(Jac) is no zero divisor mod 2, so halving before it is
    # multiplied in fails exactly when halving after it would
    try:
        fixed = halve_exact(divide_exact(num, den))
    except ValueError as exc:
        raise NonIntegral(
            "stable-locus polynomial has odd coefficients"
        ) from exc
    poly = _times_jacobian(fixed, g)
    return HodgeResult(poly, 4 * g - 3, smooth_projective=False, fixed=fixed)


@memo
def _wall_kernel(g: int) -> LaurentPoly:
    # the wall kernel K, the sum of ``_kernel_pieces``: the numerator of
    # e(M(2, odd)) / e(Jac) and the factor common to every (3, 1)
    # wall-crossing term; built once per genus, shared and never mutated
    return _binomial_sum(_kernel_pieces(g, ONE))


def _kernel_pieces(g: int, poly: LaurentPoly) -> list:
    # K * poly as two pieces of ``_binomial_sum``, K the wall kernel
    # (1 + u^2 v)^g (1 + u v^2)^g - (uv)^g e(Jac), with
    # K e(Jac) = e(M(2, odd)) (1 - uv) (1 - (uv)^2)
    return [
        (1, 0, 0, poly, {ONE + U2V: g, ONE + UV2: g}),
        (-1, g, g, poly, _jacobian_factors(g)),
    ]


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
    space is not fine there.  sigma enters only through the wall that
    cuts the sum, the upper wall of its chamber, so each chamber of the
    last queried type is computed once.
    """
    return _closed_21.result(TripleType(2, 1, d1, d2, g), sigma, chamber)


@_ChamberMemo
def _closed_21(
    t: TripleType, d0: int
) -> tuple[LaurentPoly, LaurentPoly]:
    g, d1, d2 = t.g, t.d1, t.d2
    # the sum is cut at the least critical index d0 above sigma
    k = d1 - d2 - d0
    w = sym_series(g, k + 1)
    c1 = extract(w, [UV**-1], k)
    c2 = extract(w, [UV**2], k)
    bracket = UV**k * c1 - UV ** (g - 1 - d1 + 2 * d0) * c2
    fixed = divide_exact(bracket, ONE - UV)
    return _times_jacobian(fixed, g, 2), fixed


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
    fixed = _critical_stable_core(t, d_m)
    poly = _times_jacobian(fixed, g, 2)
    dim = 1 - chi_triples(t, t)
    return HodgeResult(poly, dim, smooth_projective=False, fixed=fixed)


def _critical_stable_core(t: TripleType, d_m: int) -> LaurentPoly:
    # the stable locus at the wall d_m before its factor e(Jac)^2, which
    # the even-wall strata of a (3, 1) type multiply in once per wall
    _require_critical(t, d_m)
    g, d1, d2 = t.g, t.d1, t.d2
    k = d1 - d2 - d_m
    w = sym_series(g, k + 1)
    c1 = extract(w, [UV**-1], k)
    c2 = extract(w, [UV**2], k - 1)
    c3 = w.coeff(k)
    bracket = UV**k * c1 - UV ** (g + 1 - d1 + 2 * d_m) * c2 - c3
    return divide_exact(bracket, ONE - UV)
