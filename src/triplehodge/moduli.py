"""Hodge polynomials of N_sigma(3, 1, d1, d2) and of M(3, d), d not 0 mod 3.

Two independent routes are implemented for the triple spaces: the closed
residue formula and the telescoping sum of wall-crossing jumps; tests pin
their exact agreement on every chamber.  M(3, d) likewise comes both from
its own closed form and from the sigma -> sigma_m limit of the triple
space, which fibers over M(3, d1) in projective spaces.
"""

from __future__ import annotations

from functools import cache
from math import comb

from .errors import OutOfRange
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
)
from .series import XSeries, extract, sym_series
from .stability import TripleType, chi_triples, criticals, locate
from .flips import _wall_jump, _wall_kernel
from .zoo import HodgeResult, e_jacobian, e_projective

__all__ = [
    "e_m3",
    "e_m3_via_pipeline",
    "e_n31_closed",
    "e_n31_flipsum",
    "poincare",
    "poincare_m3",
    "poincare_n31",
]


def e_n31_closed(
    g: int,
    d1: int,
    d2: int,
    sigma=None,
    *,
    chamber: int | None = None,
) -> HodgeResult:
    """Hodge polynomial of N_sigma(3, 1, d1, d2) from the closed formula.

    Dimension 7g - 6 + d1 - 3*d2.  sigma may be any exact rational, or
    pass chamber=k for the midpoint of the k-th chamber.  Outside the
    allowed range the result is empty; at a critical value
    CriticalSigma is raised.
    """
    t = TripleType(3, 1, d1, d2, g)
    ch = locate(t, sigma, chamber)
    if ch is None:
        return HodgeResult(ZERO, 0)
    # the sums are cut at the least critical index n0 above sigma and
    # at the least even integer nbar0 >= n0
    n0 = ch.wall
    nbar0 = n0 + (n0 & 1)
    k0 = d1 - d2 - n0
    kb = d1 - d2 - nbar0
    # kb <= k0, so one series serves both parts
    w = sym_series(g, k0 + 1)

    ca1 = extract(w, [UV**-2], k0)
    ca2 = extract(w, [UV**3], k0)
    part_a = _wall_kernel(g) * (
        UV ** (2 * k0) * ca1 - UV ** (2 * g - 2 - 2 * d1 + 3 * n0) * ca2
    )

    jac = e_jacobian(g).poly
    if kb >= 0:
        cb1 = extract(w, [UV**-2, UV**-1], kb)
        cb2 = extract(w, [UV**3, UV**2], kb)
        cb3 = extract(w, [UV**2, UV**-1], kb)
        prefac = FractionUV(
            UV ** (g - 1) * jac, (ONE - UV) ** 2 * (ONE + UV)
        )
        part_b = prefac * (
            UV ** (2 * kb + 1) * cb1
            + UV ** (2 * g - 2 - 2 * d1 + 3 * nbar0) * cb2
            - (ONE + UV) * UV ** (g - 1 - d2 + nbar0 // 2) * cb3
        )
    else:
        part_b = FractionUV(ZERO)

    poly = (FractionUV(jac * jac) * (part_a + part_b)).as_polynomial()
    return HodgeResult(
        poly=poly,
        dim=1 - chi_triples(t, t),
        smooth_projective=True,
        chamber=ch,
    )


def e_n31_flipsum(
    g: int,
    d1: int,
    d2: int,
    sigma=None,
    *,
    chamber: int | None = None,
) -> HodgeResult:
    """Hodge polynomial of N_sigma(3, 1, d1, d2) by summing wall crossings.

    Walking down from above sigma_M, where the moduli space is empty,
    each wall adds -C_n; the result must agree with e_n31_closed
    exactly, which the verification suite checks chamber by chamber.
    """
    t = TripleType(3, 1, d1, d2, g)
    ch = locate(t, sigma, chamber)
    if ch is None:
        return HodgeResult(ZERO, 0)
    poly = ZERO
    for n, _crit in criticals(t):
        if n >= ch.wall:
            poly = poly - _wall_jump(t, n)
    return HodgeResult(
        poly=poly,
        dim=1 - chi_triples(t, t),
        smooth_projective=True,
        chamber=ch,
    )


@cache
def e_m3(g: int, d: int = 1) -> HodgeResult:
    """Hodge polynomial of M(3, d) for d not divisible by 3, dim 9g - 8.

    The polynomial is independent of such d (all the spaces are
    isomorphic up to duality and twisting), so d only gets validated.
    """
    if g < 2:
        raise OutOfRange(f"genus must be at least 2, got {g}")
    if d % 3 == 0:
        raise OutOfRange(
            f"d={d} is divisible by 3; M(3, d) is singular there"
        )
    jac = e_jacobian(g).poly
    piece1 = (
        jac
        * (ONE + UV) ** 2
        * UV ** (2 * g - 1)
        * (ONE + U2V) ** g
        * (ONE + UV2) ** g
    )
    piece2 = (
        (ONE + U) ** (2 * g)
        * (ONE + V) ** (2 * g)
        * UV ** (3 * g - 1)
        * (ONE + UV + UV**2)
    )
    piece3 = (
        (ONE + LaurentPoly.monomial(2, 3)) ** g
        * (ONE + LaurentPoly.monomial(3, 2)) ** g
        * (ONE + U2V) ** g
        * (ONE + UV2) ** g
    )
    den = (ONE - UV) * (ONE - UV**2) ** 2 * (ONE - UV**3)
    poly = divide_exact(jac * (piece2 - piece1 + piece3), den)
    return HodgeResult(poly=poly, dim=9 * g - 8, smooth_projective=True)


@cache
def e_m3_via_pipeline(g: int) -> HodgeResult:
    """M(3, d1) recovered from the triple space at small sigma.

    For d2 = 0, d1 = 6g - 5 and sigma in the lowest chamber, the triple
    space fibers over M(3, d1) x Jac(X) with projective fibers
    P^{3g-3}, so dividing e(N_sigma) by e(Jac) e(P^{3g-3}) returns
    e(M(3, d1)).  NonDivisible here would signal a formula error.
    """
    if g < 2:
        raise OutOfRange(f"genus must be at least 2, got {g}")
    d1 = 6 * g - 5
    low = e_n31_closed(g, d1, 0, chamber=1)
    # two small divisions instead of one by the multiplied-out product
    fiber = divide_exact(low.poly, e_projective(3 * g - 2).poly)
    poly = divide_exact(fiber, e_jacobian(g).poly)
    return HodgeResult(poly=poly, dim=9 * g - 8, smooth_projective=True)


def poincare(h: HodgeResult | LaurentPoly) -> LaurentPoly:
    """Poincare polynomial: the diagonal specialization u = v = t.

    Returned as a univariate polynomial held in the first variable.
    For inputs that are not smooth projective this is the E-polynomial
    specialization rather than a Poincare polynomial; callers that care
    about the distinction check the flag themselves.
    """
    poly = h.poly if isinstance(h, HodgeResult) else h
    return poly.diagonal()


def _t(k: int) -> LaurentPoly:
    return LaurentPoly.monomial(k, 0)


@cache
def poincare_m3(g: int) -> LaurentPoly:
    """Poincare polynomial of M(3, d) from its own closed display in t.

    Independent of e_m3: evaluated directly in the t variable, it must
    agree with poincare(e_m3(g)).
    """
    if g < 2:
        raise OutOfRange(f"genus must be at least 2, got {g}")
    one_t = ONE + _t(1)
    piece1 = (
        one_t ** (2 * g)
        * (ONE + _t(2)) ** 2
        * _t(4 * g - 2)
        * (ONE + _t(3)) ** (2 * g)
    )
    piece2 = one_t ** (4 * g) * _t(6 * g - 2) * (ONE + _t(2) + _t(4))
    piece3 = (ONE + _t(5)) ** (2 * g) * (ONE + _t(3)) ** (2 * g)
    den = (ONE - _t(2)) * (ONE - _t(4)) ** 2 * (ONE - _t(6))
    return divide_exact(
        one_t ** (2 * g) * (piece2 - piece1 + piece3), den
    )


def poincare_n31(
    g: int,
    d1: int,
    d2: int,
    sigma=None,
    *,
    chamber: int | None = None,
) -> LaurentPoly:
    """Poincare polynomial of N_sigma(3, 1, d1, d2) from the t-display.

    A genuinely independent evaluation in the t variable (not the
    diagonal of the uv computation); the two must agree exactly.
    """
    ch = locate(TripleType(3, 1, d1, d2, g), sigma, chamber)
    if ch is None:
        return ZERO
    n0 = ch.wall
    nbar0 = n0 + (n0 & 1)
    k0 = d1 - d2 - n0
    kb = d1 - d2 - nbar0

    # sym_series at u = v = t: the numerator (1 + t)^(2g) here, and its
    # poles 1 and t^2 lead every pole list below
    order = k0 + 1
    w = XSeries(
        order,
        [
            LaurentPoly.monomial(k, 0, comb(2 * g, k))
            for k in range(min(order, 2 * g + 1))
        ],
    )
    sym = [ONE, _t(2)]
    ca1 = extract(w, [*sym, _t(-4)], k0)
    ca2 = extract(w, [*sym, _t(6)], k0)
    kernel = FractionUV(
        (ONE + _t(3)) ** (2 * g) - _t(2 * g) * (ONE + _t(1)) ** (2 * g),
        (ONE - _t(2)) ** 2 * (ONE - _t(4)),
    )
    part_a = kernel * (
        _t(4 * k0) * ca1 - _t(4 * g - 4 - 4 * d1 + 6 * n0) * ca2
    )

    if kb >= 0:
        cb1 = extract(w, [*sym, _t(-4), _t(-2)], kb)
        cb2 = extract(w, [*sym, _t(6), _t(4)], kb)
        cb3 = extract(w, [*sym, _t(4), _t(-2)], kb)
        prefac = FractionUV(
            _t(2 * g - 2) * (ONE + _t(1)) ** (2 * g),
            (ONE - _t(2)) ** 2 * (ONE + _t(2)),
        )
        part_b = prefac * (
            _t(4 * kb + 2) * cb1
            + _t(4 * g - 4 - 4 * d1 + 6 * nbar0) * cb2
            - (ONE + _t(2)) * _t(2 * g - 2 - 2 * d2 + nbar0) * cb3
        )
    else:
        part_b = FractionUV(ZERO)

    prefactor = FractionUV((ONE + _t(1)) ** (4 * g))
    return (prefactor * (part_a + part_b)).as_polynomial()
