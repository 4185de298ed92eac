"""Hodge polynomials of N_sigma(3, 1, d1, d2) and of M(3, d), d not 0 mod 3,
and the flip-sum route to N_sigma(2, 1, d1, d2).

Two independent routes are implemented for the (3, 1) triple spaces: the
closed residue formula and the telescoping sum of wall-crossing jumps;
tests pin their exact agreement on every chamber.  The same sum of jumps
is the second route to the (2, 1) triple spaces, whose closed formula
lives in ``rank2``.  M(3, d) likewise comes both from its own closed form
and from the sigma -> sigma_m limit of the triple space, which fibers
over M(3, d1) in projective spaces.
"""

from __future__ import annotations

from math import comb

from ._memo import memo
from .errors import OutOfRange
from .laurent import (
    ONE,
    U2V,
    UV,
    UV2,
    ZERO,
    FractionUV,
    LaurentPoly,
    _binomial_sum,
    divide_exact,
)
from .series import XSeries, extract, sym_series
from .stability import TripleType, _require_int, criticals, locate
from .flips import _DEN, flip_contribution
from .rank2 import _base_of_lowest_chamber, _kernel_pieces
from .zoo import (
    HodgeResult,
    _ChamberMemo,
    _JacobianMultiple,
    _jacobian_factors,
    _times_jacobian,
    e_jacobian,
)

__all__ = [
    "e_m3",
    "e_m3_via_pipeline",
    "e_n31_closed",
    "e_n31_flipsum",
    "e_triples21_flipsum",
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
    CriticalSigma is raised.  sigma enters only through the wall that
    cuts the sums, the upper wall of its chamber, so each chamber of
    the last queried type is computed once.
    """
    return _closed_n31.result(TripleType(3, 1, d1, d2, g), sigma, chamber)


@_ChamberMemo
def _closed_n31(t: TripleType, n0: int) -> tuple[LaurentPoly, LaurentPoly]:
    g, d1, d2 = t.g, t.d1, t.d2
    # the sums are cut at the least critical index n0 above sigma and
    # at the least even integer nbar0 >= n0
    nbar0 = n0 + (n0 & 1)
    k0 = d1 - d2 - n0
    kb = d1 - d2 - nbar0
    # kb <= k0, so one series serves both parts
    w = sym_series(g, k0 + 1)

    # the numerator over _DEN is K x + (uv)^(g-1) e(Jac) (1 - uv) y, K
    # the wall kernel: three pieces of one binomial sum, two for K x
    # (K's own pieces, so K is never multiplied out) and one for the
    # even-wall part
    ca1 = extract(w, [UV**-2], k0)
    ca2 = extract(w, [UV**3], k0)
    x = UV ** (2 * k0) * ca1 - UV ** (2 * g - 2 - 2 * d1 + 3 * n0) * ca2
    pieces = _kernel_pieces(g, x)
    if kb >= 0:
        cb1 = extract(w, [UV**-2, UV**-1], kb)
        cb2 = extract(w, [UV**3, UV**2], kb)
        cb3 = extract(w, [UV**2, UV**-1], kb)
        y = (
            UV ** (2 * kb + 1) * cb1
            + UV ** (2 * g - 2 - 2 * d1 + 3 * nbar0) * cb2
            - (ONE + UV) * UV ** (g - 1 - d2 + nbar0 // 2) * cb3
        )
        # the prefactor (uv)^(g-1) e(Jac) / ((1 - uv)^2 (1 + uv)),
        # brought over _DEN by 1 - uv
        pieces.append(
            (1, g - 1, g - 1, y, {**_jacobian_factors(g), ONE - UV: 1})
        )

    # _DEN is cyclotomic in uv, prime to e(Jac)^2, so the sum divides
    # on its own into e(N_0); e(Jac)^2 is multiplied in on the first
    # read of the polynomial, which e_m3_via_pipeline never makes
    fixed = FractionUV(_binomial_sum(pieces), _DEN).as_polynomial()
    return _JacobianMultiple(fixed, g, 2), fixed


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
    return _flip_sum.result(TripleType(3, 1, d1, d2, g), sigma, chamber)


def e_triples21_flipsum(
    g: int,
    d1: int,
    d2: int,
    sigma=None,
    *,
    chamber: int | None = None,
) -> HodgeResult:
    """Hodge polynomial of N_sigma(2, 1, d1, d2) by summing wall crossings.

    The same walk down from the empty top chamber as e_n31_flipsum, over
    the (2, 1) jumps; it must agree with rank2.e_triples21 exactly.
    """
    return _flip_sum.result(TripleType(2, 1, d1, d2, g), sigma, chamber)


@_ChamberMemo
def _flip_sum(t: TripleType, wall: int) -> tuple[LaurentPoly, None]:
    # -C_n summed from the top wall down; the memo keeps each wall's
    # sum, with no fixed-determinant value
    sums = _flip_sum
    poly = ZERO
    for n, _crit in reversed(criticals(t)):
        if n >= wall:
            if n not in sums:
                jump = flip_contribution(t, n).cn.as_polynomial()
                sums[n] = poly - jump, None
            poly = sums[n][0]
    return poly, None


@memo
def e_m3(g: int, d: int = 1) -> HodgeResult:
    """Hodge polynomial of M(3, d) for d not divisible by 3, dim 9g - 8.

    The polynomial is independent of such d (all the spaces are
    isomorphic up to duality and twisting), so d only gets validated.
    """
    _require_int(g, "genus", 2)
    _require_int(d, "d")
    if d % 3 == 0:
        raise OutOfRange(
            f"d={d} is divisible by 3; M(3, d) is singular there"
        )
    jac = e_jacobian(g).poly
    b = {ONE + U2V: g, ONE + UV2: g}
    # with B = (1 + u^2 v)^g (1 + u v^2)^g the numerator is
    # -(uv)^(2g-1) (1 + uv)^2 e(Jac) B + (uv)^(3g-1) (1 + uv + (uv)^2)
    # e(Jac)^2 + (1 + u^2 v^3)^g (1 + u^3 v^2)^g B: three pieces of the
    # binomial kernel, summed on one packing
    num = _binomial_sum([
        (-1, 2 * g - 1, 2 * g - 1, jac, {**b, ONE + UV: 2}),
        (1, 3 * g - 1, 3 * g - 1, ONE + UV + UV**2, _jacobian_factors(2 * g)),
        (1, 0, 0, ONE, {
            **b,
            ONE + LaurentPoly.monomial(2, 3): g,
            ONE + LaurentPoly.monomial(3, 2): g,
        }),
    ])
    den = (ONE - UV) * (ONE - UV**2) ** 2 * (ONE - UV**3)
    # den is cyclotomic in uv, prime to e(Jac): divide, then multiply
    fixed = divide_exact(num, den)
    poly = _times_jacobian(fixed, g)
    return HodgeResult(poly, 9 * g - 8, smooth_projective=True, fixed=fixed)


def e_m3_via_pipeline(g: int) -> HodgeResult:
    """M(3, d1) recovered from the triple space at small sigma.

    For d2 = 0, d1 = 6g - 5 and sigma in the lowest chamber, the triple
    space fibers over M(3, d1) x Jac(X) with projective fibers
    P^{3g-3}, so the chamber's e(N_0) = e(N_sigma) / e(Jac)^2, divided
    once by e(P^{3g-3}), is e(M(3, d1)) / e(Jac).
    """
    _require_int(g, "genus", 2)
    return _base_of_lowest_chamber(e_n31_closed, 3, 6 * g - 5, g)


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


def poincare_m3(g: int) -> LaurentPoly:
    """Poincare polynomial of M(3, d) from its own closed display in t.

    Independent of e_m3: evaluated directly in the t variable, it must
    agree with poincare(e_m3(g)).
    """
    _require_int(g, "genus", 2)
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
    kernel, prefac, prefactor = _t_display_factors(g)
    part_a = kernel * (
        _t(4 * k0) * ca1 - _t(4 * g - 4 - 4 * d1 + 6 * n0) * ca2
    )

    if kb >= 0:
        cb1 = extract(w, [*sym, _t(-4), _t(-2)], kb)
        cb2 = extract(w, [*sym, _t(6), _t(4)], kb)
        cb3 = extract(w, [*sym, _t(4), _t(-2)], kb)
        part_b = prefac * (
            _t(4 * kb + 2) * cb1
            + _t(4 * g - 4 - 4 * d1 + 6 * nbar0) * cb2
            - (ONE + _t(2)) * _t(2 * g - 2 - 2 * d2 + nbar0) * cb3
        )
    else:
        part_b = ZERO

    # the sum is the t-form of a multiple of DEN, so it divides on its
    # own and the prefactor is multiplied in last
    return prefactor * divide_exact(part_a + part_b, _DEN_T)


# DEN = (1 - uv)^2 (1 - (uv)^2) in t
_DEN_T = (ONE - _t(2)) ** 2 * (ONE - _t(4))


@memo
def _t_display_factors(g: int) -> tuple[LaurentPoly, ...]:
    """The factors of poincare_n31 that depend on g alone, in t: the
    numerators over DEN(t) of the wall kernel and of the prefactor of
    the even-wall part, and the overall prefactor.  Built once per
    genus; the polynomials are shared and never mutated."""
    kernel = (ONE + _t(3)) ** (2 * g) - _t(2 * g) * (ONE + _t(1)) ** (2 * g)
    # over (1 - t^2)^2 (1 + t^2), which times 1 - t^2 is DEN(t)
    prefac = _t(2 * g - 2) * (ONE + _t(1)) ** (2 * g) * (ONE - _t(2))
    prefactor = (ONE + _t(1)) ** (4 * g)
    return kernel, prefac, prefactor
