"""Wall-crossing contributions for triples of type (3, 1) and (2, 1).

Crossing a critical value replaces the flip locus S^- by S^+, and the
Hodge polynomial jumps by C_n = e(S^+) - e(S^-).  At a wall of either
type the jump is e(Jac)^2 C0, and ``_contribution`` is the one place
that multiplies that factor in.  At a (2, 1) wall both loci are
projective bundles over Jac^2 x Sym^N1, so C0 is e(Sym^N1)
(e(P^(N1-1)) - e(P^(N2-1))).  At the (3, 1) wall sigma_n = 2n - d1 - d2
one closed form of C0 serves both parities of n: [K e(Sym^N1)
((uv)^(2 N2) - (uv)^(2 N1)) + (uv)^(g-1) e(Jac) bracket] / DEN, with K
the wall kernel over DEN = (1 - uv)^2 (1 - (uv)^2).  The bracket is
built only at even n, where the loci stratify into six pieces indexed
by the shape of the destabilizing filtration; ``c_n_even`` checks C0
against their sum over e(Jac)^2 on every build, with Sym^2(P x Jac) by
a product rule, multiplying the five strata that end in e(Sym^N1) by
that factor once.  e(Jac)^2 enters once per wall, after the check.
``strata`` rebuilds the six full strata on request.
``flip_contribution`` is the one memo of checked jumps of both types,
one per wall (t, n), so a wall that any route has built is reused by
every other.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ._memo import memo
from .errors import NonIntegral, OutOfRange, ParityError, StrataMismatch
from .laurent import (
    ONE,
    UV,
    ZERO,
    FractionUV,
    LaurentPoly,
    U,
    V,
    divide_exact,
    halve_exact,
)
from .series import extract, sym_series
from .stability import TripleType, _require_critical
from .rank2 import _critical_stable_core, _wall_kernel, e_m2s_even
from .zoo import (
    _times_jacobian,
    e_affine,
    e_grassmannian,
    e_jacobian,
    e_projective,
    e_sym,
)

__all__ = [
    "FlipContribution",
    "c_n_even",
    "c_n_odd",
    "flip_contribution",
    "strata",
]


@dataclass(frozen=True)
class FlipContribution:
    """Wall-crossing data at the critical value indexed by n.

    N1 and N2 are the projective-fiber dimensions controlling the two
    sides.  For type (3, 1), N1 = d1 - d2 - n and N2 = g - 1 - d1 + 3n/2,
    integral exactly when n is even, so N2 is stored as an exact
    rational.  For type (2, 1), with n = d_m, N1 = d1 - d2 - d_m and
    N2 = 2 d_m - d1 + g - 1.  cn is the jump e(S^+) - e(S^-) of the
    Hodge polynomial across the wall.
    """

    n: int
    N1: int
    N2: Fraction
    cn: FractionUV


# every denominator of the (3, 1) routes divides DEN, so each route sums
# its numerators over DEN and divides once
_DEN = (ONE - UV) ** 2 * (ONE - UV**2)


def _fibers(t: TripleType, n: int, parity: int) -> tuple[int, int]:
    # the one check of a wall index, for the required parity of n:
    # parity, then ranks (3, 1), then a critical integer index; returns
    # N1 and 2 N2, which is even exactly when n is
    if bool(n % 2) != parity:
        other = ("odd", "even")[parity]
        raise ParityError(f"n={n} is {other}; use the {other}-index form")
    if (t.n1, t.n2) != (3, 1):
        raise OutOfRange(f"expected ranks (3, 1), got ({t.n1}, {t.n2})")
    _require_critical(t, n)
    return t.d1 - t.d2 - n, 2 * t.g - 2 - 2 * t.d1 + 3 * n


def _contribution(
    t: TripleType, n: int, n1: int, two_n2: int, c0: LaurentPoly
) -> FlipContribution:
    # the one place a jump of either type gets its factor e(Jac)^2
    cn = FractionUV(_times_jacobian(c0, t.g, 2)).normalize()
    return FlipContribution(n, n1, Fraction(two_n2, 2), cn)


def _closed_cn(t: TripleType, n: int, n1: int, two_n2: int) -> LaurentPoly:
    # C_n / e(Jac)^2, summed over _DEN: the odd-n term, plus at even n
    # the bracket of the extra strata.  Plain * and K from the memo: on
    # the binomial kernel this was slower on the verify grid's small walls
    g = t.g
    num = e_sym(n1, g).poly * (UV**two_n2 - UV ** (2 * n1)) * _wall_kernel(g)
    if n % 2 == 0:
        n2 = two_n2 // 2
        w = sym_series(g, n1 + 1)
        q1, q2, q12 = [UV**-1], [UV**2], [UV**-1, UV**2]
        e1 = extract(w, q1, n1) + UV**-2 * extract(w, q1, n1 - 1)
        e2 = extract(w, q2, n1) + UV**3 * extract(w, q2, n1 - 1)
        e3 = extract(w, q12, n1) - UV * extract(w, q12, n1 - 2)
        # the prefactors' denominators (1 - uv)^2 (1 + uv) and (1 - uv)^2,
        # brought to _DEN by 1 - uv and 1 - (uv)^2
        bracket = (ONE - UV**2) * UV ** (n1 + n2) * e3 - (ONE - UV) * (
            UV ** (2 * n1 + 1) * e1 + UV**two_n2 * e2
        )
        num = num + UV ** (g - 1) * e_jacobian(g).poly * bracket
    # _DEN is cyclotomic in uv, prime to e(Jac)^2, so the jump divides
    # without that factor
    return divide_exact(num, _DEN)


def c_n_odd(t: TripleType, n: int) -> FlipContribution:
    """Wall-crossing data C_n at an odd critical index n.

    Equal to e(Jac)^2 e(Sym^{N1} X) ((uv)^{2 N2} - (uv)^{2 N1}) K / DEN,
    where the wall kernel K is a numerator over
    DEN = (1 - uv)^2 (1 - (uv)^2); only 2*N2 enters, so the
    half-integrality of N2 for odd n never surfaces.
    """
    n1, two_n2 = _fibers(t, n, 1)
    return _contribution(t, n, n1, two_n2, _closed_cn(t, n, n1, two_n2))


@memo
def _strata_bases(g: int) -> tuple[LaurentPoly, LaurentPoly, LaurentPoly]:
    # J - 1, J(-u, -v) - 1 and e(M^s(2, even)) / J, with J = e(Jac) =
    # (1 + u)^g (1 + v)^g, the last read from e_m2s_even's fixed
    # polynomial: built once per genus for the strata, shared and never
    # mutated
    return (
        e_jacobian(g).poly - ONE,
        (ONE - U) ** g * (ONE - V) ** g - ONE,
        e_m2s_even(g).fixed,
    )


def _strata_factors(t: TripleType, n: int, n1: int, two_n2: int) -> tuple:
    # the six strata divided by e(Jac)^2: the first, x1, and the
    # cofactors y2..y6 of the factor js = e(Sym^{N1}) that the other
    # five end in
    g, d1, d2 = t.g, t.d1, t.d2
    n2 = two_n2 // 2
    jac_1, neg_jac_1, m2s_0 = _strata_bases(g)

    def pp(m: int) -> LaurentPoly:
        return e_projective(m).poly

    def affine_cone(m: int) -> LaurentPoly:
        # (uv)^{m-1} * e(P^{m-1}); zero when m < 1
        return e_affine(m - 1).poly * pp(m)

    # x1 is e(Jac) e(N^s(2, 1)) at the wall n/2 times a difference of
    # projective spaces: e(Jac)^3 in all, so one J stays
    t21 = TripleType(2, 1, d1 - n // 2, d2, g)
    core = _critical_stable_core(t21, n // 2)
    p1, p2 = pp(n1), pp(n2)
    x1 = (pp(g - 1 + n1) - pp(g - 1 + n2)) * e_jacobian(g).poly * core
    y2 = (pp(2 * n1) - pp(2 * n2)) * m2s_0
    # J^2 - J = J (J - 1)
    y3 = (pp(2 * n1) - p1 - pp(2 * n2) + p2) * pp(g - 1) * jac_1
    y4 = (affine_cone(n1) - affine_cone(n2)) * pp(g)
    # Sym^2(P^{m-1} x Jac) - e(Jac) Sym^2(P^{m-1}), m = N1 minus m = N2:
    # e(Sym^2 Z) = (e(Z)^2 + e(Z)(-u^2, -v^2)) / 2, and the substitution
    # is a ring map, so Z = P x Jac is never squared; over J, with
    # J(-u^2, -v^2) = J J(-u, -v), the halving still holds, since J is
    # no zero divisor mod 2
    sq, sq_tilde = p1 * p1 - p2 * p2, p1.square_negate() - p2.square_negate()
    try:
        y5 = halve_exact(sq * jac_1 + sq_tilde * neg_jac_1)
    except ValueError as exc:
        raise NonIntegral("Sym^2 stratum has odd coefficients") from exc
    y6 = e_grassmannian(2, n1).poly - e_grassmannian(2, n2).poly
    return x1, [y2, y3, y4, y5, y6], e_sym(n1, g).poly


def strata(t: TripleType, n: int) -> tuple[LaurentPoly, ...]:
    """The six stratum contributions at an even critical index n.

    Plus side minus minus side, in filtration order; they sum to C_n,
    which ``c_n_even`` checks, over e(Jac)^2, whenever it builds the jump.
    """
    x1, ys, js = _strata_factors(t, n, *_fibers(t, n, 0))
    return tuple(
        _times_jacobian(s, t.g, 2) for s in (x1, *(y * js for y in ys))
    )


def c_n_even(t: TripleType, n: int) -> FlipContribution:
    """Wall-crossing data C_n at an even critical index n.

    The closed-form jump is compared exactly with the six strata's sum,
    x1 + (y2 + ... + y6) js, on every call, both divided by e(Jac)^2,
    and a disagreement raises StrataMismatch; ``strata`` returns the
    six strata themselves.
    """
    n1, two_n2 = _fibers(t, n, 0)
    c0 = _closed_cn(t, n, n1, two_n2)
    x1, ys, js = _strata_factors(t, n, n1, two_n2)
    if FractionUV(x1 + sum(ys, ZERO) * js) != c0:
        raise StrataMismatch(
            f"stratum sum disagrees with the closed form at n={n} "
            f"for (3,1,{t.d1},{t.d2}), g={t.g}"
        )
    return _contribution(t, n, n1, two_n2, c0)


@memo
def flip_contribution(t: TripleType, n: int) -> FlipContribution:
    """Wall-crossing data at the critical index n of a (3, 1) or (2, 1) type.

    For (3, 1), n of either parity; for (2, 1), n is the degree d_m of
    the destabilizing line subbundle and C_n = e(Jac)^2 e(Sym^N1)
    (e(P^(N1-1)) - e(P^(N2-1))).  Built once per wall (t, n) and shared
    by every later call.
    """
    ranks = (t.n1, t.n2)
    if ranks == (3, 1):
        return (c_n_odd if n % 2 else c_n_even)(t, n)
    if ranks != (2, 1):
        raise OutOfRange(f"expected ranks (3, 1) or (2, 1), got {ranks}")
    _require_critical(t, n)
    n1, n2 = t.d1 - t.d2 - n, 2 * n - t.d1 + t.g - 1
    c0 = e_sym(n1, t.g).poly * (e_projective(n1).poly - e_projective(n2).poly)
    return _contribution(t, n, n1, 2 * n2, c0)
