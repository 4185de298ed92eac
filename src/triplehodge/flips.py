"""Wall-crossing contributions for triples of type (3, 1).

Crossing the critical value sigma_n = 2n - d1 - d2 replaces the flip
locus S^- by S^+, and the Hodge polynomial jumps by

    C_n = e(S^+) - e(S^-).

For odd n both loci are projective bundles over a common base and C_n has
a short closed form; for even n the loci stratify into six pieces indexed
by the shape of the destabilizing filtration, and the closed form is
cross-checked against the stratum-by-stratum sum on every call of
``c_n_even`` or ``flip_contribution``.  The flip-sum route reads each
jump through ``_wall_jump``, which keeps only the checked polynomial,
so there each wall is built and checked once per process.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .errors import OutOfRange, ParityError, StrataMismatch
from .laurent import ONE, U2V, UV, UV2, ZERO, FractionUV, LaurentPoly, U, V
from .series import extract, sym_series
from .stability import TripleType, _require_critical
from .rank2 import e_m2s_even, e_triples21_critical_stable
from .zoo import (
    e_affine,
    e_grassmannian,
    e_jacobian,
    e_projective,
    e_sym,
    e_sym2_quotient,
)

__all__ = [
    "FlipContribution",
    "c_n_even",
    "c_n_odd",
    "flip_contribution",
]


@dataclass(frozen=True)
class FlipContribution:
    """Wall-crossing data at the critical value indexed by n.

    N1 = d1 - d2 - n and N2 = g - 1 - d1 + 3n/2 are the projective-fiber
    dimensions controlling the two sides; N2 is integral exactly when n
    is even, so it is stored as an exact rational.  cn is the jump
    e(S^+) - e(S^-) of the Hodge polynomial across the wall.  For even n
    the six stratum contributions (plus side minus minus side, in
    filtration order) are recorded as well.
    """

    n: int
    N1: int
    N2: Fraction
    cn: FractionUV
    strata: tuple[FractionUV, ...] | None = None


@cache
def _wall_kernel(g: int) -> FractionUV:
    # common rational factor of every wall-crossing term; equals
    # e(M(2,odd)) * (1 - uv) up to the (1-(uv)^2) normalization
    num = (ONE + U2V) ** g * (ONE + UV2) ** g - UV**g * (ONE + U) ** g * (
        ONE + V
    ) ** g
    den = (ONE - UV) ** 2 * (ONE - UV**2)
    return FractionUV(num, den)


@cache
def _wall_jump(t: TripleType, n: int) -> LaurentPoly:
    # C_n as a polynomial, computed (and for even n strata-checked) once
    # per wall; the strata are not kept, so the cache holds one
    # polynomial per wall
    return flip_contribution(t, n).cn.as_polynomial()


def _validate_critical(t: TripleType, n: int) -> None:
    if (t.n1, t.n2) != (3, 1):
        raise OutOfRange(f"expected ranks (3, 1), got ({t.n1}, {t.n2})")
    _require_critical(t, n)


def _contribution(
    t: TripleType,
    n: int,
    cn: FractionUV,
    strata: tuple[FractionUV, ...] | None = None,
) -> FlipContribution:
    n1 = t.d1 - t.d2 - n
    n2 = Fraction(2 * t.g - 2 - 2 * t.d1 + 3 * n, 2)
    return FlipContribution(n, n1, n2, cn.normalize(), strata)


def c_n_odd(t: TripleType, n: int) -> FlipContribution:
    """Wall-crossing data C_n at an odd critical index n.

    Equal to e(Jac)^2 e(Sym^{N1} X) ((uv)^{2 N2} - (uv)^{2 N1}) times the
    wall kernel; only 2*N2 enters, so the half-integrality of N2 for odd
    n never surfaces.
    """
    if n % 2 == 0:
        raise ParityError(f"n={n} is even; use the even-index form")
    _validate_critical(t, n)
    g = t.g
    n1 = t.d1 - t.d2 - n
    two_n2 = 2 * g - 2 - 2 * t.d1 + 3 * n
    jac = e_jacobian(g).poly
    sym = e_sym(n1, g).poly
    jump = FractionUV(jac * jac * sym * (UV**two_n2 - UV ** (2 * n1)))
    return _contribution(t, n, jump * _wall_kernel(g))


def _closed_even(t: TripleType, n: int) -> FractionUV:
    g = t.g
    n1 = t.d1 - t.d2 - n
    n2 = g - 1 - t.d1 + (3 * n) // 2
    jac = e_jacobian(g).poly
    w = sym_series(g, n1 + 1)
    q1, q2, q12 = [UV**-1], [UV**2], [UV**-1, UV**2]
    e1 = extract(w, q1, n1) + UV**-2 * extract(w, q1, n1 - 1)
    e2 = extract(w, q2, n1) + UV**3 * extract(w, q2, n1 - 1)
    e3 = extract(w, q12, n1) - UV * extract(w, q12, n1 - 2)
    p_shared = UV ** (g - 1) * jac
    p1 = FractionUV(p_shared, (ONE - UV) ** 2 * (ONE + UV))
    p2 = FractionUV(p_shared, (ONE - UV) ** 2)
    inner = (
        -(p1 * (UV ** (2 * n1 + 1) * e1 + UV ** (2 * n2) * e2))
        + p2 * (UV ** (n1 + n2) * e3)
        + _wall_kernel(g) * ((UV ** (2 * n2) - UV ** (2 * n1)) * w.coeff(n1))
    )
    return FractionUV(jac * jac) * inner


def _strata_even(t: TripleType, n: int) -> tuple[FractionUV, ...]:
    g, d1, d2 = t.g, t.d1, t.d2
    n1 = d1 - d2 - n
    n2 = g - 1 - d1 + (3 * n) // 2
    jac = e_jacobian(g).poly
    sym = e_sym(n1, g).poly

    def pp(m: int) -> LaurentPoly:
        return e_projective(m).poly

    def affine_cone(m: int) -> LaurentPoly:
        # (uv)^{m-1} * e(P^{m-1}); zero when m < 1
        return e_affine(m - 1).poly * pp(m)

    def sym2_mixed(m: int) -> LaurentPoly:
        return (
            e_sym2_quotient(pp(m) * jac).poly
            - jac * e_sym2_quotient(pp(m)).poly
        )

    stable21 = e_triples21_critical_stable(g, d1 - n // 2, d2, n // 2).poly
    x1 = (pp(g - 1 + n1) - pp(g - 1 + n2)) * stable21 * jac
    x2 = (pp(2 * n1) - pp(2 * n2)) * jac * sym * e_m2s_even(g).poly
    x3 = (
        (pp(2 * n1) - pp(n1) - pp(2 * n2) + pp(n2))
        * jac
        * sym
        * (jac * jac - jac)
        * pp(g - 1)
    )
    x4 = (affine_cone(n1) - affine_cone(n2)) * jac * sym * jac * pp(g)
    x5 = jac * sym * (sym2_mixed(n1) - sym2_mixed(n2))
    x6 = (
        jac
        * jac
        * sym
        * (e_grassmannian(2, n1).poly - e_grassmannian(2, n2).poly)
    )
    return tuple(FractionUV(x) for x in (x1, x2, x3, x4, x5, x6))


def c_n_even(t: TripleType, n: int) -> FlipContribution:
    """Wall-crossing data C_n at an even critical index n.

    Returns the closed-form jump together with the six stratum
    contributions; the two are compared exactly on every call and a
    disagreement raises StrataMismatch.
    """
    if n % 2 != 0:
        raise ParityError(f"n={n} is odd; use the odd-index form")
    _validate_critical(t, n)
    closed = _closed_even(t, n)
    strata = _strata_even(t, n)
    total = FractionUV(ZERO)
    for piece in strata:
        total = total + piece
    if total != closed:
        raise StrataMismatch(
            f"stratum sum disagrees with the closed form at n={n} "
            f"for (3,1,{t.d1},{t.d2}), g={t.g}"
        )
    return _contribution(t, n, closed, strata)


def flip_contribution(t: TripleType, n: int) -> FlipContribution:
    """Wall-crossing data at the critical index n of either parity."""
    return (c_n_odd if n % 2 else c_n_even)(t, n)
