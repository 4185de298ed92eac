"""Stability ranges, critical values, and chambers for holomorphic triples.

A triple of type (n1, n2, d1, d2) on a genus-g curve is a pair of bundles
E1, E2 of ranks n1, n2 and degrees d1, d2 together with a map E2 -> E1.
Stability depends on a real parameter sigma; the moduli space changes only
when sigma crosses one of finitely many critical values, and is constant
on the open chambers in between.  criticals is the one list of a
type's walls, and locate is the one place a moduli query's sigma (or
chamber index) is resolved, checked and placed in its chamber.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import CriticalSigma, NotCritical, OutOfRange

__all__ = [
    "Chamber",
    "SigmaRange",
    "TripleType",
    "chamber_bounds",
    "chi_triples",
    "criticals",
    "locate",
    "sigma_range",
]


@dataclass(frozen=True)
class TripleType:
    """Discrete invariants (n1, n2, d1, d2) of a triple on a genus-g curve."""

    n1: int
    n2: int
    d1: int
    d2: int
    g: int

    def __post_init__(self) -> None:
        for name in ("n1", "n2", "d1", "d2", "g"):
            value = getattr(self, name)
            if not isinstance(value, int):
                raise TypeError(f"{name} must be an integer, got {value!r}")
        if self.g < 2:
            raise OutOfRange(f"genus must be at least 2, got {self.g}")
        if self.n1 < 0 or self.n2 < 0:
            raise OutOfRange("ranks must be nonnegative")
        if self.n1 == 0 and self.n2 == 0:
            raise OutOfRange("ranks must not both be zero")


@dataclass(frozen=True)
class SigmaRange:
    """Interval of allowed stability parameters with its critical values.

    sigma ranges over (sigma_m, sigma_M]; sigma_M is None when the range
    is unbounded (equal ranks).  criticals is the increasing tuple of
    values inside the range where strictly semistable triples appear.
    """

    sigma_m: Fraction
    sigma_M: Fraction | None
    criticals: tuple[Fraction, ...]

    @property
    def empty(self) -> bool:
        """True when sigma_M < sigma_m: no stable triples for any sigma."""
        return self.sigma_M is not None and self.sigma_M < self.sigma_m


@dataclass(frozen=True)
class Chamber:
    """The open chamber (lo, hi) holding a resolved query sigma.

    wall is the index of the critical value hi: the degree n of the
    destabilizing quotient for type (3, 1), the degree d_m of the
    destabilizing subbundle for type (2, 1).  The closed formulas are
    cut there.
    """

    sigma: Fraction
    lo: Fraction
    hi: Fraction
    wall: int


def sigma_range(t: TripleType) -> SigmaRange:
    """Allowed sigma interval and critical values for the type t.

    Critical values are enumerated for the ranks (2,1) and (3,1) that
    the closed-form results cover; other rank pairs get the interval
    with an empty critical list.
    """
    if t.n1 == 0 or t.n2 == 0:
        raise OutOfRange("sigma range needs both ranks positive")
    mu1 = Fraction(t.d1, t.n1)
    mu2 = Fraction(t.d2, t.n2)
    sigma_m = mu1 - mu2
    if t.n1 == t.n2:
        sigma_big: Fraction | None = None
    else:
        factor = 1 + Fraction(t.n1 + t.n2, abs(t.n1 - t.n2))
        sigma_big = factor * (mu1 - mu2)
    walls = tuple(Fraction(s) for _, s in criticals(t))
    return SigmaRange(sigma_m=sigma_m, sigma_M=sigma_big, criticals=walls)


def criticals(t: TripleType) -> list[tuple[int, int]]:
    """The walls of t as (index, sigma_c) pairs, increasing.

    For type (3, 1), sigma_n = 2n - d1 - d2 is indexed by the degree n
    of the rank-1 destabilizing quotient, over 2*d1/3 < n <= d1 - d2.
    For type (2, 1), sigma_c = 3*d_m - d1 - d2 is indexed by the degree
    d_m of the destabilizing line subbundle, over d1/2 < d_m <= d1 - d2.
    Other rank pairs have no enumerated walls.
    """
    if (t.n1, t.n2) == (3, 1):
        lower, step = (2 * t.d1) // 3 + 1, 2
    elif (t.n1, t.n2) == (2, 1):
        lower, step = t.d1 // 2 + 1, 3
    else:
        return []
    return [
        (i, step * i - t.d1 - t.d2) for i in range(lower, t.d1 - t.d2 + 1)
    ]


def _require_critical(t: TripleType, index: int) -> None:
    """Raise NotCritical unless index is one of the walls of t."""
    indices = [i for i, _ in criticals(t)]
    if index not in indices:
        raise NotCritical(
            f"index {index} is not critical for "
            f"({t.n1},{t.n2},{t.d1},{t.d2}); criticals are {indices}"
        )


def chamber_bounds(t: TripleType) -> list[tuple[Fraction, Fraction]]:
    """Open chambers (lo, hi) between consecutive critical values.

    The first chamber starts at sigma_m; the last one ends at the top
    critical value, which equals sigma_M for the (2,1) and (3,1) types.
    """
    rng = sigma_range(t)
    if not rng.criticals:
        return []
    cuts = [rng.sigma_m, *rng.criticals]
    return list(zip(cuts[:-1], cuts[1:]))


def locate(
    t: TripleType, sigma=None, chamber: int | None = None
) -> Chamber | None:
    """Resolve a moduli query's (sigma, chamber) pair and place sigma.

    Exactly one of the two must be given; a 1-based chamber index stands
    for that chamber's midpoint.  Returns the open chamber holding sigma,
    or None when sigma lies outside (sigma_m, sigma_M], where the moduli
    space is empty.  A sigma exactly at a critical value raises
    CriticalSigma, since the moduli space is not fine there.
    """
    bounds = chamber_bounds(t)
    if chamber is not None:
        if sigma is not None:
            raise OutOfRange("pass sigma or chamber, not both")
        if not bounds:
            raise OutOfRange(
                f"type ({t.n1},{t.n2},{t.d1},{t.d2}) has no chambers"
            )
        if not 1 <= chamber <= len(bounds):
            raise OutOfRange(
                f"chamber index {chamber} out of range 1..{len(bounds)}"
            )
        lo, hi = bounds[chamber - 1]
        sigma = (lo + hi) / 2
    elif sigma is None:
        raise OutOfRange("either sigma or chamber is required")
    sigma = Fraction(sigma)
    walls = criticals(t)
    values = [s for _, s in walls]
    if sigma in values:
        raise CriticalSigma(
            f"sigma={sigma} is critical for ({t.n1},{t.n2},{t.d1},{t.d2})",
            criticals=values,
        )
    # the chambers and their upper walls tile (sigma_m, sigma_M]
    for (lo, hi), (wall, _) in zip(bounds, walls):
        if lo < sigma < hi:
            return Chamber(sigma, lo, hi, wall)
    return None


def chi_triples(tq: TripleType, ts: TripleType) -> int:
    """Euler characteristic chi(T'', T') of the hom-complex of two triples.

    tq plays T'' and ts plays T'; both must live on a curve of the same
    genus.  Flip loci are fibered in projective or affine spaces whose
    dimensions are read off from -chi of destabilizing pairs.
    """
    if tq.g != ts.g:
        raise OutOfRange(f"genus mismatch: {tq.g} != {ts.g}")
    g = tq.g
    rank_part = (1 - g) * (
        tq.n1 * ts.n1 + tq.n2 * ts.n2 - tq.n2 * ts.n1
    )
    degree_part = (
        tq.n1 * ts.d1
        - ts.n1 * tq.d1
        + tq.n2 * ts.d2
        - ts.n2 * tq.d2
        - tq.n2 * ts.d1
        + ts.n1 * tq.d2
    )
    return rank_part + degree_part
