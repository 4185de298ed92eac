"""Exact Hodge and Poincare polynomials for moduli of triples and bundles.

The package computes, in exact integer arithmetic, Hodge polynomials
e(u, v) of:

* moduli spaces of sigma-stable holomorphic triples of ranks (2, 1) and
  (3, 1) over a smooth projective curve of genus g >= 2,
* moduli of stable bundles of rank 2 (odd degree, and the even-degree
  stable locus) and rank 3 (degree coprime to 3),
* the supporting zoo of auxiliary varieties (projective spaces,
  Grassmannians, Jacobians, symmetric powers, symmetric-square
  quotients).

Every rank-(3, 1) and rank-(2, 1) triple value can be computed along two
independent routes (a closed-form generating function and a
wall-crossing sum over flip loci).  The command line
``triplehodge verify`` cross-checks both routes on every (3, 1) chamber,
and replays each (2, 1) wall against the closed chambers through the
jump record that the flip sum adds up.
"""

from .errors import (
    CriticalSigma,
    DegeneratePoles,
    NonDivisible,
    NonIntegral,
    NotCritical,
    OrderTooLow,
    OutOfRange,
    ParityError,
    StrataMismatch,
    TripleHodgeError,
)
from .laurent import FractionUV, LaurentPoly, divide_exact
from .series import XSeries, residue_f1, residue_f2
from .zoo import (
    HodgeResult,
    e_affine,
    e_grassmannian,
    e_jacobian,
    e_projective,
    e_sym,
    e_sym2_quotient,
    smooth_projective_failures,
)
from .rank2 import (
    e_m2_odd,
    e_m2_odd_via_pipeline,
    e_m2s_even,
    e_triples21,
    e_triples21_critical_stable,
)
from .stability import (
    Chamber,
    SigmaRange,
    TripleType,
    chamber_bounds,
    chi_triples,
    criticals,
    locate,
    sigma_range,
)
from .flips import FlipContribution, c_n_even, c_n_odd, flip_contribution
from .moduli import (
    e_m3,
    e_m3_via_pipeline,
    e_n31_closed,
    e_n31_flipsum,
    e_triples21_flipsum,
    poincare,
    poincare_m3,
    poincare_n31,
)

__version__ = "0.1.0"

__all__ = [
    "TripleHodgeError",
    "NonDivisible",
    "NonIntegral",
    "OrderTooLow",
    "DegeneratePoles",
    "ParityError",
    "StrataMismatch",
    "CriticalSigma",
    "NotCritical",
    "OutOfRange",
    "LaurentPoly",
    "FractionUV",
    "divide_exact",
    "XSeries",
    "residue_f1",
    "residue_f2",
    "HodgeResult",
    "e_projective",
    "e_affine",
    "e_jacobian",
    "e_sym",
    "e_grassmannian",
    "e_sym2_quotient",
    "smooth_projective_failures",
    "e_m2_odd",
    "e_m2_odd_via_pipeline",
    "e_m2s_even",
    "e_triples21",
    "e_triples21_critical_stable",
    "TripleType",
    "SigmaRange",
    "sigma_range",
    "chi_triples",
    "criticals",
    "chamber_bounds",
    "Chamber",
    "locate",
    "FlipContribution",
    "c_n_odd",
    "c_n_even",
    "flip_contribution",
    "e_n31_closed",
    "e_n31_flipsum",
    "e_triples21_flipsum",
    "e_m3",
    "e_m3_via_pipeline",
    "poincare",
    "poincare_m3",
    "poincare_n31",
]
