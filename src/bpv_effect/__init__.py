"""Fuzzy-probabilistic return analytics and effectiveness screening.

Securities whose future value is a random variable and whose present
value is a fuzzy number get a fuzzy expected return, a behavioural
variance, energy/entropy imprecision measures, and Pareto-style
effectiveness scores over a finite universe.
"""

from .distribution import FutureValueDist, QuadratureNodes
from .effectiveness import EffectivenessReport, build_report
from .membership import (
    MembershipFn,
    dominance,
    energy_measure,
    entropy_measure,
    trapezoid,
    triangle,
)
from .returns import (
    LOGARITHMIC,
    SIMPLE,
    DegenerateMembershipError,
    EngineSettings,
    ReturnConvention,
    ReturnGrid,
    SecurityProfile,
    convention,
    expected_return,
    expected_return_distribution,
    profile,
    return_variance,
    variance_span,
)

__all__ = [
    "DegenerateMembershipError",
    "EffectivenessReport",
    "EngineSettings",
    "FutureValueDist",
    "LOGARITHMIC",
    "MembershipFn",
    "QuadratureNodes",
    "ReturnConvention",
    "ReturnGrid",
    "SIMPLE",
    "SecurityProfile",
    "build_report",
    "convention",
    "dominance",
    "energy_measure",
    "entropy_measure",
    "expected_return",
    "expected_return_distribution",
    "profile",
    "return_variance",
    "trapezoid",
    "triangle",
    "variance_span",
]
