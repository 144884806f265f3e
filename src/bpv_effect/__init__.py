"""Fuzzy-probabilistic return analytics and effectiveness screening.

Securities whose future value is a random variable and whose present
value is a fuzzy number get a fuzzy expected return, a behavioural
variance, energy/entropy imprecision measures, and Pareto-style
effectiveness scores over a finite universe.  The package exports what a
screen needs; the submodules hold the rest.
"""

from .distribution import DiscreteLaw, TruncatedLaw
from .effectiveness import build_report
from .membership import MembershipFn, trapezoid
from .returns import CONVENTIONS, LOGARITHMIC, SIMPLE, profile

__all__ = [
    "CONVENTIONS",
    "DiscreteLaw",
    "LOGARITHMIC",
    "MembershipFn",
    "SIMPLE",
    "TruncatedLaw",
    "build_report",
    "profile",
    "trapezoid",
]
