"""Fuzzy-probabilistic return analytics.

The present value of a security is a fuzzy number (membership ``mu`` over
prices), its future value a random variable.  Pushing ``mu`` through the
return map state by state and averaging over the future-value law yields
the fuzzy expected return: a membership ``rho`` over return rates.  From
``rho`` come the expected return (its center of mass), the behavioural
return variance, and the energy/entropy imprecision measures.

Two return conventions are shipped, ``SIMPLE`` and ``LOGARITHMIC``, keyed
by kind in ``CONVENTIONS``: the simple rate (V_t / V_0 - 1, only defined
for rates above -1) and the logarithmic rate (ln(V_t / V_0)).
Both are strictly decreasing in the present value, so the per-state
membership of rate r is ``mu`` evaluated at the unique present value that
produces r, and rates outside a convention's domain carry membership 0.
A state-sum view (``views.make``) takes the average over the law.
"""

import math
from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from . import quadrature, views
from .distribution import DiscreteLaw, TruncatedLaw
from .membership import MembershipFn, energy_measure, entropy_measure


class DegenerateMembershipError(ArithmeticError):
    """Raised when an identically-zero fuzzy return leaves a statistic undefined."""


class ReturnConvention(NamedTuple):
    """A return map r(V0, Vt), increasing in Vt, decreasing in V0.

    ``limit`` is the infimum of the convention's rates.  The maps work
    elementwise and check nothing: a rate at or below ``limit`` gives a
    nonpositive or infinite present value.  ``crossing(center, gap, up,
    down)`` gives the coefficients (of u^2, u and 1) of a quadratic whose
    roots are the scales u = ``present_map(center + s, 1)`` at which
    gap + up u = down u', with u' = ``present_map(center - s, 1)``.
    ``cut_ratio`` bounds the ratio of present values a copy spans between
    cuts of the variance rule: graded cuts near a simple rate's pole at -1,
    bounded steps in s for the entire logarithmic copy.
    """

    kind: str
    limit: float
    rate_map: Callable  # (present, future) -> rate
    present_map: Callable  # (rate, future) -> present value
    crossing: Callable  # (center, gap, up, down) -> quadratic coefficients
    cut_ratio: float


SIMPLE = ReturnConvention(
    "simple",
    -1.0,
    rate_map=lambda present, future: future / present - 1.0,
    present_map=lambda rate, future: future / (1.0 + rate),
    # u' = 1 / (2 (1 + center) - 1 / u)
    crossing=lambda center, gap, up, down: (2.0 * (1.0 + center) * up, 2.0 * (1.0 + center) * gap - up - down, -gap),
    cut_ratio=2.0,
)
LOGARITHMIC = ReturnConvention(
    "logarithmic",
    -math.inf,
    rate_map=lambda present, future: np.log(future / present),
    present_map=lambda rate, future: future * np.exp(-rate),
    # u' = exp(-2 center) / u
    crossing=lambda center, gap, up, down: (up, gap, -down * np.exp(-2.0 * center)),
    cut_ratio=math.exp(2.0),
)
CONVENTIONS = {conv.kind: conv for conv in (SIMPLE, LOGARITHMIC)}


# Widest return grid.  The area A under the fuzzy return is at most its span,
# and the energy A / (1 + A) rounds to 1 from A = 2**53 on; the cubed
# deviations of the variance integral stay far below overflow up to here.
MAX_RETURN_SPAN = 2.0**52


class ReturnGrid(NamedTuple):
    """Return-rate abscissae on which the fuzzy expected return is sampled,
    read-only, and the ends of its ``support``, the rates outside which it
    vanishes.  ``spanning`` builds and checks it."""

    r_values: np.ndarray
    support: tuple[float, float]

    @classmethod
    def spanning(
        cls,
        mu: MembershipFn,
        law: DiscreteLaw | TruncatedLaw,
        conv: ReturnConvention,
        count: int,
    ) -> "ReturnGrid":
        """Grid of ``count`` uniform rates, at least 4, covering every rate
        with positive state membership, plus the kink rates when there are at
        most ``count`` of them.

        The raw bounds, each end of the present-value support at the
        opposite end of the law's support (its extreme atom, or the
        quantile at a truncation level), make the fuzzy expected return
        vanish outside the closed interval; one extra grid step of padding
        makes it vanish strictly inside the endpoints, so all knot-based
        integrals are exact over the grid.  The padded lower end is kept
        above the convention's rate limit.

        The fuzzy return bends only at the kink rates ``rate_map(x_k, y_j)``
        of knots x_k and the law's ``nodes`` y_j, and is smooth between
        them: a discrete law's atoms, or a continuous law's support ends,
        where a truncated law's fuzzy return can rise almost as a step under
        a narrow membership.  When knots * nodes <= ``count``, the kinks
        strictly inside the uniform grid join it, once each, so linear
        interpolation never cuts across a bend; otherwise the grid stays
        uniform.  The uniform rates must be finite, strictly increasing and
        span at most ``MAX_RETURN_SPAN``, checked here and only here; the
        rates come back read-only.
        """
        if count < 4:
            raise ValueError("return grid needs at least four points")
        s_lo, s_hi = mu.support
        if s_lo <= 0.0:
            raise ValueError("present-value membership support must be positive")
        y_lo, y_hi = float(law.nodes[0]), float(law.nodes[-1])
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            r_lo, r_hi = float(conv.rate_map(s_hi, y_lo)), float(conv.rate_map(s_lo, y_hi))
        pad = (r_hi - r_lo) / (count - 1)
        if not (math.isfinite(r_lo) and math.isfinite(r_hi + pad)):
            raise ValueError(f"return span {r_lo:.6g} to {r_hi:.6g} is out of floating-point range")
        lower = max(r_lo - pad, (r_lo + conv.limit) / 2.0)
        r = np.linspace(lower, r_hi + pad, count)
        if not np.all(np.diff(r) > 0.0):
            raise ValueError("return grid must be strictly increasing")
        if r[-1] - r[0] > MAX_RETURN_SPAN:
            raise ValueError(f"return span {r[0]:.6g} to {r[-1]:.6g} is wider than 2**52, "
                             "where the energy can round to 1")
        if mu.grid.size * law.nodes.size <= count:
            kinks = conv.rate_map(mu.grid[:, None], law.nodes).ravel()
            r = quadrature.distinct(np.concatenate((r, kinks[(kinks > r[0]) & (kinks < r[-1])])))
        r.flags.writeable = False
        return cls(r, (r_lo, r_hi))


class SecurityProfile:
    """Per-security screening results, checked as they are made: the fuzzy
    return ``rho`` (a ``MembershipFn``) and the floats ``expected_return``,
    ``variance``, ``energy`` and ``entropy``."""

    def __init__(self, rho, expected_return, variance, energy, entropy):
        if not variance >= 0.0:  # NaN too, which every gate comparison would read as false
            raise ValueError("variance must be nonnegative")
        if not (0.0 <= energy < 1.0 and 0.0 <= entropy < 1.0):
            raise ValueError("energy and entropy must lie in [0, 1)")
        if entropy > energy + 1e-12:
            raise ValueError("entropy cannot exceed energy")
        self.rho, self.expected_return, self.variance, self.energy, self.entropy = (
            rho, expected_return, variance, energy, entropy)


def expected_return_distribution(view, grid: ReturnGrid) -> MembershipFn:
    """Fuzzy expected return on ``grid``: the state memberships of one
    security's ``view`` averaged over its future-value law.

    The average is exact for the polyline ``mu`` in every view: over a
    discrete law's atoms knot by knot in O(rates * knots * log atoms) or atom
    by atom in O(rates * atoms), and over a continuous law in closed form in
    O(rates * knots).
    """
    return MembershipFn(grid.r_values, np.clip(view.state_sum(grid.r_values), 0.0, 1.0))


def expected_return(rho: MembershipFn) -> float:
    """Center of mass of the fuzzy expected return (knot-exact integrals)."""
    denominator = quadrature.integrate(rho.grid, rho.values)
    if denominator == 0.0:
        raise DegenerateMembershipError("degenerate membership: expected return undefined")
    return quadrature.first_moment(rho.grid, rho.values) / denominator


# Gauss-Legendre points on each interval between the variance kernel's
# breakpoints, and the most such intervals: a law with more knots x nodes, or
# more breakpoints, takes that many intervals uniform in s^2 instead
BREAKPOINT_GAUSS_POINTS = 8
MAX_BREAKPOINT_INTERVALS = 128


def _level_pairs(mu: MembershipFn) -> tuple[np.ndarray, np.ndarray]:
    """Present values p < q at which ``mu`` takes one level, a knot's value,
    with p or q that knot, ``mu`` read with a knot at level 0 at each span
    end (a vertical edge takes every level up to its knot's).  Where copy +
    of a future value y reaches p as copy - of y reaches q (q u = p u'), the
    copies cross at a knot of one: a continuous law's kernel bends there.
    Flat and vertical pieces divide by 0, which the caller ignores."""
    x = np.concatenate((mu.grid[:1], mu.grid, mu.grid[-1:]))
    v = np.concatenate(([0.0], mu.values, [0.0]))
    level = v[:, None]
    share = (level - v[:-1]) / (v[1:] - v[:-1])  # knot, piece
    # where each knot's level is met: strictly inside a piece, or at a knot
    points = np.concatenate((np.where((share > 0.0) & (share < 1.0), x[:-1] + share * (x[1:] - x[:-1]), np.nan),
                             np.where(level == v, x, np.nan)), axis=1)
    p, q = np.minimum(x[:, None], points), np.maximum(x[:, None], points)
    apart = p < q
    return p[apart], q[apart]


def _breakpoints(view, center: float, far: float) -> np.ndarray:
    """Sorted distinct cuts of [0, far] between which the variance kernel is
    smooth: 0, ``far``, the deviations |``rate_map(x_k, y_j)`` - center|
    where a copy of a node y_j (an atom, or a continuous law's support end)
    meets a knot x_k, where the two copies of one node cross, and, in a view
    without atoms (``has_atoms``), the level coincidences (``_level_pairs``)
    of a continuous law.  Present values
    ``cut_ratio`` apart across the span of ``mu`` join its knots if they fit.

    Between consecutive cuts of a node's column each copy stays on the
    piece of ``mu`` it takes at the midpoint (``MembershipFn.lines``),
    linear in y u at the scale u = ``present_map(r, 1)``, so the copies
    cross at the roots of ``ReturnConvention.crossing``; a coincidence (p,
    q) is a root of it with no gap, q up and p down, on (0, far).  Rounding
    can leave a root of a meeting at a cut (s = 0, or both copies at 0 or 1)
    just inside its interval, so a root counts only farther than sqrt(eps)
    of the width from both ends, which moves the interval's sum by about eps.

    A law with more than ``MAX_BREAKPOINT_INTERVALS`` knots x nodes, or more
    intervals, takes that many intervals uniform in s^2: the integrands grow
    with s, and a many-atom law's costly shared atoms lie at small s.
    """
    mu, conv, y, x = view.mu, view.conv, view.y, view.mu.grid
    if x.size * y.size <= MAX_BREAKPOINT_INTERVALS:
        extra = int((math.log(x[-1]) - math.log(x[0])) / math.log(conv.cut_ratio))
        if extra and (x.size + extra) * y.size <= MAX_BREAKPOINT_INTERVALS:
            x = np.concatenate((x, x[0] * conv.cut_ratio ** np.arange(1.0, extra + 1.0)))
        ends = np.zeros((x.size + 2, y.size))  # each node's cuts: 0, its kink deviations, far
        ends[1:-1] = np.sort(np.minimum(np.abs(conv.rate_map(x[:, None], y) - center), far), axis=0)
        ends[-1] = far
        a, b = ends[:-1], ends[1:]  # interval, node
        with np.errstate(all="ignore"):  # a slope or a root may overflow, or a root leave the domain
            # the line of each copy, the upper first, at each interval's midpoint
            level, rise = mu.lines(conv.present_map(center + (a + b) * np.array((0.5, -0.5))[:, None, None], y))
            terms = np.concatenate((level[:1] - level[1:], rise * y, a[None], b[None])).reshape(5, -1)
            if not view.has_atoms:
                p, q = _level_pairs(mu)
                terms = np.concatenate((terms, (0.0 * p, q, p, 0.0 * p, 0.0 * p + far)), axis=1)
            gap, up, down, a, b = terms
            q2, q1, q0 = conv.crossing(center, gap, up, down)
            half = -0.5 * (q1 + np.copysign(np.sqrt(q1 * q1 - 4.0 * q2 * q0), q1))
            roots = conv.rate_map(np.array((half / q2, q0 / half)), 1.0) - center
            margin = (b - a) * 2.0**-26
            roots = roots[(roots > a + margin) & (roots < b - margin)]
        cuts = quadrature.distinct(np.concatenate((ends.ravel(), roots)))  # an empty interval would cost its steps
        if cuts.size <= MAX_BREAKPOINT_INTERVALS + 1:
            return cuts
    return far * np.sqrt(np.linspace(0.0, 1.0, MAX_BREAKPOINT_INTERVALS + 1))


def return_variance(view, center: float, support: tuple[float, float]) -> float:
    """Behavioural variance of the return rate around ``center``, from one
    security's ``view`` and the ends of its fuzzy return's ``support``
    (``ReturnGrid.support``).

    The kernel K at deviation s is the larger of the two state memberships
    at center +/- s, averaged over the future-value law; the variance is
    V = int 2 s^3 K ds / int 2 s K ds, the K-weighted mean of the squared
    deviation.  The average over the law is exact for the polyline ``mu``.
    The kernel vanishes past the deviation of the farther end of the
    fuzzy return's support, so both integrals run from 0 to there.  The
    kernel is smooth between its breakpoints (``_breakpoints``), for a
    discrete or a continuous law alike, so each interval between them takes
    ``BREAKPOINT_GAUSS_POINTS`` Gauss-Legendre points.
    """
    far = max(center - support[0], support[1] - center)
    steps, weights = quadrature.gauss_legendre_rule(_breakpoints(view, center, far), BREAKPOINT_GAUSS_POINTS)
    weights = weights * steps
    kernel = view.kernel(center, steps)
    denominator = weights @ kernel
    if denominator == 0.0:
        raise DegenerateMembershipError("degenerate membership: variance undefined")
    return float((weights * steps * steps) @ kernel / denominator)


def profile(
    mu: MembershipFn,
    law: DiscreteLaw | TruncatedLaw,
    conv: ReturnConvention,
    grid_points: int = 801,
) -> SecurityProfile:
    """Full screening profile of one security, its fuzzy return sampled on
    the grid ``ReturnGrid.spanning`` builds from ``grid_points`` uniform rates.

    Raises DegenerateMembershipError when the fuzzy expected return is
    identically zero (e.g. an all-zero present-value membership).
    """
    grid = ReturnGrid.spanning(mu, law, conv, grid_points)
    view = views.make(mu, conv, law)
    rho = expected_return_distribution(view, grid)
    center = expected_return(rho)
    variance = return_variance(view, center, grid.support)
    return SecurityProfile(
        rho=rho,
        expected_return=center,
        variance=variance,
        energy=energy_measure(rho),
        entropy=entropy_measure(rho),
    )
