"""Fuzzy subsets of the real line as piecewise-linear membership functions.

A membership function is stored as knot arrays ``(grid, values)``: values
interpolate linearly between knots and are identically zero outside the
knot span.  Trapezoid and triangle shapes embed exactly, and the
integral-based imprecision measures and the sup-min dominance degree all
have closed forms on this representation.

Memberships are not required to be normal (peak value 1).  Every operation
below is well defined without normality; in particular ``dominance(m, m)``
equals the peak of ``m``, which is 1 only for normal memberships.
"""

from dataclasses import dataclass

import numpy as np

from . import quadrature


@dataclass(frozen=True, eq=False)
class MembershipFn:
    """Piecewise-linear membership function on a strictly increasing grid."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        grid = np.array(self.grid, dtype=float, copy=True)
        values = np.array(self.values, dtype=float, copy=True)
        if grid.ndim != 1 or grid.size < 2:
            raise ValueError("grid needs at least two points")
        if values.shape != grid.shape:
            raise ValueError("grid and values must have matching lengths")
        if not (np.all(np.isfinite(grid)) and np.all(np.isfinite(values))):
            raise ValueError("grid and values must be finite")
        if not np.all(np.diff(grid) > 0.0):
            raise ValueError("grid must be strictly increasing")
        if values.min() < 0.0 or values.max() > 1.0:
            raise ValueError("membership values must lie in [0, 1]")
        grid.flags.writeable = False
        values.flags.writeable = False
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    def __call__(self, x):
        """Evaluate the interpolant; zero outside the knot span."""
        return np.interp(x, self.grid, self.values, left=0.0, right=0.0)

    @property
    def support(self) -> tuple[float, float]:
        return float(self.grid[0]), float(self.grid[-1])

    @property
    def peak(self) -> float:
        return float(self.values.max())

    def shift(self, offset: float) -> "MembershipFn":
        """Translate all abscissae by ``offset``."""
        return MembershipFn(self.grid + offset, self.values)

    def scale(self, factor: float) -> "MembershipFn":
        """Scale all abscissae by a positive ``factor``."""
        if factor <= 0.0:
            raise ValueError("scale factor must be positive")
        return MembershipFn(self.grid * factor, self.values)


def trapezoid(a: float, b: float, c: float, d: float) -> MembershipFn:
    """Trapezoidal membership: 0 at a, rises to 1 on [b, c], back to 0 at d.

    Degenerate corners are allowed (a == b or c == d gives a vertical
    edge, b == c gives a triangle); only a == d is rejected because the
    knot representation needs positive width.
    """
    if not (a <= b <= c <= d):
        raise ValueError("trapezoid corners must satisfy a <= b <= c <= d")
    if a == d:
        raise ValueError("trapezoid support must have positive width")
    corner_values = [(a, 1.0 if a == b else 0.0), (b, 1.0), (c, 1.0), (d, 1.0 if c == d else 0.0)]
    xs: list[float] = []
    ys: list[float] = []
    for x, y in corner_values:
        if xs and x == xs[-1]:
            ys[-1] = max(ys[-1], y)
        else:
            xs.append(x)
            ys.append(y)
    return MembershipFn(np.array(xs), np.array(ys))


def triangle(a: float, b: float, c: float) -> MembershipFn:
    """Triangular membership peaking at b."""
    return trapezoid(a, b, b, c)


def energy_measure(m: MembershipFn) -> float:
    """Ambiguity of a fuzzy set: A / (1 + A) with A the area under m.

    Always in [0, 1); zero exactly for an identically-zero membership.
    """
    area = quadrature.integrate(m.grid, m.values)
    return area / (1.0 + area)


def entropy_measure(m: MembershipFn) -> float:
    """Indistinctness of a fuzzy set: B / (1 + B) with B the area under
    min(m, 1 - m).

    Always in [0, 1) and never exceeds ``energy_measure(m)``; zero exactly
    when the interpolant takes no value strictly between 0 and 1, e.g. for
    a crisp plateau.
    """
    area = quadrature.min_complement_area(m.grid, m.values)
    return area / (1.0 + area)


def _suffix_max(values: np.ndarray) -> np.ndarray:
    return np.maximum.accumulate(values[::-1])[::-1]


def _sup_from_right(m: MembershipFn, points) -> np.ndarray:
    """sup of m over [p, +inf) for each p: the nonincreasing right envelope."""
    points = np.asarray(points, dtype=float)
    tail_max = _suffix_max(m.values)
    idx = np.searchsorted(m.grid, points, side="left")
    inside = idx < m.grid.size
    tail = np.where(inside, tail_max[np.minimum(idx, m.grid.size - 1)], 0.0)
    return np.maximum(m(points), tail)


def _envelope_breakpoints(m: MembershipFn) -> np.ndarray:
    """Abscissae where a knot segment crosses the level reached to its right.

    Together with the knots these are all breakpoints of the right
    envelope of m.
    """
    tail_max = _suffix_max(m.values)
    y0, y1 = m.values[:-1], m.values[1:]
    level = tail_max[1:]
    crosses = (y0 - level) * (y1 - level) < 0.0
    if not np.any(crosses):
        return np.empty(0)
    t = (level[crosses] - y0[crosses]) / (y1[crosses] - y0[crosses])
    x0, x1 = m.grid[:-1][crosses], m.grid[1:][crosses]
    return x0 + t * (x1 - x0)


def dominance(k: MembershipFn, l: MembershipFn) -> float:
    """Degree to which the fuzzy quantity k is greater than or equal to l.

    Computes sup over u >= v of min(k(u), l(v)) exactly.  The inner sup
    over u collapses to the nonincreasing right envelope
    g(v) = sup_{u >= v} k(u), and sup_v min(g(v), l(v)) is attained either
    at a breakpoint of g or l or at a crossing of the two inside a merged
    segment, so evaluating those finitely many candidates is exact.
    """
    candidates = np.unique(np.concatenate((k.grid, l.grid, _envelope_breakpoints(k))))
    envelope = _sup_from_right(k, candidates)
    other = l(candidates)
    best = float(np.max(np.minimum(envelope, other)))
    if best >= 1.0:
        return 1.0

    # Crossing refinement: on each open interval between candidates both
    # functions are linear, pinned down exactly by two interior samples.
    x0, x1 = candidates[:-1], candidates[1:]
    m1 = x0 + (x1 - x0) / 3.0
    m2 = x0 + 2.0 * (x1 - x0) / 3.0
    g1, g2 = _sup_from_right(k, m1), _sup_from_right(k, m2)
    l1, l2 = l(m1), l(m2)
    # Intervals a few ulp wide can round to width 0; their nonfinite
    # slopes give a nonfinite crossing, which the mask below drops.
    width = m2 - m1
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        slope_g = (g2 - g1) / width
        slope_l = (l2 - l1) / width
        t = (l1 - g1) / (slope_g - slope_l)
    at = m1 + t
    inside = np.isfinite(at) & (at > x0) & (at < x1)
    if np.any(inside):
        t_in = t[inside]
        crossing = np.minimum(
            g1[inside] + slope_g[inside] * t_in, l1[inside] + slope_l[inside] * t_in
        )
        best = max(best, float(np.max(crossing)))
    return min(max(best, 0.0), 1.0)
