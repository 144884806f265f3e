"""Fuzzy subsets of the real line as piecewise-linear membership functions.

A membership function is stored as knot arrays ``(grid, values)``: values
interpolate linearly between knots and are identically zero outside the
knot span.  Trapezoids (triangles when b == c) embed exactly, and the
integral-based imprecision measures have closed forms on this
representation.  Dominance between memberships belongs to the report
stage, ``effectiveness``.

Memberships are not required to be normal (peak value 1); every operation
below is well defined without normality.
"""

import numpy as np

from . import quadrature


class MembershipFn:
    """Piecewise-linear membership function on a strictly increasing grid."""

    def __init__(self, grid, values):
        grid = np.array(grid, dtype=float, copy=True)
        values = np.array(values, dtype=float, copy=True)
        if grid.ndim != 1 or grid.size < 2:
            raise ValueError("grid needs at least two points")
        if values.shape != grid.shape:
            raise ValueError("grid points and values must have matching lengths")
        if not (np.all(np.isfinite(grid)) and np.all(np.isfinite(values))):
            raise ValueError("grid points and values must be finite")
        spacing = np.diff(grid)
        if not np.all(spacing > 0.0):
            raise ValueError("grid points must be strictly increasing")
        if values.min() < 0.0 or values.max() > 1.0:
            raise ValueError("membership values must lie in [0, 1]")
        grid.flags.writeable = False
        values.flags.writeable = False
        self.grid, self.values = grid, values
        # np.interp's slopes overflow on knot spacings below the normal range;
        # such grids are evaluated after one exact power-of-two rescale of the
        # abscissas (to below 2**1000), which keeps those spacings normal
        self._shift = 0
        if spacing.min() < np.finfo(float).tiny:
            self._shift = max(0, 1000 - int(np.frexp(np.abs(grid).max())[1]))
        self._abscissas = np.ldexp(grid, self._shift) if self._shift else grid

    def __call__(self, x):
        """Evaluate the interpolant; zero outside the knot span."""
        if self._shift:
            with np.errstate(over="ignore"):  # beyond the span either way
                x = np.ldexp(x, self._shift)
        return np.interp(x, self._abscissas, self.values, left=0.0, right=0.0)

    def lines(self, x) -> np.ndarray:
        """Intercept and slope of the piece of the interpolant that holds
        each x, down a leading axis of length 2: (0, 0) off the knot span,
        and at the last knot.  A knot spacing below the normal range
        overflows its slope."""
        x0, v0 = self.grid[:-1], self.values[:-1]
        lines = np.zeros((2, self.grid.size + 1))
        lines[1, 1:-1] = (self.values[1:] - v0) / (self.grid[1:] - x0)
        lines[0, 1:-1] = v0 - lines[1, 1:-1] * x0
        return lines[:, np.searchsorted(self.grid, x, side="right")]

    @property
    def support(self) -> tuple[float, float]:
        return float(self.grid[0]), float(self.grid[-1])


def trapezoid(a: float, b: float, c: float, d: float) -> MembershipFn:
    """Trapezoidal membership: 0 at a, rises to 1 on [b, c], back to 0 at d.

    Degenerate corners are allowed (a == b or c == d gives a vertical
    edge, b == c gives a triangle); only a == d is rejected because the
    knot representation needs positive width.
    """
    if not (a <= b <= c <= d):
        raise ValueError("trapezoid corners must satisfy a <= b <= c <= d")
    if a == d:
        raise ValueError("trapezoid support must have positive width (a < d)")
    xs = quadrature.distinct(np.array([a, b, c, d], dtype=float))
    ys = np.ones(xs.size)
    ys[0], ys[-1] = a == b, c == d
    return MembershipFn(xs, ys)


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
