"""Closed-form integrals of piecewise-linear functions given by knot arrays.

Everything here is exact for the polyline through the knots; sampled
integrands (anything that is not piecewise linear) go through
``integrate`` applied to their samples, which is the plain trapezoid rule.
"""

import numpy as np


def integrate(x, y) -> float:
    """Exact integral of the polyline: sum of segment trapezoid areas."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return float(np.sum(np.diff(x) * (y[:-1] + y[1:])) / 2.0)


def first_moment(x, y) -> float:
    """Exact integral of t * f(t) for the polyline f."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    x0, x1 = x[:-1], x[1:]
    y0, y1 = y[:-1], y[1:]
    return float(np.sum((x1 - x0) * (x0 * (2.0 * y0 + y1) + x1 * (y0 + 2.0 * y1)) / 6.0))


def min_complement_area(x, y) -> float:
    """Exact integral of min(f(t), 1 - f(t)) for the polyline f.

    Segments are split where f crosses 1/2, so the integrand is linear on
    every sub-segment and the trapezoid formula is exact.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    dx = np.diff(x)
    y0, y1 = y[:-1], y[1:]
    w0 = np.minimum(y0, 1.0 - y0)
    w1 = np.minimum(y1, 1.0 - y1)
    plain = (w0 + w1) / 2.0 * dx
    crosses = (y0 - 0.5) * (y1 - 0.5) < 0.0
    dy = np.where(crosses, y1 - y0, 1.0)
    t = np.where(crosses, (0.5 - y0) / dy, 0.0)
    split = ((w0 + 0.5) / 2.0) * t * dx + ((0.5 + w1) / 2.0) * (1.0 - t) * dx
    return float(np.sum(np.where(crosses, split, plain)))
