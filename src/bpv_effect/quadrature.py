"""Closed-form integrals of piecewise-linear functions given by knot arrays,
the Gauss-Legendre rule, and the sorted distinct values of an array.

The polyline integrals are exact for the polyline through the knots.
Smooth integrands sampled between cuts go through ``gauss_legendre_rule``.
"""

import functools

import numpy as np


def distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values of ``values``, sorted: the first of each run of
    equal values.  ``np.unique`` would import ``numpy.ma``, about 2 MB, into
    a fresh process on its first call, so nothing in the package calls it."""
    values = np.sort(values)
    return values[np.append(True, values[1:] != values[:-1])]


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


@functools.cache
def gauss_legendre(n: int):
    """Nodes on (-1, 1) and weights of the n-point Gauss-Legendre rule, by
    Newton's method on the Legendre recurrence from Tricomi's first guess."""
    x = np.cos(np.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    for _ in range(10):  # four steps reach the rounding level at n = 64
        below, legendre = np.ones(n), x
        for k in range(2, n + 1):
            below, legendre = legendre, ((2 * k - 1) * x * legendre - (k - 1) * below) / k
        slope = n * (x * legendre - below) / (x * x - 1.0)
        step = legendre / slope
        x = x - step
        if np.max(np.abs(step)) <= 1e-15:
            break
    return x, 2.0 / ((1.0 - x * x) * slope * slope)


def gauss_legendre_rule(cuts, points: int):
    """Abscissas and weights of the ``points``-point Gauss-Legendre rule on
    each interval between the sorted ``cuts``, as flat arrays."""
    nodes, weights = gauss_legendre(points)
    half = (cuts[1:] - cuts[:-1])[:, None] / 2.0
    return (cuts[:-1, None] + half * (nodes + 1.0)).ravel(), (half * weights).ravel()
