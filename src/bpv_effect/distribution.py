"""Probability distributions of future security value on the positive reals.

A law is held as what its quadrature needs.  A discrete law (finite atoms)
holds its atoms as quadrature nodes and admits no truncation.  A normal or
lognormal law holds its map from standard-normal quantiles to values and
two quantile levels: the truncated law is the image of a uniform draw on
(lo, hi) under the base quantile function, so truncating at (0, 1) changes
nothing.  A normal law must be truncated so that its support stays
positive.
"""

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

# Standard-normal quantile (Wichura's AS241), elementwise.
_STANDARD_NORMAL = NormalDist()
_ndtri = np.vectorize(_STANDARD_NORMAL.inv_cdf, otypes=[float])


@functools.lru_cache(maxsize=8)
def _midpoint_quantiles(n: int, lo: float, hi: float) -> np.ndarray:
    """Standard-normal quantiles at the probability midpoints (i - 1/2)/n of
    the levels (lo, hi), read-only; a screen asks for the same few tables
    once per security."""
    z = _ndtri(lo + (np.arange(n) + 0.5) / n * (hi - lo))
    z.flags.writeable = False
    return z


def truncation_levels(levels) -> tuple[float, float]:
    """The quantile levels ``[lo, hi]`` as a float pair, checked: 0 <= lo < hi <= 1."""
    if len(levels) != 2 or not (0.0 <= levels[0] < levels[1] <= 1.0):
        raise ValueError(f"truncation must be a pair [lo, hi] with 0 <= lo < hi <= 1 (got {list(levels)!r})")
    return float(levels[0]), float(levels[1])


def _require_finite(family: str, **params: float) -> None:
    for name, value in params.items():
        if not math.isfinite(value):
            raise ValueError(f"{family} family needs a finite {name} (got {value!r})")


@dataclass(frozen=True, eq=False)
class QuadratureNodes:
    """Discretization of a future-value law: finite positive nodes with weights summing to 1."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.array(self.nodes, dtype=float, copy=True)
        weights = np.array(self.weights, dtype=float, copy=True)
        if nodes.ndim != 1 or nodes.size == 0 or nodes.shape != weights.shape:
            raise ValueError("nodes and weights must be matching nonempty vectors")
        if not (np.all(np.isfinite(nodes)) and np.all(np.isfinite(weights))):
            raise ValueError("nodes and weights must be finite")
        if nodes[0] <= 0.0 or not np.all(np.diff(nodes) > 0.0):
            raise ValueError("nodes must be strictly increasing and positive")
        if weights.min() < 0.0 or abs(weights.sum() - 1.0) > 1e-10:
            raise ValueError("weights must be nonnegative and sum to 1")
        nodes.flags.writeable = False
        weights.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)


@dataclass(frozen=True, eq=False)
class FutureValueDist:
    """A future-value law as its quadrature rule: the ``atoms`` of a discrete
    law, or for a continuous one ``value_at``, its value at a standard-normal
    quantile, and its truncation ``levels``.  Build it with ``normal``,
    ``lognormal`` or ``discrete``."""

    atoms: QuadratureNodes | None = None
    value_at: Callable[[np.ndarray], np.ndarray] | None = None
    levels: tuple[float, float] = (0.0, 1.0)

    @classmethod
    def normal(cls, mean: float, sd: float, truncation: tuple[float, float]) -> "FutureValueDist":
        mean, sd = float(mean), float(sd)
        levels = truncation_levels(truncation) if truncation is not None else None
        _require_finite("normal", mean=mean, sd=sd)
        if sd <= 0.0:
            raise ValueError("normal family needs sd > 0")
        if levels is None:
            raise ValueError("normal future values must be truncated to keep the support positive")
        if levels[0] == 0.0 or mean + sd * _STANDARD_NORMAL.inv_cdf(levels[0]) <= 0.0:
            raise ValueError("normal truncation must give a positive lower support bound")
        return cls(value_at=lambda z: mean + sd * z, levels=levels)

    @classmethod
    def lognormal(
        cls, log_mean: float, log_sd: float, truncation: tuple[float, float] | None = None
    ) -> "FutureValueDist":
        log_mean, log_sd = float(log_mean), float(log_sd)
        levels = truncation_levels(truncation) if truncation is not None else (0.0, 1.0)
        _require_finite("lognormal", log_mean=log_mean, log_sd=log_sd)
        if log_sd <= 0.0:
            raise ValueError("lognormal family needs log_sd > 0")
        return cls(value_at=lambda z: np.exp(log_mean + log_sd * z), levels=levels)

    @classmethod
    def discrete(cls, points, probs, truncation=None) -> "FutureValueDist":
        """A discrete law admits no truncation: anything but None is rejected."""
        if truncation is not None:
            truncation_levels(truncation)
            raise ValueError("truncation is not supported for discrete future values")
        points = np.array(points, dtype=float)
        probs = np.array(probs, dtype=float)
        if points.ndim != 1 or points.size == 0 or points.shape != probs.shape:
            raise ValueError("points and probs must be matching nonempty vectors")
        if not (np.all(np.isfinite(points)) and np.all(np.isfinite(probs))):
            raise ValueError("points and probs must be finite")
        if points[0] <= 0.0 or not np.all(np.diff(points) > 0.0):
            raise ValueError("points must be strictly increasing and positive")
        if probs.min() < 0.0:
            raise ValueError("probs must be nonnegative")
        if abs(probs.sum() - 1.0) > 1e-12:
            raise ValueError(f"probs must sum to 1 (got {probs.sum():.12g})")
        return cls(atoms=QuadratureNodes(points, probs))

    def make_nodes(self, n: int) -> QuadratureNodes:
        """Quadrature nodes for integrating against this law.

        A discrete law returns its atoms exactly (n is ignored); a
        continuous law uses n equal-weight nodes at the probability
        midpoints (i - 1/2)/n of its truncated law.
        """
        if self.atoms is not None:
            return self.atoms
        if n < 2:
            raise ValueError("continuous families need at least 2 nodes")
        return QuadratureNodes(self.value_at(_midpoint_quantiles(n, *self.levels)), np.full(n, 1.0 / n))
