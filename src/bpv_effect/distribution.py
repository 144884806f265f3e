"""Probability distributions of future security value on the positive reals.

Three families are supported: normal, lognormal, and discrete (finite
atoms).  Continuous families can be truncated between two quantile levels;
the truncated law is the image of a uniform draw on (lo, hi) under the
base quantile function, so truncating at (0, 1) changes nothing.  A normal
family must be truncated so that its support stays positive.  Discrete
families carry their atoms exactly and admit no truncation.
"""

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

_FAMILIES = ("normal", "lognormal", "discrete")

# Standard-normal quantile (Wichura's AS241) and distribution function,
# elementwise.  The CDF goes through erfc rather than NormalDist.cdf, whose
# erf form loses relative accuracy in the lower tail.
_STANDARD_NORMAL = NormalDist()
_ndtri = np.vectorize(_STANDARD_NORMAL.inv_cdf, otypes=[float])
_ndtr = np.vectorize(lambda z: 0.5 * math.erfc(-z / math.sqrt(2.0)), otypes=[float])


@dataclass(frozen=True, eq=False)
class QuadratureNodes:
    """Discretization of a future-value law: positive nodes with weights summing to 1."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.array(self.nodes, dtype=float, copy=True)
        weights = np.array(self.weights, dtype=float, copy=True)
        if nodes.ndim != 1 or nodes.size == 0 or nodes.shape != weights.shape:
            raise ValueError("nodes and weights must be matching nonempty vectors")
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
    """Future-value distribution, optionally truncated between quantile levels."""

    family: str
    mean: float | None = None
    sd: float | None = None
    log_mean: float | None = None
    log_sd: float | None = None
    points: np.ndarray | None = None
    probs: np.ndarray | None = None
    truncation: tuple[float, float] | None = None

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.truncation is not None:
            lo, hi = self.truncation
            if not (0.0 <= lo < hi <= 1.0):
                raise ValueError("truncation levels must satisfy 0 <= lo < hi <= 1")
            object.__setattr__(self, "truncation", (float(lo), float(hi)))
        if self.family == "normal":
            self._require_finite("mean", "sd")
            if self.sd <= 0.0:
                raise ValueError("normal family needs sd > 0")
            if self.truncation is None:
                raise ValueError("normal future values must be truncated to keep the support positive")
            lo = self.truncation[0]
            if lo == 0.0 or self.mean + self.sd * _STANDARD_NORMAL.inv_cdf(lo) <= 0.0:
                raise ValueError("normal truncation must give a positive lower support bound")
        elif self.family == "lognormal":
            self._require_finite("log_mean", "log_sd")
            if self.log_sd <= 0.0:
                raise ValueError("lognormal family needs log_sd > 0")
        else:
            if self.truncation is not None:
                raise ValueError("truncation is not supported for discrete future values")
            points = np.array(self.points, dtype=float, copy=True)
            probs = np.array(self.probs, dtype=float, copy=True)
            if points.ndim != 1 or points.size == 0 or points.shape != probs.shape:
                raise ValueError("points and probs must be matching nonempty vectors")
            if not (np.all(np.isfinite(points)) and np.all(np.isfinite(probs))):
                raise ValueError("points and probs must be finite")
            if points[0] <= 0.0 or not np.all(np.diff(points) > 0.0):
                raise ValueError("points must be strictly increasing and positive")
            if probs.min() < 0.0:
                raise ValueError("probabilities must be nonnegative")
            if abs(probs.sum() - 1.0) > 1e-12:
                raise ValueError(f"probabilities must sum to 1 (got {probs.sum():.12g})")
            points.flags.writeable = False
            probs.flags.writeable = False
            object.__setattr__(self, "points", points)
            object.__setattr__(self, "probs", probs)

    @classmethod
    def normal(cls, mean: float, sd: float, truncation: tuple[float, float]) -> "FutureValueDist":
        return cls(family="normal", mean=float(mean), sd=float(sd), truncation=truncation)

    @classmethod
    def lognormal(
        cls, log_mean: float, log_sd: float, truncation: tuple[float, float] | None = None
    ) -> "FutureValueDist":
        return cls(family="lognormal", log_mean=float(log_mean), log_sd=float(log_sd), truncation=truncation)

    @classmethod
    def discrete(cls, points, probs) -> "FutureValueDist":
        return cls(family="discrete", points=points, probs=probs)

    def _require_finite(self, *names):
        for name in names:
            value = getattr(self, name)
            if value is None or not math.isfinite(value):
                raise ValueError(f"{self.family} family needs a finite {name} (got {value!r})")

    def _levels(self) -> tuple[float, float]:
        return self.truncation if self.truncation is not None else (0.0, 1.0)

    def cdf(self, x):
        """Distribution function of the (truncated, renormalized) law.

        Right-continuous for the discrete family.
        """
        if self.family == "discrete":
            idx = np.searchsorted(self.points, x, side="right")
            cum = np.concatenate(([0.0], np.cumsum(self.probs)))
            out = cum[idx] / cum[-1]
            return float(out) if np.isscalar(x) else out
        x_arr = np.asarray(x, dtype=float)
        if self.family == "normal":
            base = _ndtr((x_arr - self.mean) / self.sd)
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                z = (np.log(x_arr) - self.log_mean) / self.log_sd
            base = np.where(x_arr > 0.0, _ndtr(z), 0.0)
        lo, hi = self._levels()
        out = np.clip((base - lo) / (hi - lo), 0.0, 1.0)
        return float(out) if np.isscalar(x) else out

    def quantile(self, p):
        """Generalized inverse of ``cdf``.

        Continuous families require 0 < p < 1; the discrete family accepts
        the closed interval and steps to the smallest point whose
        cumulative probability reaches p.
        """
        p_arr = np.asarray(p, dtype=float)
        if self.family == "discrete":
            if np.any(p_arr < 0.0) or np.any(p_arr > 1.0):
                raise ValueError("quantile level must lie in [0, 1]")
            cum = np.cumsum(self.probs)
            idx = np.minimum(np.searchsorted(cum, p_arr, side="left"), self.points.size - 1)
            out = self.points[idx]
            return float(out) if np.isscalar(p) else out
        if np.any(p_arr <= 0.0) or np.any(p_arr >= 1.0):
            raise ValueError("quantile level must lie strictly inside (0, 1)")
        lo, hi = self._levels()
        z = _ndtri(lo + p_arr * (hi - lo))
        if self.family == "normal":
            out = self.mean + self.sd * z
        else:
            out = np.exp(self.log_mean + self.log_sd * z)
        return float(out) if np.isscalar(p) else out

    def make_nodes(self, n: int) -> QuadratureNodes:
        """Quadrature nodes for integrating against this law.

        Discrete families pass their atoms through exactly (n is ignored);
        continuous families use n equal-weight nodes at the probability
        midpoints (i - 1/2)/n of the truncated law.
        """
        if self.family == "discrete":
            return QuadratureNodes(self.points, self.probs)
        if n < 2:
            raise ValueError("continuous families need at least 2 nodes")
        midpoints = (np.arange(n) + 0.5) / n
        return QuadratureNodes(self.quantile(midpoints), np.full(n, 1.0 / n))

    def scaled(self, factor: float) -> "FutureValueDist":
        """The law of ``factor * V`` for a positive factor."""
        if factor <= 0.0:
            raise ValueError("scale factor must be positive")
        if self.family == "normal":
            return FutureValueDist.normal(self.mean * factor, self.sd * factor, self.truncation)
        if self.family == "lognormal":
            return FutureValueDist.lognormal(self.log_mean + math.log(factor), self.log_sd, self.truncation)
        return FutureValueDist.discrete(self.points * factor, self.probs)
