"""Probability distributions of future security value on the positive reals.

A law is held as what a profile sums over.  A discrete law (finite atoms)
holds its atoms and probabilities and admits no truncation.  A normal or
lognormal law is truncated at two quantile levels 0 < lo < hi < 1: the
truncated law is the image of a uniform draw on (lo, hi) under the base
quantile function, so its support is bounded, and its weight and first
moment below any value are closed forms in the standard-normal
distribution function.  A normal law must be truncated so that its support
stays positive.
"""

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

_STANDARD_NORMAL = NormalDist()

# Hart's rational form 5666 of the standard-normal tail, Phi(-x) =
# exp(-x**2 / 2) * P(x) / Q(x) for 0 <= x < _TAIL_SWITCH, and a continued
# fraction past it; within 2.3e-16 of scipy.special.ndtr absolute over the
# whole line (tests/test_distribution.py).
_TAIL_P = (3.52624965998911e-02, 0.700383064443688, 6.37396220353165, 33.912866078383,
           112.079291497871, 221.213596169931, 220.206867912376)
_TAIL_Q = (8.83883476483184e-02, 1.75566716318264, 16.064177579207, 86.7807322029461,
           296.564248779674, 637.333633378831, 793.826512519948, 440.413735824752)
_TAIL_SWITCH = 7.07106781186547
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _scaled_tail(x):
    """Phi(-x) * exp(x**2 / 2) for x >= 0, elementwise or for one float:
    finite and smooth where Phi(-x) itself underflows."""
    num, den = x * _TAIL_P[0], x * _TAIL_Q[0]
    for p, q in zip(_TAIL_P[1:-1], _TAIL_Q[1:-2]):
        num += p
        num *= x
        den += q
        den *= x
    num += _TAIL_P[-1]
    den += _TAIL_Q[-2]
    den *= x
    den += _TAIL_Q[-1]
    num /= den
    if np.max(x) >= _TAIL_SWITCH:
        with np.errstate(divide="ignore", invalid="ignore"):  # the unused branch may divide by 0
            fraction = x + 1.0 / (x + 2.0 / (x + 3.0 / (x + 4.0 / (x + 0.65))))
        num = np.where(x >= _TAIL_SWITCH, 1.0 / (_SQRT_2PI * fraction), num)
    return num


def truncation_levels(levels) -> tuple[float, float]:
    """The quantile levels ``[lo, hi]`` as a float pair, checked: 0 < lo < hi < 1."""
    if len(levels) != 2 or not (0.0 < levels[0] < levels[1] < 1.0):
        raise ValueError(f"truncation must be a pair [lo, hi] with 0 < lo < hi < 1 (got {list(levels)!r})")
    return float(levels[0]), float(levels[1])


def _require_finite(family: str, **params: float) -> None:
    for name, value in params.items():
        if not math.isfinite(value):
            raise ValueError(f"{family} family needs a finite {name} (got {value!r})")


@dataclass(frozen=True, eq=False)
class QuadratureNodes:
    """A discrete law's atoms ``nodes``, strictly increasing and positive,
    with probabilities ``weights`` summing to 1, checked where it is made, in
    ``FutureValueDist.discrete``."""

    nodes: np.ndarray
    weights: np.ndarray


class TruncatedLaw:
    """A normal law, or the exponential of one (``log``), with mean and sd
    ``mean`` and ``sd``, truncated to the quantile ``levels`` (lo, hi), in
    closed form.

    ``nodes`` holds its support ends, the two future values where its
    distribution function bends; they must come out finite, positive and
    distinct in floating point.  ``below`` gives the weight and the first
    moment about ``shift`` below any value of the support: about the mean
    of a normal law, which keeps the moment of a narrow run of values
    accurate, and about 0 for a lognormal law.
    """

    def __init__(self, log: bool, mean: float, sd: float, levels: tuple[float, float]):
        self.log, self.mean, self.sd, self.levels = log, mean, sd, levels
        self.shift = 0.0 if log else mean
        self.z = z_lo, _ = tuple(map(_STANDARD_NORMAL.inv_cdf, levels))
        with np.errstate(over="ignore", under="ignore"):
            nodes = mean + sd * np.array(self.z)
            if log:
                nodes = np.exp(nodes)
                # the untruncated mean: used only where z >= sd, where it is below the value
                self.untruncated_mean = np.exp(mean + sd * sd / 2.0)
        if not (0.0 < nodes[0] < nodes[1] < math.inf):
            raise ValueError(f"support ends {nodes[0]:.6g} to {nodes[1]:.6g} are not finite, positive and distinct")
        nodes.flags.writeable = False
        self.nodes = nodes
        # the first moment's running term (see below) at the lower end
        self.start = math.exp(-0.5 * z_lo * z_lo)
        if log:
            tail = float(nodes[0]) * self.start * float(_scaled_tail(abs(sd - z_lo)))
            self.start = tail if sd > z_lo else self.untruncated_mean - tail

    def below(self, y):
        """W(y) and M(y), the law's weight and first moment about ``shift``
        below each y of its support, down a leading axis of length 2.

        With z = (y - mean) / sd (of ln y for a lognormal law), W is (Phi(z) -
        lo) / (hi - lo).  The first moment's running term is exp(-z^2/2)
        for a normal law, and e^(mean + sd^2/2) Phi(z - sd) = y exp(-z^2/2)
        R(sd - z) for a lognormal law, where R is the scaled tail, which
        stays finite where the factors of the left-hand side do not.
        """
        z = (np.log(y) if self.log else y) - self.mean
        z *= 1.0 / self.sd
        np.maximum(z, self.z[0], out=z)
        np.minimum(z, self.z[1], out=z)
        density = z * z
        density *= -0.5
        np.exp(density, out=density)
        if self.log:
            apart = self.sd - z
            tails = _scaled_tail(np.abs(np.array((z, apart))))
            tails *= density
            tails[1] *= y
            weight = np.where(z < 0.0, tails[0], 1.0 - tails[0])
            term = np.where(apart > 0.0, tails[1], self.untruncated_mean - tails[1])
            term -= self.start
        else:
            tail = _scaled_tail(np.abs(z))
            tail *= density
            weight = np.where(z < 0.0, tail, 1.0 - tail)
            term = density - self.start
            term *= -self.sd / _SQRT_2PI
        weight -= self.levels[0]
        moments = np.array((weight, term))
        moments /= self.levels[1] - self.levels[0]
        return moments


@dataclass(frozen=True, eq=False)
class FutureValueDist:
    """A future-value law: the ``atoms`` of a discrete law, or for a
    continuous one, a normal law (the law of the logarithm when ``log``)
    with ``mean`` and ``sd``, truncated at quantile ``levels``.  Build it
    with ``normal``, ``lognormal`` or ``discrete``."""

    atoms: QuadratureNodes | None = None
    log: bool = False
    mean: float = 0.0
    sd: float = 1.0
    levels: tuple[float, float] | None = None

    @classmethod
    def normal(cls, mean: float, sd: float, truncation: tuple[float, float]) -> "FutureValueDist":
        return cls._continuous("normal", False, mean, sd, truncation)

    @classmethod
    def lognormal(cls, log_mean: float, log_sd: float, truncation: tuple[float, float]) -> "FutureValueDist":
        return cls._continuous("lognormal", True, log_mean, log_sd, truncation)

    @classmethod
    def _continuous(cls, family, log, mean, sd, truncation) -> "FutureValueDist":
        mean, sd = float(mean), float(sd)
        levels = truncation_levels(truncation) if truncation is not None else None
        names = ("log_mean", "log_sd") if log else ("mean", "sd")
        _require_finite(family, **dict(zip(names, (mean, sd))))
        if sd <= 0.0:
            raise ValueError(f"{family} family needs {names[1]} > 0")
        if levels is None:
            raise ValueError(f"{family} future values must be truncated to keep the support bounded")
        if not log and mean + sd * _STANDARD_NORMAL.inv_cdf(levels[0]) <= 0.0:
            raise ValueError("normal truncation must give a positive lower support bound")
        return cls(log=log, mean=mean, sd=sd, levels=levels)

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
        points.flags.writeable = probs.flags.writeable = False
        return cls(atoms=QuadratureNodes(points, probs))

    def make_nodes(self) -> QuadratureNodes | TruncatedLaw:
        """What a profile sums over: a discrete law's atoms, or a continuous
        law's closed forms, whose support ends are checked here."""
        if self.atoms is not None:
            return self.atoms
        return TruncatedLaw(self.log, self.mean, self.sd, self.levels)
