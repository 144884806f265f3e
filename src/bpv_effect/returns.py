"""Fuzzy-probabilistic return analytics.

The present value of a security is a fuzzy number (membership ``mu`` over
prices), its future value a random variable.  Pushing ``mu`` through the
return map state by state and averaging over the future-value law yields
the fuzzy expected return: a membership ``rho`` over return rates.  From
``rho`` come the expected return (its center of mass), the behavioural
return variance, and the energy/entropy imprecision measures.

Two return conventions are shipped: the simple rate (V_t / V_0 - 1, only
defined for rates above -1) and the logarithmic rate (ln(V_t / V_0)).
Both are strictly decreasing in the present value, so the per-state
membership of rate r is ``mu`` evaluated at the unique present value that
produces r, and rates outside a convention's domain carry membership 0.
"""

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import quadrature
from .distribution import FutureValueDist, QuadratureNodes
from .membership import MembershipFn, energy_measure, entropy_measure


class DegenerateMembershipError(ArithmeticError):
    """Raised when an identically-zero fuzzy return leaves a statistic undefined."""


@dataclass(frozen=True, eq=False)
class ReturnConvention:
    """A return map r(V0, Vt), increasing in Vt, decreasing in V0.

    ``limit`` is the infimum of the convention's rates.  The three maps
    work elementwise and check nothing: a rate at or below ``limit`` gives
    a nonpositive or infinite present value.  ``rate``,
    ``present_value_for`` and ``future_value_for`` check their arguments,
    then apply the maps.
    """

    kind: str
    limit: float
    rate_map: Callable  # (present, future) -> rate
    present_map: Callable  # (rate, future) -> present value
    future_map: Callable  # (rate, present) -> future value

    def rate(self, present, future):
        _require_positive(present, "present value")
        _require_positive(future, "future value")
        return self.rate_map(present, future)

    def present_value_for(self, rate, future):
        """The unique present value producing ``rate`` from ``future``."""
        _require_positive(future, "future value")
        self._require_rate(rate)
        return self.present_map(rate, future)

    def future_value_for(self, rate, present):
        """The unique future value producing ``rate`` from ``present``."""
        _require_positive(present, "present value")
        self._require_rate(rate)
        return self.future_map(rate, present)

    def rate_bounds(self, pv_support: tuple[float, float], node_range: tuple[float, float]) -> tuple[float, float]:
        """Smallest rate interval outside which every state membership is 0."""
        s_lo, s_hi = pv_support
        y_lo, y_hi = node_range
        if s_lo <= 0.0:
            raise ValueError("present-value membership support must be positive")
        return float(self.rate_map(s_hi, y_lo)), float(self.rate_map(s_lo, y_hi))

    def _require_rate(self, rate):
        if np.any(np.asarray(rate) <= self.limit):
            raise ValueError(f"{self.kind} return rate is undefined at or below {self.limit}")


def _require_positive(value, name: str) -> None:
    if np.any(np.asarray(value) <= 0.0):
        raise ValueError(f"{name} must be positive")


SIMPLE = ReturnConvention(
    "simple",
    -1.0,
    rate_map=lambda present, future: future / present - 1.0,
    present_map=lambda rate, future: future / (1.0 + rate),
    future_map=lambda rate, present: present * (1.0 + rate),
)
LOGARITHMIC = ReturnConvention(
    "logarithmic",
    -math.inf,
    rate_map=lambda present, future: np.log(future / present),
    present_map=lambda rate, future: future * np.exp(-rate),
    future_map=lambda rate, present: present * np.exp(rate),
)
_CONVENTIONS = {conv.kind: conv for conv in (SIMPLE, LOGARITHMIC)}


def convention(name: str) -> ReturnConvention:
    if name not in _CONVENTIONS:
        raise ValueError(f"unknown return convention {name!r}")
    return _CONVENTIONS[name]


def _state_values(mu: MembershipFn, conv: ReturnConvention, rates, futures) -> np.ndarray:
    """Matrix of state memberships, rates down the rows, future values across.

    Rates at or below the convention's limit map to a nonpositive or
    infinite present value, which lies outside any membership support, so
    they get membership 0.
    """
    r = np.asarray(rates, dtype=float).reshape(-1, 1)
    y = np.asarray(futures, dtype=float).reshape(1, -1)
    with np.errstate(divide="ignore"):
        return mu(conv.present_map(r, y))


@dataclass(frozen=True, eq=False)
class ReturnGrid:
    """Return-rate abscissae on which the fuzzy expected return is sampled."""

    r_values: np.ndarray

    def __post_init__(self):
        r_values = np.array(self.r_values, dtype=float, copy=True)
        if r_values.ndim != 1 or r_values.size < 4:
            raise ValueError("return grid needs at least four points")
        if not np.all(np.diff(r_values) > 0.0):
            raise ValueError("return grid must be strictly increasing")
        r_values.flags.writeable = False
        object.__setattr__(self, "r_values", r_values)

    @classmethod
    def spanning(
        cls,
        mu: MembershipFn,
        nodes: QuadratureNodes,
        conv: ReturnConvention,
        count: int = 801,
    ) -> "ReturnGrid":
        """Uniform grid covering every rate with positive state membership.

        The raw bounds make the fuzzy expected return vanish outside
        the closed interval; one extra grid step of padding makes it
        vanish strictly inside the endpoints, so all knot-based integrals
        are exact over the grid.  The padded lower end is kept above the
        convention's rate limit.
        """
        r_lo, r_hi = conv.rate_bounds(mu.support, (float(nodes.nodes[0]), float(nodes.nodes[-1])))
        pad = (r_hi - r_lo) / (count - 1)
        lower = max(r_lo - pad, (r_lo + conv.limit) / 2.0)
        return cls(np.linspace(lower, r_hi + pad, count))


@dataclass(frozen=True, eq=False)
class SecurityProfile:
    """Per-security screening results."""

    rho: MembershipFn
    expected_return: float
    variance: float
    energy: float
    entropy: float

    def __post_init__(self):
        if self.variance < 0.0:
            raise ValueError("variance must be nonnegative")
        if not (0.0 <= self.energy < 1.0 and 0.0 <= self.entropy < 1.0):
            raise ValueError("energy and entropy must lie in [0, 1)")
        if self.entropy > self.energy + 1e-12:
            raise ValueError("entropy cannot exceed energy")


def expected_return_distribution(
    mu: MembershipFn, conv: ReturnConvention, nodes: QuadratureNodes, grid: ReturnGrid
) -> MembershipFn:
    """Fuzzy expected return: state memberships averaged over the future-value law.

    For a discrete future-value law the node weights are the exact atom
    probabilities and the result carries no quadrature error at all.
    """
    values = _state_values(mu, conv, grid.r_values, nodes.nodes) @ nodes.weights
    return MembershipFn(grid.r_values, np.clip(values, 0.0, 1.0))


def expected_return(rho: MembershipFn) -> float:
    """Center of mass of the fuzzy expected return (knot-exact integrals)."""
    denominator = quadrature.integrate(rho.grid, rho.values)
    if denominator == 0.0:
        raise DegenerateMembershipError("degenerate membership: expected return undefined")
    return quadrature.first_moment(rho.grid, rho.values) / denominator


def variance_span(grid: ReturnGrid, center: float) -> float:
    """Squared-deviation bound beyond which the variance kernel vanishes."""
    return max((float(grid.r_values[-1]) - center) ** 2, (float(grid.r_values[0]) - center) ** 2)


def return_variance(
    mu: MembershipFn,
    conv: ReturnConvention,
    nodes: QuadratureNodes,
    center: float,
    x_span: float,
    panels: int,
) -> float:
    """Behavioural variance of the return rate around ``center``.

    The kernel at squared deviation x is the larger of the two state
    memberships at center +/- sqrt(x), averaged over the future-value
    law; the variance is the kernel-weighted mean of x.  The x axis is
    the one place a sampled trapezoid rule is used (the kernel is not
    piecewise linear in x); ``panels`` controls its resolution.  Any
    ``x_span`` at or beyond ``variance_span`` gives the same result
    because the kernel is identically zero out there.
    """
    if x_span <= 0.0:
        raise ValueError("x_span must be positive")
    if panels < 1:
        raise ValueError("panels must be a positive integer")
    xs = np.linspace(0.0, x_span, panels + 1)
    steps = np.sqrt(xs)
    upper = _state_values(mu, conv, center + steps, nodes.nodes)
    lower = _state_values(mu, conv, center - steps, nodes.nodes)
    kernel = np.maximum(upper, lower) @ nodes.weights
    denominator = quadrature.integrate(xs, kernel)
    if denominator == 0.0:
        raise DegenerateMembershipError("degenerate membership: variance undefined")
    return quadrature.integrate(xs, xs * kernel) / denominator


@dataclass(frozen=True)
class EngineSettings:
    """Resolution knobs for profile computation."""

    grid_points: int = 801
    nodes: int = 256
    variance_panels: int = 1024

    def __post_init__(self):
        if self.grid_points < 4:
            raise ValueError("grid_points must be at least 4")
        if self.nodes < 1:
            raise ValueError("nodes must be positive")
        if self.variance_panels < 1:
            raise ValueError("variance_panels must be positive")


def profile(
    mu: MembershipFn,
    dist: FutureValueDist,
    conv: ReturnConvention,
    settings: EngineSettings = EngineSettings(),
) -> SecurityProfile:
    """Full screening profile of one security.

    Raises DegenerateMembershipError when the fuzzy expected return is
    identically zero (e.g. an all-zero present-value membership).
    """
    nodes = dist.make_nodes(settings.nodes)
    grid = ReturnGrid.spanning(mu, nodes, conv, settings.grid_points)
    rho = expected_return_distribution(mu, conv, nodes, grid)
    center = expected_return(rho)
    variance = return_variance(
        mu, conv, nodes, center, variance_span(grid, center), settings.variance_panels
    )
    return SecurityProfile(
        rho=rho,
        expected_return=center,
        variance=variance,
        energy=energy_measure(rho),
        entropy=entropy_measure(rho),
    )


def from_return_cdf(
    return_cdf,
    price: float,
    conv: ReturnConvention,
    n: int = 256,
    rate_bounds: tuple[float, float] | None = None,
) -> FutureValueDist:
    """Future-value law implied by a return-rate distribution at a crisp price.

    The return CDF is inverted at the n probability midpoints and each
    rate is mapped to its future value at ``price``, giving an
    equal-weight empirical law.  ``rate_bounds`` must bracket the
    quantiles; when omitted a bracket is grown automatically.
    """
    if price <= 0.0:
        raise ValueError("price must be positive")
    if n < 1:
        raise ValueError("n must be positive")
    midpoints = (np.arange(n) + 0.5) / n
    if rate_bounds is None:
        lo = max(-1.0, conv.limit / 2.0)
        hi = 1.0
        for _ in range(200):
            if return_cdf(lo) <= midpoints[0]:
                break
            lo = max(2.0 * lo, (lo + conv.limit) / 2.0)
        for _ in range(200):
            if return_cdf(hi) >= midpoints[-1]:
                break
            hi *= 2.0
        rate_bounds = (lo, hi)
    lo, hi = rate_bounds
    if return_cdf(lo) > midpoints[0] or return_cdf(hi) < midpoints[-1]:
        raise ValueError("rate_bounds do not bracket the required quantiles")
    rates = np.array([_bisect(return_cdf, t, lo, hi) for t in midpoints])
    values = conv.future_value_for(rates, price)
    atoms, inverse = np.unique(values, return_inverse=True)
    probs = np.zeros(atoms.size)
    np.add.at(probs, inverse, 1.0 / n)
    return FutureValueDist.discrete(atoms, probs)


def _bisect(cdf, target: float, lo: float, hi: float, xtol: float = 1e-13) -> float:
    """A rate r in [lo, hi] with cdf(r) = target, to within ``xtol``.

    Requires cdf(lo) <= target <= cdf(hi) and a nondecreasing ``cdf``.
    """
    while True:
        mid = (lo + hi) / 2.0
        if hi - lo <= xtol or not lo < mid < hi:
            return mid
        if cdf(mid) < target:
            lo = mid
        else:
            hi = mid
