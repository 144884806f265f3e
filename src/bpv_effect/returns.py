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

The average of the state memberships over the quadrature nodes is taken
in one of two views, which ``profile`` builds once per security (``_view``)
and passes to the fuzzy return and the variance.  The node view evaluates
``mu`` at every (rate, node) pair (``_NodeView.values``).  The knot view
uses that the present value is linear in the future value: the nodes on
one linear piece of ``mu`` form a contiguous run whose sum follows from
prefix sums, at O(knots) cost per rate.  A security takes the knot view when its node count reaches an
affine function of its knot count (``KNOT_VIEW_NODES`` and ``KNOT_VIEW_NODES_PER_KNOT``).
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

    ``limit`` is the infimum of the convention's rates.  The two maps
    work elementwise and check nothing: a rate at or below ``limit`` gives
    a nonpositive or infinite present value.
    """

    kind: str
    limit: float
    rate_map: Callable  # (present, future) -> rate
    present_map: Callable  # (rate, future) -> present value


SIMPLE = ReturnConvention(
    "simple",
    -1.0,
    rate_map=lambda present, future: future / present - 1.0,
    present_map=lambda rate, future: future / (1.0 + rate),
)
LOGARITHMIC = ReturnConvention(
    "logarithmic",
    -math.inf,
    rate_map=lambda present, future: np.log(future / present),
    present_map=lambda rate, future: future * np.exp(-rate),
)
CONVENTIONS = {conv.kind: conv for conv in (SIMPLE, LOGARITHMIC)}


# A security sums its state memberships in the knot view when it has at least
# KNOT_VIEW_NODES + KNOT_VIEW_NODES_PER_KNOT * knots quadrature nodes, and node
# by node otherwise.  Measured with whole ``profile`` calls (801 rates, 1024
# panels, numpy 2.4, 2-core x86_64, medians of 9) over 2-101 knots and 3-512
# nodes: the knot view costs about 1.3 ms plus 0.19 ms per knot (1.9 ms at 2
# knots, 2.4 at 8, 4.9 at 16, 7.9 at 32, 10 at 48) whatever the node count,
# the node view about 0.5 ms plus 0.031 ms per node (1.05 ms at 16 nodes, 2.4
# at 64, 8.6 at 256) whatever the knot count, so the two break even at about
# 25 + 6 * knots nodes.  A 4-knot trapezoid profiles in 2.2 ms instead of
# 8.5 with 256 nodes, and in 0.5-0.9 ms instead of 2.1-2.5 with an 8-atom law.
KNOT_VIEW_NODES = 24
KNOT_VIEW_NODES_PER_KNOT = 6


class _KnotView:
    """State-membership sums S(r) = sum_j w_j mu(pv(r, y_j)), knot by knot.

    Present values are increasing in the node, so the nodes whose present
    value falls on one membership piece form a contiguous run, and the run's
    contribution follows from prefix sums of w and w*y: on segment k it is
    v_k dW + slope_k (pv(r, dM) - x_k dW), because pv is linear in y.  Runs
    are cut exactly where ``np.interp`` on ``present_map(r, y)`` would cut
    them, so closed support ends and vertical edges count the same nodes.
    The cost is O(rates * knots * log nodes) instead of O(rates * nodes).

    Pieces are numbered by how many run edges lie at or before a node: 0
    below the support, k + 1 on segment k, K exactly at the last of K knots,
    K + 1 past it.  Rates whose present-value scale ``present_map(r, 1)`` is
    not finite and positive sum to 0 (``sums``), which is the node view's
    value for a membership with positive support: simple rates at or below
    -1, and logarithmic rates above about 745.13 or below about -709.78,
    where exp(-r) underflows to 0 or overflows.

    Every per-rate array is threshold-major: thresholds or pieces down axis
    0, rates along axis 1, so each numpy pass runs over one contiguous row of
    rates per threshold, and the pieces of a rate add left to right.
    """

    def __init__(self, mu: MembershipFn, conv: ReturnConvention, nodes: QuadratureNodes):
        x, v, w = mu.grid, mu.values, nodes.weights
        self.conv, self.y = conv, nodes.nodes
        self.padded = np.concatenate(([-np.inf], self.y, [np.inf]))
        self.W = np.concatenate(([0.0], np.cumsum(w)))
        self.M = np.concatenate(([0.0], np.cumsum(w * self.y)))
        # present value reaching each knot, then strictly passing the last: a column
        self.reach = np.append(x, np.nextafter(x[-1], np.inf))[:, None]
        # per piece: left knot, width, value there, rise across
        self.pieces = np.array([
            np.concatenate(([0.0], x, [0.0])),
            np.concatenate(([1.0], np.diff(x), [1.0, 1.0])),
            np.concatenate(([0.0], v, [0.0])),
            np.concatenate(([0.0], np.diff(v), [0.0, 0.0])),
        ])
        self.runs = self.pieces[:, 1:-1, None]  # the pieces between the first and last edge

    def edges(self, r, scale):
        """First node reaching each threshold (a row per threshold) for a row
        of rates and their present-value scales ``present_map(r, 1)``.

        ``searchsorted`` on the thresholds' future values (each threshold
        over the scale) gives a guess that rounding can leave a few nodes
        off; testing the present value of the neighbouring nodes walks it to
        the exact edge.
        """
        conv, reach = self.conv, self.reach
        e = np.searchsorted(self.y, reach / scale)
        while True:
            back = conv.present_map(r, self.padded[e]) >= reach  # node e - 1 reaches
            ahead = conv.present_map(r, self.padded[e + 1]) < reach  # node e falls short
            if not (back.any() or ahead.any()):
                return e
            e = e + ahead - back

    def run_sum(self, r, dW, dM, piece):
        """Sum over a run of nodes on one piece at rate r, from its weight
        dW and weighted future value dM.  The slope term is clamped to
        [0, dx dW], so each sum stays a convex combination of the piece's
        end values; with dW = 1 and dM = y it is mu(pv(r, y)) at a node y."""
        x, dx, v, dv = piece
        offset = (self.conv.present_map(r, dM) - x * dW) / dx
        return v * dW + dv * np.clip(offset, 0.0, dW)

    def sums(self, rates):
        """The rates as evaluated, their edges and S(r) at each, one run per piece.

        A rate whose present-value scale is not finite and positive stands
        in as 0 with every edge past the last node, so it sums to exactly 0.
        """
        with np.errstate(divide="ignore", over="ignore"):
            scale = self.conv.present_map(rates, 1.0)
        out = ~((scale > 0.0) & (scale < np.inf))
        r = np.where(out, 0.0, rates)
        with np.errstate(over="ignore"):
            e = self.edges(r, np.where(out, 1.0, scale))
            e[:, out] = self.y.size
            W, M = self.W[e], self.M[e]
            return r, e, self.run_sum(r, W[1:] - W[:-1], M[1:] - M[:-1], self.runs).sum(axis=0)

    def state_sum(self, rates):
        """S(r) at each rate."""
        return self.sums(rates)[2]

    def kernel(self, center, steps):
        """Sum of w_j max(mu(pv(center + s, y_j)), mu(pv(center - s, y_j))) per step s.

        Where the supports of the two copies share no node, the max is
        their sum: two state sums.  Only the other steps go through
        ``overlap``; a copy out of range shares none, as its edges are past
        every node.
        """
        r, e, sums = self.sums(np.concatenate((center + steps, center - steps)))
        k = steps.size
        up, lo, e_up, e_lo = r[:k], r[k:], e[:, :k], e[:, k:]
        total = sums[:k] + sums[k:]
        both = np.flatnonzero(np.maximum(e_up[0], e_lo[0]) < np.minimum(e_up[-1], e_lo[-1]))
        with np.errstate(over="ignore"):
            total[both] = self.overlap(up[both], lo[both], e_up[:, both], e_lo[:, both])
        return total

    def overlap(self, up, lo, e_up, e_lo):
        """The kernel at steps whose two copies share nodes.

        The edges of both copies are merged in one sort per step.  Between
        merged edges each copy stays on one piece, so the difference of the
        two copies is linear in y there: it changes sign at most once, at a
        node found from its values on the interval's first and last nodes,
        and each side sums the larger copy.  Both ends of an interval are
        evaluated in one pass, down a leading axis of length 2.
        """
        n = self.y.size
        merged = np.concatenate((e_up, e_lo))
        order = np.argsort(merged, axis=0, kind="stable")
        merged = np.sort(merged, axis=0)
        up_piece = np.cumsum(order < e_up.shape[0], axis=0)[:-1]
        lo_piece = np.arange(1, merged.shape[0])[:, None] - up_piece  # the other edges so far
        a, b = merged[:-1], merged[1:]
        ends = self.y[[np.minimum(a, n - 1), np.maximum(b - 1, 0)]]  # first and last node
        gap = self.run_sum(up, 1.0, ends, self.pieces[:, up_piece]) - self.run_sum(lo, 1.0, ends, self.pieces[:, lo_piece])
        up_wins = gap >= 0.0
        cross = (up_wins[0] != up_wins[1]) & (b - a > 1)
        share = np.divide(gap[0], gap[0] - gap[1], out=np.zeros_like(gap[0]), where=cross)
        at = np.searchsorted(self.y, ends[0] + share * (ends[1] - ends[0]))
        split = np.where(cross, np.clip(at, a + 1, b - 1), b)
        W, M = self.W[[a, split, b]], self.M[[a, split, b]]
        halves = self.run_sum(
            np.where(up_wins, up, lo), np.diff(W, axis=0), np.diff(M, axis=0),
            self.pieces[:, np.where(up_wins, up_piece, lo_piece)],
        )
        # each step sums its intervals along one contiguous row: from 8 intervals
        # (4 knots) on, numpy adds such a row pairwise, the order of every
        # earlier report, where a sum down axis 0 would add left to right
        return np.ascontiguousarray((halves[0] + halves[1]).T).sum(axis=1)


class _NodeView:
    """The sums of ``_KnotView`` node by node: ``mu`` at every (rate, node)
    pair, in O(rates * nodes)."""

    def __init__(self, mu: MembershipFn, conv: ReturnConvention, nodes: QuadratureNodes):
        self.mu, self.conv, self.y, self.w = mu, conv, nodes.nodes, nodes.weights

    def values(self, rates) -> np.ndarray:
        """Matrix of state memberships, rates down the rows, nodes across.

        Rates at or below the convention's limit, and present values that
        overflow, give a nonpositive or infinite present value, which lies
        outside any membership support, so they get membership 0.
        """
        with np.errstate(divide="ignore", over="ignore"):
            return self.mu(self.conv.present_map(np.reshape(rates, (-1, 1)), self.y))

    def state_sum(self, rates):
        return self.values(rates) @ self.w

    def kernel(self, center, steps):
        return np.maximum(self.values(center + steps), self.values(center - steps)) @ self.w


def _view(mu: MembershipFn, conv: ReturnConvention, nodes: QuadratureNodes):
    """The cheaper view of one security's state sums (see ``KNOT_VIEW_NODES``)."""
    if nodes.nodes.size >= KNOT_VIEW_NODES + KNOT_VIEW_NODES_PER_KNOT * mu.grid.size:
        return _KnotView(mu, conv, nodes)
    return _NodeView(mu, conv, nodes)


# Widest return grid.  The area A under the fuzzy return is at most its span,
# and the energy A / (1 + A) rounds to 1 from A = 2**53 on; the squared span
# bounding the variance's x axis stays far below overflow up to here.
MAX_RETURN_SPAN = 2.0**52


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
        if r_values[-1] - r_values[0] > MAX_RETURN_SPAN:
            raise ValueError(f"return span {r_values[0]:.6g} to {r_values[-1]:.6g} is wider than 2**52, "
                             "where the energy can round to 1")
        r_values.flags.writeable = False
        object.__setattr__(self, "r_values", r_values)

    @classmethod
    def spanning(
        cls,
        mu: MembershipFn,
        nodes: QuadratureNodes,
        conv: ReturnConvention,
        count: int,
    ) -> "ReturnGrid":
        """Grid of ``count`` uniform rates covering every rate with positive
        state membership, plus the kink rates when there are at most
        ``count`` of them.

        The raw bounds, each end of the present-value support at the
        opposite extreme node, make the fuzzy expected return vanish outside
        the closed interval; one extra grid step of padding makes it
        vanish strictly inside the endpoints, so all knot-based integrals
        are exact over the grid.  The padded lower end is kept above the
        convention's rate limit.

        The fuzzy return bends only at the kink rates ``rate_map(x_k, y_j)``
        of knots x_k and nodes y_j, and is smooth between them.  When
        knots * nodes <= ``count`` (discrete laws), the kinks strictly
        inside the uniform grid join it, so linear interpolation never cuts
        across a bend; otherwise the grid stays uniform.
        """
        s_lo, s_hi = mu.support
        if s_lo <= 0.0:
            raise ValueError("present-value membership support must be positive")
        y_lo, y_hi = float(nodes.nodes[0]), float(nodes.nodes[-1])
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            r_lo, r_hi = float(conv.rate_map(s_hi, y_lo)), float(conv.rate_map(s_lo, y_hi))
        pad = (r_hi - r_lo) / (count - 1)
        if not (math.isfinite(r_lo) and math.isfinite(r_hi + pad)):
            raise ValueError(f"return span {r_lo:.6g} to {r_hi:.6g} is out of floating-point range")
        lower = max(r_lo - pad, (r_lo + conv.limit) / 2.0)
        grid = cls(np.linspace(lower, r_hi + pad, count))
        if mu.grid.size * nodes.nodes.size > count:
            return grid
        r = grid.r_values
        kinks = conv.rate_map(mu.grid[:, None], nodes.nodes).ravel()
        # sorted, then one of each run of equal rates (np.unique would import numpy.ma)
        merged = np.sort(np.concatenate((r, kinks[(kinks > r[0]) & (kinks < r[-1])])))
        return cls(merged[np.append(True, merged[1:] != merged[:-1])])


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


def expected_return_distribution(view, grid: ReturnGrid) -> MembershipFn:
    """Fuzzy expected return on ``grid``: the state memberships of one
    security's ``view`` averaged over its future-value law.

    For a discrete future-value law the node weights are the exact atom
    probabilities and the result carries no quadrature error at all.  The
    sum over nodes is exact for the polyline ``mu`` in either view (see
    ``KNOT_VIEW_NODES``): knot by knot in O(rates * knots), or node by node
    in O(rates * nodes).
    """
    values = view.state_sum(grid.r_values)
    return MembershipFn(grid.r_values, np.clip(values, 0.0, 1.0))


def expected_return(rho: MembershipFn) -> float:
    """Center of mass of the fuzzy expected return (knot-exact integrals)."""
    denominator = quadrature.integrate(rho.grid, rho.values)
    if denominator == 0.0:
        raise DegenerateMembershipError("degenerate membership: expected return undefined")
    return quadrature.first_moment(rho.grid, rho.values) / denominator


def return_variance(view, center: float, grid: ReturnGrid, panels: int) -> float:
    """Behavioural variance of the return rate around ``center``, from one
    security's ``view``.

    The kernel at squared deviation x is the larger of the two state
    memberships at center +/- sqrt(x), averaged over the future-value
    law; the variance is the kernel-weighted mean of x.  The average over
    nodes is exact for the polyline ``mu``, knot by knot or node by node as
    for the fuzzy return.  The x axis is sampled with a trapezoid rule (the
    kernel is not piecewise linear in x) of ``panels`` panels.  It ends at
    the squared deviation of the farther end of ``grid``, beyond which the
    kernel is identically zero.
    """
    if panels < 1:
        raise ValueError("panels must be a positive integer")
    x_end = max((float(grid.r_values[-1]) - center) ** 2, (float(grid.r_values[0]) - center) ** 2)
    xs = np.linspace(0.0, x_end, panels + 1)
    kernel = view.kernel(center, np.sqrt(xs))
    denominator = quadrature.integrate(xs, kernel)
    if denominator == 0.0:
        raise DegenerateMembershipError("degenerate membership: variance undefined")
    return quadrature.integrate(xs, xs * kernel) / denominator


# Upper bound on each resolution setting, far above any useful value (the
# convergence tests double up to 4096), so that an absurd one is a validation
# error naming the setting, not a failed allocation.  Work and memory grow
# with products of the settings, so values near the bound can still be slow.
MAX_RESOLUTION = 2**20


@dataclass(frozen=True)
class EngineSettings:
    """Resolution knobs for profile computation."""

    grid_points: int = 801
    nodes: int = 256
    variance_panels: int = 1024

    def __post_init__(self):
        if self.grid_points < 4:
            raise ValueError("grid_points must be at least 4")
        if self.nodes < 2:  # continuous laws need two; discrete laws ignore the count
            raise ValueError("nodes must be at least 2")
        if self.variance_panels < 1:
            raise ValueError("variance_panels must be positive")
        for name in ("grid_points", "nodes", "variance_panels"):
            if getattr(self, name) > MAX_RESOLUTION:
                raise ValueError(f"{name} must be at most {MAX_RESOLUTION} (got {getattr(self, name)})")


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
    view = _view(mu, conv, nodes)
    rho = expected_return_distribution(view, grid)
    center = expected_return(rho)
    variance = return_variance(view, center, grid, settings.variance_panels)
    return SecurityProfile(
        rho=rho,
        expected_return=center,
        variance=variance,
        energy=energy_measure(rho),
        entropy=entropy_measure(rho),
    )
