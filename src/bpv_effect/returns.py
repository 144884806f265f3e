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

The average of the state memberships over the future-value law is taken
in one of three views, which ``profile`` builds once per security from its
law (``_view``) and passes to the fuzzy return and the variance.  The
present value is linear in the future value, so the states on one linear
piece of ``mu`` form a contiguous run whose sum follows from W and M, the
law's weight and first moment below the run's edges, at O(knots) cost per
rate.  A ``TruncatedLaw`` takes W and M from their closed forms
(``_LawView``).  A ``DiscreteLaw`` takes them from prefix sums over its
atoms (``_KnotView``) when its atom count reaches an affine function of
its knot count (``KNOT_VIEW_NODES`` and ``KNOT_VIEW_NODES_PER_KNOT``), and
otherwise evaluates ``mu`` at every (rate, atom) pair (``_NodeView``).
"""

import math
from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from . import quadrature
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


# A security with a discrete law sums its state memberships in the knot view
# when it has at least KNOT_VIEW_NODES + KNOT_VIEW_NODES_PER_KNOT * knots atoms,
# and node by node otherwise.  Measured with whole ``profile`` calls (801 rates,
# numpy 2.4, 2-core x86_64, medians of 15-21 alternating calls) over 2-32 knots
# and 8-512 atoms: past 128 knots * atoms, where the variance takes 1024 steps,
# the knot view costs about 1.6-2.4 ms at 2 knots, 2.5-4.9 at 8, 4.2-6.5 at 16
# and 8-17 at 32 whatever the atom count, the node view about 1.1 ms at 32
# atoms, 3-6.5 at 128 and 5.3-13 at 256 whatever the knot count, so the two
# break even near 40-64 atoms at 2 knots, 64-96 at 4-8 knots, 192-256 at 16
# and 256-384 at 32, above this rule from 4 knots on.
KNOT_VIEW_NODES = 24
KNOT_VIEW_NODES_PER_KNOT = 6


class _KnotView:
    """State-membership sums S(r) = sum_j w_j mu(pv(r, y_j)) over a discrete
    law's atoms, knot by knot.

    Present values are increasing in the node, so the nodes whose present
    value falls on one membership piece form a contiguous run, and the run's
    contribution follows from W and M, the law's weight and first moment
    about its ``shift`` below the run's edges: on segment k it is v_k dW +
    slope_k (pv(r, dM + shift dW) - x_k dW), because pv is linear in y.
    Here an edge is a position in the prefix sums of w and w*y, cut exactly
    where ``np.interp`` on ``present_map(r, y)`` would cut the runs, so
    closed support ends and vertical edges count the same nodes.  The cost
    is O(rates * knots * log nodes) instead of O(rates * nodes).
    ``_LawView`` takes W and M from a continuous law's closed forms instead.

    Pieces are numbered by how many run edges lie at or before a node: 0
    below the support, k + 1 on segment k, K exactly at the last of K knots,
    K + 1 past it.  The class attribute ``has_atoms`` says whether the law
    can put weight exactly on the last knot; where it is false, that piece
    and the edge strictly past the last knot are left out (K + 1 pieces, K
    edges), and ``_breakpoints`` adds the level coincidences.  Rates whose
    present-value scale ``present_map(r, 1)`` is not finite and positive sum
    to 0, which is the node view's value for a membership with positive
    support: simple rates at or below -1, and logarithmic rates above about
    745.13 or below about -709.78, where exp(-r) underflows to 0 or
    overflows.

    Every per-rate array is threshold-major: thresholds or pieces down axis
    0 (after a leading axis for W and M), rates along the last axis, so each
    numpy pass runs over one contiguous row of rates per threshold, and the
    pieces of a rate add left to right.
    """

    has_atoms = True

    def __init__(self, mu: MembershipFn, conv: ReturnConvention, law):
        x, v = mu.grid, mu.values
        self.mu, self.conv, self.law, self.y = mu, conv, law, law.nodes
        # the pieces between the first and last run edge: each segment's, then,
        # where atoms can sit on it, the last knot's
        runs = x.size if self.has_atoms else x.size - 1
        # present value reaching each knot, then strictly passing the last: a column
        self.reach = np.append(x, np.nextafter(x[-1], np.inf))[:runs + 1, None]
        # per piece: left knot, width, value there, rise across; 0 outside the runs
        outside = np.array([[0.0], [1.0], [0.0], [0.0]])
        inner = np.array((x, np.append(np.diff(x), 1.0), v, np.append(np.diff(v), 0.0)))[:, :runs]
        self.pieces = np.concatenate((outside, inner, outside), axis=1)
        self.runs = self.pieces[:, 1:-1, None]
        if self.has_atoms:
            self.padded = np.concatenate(([-np.inf], self.y, [np.inf]))
            # W and M below each node edge
            self.table = np.array((np.concatenate(([0.0], np.cumsum(law.weights))),
                                   np.concatenate(([0.0], np.cumsum(law.weights * self.y)))))

    def edges(self, r, scale, out):
        """The run edges, a row per threshold, for rows of rates and their
        present-value scales ``present_map(r, 1)``; the rates ``out`` get
        every edge past the last node.

        An edge is the first node reaching its threshold.  ``searchsorted``
        on the thresholds' future values (each threshold over the scale)
        gives a guess that rounding can leave a few nodes off; testing the
        present value of the neighbouring nodes walks it to the exact edge.
        """
        conv, reach = self.conv, self.reach
        e = np.searchsorted(self.y, reach / scale)
        while True:
            back = conv.present_map(r, self.padded[e]) >= reach  # node e - 1 reaches
            ahead = conv.present_map(r, self.padded[e + 1]) < reach  # node e falls short
            if not (back.any() or ahead.any()):
                return np.where(out, self.y.size, e)
            e = e + ahead - back

    def moments(self, e):
        """W and M at the edges ``e``, down a leading axis of length 2."""
        return self.table[:, e]

    def ends(self, a, b):
        """The first and last node between the edges a and b."""
        n = self.y.size
        return self.y[[np.minimum(a, n - 1), np.maximum(b - 1, 0)]]

    def split(self, a, b, ends, gap, cross):
        """The edge of the first node past the sign change of ``gap``
        between the edges a and b, or b where it does not change sign."""
        cross &= b - a > 1
        share = np.divide(gap[0], gap[0] - gap[1], out=np.zeros(gap[0].shape), where=cross)
        at = np.searchsorted(self.y, ends[0] + share * (ends[1] - ends[0]))
        return np.where(cross, np.clip(at, a + 1, b - 1), b)

    def run_sum(self, r, dW, dM, piece):
        """Sum over a run of nodes on one piece at rate r, from its weight
        dW and its first moment dM about the law's ``shift``, which moves
        back by shift * dW only after the moments at the run's two edges are
        subtracted (a discrete law's shift is 0).  The slope term is clamped
        to [0, dx dW], so each sum stays a convex combination of the piece's
        end values."""
        x, dx, v, dv = piece
        offset = (self.conv.present_map(r, dM + self.law.shift * dW) - x * dW) / dx
        return v * dW + dv * np.minimum(np.maximum(offset, 0.0), dW)

    def membership(self, r, y, piece):
        """mu(pv(r, y)) on one piece at rate r: ``run_sum`` of a single
        future value y of weight 1."""
        x, dx, v, dv = piece
        offset = (self.conv.present_map(r, y) - x) / dx
        return v + dv * np.minimum(np.maximum(offset, 0.0), 1.0)

    def _edges(self, rates):
        """The rates as evaluated, with an axis for the thresholds before
        their last, and their run edges.  A rate whose present-value scale
        is not finite and positive stands in as 0 with every edge past the
        last node, so it sums to exactly 0."""
        with np.errstate(divide="ignore", over="ignore"):
            scale = self.conv.present_map(rates, 1.0)[..., None, :]
        out = ~((scale > 0.0) & (scale < np.inf))
        r = np.where(out, 0.0, rates[..., None, :])
        return r, self.edges(r, np.where(out, 1.0, scale), out)

    def _run_sums(self, r, moments):
        """S(r) at each rate, one run per piece, from W and M at its edges."""
        return self.run_sum(r, *(moments[..., 1:, :] - moments[..., :-1, :]), self.runs).sum(axis=-2)

    def state_sum(self, rates):
        """S(r) at each rate."""
        with np.errstate(over="ignore"):
            r, e = self._edges(rates)
            return self._run_sums(r, self.moments(e))

    def kernel(self, center, steps):
        """Sum of w_j max(mu(pv(center + s, y_j)), mu(pv(center - s, y_j))) per step s.

        Where the supports of the two copies share no node, the max is
        their sum: two state sums.  At the other steps the edges of both
        copies are merged in one sort per step.  Between merged edges each
        copy stays on one piece, so the difference of the two copies is
        linear in y there: it changes sign at most once, at a point found
        from its values at the interval's ends (``split``), and each side
        sums the larger copy.  A copy out of range shares no node, as its
        edges are past every node.  W and M are taken at every edge and split
        point in one pass (``moments``).
        """
        with np.errstate(over="ignore"):
            r, e = self._edges(np.array((center + steps, center - steps)))  # copy, threshold, step
            n, k = e.shape[1:]
            paired = e.reshape(2 * n, k)  # each step's edges, the upper copy's then the lower copy's
            both = (np.maximum(paired[0], paired[n]) < np.minimum(paired[n - 1], paired[-1])).nonzero()[0]
            merged = paired[:, both]
            order = merged.argsort(axis=0, kind="stable")
            merged.sort(axis=0)
            up_piece = (order < n).cumsum(axis=0)[:-1]
            lo_piece = np.arange(1, 2 * n)[:, None] - up_piece  # the other edges so far
            rates = r[:, None, :, both]  # copy, 1, 1, step
            pieces = self.pieces.take(np.array((up_piece, lo_piece)), axis=1)  # per copy and interval
            a, b = merged[:-1], merged[1:]
            ends = self.ends(a, b)
            # both copies at both ends of each interval: copy, end, interval, step
            values = self.membership(rates, ends, pieces[:, :, None])
            gap = values[0] - values[1]
            up_wins = gap >= 0.0
            split = self.split(a, b, ends, gap, up_wins[0] != up_wins[1])
            inner = split != b  # elsewhere the split is the interval's upper edge
            moments = self.moments(np.concatenate((e.ravel(), split[inner])))
            at_edges = moments[:, :e.size].reshape(2, 2, n, k)
            total = self._run_sums(r, at_edges).sum(axis=0)
            at_edges = at_edges.reshape(2, -1).take(order * k + both, axis=1)  # at the merged edges
            at_split = at_edges[:, 1:].copy()
            at_split[:, inner] = moments[:, e.size:]
            halves = self.run_sum(
                np.where(up_wins, rates[0, 0], rates[1, 0]),
                *np.array((at_split - at_edges[:, :-1], at_edges[:, 1:] - at_split)).swapaxes(0, 1),
                self.pieces.take(np.where(up_wins, up_piece, lo_piece), axis=1),
            )
        # each step sums its intervals along one contiguous row: from 8 intervals
        # (4 knots) on, numpy adds such a row pairwise, the order of every
        # earlier report, where a sum down axis 0 would add left to right
        total[both] = np.ascontiguousarray((halves[0] + halves[1]).T).sum(axis=1)
        return total


class _LawView(_KnotView):
    """The sums of ``_KnotView`` for a continuous law, from the closed forms
    of W and M (``TruncatedLaw.below``): each run's edge is its threshold's
    future value itself, clipped to the support, and the kernel splits an
    interval exactly where the two copies cross.  A threshold's future value
    has no weight of its own (``has_atoms`` is false), so the runs end at the
    last knot, with no piece exactly there."""

    has_atoms = False

    def edges(self, r, scale, out):
        lo, hi = self.y
        e = self.reach / scale
        np.maximum(e, lo, out=e)
        return np.where(out, hi, np.minimum(e, hi, out=e))

    def moments(self, e):
        return self.law.below(e)

    def ends(self, a, b):
        return np.array((a, b))

    def split(self, a, b, ends, gap, cross):
        share = np.divide(gap[0], gap[0] - gap[1], out=np.zeros(gap[0].shape), where=cross)
        return np.where(cross, a + share * (b - a), b)


class _NodeView:
    """The sums of ``_KnotView`` node by node: ``mu`` at every (rate, node)
    pair, in O(rates * nodes)."""

    has_atoms = True

    def __init__(self, mu: MembershipFn, conv: ReturnConvention, nodes: DiscreteLaw):
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


def _view(mu: MembershipFn, conv: ReturnConvention, law):
    """The view of one security's state sums: the closed forms of a
    continuous law, or the cheaper of the two for a discrete one (see
    ``KNOT_VIEW_NODES``)."""
    if isinstance(law, TruncatedLaw):
        return _LawView(mu, conv, law)
    if law.nodes.size >= KNOT_VIEW_NODES + KNOT_VIEW_NODES_PER_KNOT * mu.grid.size:
        return _KnotView(mu, conv, law)
    return _NodeView(mu, conv, law)


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
        if variance < 0.0:
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
    discrete law's atoms knot by knot in O(rates * knots) or atom by atom in
    O(rates * atoms), and over a continuous law in closed form.
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
    view = _view(mu, conv, law)
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
