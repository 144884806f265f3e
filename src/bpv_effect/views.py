"""The state-sum views of one security.

The average of the state memberships over the future-value law is taken
in one of three views, which ``profile`` builds once per security from its
law (``make``) and passes to the fuzzy return and the variance.  The
present value is linear in the future value, so the states on one linear
piece of ``mu`` form a contiguous run whose sum follows from W and M, the
law's weight and first moment below the run's edges: closed forms for a
``TruncatedLaw`` (``_LawView``), O(knots) per rate, and prefix sums over a
``DiscreteLaw``'s atoms (``_KnotView``), O(knots * log atoms), from
``KNOT_VIEW_NODES`` + ``KNOT_VIEW_NODES_PER_KNOT`` * knots atoms on; with
fewer, ``mu`` is evaluated at every (rate, atom) pair (``_NodeView``).  A
view reads its return convention ``conv`` only through ``present_map``.
"""

import numpy as np

from .distribution import DiscreteLaw, TruncatedLaw
from .membership import MembershipFn


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
    edges), and ``returns._breakpoints`` adds the level coincidences.  Rates
    whose present-value scale ``present_map(r, 1)`` is not finite and
    positive sum to 0, which is the node view's value for a membership with
    positive support: simple rates at or below -1, and logarithmic rates
    above about 745.13 or below about -709.78, where exp(-r) underflows to 0
    or overflows.

    Every per-rate array is threshold-major: thresholds or pieces down axis
    0 (after a leading axis for W and M), rates along the last axis, so each
    numpy pass runs over one contiguous row of rates per threshold, and the
    pieces of a rate add left to right.
    """

    has_atoms = True

    def __init__(self, mu: MembershipFn, conv, law):
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

    def __init__(self, mu: MembershipFn, conv, nodes: DiscreteLaw):
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


def make(mu: MembershipFn, conv, law):
    """The view of one security's state sums: the closed forms of a continuous
    law, or the cheaper of the two for a discrete one (``KNOT_VIEW_NODES``)."""
    if isinstance(law, TruncatedLaw):
        return _LawView(mu, conv, law)
    if law.nodes.size >= KNOT_VIEW_NODES + KNOT_VIEW_NODES_PER_KNOT * mu.grid.size:
        return _KnotView(mu, conv, law)
    return _NodeView(mu, conv, law)
