"""Fuzzy subsets of the real line as piecewise-linear membership functions.

A membership function is stored as knot arrays ``(grid, values)``: values
interpolate linearly between knots and are identically zero outside the
knot span.  Trapezoids (triangles when b == c) embed exactly, and the
integral-based imprecision measures and the sup-min dominance degree all
have closed forms on this representation; dominance is solved exactly on
α-cuts, for many pairs in one batched pass.

Memberships are not required to be normal (peak value 1).  Every operation
below is well defined without normality; in particular ``dominance_pairs``
rates m against itself at the peak of ``m`` (the diagonal of a
``build_report`` matrix), which is 1 only for normal memberships.
"""

from dataclasses import dataclass

import numpy as np

from . import quadrature


@dataclass(frozen=True, eq=False)
class MembershipFn:
    """Piecewise-linear membership function on a strictly increasing grid."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        grid = np.array(self.grid, dtype=float, copy=True)
        values = np.array(self.values, dtype=float, copy=True)
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
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        # np.interp's slopes overflow on knot spacings below the normal range;
        # such grids are evaluated after one exact power-of-two rescale of the
        # abscissas (to below 2**1000), which keeps those spacings normal
        shift = 0
        if spacing.min() < np.finfo(float).tiny:
            shift = max(0, 1000 - int(np.frexp(np.abs(grid).max())[1]))
        object.__setattr__(self, "_shift", shift)
        object.__setattr__(self, "_abscissas", np.ldexp(grid, shift) if shift else grid)

    def __call__(self, x):
        """Evaluate the interpolant; zero outside the knot span."""
        if self._shift:
            with np.errstate(over="ignore"):  # beyond the span either way
                x = np.ldexp(x, self._shift)
        return np.interp(x, self._abscissas, self.values, left=0.0, right=0.0)

    @property
    def support(self) -> tuple[float, float]:
        return float(self.grid[0]), float(self.grid[-1])

    @property
    def peak(self) -> float:
        return float(self.values.max())


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
    corner_values = [(a, 1.0 if a == b else 0.0), (b, 1.0), (c, 1.0), (d, 1.0 if c == d else 0.0)]
    xs: list[float] = []
    ys: list[float] = []
    for x, y in corner_values:
        if xs and x == xs[-1]:
            ys[-1] = max(ys[-1], y)
        else:
            xs.append(x)
            ys.append(y)
    return MembershipFn(np.array(xs), np.array(ys))


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


class _Cuts:
    """Right (sign 1) or left (sign -1: the mirror image's right ends, negated)
    α-cut ends of many memberships, packed under keys s + 1j * level.  These
    sort lexicographically, so one searchsorted finds a level in membership
    s's table exactly.

    The right end R(α) = max{u : m(u) >= α} is left-continuous and breaks at
    0 and at each knot's value that exceeds every knot to its right; below
    such a level R runs down that knot's right segment, jumping at the next
    level down unless the segment reaches it.  An entry holds a level, R
    there and the segment's extents; level 0 sits at the span end.
    """

    def __init__(self, key, at, dx, dv):
        self.key, self.at, self.dx, self.dv = key, at, dx, dv

    def find(self, s, alpha):
        """Entry of membership s at level alpha, or topping the piece holding it."""
        return np.searchsorted(self.key, s + 1j * alpha)

    def slide(self, p, alpha):
        """Cut end at alpha on the piece topped by entry p, minus ``at[p]``."""
        return (self.key[p].imag - alpha) / self.dv[p] * self.dx[p]


# α-cut tables are built from blocks of memberships with about this many
# knots in all, which bounds a block's dense temporaries to under 1 MB.  A
# 128-security screen (801-knot fuzzy returns) takes 7 blocks.  Measured there
# on 2 cores: both tables in 4.5 ms with a tracemalloc peak of 1.5 MB; blocks
# of 2**15 knots took 4.3-5.2 ms and peaked at 1.8 MB, blocks of 2**13 took
# 6.8 ms, and a single block took about 6 ms and left a screening loop's
# peak RSS 1.3 MB higher than blocks of 2**14 did.
CUT_BLOCK = 2**14


def _cut_tables(memberships) -> tuple[_Cuts, _Cuts]:
    """The right and left α-cut tables of many memberships, block by block."""
    # an exact power-of-two rescale (to below 2**1000) changes no degree, lifts tiny abscissas
    shift = max(0, 1000 - max(int(np.frexp(max(-m.grid[0], m.grid[-1]))[1]) for m in memberships))
    step = max(1, CUT_BLOCK // max(m.grid.size + 2 for m in memberships))
    right, left = zip(*(_cut_block(memberships[i:i + step], i, shift) for i in range(0, len(memberships), step)))
    right = _Cuts(*map(np.concatenate, zip(*right)))  # drops the right parts before the left ones are joined
    return right, _Cuts(*map(np.concatenate, zip(*left)))


def _cut_block(memberships, first_row: int, shift: int):
    """The right and left table entries of a block of memberships, from one array.

    Row s holds membership s's knots, right-aligned behind value-0 padding,
    between value-0 entries at both span ends.  Read backwards, the rows list
    the knots from the span end back, which gives the right table; negated,
    the rows do the same for the mirror images, which gives the left table.
    """
    sizes = np.array([m.grid.size for m in memberships])
    rows, first = np.arange(sizes.size), sizes.max() + 1 - sizes  # column of each first knot
    knots = np.arange(sizes.max() + 2) >= first[:, None]
    knots[:, -1] = False
    grid, values = np.zeros(knots.shape), np.zeros(knots.shape)
    grid[knots] = np.concatenate([m.grid for m in memberships])
    values[knots] = np.concatenate([m.values for m in memberships])
    grid[rows, first - 1], grid[:, -1] = grid[rows, first], grid[:, -2]
    np.ldexp(grid, shift, out=grid)
    right = _cut_entries(grid[:, ::-1], values[:, ::-1], 0, 1.0, first_row)
    return right, _cut_entries(np.negative(grid, out=grid), values, first - 1, -1.0, first_row)


def _cut_entries(grid, values, end, sign: float, first_row: int):
    """Key, cut end, and segment extents of each α-cut entry, from rows that
    list knots from the span end back after a value-0 entry at column
    ``end[s]``; the other entries have value 0, so none is a cut."""
    width = values.shape[1]
    cut = np.zeros(values.shape, dtype=bool)
    cut[:, 1:] = values[:, 1:] > np.fmax.accumulate(values[:, :-1], axis=1)
    end = np.arange(values.shape[0]) * width + end
    cut.reshape(-1)[end] = True
    at = np.flatnonzero(cut)  # by membership, then by rising level
    g, v = np.ravel(grid), np.ravel(values)
    level, x = v[at], g[at]
    dx, dv = g[at - 1] - x, level - v[at - 1]
    end = np.searchsorted(at, end)
    dx[end], dv[end] = 0.0, 1.0
    return first_row + at // width + 1j * level, sign * x, sign * dx, dv


def _gap(right: _Cuts, left: _Cuts, p, q, alpha):
    """R - L at alpha on the pieces topped by entries p and q, from knot differences."""
    return right.at[p] - left.at[q] + (right.slide(p, alpha) - left.slide(q, alpha))


def _last_feasible(own: _Cuts, other: _Cuts, s, t, cap, sign: float):
    """Bisect each s's levels below cap for the last with R >= L against t."""
    lo, hi = own.find(s, 0.0), own.find(s, cap)
    while (live := np.flatnonzero(hi - lo > 1)).size:
        mid = (lo[live] + hi[live]) // 2
        alpha = own.key[mid].imag
        q = other.find(t[live], alpha)
        feasible = sign * (own.at[mid] - other.at[q] - other.slide(q, alpha)) >= 0.0
        lo[live], hi[live] = np.where(feasible, mid, lo[live]), np.where(feasible, hi[live], mid)
    return lo


# Pairs are solved this many at a time, which bounds the per-pair temporaries
# of a large universe to about 5 MB.  A 128-security screen (8128 gated
# pairs) is one block.  Each block pays the bisection's numpy call overhead:
# at 1024 securities on 2 cores, build_report took 3% longer than in one
# block with this size (8 blocks) and 8% longer with blocks of 8192.
PAIR_BLOCK = 65536


def dominance_pairs(memberships, rows, cols) -> np.ndarray:
    """Degree to which memberships[rows[i]] is >= memberships[cols[i]], for all i.

    For k and l: sup over u >= v of min(k(u), l(v)), the possibility index
    PD(k >= l) = max{α <= min(peak k, peak l) : L_l(α) <= R_k(α)}.  Each pair
    tests that cap, bisects k's levels then l's down to linear pieces, and
    solves their crossing: O(knots) per membership, O(log knots) numpy steps
    per block of ``PAIR_BLOCK`` pairs.
    """
    right, left = _cut_tables(memberships)
    peaks = np.array([m.peak for m in memberships])
    rows, cols = np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp)
    degree = np.minimum(peaks[rows], peaks[cols])
    for start in range(0, degree.size, PAIR_BLOCK):
        block = slice(start, start + PAIR_BLOCK)
        _solve(right, left, rows[block], cols[block], degree[block])
    return degree


def _solve(right: _Cuts, left: _Cuts, k, l, degree) -> None:
    """Lower each pair's cap ``degree`` (a view, written in place) to its dominance degree."""
    todo = np.flatnonzero(degree > 0.0)
    cap = degree[todo]
    todo = todo[_gap(right, left, right.find(k[todo], cap), left.find(l[todo], cap), cap) < 0.0]
    k, l, cap = k[todo], l[todo], degree[todo]
    a, b = _last_feasible(right, left, k, l, cap, 1.0), _last_feasible(left, right, l, k, cap, -1.0)
    lo = np.maximum(right.key[a].imag, left.key[b].imag)
    hi = np.minimum(np.minimum(right.key[a + 1].imag, left.key[b + 1].imag), cap)
    rise, fall = np.maximum([_gap(right, left, a + 1, b + 1, lo), -_gap(right, left, a + 1, b + 1, hi)], 0.0)
    share = np.divide(rise, rise + fall, out=np.zeros_like(rise), where=rise > 0.0)
    degree[todo] = np.minimum(lo + share * (hi - lo), hi)
