"""Fuzzy subsets of the real line as piecewise-linear membership functions.

A membership function is stored as knot arrays ``(grid, values)``: values
interpolate linearly between knots and are identically zero outside the
knot span.  Trapezoids (triangles when b == c) embed exactly, and the
integral-based imprecision measures and the sup-min dominance degree all
have closed forms on this representation; dominance is solved exactly on
α-cuts, for the gated entries of a matrix in one batched pass
(``dominance_matrix``).

Memberships are not required to be normal (peak value 1).  Every operation
below is well defined without normality; in particular dominance rates m
against itself at the peak of ``m`` (the diagonal of a ``build_report``
matrix), which is 1 only for normal memberships.
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
    xs = np.array([a, b, c, d], dtype=float)
    ys = np.array([a == b, True, True, c == d], dtype=float)
    # the first of each run of equal corners already holds the run's largest
    # value; ">" rather than np.diff, which warns on c == d == inf
    keep = np.append(True, xs[1:] > xs[:-1])
    return MembershipFn(xs[keep], ys[keep])


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
    there and the segment's extents; level 0 sits at the span end.  A table
    is allocated at its size and filled a block of memberships at a time.
    """

    def __init__(self, size: int):
        self.key = np.empty(size, dtype=complex)
        self.at, self.dx, self.dv = np.empty(size), np.empty(size), np.empty(size)
        self.filled = 0

    def fill(self, grid, values, cut, sign: float, first_row: int) -> None:
        """Append the entries that ``cut`` marks in a block's rows, which list
        knots from the span end back; ``first_row`` is the block's first
        membership."""
        rows, cols = np.nonzero(cut)  # by membership, then by rising level
        level, x = values[rows, cols], grid[rows, cols]
        dx, dv = grid[rows, cols - 1] - x, level - values[rows, cols - 1]
        end = np.flatnonzero(level == 0.0)  # only the span end's entry has level 0
        dx[end], dv[end] = 0.0, 1.0
        part = slice(self.filled, self.filled + rows.size)
        key = self.key[part]
        key.real, key.imag = first_row + rows, level
        self.at[part], self.dx[part], self.dv[part] = sign * x, sign * dx, dv
        self.filled = part.stop

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
    """The right and left α-cut tables of many memberships, block by block.

    A first pass marks each block's entries, so that each table is allocated
    once at its exact size; a second pass fills both tables block by block.
    """
    # an exact power-of-two rescale (to below 2**1000) changes no degree, lifts tiny abscissas
    shift = max(0, 1000 - max(int(np.frexp(max(-m.grid[0], m.grid[-1]))[1]) for m in memberships))
    step = max(1, CUT_BLOCK // max(m.grid.size + 2 for m in memberships))
    blocks = [memberships[i:i + step] for i in range(0, len(memberships), step)]
    marks = [_cut_marks(*_rows(block, "values")) for block in blocks]
    right, left = (_Cuts(sum(np.count_nonzero(cuts[side]) for cuts in marks)) for side in (0, 1))
    for i, (block, (right_cut, left_cut)) in enumerate(zip(blocks, marks)):
        (grid, first), (values, _) = _rows(block, "grid"), _rows(block, "values")
        rows = np.arange(first.size)
        grid[rows, first - 1], grid[:, -1] = grid[rows, first], grid[:, -2]  # the span ends repeat the end knots
        np.ldexp(grid, shift, out=grid)
        right.fill(grid[:, ::-1], values[:, ::-1], right_cut, 1.0, i * step)
        left.fill(np.negative(grid, out=grid), values, left_cut, -1.0, i * step)
    return right, left


def _rows(memberships, name: str):
    """The knot arrays ``name`` ("grid" or "values") of a block of
    memberships, one row each, and the column of each row's first knot.

    Row s holds membership s's knots, right-aligned behind zero padding,
    between zero entries at both span ends.  Read backwards, the rows list
    the knots from the span end back, which gives the right table; negated,
    the rows do the same for the mirror images, which gives the left table.
    """
    sizes = np.array([m.grid.size for m in memberships])
    first = sizes.max() + 1 - sizes
    knots = np.arange(sizes.max() + 2) >= first[:, None]
    knots[:, -1] = False
    rows = np.zeros(knots.shape)
    rows[knots] = np.concatenate([getattr(m, name) for m in memberships])
    return rows, first


def _cut_marks(values, first):
    """Where the right and left table entries of a block sit in its value
    rows: the right ones in the rows read backwards, after the value-0 entry
    at column 0; the left ones after the value-0 entry at column
    ``first[s] - 1``.  The padding has value 0, so none of it is a cut."""
    right, left = np.zeros(values.shape, dtype=bool), np.zeros(values.shape, dtype=bool)
    for cut, levels in ((right, values[:, ::-1]), (left, values)):
        cut[:, 1:] = levels[:, 1:] > np.fmax.accumulate(levels[:, :-1], axis=1)
    right[:, 0] = True
    left[np.arange(first.size), first - 1] = True
    return right, left


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


# Pairs are solved at most this many at a time, which bounds the per-pair
# temporaries of a large universe to about 5 MB.  A 128-security screen is one
# block.  Each block pays the bisection's numpy call overhead: at 1024
# securities on 2 cores, build_report took 1.07 s in blocks of this size (16
# blocks of 64 matrix rows), 1.09 s in one block and 1.31 s in blocks of 8192
# (medians of 5).
PAIR_BLOCK = 65536


def dominance_matrix(memberships, gate) -> np.ndarray:
    """The n x n matrix of the degrees to which memberships[k] is >=
    memberships[l] where ``gate[k, l]`` holds, and of zeros elsewhere.

    For k and l: sup over u >= v of min(k(u), l(v)), the possibility index
    PD(k >= l) = max{α <= min(peak k, peak l) : L_l(α) <= R_k(α)}.  Each pair
    tests that cap, bisects k's levels then l's down to linear pieces, and
    solves their crossing: O(knots) per membership for the α-cut tables,
    built once, then O(log knots) numpy steps per block.  The gated pairs are
    generated and solved for ``PAIR_BLOCK // n`` rows at a time (at least
    one), so no list of all pairs is held.
    """
    gate = np.asarray(gate, dtype=bool)
    right, left = _cut_tables(memberships)
    peaks = np.array([m.peak for m in memberships])
    step = max(1, PAIR_BLOCK // len(memberships))
    degree = np.zeros(gate.shape)
    for start in range(0, len(memberships), step):
        rows, cols = np.nonzero(gate[start:start + step])
        rows += start
        solved = np.minimum(peaks[rows], peaks[cols])
        _solve(right, left, rows, cols, solved)
        degree[rows, cols] = solved
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
