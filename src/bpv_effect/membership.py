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

import numpy as np

from . import quadrature


class MembershipFn:
    """Piecewise-linear membership function on a strictly increasing grid."""

    def __init__(self, grid, values):
        grid = np.array(grid, dtype=float, copy=True)
        values = np.array(values, dtype=float, copy=True)
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
        self.grid, self.values = grid, values
        # np.interp's slopes overflow on knot spacings below the normal range;
        # such grids are evaluated after one exact power-of-two rescale of the
        # abscissas (to below 2**1000), which keeps those spacings normal
        self._shift = 0
        if spacing.min() < np.finfo(float).tiny:
            self._shift = max(0, 1000 - int(np.frexp(np.abs(grid).max())[1]))
        self._abscissas = np.ldexp(grid, self._shift) if self._shift else grid

    def __call__(self, x):
        """Evaluate the interpolant; zero outside the knot span."""
        if self._shift:
            with np.errstate(over="ignore"):  # beyond the span either way
                x = np.ldexp(x, self._shift)
        return np.interp(x, self._abscissas, self.values, left=0.0, right=0.0)

    def lines(self, x) -> np.ndarray:
        """Intercept and slope of the piece of the interpolant that holds
        each x, down a leading axis of length 2: (0, 0) off the knot span,
        and at the last knot.  A knot spacing below the normal range
        overflows its slope."""
        x0, v0 = self.grid[:-1], self.values[:-1]
        lines = np.zeros((2, self.grid.size + 1))
        lines[1, 1:-1] = (self.values[1:] - v0) / (self.grid[1:] - x0)
        lines[0, 1:-1] = v0 - lines[1, 1:-1] * x0
        return lines[:, np.searchsorted(self.grid, x, side="right")]

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
    xs = quadrature.distinct(np.array([a, b, c, d], dtype=float))
    ys = np.ones(xs.size)
    ys[0], ys[-1] = a == b, c == d
    return MembershipFn(xs, ys)


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

    def fill(self, x, levels, cut, sign: float, first_row: int) -> None:
        """Append the entries that ``cut`` marks in a block's rows, whose
        abscissas ``x`` and ``levels`` come flattened and list knots from the
        span end back; ``first_row`` is the block's first membership."""
        knot = np.flatnonzero(cut)  # by membership, then by rising level
        level, at = levels[knot], x[knot]
        dx, dv = x[knot - 1] - at, level - levels[knot - 1]
        end = np.flatnonzero(level == 0.0)  # only the span end's entry has level 0
        dx[end], dv[end] = 0.0, 1.0
        part = slice(self.filled, self.filled + knot.size)
        key = self.key[part]
        key.real, key.imag = first_row + knot // cut.shape[1], level
        self.at[part], self.dx[part], self.dv[part] = sign * at, sign * dx, dv
        self.filled = part.stop

    def find(self, s, alpha):
        """Entry of membership s at level alpha, or topping the piece holding it."""
        return np.searchsorted(self.key, s + 1j * alpha)

    def slide(self, p, alpha):
        """Cut end at alpha on the piece topped by entry p, minus ``at[p]``."""
        return (self.key[p].imag - alpha) / self.dv[p] * self.dx[p]


# α-cut tables are built from blocks of memberships with about this many
# knots in all, which bounds a block's dense temporaries to under 1 MB; a
# block of matrix rows holds at most twice as many (``dominance_matrix``).  A
# 128-security screen (fuzzy returns of about 816 knots) builds its left table
# from 7 blocks and the right table of each of its 4 blocks of 32 rows from 2.
# Measured there on 2 cores: the left table in 1.6-2.5 ms, its tracemalloc
# peak 1.8 MB for 1.2 MB of table, and the four right tables in 2.4-2.6 ms,
# where both tables took 6.0-6.4 ms when built over all rows.  build_report
# peaked at 1.9 MB with blocks of 2**13 knots but took 1.7 ms longer (8 blocks
# of rows), and at 3.2 MB with blocks of 2**15.
CUT_BLOCK = 2**14


def _cut_table(memberships, sign: float, first: int, shift: int) -> _Cuts:
    """The right (sign 1) or left (sign -1) α-cut table of memberships
    numbered from ``first`` on, their abscissas scaled by 2**shift, block by
    block.

    A first pass marks each block's entries, so that the table is allocated
    once at its exact size; a second pass fills it block by block.
    """
    step = max(1, CUT_BLOCK // max(m.grid.size + 1 for m in memberships))
    blocks = [memberships[i:i + step] for i in range(0, len(memberships), step)]
    marks = [_cut_marks(*_rows(block, "values", sign)) for block in blocks]
    cuts = _Cuts(sum(np.count_nonzero(cut) for cut in marks))
    for i, (block, cut) in enumerate(zip(blocks, marks)):
        (x, end), (levels, _) = _rows(block, "grid", sign), _rows(block, "values", sign)
        rows = np.arange(end.size)
        x[rows, end] = x[rows, end + 1]  # the span end's entry sits at the end knot
        np.ldexp(x, shift, out=x)
        x *= sign  # the left table's rows list the mirror image's knots
        cuts.fill(x.ravel(), levels.ravel(), cut, sign, first + i * step)
    return cuts


def _rows(memberships, name: str, sign: float):
    """The knot arrays ``name`` ("grid" or "values") of a block of
    memberships, one row each, listed from the span end back: backwards for
    the right table (sign 1), forwards for the left; and the column of each
    row's span end.

    Row s holds membership s's knots right-aligned behind zero padding and a
    zero entry for the span end."""
    width = max(m.grid.size for m in memberships) + 1
    rows, end = np.zeros((len(memberships), width)), np.empty(len(memberships), dtype=int)
    for s, m in enumerate(memberships):
        knots = getattr(m, name)
        end[s] = width - 1 - knots.size
        rows[s, end[s] + 1:] = knots[::-1] if sign > 0 else knots
    return rows, end


def _cut_marks(levels, end):
    """Where a block's table entries sit in its value rows ``levels``: the
    value-0 entry at column ``end[s]``, then each knot whose value exceeds
    every one before it in its row.  The padding has value 0, so none of it
    is a cut."""
    cut = np.zeros(levels.shape, dtype=bool)
    cut[:, 1:] = levels[:, 1:] > np.fmax.accumulate(levels[:, :-1], axis=1)
    cut[np.arange(end.size), end] = True
    return cut


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
# temporaries of a large universe to about 5 MB.  A 128-security screen is
# bound by its knots instead: 4 blocks of 32 rows, which took 0.1-0.8 ms longer
# than one block.  At 1024 securities (27 blocks of 38 rows) build_report took
# 0.85 s on 2 cores, against 0.93-0.97 s for 16 blocks of 64 rows sharing one
# right table over all rows, and its tracemalloc peak fell from 34.1 to 20.9 MB.
PAIR_BLOCK = 65536


def dominance_matrix(memberships, gate) -> np.ndarray:
    """The n x n matrix of the degrees to which memberships[k] is >=
    memberships[l] where ``gate[k, l]`` holds, and of zeros elsewhere.

    For k and l: sup over u >= v of min(k(u), l(v)), the possibility index
    PD(k >= l) = max{α <= min(peak k, peak l) : L_l(α) <= R_k(α)}.  Each pair
    tests that cap, bisects k's levels then l's down to linear pieces, and
    solves their crossing: O(knots) per membership for the α-cut tables,
    then O(log knots) numpy steps per block of rows.  The left table spans
    every membership.  The rows are spread evenly over as few blocks as two
    budgets allow, ``PAIR_BLOCK // n`` rows and ``2 * CUT_BLOCK`` knots; each
    block builds the right table of its own memberships and generates and
    solves its gated pairs, so no right table and no list of pairs spans the
    universe.
    """
    gate = np.asarray(gate, dtype=bool)
    # an exact power-of-two rescale (to below 2**1000) changes no degree, lifts tiny abscissas
    shift = max(0, 1000 - max(int(np.frexp(max(-m.grid[0], m.grid[-1]))[1]) for m in memberships))
    left = _cut_table(memberships, -1.0, 0, shift)
    peaks = np.array([m.peak for m in memberships])
    n, width = len(memberships), max(m.grid.size for m in memberships) + 1
    blocks = -(-n // max(1, min(PAIR_BLOCK // n, 2 * CUT_BLOCK // width)))
    step = -(-n // blocks)
    degree = np.zeros(gate.shape)
    for start in range(0, n, step):
        rows, cols = np.nonzero(gate[start:start + step])
        rows += start
        solved = np.minimum(peaks[rows], peaks[cols])
        # a block's right table lives only while its pairs are solved
        _solve(_cut_table(memberships[start:start + step], 1.0, start, shift), left, rows, cols, solved)
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
