"""Shared generators and independent oracles for the test suite.

Everything here deliberately avoids the package's own integration and
sup-min code paths: integrals are sampled Riemann/trapezoid sums, the
dominance oracles are a masked double loop over grid pairs and an exact
x-space candidate enumeration (the package works on α-cuts), α-cut tables
are built one membership at a time (the package builds them from padded
blocks), state sums are a loop over nodes with a scalar membership lookup
(the package sums runs of nodes knot by knot), and the trapezoid
membership is re-derived from its corner formulas, and the center and
area of the fuzzy return come from closed forms.  The exceptions are
``dominance``, a one-pair shorthand for the package's own
``dominance_matrix`` that the tests compare against these oracles, and
``staged_profile``, which runs the stages of ``profile`` through a chosen
state-sum view, ``midpoint_nodes``, which stands a continuous law's
closed forms in for a rule of equal-weight nodes, and
``gauss_legendre_variance``, which integrates the package's variance
kernel (itself checked against the node loop) on a fine rule of its own.
"""

import bisect
import math
from statistics import NormalDist

import numpy as np
from scipy import stats

from bpv_effect import returns
from bpv_effect.distribution import DiscreteLaw, TruncatedLaw
from bpv_effect.effectiveness import dominance_matrix
from bpv_effect.membership import MembershipFn, energy_measure, entropy_measure, trapezoid

ORACLE_GRID = 2000  # dominance brute-force resolution per axis


def riemann(ys, xs) -> float:
    """Plain sampled trapezoid sum, independent of the package."""
    ys = np.asarray(ys, dtype=float)
    xs = np.asarray(xs, dtype=float)
    return float(np.sum(np.diff(xs) * (ys[:-1] + ys[1:])) / 2.0)


def refine(m: MembershipFn) -> MembershipFn:
    """Insert segment midpoints with interpolated values (same function)."""
    mids = (m.grid[:-1] + m.grid[1:]) / 2.0
    grid = np.sort(np.concatenate((m.grid, mids)))
    return MembershipFn(grid, m(grid))


# ---------------------------------------------------------------------------
# dominance oracle


def dominance(k: MembershipFn, l: MembershipFn) -> float:
    """The package's degree to which k >= l: entry [0, 1] of a two-membership
    ``dominance_matrix`` whose gate is only that pair."""
    return float(dominance_matrix((k, l), [[False, True], [False, False]])[0, 1])


def lattice_trapezoid_pair(rng, n: int = ORACLE_GRID):
    """Random trapezoid pair whose sup-min attainment points all lie on the
    n-point uniform grid over [0, 1].

    Corners sit on the grid, the joint support is exactly [0, 1], and the
    right ramp of k shares width and corner parity with the left ramp of
    l, which places their crossing on the grid.  The brute-force oracle is
    then exact, so comparisons can be asserted at tight tolerance.
    """
    h = 1.0 / (n - 1)
    width = int(rng.integers(40, 400))
    i_b = int(rng.integers(1, 1200))
    i_c = int(rng.integers(i_b + 1, min(i_b + 600, n - width - 1)))
    i_d = i_c + width
    j_a = int(rng.integers(1, n - width - 2))
    if (i_d + j_a) % 2 == 1:
        j_a += 1 if j_a + 1 <= n - width - 2 else -1
    j_b = j_a + width
    j_c = int(rng.integers(j_b + 1, n))
    k = trapezoid(0.0, i_b * h, i_c * h, i_d * h)
    l = trapezoid(j_a * h, j_b * h, j_c * h, (n - 1) * h)
    return k, l


def brute_dominance(k: MembershipFn, l: MembershipFn, xs, feasible) -> float:
    """max over grid pairs (u, v) with u >= v of min(k(u), l(v))."""
    pairs = np.minimum.outer(k(xs), l(xs))
    pairs *= feasible
    return float(pairs.max())


def dominance_oracle_setup(n: int = ORACLE_GRID):
    xs = np.linspace(0.0, 1.0, n)
    feasible = np.tri(n, dtype=bool)  # row u index >= column v index
    return xs, feasible


def _sup_from_right(m: MembershipFn, points) -> np.ndarray:
    """sup of m over [p, +inf) for each p: the nonincreasing right envelope."""
    points = np.asarray(points, dtype=float)
    tail_max = np.maximum.accumulate(m.values[::-1])[::-1]
    idx = np.searchsorted(m.grid, points, side="left")
    inside = idx < m.grid.size
    tail = np.where(inside, tail_max[np.minimum(idx, m.grid.size - 1)], 0.0)
    return np.maximum(m(points), tail)


def _one_sided(m: MembershipFn, x0, x1):
    """m(x0+) and m(x1-): the values, except past a vertical edge at a span end."""
    lo, hi = m.grid[0], m.grid[-1]
    return (np.where((x0 >= lo) & (x0 < hi), m(x0), 0.0),
            np.where((x1 > lo) & (x1 <= hi), m(x1), 0.0))


def candidate_dominance(k: MembershipFn, l: MembershipFn) -> float:
    """sup over u >= v of min(k(u), l(v)), exact, by candidate enumeration.

    An x-space method independent of the package's α-cut kernel.  The
    inner sup over u is the right envelope g(v) = sup_{u >= v} k(u).  On
    each open segment (x0, x1) between merged knots, k and l are linear
    and g = max(k, g(x1)), so sup min(g, l) there is min(g(x1), sup l) or
    the crossing of k and l, solved from one-sided end limits in segment
    parameter space.  Together with the knots themselves this covers every
    candidate, and segments an ulp wide need no interior samples.
    """
    # a common power-of-two rescale is exact and changes no degree; it keeps
    # knot spacings out of the subnormal range, where np.interp breaks down
    shift = 500 - np.frexp(np.abs(np.concatenate((k.grid, l.grid))).max())[1]
    k, l = (MembershipFn(np.ldexp(m.grid, shift), m.values) for m in (k, l))
    xs = np.unique(np.concatenate((k.grid, l.grid)))
    g = _sup_from_right(k, xs)
    best = float(np.max(np.minimum(g, l(xs))))
    x0, x1 = xs[:-1], xs[1:]
    (k0, k1), (h0, h1) = _one_sided(k, x0, x1), _one_sided(l, x0, x1)
    best = max(best, float(np.max(np.minimum(g[1:], np.maximum(h0, h1)), initial=0.0)))
    d0, d1 = k0 - h0, k1 - h1
    cross = d0 * d1 < 0.0
    t = d0[cross] / (d0[cross] - d1[cross])
    crossing = np.minimum(k0[cross] + t * (k1[cross] - k0[cross]), h0[cross] + t * (h1[cross] - h0[cross]))
    return min(max(best, float(np.max(crossing, initial=0.0))), 1.0)


# ---------------------------------------------------------------------------
# α-cut tables, one membership at a time (the package builds them from padded blocks)


def _right_cuts(grid: np.ndarray, values: np.ndarray):
    """Right α-cut ends R(α) = max{u : m(u) >= α} of one membership: the
    levels, R at each, and the segment extents."""
    g, v = np.append(grid, grid[-1]), np.append(values, 0.0)  # drop to 0 at the span end
    tail = np.append(np.maximum.accumulate(v[::-1])[::-1][1:], 0.0)
    knots = np.flatnonzero(v > tail)[::-1]
    extents = np.append(0.0, g[knots + 1] - g[knots]), np.append(1.0, v[knots] - v[knots + 1])
    return np.append(0.0, v[knots]), (np.append(g[-1], g[knots]), *extents)


def loop_cuts(memberships, sign: float):
    """The (key, at, dx, dv) arrays of ``effectiveness._Cuts``, built membership
    by membership."""
    shift = max(0, 1000 - max(np.frexp(np.abs(m.grid).max())[1] for m in memberships))
    keys, ends = [], []
    for s, m in enumerate(memberships):
        grid = np.ldexp(m.grid if sign > 0 else -m.grid[::-1], shift)
        levels, (at, dx, dv) = _right_cuts(grid, m.values if sign > 0 else m.values[::-1])
        keys.append(s + 1j * levels)
        ends.append(np.array((sign * at, sign * dx, dv)))
    return (np.concatenate(keys), *np.concatenate(ends, axis=1))


# ---------------------------------------------------------------------------
# per-node state sums (the package sums runs of nodes knot by knot)


def _membership_at(grid, values, x) -> float:
    """Piecewise-linear membership at one point, zero outside the closed span."""
    if not grid[0] <= x <= grid[-1]:
        return 0.0
    k = bisect.bisect_right(grid, x) - 1
    if k == len(grid) - 1:
        return values[k]
    return values[k] + (values[k + 1] - values[k]) * ((x - grid[k]) / (grid[k + 1] - grid[k]))


def _node_memberships(mu: MembershipFn, conv, rates, y) -> list[float]:
    """mu(pv(r, y)) at each rate, one node; 0 at rates the convention excludes."""
    rates = np.asarray(rates, dtype=float).reshape(-1, 1)  # the package maps a rate column
    with np.errstate(divide="ignore", over="ignore"):
        present = conv.present_map(rates, y).ravel()
    grid, values = mu.grid.tolist(), mu.values.tolist()
    return [_membership_at(grid, values, p) if r > conv.limit else 0.0
            for r, p in zip(rates.ravel(), present.tolist())]


def node_loop_state_sums(mu: MembershipFn, conv, nodes, rates) -> np.ndarray:
    """sum_j w_j mu(pv(r, y_j)) at each rate, node by node."""
    terms = [[w * m for m in _node_memberships(mu, conv, rates, y)]
             for y, w in zip(nodes.nodes.tolist(), nodes.weights.tolist())]
    return np.array([math.fsum(column) for column in zip(*terms)])


def node_loop_kernel(mu: MembershipFn, conv, nodes, center, steps) -> np.ndarray:
    """sum_j w_j max(mu(pv(center + s, y_j)), mu(pv(center - s, y_j))) per step s."""
    steps = np.asarray(steps, dtype=float)
    terms = []
    for y, w in zip(nodes.nodes.tolist(), nodes.weights.tolist()):
        upper = _node_memberships(mu, conv, center + steps, y)
        lower = _node_memberships(mu, conv, center - steps, y)
        terms.append([w * max(u, l) for u, l in zip(upper, lower)])
    return np.array([math.fsum(column) for column in zip(*terms)])


def midpoint_nodes(dist, n: int) -> DiscreteLaw:
    """A continuous law as n equal-weight nodes at the probability midpoints
    (i - 1/2)/n of its truncation, from scipy's normal quantiles."""
    lo, hi = dist.levels
    z = stats.norm.ppf(lo + (np.arange(n) + 0.5) / n * (hi - lo))
    values = dist.mean + dist.sd * z
    return DiscreteLaw(np.exp(values) if dist.log else values, np.full(n, 1.0 / n))


def staged_profile(view_class, mu: MembershipFn, law, conv, settings) -> np.ndarray:
    """Center, variance, energy and entropy from the stages of ``profile``,
    with the state sums of ``view_class`` (``views._KnotView`` or
    ``views._NodeView`` over a discrete ``law``)."""
    grid = returns.ReturnGrid.spanning(mu, law, conv, settings.grid_points)
    view = view_class(mu, conv, law)
    rho = returns.expected_return_distribution(view, grid)
    center = returns.expected_return(rho)
    variance = returns.return_variance(view, center, grid.support)
    return np.array([center, variance, energy_measure(rho), entropy_measure(rho)])


def gauss_legendre_variance(view, center: float, cuts, points: int = 64) -> float:
    """V = int s^3 K ds / int s K ds by ``points``-point Gauss-Legendre
    (numpy's ``leggauss``) on each interval between the sorted ``cuts``,
    with the kernel K of ``view``, 256 intervals at a time."""
    cuts = np.asarray(cuts, dtype=float)
    nodes, weights = np.polynomial.legendre.leggauss(points)
    numerator = denominator = 0.0
    for start in range(0, cuts.size - 1, 256):
        ends = cuts[start:start + 257]
        half = np.diff(ends)[:, None] / 2.0
        steps = (ends[:-1, None] + half * (nodes + 1.0)).ravel()
        measure = (half * weights).ravel() * steps
        kernel = view.kernel(center, steps)
        numerator += (measure * steps * steps) @ kernel
        denominator += measure @ kernel
    return numerator / denominator


def kink_deviations(mu: MembershipFn, conv, nodes, center: float, far: float) -> np.ndarray:
    """The deviations |rate_map(x_k, y_j) - center| below ``far`` at which
    a copy of an atom y_j meets a knot x_k."""
    kinks = np.abs(conv.rate_map(mu.grid[:, None], nodes.nodes) - center).ravel()
    return kinks[kinks < far]


def copy_crossings(mu: MembershipFn, conv, nodes, center: float, far: float) -> np.ndarray:
    """Deviations s in [0, far] at which the two copies mu(pv(center + s, y))
    and mu(pv(center - s, y)) of one atom y swap which is larger, found by
    bisection wherever their difference changes sign between consecutive
    points of 4096 uniform intervals and the kink deviations."""
    scan = np.unique(np.concatenate((np.linspace(0.0, far, 4097), kink_deviations(mu, conv, nodes, center, far))))
    found = []
    for y in nodes.nodes.tolist():
        def gap(s):
            s = np.asarray(s, dtype=float)
            return (np.array(_node_memberships(mu, conv, center + s, y))
                    - np.array(_node_memberships(mu, conv, center - s, y)))

        values = gap(scan)
        for i in np.flatnonzero(values[:-1] * values[1:] < 0.0).tolist():
            low, high = float(scan[i]), float(scan[i + 1])
            while low < (low + high) / 2.0 < high:
                middle = (low + high) / 2.0
                if (gap([middle])[0] > 0.0) == (values[i] > 0.0):
                    low = middle
                else:
                    high = middle
            found.append(low)
    return np.array(found)


def reference_variance(view, mu: MembershipFn, conv, nodes, center: float, far: float,
                       breakpoints: bool = True) -> float:
    """The variance of a discrete law by Gauss-Legendre with 64 points on
    each of 4096 uniform intervals of [0, far], and with ``breakpoints``
    also split at the kink deviations and the copies' crossings, where the
    kernel bends."""
    edges = np.linspace(0.0, far, 4097)
    if breakpoints:
        edges = np.unique(np.concatenate((edges, kink_deviations(mu, conv, nodes, center, far),
                                          copy_crossings(mu, conv, nodes, center, far))))
    return gauss_legendre_variance(view, center, edges)


# ---------------------------------------------------------------------------
# closed-form center and area of the fuzzy return
#
# Substituting x = pv(r, y) in each state's integral leaves integrals of mu
# alone: I_k = int mu(x) x^-k dx and J = int mu(x) ln(x) / x dx.  Simple
# rates give the area E[Y] I_2 and the center E[Y^2] I_3 / (E[Y] I_2) - 1;
# logarithmic rates give the area I_1 and the center E[ln Y] - J / I_1.


def piece_integrals(v0: float, b: float, x0: float, x1: float) -> np.ndarray:
    """I_1, I_2, I_3 and J of mu = v0 + b (x - x0) over [x0, x1], each
    written without a difference of large terms, so that a piece far
    narrower than x0 keeps its digits."""
    width, l0, l1 = x1 - x0, math.log(x0), math.log(x1)
    log_ratio = math.log1p(width / x0)  # ln(x1 / x0)
    inverse = width / (x0 * x1)  # 1/x0 - 1/x1
    return np.array([
        v0 * log_ratio + b * (width - x0 * log_ratio),
        v0 * inverse + b * (log_ratio - width / x1),
        v0 * inverse * (x0 + x1) / (2.0 * x0 * x1) + b * width * width / (2.0 * x0 * x1 * x1),
        v0 * log_ratio * (l0 + l1) / 2.0
        + b * ((x1 * l1 - x1) - (x0 * l0 - x0) - x0 * log_ratio * (l0 + l1) / 2.0),
    ])


def membership_integrals(mu: MembershipFn) -> np.ndarray:
    """I_1, I_2, I_3 and J of mu, piece by piece; vertical edges add nothing."""
    totals = np.zeros(4)
    x, v = mu.grid.tolist(), mu.values.tolist()
    for x0, x1, v0, v1 in zip(x, x[1:], v, v[1:]):
        if x1 > x0:
            totals += piece_integrals(v0, (v1 - v0) / (x1 - x0), x0, x1)
    return totals


def discrete_moments(points, probs) -> tuple[float, float, float]:
    """E[Y], E[Y^2] and E[ln Y] of a discrete law."""
    y, p = np.asarray(points, dtype=float), np.asarray(probs, dtype=float)
    return float(p @ y), float(p @ y**2), float(p @ np.log(y))


def lognormal_moments(log_mean: float, log_sd: float, lo: float, hi: float) -> tuple[float, float, float]:
    """E[Y], E[Y^2] and E[ln Y] of a lognormal law truncated at the quantile
    levels 0 < lo < hi < 1."""
    phi = NormalDist()
    z_lo, z_hi = phi.inv_cdf(lo), phi.inv_cdf(hi)

    def power(k):
        spread = phi.cdf(z_hi - k * log_sd) - phi.cdf(z_lo - k * log_sd)
        return math.exp(k * log_mean + k * k * log_sd**2 / 2.0) * spread / (hi - lo)

    return power(1), power(2), log_mean + log_sd * (phi.pdf(z_lo) - phi.pdf(z_hi)) / (hi - lo)


def normal_moments(mean: float, sd: float, lo: float, hi: float) -> tuple[float, float, float]:
    """E[Y] and E[Y^2] of a normal law truncated at the quantile levels
    0 < lo < hi < 1; its E[ln Y] has no closed form and is nan."""
    phi = NormalDist()
    (z_lo, z_hi), mass = (phi.inv_cdf(lo), phi.inv_cdf(hi)), hi - lo
    first = (phi.pdf(z_lo) - phi.pdf(z_hi)) / mass
    second = 1.0 + (z_lo * phi.pdf(z_lo) - z_hi * phi.pdf(z_hi)) / mass
    return mean + sd * first, mean**2 + 2.0 * mean * sd * first + sd**2 * second, math.nan


def closed_form_center_and_area(mu: MembershipFn, kind: str, moments) -> tuple[float, float]:
    """Center and area of the fuzzy return under convention ``kind``, from
    the law's ``moments`` (E[Y], E[Y^2], E[ln Y])."""
    i1, i2, i3, j = membership_integrals(mu)
    mean, square, log_mean = moments
    if kind == "simple":
        return square * i3 / (mean * i2) - 1.0, mean * i2
    return log_mean - j / i1, i1


# ---------------------------------------------------------------------------
# direct-summation profile oracle (discrete future values, trapezoid mu)


def oracle_profile_discrete(corners, atoms, probs, kind, n_r=10_000, n_x=20_001):
    """Evaluate every profile statistic by direct summation on fine grids.

    Returns (rates, rho, expected_return, variance, energy, entropy); the
    expected return uses the full double-sum form (rate integral of the
    per-atom sums), not the reduced single-integral form.
    """
    a, b, c, d = corners
    atoms = np.asarray(atoms, dtype=float)
    probs = np.asarray(probs, dtype=float)

    def mu(x):
        x = np.asarray(x, dtype=float)
        rising = np.clip((x - a) / (b - a), 0.0, 1.0) if b > a else (x >= a).astype(float)
        falling = np.clip((d - x) / (d - c), 0.0, 1.0) if d > c else (x <= d).astype(float)
        return np.minimum(rising, falling)

    def present_values(r, y):
        r = np.asarray(r, dtype=float)
        if kind == "simple":
            with np.errstate(divide="ignore"):
                return y / (1.0 + r)
        return y * np.exp(-r)

    if kind == "simple":
        r_lo, r_hi = atoms.min() / d - 1.0, atoms.max() / a - 1.0
    else:
        r_lo, r_hi = np.log(atoms.min() / d), np.log(atoms.max() / a)
    pad = 0.05 * (r_hi - r_lo)
    lower = r_lo - pad
    if kind == "simple":
        lower = max(lower, (r_lo - 1.0) / 2.0)
    rates = np.linspace(lower, r_hi + pad, n_r)

    rho = np.zeros(n_r)
    for y, p in zip(atoms, probs):
        rho += p * mu(present_values(rates, y))

    expected = riemann(rates * rho, rates) / riemann(rho, rates)
    area = riemann(rho, rates)
    blur = riemann(np.minimum(rho, 1.0 - rho), rates)

    x_max = max((rates[-1] - expected) ** 2, (rates[0] - expected) ** 2)
    xs = np.linspace(0.0, x_max, n_x)
    deviations = np.sqrt(xs)
    kernel = np.zeros(n_x)
    for y, p in zip(atoms, probs):
        kernel += p * np.maximum(
            mu(present_values(expected + deviations, y)),
            mu(present_values(expected - deviations, y)),
        )
    variance = riemann(xs * kernel, xs) / riemann(kernel, xs)
    return rates, rho, expected, variance, area / (1.0 + area), blur / (1.0 + blur)


# ---------------------------------------------------------------------------
# Pareto oracle


def direct_pareto(matrix) -> list[float]:
    """Pure-python inf-max evaluation of Pareto memberships from a matrix."""
    n = len(matrix)
    scores = []
    for i in range(n):
        terms = [max(matrix[i][j], 1.0 - matrix[j][i]) for j in range(n)]
        scores.append(min(terms))
    return scores


# ---------------------------------------------------------------------------
# randomized portfolios


def random_security(rng):
    """Random (membership, distribution, convention-name) triple."""
    center = float(rng.uniform(60, 140))
    half = float(rng.uniform(3, 18))
    left = float(rng.uniform(0.1, 0.9)) * half
    right = float(rng.uniform(0.1, 0.9)) * half
    mu = trapezoid(center - half, center - left, center + right, center + half)
    kind = "simple" if rng.random() < 0.5 else "logarithmic"
    if rng.random() < 0.6:
        count = int(rng.integers(2, 6))
        points = np.sort(rng.uniform(0.7 * center, 1.4 * center, count))
        while np.any(np.diff(points) <= 1e-9):
            points = np.sort(rng.uniform(0.7 * center, 1.4 * center, count))
        dist = DiscreteLaw(points, rng.dirichlet(np.ones(count)))
    else:
        dist = TruncatedLaw.lognormal(
            float(np.log(center) + rng.uniform(-0.1, 0.15)),
            float(rng.uniform(0.05, 0.3)),
            (0.005, 0.995),
        )
    return mu, dist, kind


def random_membership(rng, span=(-5.0, 5.0), max_knots=8):
    """Sampled-grid membership with bounded slopes (segments >= 0.1 wide)."""
    count = int(rng.integers(2, max_knots + 1))
    while True:
        grid = np.sort(rng.uniform(span[0], span[1], count))
        if np.all(np.diff(grid) >= 0.1):
            break
    return MembershipFn(grid, rng.uniform(0.0, 1.0, count))


# ---------------------------------------------------------------------------
# report oracle


def round15(value):
    """Round floats to 15 significant digits, recursively through containers:
    the report's number contract, one value at a time."""
    if isinstance(value, float):
        return float(f"{value:.15g}")
    if isinstance(value, dict):
        return {k: round15(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [round15(v) for v in value]
    return value
