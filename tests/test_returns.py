import numpy as np
import pytest
from hypothesis import given, strategies as st

from bpv_effect.distribution import FutureValueDist
from bpv_effect.membership import MembershipFn, trapezoid, triangle
from bpv_effect.returns import (
    LOGARITHMIC,
    SIMPLE,
    DegenerateMembershipError,
    EngineSettings,
    ReturnGrid,
    convention,
    expected_return,
    expected_return_distribution,
    from_return_cdf,
    profile,
    return_variance,
    variance_span,
)

from support import riemann

FAST = EngineSettings(grid_points=401, nodes=64, variance_panels=512)


class TestConventions:
    @given(st.sampled_from(["simple", "logarithmic"]),
           st.floats(min_value=-0.9, max_value=5.0),
           st.floats(min_value=0.1, max_value=500.0))
    def test_round_trip(self, kind, rate, future):
        conv = convention(kind)
        present = conv.present_value_for(rate, future)
        assert present > 0.0
        assert conv.rate(present, future) == pytest.approx(rate, abs=1e-12)
        assert conv.future_value_for(rate, present) == pytest.approx(future, rel=1e-12)

    def test_monotonicity(self):
        for conv in (SIMPLE, LOGARITHMIC):
            assert conv.rate(90.0, 100.0) > conv.rate(110.0, 100.0)
            assert conv.rate(100.0, 110.0) > conv.rate(100.0, 90.0)

    def test_simple_domain(self):
        with pytest.raises(ValueError):
            SIMPLE.present_value_for(-1.0, 100.0)
        with pytest.raises(ValueError):
            SIMPLE.present_value_for(-1.5, 100.0)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            convention("continuous")


class TestStateMembership:
    MU = trapezoid(90, 95, 105, 110)

    def test_simple_on_plateau(self):
        assert self.MU(SIMPLE.present_value_for(0.0, 100.0)) == 1.0

    def test_logarithmic_on_plateau(self):
        assert self.MU(LOGARITHMIC.present_value_for(0.0, 100.0)) == 1.0

    def test_simple_outside_support(self):
        assert self.MU(SIMPLE.present_value_for(1.0, 100.0)) == 0.0

    def test_simple_rejects_rate_at_minus_one(self):
        with pytest.raises(ValueError):
            self.MU(SIMPLE.present_value_for(-1.0, 100.0))


class TestReturnGrid:
    def test_vanishes_at_endpoints(self):
        mu = trapezoid(90, 95, 105, 110)
        for dist in (
            FutureValueDist.discrete([95.0, 105.0], [0.5, 0.5]),
            FutureValueDist.lognormal(np.log(100), 0.2, (0.005, 0.995)),
        ):
            nodes = dist.make_nodes(64)
            for conv in (SIMPLE, LOGARITHMIC):
                grid = ReturnGrid.spanning(mu, nodes, conv, 401)
                rho = expected_return_distribution(mu, conv, nodes, grid)
                assert rho.values[0] == 0.0
                assert rho.values[-1] == 0.0

    def test_membership_with_edge_jumps_still_vanishes(self):
        mu = MembershipFn([90.0, 110.0], [1.0, 1.0])  # crisp interval, jumps at both edges
        dist = FutureValueDist.discrete([100.0], [1.0])
        nodes = dist.make_nodes(8)
        for conv in (SIMPLE, LOGARITHMIC):
            grid = ReturnGrid.spanning(mu, nodes, conv, 401)
            rho = expected_return_distribution(mu, conv, nodes, grid)
            assert rho.values[0] == 0.0 and rho.values[-1] == 0.0

    def test_simple_grid_stays_above_minus_one(self):
        mu = trapezoid(1.0, 40.0, 60.0, 1000.0)
        nodes = FutureValueDist.discrete([1.0, 2.0], [0.5, 0.5]).make_nodes(2)
        grid = ReturnGrid.spanning(mu, nodes, SIMPLE, 101)
        assert grid.r_values[0] > -1.0

    def test_requires_positive_support(self):
        mu = MembershipFn([0.0, 1.0], [1.0, 1.0])
        nodes = FutureValueDist.discrete([1.0], [1.0]).make_nodes(1)
        with pytest.raises(ValueError):
            ReturnGrid.spanning(mu, nodes, SIMPLE, 101)


class TestExpectedReturnDistribution:
    def test_dirac_future_value_reduces_to_membership(self):
        mu = trapezoid(90, 95, 105, 110)
        dist = FutureValueDist.discrete([100.0], [1.0])
        nodes = dist.make_nodes(1)
        grid = ReturnGrid.spanning(mu, nodes, SIMPLE, 801)
        rho = expected_return_distribution(mu, SIMPLE, nodes, grid)
        # single-atom sum collapses to mu(100 / (1 + r)) exactly at the knots
        direct = mu(100.0 / (1.0 + grid.r_values))
        assert np.max(np.abs(rho.values - direct)) < 1e-15
        assert rho(0.0) == 1.0
        assert rho(100.0 / 95.0 - 1.0) == pytest.approx(1.0, abs=2e-4)
        assert rho(100.0 / 90.0 - 1.0) == pytest.approx(0.0, abs=2e-4)

    def test_saturated_plateau_gives_one(self):
        mu = trapezoid(10, 50, 200, 400)
        dist = FutureValueDist.discrete([90.0, 110.0], [0.5, 0.5])
        nodes = dist.make_nodes(2)
        grid = ReturnGrid.spanning(mu, nodes, SIMPLE, 801)
        inside = (grid.r_values > -0.4) & (grid.r_values < 0.75)
        rho = expected_return_distribution(mu, SIMPLE, nodes, grid)
        assert np.all(rho.values[inside] == 1.0)

    def test_two_atom_crisp_window(self):
        mu = MembershipFn([100.0, 100.5], [1.0, 1.0])
        dist = FutureValueDist.discrete([95.0, 105.0], [0.5, 0.5])
        nodes = dist.make_nodes(2)
        grid = ReturnGrid.spanning(mu, nodes, SIMPLE, 2001)
        rho = expected_return_distribution(mu, SIMPLE, nodes, grid)
        low_window = (95.0 / 100.5 - 1.0 + 95.0 / 100.0 - 1.0) / 2.0
        high_window = (105.0 / 100.5 - 1.0 + 105.0 / 100.0 - 1.0) / 2.0
        assert rho(low_window) == pytest.approx(0.5, abs=1e-9)
        assert rho(high_window) == pytest.approx(0.5, abs=1e-9)
        assert rho(0.0) == 0.0
        assert rho(0.1) == 0.0

    def test_values_stay_in_unit_interval(self):
        rng = np.random.default_rng(31)
        from support import random_security

        for _ in range(20):
            mu, dist, kind = random_security(rng)
            conv = convention(kind)
            nodes = dist.make_nodes(32)
            grid = ReturnGrid.spanning(mu, nodes, conv, 201)
            rho = expected_return_distribution(mu, conv, nodes, grid)
            assert rho.values.min() >= 0.0
            assert rho.values.max() <= 1.0

    def test_widening_membership_never_lowers_rho(self):
        rng = np.random.default_rng(37)
        dist = FutureValueDist.discrete([95.0, 100.0, 110.0], [0.3, 0.4, 0.3])
        nodes = dist.make_nodes(3)
        for _ in range(10):
            grid_mu = np.sort(rng.uniform(80, 120, 6))
            if np.any(np.diff(grid_mu) < 1e-6):
                continue
            narrow_vals = rng.uniform(0.0, 1.0, 6)
            wide_vals = np.minimum(narrow_vals + rng.uniform(0.0, 0.5, 6), 1.0)
            narrow = MembershipFn(grid_mu, narrow_vals)
            wide = MembershipFn(grid_mu, wide_vals)
            grid = ReturnGrid.spanning(narrow, nodes, SIMPLE, 201)
            rho_narrow = expected_return_distribution(narrow, SIMPLE, nodes, grid)
            rho_wide = expected_return_distribution(wide, SIMPLE, nodes, grid)
            assert np.all(rho_wide.values >= rho_narrow.values - 1e-15)

    def test_node_doubling_converges_with_order_at_least_one(self):
        mu = trapezoid(85, 95, 105, 120)
        dist = FutureValueDist.lognormal(np.log(100), 0.15, (0.005, 0.995))
        conv = SIMPLE
        grid = ReturnGrid.spanning(mu, dist.make_nodes(512), conv, 801)

        def rho_at(n):
            return expected_return_distribution(mu, conv, dist.make_nodes(n), grid).values

        r64, r128, r256 = rho_at(64), rho_at(128), rho_at(256)
        first = np.max(np.abs(r128 - r64))
        second = np.max(np.abs(r256 - r128))
        assert second <= 0.75 * first

    def test_discrete_path_is_exact(self):
        mu = trapezoid(88, 96, 104, 112)
        points = np.array([92.0, 99.0, 103.0, 111.0])
        probs = np.array([0.2, 0.3, 0.4, 0.1])
        dist = FutureValueDist.discrete(points, probs)
        nodes = dist.make_nodes(999)
        grid = ReturnGrid.spanning(mu, nodes, SIMPLE, 401)
        rho = expected_return_distribution(mu, SIMPLE, nodes, grid)
        manual = np.zeros_like(grid.r_values)
        for y, p in zip(points, probs):
            manual += p * mu(y / (1.0 + grid.r_values))
        assert np.max(np.abs(rho.values - manual)) < 1e-12


class TestExpectedReturn:
    def test_symmetric_triangle(self):
        assert expected_return(triangle(0.0, 0.05, 0.10)) == pytest.approx(0.05, abs=1e-15)

    def test_symmetric_trapezoid(self):
        assert expected_return(trapezoid(0.0, 0.1, 0.2, 0.3)) == pytest.approx(0.15, abs=1e-15)

    def test_asymmetric_trapezoid_matches_centroid(self):
        rho = trapezoid(0.0, 0.0, 0.1, 0.3)
        # plateau [0, 0.1] plus falling ramp to 0.3: centroid 13/120
        assert expected_return(rho) == pytest.approx(13.0 / 120.0, abs=1e-15)
        # sampled cross-check; the jump at 0 smears over one Riemann cell
        xs = np.linspace(-0.05, 0.35, 400_001)
        ys = rho(xs)
        assert expected_return(rho) == pytest.approx(riemann(xs * ys, xs) / riemann(ys, xs), abs=1e-5)

    def test_continuous_asymmetric_shape_matches_fine_riemann(self):
        rho = trapezoid(0.0, 0.02, 0.1, 0.3)
        xs = np.linspace(-0.05, 0.35, 400_001)
        ys = rho(xs)
        assert expected_return(rho) == pytest.approx(riemann(xs * ys, xs) / riemann(ys, xs), abs=1e-9)

    def test_zero_membership_is_degenerate(self):
        with pytest.raises(DegenerateMembershipError):
            expected_return(MembershipFn([0.0, 1.0], [0.0, 0.0]))


class TestVariance:
    def test_narrowing_membership_drives_variance_to_zero(self):
        dist = FutureValueDist.discrete([100.0], [1.0])
        previous = None
        for width in (4.0, 2.0, 1.0, 0.5):
            mu = trapezoid(100 - width, 100 - width / 2, 100 + width / 2, 100 + width)
            result = profile(mu, dist, SIMPLE, FAST)
            assert result.variance < 1e-4 * width**2
            if previous is not None:
                assert 3.0 < previous / result.variance < 5.0  # variance ~ width^2
            previous = result.variance

    def test_symmetric_crisp_case_matches_half_span_squared(self):
        spread = 0.25
        anchor = 100.0
        mu = MembershipFn([anchor * np.exp(-spread), anchor * np.exp(spread)], [1.0, 1.0])
        result = profile(mu, FutureValueDist.discrete([anchor], [1.0]), LOGARITHMIC)
        assert result.expected_return == pytest.approx(0.0, abs=1e-12)
        assert result.variance == pytest.approx(spread**2 / 2.0, abs=1e-3 * spread**2)
        # direct second-moment quadrature of the common branch on a finer axis
        xs = np.linspace(0.0, variance_span(ReturnGrid.spanning(
            mu, FutureValueDist.discrete([anchor], [1.0]).make_nodes(1), LOGARITHMIC, 801), 0.0), 8193)
        branch = (xs <= spread**2).astype(float)
        oracle = riemann(xs * branch, xs) / riemann(branch, xs)
        assert result.variance == pytest.approx(oracle, abs=2e-3 * spread**2)

    def test_span_doubling_with_fixed_step_changes_nothing(self):
        mu = trapezoid(90, 95, 105, 110)
        dist = FutureValueDist.discrete([95.0, 104.0], [0.4, 0.6])
        nodes = dist.make_nodes(2)
        grid = ReturnGrid.spanning(mu, nodes, SIMPLE, 401)
        rho = expected_return_distribution(mu, SIMPLE, nodes, grid)
        center = expected_return(rho)
        span = variance_span(grid, center)
        base = return_variance(mu, SIMPLE, nodes, center, span, 1024)
        doubled = return_variance(mu, SIMPLE, nodes, center, 2.0 * span, 2048)
        assert doubled == pytest.approx(base, abs=1e-9)

    def test_zero_kernel_is_degenerate(self):
        mu = trapezoid(90, 95, 105, 110)
        nodes = FutureValueDist.discrete([100.0], [1.0]).make_nodes(1)
        with pytest.raises(DegenerateMembershipError):
            # center far outside any reachable rate: both branches miss the support
            return_variance(mu, SIMPLE, nodes, 50.0, 1e-4, 64)


class TestProfile:
    def test_crisp_plateau_has_tiny_entropy(self):
        mu = MembershipFn([95.0, 105.0], [1.0, 1.0])
        result = profile(mu, FutureValueDist.discrete([100.0], [1.0]), SIMPLE)
        grid_step = float(np.diff(result.rho.grid)[0])
        assert result.entropy < grid_step
        assert result.energy > 0.0

    def test_energy_at_least_entropy(self):
        rng = np.random.default_rng(41)
        from support import random_security

        for _ in range(15):
            mu, dist, kind = random_security(rng)
            result = profile(mu, dist, convention(kind), FAST)
            assert result.entropy <= result.energy + 1e-15

    def test_scale_invariance(self):
        mu = trapezoid(85, 95, 105, 120)
        dist = FutureValueDist.discrete([90.0, 100.0, 115.0], [0.3, 0.5, 0.2])
        for conv in (SIMPLE, LOGARITHMIC):
            base = profile(mu, dist, conv, FAST)
            for factor in (0.5, 3.0):
                scaled = profile(mu.scale(factor), dist.scaled(factor), conv, FAST)
                assert np.max(np.abs(scaled.rho(base.rho.grid) - base.rho.values)) < 1e-9
                assert scaled.expected_return == pytest.approx(base.expected_return, abs=1e-9)
                assert scaled.variance == pytest.approx(base.variance, abs=1e-9)
                assert scaled.energy == pytest.approx(base.energy, abs=1e-9)
                assert scaled.entropy == pytest.approx(base.entropy, abs=1e-9)

    def test_log_shift_covariance(self):
        mu = trapezoid(85, 95, 105, 120)
        dist = FutureValueDist.lognormal(np.log(100), 0.15, (0.005, 0.995))
        shift = 0.1
        base = profile(mu, dist, LOGARITHMIC, FAST)
        moved = profile(mu, dist.scaled(float(np.exp(shift))), LOGARITHMIC, FAST)
        assert moved.expected_return - base.expected_return == pytest.approx(shift, abs=1e-6)
        assert moved.variance == pytest.approx(base.variance, abs=1e-6)
        # the whole fuzzy return translates: compare on the shifted abscissae
        assert np.max(np.abs(moved.rho(base.rho.grid + shift) - base.rho.values)) < 1e-6

    def test_degenerate_membership_raises(self):
        mu = MembershipFn([90.0, 110.0], [0.0, 0.0])
        with pytest.raises(DegenerateMembershipError):
            profile(mu, FutureValueDist.discrete([100.0], [1.0]), SIMPLE, FAST)


class TestFromReturnCdf:
    def test_logarithmic_normal_returns_give_lognormal_values(self):
        from scipy import stats

        price = 100.0
        ret = stats.norm(0.05, 0.1)
        implied = from_return_cdf(ret.cdf, price, LOGARITHMIC, n=512)
        exact = FutureValueDist.lognormal(np.log(price) + 0.05, 0.1)
        xs = np.linspace(exact.quantile(0.05), exact.quantile(0.95), 21)
        assert np.max(np.abs(implied.cdf(xs) - exact.cdf(xs))) <= 0.5 / 512 + 1e-9

    def test_transfer_relation_holds_on_the_atoms(self):
        from scipy import stats

        price = 80.0
        ret = stats.norm(0.02, 0.2)
        implied = from_return_cdf(ret.cdf, price, SIMPLE, n=256)
        assert np.all(implied.points > 0.0)
        xs = np.linspace(implied.points[2], implied.points[-3], 17)
        assert np.max(np.abs(implied.cdf(xs) - ret.cdf(xs / price - 1.0))) <= 0.5 / 256 + 1e-9

    def test_explicit_bounds_must_bracket(self):
        from scipy import stats

        with pytest.raises(ValueError):
            from_return_cdf(stats.norm(0.0, 1.0).cdf, 100.0, LOGARITHMIC, n=16, rate_bounds=(-0.1, 0.1))
