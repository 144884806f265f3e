import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad
from scipy.stats import norm

from bpv_effect import quadrature, returns
from bpv_effect.cli import _load
from bpv_effect.distribution import FutureValueDist, QuadratureNodes
from bpv_effect.membership import MembershipFn, energy_measure, entropy_measure, trapezoid
from bpv_effect.returns import (
    CONVENTIONS,
    LOGARITHMIC,
    SIMPLE,
    DegenerateMembershipError,
    EngineSettings,
    ReturnGrid,
    expected_return,
    expected_return_distribution,
    profile,
    return_variance,
)

from support import (
    closed_form_center_and_area,
    discrete_moments,
    dominance,
    lognormal_moments,
    node_loop_kernel,
    node_loop_state_sums,
    piece_integrals,
    riemann,
    staged_profile,
)

FAST = EngineSettings(grid_points=401, nodes=64, variance_panels=512)
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


class TestConventions:
    @given(st.sampled_from(["simple", "logarithmic"]),
           st.floats(min_value=-0.9, max_value=5.0),
           st.floats(min_value=0.1, max_value=500.0))
    def test_round_trip(self, kind, rate, future):
        conv = CONVENTIONS[kind]
        present = conv.present_map(rate, future)
        assert present > 0.0
        assert conv.rate_map(present, future) == pytest.approx(rate, abs=1e-12)

    def test_monotonicity(self):
        for conv in (SIMPLE, LOGARITHMIC):
            assert conv.rate_map(90.0, 100.0) > conv.rate_map(110.0, 100.0)
            assert conv.rate_map(100.0, 110.0) > conv.rate_map(100.0, 90.0)


class TestStateMembership:
    MU = trapezoid(90, 95, 105, 110)

    def test_simple_on_plateau(self):
        assert self.MU(SIMPLE.present_map(0.0, 100.0)) == 1.0

    def test_logarithmic_on_plateau(self):
        assert self.MU(LOGARITHMIC.present_map(0.0, 100.0)) == 1.0

    def test_simple_outside_support(self):
        assert self.MU(SIMPLE.present_map(1.0, 100.0)) == 0.0


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
                rho = expected_return_distribution(returns._view(mu, conv, nodes), grid)
                assert rho.values[0] == 0.0
                assert rho.values[-1] == 0.0

    def test_membership_with_edge_jumps_still_vanishes(self):
        mu = MembershipFn([90.0, 110.0], [1.0, 1.0])  # crisp interval, jumps at both edges
        dist = FutureValueDist.discrete([100.0], [1.0])
        nodes = dist.make_nodes(8)
        for conv in (SIMPLE, LOGARITHMIC):
            grid = ReturnGrid.spanning(mu, nodes, conv, 401)
            rho = expected_return_distribution(returns._view(mu, conv, nodes), grid)
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

    def test_kink_grid_gives_second_order_rho(self):
        # a discrete law on a trapezoid with sloped edges: rho is smooth between
        # the kink rates, which the grid holds, so the interpolation error falls
        # as the squared step, and rho is exact at each kink
        mu = trapezoid(88, 94, 104, 112)
        nodes = FutureValueDist.discrete([92.0, 101.0, 109.0], [0.25, 0.5, 0.25]).make_nodes(1)
        for conv in (SIMPLE, LOGARITHMIC):
            kinks = conv.rate_map(mu.grid[:, None], nodes.nodes).ravel()
            errors = []
            for count in (201, 401, 801):
                grid = ReturnGrid.spanning(mu, nodes, conv, count)
                rho = expected_return_distribution(returns._view(mu, conv, nodes), grid)
                assert np.max(np.abs(rho(kinks) - node_loop_state_sums(mu, conv, nodes, kinks))) <= 1e-14
                r = grid.r_values
                midpoints = (r[:-1] + r[1:]) / 2.0  # where a cell's interpolation error peaks
                errors.append(np.max(np.abs(rho(midpoints) - node_loop_state_sums(mu, conv, nodes, midpoints))))
            orders = np.log2(np.divide(errors[:-1], errors[1:]))
            assert orders.min() >= 1.8, (conv.kind, errors)

    def test_span_limit_keeps_the_profile_finite(self):
        # a vertical left edge keeps rho near 1 across the grid, so its area is about the span
        law = FutureValueDist.discrete([92.0, 101.0, 109.0], [0.25, 0.5, 0.25])
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            inside = profile(trapezoid(2.5e-14, 2.5e-14, 150.0, 200.0), law, SIMPLE)
        assert 4e15 < inside.rho.grid[-1] - inside.rho.grid[0] <= returns.MAX_RETURN_SPAN
        assert inside.energy < 1.0 and np.isfinite(inside.variance)
        with pytest.raises(ValueError, match=r"return span -0.77 to 4.54734e\+15 is wider than 2\*\*52"):
            profile(trapezoid(2.4e-14, 2.4e-14, 150.0, 200.0), law, SIMPLE)


class TestExpectedReturnDistribution:
    def test_dirac_future_value_reduces_to_membership(self):
        mu = trapezoid(90, 95, 105, 110)
        dist = FutureValueDist.discrete([100.0], [1.0])
        nodes = dist.make_nodes(1)
        grid = ReturnGrid.spanning(mu, nodes, SIMPLE, 801)
        rho = expected_return_distribution(returns._view(mu, SIMPLE, nodes), grid)
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
        rho = expected_return_distribution(returns._view(mu, SIMPLE, nodes), grid)
        assert np.all(rho.values[inside] == 1.0)

    def test_two_atom_crisp_window(self):
        mu = MembershipFn([100.0, 100.5], [1.0, 1.0])
        dist = FutureValueDist.discrete([95.0, 105.0], [0.5, 0.5])
        nodes = dist.make_nodes(2)
        grid = ReturnGrid.spanning(mu, nodes, SIMPLE, 2001)
        rho = expected_return_distribution(returns._view(mu, SIMPLE, nodes), grid)
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
            conv = CONVENTIONS[kind]
            nodes = dist.make_nodes(32)
            grid = ReturnGrid.spanning(mu, nodes, conv, 201)
            rho = expected_return_distribution(returns._view(mu, conv, nodes), grid)
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
            rho_narrow = expected_return_distribution(returns._view(narrow, SIMPLE, nodes), grid)
            rho_wide = expected_return_distribution(returns._view(wide, SIMPLE, nodes), grid)
            assert np.all(rho_wide.values >= rho_narrow.values - 1e-15)

    @pytest.mark.parametrize("conv", [SIMPLE, LOGARITHMIC], ids=lambda conv: conv.kind)
    def test_node_doubling_converges_with_order_at_least_one(self, conv):
        # the midpoint nodes of a continuous law: the sup-change of rho under
        # node doubling falls as about the squared node spacing
        mu = trapezoid(85, 95, 105, 120)
        dist = FutureValueDist.lognormal(np.log(100), 0.15, (0.005, 0.995))
        grid = ReturnGrid.spanning(mu, dist.make_nodes(2048), conv, 801)
        rhos = [expected_return_distribution(returns._view(mu, conv, dist.make_nodes(n)), grid).values
                for n in (64, 128, 256, 512, 1024)]
        changes = [np.max(np.abs(fine - coarse)) for coarse, fine in zip(rhos, rhos[1:])]
        orders = np.log2(np.divide(changes[:-1], changes[1:]))
        assert orders.min() >= 1.6, changes

    def test_discrete_path_is_exact(self):
        mu = trapezoid(88, 96, 104, 112)
        points = np.array([92.0, 99.0, 103.0, 111.0])
        probs = np.array([0.2, 0.3, 0.4, 0.1])
        dist = FutureValueDist.discrete(points, probs)
        nodes = dist.make_nodes(999)
        grid = ReturnGrid.spanning(mu, nodes, SIMPLE, 401)
        rho = expected_return_distribution(returns._view(mu, SIMPLE, nodes), grid)
        manual = np.zeros_like(grid.r_values)
        for y, p in zip(points, probs):
            manual += p * mu(y / (1.0 + grid.r_values))
        assert np.max(np.abs(rho.values - manual)) < 1e-12


@st.composite
def knot_view_cases(draw):
    """Membership, convention, nodes and rates that stress the knot view's run edges.

    Grids may be non-unimodal, with vertical edges at both span ends and a
    segment one ulp wide.  Some nodes are placed where their present value
    lands exactly on a knot at one of the rates, some within an ulp of
    that (where the future value of a knot rounds), some one ulp from
    another node, and weights may be zero.
    """
    conv = draw(st.sampled_from([SIMPLE, LOGARITHMIC]))
    # the future value whose present value at rate r is x
    future_map = (lambda r, x: x * (1.0 + r)) if conv is SIMPLE else (lambda r, x: x * np.exp(r))
    count = draw(st.integers(min_value=2, max_value=7))
    gaps = draw(st.lists(st.floats(0.05, 30.0), min_size=count - 1, max_size=count - 1))
    if draw(st.integers(0, 3)) == 0:  # rarely, so that most cases keep a tight tolerance
        gaps[draw(st.integers(0, count - 2))] = 0.0
    grid = [draw(st.floats(min_value=40.0, max_value=160.0))]
    for gap in gaps:
        grid.append(grid[-1] + gap if gap else float(np.nextafter(grid[-1], np.inf)))
    values = draw(st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0), min_size=count, max_size=count))
    mu = MembershipFn(grid, values)
    # rates r at which pv(r, x * (1 + r)) == x exactly: 1 + r a power of two, or exp(-r) == 1
    exact = [0.0] if conv is LOGARITHMIC else [-0.5, 0.0, 1.0]
    span = np.linspace(-0.95, 7.5, 37) if conv is SIMPLE else np.linspace(-2.8, 2.2, 37)
    rates = np.concatenate((exact, span))
    knots = st.integers(0, count - 1)
    futures = [float(future_map(exact[i], grid[k]))
               for i, k in draw(st.lists(st.tuples(st.integers(0, len(exact) - 1), knots), max_size=4))]
    for i, k in draw(st.lists(st.tuples(st.integers(0, span.size - 1), knots), max_size=4)):
        near = future_map(span[i], grid[k])
        futures += [float(near), float(np.nextafter(near, 0.0)), float(np.nextafter(near, np.inf))]
    futures += draw(st.lists(st.floats(min_value=20.0, max_value=320.0), min_size=1, max_size=30))
    futures += np.linspace(20.0, 320.0, draw(st.integers(0, 120))).tolist()  # long runs
    twins = draw(st.lists(st.integers(0, len(futures) - 1), max_size=3))
    futures += [float(np.nextafter(futures[i], np.inf)) for i in twins]
    y = np.unique(futures)
    weights = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=y.size, max_size=y.size)))
    if weights.sum() == 0.0:
        weights[:] = 1.0
    return mu, conv, QuadratureNodes(y, weights / weights.sum()), rates


class TestKnotView:
    """The knot view against a per-node loop, and which view ``profile`` runs."""

    @staticmethod
    def tolerance(mu):
        return 1e-14 * (1.0 + np.abs(mu.grid).max() * np.abs(np.diff(mu.values) / np.diff(mu.grid)).max())

    @given(knot_view_cases())
    def test_state_sums_match_node_loop(self, case):
        mu, conv, nodes, rates = case
        rates = np.concatenate((rates, [-1.0, -1.5] if conv is SIMPLE else []))
        oracle = node_loop_state_sums(mu, conv, nodes, rates)
        knot = returns._KnotView(mu, conv, nodes).state_sum(rates)
        node = returns._NodeView(mu, conv, nodes).state_sum(rates)
        assert np.max(np.abs(knot - oracle)) <= self.tolerance(mu)
        assert np.max(np.abs(node - oracle)) <= self.tolerance(mu)

    @given(knot_view_cases(), st.floats(min_value=-0.5, max_value=1.0))
    def test_kernel_matches_node_loop(self, case, center):
        mu, conv, nodes, _ = case
        center = (1.0 if conv is SIMPLE else 0.0) if center > 0.5 else center  # exact copies
        # small steps overlap the two copies; simple-rate lower copies reach -1 and fall below it
        steps = np.concatenate((
            np.linspace(0.0, 0.4, 9), [0.5, 1.0, 1.5, center + 1.0], np.sqrt(np.linspace(0.0, 64.0, 33)),
        ))
        steps = steps[steps >= 0.0]
        oracle = node_loop_kernel(mu, conv, nodes, center, steps)
        knot = returns._KnotView(mu, conv, nodes).kernel(center, steps)
        node = returns._NodeView(mu, conv, nodes).kernel(center, steps)
        assert np.max(np.abs(knot - oracle)) <= self.tolerance(mu)
        assert np.max(np.abs(node - oracle)) <= self.tolerance(mu)

    def test_kernel_keeps_the_lower_copy_past_the_underflow_of_the_upper(self):
        # from s = 46 the upper rate passes 745.13, where exp(-r) is 0, while
        # the lower copy's present values still lie on the support
        mu = trapezoid(1e-6, 1e3, 1e10, 1e22)
        y = np.linspace(1e300, 4e300, 64)
        nodes = QuadratureNodes(y, np.full(y.size, 1.0 / y.size))
        steps = np.linspace(0.0, 60.0, 61)
        oracle = node_loop_kernel(mu, LOGARITHMIC, nodes, 700.0, steps)
        assert oracle[46:56].min() > 0.9
        for view in (returns._KnotView, returns._NodeView):
            assert np.max(np.abs(view(mu, LOGARITHMIC, nodes).kernel(700.0, steps) - oracle)) <= 1e-14

    @pytest.mark.parametrize("name", ["portfolio3", "accuracy_panel", "underflow_kernel"])
    def test_views_agree_on_every_fixture_security(self, name):
        # the hypothesis cases keep rates in [-2.8, 7.5]; the fixtures reach
        # continuous laws, kink grids and rates past exp(-r)'s underflow
        securities, settings, _ = _load(FIXTURES / f"{name}.json")
        for sec_id, conv, mu, dist in securities:
            knot = staged_profile(returns._KnotView, mu, dist, conv, settings)
            node = staged_profile(returns._NodeView, mu, dist, conv, settings)
            np.testing.assert_allclose(knot, node, rtol=1e-12, atol=0.0, err_msg=sec_id)

    def test_view_selection(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("this view must not run")

        mu = trapezoid(85, 95, 105, 120)
        with monkeypatch.context() as patch:
            patch.setattr(returns, "_NodeView", refuse)
            profile(mu, FutureValueDist.lognormal(np.log(100), 0.15, (0.005, 0.995)), SIMPLE)
        with monkeypatch.context() as patch:
            patch.setattr(returns, "_KnotView", refuse)
            profile(mu, FutureValueDist.discrete([90.0, 100.0, 115.0], [0.3, 0.5, 0.2]), SIMPLE)

    def test_profile_builds_one_view(self, monkeypatch):
        built, used = [], []

        class Counted(returns._KnotView):
            def __init__(self, *args):
                built.append(self)
                super().__init__(*args)

        def passes_view(stage):
            def spy(view, *args):
                used.append(view)
                return stage(view, *args)
            return spy

        monkeypatch.setattr(returns, "_KnotView", Counted)
        monkeypatch.setattr(returns, "expected_return_distribution", passes_view(expected_return_distribution))
        monkeypatch.setattr(returns, "return_variance", passes_view(return_variance))
        mu = trapezoid(85, 95, 105, 120)
        profile(mu, FutureValueDist.lognormal(np.log(100), 0.15, (0.005, 0.995)), SIMPLE)
        assert len(built) == 1  # the fuzzy return and the variance kernel share it
        assert used == [built[0], built[0]]
        profile(mu, FutureValueDist.discrete([90.0, 100.0, 115.0], [0.3, 0.5, 0.2]), SIMPLE)
        assert len(built) == 1  # the node view
        assert isinstance(used[2], returns._NodeView) and used[3] is used[2]

    @pytest.mark.parametrize("mu, boundary", [
        (MembershipFn([90.0, 110.0], [1.0, 0.4]), 36),
        (trapezoid(85, 95, 105, 120), 48),
        (MembershipFn(np.linspace(80.0, 120.0, 16), np.linspace(0.0, 1.0, 16)), 120),
    ])
    def test_view_boundary_is_affine_in_the_knot_count(self, monkeypatch, mu, boundary):
        # the knot view from 24 + 6 * knots nodes, the node view below
        def refuse(*args, **kwargs):
            raise AssertionError("this view must not run")

        dist = FutureValueDist.lognormal(np.log(100), 0.15, (0.005, 0.995))
        for count, other in ((boundary, "_NodeView"), (boundary - 1, "_KnotView")):
            assert dist.make_nodes(count).nodes.size == count
            with monkeypatch.context() as patch:
                patch.setattr(returns, other, refuse)
                profile(mu, dist, SIMPLE, EngineSettings(nodes=count))

    @pytest.mark.parametrize("conv", [SIMPLE, LOGARITHMIC])
    def test_profile_edge_cases_raise_no_floating_point_exception(self, conv):
        edges = MembershipFn([80.0, 90.0, float(np.nextafter(90.0, 100.0)), 110.0], [1.0, 0.2, 0.9, 1.0])
        # atoms on knots at rate 0, twins one ulp apart, and enough of them for the knot view
        atoms = np.unique(np.concatenate((
            edges.grid, np.nextafter(edges.grid, np.inf), np.linspace(60.0, 140.0, 64),
        )))
        discrete = FutureValueDist.discrete(atoms, np.full(atoms.size, 1.0 / atoms.size))
        wide = trapezoid(1.0, 40.0, 60.0, 1000.0)  # simple lower copies fall below -1
        lognormal = FutureValueDist.lognormal(np.log(100), 0.3, (0.005, 0.995))
        cases = [(edges, discrete), (edges, lognormal), (wide, lognormal), (trapezoid(90, 90, 110, 110), lognormal)]
        with np.errstate(all="raise"):
            for mu, dist in cases:
                assert isinstance(returns._view(mu, conv, dist.make_nodes(256)), returns._KnotView)
                result = profile(mu, dist, conv)
                assert result.variance > 0.0


class TestClosedFormCenterAndArea:
    """The sampled center and area of rho converge to their closed forms."""

    @pytest.mark.parametrize("a, b, x0, x1", [
        (-88 / 6, 1 / 6, 88.0, 94.0), (1.0, 0.0, 94.0, 104.0), (14.0, -1 / 8, 104.0, 112.0), (0.3, 2e-3, 0.5, 300.0),
    ])
    def test_piece_integrals_match_quad(self, a, b, x0, x1):
        integrands = [lambda x, k=k: (a + b * x) / x**k for k in (1, 2, 3)]
        integrands.append(lambda x: (a + b * x) * math.log(x) / x)
        expected = [quad(f, x0, x1, epsabs=0.0, epsrel=1e-13)[0] for f in integrands]
        np.testing.assert_allclose(piece_integrals(a, b, x0, x1), expected, rtol=1e-12, atol=0.0)

    def test_lognormal_moments_match_quad(self):
        log_mean, log_sd, lo, hi = math.log(100.0), 0.15, 0.005, 0.95
        z_lo, z_hi = norm.ppf([lo, hi])
        expected = [quad(lambda z: f(log_mean + log_sd * z) * norm.pdf(z) / (hi - lo), z_lo, z_hi,
                         epsabs=0.0, epsrel=1e-13)[0]
                    for f in (math.exp, lambda t: math.exp(2.0 * t), lambda t: t)]
        np.testing.assert_allclose(lognormal_moments(log_mean, log_sd, lo, hi), expected, rtol=1e-12, atol=0.0)

    @staticmethod
    def errors(mu, conv, nodes, count, exact):
        grid = ReturnGrid.spanning(mu, nodes, conv, count)
        rho = expected_return_distribution(returns._view(mu, conv, nodes), grid)
        center, area = exact
        return abs(expected_return(rho) - center), abs(quadrature.integrate(rho.grid, rho.values) / area - 1.0)

    @pytest.mark.parametrize("conv", [SIMPLE, LOGARITHMIC], ids=lambda conv: conv.kind)
    def test_grid_doubling_on_a_discrete_law(self, conv):
        mu = trapezoid(88, 94, 104, 112)
        points, probs = [92.0, 101.0, 109.0], [0.25, 0.5, 0.25]
        nodes = FutureValueDist.discrete(points, probs).make_nodes(1)
        exact = closed_form_center_and_area(mu, conv.kind, discrete_moments(points, probs))
        centers, areas = np.transpose([self.errors(mu, conv, nodes, count, exact) for count in (201, 401, 801, 1601)])
        assert np.log2(centers[:-1] / centers[1:]).min() >= 1.8, centers
        if conv is SIMPLE:
            assert np.log2(areas[:-1] / areas[1:]).min() >= 1.8, areas
        else:  # the leading term nearly cancels, so the order wanders (1.6 to 4.1)
            assert areas.max() <= 1e-8, areas

    @pytest.mark.parametrize("conv", [SIMPLE, LOGARITHMIC], ids=lambda conv: conv.kind)
    def test_energy_entropy_and_dominance_on_a_discrete_law(self, conv):
        points, probs = [92.0, 101.0, 109.0], [0.25, 0.5, 0.25]
        nodes = FutureValueDist.discrete(points, probs).make_nodes(1)
        mu, cheaper = trapezoid(88, 94, 104, 112), trapezoid(80, 84, 90, 95)
        _, area = closed_form_center_and_area(mu, conv.kind, discrete_moments(points, probs))
        counts = (201, 401, 801, 1601, 3201, 6401)

        def sampled(m):
            return [expected_return_distribution(returns._view(m, conv, nodes), ReturnGrid.spanning(m, nodes, conv, n))
                    for n in counts]

        rhos, others = sampled(mu), sampled(cheaper)
        energies = np.abs([energy_measure(rho) - area / (1.0 + area) for rho in rhos])
        entropies = np.abs(np.diff([entropy_measure(rho) for rho in rhos]))
        degrees = np.array([dominance(rho, other) for rho, other in zip(rhos, others)])
        if conv is SIMPLE:
            assert np.log2(energies[:-1] / energies[1:]).min() >= 1.8, energies
        else:  # as the logarithmic area: no steady order (1.6 to 4.1)
            assert energies.max() <= 2e-9, energies
        assert np.log2(entropies[:-1] / entropies[1:]).min() >= 1.8, entropies
        # the degree has no steady order; from 801 points a doubling moves it by at most 5.5e-8
        assert degrees[-1] == pytest.approx(0.5531984, abs=1e-7)
        assert np.abs(np.diff(degrees[2:])).max() <= 1e-7, degrees

    @pytest.mark.parametrize("conv, levels", [(SIMPLE, (0.005, 0.995)), (LOGARITHMIC, (0.005, 0.95))],
                             ids=["simple", "logarithmic"])
    def test_node_doubling_on_a_continuous_law(self, conv, levels):
        # a symmetric truncation makes the midpoint nodes' E[ln Y] exact, so the
        # logarithmic center takes its node error from an asymmetric one
        mu = trapezoid(85, 95, 105, 120)
        dist = FutureValueDist.lognormal(math.log(100.0), 0.15, levels)
        exact = closed_form_center_and_area(mu, conv.kind, lognormal_moments(math.log(100.0), 0.15, *levels))
        centers = np.array([self.errors(mu, conv, dist.make_nodes(n), 6401, exact)[0] for n in (128, 256, 512, 1024)])
        assert np.log2(centers[:-1] / centers[1:]).min() >= 1.8, centers


class TestExpectedReturn:
    def test_symmetric_triangle(self):
        assert expected_return(trapezoid(0.0, 0.05, 0.05, 0.10)) == pytest.approx(0.05, abs=1e-15)

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
        r = ReturnGrid.spanning(mu, FutureValueDist.discrete([anchor], [1.0]).make_nodes(1), LOGARITHMIC, 801).r_values
        xs = np.linspace(0.0, max(r[-1] ** 2, r[0] ** 2), 8193)
        branch = (xs <= spread**2).astype(float)
        oracle = riemann(xs * branch, xs) / riemann(branch, xs)
        assert result.variance == pytest.approx(oracle, abs=2e-3 * spread**2)

    def test_span_doubling_with_fixed_step_changes_nothing(self):
        mu = trapezoid(90, 95, 105, 110)
        dist = FutureValueDist.discrete([95.0, 104.0], [0.4, 0.6])
        nodes = dist.make_nodes(2)
        grid = ReturnGrid.spanning(mu, nodes, SIMPLE, 401)
        view = returns._view(mu, SIMPLE, nodes)
        center = expected_return(expected_return_distribution(view, grid))
        base = return_variance(view, center, grid, 1024)
        # ends at center +/- sqrt(2) times the larger half-width: twice the squared span
        half = max(grid.r_values[-1] - center, center - grid.r_values[0])
        wide = ReturnGrid(center + np.sqrt(2.0) * half * np.array([-1.0, -0.5, 0.5, 1.0]))
        doubled = return_variance(view, center, wide, 2048)
        assert doubled == pytest.approx(base, abs=1e-9)

    def test_zero_kernel_is_degenerate(self):
        mu = trapezoid(90, 95, 105, 110)
        nodes = FutureValueDist.discrete([100.0], [1.0]).make_nodes(1)
        with pytest.raises(DegenerateMembershipError):
            # center far outside any reachable rate: both branches miss the support
            return_variance(returns._view(mu, SIMPLE, nodes), 50.0, ReturnGrid(np.linspace(49.99, 50.01, 5)), 64)


class TestEngineSettings:
    @pytest.mark.parametrize("name", ["grid_points", "nodes", "variance_panels"])
    def test_each_resolution_is_bounded(self, name):
        assert getattr(EngineSettings(**{name: returns.MAX_RESOLUTION}), name) == returns.MAX_RESOLUTION
        with pytest.raises(ValueError, match=f"{name} must be at most {returns.MAX_RESOLUTION}"):
            EngineSettings(**{name: returns.MAX_RESOLUTION + 1})


class TestProfile:
    def test_present_values_beyond_the_float_range_weigh_nothing(self):
        # the node view's lower kernel copies reach rates near -1400, where y * exp(-r) overflows
        mu = trapezoid(5e-161, 3e-84, 8e57, 4e58)
        dist = FutureValueDist.discrete([1.3e-179, 9.5e-175, 4.3e-15], [0.25, 0.5, 0.25])
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            result = profile(mu, dist, LOGARITHMIC)
        assert result.variance > 0.0

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
            result = profile(mu, dist, CONVENTIONS[kind], FAST)
            assert result.entropy <= result.energy + 1e-15

    def test_scale_invariance(self):
        mu = trapezoid(85, 95, 105, 120)
        points, probs = np.array([90.0, 100.0, 115.0]), [0.3, 0.5, 0.2]
        for conv in (SIMPLE, LOGARITHMIC):
            base = profile(mu, FutureValueDist.discrete(points, probs), conv, FAST)
            for factor in (0.5, 3.0):
                scaled_dist = FutureValueDist.discrete(points * factor, probs)
                scaled = profile(MembershipFn(mu.grid * factor, mu.values), scaled_dist, conv, FAST)
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
        moved_dist = FutureValueDist.lognormal(np.log(100) + shift, 0.15, (0.005, 0.995))  # e^shift * V
        moved = profile(mu, moved_dist, LOGARITHMIC, FAST)
        assert moved.expected_return - base.expected_return == pytest.approx(shift, abs=1e-6)
        assert moved.variance == pytest.approx(base.variance, abs=1e-6)
        # the whole fuzzy return translates: compare on the shifted abscissae
        assert np.max(np.abs(moved.rho(base.rho.grid + shift) - base.rho.values)) < 1e-6

    def test_degenerate_membership_raises(self):
        mu = MembershipFn([90.0, 110.0], [0.0, 0.0])
        with pytest.raises(DegenerateMembershipError):
            profile(mu, FutureValueDist.discrete([100.0], [1.0]), SIMPLE, FAST)
