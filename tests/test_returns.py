import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad
from scipy.stats import norm

from bpv_effect import quadrature, returns, views
from bpv_effect.cli import MAX_RESOLUTION, EngineSettings, _load
from bpv_effect.distribution import DiscreteLaw, TruncatedLaw
from bpv_effect.membership import MembershipFn, energy_measure, entropy_measure, trapezoid
from bpv_effect.returns import (
    CONVENTIONS,
    LOGARITHMIC,
    SIMPLE,
    DegenerateMembershipError,
    ReturnGrid,
    SecurityProfile,
    expected_return,
    expected_return_distribution,
    profile,
    return_variance,
)

from support import (
    closed_form_center_and_area,
    copy_crossings,
    discrete_moments,
    dominance,
    gauss_legendre_variance,
    kink_deviations,
    lognormal_moments,
    midpoint_nodes,
    node_loop_kernel,
    node_loop_state_sums,
    normal_moments,
    piece_integrals,
    reference_variance,
    riemann,
    staged_profile,
)

FAST = 401
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
            DiscreteLaw([95.0, 105.0], [0.5, 0.5]),
            TruncatedLaw.lognormal(np.log(100), 0.2, (0.005, 0.995)),
        ):
            for conv in (SIMPLE, LOGARITHMIC):
                grid = ReturnGrid.spanning(mu, dist, conv, 401)
                rho = expected_return_distribution(views.make(mu, conv, dist), grid)
                assert rho.values[0] == 0.0
                assert rho.values[-1] == 0.0

    def test_membership_with_edge_jumps_still_vanishes(self):
        mu = MembershipFn([90.0, 110.0], [1.0, 1.0])  # crisp interval, jumps at both edges
        dist = DiscreteLaw([100.0], [1.0])
        for conv in (SIMPLE, LOGARITHMIC):
            grid = ReturnGrid.spanning(mu, dist, conv, 401)
            rho = expected_return_distribution(views.make(mu, conv, dist), grid)
            assert rho.values[0] == 0.0 and rho.values[-1] == 0.0

    def test_simple_grid_stays_above_minus_one(self):
        mu = trapezoid(1.0, 40.0, 60.0, 1000.0)
        nodes = DiscreteLaw([1.0, 2.0], [0.5, 0.5])
        grid = ReturnGrid.spanning(mu, nodes, SIMPLE, 101)
        assert grid.r_values[0] > -1.0

    def test_requires_positive_support(self):
        mu = MembershipFn([0.0, 1.0], [1.0, 1.0])
        nodes = DiscreteLaw([1.0], [1.0])
        with pytest.raises(ValueError):
            ReturnGrid.spanning(mu, nodes, SIMPLE, 101)

    def test_kink_grid_is_built_and_checked_once(self, monkeypatch):
        built = []
        new = ReturnGrid.__new__

        def counted(cls, *fields):
            built.append(new(cls, *fields))
            return built[-1]

        monkeypatch.setattr(ReturnGrid, "__new__", counted)
        mu = trapezoid(88, 94, 104, 112)
        nodes = DiscreteLaw([92.0, 101.0, 109.0], [0.25, 0.5, 0.25])
        grid = ReturnGrid.spanning(mu, nodes, SIMPLE, 801)
        assert built == [grid] and grid.r_values.size == 801 + 12  # every kink joins the grid

    @pytest.mark.parametrize("count, size", [(11, 11), (801, 813)])  # 4 knots x 3 atoms: uniform, with kinks
    def test_rates_are_read_only(self, count, size):
        mu = trapezoid(88, 94, 104, 112)
        grid = ReturnGrid.spanning(mu, DiscreteLaw([92.0, 101.0, 109.0], [0.25, 0.5, 0.25]), SIMPLE, count)
        assert grid.r_values.size == size
        with pytest.raises(ValueError, match="read-only"):
            grid.r_values[1] = grid.r_values[0]

    def test_kink_on_a_uniform_rate_joins_once(self):
        mu = trapezoid(88, 94, 104, 112)
        nodes = DiscreteLaw([92.0, 101.0, 109.0], [0.25, 0.5, 0.25])

        def with_kinks(kinks):
            # the kink rates are rate_map at the knots, a column, and the atoms
            def rate_map(present, future):
                return kinks if np.ndim(present) == 2 else SIMPLE.rate_map(present, future)
            return SIMPLE._replace(rate_map=rate_map)

        uniform = ReturnGrid.spanning(mu, nodes, with_kinks(np.empty((0, 0))), 801).r_values
        between = (uniform[10] + uniform[11]) / 2.0
        # a uniform rate, twice, an end, a rate outside, and one new rate, twice
        kinks = np.array([[uniform[400], uniform[0], between], [uniform[400], uniform[-1] + 1.0, between]])
        r = ReturnGrid.spanning(mu, nodes, with_kinks(kinks), 801).r_values
        assert np.array_equal(r, np.insert(uniform, 11, between))  # still strictly increasing

    def test_kink_grid_gives_second_order_rho(self):
        # a discrete law on a trapezoid with sloped edges: rho is smooth between
        # the kink rates, which the grid holds, so the interpolation error falls
        # as the squared step, and rho is exact at each kink
        mu = trapezoid(88, 94, 104, 112)
        nodes = DiscreteLaw([92.0, 101.0, 109.0], [0.25, 0.5, 0.25])
        for conv in (SIMPLE, LOGARITHMIC):
            kinks = conv.rate_map(mu.grid[:, None], nodes.nodes).ravel()
            errors = []
            for count in (201, 401, 801):
                grid = ReturnGrid.spanning(mu, nodes, conv, count)
                rho = expected_return_distribution(views.make(mu, conv, nodes), grid)
                assert np.max(np.abs(rho(kinks) - node_loop_state_sums(mu, conv, nodes, kinks))) <= 1e-14
                r = grid.r_values
                midpoints = (r[:-1] + r[1:]) / 2.0  # where a cell's interpolation error peaks
                errors.append(np.max(np.abs(rho(midpoints) - node_loop_state_sums(mu, conv, nodes, midpoints))))
            orders = np.log2(np.divide(errors[:-1], errors[1:]))
            assert orders.min() >= 1.8, (conv.kind, errors)

    def test_span_limit_keeps_the_profile_finite(self):
        # a vertical left edge keeps rho near 1 across the grid, so its area is about the span
        law = DiscreteLaw([92.0, 101.0, 109.0], [0.25, 0.5, 0.25])
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            inside = profile(trapezoid(2.5e-14, 2.5e-14, 150.0, 200.0), law, SIMPLE)
        assert 4e15 < inside.rho.grid[-1] - inside.rho.grid[0] <= returns.MAX_RETURN_SPAN
        assert inside.energy < 1.0 and np.isfinite(inside.variance)
        with pytest.raises(ValueError, match=r"return span -0.77 to 4.54734e\+15 is wider than 2\*\*52"):
            profile(trapezoid(2.4e-14, 2.4e-14, 150.0, 200.0), law, SIMPLE)


class TestExpectedReturnDistribution:
    def test_dirac_future_value_reduces_to_membership(self):
        mu = trapezoid(90, 95, 105, 110)
        dist = DiscreteLaw([100.0], [1.0])
        grid = ReturnGrid.spanning(mu, dist, SIMPLE, 801)
        rho = expected_return_distribution(views.make(mu, SIMPLE, dist), grid)
        # single-atom sum collapses to mu(100 / (1 + r)) exactly at the knots
        direct = mu(100.0 / (1.0 + grid.r_values))
        assert np.max(np.abs(rho.values - direct)) < 1e-15
        assert rho(0.0) == 1.0
        assert rho(100.0 / 95.0 - 1.0) == pytest.approx(1.0, abs=2e-4)
        assert rho(100.0 / 90.0 - 1.0) == pytest.approx(0.0, abs=2e-4)

    def test_saturated_plateau_gives_one(self):
        mu = trapezoid(10, 50, 200, 400)
        dist = DiscreteLaw([90.0, 110.0], [0.5, 0.5])
        grid = ReturnGrid.spanning(mu, dist, SIMPLE, 801)
        inside = (grid.r_values > -0.4) & (grid.r_values < 0.75)
        rho = expected_return_distribution(views.make(mu, SIMPLE, dist), grid)
        assert np.all(rho.values[inside] == 1.0)

    def test_two_atom_crisp_window(self):
        mu = MembershipFn([100.0, 100.5], [1.0, 1.0])
        dist = DiscreteLaw([95.0, 105.0], [0.5, 0.5])
        grid = ReturnGrid.spanning(mu, dist, SIMPLE, 2001)
        rho = expected_return_distribution(views.make(mu, SIMPLE, dist), grid)
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
            grid = ReturnGrid.spanning(mu, dist, conv, 201)
            rho = expected_return_distribution(views.make(mu, conv, dist), grid)
            assert rho.values.min() >= 0.0
            assert rho.values.max() <= 1.0

    def test_widening_membership_never_lowers_rho(self):
        rng = np.random.default_rng(37)
        dist = DiscreteLaw([95.0, 100.0, 110.0], [0.3, 0.4, 0.3])
        for _ in range(10):
            grid_mu = np.sort(rng.uniform(80, 120, 6))
            if np.any(np.diff(grid_mu) < 1e-6):
                continue
            narrow_vals = rng.uniform(0.0, 1.0, 6)
            wide_vals = np.minimum(narrow_vals + rng.uniform(0.0, 0.5, 6), 1.0)
            narrow = MembershipFn(grid_mu, narrow_vals)
            wide = MembershipFn(grid_mu, wide_vals)
            grid = ReturnGrid.spanning(narrow, dist, SIMPLE, 201)
            rho_narrow = expected_return_distribution(views.make(narrow, SIMPLE, dist), grid)
            rho_wide = expected_return_distribution(views.make(wide, SIMPLE, dist), grid)
            assert np.all(rho_wide.values >= rho_narrow.values - 1e-15)

    @pytest.mark.parametrize("conv", [SIMPLE, LOGARITHMIC], ids=lambda conv: conv.kind)
    def test_node_doubling_converges_with_order_at_least_one(self, conv):
        # sums over a continuous law's midpoint nodes approach its closed-form
        # fuzzy return as about the squared node spacing (1.67 to 2.07 measured)
        mu = trapezoid(85, 95, 105, 120)
        dist = TruncatedLaw.lognormal(np.log(100), 0.15, (0.005, 0.995))
        grid = ReturnGrid.spanning(mu, dist, conv, 801)
        exact = expected_return_distribution(views.make(mu, conv, dist), grid).values
        errors = [np.max(np.abs(expected_return_distribution(views.make(mu, conv, midpoint_nodes(dist, n)), grid).values
                                - exact)) for n in (64, 128, 256, 512, 1024)]
        orders = np.log2(np.divide(errors[:-1], errors[1:]))
        assert orders.min() >= 1.6, errors
        assert errors[-1] <= 1e-5, errors

    def test_discrete_path_is_exact(self):
        mu = trapezoid(88, 96, 104, 112)
        points = np.array([92.0, 99.0, 103.0, 111.0])
        probs = np.array([0.2, 0.3, 0.4, 0.1])
        dist = DiscreteLaw(points, probs)
        grid = ReturnGrid.spanning(mu, dist, SIMPLE, 401)
        rho = expected_return_distribution(views.make(mu, SIMPLE, dist), grid)
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
    weights /= weights.sum()
    # the rule that DiscreteLaw checks, asserted so that a bad draw fails here
    assert y[0] > 0.0 and np.all(np.diff(y) > 0.0) and abs(weights.sum() - 1.0) <= 1e-12
    return mu, conv, DiscreteLaw(y, weights), rates


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
        knot = views._KnotView(mu, conv, nodes).state_sum(rates)
        node = views._NodeView(mu, conv, nodes).state_sum(rates)
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
        knot = views._KnotView(mu, conv, nodes).kernel(center, steps)
        node = views._NodeView(mu, conv, nodes).kernel(center, steps)
        assert np.max(np.abs(knot - oracle)) <= self.tolerance(mu)
        assert np.max(np.abs(node - oracle)) <= self.tolerance(mu)

    def test_kernel_keeps_the_lower_copy_past_the_underflow_of_the_upper(self):
        # from s = 46 the upper rate passes 745.13, where exp(-r) is 0, while
        # the lower copy's present values still lie on the support
        mu = trapezoid(1e-6, 1e3, 1e10, 1e22)
        y = np.linspace(1e300, 4e300, 64)
        nodes = DiscreteLaw(y, np.full(y.size, 1.0 / y.size))
        steps = np.linspace(0.0, 60.0, 61)
        oracle = node_loop_kernel(mu, LOGARITHMIC, nodes, 700.0, steps)
        assert oracle[46:56].min() > 0.9
        for view in (views._KnotView, views._NodeView):
            assert np.max(np.abs(view(mu, LOGARITHMIC, nodes).kernel(700.0, steps) - oracle)) <= 1e-14

    @pytest.mark.parametrize("name", ["portfolio3", "accuracy_panel", "underflow_kernel"])
    def test_views_agree_on_every_fixture_security(self, name):
        # the hypothesis cases keep rates in [-2.8, 7.5]; the fixtures reach
        # kink grids and rates past exp(-r)'s underflow.  A discrete law takes
        # both views of its atoms, a continuous law those of 4096 midpoint nodes
        securities, settings = _load(FIXTURES / f"{name}.json")
        for sec_id, conv, mu, dist in securities:
            law = dist if isinstance(dist, DiscreteLaw) else midpoint_nodes(dist, 4096)
            knot = staged_profile(views._KnotView, mu, law, conv, settings)
            node = staged_profile(views._NodeView, mu, law, conv, settings)
            np.testing.assert_allclose(knot, node, rtol=1e-12, atol=0.0, err_msg=sec_id)

    def test_view_selection(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("this view must not run")

        mu = trapezoid(85, 95, 105, 120)
        with monkeypatch.context() as patch:
            patch.setattr(views, "_NodeView", refuse)
            patch.setattr(views, "_KnotView", refuse)
            profile(mu, TruncatedLaw.lognormal(np.log(100), 0.15, (0.005, 0.995)), SIMPLE)
        with monkeypatch.context() as patch:
            patch.setattr(views, "_KnotView", refuse)
            patch.setattr(views, "_LawView", refuse)
            profile(mu, DiscreteLaw([90.0, 100.0, 115.0], [0.3, 0.5, 0.2]), SIMPLE)

    @pytest.mark.parametrize("knots", [2, 4, 7])
    def test_table_sizes_follow_whether_the_law_has_atoms(self, knots):
        # atoms can sit exactly on the last knot, which takes a piece and a run
        # edge strictly past it; a continuous law gives that point no weight
        mu = MembershipFn(np.linspace(80.0, 120.0, knots), np.linspace(0.2, 1.0, knots))
        atoms = DiscreteLaw([90.0, 100.0, 115.0], [0.3, 0.5, 0.2])
        law = TruncatedLaw.lognormal(np.log(100), 0.15, (0.005, 0.995))
        for view, tables in ((views._KnotView(mu, SIMPLE, atoms), (knots + 2, knots + 1)),
                             (views._LawView(mu, SIMPLE, law), (knots + 1, knots))):
            assert (view.pieces.shape[1], view.reach.shape[0]) == tables
            assert view.runs.shape[1] == view.reach.shape[0] - 1  # one run between consecutive edges

    def test_profile_builds_one_view(self, monkeypatch):
        built, used = [], []

        class Counted(views._LawView):
            def __init__(self, *args):
                built.append(self)
                super().__init__(*args)

        def passes_view(stage):
            def spy(view, *args):
                used.append(view)
                return stage(view, *args)
            return spy

        monkeypatch.setattr(views, "_LawView", Counted)
        monkeypatch.setattr(returns, "expected_return_distribution", passes_view(expected_return_distribution))
        monkeypatch.setattr(returns, "return_variance", passes_view(return_variance))
        mu = trapezoid(85, 95, 105, 120)
        profile(mu, TruncatedLaw.lognormal(np.log(100), 0.15, (0.005, 0.995)), SIMPLE)
        assert len(built) == 1  # the fuzzy return and the variance kernel share it
        assert used == [built[0], built[0]]
        profile(mu, DiscreteLaw([90.0, 100.0, 115.0], [0.3, 0.5, 0.2]), SIMPLE)
        assert len(built) == 1  # the node view
        assert isinstance(used[2], views._NodeView) and used[3] is used[2]

    @pytest.mark.parametrize("mu, boundary", [
        (MembershipFn([90.0, 110.0], [1.0, 0.4]), 36),
        (trapezoid(85, 95, 105, 120), 48),
        (MembershipFn(np.linspace(80.0, 120.0, 16), np.linspace(0.0, 1.0, 16)), 120),
    ])
    def test_view_boundary_is_affine_in_the_knot_count(self, monkeypatch, mu, boundary):
        # a discrete law takes the knot view from 24 + 6 * knots atoms, the node view below
        def refuse(*args, **kwargs):
            raise AssertionError("this view must not run")

        for count, other in ((boundary, "_NodeView"), (boundary - 1, "_KnotView")):
            dist = DiscreteLaw(np.linspace(90.0, 115.0, count), np.full(count, 1.0 / count))
            with monkeypatch.context() as patch:
                patch.setattr(views, other, refuse)
                profile(mu, dist, SIMPLE)

    @pytest.mark.parametrize("conv", [SIMPLE, LOGARITHMIC])
    def test_profile_edge_cases_raise_no_floating_point_exception(self, conv):
        edges = MembershipFn([80.0, 90.0, float(np.nextafter(90.0, 100.0)), 110.0], [1.0, 0.2, 0.9, 1.0])
        # atoms on knots at rate 0, twins one ulp apart, and enough of them for the knot view
        atoms = np.unique(np.concatenate((
            edges.grid, np.nextafter(edges.grid, np.inf), np.linspace(60.0, 140.0, 64),
        )))
        discrete = DiscreteLaw(atoms, np.full(atoms.size, 1.0 / atoms.size))
        wide = trapezoid(1.0, 40.0, 60.0, 1000.0)  # simple lower copies fall below -1
        lognormal = TruncatedLaw.lognormal(np.log(100), 0.3, (0.005, 0.995))
        cases = [(edges, discrete), (edges, lognormal), (wide, lognormal), (trapezoid(90, 90, 110, 110), lognormal)]
        with np.errstate(all="raise"):
            for mu, dist in cases:
                assert isinstance(views.make(mu, conv, dist), views._KnotView)
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
        np.testing.assert_allclose(piece_integrals(a + b * x0, b, x0, x1), expected, rtol=1e-12, atol=0.0)

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
        rho = expected_return_distribution(views.make(mu, conv, nodes), grid)
        center, area = exact
        return abs(expected_return(rho) - center), abs(quadrature.integrate(rho.grid, rho.values) / area - 1.0)

    @pytest.mark.parametrize("conv", [SIMPLE, LOGARITHMIC], ids=lambda conv: conv.kind)
    def test_grid_doubling_on_a_discrete_law(self, conv):
        mu = trapezoid(88, 94, 104, 112)
        points, probs = [92.0, 101.0, 109.0], [0.25, 0.5, 0.25]
        nodes = DiscreteLaw(points, probs)
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
        nodes = DiscreteLaw(points, probs)
        mu, cheaper = trapezoid(88, 94, 104, 112), trapezoid(80, 84, 90, 95)
        _, area = closed_form_center_and_area(mu, conv.kind, discrete_moments(points, probs))
        counts = (201, 401, 801, 1601, 3201, 6401)

        def sampled(m):
            return [expected_return_distribution(views.make(m, conv, nodes), ReturnGrid.spanning(m, nodes, conv, n))
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
        # at 6401 points the closed-form law's center misses by the grid's error
        # alone (1.2e-11 simple, 3.6e-13 logarithmic measured), and the centers of
        # its midpoint nodes approach it at order 2 in the node count.  A symmetric
        # truncation makes the midpoint nodes' E[ln Y] exact, so the logarithmic
        # center takes its node error from an asymmetric one
        mu = trapezoid(85, 95, 105, 120)
        dist = TruncatedLaw.lognormal(math.log(100.0), 0.15, levels)
        exact = closed_form_center_and_area(mu, conv.kind, lognormal_moments(math.log(100.0), 0.15, *levels))
        assert self.errors(mu, conv, dist, 6401, exact)[0] <= 5e-11
        centers = np.array([self.errors(mu, conv, midpoint_nodes(dist, n), 6401, exact)[0] for n in (128, 256, 512, 1024)])
        assert np.log2(centers[:-1] / centers[1:]).min() >= 1.8, centers

    @pytest.mark.parametrize("conv, levels, degree", [(SIMPLE, (0.005, 0.995), 0.3136812),
                                                      (LOGARITHMIC, (0.005, 0.95), 0.3286184)],
                             ids=["simple", "logarithmic"])
    def test_energy_entropy_and_dominance_on_a_continuous_law(self, conv, levels, degree):
        # the law and truncations of the node-doubling test, in closed form, over 801-6401 points
        law = TruncatedLaw.lognormal(math.log(100.0), 0.15, levels)
        mu, cheaper = trapezoid(85, 95, 105, 120), trapezoid(80, 84, 90, 95)
        _, area = closed_form_center_and_area(mu, conv.kind, lognormal_moments(math.log(100.0), 0.15, *levels))
        counts = (801, 1601, 3201, 6401)

        def sampled(m):
            return [expected_return_distribution(views.make(m, conv, law), ReturnGrid.spanning(m, law, conv, n))
                    for n in counts]

        rhos, others = sampled(mu), sampled(cheaper)
        energies = np.abs([energy_measure(rho) - area / (1.0 + area) for rho in rhos])
        entropies = np.abs(np.diff([entropy_measure(rho) for rho in rhos]))
        degrees = np.array([dominance(rho, other) for rho, other in zip(rhos, others)])
        moves = np.abs(np.diff(degrees))
        # the energy misses by the grid's error alone, with no steady order near
        # the rounding level: 2.9e-9 to 6.8e-12 (simple) and 1.1e-9 to 4.4e-12
        # (logarithmic) measured
        assert energies.max() <= 5e-9 and energies[-1] <= 2e-11, energies
        assert np.log2(entropies[:-1] / entropies[1:]).min() >= 1.8, entropies
        # the degree has no steady order per doubling, but over the last two
        # doublings together it falls at order 1.77 (simple) and 2.11 (logarithmic)
        assert np.log2(moves[0] / moves[-1]) / 2 >= 1.4, moves
        assert degrees[-1] == pytest.approx(degree, abs=1e-7)


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
        dist = DiscreteLaw([100.0], [1.0])
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
        result = profile(mu, DiscreteLaw([anchor], [1.0]), LOGARITHMIC)
        assert result.expected_return == pytest.approx(0.0, abs=1e-12)
        assert result.variance == pytest.approx(spread**2 / 2.0, abs=1e-3 * spread**2)
        # direct second-moment quadrature of the common branch on a finer axis
        r = ReturnGrid.spanning(mu, DiscreteLaw([anchor], [1.0]), LOGARITHMIC, 801).r_values
        xs = np.linspace(0.0, max(r[-1] ** 2, r[0] ** 2), 8193)
        branch = (xs <= spread**2).astype(float)
        oracle = riemann(xs * branch, xs) / riemann(branch, xs)
        assert result.variance == pytest.approx(oracle, abs=2e-3 * spread**2)

    def test_span_doubling_with_fixed_step_changes_nothing(self):
        mu = trapezoid(90, 95, 105, 110)
        dist = DiscreteLaw([95.0, 104.0], [0.4, 0.6])
        grid = ReturnGrid.spanning(mu, dist, SIMPLE, 401)
        view = views.make(mu, SIMPLE, dist)
        center = expected_return(expected_return_distribution(view, grid))
        base = return_variance(view, center, grid.support)
        # ends at center +/- sqrt(2) times the larger half-width: the kernel is
        # 0 past the true support, which the kink deviations still cut off
        half = max(grid.r_values[-1] - center, center - grid.r_values[0])
        wide = (center - np.sqrt(2.0) * half, center + np.sqrt(2.0) * half)
        assert return_variance(view, center, wide) == pytest.approx(base, rel=1e-15)

    def test_zero_kernel_is_degenerate(self):
        mu = trapezoid(90, 95, 105, 110)
        nodes = DiscreteLaw([100.0], [1.0])
        with pytest.raises(DegenerateMembershipError):
            # center far outside any reachable rate: both branches miss the support
            return_variance(views.make(mu, SIMPLE, nodes), 50.0, (49.99, 50.01))


# seed 1 of perfbench's screen-pairwise securities s124 and s050, each with a
# kernel whose copies of one atom cross between kinks
CROSSING_LAWS = {
    "simple": (trapezoid(120.36, 126.51, 139.553, 145.582), DiscreteLaw(
        [103.052, 124.803, 137.627, 139.263, 144.482, 167.165],
        [0.22942627960328313, 0.21391194639711558, 0.10202926429268132, 0.09547506526686214,
         0.11902164338870042, 0.24013580105135746])),
    "logarithmic": (trapezoid(120.544, 122.866, 131.269, 132.843), DiscreteLaw(
        [99.9129, 104.632, 134.369, 139.115, 149.774, 157.09],
        [0.08249912671658902, 0.17085529007703343, 0.21577814049304256, 0.08675334201101581,
         0.09896277816657963, 0.34515132253573955])),
}


class TestDiscreteVarianceRule:
    """A discrete law's variance by Gauss-Legendre between its kernel's
    breakpoints, against 64 points on 4096 uniform intervals, split also
    at the kink deviations and at the crossings found by bisection."""

    @staticmethod
    def stages(mu, dist, conv):
        """The law's view, return grid and center, and the farther support
        end's deviation."""
        grid = ReturnGrid.spanning(mu, dist, conv, 801)
        view = views.make(mu, conv, dist)
        center = expected_return(expected_return_distribution(view, grid))
        return view, grid, center, max(center - grid.support[0], grid.support[1] - center)

    @pytest.mark.parametrize("conv", [SIMPLE, LOGARITHMIC])
    @pytest.mark.parametrize("mu, dist", [
        (trapezoid(88, 94, 104, 112), DiscreteLaw([92, 101, 109], [0.25, 0.5, 0.25])),
        (trapezoid(85, 97, 103, 120), DiscreteLaw(np.linspace(80.0, 125.0, 8), np.full(8, 0.125))),
    ])
    def test_few_atoms_are_exact_to_rounding(self, mu, dist, conv):
        view, grid, center, far = self.stages(mu, dist, conv)
        reference = reference_variance(view, mu, conv, dist, center, far)
        assert return_variance(view, center, grid.support) == pytest.approx(reference, rel=1e-12)

    @pytest.mark.parametrize("kind", sorted(CROSSING_LAWS))
    def test_crossing_copies_are_cut(self, kind):
        # measured without the crossings: 5.5e-9 (simple) and 4.5e-6 (logarithmic)
        mu, dist = CROSSING_LAWS[kind]
        conv = CONVENTIONS[kind]
        view, grid, center, far = self.stages(mu, dist, conv)
        assert copy_crossings(mu, conv, dist, center, far).size == 1
        reference = reference_variance(view, mu, conv, dist, center, far)
        assert return_variance(view, center, grid.support) == pytest.approx(reference, rel=1e-12)

    def test_many_atoms_take_uniform_intervals(self, monkeypatch):
        # 4 knots x 64 atoms give 256 kink deviations, more than 128 intervals
        mu = trapezoid(85, 97, 103, 120)
        dist = DiscreteLaw(np.linspace(80.0, 125.0, 64), np.full(64, 1.0 / 64))
        view, grid, center, far = self.stages(mu, dist, SIMPLE)
        steps = []
        kernel = view.kernel
        monkeypatch.setattr(view, "kernel", lambda center, s: steps.append(s.size) or kernel(center, s))
        engine = return_variance(view, center, grid.support)
        assert steps == [1024]
        monkeypatch.undo()
        reference = reference_variance(view, mu, SIMPLE, dist, center, far, breakpoints=False)
        # the earlier rule: a trapezoid of 1024 panels on the squared deviation x = s^2
        xs = np.linspace(0.0, max(grid.r_values[-1] - center, center - grid.r_values[0]) ** 2, 1025)
        kernel = view.kernel(center, np.sqrt(xs))
        trapezoid_rule = quadrature.integrate(xs, xs * kernel) / quadrature.integrate(xs, kernel)
        assert abs(engine - reference) * 10.0 <= abs(trapezoid_rule - reference)


class TestLawView:
    """The closed-form state sums and kernel against quadrature over the law."""

    @staticmethod
    def quadrature(mu, conv, dist, rates):
        """The average over the truncated law of the largest of mu(pv(r, Y))
        over the given rates, with the integrand's breaks given to quad."""
        lo, hi = dist.levels
        z_lo, z_hi = norm.ppf([lo, hi])
        value = (lambda z: math.exp(dist.mean + dist.sd * z)) if dist.log else (lambda z: dist.mean + dist.sd * z)
        to_z = (lambda y: (math.log(y) - dist.mean) / dist.sd) if dist.log else (lambda y: (y - dist.mean) / dist.sd)
        breaks = [z for z in (to_z(x / float(conv.present_map(r, 1.0))) for x in mu.grid for r in rates) if z_lo < z < z_hi]

        def integrand(z):
            return max(float(mu(conv.present_map(r, value(z)))) for r in rates) * norm.pdf(z)

        total = quad(integrand, z_lo, z_hi, points=sorted(breaks) or None, limit=400, epsabs=1e-14, epsrel=1e-12)[0]
        return total / (hi - lo)

    @pytest.mark.parametrize("dist", [TruncatedLaw.normal(100.0, 8.0, (0.01, 0.98)),
                                      TruncatedLaw.lognormal(math.log(100.0), 0.12, (0.002, 0.995))],
                             ids=["normal", "lognormal"])
    @pytest.mark.parametrize("conv", [SIMPLE, LOGARITHMIC], ids=lambda conv: conv.kind)
    def test_state_sums_and_kernel_match_quadrature(self, dist, conv):
        # a membership that is not unimodal, with a vertical edge at each end
        mu = MembershipFn([84.0, 90.0, 97.0, 101.0, 104.0, 116.0], [0.3, 1.0, 0.2, 0.7, 0.6, 0.4])
        view = views.make(mu, conv, dist)
        assert isinstance(view, views._LawView)
        rates = np.linspace(-0.2, 0.25, 7)
        expected = [self.quadrature(mu, conv, dist, [r]) for r in rates]
        np.testing.assert_allclose(view.state_sum(rates), expected, rtol=0.0, atol=1e-10)
        center, steps = 0.02, np.array([0.0, 0.004, 0.03, 0.07, 0.12, 0.3])
        expected = [self.quadrature(mu, conv, dist, [center + s, center - s]) for s in steps]
        np.testing.assert_allclose(view.kernel(center, steps), expected, rtol=0.0, atol=1e-10)


class TestContinuousVarianceRule:
    """A continuous law's variance by Gauss-Legendre between its kernel's
    breakpoints, against 16 points on 4096 uniform intervals of [0, far]."""

    @staticmethod
    def laws(*names):
        """Each continuous law of the named fixtures, with its security id,
        view, return grid, center and farther support end's deviation."""
        for name in names:
            securities, settings = _load(FIXTURES / f"{name}.json")
            for sec_id, conv, mu, dist in securities:
                if isinstance(dist, TruncatedLaw):
                    grid = ReturnGrid.spanning(mu, dist, conv, settings.grid_points)
                    view = views.make(mu, conv, dist)
                    center = expected_return(expected_return_distribution(view, grid))
                    yield sec_id, view, grid, center, max(center - grid.support[0], grid.support[1] - center)

    def test_breakpoint_rule_matches_fine_reference(self, monkeypatch):
        # measured: within 3.7e-11 of the reference, which is itself off by that
        # much at the kinks of the vertical edges (within 1.4e-15 with the cuts
        # added to it); without the level coincidences the panel's beta misses
        # by 3.7e-4.  A law past the rule's size takes uniform intervals (below)
        worst = worst_without = 0.0
        for sec_id, view, grid, center, far in self.laws("portfolio3", "accuracy_panel", "coincidences"):
            if view.mu.grid.size * view.y.size > returns.MAX_BREAKPOINT_INTERVALS:
                continue
            reference = gauss_legendre_variance(view, center, np.linspace(0.0, far, 4097), 16)
            gap = abs(return_variance(view, center, grid.support) / reference - 1.0)
            assert gap <= 1e-10, sec_id
            worst = max(worst, gap)
            with monkeypatch.context() as patch:
                patch.setattr(returns, "_level_pairs", lambda mu: (np.empty(0), np.empty(0)))
                worst_without = max(worst_without, abs(return_variance(view, center, grid.support) / reference - 1.0))
        assert worst_without > 1e-6 > 1e-10 >= worst

    @pytest.mark.parametrize("mu, dist, kind, bound", [
        (MembershipFn([1e-8, 1e-6, 1e-5, 1e40], [1.0, 1.0, 0.01, 0.0]),
         TruncatedLaw.lognormal(690.8, 0.01, (0.005, 0.995)), "logarithmic", 1e-10),
        (trapezoid(1, 50, 150, 1e6), TruncatedLaw.normal(100, 8, (0.005, 0.995)), "simple", 5e-8),
        (trapezoid(20, 90, 110, 3000), TruncatedLaw.lognormal(4.6, 0.1, (0.005, 0.995)), "simple", 5e-8),
    ], ids=["48-decades", "6-decades", "2-decades"])
    def test_wide_membership_takes_graded_cuts(self, mu, dist, kind, bound):
        # measured 3.5e-12, 2.3e-8 and 2.1e-8 against 16 points on 4096 uniform
        # intervals plus the kink deviations; with mu's knots alone 7.2e-3,
        # 3.4e-5 and 8.4e-7: between them a copy's present value spans up to
        # e^88, 2e4 and 7 times itself, and a simple rate's copy nears its pole
        conv = CONVENTIONS[kind]
        view, grid, center, far = TestDiscreteVarianceRule.stages(mu, dist, conv)
        cuts = np.concatenate((np.linspace(0.0, far, 4097), kink_deviations(mu, conv, dist, center, far)))
        reference = gauss_legendre_variance(view, center, np.unique(cuts), 16)
        assert return_variance(view, center, grid.support) == pytest.approx(reference, rel=bound)
        knots_only = views.make(mu, conv._replace(cut_ratio=math.inf), dist)
        assert return_variance(knots_only, center, grid.support) != pytest.approx(reference, rel=10.0 * bound)

    def test_many_knots_take_uniform_intervals(self, monkeypatch):
        # 70 knots x 2 support ends exceed 128 intervals: 128 intervals uniform
        # in s^2, measured 2.5e-8 from the reference
        ((_, view, grid, center, far),) = [law for law in self.laws("coincidences") if law[0] == "many-knots"]
        assert view.mu.grid.size * view.y.size > returns.MAX_BREAKPOINT_INTERVALS
        steps = []
        kernel = view.kernel
        monkeypatch.setattr(view, "kernel", lambda center, s: steps.append(s.size) or kernel(center, s))
        engine = return_variance(view, center, grid.support)
        assert steps == [1024]
        monkeypatch.undo()
        reference = gauss_legendre_variance(view, center, np.linspace(0.0, far, 4097), 16)
        assert engine == pytest.approx(reference, rel=1e-6)

    def test_gauss_legendre_rule_is_exact_to_degree_2n_minus_1(self):
        # the variance rule's 8 points, and the 64 of the kernel checks
        for points in (8, 64):
            nodes, weights = quadrature.gauss_legendre(points)
            assert np.all(np.diff(nodes) > 0.0) and -1.0 < nodes[0] and nodes[-1] < 1.0
            for degree in range(0, 2 * points, 7 if points > 8 else 1):
                exact = 2.0 / (degree + 1) if degree % 2 == 0 else 0.0
                assert weights @ nodes**degree == pytest.approx(exact, abs=1e-14)

    @pytest.mark.parametrize("delta", [0.1, 1e-2, 1e-3, 1e-4, 1e-5])
    def test_narrow_membership_keeps_variance_and_center(self, delta):
        # trapezoid(100 +/- delta) under normal(100, 5) truncated at (0.005, 0.995):
        # as delta falls, the fuzzy return tends to the size-biased law of the rate
        # and the variance to 4.3671e-3 (4.369e-3 to four digits).  Measured over
        # delta from 0.1 to 1e-5: the variance within 4.3e-4 of 4.369e-3 and
        # 8.3e-5 of 4.3671e-3, the center within 5.9e-7 of its closed form
        mu = trapezoid(100.0 - delta, 100.0, 100.0, 100.0 + delta)
        result = profile(mu, TruncatedLaw.normal(100.0, 5.0, (0.005, 0.995)), SIMPLE)
        assert result.variance == pytest.approx(4.369e-3, rel=1e-3)
        assert result.variance == pytest.approx(4.3671046e-3, rel=2e-4)
        center, _ = closed_form_center_and_area(mu, "simple", normal_moments(100.0, 5.0, 0.005, 0.995))
        assert result.expected_return == pytest.approx(center, abs=2e-6)


class TestEngineSettings:
    @pytest.mark.parametrize("name", ["grid_points", "nodes", "variance_panels"])
    def test_each_resolution_is_bounded(self, name):
        assert getattr(EngineSettings(**{name: MAX_RESOLUTION}), name) == MAX_RESOLUTION
        with pytest.raises(ValueError, match=f"{name} must be at most {MAX_RESOLUTION}"):
            EngineSettings(**{name: MAX_RESOLUTION + 1})


class TestSecurityProfile:
    RHO = trapezoid(-0.1, 0.0, 0.05, 0.2)

    @pytest.mark.parametrize("variance, energy, entropy, message", [
        (-1e-300, 0.5, 0.1, "variance must be nonnegative"),
        (math.nan, 0.5, 0.1, "variance must be nonnegative"),
        (0.01, 1.0, 0.5, "energy and entropy must lie in [0, 1)"),
        (0.01, math.nan, 0.1, "energy and entropy must lie in [0, 1)"),
        (0.01, 0.5, -1e-300, "energy and entropy must lie in [0, 1)"),
        (0.01, 0.2, 0.2 + 2e-12, "entropy cannot exceed energy"),
    ])
    def test_each_invariant_is_checked(self, variance, energy, entropy, message):
        with pytest.raises(ValueError) as raised:
            SecurityProfile(self.RHO, 0.05, variance, energy, entropy)
        assert str(raised.value) == message

    def test_bounds_are_accepted(self):
        made = SecurityProfile(self.RHO, 0.05, 0.0, 0.0, 1e-12)
        assert (made.rho, made.expected_return, made.variance, made.energy, made.entropy) == (
            self.RHO, 0.05, 0.0, 0.0, 1e-12)


class TestProfile:
    def test_present_values_beyond_the_float_range_weigh_nothing(self):
        # the node view's lower kernel copies reach rates near -1400, where y * exp(-r) overflows
        mu = trapezoid(5e-161, 3e-84, 8e57, 4e58)
        dist = DiscreteLaw([1.3e-179, 9.5e-175, 4.3e-15], [0.25, 0.5, 0.25])
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            result = profile(mu, dist, LOGARITHMIC)
        assert result.variance > 0.0

    def test_crisp_plateau_has_tiny_entropy(self):
        mu = MembershipFn([95.0, 105.0], [1.0, 1.0])
        result = profile(mu, DiscreteLaw([100.0], [1.0]), SIMPLE)
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
            base = profile(mu, DiscreteLaw(points, probs), conv, FAST)
            for factor in (0.5, 3.0):
                scaled_dist = DiscreteLaw(points * factor, probs)
                scaled = profile(MembershipFn(mu.grid * factor, mu.values), scaled_dist, conv, FAST)
                assert np.max(np.abs(scaled.rho(base.rho.grid) - base.rho.values)) < 1e-9
                assert scaled.expected_return == pytest.approx(base.expected_return, abs=1e-9)
                assert scaled.variance == pytest.approx(base.variance, abs=1e-9)
                assert scaled.energy == pytest.approx(base.energy, abs=1e-9)
                assert scaled.entropy == pytest.approx(base.entropy, abs=1e-9)

    def test_log_shift_covariance(self):
        mu = trapezoid(85, 95, 105, 120)
        dist = TruncatedLaw.lognormal(np.log(100), 0.15, (0.005, 0.995))
        shift = 0.1
        base = profile(mu, dist, LOGARITHMIC, FAST)
        moved_dist = TruncatedLaw.lognormal(np.log(100) + shift, 0.15, (0.005, 0.995))  # e^shift * V
        moved = profile(mu, moved_dist, LOGARITHMIC, FAST)
        assert moved.expected_return - base.expected_return == pytest.approx(shift, abs=1e-6)
        assert moved.variance == pytest.approx(base.variance, abs=1e-6)
        # the whole fuzzy return translates: compare on the shifted abscissae
        assert np.max(np.abs(moved.rho(base.rho.grid + shift) - base.rho.values)) < 1e-6

    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_grid_needs_four_points(self, count):
        # one uniform rate divides its span by zero; the kinks of a 2-knot
        # membership at one atom pad 2 or 3 uniform rates into a valid 4- or
        # 5-point grid, so only the count's own check refuses them
        cases = [
            (trapezoid(85, 95, 105, 120), DiscreteLaw([90.0, 100.0, 115.0], [0.3, 0.5, 0.2])),
            (trapezoid(85, 95, 105, 120), TruncatedLaw.normal(100.0, 5.0, (0.005, 0.995))),
            (MembershipFn([90.0, 110.0], [1.0, 0.5]), DiscreteLaw([100.0], [1.0])),
        ]
        for mu, law in cases:
            with pytest.raises(ValueError, match="^return grid needs at least four points$"):
                profile(mu, law, SIMPLE, grid_points=count)

    def test_degenerate_membership_raises(self):
        mu = MembershipFn([90.0, 110.0], [0.0, 0.0])
        with pytest.raises(DegenerateMembershipError):
            profile(mu, DiscreteLaw([100.0], [1.0]), SIMPLE, FAST)
