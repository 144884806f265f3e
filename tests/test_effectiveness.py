import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bpv_effect import membership
from bpv_effect.membership import MembershipFn, dominance, trapezoid, triangle
from bpv_effect.returns import SecurityProfile
from bpv_effect.effectiveness import build_report

from support import candidate_dominance, direct_pareto, loop_cuts


def make_profile(rho, variance, energy=0.4, entropy=0.1, expected_return=0.05):
    return SecurityProfile(
        rho=rho,
        expected_return=expected_return,
        variance=variance,
        energy=energy,
        entropy=entropy,
    )


@pytest.fixture
def normal_profile():
    return make_profile(triangle(0.0, 0.05, 0.10), variance=0.01)


def degrees(y, z):
    """Plain and strict outranking of y over z, read off a two-security report."""
    report = build_report((y, z))
    return report.outranking[0, 1], report.strict_outranking[0, 1]


def random_profile(rng):
    start = float(rng.uniform(-0.2, 0.2))
    widths = rng.uniform(0.01, 0.1, 3)
    rho = trapezoid(start, start + widths[0], start + widths[0] + widths[1], start + widths.sum())
    return make_profile(
        rho,
        variance=float(rng.uniform(0.001, 0.05)),
        energy=float(rng.uniform(0.05, 0.8)),
        entropy=float(rng.uniform(0.0, 0.05)),
    )


class TestPairwiseDegrees:
    def test_self_comparison_is_one_for_normal_membership(self, normal_profile):
        assert degrees(normal_profile, normal_profile) == (1.0, 1.0)

    def test_variance_gate_wins_over_membership(self, normal_profile):
        worse = make_profile(normal_profile.rho, variance=normal_profile.variance * 2)
        assert degrees(worse, normal_profile) == (0.0, 0.0)

    def test_energy_gate_only_affects_strict_degree(self, normal_profile):
        smeared = make_profile(normal_profile.rho, normal_profile.variance, energy=0.9)
        assert degrees(smeared, normal_profile) == (1.0, 0.0)

    def test_entropy_gate_only_affects_strict_degree(self, normal_profile):
        blurred = make_profile(normal_profile.rho, normal_profile.variance, entropy=0.3)
        assert degrees(blurred, normal_profile) == (1.0, 0.0)

    def test_strict_never_exceeds_plain(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            plain, strict = degrees(random_profile(rng), random_profile(rng))
            assert strict <= plain

    def test_degree_composes_dominance_and_gate(self):
        low = make_profile(triangle(0.0, 0.01, 0.02), variance=0.01)
        high = make_profile(triangle(0.01, 0.02, 0.03), variance=0.02)
        # overlapping triangles cross at membership 1/2
        assert degrees(low, high)[0] == pytest.approx(0.5, abs=1e-12)
        assert degrees(high, low)[0] == 0.0  # variance gate


class TestParetoScores:
    def test_singleton_scores_one(self, normal_profile):
        report = build_report((normal_profile,))
        assert report.effectiveness[0] == 1.0
        assert report.strict_effectiveness[0] == 1.0

    def test_crisp_dominance_pair(self):
        winner = make_profile(triangle(0.10, 0.15, 0.20), variance=0.01)
        loser = make_profile(triangle(0.00, 0.05, 0.10), variance=0.02)
        report = build_report((winner, loser))
        assert report.outranking[0, 1] == 1.0
        assert report.outranking[1, 0] == 0.0
        assert report.effectiveness[0] == 1.0
        assert report.effectiveness[1] == 0.0

    def test_equal_imprecision_makes_strict_equal_plain(self):
        rng = np.random.default_rng(7)
        profiles = []
        for _ in range(4):
            base = random_profile(rng)
            profiles.append(make_profile(base.rho, base.variance, energy=0.3, entropy=0.02))
        report = build_report(profiles)
        assert np.array_equal(report.strict_outranking, report.outranking)
        assert np.array_equal(report.strict_effectiveness, report.effectiveness)

    def test_strictly_worse_on_every_axis_scores_zero(self):
        strong = make_profile(triangle(0.10, 0.15, 0.20), variance=0.01, energy=0.2, entropy=0.01)
        weak = make_profile(triangle(0.00, 0.05, 0.10), variance=0.02, energy=0.4, entropy=0.05)
        assert build_report((strong, weak)).strict_effectiveness[1] == 0.0

    def test_duplicate_security_leaves_other_scores_unchanged(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            profiles = tuple(random_profile(rng) for _ in range(3))
            base = build_report(profiles)
            doubled = build_report(profiles + (profiles[0],))
            assert np.array_equal(base.effectiveness, doubled.effectiveness[:3])
            assert np.array_equal(base.strict_effectiveness, doubled.strict_effectiveness[:3])

    def test_adding_a_dominated_security_keeps_scores(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            profiles = [random_profile(rng) for _ in range(3)]
            base = build_report(profiles)
            # a clearly dominated newcomer: every incumbent outranks it fully
            newcomer = make_profile(
                triangle(-10.0, -9.5, -9.0), variance=10.0, energy=0.99, entropy=0.49
            )
            grown = build_report(profiles + [newcomer])
            assert np.all(grown.outranking[:3, 3] == 1.0)
            assert np.array_equal(base.effectiveness, grown.effectiveness[:3])

    def test_matrices_match_pairwise_functions(self):
        rng = np.random.default_rng(3)
        profiles = tuple(random_profile(rng) for _ in range(4))
        report = build_report(profiles)
        for i, y in enumerate(profiles):
            for j, z in enumerate(profiles):
                degree = dominance(y.rho, z.rho)
                gate = y.variance <= z.variance
                strict_gate = gate and y.energy <= z.energy and y.entropy <= z.entropy
                assert report.outranking[i, j] == (degree if gate else 0.0)
                assert report.strict_outranking[i, j] == (degree if strict_gate else 0.0)

    def test_scores_match_direct_evaluation(self):
        rng = np.random.default_rng(59)
        for _ in range(25):
            size = int(rng.integers(1, 6))
            profiles = tuple(random_profile(rng) for _ in range(size))
            report = build_report(profiles)
            assert np.max(np.abs(report.effectiveness - direct_pareto(report.outranking.tolist()))) < 1e-12
            assert np.max(np.abs(
                report.strict_effectiveness - direct_pareto(report.strict_outranking.tolist())
            )) < 1e-12
            assert np.all(report.strict_outranking <= report.outranking + 1e-15)
            assert np.all((report.effectiveness >= 0.0) & (report.effectiveness <= 1.0))
            assert np.all((report.strict_effectiveness >= 0.0) & (report.strict_effectiveness <= 1.0))


@st.composite
def rough_grids(draw):
    """Knot grids mixing ordinary steps with knots 2 ulp apart, some of them
    starting at subnormal abscissas."""
    count = draw(st.integers(min_value=2, max_value=9))
    steps = draw(st.lists(st.sampled_from([0.0, 0.3]) | st.floats(min_value=0.01, max_value=2.0),
                          min_size=count - 1, max_size=count - 1))
    grid = [draw(st.floats(min_value=-5.0, max_value=5.0) | st.sampled_from([0.0, 5e-324, -1e-310]))]
    for step in steps:  # a zero step stands for two ulp
        grid.append(grid[-1] + step if step > 0.0 else np.nextafter(np.nextafter(grid[-1], np.inf), np.inf))
    return np.array(grid)


@st.composite
def rough_universes(draw):
    """2-8 memberships with plateaus, several local maxima, nonzero span-end
    values (vertical edges), subnormal peaks and ulp-wide segments; some
    universes put every membership on one shared grid."""
    size = draw(st.integers(min_value=2, max_value=8))
    shared = draw(st.booleans())
    grids = [draw(rough_grids())] * size if shared else [draw(rough_grids()) for _ in range(size)]
    rhos = []
    for grid in grids:
        level = st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(min_value=0.0, max_value=1.0)
        values = np.array(draw(st.lists(level, min_size=grid.size, max_size=grid.size)))
        rhos.append(MembershipFn(grid, values * draw(st.sampled_from([1.0, 1.0, 1.0, 1e-310]))))
    variances = draw(st.lists(st.sampled_from([0.01, 0.02, 0.03]), min_size=size, max_size=size))
    return rhos, variances


def synthetic_rho(rng, knots=801):
    """Non-convex fuzzy return: a few triangular bumps on one knot grid."""
    center, width = float(rng.uniform(-0.2, 0.2)), float(rng.uniform(0.05, 0.4))
    grid = np.linspace(center - width, center + width, knots)
    values = np.zeros(knots)
    for _ in range(int(rng.integers(2, 6))):
        peak, half = rng.uniform(grid[0], grid[-1]), rng.uniform(0.05, 0.3) * width
        values = np.maximum(values, rng.uniform(0.3, 1.0) * np.clip(1.0 - np.abs(grid - peak) / half, 0.0, 1.0))
    return MembershipFn(grid, values)


class TestBatchedDominance:
    @given(rough_universes())
    @settings(max_examples=100, deadline=None)
    def test_batched_and_pairwise_match_candidate_oracle(self, universe):
        rhos, variances = universe
        report = build_report([make_profile(r, v) for r, v in zip(rhos, variances)])
        for i, k in enumerate(rhos):
            for j, l in enumerate(rhos):
                expected = candidate_dominance(k, l)
                assert abs(dominance(k, l) - expected) <= 1e-12
                if variances[i] <= variances[j]:
                    assert abs(report.outranking[i, j] - expected) <= 1e-12

    @given(rough_universes(), st.sampled_from([membership.CUT_BLOCK, 1, 12, 20]))
    @settings(max_examples=200, deadline=None)
    def test_cut_tables_equal_the_per_membership_loop(self, universe, block):
        rhos, _ = universe
        with mock.patch.object(membership, "CUT_BLOCK", block):  # small blocks hold one or a few rows
            tables = membership._cut_tables(rhos)
        for cuts, sign in zip(tables, (1.0, -1.0)):
            for built, looped in zip((cuts.key, cuts.at, cuts.dx, cuts.dv), loop_cuts(rhos, sign)):
                assert built.dtype == looped.dtype and built.tobytes() == looped.tobytes()

    def test_diagonal_is_peak_and_gated_entries_are_zero(self):
        rng = np.random.default_rng(31)
        profiles = tuple(make_profile(synthetic_rho(rng, 101), float(v))
                         for v in rng.choice([0.01, 0.02, 0.03], 12))
        report = build_report(profiles)
        assert np.array_equal(np.diag(report.outranking), [p.rho.peak for p in profiles])
        variance = np.array([p.variance for p in profiles])
        failing = variance[:, None] > variance[None, :]
        assert np.any(failing)
        assert np.all(report.outranking[failing] == 0.0)
        assert np.all(report.strict_outranking[failing] == 0.0)

    def test_256_securities_of_801_knots_finish_quickly(self):
        # pair-by-pair scalar calls would take roughly 27 s at this size; the batched pass is far below
        rng = np.random.default_rng(256)
        profiles = tuple(make_profile(synthetic_rho(rng), float(rng.uniform(0.001, 0.05))) for _ in range(256))
        start = time.perf_counter()
        report = build_report(profiles)
        assert time.perf_counter() - start < 5.0
        assert report.outranking.shape == (256, 256)


class TestUniverse:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            build_report(())
