import numpy as np
import pytest

from bpv_effect.membership import MembershipFn, dominance, trapezoid, triangle
from bpv_effect.returns import SecurityProfile
from bpv_effect.effectiveness import Universe, build_report

from support import direct_pareto


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
    report = build_report(Universe(("y", "z"), (y, z)))
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
        report = build_report(Universe(("only",), (normal_profile,)))
        assert report.effectiveness[0] == 1.0
        assert report.strict_effectiveness[0] == 1.0

    def test_crisp_dominance_pair(self):
        winner = make_profile(triangle(0.10, 0.15, 0.20), variance=0.01)
        loser = make_profile(triangle(0.00, 0.05, 0.10), variance=0.02)
        universe = Universe(("w", "l"), (winner, loser))
        report = build_report(universe)
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
        universe = Universe(tuple(f"s{i}" for i in range(4)), tuple(profiles))
        report = build_report(universe)
        assert np.array_equal(report.strict_outranking, report.outranking)
        assert np.array_equal(report.strict_effectiveness, report.effectiveness)

    def test_strictly_worse_on_every_axis_scores_zero(self):
        strong = make_profile(triangle(0.10, 0.15, 0.20), variance=0.01, energy=0.2, entropy=0.01)
        weak = make_profile(triangle(0.00, 0.05, 0.10), variance=0.02, energy=0.4, entropy=0.05)
        universe = Universe(("strong", "weak"), (strong, weak))
        assert build_report(universe).strict_effectiveness[1] == 0.0

    def test_duplicate_security_leaves_other_scores_unchanged(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            profiles = tuple(random_profile(rng) for _ in range(3))
            ids = ("a", "b", "c")
            base = build_report(Universe(ids, profiles))
            doubled = build_report(Universe(ids + ("a2",), profiles + (profiles[0],)))
            assert np.array_equal(base.effectiveness, doubled.effectiveness[:3])
            assert np.array_equal(base.strict_effectiveness, doubled.strict_effectiveness[:3])

    def test_adding_a_dominated_security_keeps_scores(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            profiles = [random_profile(rng) for _ in range(3)]
            base = build_report(Universe(("a", "b", "c"), tuple(profiles)))
            # a clearly dominated newcomer: every incumbent outranks it fully
            newcomer = make_profile(
                triangle(-10.0, -9.5, -9.0), variance=10.0, energy=0.99, entropy=0.49
            )
            grown = build_report(Universe(("a", "b", "c", "z"), tuple(profiles) + (newcomer,)))
            assert np.all(grown.outranking[:3, 3] == 1.0)
            assert np.array_equal(base.effectiveness, grown.effectiveness[:3])

    def test_matrices_match_pairwise_functions(self):
        rng = np.random.default_rng(3)
        profiles = tuple(random_profile(rng) for _ in range(4))
        universe = Universe(tuple(f"s{i}" for i in range(4)), profiles)
        report = build_report(universe)
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
            universe = Universe(tuple(f"s{i}" for i in range(size)), profiles)
            report = build_report(universe)
            assert np.max(np.abs(report.effectiveness - direct_pareto(report.outranking.tolist()))) < 1e-12
            assert np.max(np.abs(
                report.strict_effectiveness - direct_pareto(report.strict_outranking.tolist())
            )) < 1e-12
            assert np.all(report.strict_outranking <= report.outranking + 1e-15)
            assert np.all((report.effectiveness >= 0.0) & (report.effectiveness <= 1.0))
            assert np.all((report.strict_effectiveness >= 0.0) & (report.strict_effectiveness <= 1.0))


class TestUniverse:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Universe((), ())

    def test_rejects_duplicate_ids(self, normal_profile):
        with pytest.raises(ValueError):
            Universe(("a", "a"), (normal_profile, normal_profile))

    def test_of_pairs(self, normal_profile):
        universe = Universe.of([("x", normal_profile)])
        assert universe.ids == ("x",)
        assert universe.size == 1
