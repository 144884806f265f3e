import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import special, stats

import bpv_effect
from bpv_effect import distribution
from bpv_effect.distribution import FutureValueDist


@pytest.fixture
def standard_lognormal():
    return FutureValueDist.lognormal(0.0, 1.0, (0.005, 0.995))


@pytest.fixture
def two_atoms():
    return FutureValueDist.discrete([2.0, 5.0], [0.3, 0.7])


class TestValidation:
    def test_normal_requires_truncation(self):
        with pytest.raises(ValueError):
            FutureValueDist.normal(100.0, 10.0, None)

    def test_lognormal_requires_truncation(self):
        with pytest.raises(ValueError, match="truncated to keep the support bounded"):
            FutureValueDist.lognormal(0.0, 1.0, None)

    def test_normal_requires_positive_lower_bound(self):
        with pytest.raises(ValueError):
            FutureValueDist.normal(5.0, 10.0, (0.005, 0.995))

    def test_normal_truncated_at_level_zero_has_no_positive_lower_bound(self):
        # level 0 is the unbounded lower tail, which no continuous law admits
        with pytest.raises(ValueError, match=r"0 < lo < hi < 1 \(got \[0.0, 0.99\]\)"):
            FutureValueDist.normal(5.0, 10.0, (0.0, 0.99))

    @pytest.mark.parametrize("levels", [(0.0, 0.9), (0.1, 1.0), (0.0, 1.0)])
    def test_continuous_support_must_be_bounded(self, levels):
        for family in (FutureValueDist.normal, FutureValueDist.lognormal):
            with pytest.raises(ValueError, match="0 < lo < hi < 1"):
                family(100.0 if family is FutureValueDist.normal else 4.6, 0.1, levels)

    @pytest.mark.parametrize("family, params, name", [
        ("normal", {"mean": float("nan"), "sd": 10.0}, "mean"),
        ("normal", {"mean": 100.0, "sd": float("inf")}, "sd"),
        ("lognormal", {"log_mean": float("-inf"), "log_sd": 0.2}, "log_mean"),
        ("lognormal", {"log_mean": 4.6, "log_sd": float("inf")}, "log_sd"),
    ])
    def test_non_finite_parameters_rejected(self, family, params, name):
        with pytest.raises(ValueError, match=f"finite {name} "):
            getattr(FutureValueDist, family)(truncation=(0.005, 0.995), **params)

    def test_non_finite_discrete_atoms_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            FutureValueDist.discrete([2.0, float("inf")], [0.5, 0.5])
        with pytest.raises(ValueError, match="finite"):
            FutureValueDist.discrete([2.0, 5.0], [float("nan"), 1.0])

    def test_discrete_probability_sum(self):
        with pytest.raises(ValueError, match="sum to 1"):
            FutureValueDist.discrete([2.0, 5.0], [0.2, 0.7])

    def test_discrete_positive_points(self):
        with pytest.raises(ValueError):
            FutureValueDist.discrete([-1.0, 5.0], [0.5, 0.5])

    def test_discrete_rejects_truncation(self):
        with pytest.raises(ValueError):
            FutureValueDist.discrete([2.0], [1.0], truncation=(0.1, 0.9))

    def test_bad_truncation_levels(self):
        with pytest.raises(ValueError):
            FutureValueDist.lognormal(0.0, 1.0, (0.9, 0.1))

    def test_node_weights_validated(self):
        # a discrete law's atoms are its quadrature nodes and weights, checked only here
        with pytest.raises(ValueError, match="sum to 1"):
            FutureValueDist.discrete([1.0, 2.0], [0.5, 0.4])
        with pytest.raises(ValueError, match="strictly increasing"):
            FutureValueDist.discrete([2.0, 1.0], [0.5, 0.5])
        with pytest.raises(ValueError, match="finite"):
            FutureValueDist.discrete([1.0, np.inf], [0.5, 0.5])


# a normal law, and laws near the full range, whose tails below 1e-12 are cut
LAWS = [
    (FutureValueDist.lognormal(0.0, 1.0, (1e-12, 1.0 - 1e-12)), stats.lognorm(1.0), (1e-12, 1.0 - 1e-12)),
    (FutureValueDist.lognormal(4.6, 0.08, (0.005, 0.995)), stats.lognorm(0.08, scale=np.exp(4.6)), (0.005, 0.995)),
    (FutureValueDist.lognormal(-2.0, 0.5, (0.2, 0.9)), stats.lognorm(0.5, scale=np.exp(-2.0)), (0.2, 0.9)),
    (FutureValueDist.normal(100.0, 10.0, (0.005, 0.995)), stats.norm(100.0, 10.0), (0.005, 0.995)),
    (FutureValueDist.normal(103.0, 6.0, (0.01, 0.99)), stats.norm(103.0, 6.0), (0.01, 0.99)),
    (FutureValueDist.normal(50.0, 5.0, (0.3, 1.0 - 1e-12)), stats.norm(50.0, 5.0), (0.3, 1.0 - 1e-12)),
    (FutureValueDist.normal(100.0, 10.0, (1e-12, 1.0 - 1e-12)), stats.norm(100.0, 10.0), (1e-12, 1.0 - 1e-12)),
]


class TestNodes:
    def test_discrete_passthrough(self, two_atoms):
        nodes = two_atoms.make_nodes()
        assert np.array_equal(nodes.nodes, [2.0, 5.0])
        assert np.array_equal(nodes.weights, [0.3, 0.7])
        assert not (nodes.nodes.flags.writeable or nodes.weights.flags.writeable)

    @pytest.mark.parametrize("law, span", [
        (FutureValueDist.lognormal(800.0, 0.2, (0.005, 0.995)), "inf to inf"),  # exp overflows
        (FutureValueDist.lognormal(-800.0, 0.2, (0.005, 0.995)), "0 to 0"),  # exp underflows
        (FutureValueDist.normal(100.0, 1e-300, (0.005, 0.995)), "100 to 100"),  # sd * z vanishes against the mean
    ], ids=["overflow", "underflow", "collapse"])
    def test_nodes_out_of_range_name_their_span(self, law, span):
        with np.errstate(all="raise"), pytest.raises(ValueError) as caught:
            law.make_nodes()
        assert str(caught.value) == f"support ends {span} are not finite, positive and distinct"

    @pytest.mark.parametrize("law, reference, levels", LAWS, ids=[f"law{i}" for i in range(7)])
    def test_cached_nodes_equal_quantiles_at_midpoints(self, law, reference, levels):
        # the closed-form weight below the quantile at each probability midpoint
        # (i - 1/2)/n of the truncated law is that midpoint, and the support ends
        # are the quantiles at the truncation levels
        lo, hi = levels
        rule = law.make_nodes()
        assert np.max(np.abs(rule.nodes / reference.ppf([lo, hi]) - 1.0)) <= 1e-13
        assert not rule.nodes.flags.writeable
        for n in (2, 7, 256, 1000):
            midpoints = (np.arange(n) + 0.5) / n
            weight, _ = rule.below(reference.ppf(lo + midpoints * (hi - lo)))
            assert np.max(np.abs(weight - midpoints)) <= 1e-13

    def test_truncation_at_full_range_is_identity(self):
        # as the levels reach (0, 1), the weight and first moment below y tend to
        # the untruncated law's: Phi(z) and e^(m + s^2/2) Phi(z - s)
        log_mean, log_sd = 0.3, 0.4
        base = stats.lognorm(log_sd, scale=np.exp(log_mean))
        for cut in (1e-6, 1e-9, 1e-12):
            rule = FutureValueDist.lognormal(log_mean, log_sd, (cut, 1.0 - cut)).make_nodes()
            y = base.ppf(np.linspace(0.01, 0.99, 99))
            weight, moment = rule.below(y)
            z = (np.log(y) - log_mean) / log_sd
            mean = np.exp(log_mean + log_sd**2 / 2.0)
            assert np.max(np.abs(weight - base.cdf(y))) <= 2.0 * cut
            assert np.max(np.abs(moment - mean * stats.norm.cdf(z - log_sd))) <= (4.0 * cut + 1e-13) * mean

    def test_continuous_needs_two_nodes(self, standard_lognormal):
        # a continuous law's nodes are its two support ends, whatever the node setting
        assert standard_lognormal.make_nodes().nodes.size == 2

    def test_nodes_positive_inside_truncated_support(self):
        d = FutureValueDist.normal(100.0, 40.0, (0.01, 0.99))
        y_lo, y_hi = d.make_nodes().nodes
        assert 0.0 < y_lo < y_hi
        assert y_lo == pytest.approx(stats.norm(100, 40).ppf(0.01), rel=1e-14)
        assert y_hi == pytest.approx(stats.norm(100, 40).ppf(0.99), rel=1e-14)

    @pytest.mark.parametrize("law, reference, levels", LAWS, ids=[f"law{i}" for i in range(7)])
    def test_weight_and_moment_match_midpoint_sums(self, law, reference, levels):
        # W and M at cell edges of 65536 probability-midpoint nodes against their
        # sums, whose own error is about the squared node spacing
        lo, hi = levels
        n = 65536
        nodes = reference.ppf(lo + (np.arange(n) + 0.5) / n * (hi - lo))
        y = reference.ppf(lo + np.array([851, 13107, 32768, 50463, 65470]) / n * (hi - lo))
        below = nodes[None, :] < y[:, None]
        rule = law.make_nodes()
        weight, moment = rule.below(y)
        scale = np.abs(nodes).max()
        assert np.max(np.abs(weight - below.mean(axis=1))) <= 1.0 / n
        assert np.max(np.abs(moment - (below * (nodes - rule.shift)).mean(axis=1))) <= 1e-7 * scale

    def test_cdf_matches_scipy_to_the_rounding_level(self):
        # Phi(z) as the law computes it: the scaled tail times exp(-z^2/2), reflected
        # for z >= 0; an absolute error this small keeps W monotone to the last bits
        def cdf(z):
            tail = np.exp(-0.5 * z * z) * distribution._scaled_tail(np.abs(z))
            return np.where(z < 0.0, tail, 1.0 - tail)

        z = np.linspace(-40.0, 40.0, 400_001)
        gap = np.abs(cdf(z) - special.ndtr(z))
        assert gap.max() <= 1e-15, z[gap.argmax()]
        for scalar in (-7.5, -1.0, 0.0, 2.5, 8.0):  # the scaled tail takes one float too
            assert cdf(scalar) == pytest.approx(special.ndtr(scalar), abs=1e-15)


def test_import_loads_no_scipy():
    src = str(Path(bpv_effect.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    completed = subprocess.run(
        [sys.executable, "-c", "import sys, bpv_effect; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert completed.stdout.strip() == "[]"
