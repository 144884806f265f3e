import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

import bpv_effect
from bpv_effect.distribution import FutureValueDist, QuadratureNodes


@pytest.fixture
def standard_lognormal():
    return FutureValueDist.lognormal(0.0, 1.0)


@pytest.fixture
def two_atoms():
    return FutureValueDist.discrete([2.0, 5.0], [0.3, 0.7])


class TestCdfQuantile:
    def test_lognormal_median(self, standard_lognormal):
        assert standard_lognormal.cdf(1.0) == pytest.approx(0.5, abs=1e-12)
        assert standard_lognormal.quantile(0.5) == pytest.approx(1.0, abs=1e-12)

    def test_discrete_step(self, two_atoms):
        assert two_atoms.cdf(3.0) == pytest.approx(0.3, abs=1e-15)
        assert two_atoms.cdf(1.9) == 0.0
        assert two_atoms.cdf(5.0) == pytest.approx(1.0, abs=1e-15)
        assert two_atoms.quantile(0.5) == 5.0
        assert two_atoms.quantile(0.3) == 2.0
        assert two_atoms.quantile(0.0) == 2.0

    def test_truncated_normal_boundaries(self):
        d = FutureValueDist.normal(100.0, 10.0, (0.005, 0.995))
        lower = stats.norm(100.0, 10.0).ppf(0.005)
        upper = stats.norm(100.0, 10.0).ppf(0.995)
        assert d.cdf(lower) == pytest.approx(0.0, abs=1e-12)
        assert d.cdf(upper) == pytest.approx(1.0, abs=1e-12)

    @given(
        st.floats(min_value=-1.0, max_value=1.0),
        st.floats(min_value=0.1, max_value=1.0),
        st.floats(min_value=0.02, max_value=0.98),
    )
    def test_continuous_round_trip(self, log_mean, log_sd, p):
        d = FutureValueDist.lognormal(log_mean, log_sd, (0.01, 0.99))
        x = d.quantile(p)
        assert d.quantile(d.cdf(x)) == pytest.approx(x, rel=1e-9)

    def test_quantile_monotone(self, standard_lognormal):
        ps = np.linspace(0.01, 0.99, 50)
        qs = standard_lognormal.quantile(ps)
        assert np.all(np.diff(qs) > 0)

    def test_truncation_at_full_range_is_identity(self):
        base = FutureValueDist.lognormal(0.3, 0.4)
        trivially_truncated = FutureValueDist.lognormal(0.3, 0.4, (0.0, 1.0))
        xs = np.linspace(0.2, 5.0, 23)
        assert np.allclose(base.cdf(xs), trivially_truncated.cdf(xs), atol=1e-14)
        ps = np.linspace(0.05, 0.95, 19)
        assert np.allclose(base.quantile(ps), trivially_truncated.quantile(ps), rtol=1e-12)

    def test_cdf_nondecreasing_with_unit_limits(self, two_atoms):
        laws = [
            two_atoms,
            FutureValueDist.lognormal(0.2, 0.7),
            FutureValueDist.lognormal(0.2, 0.7, (0.01, 0.99)),
            FutureValueDist.normal(100.0, 10.0, (0.005, 0.995)),
        ]
        for law in laws:
            xs = np.linspace(1e-6, 300.0, 4001)
            values = law.cdf(xs)
            assert np.all(np.diff(values) >= 0.0)
            assert values[0] == pytest.approx(0.0, abs=1e-12)
            assert values[-1] == pytest.approx(1.0, abs=1e-9)

    def test_continuous_laws_match_scipy_reference(self):
        levels = np.concatenate(([1e-10, 1e-6], np.linspace(0.001, 0.999, 37), [1 - 1e-6, 1 - 1e-10]))
        cases = [
            (FutureValueDist.normal(100.0, 10.0, (1e-12, 1.0)), stats.norm(100.0, 10.0), (1e-12, 1.0)),
            (FutureValueDist.lognormal(np.log(100.0), 0.3), stats.lognorm(0.3, scale=100.0), (0.0, 1.0)),
            (FutureValueDist.lognormal(-0.5, 1.2), stats.lognorm(1.2, scale=np.exp(-0.5)), (0.0, 1.0)),
        ]
        for law, reference, (lo, hi) in cases:
            expected = reference.ppf(lo + levels * (hi - lo))
            assert np.max(np.abs(law.quantile(levels) / expected - 1.0)) <= 1e-13
            cdf = (reference.cdf(expected) - lo) / (hi - lo)
            assert np.max(np.abs(law.cdf(expected) / cdf - 1.0)) <= 1e-13

    def test_lognormal_cdf_vanishes_at_and_below_zero(self, standard_lognormal):
        assert standard_lognormal.cdf(0.0) == 0.0
        assert np.array_equal(standard_lognormal.cdf(np.array([-3.0, -1e-300, 0.0])), [0.0, 0.0, 0.0])

    def test_quantile_domain_errors(self, standard_lognormal, two_atoms):
        with pytest.raises(ValueError):
            standard_lognormal.quantile(0.0)
        with pytest.raises(ValueError):
            standard_lognormal.quantile(1.0)
        with pytest.raises(ValueError):
            two_atoms.quantile(1.5)


class TestValidation:
    def test_normal_requires_truncation(self):
        with pytest.raises(ValueError):
            FutureValueDist.normal(100.0, 10.0, None)

    def test_normal_requires_positive_lower_bound(self):
        with pytest.raises(ValueError):
            FutureValueDist.normal(5.0, 10.0, (0.005, 0.995))

    def test_normal_truncated_at_level_zero_has_no_positive_lower_bound(self):
        with pytest.raises(ValueError, match="positive lower support bound"):
            FutureValueDist.normal(5.0, 10.0, (0.0, 0.99))

    @pytest.mark.parametrize("family, params, name", [
        ("normal", {"mean": float("nan"), "sd": 10.0}, "mean"),
        ("normal", {"mean": 100.0, "sd": float("inf")}, "sd"),
        ("lognormal", {"log_mean": float("-inf"), "log_sd": 0.2}, "log_mean"),
        ("lognormal", {"log_mean": 4.6, "log_sd": float("inf")}, "log_sd"),
    ])
    def test_non_finite_parameters_rejected(self, family, params, name):
        with pytest.raises(ValueError, match=f"finite {name} "):
            FutureValueDist(family=family, truncation=(0.005, 0.995), **params)

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
            FutureValueDist(family="discrete", points=np.array([2.0]), probs=np.array([1.0]), truncation=(0.1, 0.9))

    def test_bad_truncation_levels(self):
        with pytest.raises(ValueError):
            FutureValueDist.lognormal(0.0, 1.0, (0.9, 0.1))

    def test_node_weights_validated(self):
        with pytest.raises(ValueError):
            QuadratureNodes([1.0, 2.0], [0.5, 0.4])
        with pytest.raises(ValueError):
            QuadratureNodes([2.0, 1.0], [0.5, 0.5])


class TestNodes:
    def test_discrete_passthrough(self, two_atoms):
        for n in (1, 7, 100):
            nodes = two_atoms.make_nodes(n)
            assert np.array_equal(nodes.nodes, [2.0, 5.0])
            assert np.array_equal(nodes.weights, [0.3, 0.7])

    def test_continuous_probability_midpoints(self, standard_lognormal):
        nodes = standard_lognormal.make_nodes(4)
        assert np.allclose(standard_lognormal.cdf(nodes.nodes), [0.125, 0.375, 0.625, 0.875], atol=1e-12)
        assert np.allclose(nodes.weights, 0.25)

    def test_continuous_needs_two_nodes(self, standard_lognormal):
        with pytest.raises(ValueError):
            standard_lognormal.make_nodes(1)

    def test_nodes_positive_inside_truncated_support(self):
        d = FutureValueDist.normal(100.0, 40.0, (0.01, 0.99))
        nodes = d.make_nodes(64)
        assert nodes.nodes[0] > 0.0
        assert nodes.nodes[0] >= stats.norm(100, 40).ppf(0.01)
        assert nodes.nodes[-1] <= stats.norm(100, 40).ppf(0.99)

    def test_node_mean_second_order_convergence(self):
        d = FutureValueDist.lognormal(np.log(100.0), 0.15, (0.005, 0.995))
        reference = d.make_nodes(1_000_000)
        target = float(reference.nodes @ reference.weights)

        def error(n):
            nodes = d.make_nodes(n)
            return abs(float(nodes.nodes @ nodes.weights) - target)

        assert error(256) < error(64) / 8.0
        assert error(1024) < error(256) / 8.0

    def test_node_variance_finite_and_converging(self):
        d = FutureValueDist.lognormal(np.log(100.0), 0.25, (0.005, 0.995))

        def node_variance(n):
            nodes = d.make_nodes(n)
            mean = float(nodes.nodes @ nodes.weights)
            return float(((nodes.nodes - mean) ** 2) @ nodes.weights)

        coarse, mid, fine = node_variance(128), node_variance(512), node_variance(2048)
        assert np.isfinite(fine)
        assert abs(fine - mid) < abs(mid - coarse)
        assert abs(fine - mid) < 1e-3 * fine


class TestScaling:
    @given(st.floats(min_value=0.2, max_value=4.0))
    def test_scaled_lognormal_cdf_relation(self, factor):
        d = FutureValueDist.lognormal(0.1, 0.5, (0.01, 0.99))
        scaled = d.scaled(factor)
        for x in (0.5, 1.0, 2.0):
            assert scaled.cdf(factor * x) == pytest.approx(d.cdf(x), abs=1e-12)

    def test_scaled_discrete(self, two_atoms):
        scaled = two_atoms.scaled(3.0)
        assert np.array_equal(scaled.points, [6.0, 15.0])
        assert np.array_equal(scaled.probs, [0.3, 0.7])


def test_import_loads_no_scipy():
    src = str(Path(bpv_effect.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    completed = subprocess.run(
        [sys.executable, "-c", "import sys, bpv_effect; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert completed.stdout.strip() == "[]"
