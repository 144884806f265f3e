import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import bpv_effect
from bpv_effect import distribution
from bpv_effect.distribution import FutureValueDist, QuadratureNodes


@pytest.fixture
def standard_lognormal():
    return FutureValueDist.lognormal(0.0, 1.0)


@pytest.fixture
def two_atoms():
    return FutureValueDist.discrete([2.0, 5.0], [0.3, 0.7])


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
        with pytest.raises(ValueError):
            QuadratureNodes([1.0, 2.0], [0.5, 0.4])
        with pytest.raises(ValueError):
            QuadratureNodes([2.0, 1.0], [0.5, 0.5])
        with pytest.raises(ValueError, match="finite"):
            QuadratureNodes([1.0, np.inf], [0.5, 0.5])


class TestNodes:
    def test_discrete_passthrough(self, two_atoms):
        for n in (1, 7, 100):
            nodes = two_atoms.make_nodes(n)
            assert np.array_equal(nodes.nodes, [2.0, 5.0])
            assert np.array_equal(nodes.weights, [0.3, 0.7])

    @pytest.mark.parametrize("law, reference, levels", [
        (FutureValueDist.lognormal(0.0, 1.0), stats.lognorm(1.0), (0.0, 1.0)),
        (FutureValueDist.lognormal(4.6, 0.08, (0.005, 0.995)), stats.lognorm(0.08, scale=np.exp(4.6)),
         (0.005, 0.995)),
        (FutureValueDist.lognormal(-2.0, 0.5, (0.2, 0.9)), stats.lognorm(0.5, scale=np.exp(-2.0)), (0.2, 0.9)),
        (FutureValueDist.normal(100.0, 10.0, (0.005, 0.995)), stats.norm(100.0, 10.0), (0.005, 0.995)),
        (FutureValueDist.normal(103.0, 6.0, (0.01, 0.99)), stats.norm(103.0, 6.0), (0.01, 0.99)),
        (FutureValueDist.normal(50.0, 5.0, (0.3, 1.0)), stats.norm(50.0, 5.0), (0.3, 1.0)),
        (FutureValueDist.normal(100.0, 10.0, (1e-12, 1.0)), stats.norm(100.0, 10.0), (1e-12, 1.0)),
    ], ids=[f"law{i}" for i in range(7)])
    def test_cached_nodes_equal_quantiles_at_midpoints(self, law, reference, levels):
        lo, hi = levels
        for n in (2, 7, 256, 1000, 256):  # the repeat reads the cached table
            nodes = law.make_nodes(n)
            expected = reference.ppf(lo + (np.arange(n) + 0.5) / n * (hi - lo))
            assert np.max(np.abs(nodes.nodes / expected - 1.0)) <= 1e-13
            assert np.array_equal(nodes.weights, np.full(n, 1.0 / n))

    def test_truncation_at_full_range_is_identity(self):
        base = FutureValueDist.lognormal(0.3, 0.4)
        trivially_truncated = FutureValueDist.lognormal(0.3, 0.4, (0.0, 1.0))
        for n in (2, 7, 256):
            assert np.array_equal(base.make_nodes(n).nodes, trivially_truncated.make_nodes(n).nodes)

    def test_cached_quantile_table_is_read_only(self, standard_lognormal):
        standard_lognormal.make_nodes(16)
        table = distribution._midpoint_quantiles(16, 0.0, 1.0)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 0.0

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


def test_import_loads_no_scipy():
    src = str(Path(bpv_effect.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    completed = subprocess.run(
        [sys.executable, "-c", "import sys, bpv_effect; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert completed.stdout.strip() == "[]"
