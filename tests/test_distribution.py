import math
import os
import subprocess
import sys
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
from scipy import special, stats

import bpv_effect
from bpv_effect import distribution
from bpv_effect.distribution import DiscreteLaw, TruncatedLaw


@pytest.fixture
def standard_lognormal():
    return TruncatedLaw.lognormal(0.0, 1.0, (0.005, 0.995))


@pytest.fixture
def two_atoms():
    return DiscreteLaw([2.0, 5.0], [0.3, 0.7])


class TestValidation:
    def test_normal_requires_truncation(self):
        with pytest.raises(ValueError):
            TruncatedLaw.normal(100.0, 10.0, None)

    def test_lognormal_requires_truncation(self):
        with pytest.raises(ValueError, match="truncated to keep the support bounded"):
            TruncatedLaw.lognormal(0.0, 1.0, None)

    def test_normal_requires_positive_lower_bound(self):
        with pytest.raises(ValueError, match="normal truncation must give a positive lower support bound"):
            TruncatedLaw.normal(5.0, 10.0, (0.005, 0.995))

    def test_normal_truncated_at_level_zero_has_no_positive_lower_bound(self):
        # level 0 is the unbounded lower tail, which no continuous law admits
        with pytest.raises(ValueError, match=r"0 < lo < hi < 1 \(got \[0.0, 0.99\]\)"):
            TruncatedLaw.normal(5.0, 10.0, (0.0, 0.99))

    @pytest.mark.parametrize("levels", [(0.0, 0.9), (0.1, 1.0), (0.0, 1.0)])
    def test_continuous_support_must_be_bounded(self, levels):
        for family in (TruncatedLaw.normal, TruncatedLaw.lognormal):
            with pytest.raises(ValueError, match="0 < lo < hi < 1"):
                family(100.0 if family is TruncatedLaw.normal else 4.6, 0.1, levels)

    @pytest.mark.parametrize("family, params, name", [
        ("normal", {"mean": float("nan"), "sd": 10.0}, "mean"),
        ("normal", {"mean": 100.0, "sd": float("inf")}, "sd"),
        ("lognormal", {"log_mean": float("-inf"), "log_sd": 0.2}, "log_mean"),
        ("lognormal", {"log_mean": 4.6, "log_sd": float("inf")}, "log_sd"),
    ])
    def test_non_finite_parameters_rejected(self, family, params, name):
        with pytest.raises(ValueError, match=f"finite {name} "):
            getattr(TruncatedLaw, family)(truncation=(0.005, 0.995), **params)

    def test_non_finite_discrete_atoms_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            DiscreteLaw([2.0, float("inf")], [0.5, 0.5])
        with pytest.raises(ValueError, match="finite"):
            DiscreteLaw([2.0, 5.0], [float("nan"), 1.0])

    def test_discrete_probability_sum(self):
        with pytest.raises(ValueError, match="sum to 1"):
            DiscreteLaw([2.0, 5.0], [0.2, 0.7])

    def test_discrete_positive_points(self):
        with pytest.raises(ValueError):
            DiscreteLaw([-1.0, 5.0], [0.5, 0.5])

    def test_bad_truncation_levels(self):
        with pytest.raises(ValueError):
            TruncatedLaw.lognormal(0.0, 1.0, (0.9, 0.1))

    def test_node_weights_validated(self):
        # a discrete law's atoms and probabilities are its nodes and weights, checked only here
        with pytest.raises(ValueError, match="sum to 1"):
            DiscreteLaw([1.0, 2.0], [0.5, 0.4])
        with pytest.raises(ValueError, match="strictly increasing"):
            DiscreteLaw([2.0, 1.0], [0.5, 0.5])
        with pytest.raises(ValueError, match="finite"):
            DiscreteLaw([1.0, np.inf], [0.5, 0.5])


# a normal law, and laws near the full range, whose tails below 1e-12 are cut
LAWS = [
    (TruncatedLaw.lognormal(0.0, 1.0, (1e-12, 1.0 - 1e-12)), stats.lognorm(1.0), (1e-12, 1.0 - 1e-12)),
    (TruncatedLaw.lognormal(4.6, 0.08, (0.005, 0.995)), stats.lognorm(0.08, scale=np.exp(4.6)), (0.005, 0.995)),
    (TruncatedLaw.lognormal(-2.0, 0.5, (0.2, 0.9)), stats.lognorm(0.5, scale=np.exp(-2.0)), (0.2, 0.9)),
    (TruncatedLaw.normal(100.0, 10.0, (0.005, 0.995)), stats.norm(100.0, 10.0), (0.005, 0.995)),
    (TruncatedLaw.normal(103.0, 6.0, (0.01, 0.99)), stats.norm(103.0, 6.0), (0.01, 0.99)),
    (TruncatedLaw.normal(50.0, 5.0, (0.3, 1.0 - 1e-12)), stats.norm(50.0, 5.0), (0.3, 1.0 - 1e-12)),
    (TruncatedLaw.normal(100.0, 10.0, (1e-12, 1.0 - 1e-12)), stats.norm(100.0, 10.0), (1e-12, 1.0 - 1e-12)),
]


class TestNodes:
    def test_discrete_passthrough(self, two_atoms):
        assert np.array_equal(two_atoms.nodes, [2.0, 5.0])
        assert np.array_equal(two_atoms.weights, [0.3, 0.7])
        assert not (two_atoms.nodes.flags.writeable or two_atoms.weights.flags.writeable)

    @pytest.mark.parametrize("family, mean, sd, span", [
        (TruncatedLaw.lognormal, 800.0, 0.2, "inf to inf"),  # exp overflows
        (TruncatedLaw.lognormal, -800.0, 0.2, "0 to 0"),  # exp underflows
        (TruncatedLaw.normal, 100.0, 1e-300, "100 to 100"),  # sd * z vanishes against the mean
    ], ids=["overflow", "underflow", "collapse"])
    def test_nodes_out_of_range_name_their_span(self, family, mean, sd, span):
        with np.errstate(all="raise"), pytest.raises(ValueError) as caught:
            family(mean, sd, (0.005, 0.995))
        assert str(caught.value) == f"support ends {span} are not finite, positive and distinct"

    @pytest.mark.parametrize("law, reference, levels", LAWS, ids=[f"law{i}" for i in range(7)])
    def test_cached_nodes_equal_quantiles_at_midpoints(self, law, reference, levels):
        # the closed-form weight below the quantile at each probability midpoint
        # (i - 1/2)/n of the truncated law is that midpoint, and the support ends
        # are the quantiles at the truncation levels
        lo, hi = levels
        assert np.max(np.abs(law.nodes / reference.ppf([lo, hi]) - 1.0)) <= 1e-13
        assert not law.nodes.flags.writeable
        for n in (2, 7, 256, 1000):
            midpoints = (np.arange(n) + 0.5) / n
            weight, _ = law.below(reference.ppf(lo + midpoints * (hi - lo)))
            assert np.max(np.abs(weight - midpoints)) <= 1e-13

    def test_truncation_at_full_range_is_identity(self):
        # as the levels reach (0, 1), the weight and first moment below y tend to
        # the untruncated law's: Phi(z) and e^(m + s^2/2) Phi(z - s)
        log_mean, log_sd = 0.3, 0.4
        base = stats.lognorm(log_sd, scale=np.exp(log_mean))
        for cut in (1e-6, 1e-9, 1e-12):
            rule = TruncatedLaw.lognormal(log_mean, log_sd, (cut, 1.0 - cut))
            y = base.ppf(np.linspace(0.01, 0.99, 99))
            weight, moment = rule.below(y)
            z = (np.log(y) - log_mean) / log_sd
            mean = np.exp(log_mean + log_sd**2 / 2.0)
            assert np.max(np.abs(weight - base.cdf(y))) <= 2.0 * cut
            assert np.max(np.abs(moment - mean * stats.norm.cdf(z - log_sd))) <= (4.0 * cut + 1e-13) * mean

    def test_continuous_needs_two_nodes(self, standard_lognormal):
        # a continuous law's nodes are its two support ends, whatever the node setting
        assert standard_lognormal.nodes.size == 2

    def test_nodes_positive_inside_truncated_support(self):
        d = TruncatedLaw.normal(100.0, 40.0, (0.01, 0.99))
        y_lo, y_hi = d.nodes
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
        weight, moment = law.below(y)
        scale = np.abs(nodes).max()
        assert np.max(np.abs(weight - below.mean(axis=1))) <= 1.0 / n
        assert np.max(np.abs(moment - (below * (nodes - law.shift)).mean(axis=1))) <= 1e-7 * scale

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


class TestNormalQuantile:
    """The AS241 port equals statistics.NormalDist().inv_cdf bit for bit."""

    reference = staticmethod(NormalDist().inv_cdf)

    @pytest.mark.parametrize("p", [0.075, 0.925, math.exp(-25.0), 1.0 - math.exp(-25.0), 1e-300, 1.0 - 1e-16],
                             ids=["central-low", "central-high", "far-tail-low", "far-tail-high", "tiny", "near-one"])
    def test_branch_boundaries_and_extremes(self, p):
        # |p - 1/2| = 0.425 and r = sqrt(-ln min(p, 1 - p)) = 5 switch the branch; each level
        # and its float neighbours below 1 (1 - 1e-16 rounds to the largest float below 1)
        for level in (np.nextafter(p, 0.0), p, np.nextafter(p, 1.0)):
            if level < 1.0:
                assert distribution._normal_quantile(float(level)) == self.reference(float(level)), level

    def test_seeded_levels(self):
        rng = np.random.default_rng(241)
        levels = np.concatenate((rng.uniform(0.0, 1.0, 40_000), 10.0 ** rng.uniform(-300.0, 0.0, 40_000),
                                 1.0 - 10.0 ** rng.uniform(-16.0, 0.0, 40_000)))
        levels = levels[(levels > 0.0) & (levels < 1.0)].tolist()
        assert len(levels) >= 100_000
        mismatched = [p for p in levels if distribution._normal_quantile(p) != self.reference(p)]
        assert mismatched == []


# modules beyond numpy that a fresh process needs for none of its work: scipy and
# numpy.ma (about 2 MB, which np.unique would import, so quadrature.distinct
# sorts and drops repeats itself), statistics with decimal and fractions,
# dataclasses, and csv, which only --grids-out loads
UNLOADED = ("scipy", "numpy.ma", "statistics", "decimal", "fractions", "dataclasses", "csv")


def test_import_loads_no_scipy(tmp_path):
    src = str(Path(bpv_effect.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    fixtures = Path(src).parent / "fixtures"
    analyze = ["analyze", str(fixtures / "portfolio3.json"), "--out", str(tmp_path / "report.json")]
    main = "import sys; from bpv_effect.cli import main; assert main({!r}) == 0"
    runs = {  # each run's code, and the modules of UNLOADED that it may load
        "import": ("import sys, bpv_effect", ()),
        "analyze": (main.format(analyze), ()),
        "analyze --grids-out": (main.format(analyze + ["--grids-out", str(tmp_path / "grids.csv")]), ("csv",)),
    }
    # breakpoints.json: a 64-atom law in the knot view, whose variance takes 128
    # intervals uniform in s**2; coincidences.json: continuous laws whose variance
    # kernels bend at level coincidences, and a 70-knot membership whose variance
    # takes the 128 intervals
    for name in ("breakpoints", "coincidences"):
        portfolio = str(fixtures / f"{name}.json")
        runs[f"validate {name}"] = (main.format(["validate", portfolio]), ())
        runs[f"analyze {name}"] = (main.format(["analyze", portfolio, "--out", str(tmp_path / f"{name}.json")]), ())
    # and the package modules each run loads: all but __main__, and a bare import all but cli too
    package = {"bpv_effect"} | {f"bpv_effect.{path.stem}" for path in Path(bpv_effect.__file__).parent.glob("*.py")
                                if path.stem not in ("__init__", "__main__")}
    for name, (code, allowed) in runs.items():
        banned = [module for module in UNLOADED if module not in allowed]
        loaded = f"sorted(m for m in sys.modules if any(m == b or m.startswith(b + '.') for b in {banned!r}))"
        ours = "sorted(m for m in sys.modules if m.partition('.')[0] == 'bpv_effect')"
        completed = subprocess.run([sys.executable, "-c", f"{code}; print({loaded}); print({ours})"],
                                   capture_output=True, text=True, env=env, check=True)
        *_, unloaded, modules = completed.stdout.splitlines()  # after validate's "ok"
        assert unloaded == "[]", name
        assert modules == repr(sorted(package - {"bpv_effect.cli"} if name == "import" else package)), name
    assert (tmp_path / "grids.csv").stat().st_size > 0
