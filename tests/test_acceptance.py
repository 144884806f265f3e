"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; a failed assertion in any test marks that criterion failed.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from bpv_effect import returns
from bpv_effect.cli import main
from bpv_effect.distribution import DiscreteLaw, TruncatedLaw
from bpv_effect.effectiveness import build_report
from bpv_effect.membership import MembershipFn, energy_measure, entropy_measure, trapezoid
from bpv_effect.returns import (
    LOGARITHMIC,
    SIMPLE,
    ReturnGrid,
    CONVENTIONS,
    expected_return,
    expected_return_distribution,
    profile,
    return_variance,
    _view,
)

from support import (
    brute_dominance,
    direct_pareto,
    dominance,
    dominance_oracle_setup,
    lattice_trapezoid_pair,
    midpoint_nodes,
    oracle_profile_discrete,
    random_security,
    reference_variance,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

LOGNORMAL_FIXTURE = (
    trapezoid(85, 95, 105, 120),
    TruncatedLaw.lognormal(float(np.log(100.0)), 0.15, (0.005, 0.995)),
)


def note(criterion: int, message: str) -> None:
    print(f"[criterion {criterion}] PASS  {message}")


def test_criterion_1_closed_form_measures():
    delta = energy_measure(trapezoid(0, 1, 2, 3))
    epsilon = entropy_measure(trapezoid(0, 1, 1, 2))
    assert delta == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert epsilon == pytest.approx(1.0 / 3.0, abs=1e-12)

    shape_a, shape_b = trapezoid(0, 1, 2, 3), trapezoid(0, 1, 1, 2)
    energy_measure(shape_a), entropy_measure(shape_b)  # warm up
    best = min(
        _timed(lambda: (energy_measure(shape_a), entropy_measure(shape_b))) for _ in range(5)
    )
    assert best < 1e-3
    note(1, f"energy=2/3, entropy=1/3 within 1e-12; runtime {best * 1e6:.0f} us < 1 ms")


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_criterion_2_dominance_matches_brute_force():
    rng = np.random.default_rng(20250810)
    xs, feasible = dominance_oracle_setup()
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        k, l = lattice_trapezoid_pair(rng)
        gap = abs(dominance(k, l) - brute_dominance(k, l, xs, feasible))
        worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    assert worst < 1e-6
    assert elapsed < 10.0
    note(2, f"100 trapezoid pairs, max |exact - brute| = {worst:.2e} < 1e-6 in {elapsed:.1f} s")


def test_criterion_3_discrete_oracle_equivalence():
    cases = [
        ((90, 95, 105, 110), [95, 100, 108], [0.3, 0.4, 0.3], "simple"),
        ((80, 98, 102, 130), [90, 110], [0.5, 0.5], "logarithmic"),
        ((95, 99, 101, 106), [88, 94, 100, 106, 112], [0.1, 0.2, 0.4, 0.2, 0.1], "simple"),
    ]
    start = time.perf_counter()
    worst = 0.0
    for corners, atoms, probs, kind in cases:
        mu = trapezoid(*corners)
        dist = DiscreteLaw(atoms, probs)
        conv = CONVENTIONS[kind]
        result = profile(mu, dist, conv)
        _, _, expected, variance, energy, entropy = oracle_profile_discrete(
            corners, atoms, probs, kind
        )
        # the engine's fuzzy return is an exact finite sum at its own knots
        direct = np.zeros_like(result.rho.grid)
        for y, p in zip(atoms, probs):
            if kind == "simple":
                direct += p * mu(y / (1.0 + result.rho.grid))
            else:
                direct += p * mu(y * np.exp(-result.rho.grid))
        knot_gap = float(np.max(np.abs(result.rho.values - direct)))
        assert knot_gap < 1e-12
        gaps = (
            abs(result.expected_return - expected),
            abs(result.variance - variance),
            abs(result.energy - energy),
            abs(result.entropy - entropy),
        )
        worst = max(worst, *gaps)
        assert all(gap < 1e-4 for gap in gaps)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    note(3, f"3 discrete fixtures, worst statistic gap {worst:.2e} < 1e-4 in {elapsed:.1f} s")


# the discrete law and the lognormal fixture's law of factor * V, built from their parameters
SCALED_LAWS = (
    lambda factor: DiscreteLaw(np.array([90.0, 100.0, 115.0]) * factor, [0.3, 0.5, 0.2]),
    lambda factor: TruncatedLaw.lognormal(float(np.log(100.0)) + math.log(factor), 0.15, (0.005, 0.995)),
)


def test_criterion_4_scale_invariance():
    mu = LOGNORMAL_FIXTURE[0]
    worst = 0.0
    for law in SCALED_LAWS:
        for conv in (SIMPLE, LOGARITHMIC):
            base = profile(mu, law(1.0), conv)
            for factor in (0.5, 3.0):
                scaled = profile(MembershipFn(mu.grid * factor, mu.values), law(factor), conv)
                gaps = (
                    float(np.max(np.abs(scaled.rho(base.rho.grid) - base.rho.values))),
                    abs(scaled.expected_return - base.expected_return),
                    abs(scaled.variance - base.variance),
                    abs(scaled.energy - base.energy),
                    abs(scaled.entropy - base.entropy),
                )
                worst = max(worst, *gaps)
                assert all(gap < 1e-9 for gap in gaps)
    note(4, f"joint scaling by 0.5 and 3, both conventions; worst gap {worst:.2e} < 1e-9")


def test_criterion_5_log_shift_covariance():
    mu = LOGNORMAL_FIXTURE[0]
    shift = 0.1
    worst = 0.0
    for law in SCALED_LAWS:
        base = profile(mu, law(1.0), LOGARITHMIC)
        moved = profile(mu, law(float(np.exp(shift))), LOGARITHMIC)
        gap_return = abs(moved.expected_return - base.expected_return - shift)
        gap_variance = abs(moved.variance - base.variance)
        worst = max(worst, gap_return, gap_variance)
        assert gap_return < 1e-6
        assert gap_variance < 1e-6
    note(5, f"future values scaled by e^0.1; worst deviation {worst:.2e} < 1e-6")


def _random_fixture_profile(rng):
    from bpv_effect.returns import SecurityProfile

    start = float(rng.uniform(-0.2, 0.2))
    widths = rng.uniform(0.01, 0.1, 3)
    rho = trapezoid(start, start + widths[0], start + widths[0] + widths[1], start + widths.sum())
    return SecurityProfile(
        rho=rho,
        expected_return=float(rng.uniform(-0.1, 0.2)),
        variance=float(rng.uniform(0.001, 0.05)),
        energy=float(rng.uniform(0.05, 0.8)),
        entropy=float(rng.uniform(0.0, 0.05)),
    )


def test_criterion_6_pareto_fixtures():
    rng = np.random.default_rng(606)
    for _ in range(25):
        size = int(rng.integers(1, 6))
        profiles = tuple(_random_fixture_profile(rng) for _ in range(size))
        report = build_report(profiles)
        gap = max(
            float(np.max(np.abs(report.effectiveness - direct_pareto(report.outranking.tolist())))),
            float(np.max(np.abs(
                report.strict_effectiveness - direct_pareto(report.strict_outranking.tolist())
            ))),
        )
        assert gap < 1e-12

    single = build_report((_random_fixture_profile(rng),))
    assert single.effectiveness[0] == 1.0
    assert single.strict_effectiveness[0] == 1.0

    shared = [_random_fixture_profile(rng) for _ in range(4)]
    from bpv_effect.returns import SecurityProfile

    equalized = tuple(
        SecurityProfile(
            rho=p.rho, expected_return=p.expected_return, variance=p.variance,
            energy=0.3, entropy=0.02,
        )
        for p in shared
    )
    report = build_report(equalized)
    assert np.array_equal(report.strict_effectiveness, report.effectiveness)
    note(6, "score vectors equal direct inf-max within 1e-12; singleton and equal-imprecision cases exact")


def test_criterion_7_invariant_sweep():
    rng = np.random.default_rng(777)
    start = time.perf_counter()
    for _ in range(500):
        size = int(rng.integers(1, 5))
        profiles = []
        for _ in range(size):
            mu, dist, kind = random_security(rng)
            result = profile(mu, dist, CONVENTIONS[kind], 201)
            assert result.rho.values.min() >= 0.0
            assert result.rho.values.max() <= 1.0
            assert result.entropy <= result.energy + 1e-15
            profiles.append(result)
        report = build_report(profiles)
        assert report.outranking.shape == report.strict_outranking.shape == (size, size)
        assert report.effectiveness.shape == report.strict_effectiveness.shape == (size,)
        assert np.all((report.outranking >= 0.0) & (report.outranking <= 1.0))
        assert np.all(report.strict_outranking <= report.outranking + 1e-15)
        for scores in (report.effectiveness, report.strict_effectiveness):
            assert np.all((scores >= 0.0) & (scores <= 1.0))
        doubled = build_report(profiles + [profiles[0]])
        assert np.array_equal(report.effectiveness, doubled.effectiveness[:size])
        assert np.array_equal(report.strict_effectiveness, doubled.strict_effectiveness[:size])
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    note(7, f"500 randomized portfolios, zero invariant violations in {elapsed:.1f} s")


def test_criterion_8_convergence(monkeypatch):
    mu, law = LOGNORMAL_FIXTURE
    worst_rho = 0.0
    worst_variance = 0.0
    worst_discrete = 0.0
    for conv in (SIMPLE, LOGARITHMIC):
        # the closed-form law against sums over 16384 midpoint nodes
        grid = ReturnGrid.spanning(mu, law, conv, 801)
        view = _view(mu, conv, law)
        rho = expected_return_distribution(view, grid)
        sampled = expected_return_distribution(_view(mu, conv, midpoint_nodes(law, 16384)), grid)
        rho_gap = float(np.max(np.abs(rho.values - sampled.values)))
        worst_rho = max(worst_rho, rho_gap)
        assert rho_gap < 1e-6

        # its variance: Gauss-Legendre on s, against twice the points
        center = expected_return(rho)
        variance = return_variance(view, center, grid.support)
        monkeypatch.setattr(returns, "BREAKPOINT_GAUSS_POINTS", 2 * returns.BREAKPOINT_GAUSS_POINTS)
        variance_gap = abs(return_variance(view, center, grid.support) - variance)
        monkeypatch.undo()
        worst_variance = max(worst_variance, variance_gap)
        assert variance_gap < 1e-6

        # a discrete law on the law's 256 midpoint nodes as atoms, whose 1024
        # kinks exceed 128 intervals, so it takes 128 intervals uniform in
        # s^2: against 64 points on each of 4096 uniform intervals
        nodes = midpoint_nodes(law, 256)
        grid = ReturnGrid.spanning(mu, nodes, conv, 801)
        view = _view(mu, conv, nodes)
        center = expected_return(expected_return_distribution(view, grid))
        far = max(center - grid.support[0], grid.support[1] - center)
        reference = reference_variance(view, mu, conv, nodes, center, far, breakpoints=False)
        discrete_gap = abs(return_variance(view, center, grid.support) / reference - 1.0)
        worst_discrete = max(worst_discrete, discrete_gap)
        assert discrete_gap < 1e-6
    note(8, f"closed-form rho within {worst_rho:.1e} < 1e-6 of 16384 nodes; doubling the Gauss-Legendre points "
            f"moves the variance by {worst_variance:.1e} < 1e-6; a 256-atom law's variance is within "
            f"{worst_discrete:.1e} < 1e-6 relative of 64 points on 4096 uniform intervals")


def test_criterion_9_cli_determinism_and_diagnostics(tmp_path, capsys):
    reports = []
    for i in range(3):
        out = tmp_path / f"report{i}.json"
        code = main(["analyze", str(FIXTURES / "portfolio3.json"), "--out", str(out)])
        assert code == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1] == reports[2]
    parsed = json.loads(reports[0])
    assert parsed["ids"] == ["alpha", "beta", "gamma"]

    assert main(["validate", str(FIXTURES / "bad_prob_sum.json")]) == 1
    err = capsys.readouterr().err
    assert "alpha" in err and "probs" in err and "sum to 1" in err

    assert main(["validate", str(FIXTURES / "bad_trapezoid.json")]) == 1
    err = capsys.readouterr().err
    assert "beta" in err and "present_value" in err

    note(9, "analyze byte-identical across 3 runs (exit 0); malformed fixtures exit 1 naming the fields")
