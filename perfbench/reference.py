"""Accuracy references for the benchmark, independent of the package's numerics.

Nothing here imports ``bpv_effect``.  Each security's future-value law is
discretized on a fine node set: exact atoms for discrete laws, and
``NODES`` equal-weight probability midpoints of the truncated law for
continuous ones, with standard-normal quantiles from the standard
library's ``statistics.NormalDist``.  Every membership sum over that node
set is a direct sum, evaluated exactly by grouping the nodes into the
pieces on which the summand is linear in the future value (prefix sums of
weights and weighted values), so the fine node sets cost O(log N) per
evaluation point.

- ``rho`` is that sum at the requested rates.
- The expected return and the variance are trapezoid sums on uniform grids
  of ``RATE_POINTS`` rates and ``DEVIATION_POINTS`` deviations.  The
  variance is integrated on the deviation axis s (x = s**2), where the
  kernel has no square-root slope at 0.
- The dominance degree is the masked brute-force grid sup-min
  max_{i >= j} min(k(x_i), l(x_j)) over ``DOMINANCE_POINTS`` uniform
  points, evaluated through the identical form
  max_j min(max_{i >= j} k(x_i), l(x_j)).

Resolutions (the engine's defaults are 256 nodes, 801 rates and 1024
variance panels) put the references' own errors far below the engine's;
README.md lists the measured figures.
"""

import csv
import functools
import json
import math
import os
import random
import sys
from statistics import NormalDist

import numpy as np

NODES = 1 << 14
RATE_POINTS = (1 << 12) + 1
DEVIATION_POINTS = (1 << 12) + 1
DOMINANCE_POINTS = (1 << 18) + 1
DOMINANCE_PAIRS = 16
_BISECTIONS = 40


class Law:
    """Sorted nodes with weights and their prefix sums."""

    def __init__(self, values, weights):
        self.values = np.asarray(values, dtype=float)
        weights = np.asarray(weights, dtype=float)
        self.cum_weight = np.concatenate(([0.0], np.cumsum(weights)))
        self.cum_moment = np.concatenate(([0.0], np.cumsum(weights * self.values)))
        self.lower = float(self.values[0])
        self.upper = float(self.values[-1])


@functools.cache
def _standard_midpoints(lo: float, hi: float) -> np.ndarray:
    normal = NormalDist()
    return np.array([normal.inv_cdf(lo + (i + 0.5) / NODES * (hi - lo)) for i in range(NODES)])


def law(future_value: dict, truncation) -> Law:
    family = future_value["family"]
    if family == "discrete":
        return Law(future_value["points"], future_value["probs"])
    lo, hi = future_value.get("truncation", truncation)
    z = _standard_midpoints(lo, hi)
    if family == "normal":
        values = future_value["mean"] + future_value["sd"] * z
    else:
        values = np.exp(future_value["log_mean"] + future_value["log_sd"] * z)
    return Law(values, np.full(NODES, 1.0 / NODES))


class Membership:
    """Unimodal piecewise-linear present-value membership, zero outside its knots."""

    def __init__(self, present_value: dict):
        if present_value["type"] == "trapezoid":
            a, b, c, d = (float(present_value[k]) for k in "abcd")
            if not (a < b <= c < d):
                raise ValueError("reference needs trapezoid ramps of positive width")
            self.x = np.array([a, b, c, d])
            self.v = np.array([0.0, 1.0, 1.0, 0.0])
        else:
            self.x = np.array(present_value["points"], dtype=float)
            self.v = np.array(present_value["values"], dtype=float)
        rises = np.diff(self.v)
        top = np.flatnonzero(self.v == self.v.max())
        if np.any(rises[: top[0]] < 0.0) or np.any(rises[top[-1]:] > 0.0):
            raise ValueError("reference needs a unimodal present-value membership")
        self.peak_lo, self.peak_hi = float(self.x[top[0]]), float(self.x[top[-1]])
        self.slope = rises / np.diff(self.x)

    def __call__(self, x):
        return np.interp(x, self.x, self.v, left=0.0, right=0.0)


def factor(rates, kind: str) -> np.ndarray:
    """phi(r) with present value = future * phi(r); 0 where the simple rate is <= -1."""
    rates = np.asarray(rates, dtype=float)
    if kind == "simple":
        with np.errstate(divide="ignore"):
            return np.where(rates > -1.0, 1.0 / np.maximum(1.0 + rates, 1e-300), 0.0)
    return np.exp(-rates)


def partial_sum(mu: Membership, nodes: Law, phi, y_lo, y_hi) -> np.ndarray:
    """sum of w * mu(y * phi) over nodes y in [y_lo, y_hi), per entry of phi."""
    phi = np.asarray(phi, dtype=float)
    total = np.zeros(phi.shape)
    with np.errstate(divide="ignore"):
        inverse = np.where(phi > 0.0, 1.0 / np.where(phi > 0.0, phi, 1.0), np.inf)
    for k in range(mu.x.size - 1):
        start = np.clip(mu.x[k] * inverse, y_lo, y_hi)
        stop = np.clip(mu.x[k + 1] * inverse, y_lo, y_hi)
        i0 = np.searchsorted(nodes.values, start, side="left")
        i1 = np.searchsorted(nodes.values, stop, side="left")
        weight = nodes.cum_weight[i1] - nodes.cum_weight[i0]
        moment = nodes.cum_moment[i1] - nodes.cum_moment[i0]
        total += (mu.v[k] - mu.slope[k] * mu.x[k]) * weight + mu.slope[k] * phi * moment
    return total


def rho(mu: Membership, nodes: Law, kind: str, rates) -> np.ndarray:
    phi = factor(rates, kind)
    return partial_sum(mu, nodes, phi, 0.0, np.inf)


def rate_support(mu: Membership, nodes: Law, kind: str) -> tuple[float, float]:
    """Rates outside which every state membership is zero."""
    lo, hi = nodes.lower / mu.x[-1], nodes.upper / mu.x[0]
    if kind == "simple":
        return lo - 1.0, hi - 1.0
    return math.log(lo), math.log(hi)


def _trapezoid_sum(y, x) -> float:
    return float(np.sum(np.diff(x) * (y[:-1] + y[1:])) / 2.0)


def _kernel(mu: Membership, nodes: Law, kind: str, center: float, s) -> np.ndarray:
    """Variance kernel: sum over nodes of max(mu(y phi(c+s)), mu(y phi(c-s))).

    phi(c+s) <= phi(c-s), so the copy through phi(c-s) peaks at smaller y.
    For a unimodal mu that copy is the larger one below a split point y*
    and the other copy above it; y* is found by bisection on the gap where
    one copy falls and the other rises.
    """
    up = factor(center + s, kind)
    down = factor(center - s, kind)
    live = down > 0.0
    safe_down = np.where(live, down, 1.0)
    lo = mu.peak_hi / safe_down
    hi = np.maximum(mu.peak_lo / np.where(up > 0.0, up, 1.0), lo)
    for _ in range(_BISECTIONS):
        mid = (lo + hi) / 2.0
        left_wins = mu(mid * safe_down) >= mu(mid * up)
        lo = np.where(left_wins, mid, lo)
        hi = np.where(left_wins, hi, mid)
    split = np.where(live, lo, 0.0)
    return partial_sum(mu, nodes, down, 0.0, split) + partial_sum(mu, nodes, up, split, np.inf)


def security_reference(present_value: dict, future_value: dict, kind: str, truncation) -> dict:
    """Reference expected return and variance of one security."""
    mu = Membership(present_value)
    nodes = law(future_value, truncation)
    r_lo, r_hi = rate_support(mu, nodes, kind)
    rates = np.linspace(r_lo, r_hi, RATE_POINTS)
    values = rho(mu, nodes, kind, rates)
    center = _trapezoid_sum(rates * values, rates) / _trapezoid_sum(values, rates)
    s = np.linspace(0.0, max(r_hi - center, center - r_lo), DEVIATION_POINTS)
    kernel = _kernel(mu, nodes, kind, center, s)
    variance = _trapezoid_sum(s**3 * kernel, s) / _trapezoid_sum(s * kernel, s)
    return {"mu": mu, "nodes": nodes, "kind": kind, "support": (r_lo, r_hi),
            "expected_return": center, "variance": variance}


def dominance(k: dict, l: dict) -> float:
    """Masked brute-force sup over grid pairs u >= v of min(rho_k(u), rho_l(v))."""
    lo = min(k["support"][0], l["support"][0])
    hi = max(k["support"][1], l["support"][1])
    xs = np.linspace(lo, hi, DOMINANCE_POINTS)
    k_values = rho(k["mu"], k["nodes"], k["kind"], xs)
    l_values = rho(l["mu"], l["nodes"], l["kind"], xs)
    right_sup = np.maximum.accumulate(k_values[::-1])[::-1]
    return float(np.max(np.minimum(right_sup, l_values)))


# --------------------------------------------------------------------------- checking reports


def load_grids(path: str) -> dict:
    """The ``--grids-out`` CSV as arrays: ``r`` and one column per security id."""
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    columns = np.array(rows[1:], dtype=float).T
    return {"r": columns[0], **{name[len("rho_"):]: col for name, col in zip(rows[0][1:], columns[1:])}}


def dominance_pairs(workload: str, seed: int, documents: list[dict], reports: list[dict]) -> list:
    """Seeded sample of (portfolio, i, j) where i passes the variance gate against j.

    For those pairs the report's outranking entry is the raw dominance
    degree.  cli-cold takes every such pair, diagonal included;
    batch-profiles one off-diagonal pair from each of DOMINANCE_PAIRS
    portfolios; screen-pairwise and the panel DOMINANCE_PAIRS pairs, half of
    them between two discrete laws (the non-convex case).
    """
    rng = random.Random(f"pairs:{workload}:{seed}")
    candidates = []
    for p, report in enumerate(reports):
        variance = [s["variance"] for s in report["securities"]]
        n = len(variance)
        candidates.extend((p, i, j) for i in range(n) for j in range(n) if variance[i] <= variance[j])
    if workload == "cli-cold":
        return candidates
    off_diagonal = [c for c in candidates if c[1] != c[2]]
    if workload == "batch-profiles":
        chosen = rng.sample(range(len(reports)), DOMINANCE_PAIRS)
        return [rng.choice([c for c in off_diagonal if c[0] == p]) for p in sorted(chosen)]
    family = {s["id"]: s["future_value"]["family"] for s in documents[0]["securities"]}
    discrete = {i for i, sec_id in enumerate(reports[0]["ids"]) if family[sec_id] == "discrete"}
    both = [c for c in off_diagonal if c[1] in discrete and c[2] in discrete]
    other = [c for c in off_diagonal if not (c[1] in discrete and c[2] in discrete)]
    half = min(DOMINANCE_PAIRS // 2, len(both))
    return sorted(rng.sample(both, half) + rng.sample(other, DOMINANCE_PAIRS - half))


def accuracy(workload: str, seed: int, workdir: str) -> dict | None:
    """Largest errors of the first report and grids of each portfolio.

    Returns None when a first report or grid file is missing.
    """
    documents, reports = [], []
    for p in range(len([f for f in os.listdir(workdir) if f.startswith("portfolio")])):
        with open(os.path.join(workdir, f"portfolio{p:02d}.json"), encoding="utf-8") as handle:
            documents.append(json.load(handle))
        try:
            with open(os.path.join(workdir, f"first{p:02d}.json"), encoding="utf-8") as handle:
                reports.append(json.load(handle))
        except (OSError, ValueError):
            return None
    pairs = dominance_pairs(workload, seed, documents, reports)
    errors = {"variance_rel_err.max": 0.0, "rho_sup_err.max": 0.0, "dominance_abs_err.max": 0.0}
    for p, (document, report) in enumerate(zip(documents, reports)):
        try:
            grids = load_grids(os.path.join(workdir, f"first{p:02d}.csv"))
        except (OSError, ValueError):
            return None
        truncation = document["settings"]["truncation"]
        refs = {s["id"]: security_reference(s["present_value"], s["future_value"], s["convention"], truncation)
                for s in document["securities"]}
        for security in report["securities"]:
            ref = refs[security["id"]]
            errors["variance_rel_err.max"] = max(
                errors["variance_rel_err.max"], abs(security["variance"] - ref["variance"]) / ref["variance"])
            expected = rho(ref["mu"], ref["nodes"], ref["kind"], grids["r"])
            errors["rho_sup_err.max"] = max(
                errors["rho_sup_err.max"], float(np.max(np.abs(grids[security["id"]] - expected))))
        for _, i, j in (pair for pair in pairs if pair[0] == p):
            degree = dominance(refs[report["ids"][i]], refs[report["ids"][j]])
            errors["dominance_abs_err.max"] = max(
                errors["dominance_abs_err.max"], abs(report["outranking"][i][j] - degree))
    return errors


if __name__ == "__main__":
    # usage: reference.py WORKDIR WORKLOAD SEED  -> WORKDIR/accuracy.json with the
    # errors of the seeded inputs and of the fixed panel in WORKDIR/panel
    directory, name, seed_text = sys.argv[1:]
    errors = {"seeded": accuracy(name, int(seed_text), directory),
              "panel": accuracy("panel", 0, os.path.join(directory, "panel"))}
    with open(os.path.join(directory, "accuracy.json"), "w", encoding="utf-8") as out:
        json.dump(errors, out)
