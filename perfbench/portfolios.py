"""Seeded schema-1 portfolios for the three benchmark workloads.

Inputs are drawn with ``random.Random`` seeded from the workload name and
the seed, so the same seed gives byte-identical files on any machine.
Every generated security is valid and analyzable: trapezoid ramps have
positive width, present values are unimodal and positive, and normal laws
stay positive at their lower truncation quantile.
"""

import json
import math
import os
import random

SETTINGS = {"grid_points": 801, "nodes": 256, "variance_panels": 1024, "truncation": [0.005, 0.995]}

# Composition of each workload; BENCHMARK.json and README.md describe the same.
COMPOSITION = {
    "cli-cold": {
        "portfolios": 1,
        "securities": 3,
        "laws": "discrete(3 atoms)/simple, lognormal/logarithmic, normal/simple with own truncation and grid present value",
    },
    "batch-profiles": {
        "portfolios": 64,
        "securities": 4,
        "laws": "normal/simple, normal/logarithmic, lognormal/simple, lognormal/logarithmic",
    },
    "screen-pairwise": {
        "portfolios": 1,
        "securities": 128,
        "laws": "64 discrete (3-8 atoms, spread for non-convex rho), 32 normal, 32 lognormal; conventions alternate",
    },
    "panel": {
        "portfolios": 1,
        "securities": 19,
        "laws": "the 3 cli-cold kinds, the 4 batch-profiles kinds, and 12 screen-pairwise kinds (6 discrete)",
    },
}


def _round(x: float) -> float:
    return float(f"{x:.6g}")


def _trapezoid(rng: random.Random, center: float, half_lo: float, half_hi: float) -> dict:
    half = rng.uniform(half_lo, half_hi)
    left = rng.uniform(0.2, 0.8) * half
    right = rng.uniform(0.2, 0.8) * half
    a, b, c, d = (_round(v) for v in (center - half, center - left, center + right, center + half))
    return {"type": "trapezoid", "a": a, "b": b, "c": c, "d": d}


def _grid_membership(rng: random.Random, center: float) -> dict:
    """Unimodal five-knot membership shaped like the fixture's gamma."""
    half = rng.uniform(10.0, 18.0)
    shoulder = rng.uniform(0.5, 0.85)
    points = [center - half, center - 0.4 * half, center + rng.uniform(-0.1, 0.1) * half,
              center + 0.45 * half, center + half]
    return {"type": "grid", "points": [_round(p) for p in points],
            "values": [0.0, _round(shoulder), 1.0, _round(rng.uniform(0.5, 0.85)), 0.0]}


def _discrete(rng: random.Random, center: float, count: int, spread: tuple[float, float]) -> dict:
    while True:
        points = sorted(_round(center * rng.uniform(*spread)) for _ in range(count))
        if all(b - a > 0.01 * center for a, b in zip(points, points[1:])):
            break
    raw = [rng.uniform(0.2, 1.0) for _ in range(count)]
    total = sum(raw)
    probs = [r / total for r in raw[:-1]]
    probs.append(1.0 - sum(probs))
    return {"family": "discrete", "points": points, "probs": probs}


def _normal(rng: random.Random, center: float) -> dict:
    return {"family": "normal", "mean": _round(center * rng.uniform(0.97, 1.08)),
            "sd": _round(center * rng.uniform(0.04, 0.1))}


def _lognormal(rng: random.Random, center: float) -> dict:
    return {"family": "lognormal", "log_mean": _round(math.log(center) + rng.uniform(-0.03, 0.08)),
            "log_sd": _round(rng.uniform(0.04, 0.12))}


def _document(securities: list[dict]) -> dict:
    return {"schema_version": 1, "settings": dict(SETTINGS), "securities": securities}


def _cold_securities(rng: random.Random) -> list[dict]:
    c1, c2, c3 = (rng.uniform(80.0, 120.0) for _ in range(3))
    gamma_fv = _normal(rng, c3)
    gamma_fv["truncation"] = [0.01, 0.99]
    return [
        {"id": "alpha", "convention": "simple", "present_value": _trapezoid(rng, c1, 8.0, 14.0),
         "future_value": _discrete(rng, c1, 3, (0.9, 1.2))},
        {"id": "beta", "convention": "logarithmic", "present_value": _trapezoid(rng, c2, 8.0, 14.0),
         "future_value": _lognormal(rng, c2)},
        {"id": "gamma", "convention": "simple", "present_value": _grid_membership(rng, c3),
         "future_value": gamma_fv},
    ]


def _continuous_quad(rng: random.Random) -> list[dict]:
    securities = []
    for family, kind in (("normal", "simple"), ("normal", "logarithmic"),
                         ("lognormal", "simple"), ("lognormal", "logarithmic")):
        center = rng.uniform(60.0, 140.0)
        law = _normal(rng, center) if family == "normal" else _lognormal(rng, center)
        securities.append({"id": f"{family}-{kind}", "convention": kind,
                           "present_value": _trapezoid(rng, center, 0.04 * center, 0.12 * center),
                           "future_value": law})
    return securities


def _screen_security(rng: random.Random, i: int) -> dict:
    """Even i: discrete; i % 4 == 1: normal; i % 4 == 3: lognormal."""
    center = rng.uniform(60.0, 140.0)
    kind = "simple" if (i // 2) % 2 == 0 else "logarithmic"
    if i % 2 == 0:
        # Atoms further apart than the membership is wide give separated
        # per-state bumps, so rho has interior local maxima.
        law = _discrete(rng, center, rng.randint(3, 8), (0.7, 1.4))
        present = _trapezoid(rng, center, 0.03 * center, 0.1 * center)
    else:
        law = _normal(rng, center) if i % 4 == 1 else _lognormal(rng, center)
        present = _trapezoid(rng, center, 0.04 * center, 0.12 * center)
    return {"id": f"s{i:03d}", "convention": kind, "present_value": present, "future_value": law}


def cli_cold(rng: random.Random) -> list[dict]:
    return [_document(_cold_securities(rng))]


def batch_profiles(rng: random.Random) -> list[dict]:
    return [_document(_continuous_quad(rng)) for _ in range(64)]


def screen_pairwise(rng: random.Random) -> list[dict]:
    return [_document([_screen_security(rng, i) for i in range(128)])]


def accuracy_panel(rng: random.Random) -> list[dict]:
    """One fixed portfolio with every workload's kinds of security (19 in all)."""
    securities = _cold_securities(rng) + _continuous_quad(rng)
    return [_document(securities + [_screen_security(rng, i) for i in range(12)])]


GENERATORS = {"cli-cold": cli_cold, "batch-profiles": batch_profiles, "screen-pairwise": screen_pairwise,
              "panel": accuracy_panel}


def write(workload: str, seed: int, directory: str) -> list[str]:
    """Write the workload's portfolios for ``seed`` into ``directory``; return their paths.

    The accuracy ``panel`` ignores the seed: it is the same on every run.
    """
    rng = random.Random("panel" if workload == "panel" else f"{workload}:{seed}")
    paths = []
    for i, document in enumerate(GENERATORS[workload](rng)):
        path = os.path.join(directory, f"portfolio{i:02d}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1)
        paths.append(path)
    return paths
