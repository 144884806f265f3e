"""Command-line front end: validate portfolio files and produce screening reports.

Input is a JSON portfolio (schema_version 1) listing securities with a
fuzzy present value (trapezoid corners or a sampled grid), a future-value
distribution, and a return convention.  ``analyze`` writes a JSON report
plus optional CSV of the fuzzy expected-return grids; ``validate`` only
checks the file.  Exit codes: 0 ok, 1 validation failure, 2 computation
degeneracy.
"""

import argparse
import csv
import json
import sys

import numpy as np

from .distribution import FutureValueDist
from .effectiveness import Universe, build_report
from .membership import MembershipFn, trapezoid
from .returns import DegenerateMembershipError, EngineSettings, convention, profile

SCHEMA_VERSION = 1
DEFAULT_TRUNCATION = (0.005, 0.995)
DEFAULT_SETTINGS = EngineSettings()


def _round15(value):
    """Round floats to 15 significant digits, recursively through containers."""
    if isinstance(value, float):
        return float(f"{value:.15g}")
    if isinstance(value, dict):
        return {k: _round15(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round15(v) for v in value]
    return value


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _number(entry, key, path, errors, required=True):
    if key not in entry:
        if required:
            errors.append(f"{path}.{key}: missing required number")
        return None
    value = entry[key]
    if not _is_number(value):
        errors.append(f"{path}.{key}: expected a number, got {value!r}")
        return None
    return float(value)


def _number_list(entry, key, path, errors):
    value = entry.get(key)
    if not isinstance(value, list) or not value or not all(_is_number(v) for v in value):
        errors.append(f"{path}.{key}: expected a nonempty list of numbers")
        return None
    return [float(v) for v in value]


def _parse_truncation(value, path, errors):
    if (
        not isinstance(value, list)
        or len(value) != 2
        or not all(_is_number(v) for v in value)
        or not (0.0 <= value[0] < value[1] <= 1.0)
    ):
        errors.append(f"{path}: truncation must be a pair [lo, hi] with 0 <= lo < hi <= 1")
        return None
    return (float(value[0]), float(value[1]))


def _build_membership(entry, path, errors) -> MembershipFn | None:
    if not isinstance(entry, dict):
        errors.append(f"{path}: expected an object")
        return None
    shape = entry.get("type")
    if shape == "trapezoid":
        corners = [_number(entry, key, path, errors) for key in ("a", "b", "c", "d")]
        if any(v is None for v in corners):
            return None
        a, b, c, d = corners
        if not (a <= b <= c <= d):
            errors.append(f"{path}: trapezoid corners must satisfy a <= b <= c <= d")
            return None
        if a <= 0.0:
            errors.append(f"{path}.a: present-value support must be positive")
            return None
        try:
            return trapezoid(a, b, c, d)
        except ValueError as exc:
            errors.append(f"{path}: {exc}")
            return None
    if shape == "grid":
        points = _number_list(entry, "points", path, errors)
        values = _number_list(entry, "values", path, errors)
        if points is None or values is None:
            return None
        if points[0] <= 0.0:
            errors.append(f"{path}.points: present-value support must be positive")
            return None
        try:
            return MembershipFn(np.array(points), np.array(values))
        except ValueError as exc:
            errors.append(f"{path}: {exc}")
            return None
    errors.append(f"{path}.type: expected 'trapezoid' or 'grid'")
    return None


def _build_distribution(entry, path, errors, default_truncation) -> FutureValueDist | None:
    if not isinstance(entry, dict):
        errors.append(f"{path}: expected an object")
        return None
    family = entry.get("family")
    truncation = default_truncation
    if "truncation" in entry:
        truncation = _parse_truncation(entry["truncation"], f"{path}.truncation", errors)
        if truncation is None:
            return None
    try:
        if family == "normal":
            mean = _number(entry, "mean", path, errors)
            sd = _number(entry, "sd", path, errors)
            if mean is None or sd is None:
                return None
            return FutureValueDist.normal(mean, sd, truncation)
        if family == "lognormal":
            log_mean = _number(entry, "log_mean", path, errors)
            log_sd = _number(entry, "log_sd", path, errors)
            if log_mean is None or log_sd is None:
                return None
            return FutureValueDist.lognormal(log_mean, log_sd, truncation)
        if family == "discrete":
            if "truncation" in entry:
                errors.append(f"{path}.truncation: not supported for discrete future values")
                return None
            points = _number_list(entry, "points", path, errors)
            probs = _number_list(entry, "probs", path, errors)
            if points is None or probs is None:
                return None
            if len(points) != len(probs):
                errors.append(f"{path}.probs: must match points in length")
                return None
            if min(probs) < 0.0:
                errors.append(f"{path}.probs: probabilities must be nonnegative")
                return None
            if abs(sum(probs) - 1.0) > 1e-12:
                errors.append(f"{path}.probs: probabilities must sum to 1 (got {sum(probs):.12g})")
                return None
            return FutureValueDist.discrete(np.array(points), np.array(probs))
    except ValueError as exc:
        errors.append(f"{path}: {exc}")
        return None
    errors.append(f"{path}.family: expected 'normal', 'lognormal' or 'discrete'")
    return None


def _resolve_settings(doc, args, errors):
    resolved = {
        "grid_points": DEFAULT_SETTINGS.grid_points,
        "nodes": DEFAULT_SETTINGS.nodes,
        "variance_panels": DEFAULT_SETTINGS.variance_panels,
    }
    truncation = DEFAULT_TRUNCATION
    block = doc.get("settings", {})
    if not isinstance(block, dict):
        errors.append("settings: expected an object")
        return None
    for key in resolved:
        if key in block:
            value = block[key]
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                errors.append(f"settings.{key}: expected a positive integer")
            else:
                resolved[key] = value
    if "truncation" in block:
        parsed = _parse_truncation(block["truncation"], "settings.truncation", errors)
        if parsed is not None:
            truncation = parsed
    for key in resolved:  # command-line flags win over the file
        override = getattr(args, key, None)
        if override is not None:
            resolved[key] = override
    if getattr(args, "truncation", None) is not None:
        truncation = args.truncation
    try:
        return EngineSettings(**resolved), truncation
    except ValueError as exc:
        errors.append(f"settings: {exc}")
        return None


def _parse_portfolio(doc, args):
    """Validate the portfolio document; returns (securities, settings, truncation, errors)."""
    errors: list[str] = []
    if not isinstance(doc, dict):
        return None, None, None, ["portfolio: expected a JSON object"]
    if doc.get("schema_version") != SCHEMA_VERSION:
        errors.append(f"schema_version: expected {SCHEMA_VERSION}")
    resolved = _resolve_settings(doc, args, errors)
    entries = doc.get("securities")
    if not isinstance(entries, list) or not entries:
        errors.append("securities: expected a nonempty list")
        return None, None, None, errors
    settings, truncation = resolved if resolved is not None else (None, DEFAULT_TRUNCATION)
    seen: set[str] = set()
    securities = []
    for i, entry in enumerate(entries):
        path = f"securities[{i}]"
        if not isinstance(entry, dict):
            errors.append(f"{path}: expected an object")
            continue
        sec_id = entry.get("id")
        if not isinstance(sec_id, str) or not sec_id:
            errors.append(f"{path}.id: expected a nonempty string")
            continue
        path = f"{path} (id {sec_id!r})"
        if sec_id in seen:
            errors.append(f"{path}: duplicate id")
            continue
        seen.add(sec_id)
        kind = entry.get("convention")
        if kind not in ("simple", "logarithmic"):
            errors.append(f"{path}.convention: expected 'simple' or 'logarithmic'")
            continue
        mu = _build_membership(entry.get("present_value"), f"{path}.present_value", errors)
        dist = _build_distribution(
            entry.get("future_value"), f"{path}.future_value", errors, truncation
        )
        if mu is None or dist is None:
            continue
        securities.append((sec_id, kind, mu, dist))
    return securities, settings, truncation, errors


def _load_document(path: str, errors: list[str]):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        errors.append(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        errors.append(f"{path}: invalid JSON ({exc})")
    return None


def _report_errors(errors) -> int:
    for message in errors:
        print(f"error: {message}", file=sys.stderr)
    return 1


def cmd_validate(args) -> int:
    errors: list[str] = []
    doc = _load_document(args.portfolio, errors)
    if doc is not None:
        _, _, _, parse_errors = _parse_portfolio(doc, args)
        errors.extend(parse_errors)
    if errors:
        return _report_errors(errors)
    print("ok")
    return 0


def cmd_analyze(args) -> int:
    errors: list[str] = []
    doc = _load_document(args.portfolio, errors)
    if doc is None:
        return _report_errors(errors)
    securities, settings, truncation, parse_errors = _parse_portfolio(doc, args)
    if parse_errors:
        return _report_errors(parse_errors)

    securities = sorted(securities, key=lambda item: item[0])
    profiles = []
    for sec_id, kind, mu, dist in securities:
        try:
            profiles.append(profile(mu, dist, convention(kind), settings))
        except DegenerateMembershipError as exc:
            print(f"error: security {sec_id!r}: {exc}", file=sys.stderr)
            return 2
    ids = [sec_id for sec_id, _, _, _ in securities]
    report = build_report(Universe(tuple(ids), tuple(profiles)))

    document = {
        "schema_version": SCHEMA_VERSION,
        "settings": {
            "grid_points": settings.grid_points,
            "nodes": settings.nodes,
            "variance_panels": settings.variance_panels,
            "truncation": list(truncation),
        },
        "ids": ids,
        "securities": [
            {
                "id": sec_id,
                "convention": kind,
                "expected_return": prof.expected_return,
                "variance": prof.variance,
                "energy": prof.energy,
                "entropy": prof.entropy,
                "effectiveness": float(report.effectiveness[i]),
                "strict_effectiveness": float(report.strict_effectiveness[i]),
            }
            for i, ((sec_id, kind, _, _), prof) in enumerate(zip(securities, profiles))
        ],
        "outranking": report.outranking.tolist(),
        "strict_outranking": report.strict_outranking.tolist(),
    }
    text = json.dumps(_round15(document), indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)

    if args.grids_out:
        _write_grids(args.grids_out, ids, profiles, settings.grid_points)
    return 0


def _write_grids(path: str, ids, profiles, count: int) -> None:
    lo = min(p.rho.grid[0] for p in profiles)
    hi = max(p.rho.grid[-1] for p in profiles)
    rates = np.linspace(lo, hi, count)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["r"] + [f"rho_{sec_id}" for sec_id in ids])
        columns = [p.rho(rates) for p in profiles]
        for j, r in enumerate(rates):
            writer.writerow([f"{r:.15g}"] + [f"{col[j]:.15g}" for col in columns])


def _truncation_flag(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected LO,HI")
    lo, hi = float(parts[0]), float(parts[1])
    if not (0.0 <= lo < hi <= 1.0):
        raise argparse.ArgumentTypeError("expected 0 <= LO < HI <= 1")
    return lo, hi


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bpv-effect",
        description="Screen securities with fuzzy present values for effectiveness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="compute profiles and effectiveness scores")
    analyze.add_argument("portfolio", help="portfolio JSON file")
    analyze.add_argument("--grid-points", type=int, default=None, help="return-grid resolution")
    analyze.add_argument("--nodes", type=int, default=None, help="future-value quadrature nodes")
    analyze.add_argument("--variance-panels", type=int, default=None, help="variance integration panels")
    analyze.add_argument(
        "--truncation", type=_truncation_flag, default=None, metavar="LO,HI",
        help="quantile truncation for continuous future values",
    )
    analyze.add_argument("--out", default=None, help="report JSON path (default: stdout)")
    analyze.add_argument("--grids-out", default=None, help="CSV path for the fuzzy return grids")
    analyze.set_defaults(func=cmd_analyze)

    validate = sub.add_parser("validate", help="check a portfolio file without computing")
    validate.add_argument("portfolio", help="portfolio JSON file")
    validate.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
