"""Command-line front end: validate portfolio files and produce screening reports.

Input is a JSON portfolio (schema_version 1) listing securities with a
fuzzy present value (trapezoid corners or a sampled grid), a future-value
distribution, and a return convention.  ``analyze`` writes a JSON report
plus optional CSV of the fuzzy expected-return grids; ``validate`` checks
the file and computes each security's profile as ``analyze`` does.

This module checks only the document's shape: objects, strings, numbers
and lists of numbers where the schema puts them.  Each domain rule (corner
order, probabilities, truncation levels, resolutions) lives in the
constructor that builds the value; its ``ValueError`` is reported prefixed
with the JSON path and the security id.

Exit codes: 0 ok, 1 a usage error, an unreadable or invalid portfolio or
an unwritable output, 2 a security whose profile cannot be computed or a
screen that exhausts memory.
"""

import argparse
import csv
import dataclasses
import json
import os
import sys

import numpy as np

from .distribution import FutureValueDist, truncation_levels
from .effectiveness import build_report
from .membership import MembershipFn, trapezoid
from .returns import CONVENTIONS, EngineSettings, profile

SCHEMA_VERSION = 1
DEFAULT_TRUNCATION = (0.005, 0.995)

# Each present-value type and future-value family: its constructor and the
# JSON fields passed to it by name.  The fields in _LISTS are nonempty lists
# of numbers; all others are numbers.
_SHAPES = {
    "trapezoid": (trapezoid, ("a", "b", "c", "d")),
    "grid": (lambda points, values: MembershipFn(points, values), ("points", "values")),
}
_FAMILIES = {
    "normal": (FutureValueDist.normal, ("mean", "sd")),
    "lognormal": (FutureValueDist.lognormal, ("log_mean", "log_sd")),
    "discrete": (FutureValueDist.discrete, ("points", "probs")),
}
_LISTS = {"points", "values", "probs", "truncation"}


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_integer(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _field(entry, key, path, errors):
    """``entry[key]`` as a float, or as a list of floats for the keys in
    _LISTS; None after recording an error."""
    value = entry.get(key)
    try:
        if key not in _LISTS and _is_number(value):
            return float(value)
        if key in _LISTS and isinstance(value, list) and value and all(map(_is_number, value)):
            return [float(v) for v in value]
    except OverflowError:  # an integer beyond the float range
        pass
    kind = "a nonempty list of numbers" if key in _LISTS else "a number"
    errors.append(f"{path}.{key}: expected {kind}" + (f", got {value!r}" if key in entry else ""))
    return None


def _tag(entry, key, table, path, errors):
    """The row of ``table`` that the string ``entry[key]`` names; None after
    recording an error."""
    tag = entry.get(key)
    if isinstance(tag, str) and tag in table:
        return table[tag]
    errors.append(f"{path}.{key}: expected {' or '.join(map(repr, table))}")
    return None


def _build(entry, path, tag_key, table, errors, **optional):
    """Construct the value a tagged JSON object describes from the fields its
    tag reads, plus the ``optional`` keyword defaults, which the object's own
    fields of the same name override.  Returns None after recording errors."""
    if not isinstance(entry, dict):
        errors.append(f"{path}: expected an object")
        return None
    row = _tag(entry, tag_key, table, path, errors)
    if row is None:
        return None
    make, keys = row
    keys += tuple(key for key in optional if key in entry)
    fields = {key: _field(entry, key, path, errors) for key in keys}
    if any(value is None for value in fields.values()):
        return None
    try:
        return make(**{**optional, **fields})
    except ValueError as exc:
        errors.append(f"{path}: {exc}")
        return None


def _build_membership(entry, path, errors) -> MembershipFn | None:
    mu = _build(entry, path, "type", _SHAPES, errors)
    if mu is not None and mu.support[0] <= 0.0:
        errors.append(f"{path}: present-value support must be positive")
        return None
    return mu


def _build_distribution(entry, path, errors, truncation) -> FutureValueDist | None:
    if isinstance(entry, dict) and entry.get("family") == "discrete":
        truncation = None  # the settings' truncation applies to continuous laws only
    return _build(entry, path, "family", _FAMILIES, errors, truncation=truncation)


def _resolve_settings(doc, errors):
    """Engine settings and default truncation from the settings block."""
    truncation = DEFAULT_TRUNCATION
    block = doc.get("settings", {})
    if not isinstance(block, dict):
        errors.append("settings: expected an object")
        return None, truncation
    keys = dataclasses.asdict(EngineSettings())
    allowed = [*keys, "truncation"]
    for key in filter(lambda key: key not in allowed, block):
        # repr without its quotes escapes every line break that splitlines splits on
        errors.append(f"settings.{repr(key)[1:-1]}: unknown setting, expected one of {', '.join(allowed)}")
    values = {}
    for key in filter(block.__contains__, keys):
        if _is_integer(block[key]):
            values[key] = block[key]
        else:
            errors.append(f"settings.{key}: expected an integer, got {block[key]!r}")
    if "truncation" in block:
        levels = _field(block, "truncation", "settings", errors)
        try:
            truncation = truncation_levels(levels) if levels is not None else truncation
        except ValueError as exc:
            errors.append(f"settings: {exc}")
    try:
        return EngineSettings(**values), truncation
    except ValueError as exc:
        errors.append(f"settings: {exc}")
        return None, truncation


def _parse_portfolio(doc, errors):
    """The securities as (id, convention, membership, law) sorted by id, the
    engine settings and the default truncation; problems go to ``errors``."""
    if not isinstance(doc, dict):
        errors.append("portfolio: expected a JSON object")
        return None
    version = doc.get("schema_version")
    if not _is_integer(version) or version != SCHEMA_VERSION:  # True == 1.0 == 1 in Python
        got = f", got {version!r}" if "schema_version" in doc else ""
        errors.append(f"schema_version: expected {SCHEMA_VERSION}{got}")
    settings, truncation = _resolve_settings(doc, errors)
    entries = doc.get("securities")
    if not isinstance(entries, list) or not entries:
        errors.append("securities: expected a nonempty list")
        return None
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
        conv = _tag(entry, "convention", CONVENTIONS, path, errors)
        mu = _build_membership(entry.get("present_value"), f"{path}.present_value", errors)
        dist = _build_distribution(entry.get("future_value"), f"{path}.future_value", errors, truncation)
        securities.append((sec_id, conv, mu, dist))
    return sorted(securities, key=lambda item: item[0]), settings, truncation


def _load(path):
    """The parsed portfolio in the file at ``path``, or None after printing
    every error."""
    errors: list[str] = []
    parsed = None
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        errors.append(f"cannot read {path}: {exc}")
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
        errors.append(f"{path}: invalid JSON ({exc})")
    else:
        parsed = _parse_portfolio(doc, errors)
    for message in errors:
        print(f"error: {message}", file=sys.stderr)
    return None if errors else parsed


def _profiles(securities, settings):
    """Each security's ``profile``, with floating-point overflow, division by
    zero and invalid operations raised.  Returns the profiles, or None after
    printing the first failure, an exhausted memory included, with the
    security's id."""
    profiles = []
    for sec_id, conv, mu, dist in securities:
        try:  # floating-point overflow raises FloatingPointError, an ArithmeticError
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                profiles.append(profile(mu, dist, conv, settings))
        except (ValueError, ArithmeticError, MemoryError) as exc:
            print(f"error: security {sec_id!r}: {exc}", file=sys.stderr)
            return None
    return profiles


def cmd_validate(args) -> int:
    parsed = _load(args.portfolio)
    if parsed is None:
        return 1
    securities, settings, _ = parsed
    if _profiles(securities, settings) is None:
        return 2
    return 0 if _write_file(None, lambda handle: print("ok", file=handle)) else 1


def cmd_analyze(args) -> int:
    parsed = _load(args.portfolio)
    if parsed is None:
        return 1
    securities, settings, truncation = parsed
    profiles = _profiles(securities, settings)
    if profiles is None:
        return 2
    try:  # the n x n matrices and alpha-cut tables grow with the square of the universe
        document = _report_document(securities, profiles, settings, truncation)
        if not _write_file(args.out, lambda handle: _write_report(document, handle)):
            return 1
        if args.grids_out and not _write_file(
            args.grids_out, lambda handle: _write_grids(handle, securities, profiles, settings.grid_points), newline=""
        ):
            return 1
    except MemoryError as exc:
        print(f"error: cannot screen {len(securities)} securities: {exc}", file=sys.stderr)
        return 2
    return 0


def _write_file(path: str | None, write, **options) -> bool:
    """``write(handle)`` into the file at ``path``, or into stdout when
    ``path`` is empty; False after printing why it failed."""
    try:
        if path:
            with open(path, "w", encoding="utf-8", **options) as handle:
                write(handle)
        elif sys.stdout is None:  # the process was started with stdout closed
            raise OSError("stdout is closed")
        else:
            write(sys.stdout)
            sys.stdout.flush()
    except OSError as exc:
        if not path and sys.stdout is not None:  # drop what stays buffered, or the flush at exit fails again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        print(f"error: cannot write {path or '<stdout>'}: {exc}", file=sys.stderr)
        return False
    return True


def _report_document(securities, profiles, settings, truncation) -> dict:
    """The report, its floats rounded to 15 significant digits except in the
    two outranking matrices, which stay arrays for ``_write_report``."""
    report = build_report(profiles)
    return {
        "schema_version": SCHEMA_VERSION,
        "settings": {**dataclasses.asdict(settings), "truncation": [_digits15(level) for level in truncation]},
        "ids": [sec_id for sec_id, _, _, _ in securities],
        "securities": [
            {
                "id": sec_id,
                "convention": conv.kind,
                "expected_return": _digits15(prof.expected_return),
                "variance": _digits15(prof.variance),
                "energy": _digits15(prof.energy),
                "entropy": _digits15(prof.entropy),
                "effectiveness": _digits15(report.effectiveness[i]),
                "strict_effectiveness": _digits15(report.strict_effectiveness[i]),
            }
            for i, ((sec_id, conv, _, _), prof) in enumerate(zip(securities, profiles))
        ],
        "outranking": report.outranking,
        "strict_outranking": report.strict_outranking,
    }


def _digits15(value: float) -> float:
    return float(f"{value:.15g}")


def _write_report(document: dict, handle) -> None:
    """Write a nonempty ``document``, whose floats outside its arrays are
    already rounded to 15 significant digits, as JSON with every array entry
    rounded too: the bytes ``json.dumps(indent=2, sort_keys=True)`` gives for
    the rounded document, plus a newline.  Its arrays, the outranking
    matrices, are written row by row by ``_write_matrix``; the rest goes
    through ``json.dumps``.

    Each distinct value of all arrays together is rounded and formatted
    once: a 1024-security outranking matrix has about 70k distinct values
    among its 1M entries, and the strict matrix repeats most of them.
    Distinct bit patterns, not values, keep -0.0 apart from 0.0.
    """
    arrays = {key: np.ascontiguousarray(value, dtype=float).view(np.uint64)
              for key, value in document.items() if isinstance(value, np.ndarray)}
    # the distinct bit patterns, sorted (np.unique would import numpy.ma, about 2 MB, on first use)
    bits = np.sort(np.concatenate([np.empty(0, np.uint64), *(a.ravel() for a in arrays.values())]))
    distinct = np.ones(bits.shape, dtype=bool)
    distinct[1:] = bits[1:] != bits[:-1]
    bits = bits[distinct]
    words = np.array([repr(_digits15(v)) for v in bits.view(float).tolist()], dtype=object)
    handle.write("{")
    for i, key in enumerate(sorted(document)):
        handle.write(("," if i else "") + f"\n  {json.dumps(key)}: ")
        if key in arrays:
            _write_matrix(words[np.searchsorted(bits, arrays[key])], handle)
        else:
            handle.write(json.dumps(document[key], indent=2, sort_keys=True).replace("\n", "\n  "))
    handle.write("\n}\n")


def _write_matrix(words: np.ndarray, handle) -> None:
    """A matrix of formatted entries, with at least one row and column, laid
    out as ``json.dumps(indent=2)`` lays out a list of rows under a top-level
    key."""
    handle.write("[")
    for i, row in enumerate(words):
        handle.write(("," if i else "") + "\n    [\n      " + ",\n      ".join(row.tolist()) + "\n    ]")
    handle.write("\n  ]")


def _write_grids(handle, securities, profiles, count: int) -> None:
    """The fuzzy returns at ``count`` common rates as CSV, to a handle opened
    with ``newline=""``; one float array, formatted a row at a time."""
    lo = min(p.rho.grid[0] for p in profiles)
    hi = max(p.rho.grid[-1] for p in profiles)
    rates = np.linspace(lo, hi, count)
    table = np.column_stack([rates] + [p.rho(rates) for p in profiles])
    row = ",".join(["%.15g"] * (1 + len(profiles))) + "\r\n"  # csv.writer's line end
    csv.writer(handle).writerow(["r"] + [f"rho_{sec_id}" for sec_id, _, _, _ in securities])
    for values in table:
        handle.write(row % tuple(values.tolist()))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bpv-effect",
        description="Screen securities with fuzzy present values for effectiveness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="compute profiles and effectiveness scores")
    analyze.add_argument("portfolio", help="portfolio JSON file")
    analyze.add_argument("--out", default=None, help="report JSON path (default: stdout)")
    analyze.add_argument("--grids-out", default=None, help="CSV path for the fuzzy return grids")
    analyze.set_defaults(func=cmd_analyze)

    validate = sub.add_parser("validate", help="check a portfolio file and compute each security's profile")
    validate.add_argument("portfolio", help="portfolio JSON file")
    validate.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, which here exits 1; --help exits 0
        return 1 if exc.code else 0
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
