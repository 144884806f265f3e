"""Command-line front end: validate portfolio files and produce screening reports.

Input is a JSON portfolio (schema_version 1) listing securities with a
fuzzy present value (trapezoid corners or a sampled grid), a future-value
distribution, and a return convention.  ``analyze`` writes a JSON report
plus optional CSV of the fuzzy expected-return grids; ``validate`` checks
the file and computes each security's profile as ``analyze`` does.

This module checks the document's shape: objects holding only their
listed keys, each once, strings, integers, numbers and lists of numbers
where the schema puts them.  Each domain rule (corner order,
probabilities, resolutions) lives in the constructor that builds the
value; its ``ValueError``, like an unknown or repeated key, is reported
prefixed with the JSON path and the security id.  A truncation is checked
by ``truncation_levels`` as it is read, so its error names the field.  The
report echoes the settings block, read into ``EngineSettings``.

A failure is raised where it is found, as a ``_Failure`` carrying its exit
code, and ``main`` alone prints it and picks the code: 0 ok, 1 a usage
error, an unreadable or invalid portfolio, two of the portfolio, ``--out``
and ``--grids-out`` naming one file or an unwritable output, 2 a security
whose profile cannot be computed or a screen that exhausts memory.  A
failed write removes the file it opened.
"""

import argparse
import contextlib
import functools
import json
import os
import stat
import sys

import numpy as np

from .distribution import DiscreteLaw, TruncatedLaw, truncation_levels
from .effectiveness import build_report
from .membership import MembershipFn, trapezoid
from .quadrature import distinct
from .returns import CONVENTIONS, profile

SCHEMA_VERSION = 1

# Upper bound on each resolution setting, far above any useful value (the
# convergence tests double up to 4096), so that an absurd one is a validation
# error naming the setting, not a failed allocation or a long run.
MAX_RESOLUTION = 2**20


class _Failure(Exception):
    """``_Failure(code, *messages)``: ``main`` prints each message as an ``error:`` line and returns code."""


class EngineSettings:
    """The settings block: the return grid's point count, a continuous law's
    default truncation, and ``nodes`` and ``variance_panels``, which are
    checked and echoed, sorted by key, but change no result.  Its attributes
    are the settings, in the order an unknown key's message lists them."""

    def __init__(self, grid_points: int = 801, nodes: int = 256, variance_panels: int = 1024,
                 truncation: tuple[float, float] = (0.005, 0.995)):
        self.grid_points, self.nodes, self.variance_panels, self.truncation = (
            grid_points, nodes, variance_panels, truncation)
        if self.grid_points < 4:
            raise ValueError("grid_points must be at least 4")
        if self.nodes < 2:
            raise ValueError("nodes must be at least 2")
        if self.variance_panels < 1:
            raise ValueError("variance_panels must be positive")
        for name in ("grid_points", "nodes", "variance_panels"):
            if getattr(self, name) > MAX_RESOLUTION:
                raise ValueError(f"{name} must be at most {MAX_RESOLUTION} (got {getattr(self, name)})")


# Each present-value type and future-value family: its constructor and the
# JSON fields passed to it by name (the settings block's are EngineSettings'
# attributes).  The fields in _LISTS are nonempty lists of numbers, in _INTEGERS
# integers, all others numbers.  Every setting has a default.
_SHAPES = {
    "trapezoid": (trapezoid, ("a", "b", "c", "d")),
    "grid": (lambda points, values: MembershipFn(points, values), ("points", "values")),
}
_FAMILIES = {
    "normal": (TruncatedLaw.normal, ("mean", "sd", "truncation")),
    "lognormal": (TruncatedLaw.lognormal, ("log_mean", "log_sd", "truncation")),
    "discrete": (DiscreteLaw, ("points", "probs")),
}
_LISTS = {"points", "values", "probs", "truncation"}
_INTEGERS = {"grid_points", "nodes", "variance_panels"}


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_integer(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _field(entry, key, path, errors):
    """``entry[key]`` as an integer for the keys in _INTEGERS, a list of floats
    for those in _LISTS (a checked level pair for "truncation"), or else a
    float; None after recording an error."""
    value = entry.get(key)
    try:
        if key in _INTEGERS and _is_integer(value):
            return value
        if key in _LISTS and isinstance(value, list) and value and all(map(_is_number, value)):
            values = [float(v) for v in value]
            return truncation_levels(values) if key == "truncation" else values
        if key not in _LISTS and key not in _INTEGERS and _is_number(value):
            return float(value)
    except OverflowError:  # an integer beyond the float range
        pass
    except ValueError as exc:  # levels outside (0, 1)
        errors.append(f"{path}.{key}: {exc}")
        return None
    kind = "an integer" if key in _INTEGERS else "a nonempty list of numbers" if key in _LISTS else "a number"
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


def _unknown_keys(entry, allowed, prefix, errors):
    """Record an error for each key of the object ``entry`` outside ``allowed``
    and each key it repeats, named by ``prefix`` and the key's repr without
    its quotes, which escapes every line break that splitlines splits on."""
    for key in entry:
        if key not in allowed:
            errors.append(f"{prefix}{repr(key)[1:-1]}: unknown field, expected one of {', '.join(allowed)}")
    for key in getattr(entry, "repeated", ()):
        errors.append(f"{prefix}{repr(key)[1:-1]}: duplicate field")


class _Object(dict):
    """A JSON object that keeps the keys it repeats, in ``repeated``."""

    repeated = ()


def _object(pairs):
    entry = _Object(pairs)
    if len(entry) < len(pairs):
        seen: set[str] = set()
        entry.repeated = list(dict.fromkeys(key for key, _ in pairs if key in seen or seen.add(key)))
    return entry


def _build(entry, path, errors, row, tag=None, **defaults):
    """The value a JSON object describes, built by ``row``: a constructor and
    the fields passed to it by name, or a table of such rows when the
    object's string field ``tag`` picks one.  A field the object leaves out
    takes its value from the keyword ``defaults`` if it has one there; a key
    outside the row is an error.  Returns None after recording errors."""
    if not isinstance(entry, dict):
        errors.append(f"{path}: expected an object")
        return None
    if tag:
        row = _tag(entry, tag, row, path, errors)
        if row is None:
            return None
    make, keys = row
    _unknown_keys(entry, ((tag,) if tag else ()) + keys, f"{path}.", errors)
    fields = {key: defaults[key] if key in defaults and key not in entry else _field(entry, key, path, errors)
              for key in keys}
    if any(value is None for value in fields.values()):
        return None
    try:
        return make(**fields)
    except ValueError as exc:
        errors.append(f"{path}: {exc}")
        return None


def _build_membership(entry, path, errors) -> MembershipFn | None:
    mu = _build(entry, path, errors, _SHAPES, "type")
    if mu is not None and mu.support[0] <= 0.0:
        errors.append(f"{path}: present-value support must be positive")
        return None
    return mu


def _parse_portfolio(doc, errors):
    """The securities as (id, convention, membership, law) sorted by id, and
    the settings; problems go to ``errors``."""
    if not isinstance(doc, dict):
        errors.append("portfolio: expected a JSON object")
        return None
    version = doc.get("schema_version")
    if not _is_integer(version) or version != SCHEMA_VERSION:  # True == 1.0 == 1 in Python
        got = f", got {version!r}" if "schema_version" in doc else ""
        errors.append(f"schema_version: expected {SCHEMA_VERSION}{got}")
    _unknown_keys(doc, ("schema_version", "settings", "securities"), "", errors)
    defaults = vars(EngineSettings())
    settings = _build(doc.get("settings", {}), "settings", errors, (EngineSettings, tuple(defaults)),
                      **defaults) or EngineSettings()
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
        _unknown_keys(entry, ("id", "convention", "present_value", "future_value"), f"{path}.", errors)
        conv = _tag(entry, "convention", CONVENTIONS, path, errors)
        mu = _build_membership(entry.get("present_value"), f"{path}.present_value", errors)
        law = _build(entry.get("future_value"), f"{path}.future_value", errors, _FAMILIES, "family",
                     truncation=settings.truncation)
        securities.append((sec_id, conv, mu, law))
    return sorted(securities, key=lambda item: item[0]), settings


def _load(path):
    """The parsed portfolio in the file at ``path``; a ``_Failure`` (exit 1)
    carries every error."""
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle, object_pairs_hook=_object)
    except OSError as exc:
        raise _Failure(1, f"cannot read {path}: {exc}")
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
        raise _Failure(1, f"{path}: invalid JSON ({exc})")
    errors: list[str] = []
    parsed = _parse_portfolio(doc, errors)
    if errors:
        raise _Failure(1, *errors)
    return parsed


def _profiles(securities, grid_points):
    """Each security's ``profile`` on ``grid_points`` uniform rates, with
    floating-point overflow, division by zero and invalid operations raised.
    The first failure, an exhausted memory included, is a ``_Failure``
    (exit 2) naming the security's id."""
    profiles = []
    for sec_id, conv, mu, law in securities:
        try:  # floating-point overflow raises FloatingPointError, an ArithmeticError
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                profiles.append(profile(mu, law, conv, grid_points))
        except (ValueError, ArithmeticError, MemoryError) as exc:
            raise _Failure(2, f"security {sec_id!r}: {exc}")
    return profiles


def cmd_validate(args) -> None:
    securities, settings = _load(args.portfolio)
    _profiles(securities, settings.grid_points)
    _write_file(None, lambda handle: print("ok", file=handle))


def cmd_analyze(args) -> None:
    # outputs and a regular-file portfolio must be distinct files; /dev/stdin may share a tty with /dev/stdout
    named = {}
    for name, path in (("portfolio", args.portfolio if os.path.isfile(args.portfolio) else None),
                       ("--out", args.out), ("--grids-out", args.grids_out)):
        if path and (first := named.setdefault(os.path.realpath(path), f"{name} {path}")) != f"{name} {path}":
            raise _Failure(1, f"{first} and {name} {path} name one file")
    securities, settings = _load(args.portfolio)
    profiles = _profiles(securities, settings.grid_points)
    try:  # the n x n matrices and alpha-cut tables grow with the square of the universe
        document = _report_document(securities, profiles, settings)
        _write_file(args.out, lambda handle: _write_report(document, handle))
        if args.grids_out:
            _write_file(args.grids_out, lambda handle: _write_grids(handle, securities, profiles, settings.grid_points),
                        newline="")
    except MemoryError as exc:
        raise _Failure(2, f"cannot screen {len(securities)} securities: {exc}")


def _write_file(path: str | None, write, **options) -> None:
    """``write(handle)`` into the file at ``path``, or into stdout when
    ``path`` is empty; a ``_Failure`` (exit 1) says why it failed.  A failure
    removes the file this call opened if it is regular (a link such as
    /dev/stdout, a device or FIFO stays); a ``MemoryError`` then propagates."""
    opened = False
    try:
        if path:
            with open(path, "w", encoding="utf-8", **options) as handle:
                opened = True
                write(handle)
        elif sys.stdout is None:  # the process was started with stdout closed
            raise OSError("stdout is closed")
        else:
            write(sys.stdout)
            sys.stdout.flush()
    except (MemoryError, OSError) as exc:
        with contextlib.suppress(OSError):
            if opened and stat.S_ISREG(os.lstat(path).st_mode):
                os.remove(path)
        if isinstance(exc, MemoryError):
            raise
        if not path and sys.stdout is not None:  # drop what stays buffered, or the flush at exit fails again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        raise _Failure(1, f"cannot write {path or '<stdout>'}: {exc}")


def _report_document(securities, profiles, settings) -> dict:
    """The report, its floats rounded to 15 significant digits except in the
    two outranking matrices, which stay arrays for ``_write_report``."""
    report = build_report(profiles)
    return {
        "schema_version": SCHEMA_VERSION,
        "settings": {**vars(settings), "truncation": [_digits15(level) for level in settings.truncation]},
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
    once: a 1024-security outranking matrix has about 66k distinct values
    among its 1M entries, and the strict matrix repeats most of them.
    Distinct bit patterns, not values, keep -0.0 apart from 0.0.  They are
    gathered a block of rows at a time, and each row looks its words up as it
    is written, so no temporary grows with the square of the universe.
    """
    arrays = {key: np.ascontiguousarray(value, dtype=float).view(np.uint64)
              for key, value in document.items() if isinstance(value, np.ndarray)}
    bits = np.empty(0, np.uint64)
    for matrix in arrays.values():
        step = max(1, 2**16 // matrix.shape[1])  # rows of about 2**16 entries, 0.5 MB of patterns
        for start in range(0, len(matrix), step):
            bits = distinct(np.concatenate([bits, matrix[start:start + step].ravel()]))
    words = np.array([repr(_digits15(v)) for v in bits.view(float).tolist()], dtype=object)
    handle.write("{")
    for i, key in enumerate(sorted(document)):
        handle.write(("," if i else "") + f"\n  {json.dumps(key)}: ")
        if key in arrays:
            _write_matrix((words[np.searchsorted(bits, row)] for row in arrays[key]), handle)
        else:
            handle.write(json.dumps(document[key], indent=2, sort_keys=True).replace("\n", "\n  "))
    handle.write("\n}\n")


def _write_matrix(rows, handle) -> None:
    """Rows of formatted entries, at least one row of at least one entry,
    laid out as ``json.dumps(indent=2)`` lays out a list of rows under a
    top-level key."""
    handle.write("[")
    for i, row in enumerate(rows):
        handle.write(("," if i else "") + "\n    [\n      " + ",\n      ".join(row.tolist()) + "\n    ]")
    handle.write("\n  ]")


def _write_grids(handle, securities, profiles, count: int) -> None:
    """The fuzzy returns at ``count`` common rates as CSV, to a handle opened
    with ``newline=""``; one float array, formatted a row at a time."""
    import csv  # only here, so that a run without --grids-out never loads it

    lo = min(p.rho.grid[0] for p in profiles)
    hi = max(p.rho.grid[-1] for p in profiles)
    rates = np.linspace(lo, hi, count)
    table = np.column_stack([rates] + [p.rho(rates) for p in profiles])
    row = ",".join(["%.15g"] * (1 + len(profiles))) + "\r\n"  # csv.writer's line end
    csv.writer(handle).writerow(["r"] + [f"rho_{sec_id}" for sec_id, _, _, _ in securities])
    for values in table:
        handle.write(row % tuple(values.tolist()))


@functools.cache  # built once per process: every in-process main call reuses it
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
    try:
        args.func(args)
    except _Failure as failure:
        code, *messages = failure.args
        for message in messages:
            print(f"error: {message}", file=sys.stderr)
        return code
    return 0
