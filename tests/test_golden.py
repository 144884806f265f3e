"""Golden outputs: reports and the grids CSV pinned to ``fixtures/expected/``.

Ids, settings, keys and shapes must match exactly and every other number
within ``RTOL`` relative (an expected zero must stay zero), so any change
that moves an output shows as a failing test here.  A change that moves
numbers on purpose regenerates the expected files with ``bpv-effect
analyze`` and shows the diff.

- ``portfolio3``: the shipped fixture's report and ``--grids-out`` CSV.
- ``accuracy_panel``: the 19-security portfolio that ``perfbench`` scores
  for accuracy (``portfolios.write("panel", ...)``), and its report.

The accuracy ratchet scores the panel's report and grids against
``perfbench/reference.py``: each error may fall, never rise past its
recorded value.
"""

import csv
import importlib.util
import json
import shutil
from pathlib import Path

import pytest

from bpv_effect.cli import main

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
EXPECTED = FIXTURES / "expected"
RTOL = 1e-14
# the accuracy panel's largest errors against perfbench/reference.py; a change
# that lowers one lowers its record here too
RECORDED_ERRORS = {
    "variance_rel_err.max": 9.114170411167442e-4,
    "rho_sup_err.max": 1.211962971461403e-3,
    "dominance_abs_err.max": 7.4888011009077715e-06,
}


def assert_close(actual, expected, path="report"):
    """Same structure and types; floats within RTOL relative, the rest equal."""
    if isinstance(expected, dict):
        assert isinstance(actual, dict) and sorted(actual) == sorted(expected), path
        for key, value in expected.items():
            assert_close(actual[key], value, f"{path}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), path
        for i, (a, e) in enumerate(zip(actual, expected)):
            assert_close(a, e, f"{path}[{i}]")
    elif isinstance(expected, float):
        assert isinstance(actual, float) and abs(actual - expected) <= RTOL * abs(expected), (path, actual, expected)
    else:
        assert type(actual) is type(expected) and actual == expected, path


@pytest.mark.parametrize("name", ["portfolio3", "accuracy_panel"])
def test_report_matches_golden(tmp_path, name):
    out = tmp_path / "report.json"
    assert main(["analyze", str(FIXTURES / f"{name}.json"), "--out", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    expected = json.loads((EXPECTED / f"{name}.json").read_text(encoding="utf-8"))
    assert report["ids"] == expected["ids"]
    assert report["settings"] == expected["settings"]
    assert_close(report, expected)


def test_grids_csv_matches_golden(tmp_path):
    grids = tmp_path / "grids.csv"
    assert main(["analyze", str(FIXTURES / "portfolio3.json"), "--out", str(tmp_path / "r.json"),
                 "--grids-out", str(grids)]) == 0
    with open(grids, newline="", encoding="utf-8") as handle:
        header, *rows = list(csv.reader(handle))
    with open(EXPECTED / "portfolio3_grids.csv", newline="", encoding="utf-8") as handle:
        expected_header, *expected_rows = list(csv.reader(handle))
    assert header == expected_header
    assert_close([[float(v) for v in row] for row in rows], [[float(v) for v in row] for row in expected_rows],
                 "grids")


def test_accuracy_panel_errors_do_not_rise(tmp_path):
    spec = importlib.util.spec_from_file_location("perfbench_reference", ROOT / "perfbench" / "reference.py")
    reference = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reference)
    shutil.copyfile(FIXTURES / "accuracy_panel.json", tmp_path / "portfolio00.json")
    assert main(["analyze", str(tmp_path / "portfolio00.json"), "--out", str(tmp_path / "first00.json"),
                 "--grids-out", str(tmp_path / "first00.csv")]) == 0
    errors = reference.accuracy("panel", 0, str(tmp_path))
    assert sorted(errors) == sorted(RECORDED_ERRORS)
    for name, recorded in RECORDED_ERRORS.items():
        assert errors[name] <= recorded * (1.0 + 1e-9), (name, errors[name], recorded)
