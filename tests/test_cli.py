import contextlib
import csv
import io
import json
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bpv_effect import CONVENTIONS, FutureValueDist, profile, returns, trapezoid
from bpv_effect.cli import _load, _write_grids, _write_matrix, _write_report, main
from bpv_effect.returns import EngineSettings

from support import round15, staged_profile

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def write_portfolio(tmp_path, securities, settings=None, name="portfolio.json", **top):
    """Write a schema-1 portfolio; ``top`` adds or replaces top-level fields."""
    doc = {"schema_version": 1, "securities": securities, **top}
    if settings is not None:
        doc["settings"] = settings
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def simple_security(sec_id="one", **overrides):
    # atoms strictly inside the plateau keep the fuzzy return normal on an interval
    entry = {
        "id": sec_id,
        "convention": "simple",
        "present_value": {"type": "trapezoid", "a": 90, "b": 95, "c": 105, "d": 110},
        "future_value": {"family": "discrete", "points": [98, 102], "probs": [0.5, 0.5]},
    }
    entry.update(overrides)
    return entry


# securities that parse but cannot be profiled; each fails while building its
# quadrature nodes, return grid or fuzzy return's center, and both commands
# profile every security, so both exit 2
EXTREME, OVERFLOW, UNDERFLOW, FLAT = (
    json.loads((FIXTURES / f"{name}.json").read_text(encoding="utf-8"))["securities"][1]
    for name in ("extreme_range", "overflow_span", "underflow_span", "degenerate_return")
)
PROFILE_FAILURES = [
    ("huge", {"future_value": {"family": "lognormal", "log_mean": 800, "log_sd": 0.2}},
     "overflow"),
    ("tiny", {"future_value": {"family": "lognormal", "log_mean": -50, "log_sd": 0.2}},
     "return grid must be strictly increasing"),
    ("pinned", {"future_value": {"family": "normal", "mean": 100, "sd": 1e-300}},
     "nodes must be strictly increasing and positive"),
    ("vast", {"present_value": {"type": "trapezoid", "a": 1e-300, "b": 1e-300, "c": 1e300, "d": 1e300}},
     "return span"),
    ("extreme", {key: EXTREME[key] for key in ("present_value", "future_value")},
     "return span -1 to 1.09136e+302 is wider than 2**52"),
    ("flat", {key: FLAT[key] for key in ("present_value", "future_value")},
     "degenerate membership: expected return undefined"),
    # simple rates: 2.8e88 / 4.8e-289 overflows to inf
    ("soaring", {key: OVERFLOW[key] for key in ("present_value", "future_value")},
     "return span -0.666667 to inf is out of floating-point range"),
    # logarithmic rates: 1e-114 / 3e294 underflows to 0, whose log is -inf
    ("remote", {key: UNDERFLOW[key] for key in ("convention", "present_value", "future_value")},
     "return span -inf to -inf is out of floating-point range"),
]


# inputs that fail validation: (security overrides, top-level document
# fields, a field the message must name, whether it names the security);
# both commands exit 1, before any allocation sized by a setting
LOGNORMAL = {"family": "lognormal", "log_mean": 4.6, "log_sd": 0.1}
BAD_INPUTS = {
    "nan_corner": ({"present_value": {"type": "trapezoid", "a": float("nan"), "b": 95, "c": 105, "d": 110}},
                   {}, "present_value", True),
    "infinite_corner": ({"present_value": {"type": "trapezoid", "a": 90, "b": 95, "c": 105, "d": float("inf")}},
                        {}, "present_value", True),
    "huge_integer_corner": ({"present_value": {"type": "trapezoid", "a": 90, "b": 95, "c": 105, "d": 10**400}},
                            {}, "present_value.d", True),
    "negative_grid_support": ({"present_value": {"type": "grid", "points": [-5, 100, 110], "values": [0, 1, 0]}},
                              {}, "present_value", True),
    "a_equals_d": ({"present_value": {"type": "trapezoid", "a": 100, "b": 100, "c": 100, "d": 100}},
                   {}, "present_value", True),
    "probs_length": ({"future_value": {"family": "discrete", "points": [98, 102], "probs": [1.0]}},
                     {}, "probs", True),
    "discrete_truncation": ({"future_value": {"family": "discrete", "points": [98, 102], "probs": [0.5, 0.5],
                                              "truncation": [0.01, 0.99]}}, {}, "truncation", True),
    "reversed_truncation": ({"future_value": {**LOGNORMAL, "truncation": [0.99, 0.01]}}, {}, "truncation", True),
    "reversed_settings_truncation": ({}, {"settings": {"truncation": [0.99, 0.01]}}, "settings", False),
    "string_number": ({"future_value": {"family": "normal", "mean": 100, "sd": "ten"}}, {}, "sd", True),
    "non_object_present_value": ({"present_value": [90, 95, 105, 110]}, {}, "present_value", True),
    "boolean_nodes": ({}, {"settings": {"nodes": True}}, "settings.nodes", False),
    "one_node": ({"future_value": LOGNORMAL}, {"settings": {"nodes": 1}}, "nodes", False),
    "huge_nodes": ({"future_value": LOGNORMAL}, {"settings": {"nodes": 10**15}}, "nodes must be at most", False),
    "huge_grid_points": ({}, {"settings": {"grid_points": 10**15}}, "grid_points must be at most", False),
    "huge_variance_panels": ({}, {"settings": {"variance_panels": 2**20 + 1}}, "variance_panels must be at", False),
    "boolean_schema_version": ({}, {"schema_version": True}, "schema_version", False),
    "float_schema_version": ({}, {"schema_version": 1.0}, "schema_version", False),
    "misspelt_setting": ({}, {"settings": {"grid_point": 2401}}, "settings.grid_point", False),
    "line_break_setting": ({}, {"settings": {"bad\nkey": 1}}, "settings.bad\\nkey", False),
    "infinite_plateau_end": ({"present_value": {"type": "trapezoid", "a": 90, "b": 95, "c": float("inf"),
                                                "d": float("inf")}}, {}, "present_value", True),
    # each row names its constructor check's message, so the row fails if that check goes
    "zero_sd": ({"future_value": {"family": "normal", "mean": 100, "sd": 0}}, {}, "needs sd > 0", True),
    "negative_prob": ({"future_value": {"family": "discrete", "points": [98, 102], "probs": [-0.5, 1.5]}},
                      {}, "probs must be nonnegative", True),
    "grid_length_mismatch": ({"present_value": {"type": "grid", "points": [90, 100, 110], "values": [0, 1]}},
                             {}, "must have matching lengths", True),
    "three_grid_points": ({}, {"settings": {"grid_points": 3}}, "grid_points must be at least 4", False),
    "zero_variance_panels": ({}, {"settings": {"variance_panels": 0}}, "variance_panels must be positive", False),
}


def legacy_grids_csv(ids, profiles, count) -> bytes:
    """The grids CSV as a csv.writer row loop writes it."""
    rates = np.linspace(min(p.rho.grid[0] for p in profiles), max(p.rho.grid[-1] for p in profiles), count)
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(["r"] + [f"rho_{sec_id}" for sec_id in ids])
    columns = [p.rho(rates) for p in profiles]
    for j, r in enumerate(rates):
        writer.writerow([f"{r:.15g}"] + [f"{col[j]:.15g}" for col in columns])
    return buffer.getvalue().encode("utf-8")


class TestValidate:
    def test_shipped_fixture_is_ok(self, capsys):
        assert main(["validate", str(FIXTURES / "portfolio3.json")]) == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_probability_sum_violation(self, capsys):
        assert main(["validate", str(FIXTURES / "bad_prob_sum.json")]) == 1
        err = capsys.readouterr().err
        assert "sum to 1" in err
        assert "alpha" in err
        assert "future_value" in err

    def test_trapezoid_corner_violation(self, capsys):
        assert main(["validate", str(FIXTURES / "bad_trapezoid.json")]) == 1
        err = capsys.readouterr().err
        assert "beta" in err
        assert "a <= b <= c <= d" in err

    def test_missing_file(self, capsys):
        assert main(["validate", "no-such-file.json"]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        assert "invalid JSON" in capsys.readouterr().err

    def test_wrong_schema_version(self, tmp_path, capsys):
        path = tmp_path / "v2.json"
        path.write_text(json.dumps({"schema_version": 2, "securities": [simple_security()]}))
        assert main(["validate", str(path)]) == 1
        assert "schema_version" in capsys.readouterr().err

    def test_duplicate_ids(self, tmp_path, capsys):
        path = write_portfolio(tmp_path, [simple_security("x"), simple_security("x")])
        assert main(["validate", path]) == 1
        assert "duplicate id" in capsys.readouterr().err

    def test_unknown_convention(self, tmp_path, capsys):
        path = write_portfolio(tmp_path, [simple_security(convention="hourly")])
        assert main(["validate", path]) == 1
        assert "convention" in capsys.readouterr().err

    def test_normal_without_positive_support(self, tmp_path, capsys):
        bad = simple_security(future_value={"family": "normal", "mean": 5, "sd": 10})
        path = write_portfolio(tmp_path, [bad])
        assert main(["validate", path]) == 1
        assert "positive" in capsys.readouterr().err

    def test_grid_membership_values_out_of_range(self, tmp_path, capsys):
        bad = simple_security(
            present_value={"type": "grid", "points": [90, 100, 110], "values": [0, 1.2, 0]}
        )
        path = write_portfolio(tmp_path, [bad])
        assert main(["validate", path]) == 1
        err = capsys.readouterr().err
        assert "present_value" in err and "[0, 1]" in err

    def test_negative_sd(self, tmp_path, capsys):
        bad = simple_security(future_value={"family": "lognormal", "log_mean": 4.6, "log_sd": -0.1})
        path = write_portfolio(tmp_path, [bad])
        assert main(["validate", path]) == 1
        assert "log_sd" in capsys.readouterr().err

    def test_unknown_family(self, tmp_path, capsys):
        bad = simple_security(future_value={"family": "uniform", "low": 90, "high": 110})
        path = write_portfolio(tmp_path, [bad])
        assert main(["validate", path]) == 1
        assert "family" in capsys.readouterr().err

    def test_empty_securities_list(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"schema_version": 1, "securities": []}))
        assert main(["validate", str(path)]) == 1
        assert "nonempty" in capsys.readouterr().err

    def test_truncation_on_discrete_rejected(self, tmp_path, capsys):
        bad = simple_security(
            future_value={
                "family": "discrete", "points": [95, 105], "probs": [0.5, 0.5],
                "truncation": [0.01, 0.99],
            }
        )
        path = write_portfolio(tmp_path, [bad])
        assert main(["validate", path]) == 1
        assert "truncation" in capsys.readouterr().err

    @pytest.mark.parametrize("law, field", [
        ({"family": "normal", "mean": float("nan"), "sd": 10}, "mean"),
        ({"family": "lognormal", "log_mean": 4.6, "log_sd": float("inf")}, "log_sd"),
    ])
    def test_non_finite_parameters_rejected(self, tmp_path, capsys, law, field):
        path = write_portfolio(tmp_path, [simple_security("odd", future_value=law)])
        for command in ("validate", "analyze"):
            assert main([command, path]) == 1
            err = capsys.readouterr().err
            assert field in err and "'odd'" in err and "finite" in err

    @pytest.mark.parametrize("sec_id, overrides, message", PROFILE_FAILURES)
    def test_node_or_grid_failure_exits_two_naming_the_security(self, tmp_path, capsys, sec_id, overrides, message):
        path = write_portfolio(tmp_path, [simple_security("fine"), simple_security(sec_id, **overrides)])
        for command in ("validate", "analyze"):
            assert main([command, path]) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith(f"error: security {sec_id!r}: ")
            assert message in captured.err
            assert "Traceback" not in captured.err
            assert captured.out == ""

    def test_variance_failure_exits_two_as_in_analyze(self, tmp_path, capsys, monkeypatch):
        # validate computes the whole profile, so it fails where analyze fails
        def exhausted(*args):
            raise MemoryError("Unable to allocate the variance kernel")

        monkeypatch.setattr(returns, "return_variance", exhausted)
        path = write_portfolio(tmp_path, [simple_security("heavy")])
        for command in ("validate", "analyze"):
            assert main([command, path]) == 2
            captured = capsys.readouterr()
            assert captured.err == "error: security 'heavy': Unable to allocate the variance kernel\n"
            assert captured.out == ""

    @pytest.mark.parametrize("overrides, top, field, names_id", BAD_INPUTS.values(), ids=BAD_INPUTS)
    def test_bad_input_exits_one_naming_field_and_id(self, tmp_path, capsys, overrides, top, field, names_id):
        path = write_portfolio(tmp_path, [simple_security("bad", **overrides)], **top)
        for command in ("validate", "analyze"):
            assert main([command, path]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert field in captured.err and ("'bad'" in captured.err) == names_id
            assert all(line.startswith("error: ") for line in captured.err.splitlines())

    @pytest.mark.parametrize("content", [b"null", b"\xff\xfe{}", b"[" * 100_000 + b"]" * 100_000],
                             ids=["null", "not_utf8", "nested_too_deep"])
    def test_unusable_document_exits_one_with_a_message(self, tmp_path, capsys, content):
        path = tmp_path / "portfolio.json"
        path.write_bytes(content)
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_multiple_errors_reported_together(self, tmp_path, capsys):
        first = simple_security("a", convention="weekly")
        second = simple_security("b", future_value={"family": "discrete", "points": [95], "probs": [0.9]})
        path = write_portfolio(tmp_path, [first, second])
        assert main(["validate", path]) == 1
        err = capsys.readouterr().err
        assert "'a'" in err and "'b'" in err


class TestAnalyze:
    def test_report_structure(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["analyze", str(FIXTURES / "portfolio3.json"), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["schema_version"] == 1
        assert report["ids"] == ["alpha", "beta", "gamma"]
        assert report["settings"] == {
            "grid_points": 801,
            "nodes": 256,
            "variance_panels": 1024,
            "truncation": [0.005, 0.995],
        }
        assert len(report["securities"]) == 3
        for entry in report["securities"]:
            assert set(entry) == {
                "id", "convention", "expected_return", "variance", "energy",
                "entropy", "effectiveness", "strict_effectiveness",
            }
            assert 0.0 <= entry["effectiveness"] <= 1.0
            assert entry["entropy"] <= entry["energy"]
        matrix = np.array(report["outranking"])
        strict = np.array(report["strict_outranking"])
        assert matrix.shape == (3, 3)
        assert np.all(strict <= matrix + 1e-15)

    def test_byte_identical_across_runs(self, tmp_path):
        outputs = []
        for i in range(3):
            out = tmp_path / f"report{i}.json"
            assert main(["analyze", str(FIXTURES / "portfolio3.json"), "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_variance_past_the_underflow_of_exp_matches_the_node_view(self, tmp_path):
        # 'far' centers near 698 with a variance near 2470: the upper rates of
        # the variance kernel pass 745.13, where exp(-r) underflows to 0
        path = FIXTURES / "underflow_kernel.json"
        out = tmp_path / "report.json"
        assert main(["analyze", str(path), "--out", str(out)]) == 0
        (entry,) = json.loads(out.read_text())["securities"]
        [(_, conv, mu, dist)], engine, _ = _load(path)
        node = staged_profile(returns._NodeView, mu, dist, conv, engine)
        assert entry["variance"] == pytest.approx(node[1], rel=1e-12, abs=0.0)

    def test_report_to_stdout_by_default(self, tmp_path, capsys):
        path = write_portfolio(tmp_path, [simple_security()])
        assert main(["analyze", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ids"] == ["one"]
        assert report["securities"][0]["effectiveness"] == 1.0
        assert report["securities"][0]["strict_effectiveness"] == 1.0

    def test_settings_block_without_flags(self, tmp_path, capsys):
        settings = {"grid_points": 101, "nodes": 16, "variance_panels": 64, "truncation": [0.01, 0.99]}
        path = write_portfolio(tmp_path, [simple_security()], settings=settings)
        assert main(["analyze", path]) == 0
        assert json.loads(capsys.readouterr().out)["settings"] == settings

    def test_ids_sorted_in_output(self, tmp_path, capsys):
        path = write_portfolio(tmp_path, [simple_security("zeta"), simple_security("alpha")])
        assert main(["analyze", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ids"] == ["alpha", "zeta"]

    def test_variance_gate_zeroes_matrix_entry(self, tmp_path, capsys):
        tight = simple_security("tight")
        loose = simple_security(
            "loose",
            future_value={"family": "discrete", "points": [85, 115], "probs": [0.5, 0.5]},
        )
        path = write_portfolio(tmp_path, [loose, tight], settings={"grid_points": 201, "nodes": 16, "variance_panels": 128})
        assert main(["analyze", path]) == 0
        report = json.loads(capsys.readouterr().out)
        variances = {e["id"]: e["variance"] for e in report["securities"]}
        assert variances["loose"] > variances["tight"]
        matrix = np.array(report["outranking"])
        loose_row = report["ids"].index("loose")
        tight_col = report["ids"].index("tight")
        assert matrix[loose_row, tight_col] == 0.0

    def test_grid_csv_export(self, tmp_path):
        out = tmp_path / "report.json"
        grids = tmp_path / "grids.csv"
        path = write_portfolio(
            tmp_path,
            [simple_security("a"), simple_security("b")],
            settings={"grid_points": 101, "nodes": 8, "variance_panels": 64},
        )
        assert main(["analyze", path, "--out", str(out), "--grids-out", str(grids)]) == 0
        lines = grids.read_text().strip().splitlines()
        assert lines[0] == "r,rho_a,rho_b"
        assert len(lines) == 1 + 101
        first = lines[1].split(",")
        assert len(first) == 3
        float(first[0])  # parses as numbers

    def test_grid_csv_bytes_match_csv_writer(self, tmp_path):
        ids = ['a,"b"', "plain"]  # the first needs quoting
        settings = {"grid_points": 101, "nodes": 64, "variance_panels": 64}
        lognormal = {"family": "lognormal", "log_mean": 4.6, "log_sd": 0.1}
        path = write_portfolio(tmp_path, [
            simple_security(ids[0], convention="logarithmic", future_value=lognormal),
            simple_security(ids[1]),
        ], settings=settings)
        grids = tmp_path / "grids.csv"
        assert main(["analyze", path, "--out", str(tmp_path / "r.json"), "--grids-out", str(grids)]) == 0
        mu = trapezoid(90, 95, 105, 110)
        engine = EngineSettings(**settings)
        profiles = [
            profile(mu, FutureValueDist.lognormal(4.6, 0.1, (0.005, 0.995)), CONVENTIONS["logarithmic"], engine),
            profile(mu, FutureValueDist.discrete([98.0, 102.0], [0.5, 0.5]), CONVENTIONS["simple"], engine),
        ]
        assert grids.read_bytes() == legacy_grids_csv(ids, profiles, 101)
        assert grids.read_bytes().startswith(b'r,"rho_a,""b""",rho_plain\r\n')

    def test_grid_csv_writer_holds_about_one_table_of_floats(self, tmp_path):
        # the rho columns and the table they are stacked into: 2.0 x the table's
        # bytes measured, against 6.8 x when the whole table became Python floats
        ids = [f"s{i:03d}" for i in range(256)]
        profiles = [types.SimpleNamespace(rho=trapezoid(-0.3 + i * 1e-3, 0.0, 0.05 + i * 1e-4, 0.2 + i * 1e-3))
                    for i in range(len(ids))]
        expected = legacy_grids_csv(ids, profiles, 801)
        grids = tmp_path / "grids.csv"
        with open(grids, "w", encoding="utf-8", newline="") as handle:
            tracemalloc.start()
            try:
                _write_grids(handle, [(sec_id, None, None, None) for sec_id in ids], profiles, 801)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert grids.read_bytes() == expected
        assert peak < 3 * 801 * (1 + len(ids)) * 8, peak

    def test_report_floats_round_trip_at_15_digits(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["analyze", str(FIXTURES / "portfolio3.json"), "--out", str(out)]) == 0
        report = json.loads(out.read_text())

        def floats(node):
            if isinstance(node, float):
                yield node
            elif isinstance(node, dict):
                for child in node.values():
                    yield from floats(child)
            elif isinstance(node, list):
                for child in node:
                    yield from floats(child)

        for value in floats(report):
            assert float(f"{value:.15g}") == value

    def test_module_entry_point(self):
        import subprocess
        import sys

        completed = subprocess.run(
            [sys.executable, "-m", "bpv_effect", "validate", str(FIXTURES / "portfolio3.json")],
            capture_output=True,
            text=True,
        )
        assert completed.returncode == 0
        assert completed.stdout.strip() == "ok"

    def test_degenerate_membership_exits_two(self, tmp_path, capsys):
        dead = simple_security(
            "dead",
            present_value={"type": "grid", "points": [90, 110], "values": [0.0, 0.0]},
        )
        path = write_portfolio(tmp_path, [dead])
        assert main(["analyze", path]) == 2
        err = capsys.readouterr().err
        assert "dead" in err
        assert "degenerate membership" in err

    @pytest.mark.parametrize("flag", ["--out", "--grids-out"])
    def test_unwritable_output_exits_one_with_a_message(self, tmp_path, capsys, flag):
        target = tmp_path / "missing" / "output"
        assert main(["analyze", str(FIXTURES / "portfolio3.json"), flag, str(target)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {target}: ")
        assert all(line.startswith("error: ") for line in err.splitlines())
        assert "Traceback" not in err

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full, where every write fails")
    @pytest.mark.parametrize("command", ["analyze", "validate"])
    @pytest.mark.parametrize("closed", [False, True])
    def test_unwritable_stdout_exits_one_with_a_message(self, command, closed):
        import os
        import subprocess
        import sys

        # buffered stdout, so the write fails at the flush and again at exit unless handled
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        with open("/dev/full", "w") as full:
            completed = subprocess.run(
                [sys.executable, "-m", "bpv_effect", command, str(FIXTURES / "portfolio3.json")],
                stdout=full, stderr=subprocess.PIPE, text=True, env=env,
                preexec_fn=(lambda: os.close(1)) if closed else None,  # a closed stdout makes sys.stdout None
            )
        assert completed.returncode == 1
        assert completed.stderr.startswith("error: cannot write <stdout>: ")
        assert len(completed.stderr.splitlines()) == 1

    @pytest.mark.parametrize("command", ["analyze", "validate"])
    def test_exhausted_memory_exits_two_naming_the_security(self, tmp_path, command):
        import subprocess
        import sys

        resource = pytest.importorskip("resource")
        # 100000 nodes against 20000 knots takes the node view: 801 x 100000
        # doubles (611 MiB) for the fuzzy return, more than the child may map
        points = np.linspace(50.0, 150.0, 20000)
        big = simple_security(
            "big",
            present_value={"type": "grid", "points": points.tolist(),
                           "values": (1.0 - np.abs(points - 100.0) / 50.0).tolist()},
            future_value={"family": "normal", "mean": 100, "sd": 5},
        )
        path = write_portfolio(tmp_path, [big], {"nodes": 100000})
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        completed = subprocess.run(
            [sys.executable, "-m", "bpv_effect", command, path],
            capture_output=True, text=True,
            # as `ulimit -v 1000000`, in the child only
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1_000_000 * 1024, hard)),
        )
        assert completed.returncode == 2
        assert completed.stderr.startswith("error: security 'big': ")
        assert len(completed.stderr.splitlines()) == 1

    @pytest.mark.parametrize("stage", ["build_report", "_write_report"])
    def test_exhausted_memory_in_the_report_stage_exits_two(self, capsys, monkeypatch, stage):
        def exhausted(*args):
            raise MemoryError("Unable to allocate 3.05 GiB for an array with shape (20000, 20000)")

        monkeypatch.setattr(f"bpv_effect.cli.{stage}", exhausted)
        assert main(["analyze", str(FIXTURES / "portfolio3.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot screen 3 securities: Unable to allocate 3.05 GiB")
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("target", ["file", "link"])
    def test_exhausted_memory_while_writing_leaves_no_partial_report(self, tmp_path, capsys, monkeypatch, target):
        # the matrix writer emits the first row of the outranking matrix, then runs out of memory
        def one_row_then_exhausted(rows, handle):
            def first_row(rows):
                yield next(iter(rows))
                raise MemoryError("Unable to allocate 8.00 MiB for an array with shape (1024, 1024)")

            _write_matrix(first_row(rows), handle)

        monkeypatch.setattr("bpv_effect.cli._write_matrix", one_row_then_exhausted)
        out = tmp_path / "report.json"
        if target == "link":  # a link, such as /dev/stdout, is not a regular file and stays
            out.symlink_to(tmp_path / "target.json")
        assert main(["analyze", str(FIXTURES / "portfolio3.json"), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot screen 3 securities: Unable to allocate 8.00 MiB")
        assert len(err.splitlines()) == 1
        if target == "file":
            assert not out.exists()
        else:
            assert out.is_symlink() and '"outranking": [' in (tmp_path / "target.json").read_text()

    @pytest.mark.parametrize("sec_id, overrides, message", PROFILE_FAILURES)
    def test_profile_failure_exits_two_naming_the_security(self, tmp_path, capsys, sec_id, overrides, message):
        # each of these fails only while profiling, after parsing succeeds
        path = write_portfolio(tmp_path, [simple_security(sec_id, **overrides)])
        assert main(["analyze", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: security {sec_id!r}: ")
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [[], ["analyze"], ["analyze", str(FIXTURES / "portfolio3.json"), "--nodes", "16"]],
                             ids=["no_command", "no_portfolio", "unknown_option"])
    def test_usage_error_exits_one(self, capsys, argv):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("usage: ")
        assert captured.out == ""

    def test_validation_failure_exits_one(self, capsys):
        assert main(["analyze", str(FIXTURES / "bad_prob_sum.json")]) == 1
        assert "alpha" in capsys.readouterr().err


# matrix entries: exact zeros of both signs, 1.0, the smallest subnormal and
# other tiny values, values one ulp apart (equal at 15 digits or not), and
# arbitrary ones; drawing from a few per document makes ties common
SPECIAL_ENTRIES = [0.0, -0.0, 1.0, 5e-324, 2.5e-310, 1e-300, 1.0 - 2.0**-53, 0.1, 0.1 + 2.0**-56, 1.0 / 3.0]
entries = (st.sampled_from(SPECIAL_ENTRIES) | st.floats(0.0, 1.0)
           | st.floats(0.0, 1.0).map(lambda x: float(np.nextafter(x, 2.0))))
identifiers = (st.sampled_from(['"quoted"', "back\\slash", "tab\there", "line\nbreak", "\x00", "é", "\u2028", "😀"])
               | st.text(min_size=1, max_size=6))
report_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(SPECIAL_ENTRIES)


@st.composite
def report_documents(draw):
    """Documents shaped like a report: settings, ids, per-security entries and
    two n x n matrices, with n from 1."""
    n = draw(st.integers(1, 6))
    ids = draw(st.lists(identifiers, min_size=n, max_size=n, unique=True))
    pool = draw(st.lists(entries, min_size=1, max_size=5))
    matrix = st.lists(st.sampled_from(pool) | entries, min_size=n * n, max_size=n * n)
    return {
        "schema_version": 1,
        "settings": {"grid_points": draw(st.integers(4, 2**20)), "nodes": 256, "variance_panels": 1024,
                     "truncation": draw(st.lists(report_floats, min_size=2, max_size=2))},
        "ids": ids,
        "securities": [
            {"id": sec_id, "convention": draw(st.sampled_from(["simple", "logarithmic"])),
             **{key: draw(report_floats) for key in ("expected_return", "variance", "energy", "entropy",
                                                     "effectiveness", "strict_effectiveness")}}
            for sec_id in ids
        ],
        "outranking": np.array(draw(matrix)).reshape(n, n),
        "strict_outranking": np.array(draw(matrix)).reshape(n, n),
    }


class TestReportWriter:
    @settings(max_examples=300, deadline=None)
    @given(report_documents())
    def test_bytes_equal_json_dumps_of_the_rounded_document(self, document):
        # the report document is built with its non-array floats rounded; the writer rounds the arrays
        document = {key: value if isinstance(value, np.ndarray) else round15(value) for key, value in document.items()}
        plain = {key: value.tolist() if isinstance(value, np.ndarray) else value for key, value in document.items()}
        buffer = io.StringIO()
        _write_report(document, buffer)
        assert buffer.getvalue() == json.dumps(round15(plain), indent=2, sort_keys=True) + "\n"

    def test_writer_holds_no_square_temporary(self, tmp_path):
        # a 512-security pair of matrices: the writer peaks below one 512 x 512 int64
        # array (about half of it measured here); 1000 distinct entries keep the table
        # of formatted words small
        rng = np.random.default_rng(512)
        n = 512
        pool = rng.uniform(0.0, 1.0, 1000)
        outranking = np.where(rng.random((n, n)) < 0.5, rng.choice(pool, (n, n)), 0.0)
        document = {"ids": [f"s{i:03d}" for i in range(n)], "outranking": outranking,
                    "strict_outranking": np.where(rng.random((n, n)) < 0.5, outranking, 0.0)}
        report = tmp_path / "report.json"
        with open(report, "w", encoding="utf-8") as handle:
            tracemalloc.start()
            try:
                _write_report(document, handle)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        plain = {key: value.tolist() if isinstance(value, np.ndarray) else value for key, value in document.items()}
        assert report.read_text() == json.dumps(round15(plain), indent=2, sort_keys=True) + "\n"
        assert peak < n * n * np.dtype(np.int64).itemsize, peak


# valid one-security portfolios, one per shape and family, that the fuzz
# test below mutates; small settings keep each analyze call to milliseconds
FUZZ_BASES = [
    simple_security("x", future_value={"family": "discrete", "points": [98, 102], "probs": [0.5, 0.5]}),
    simple_security(
        "x", convention="logarithmic",
        present_value={"type": "grid", "points": [85, 95, 108, 118], "values": [0, 0.7, 1, 0]},
        future_value={"family": "lognormal", "log_mean": 4.6, "log_sd": 0.1},
    ),
    simple_security(
        "x", future_value={"family": "normal", "mean": 101, "sd": 5, "truncation": [0.01, 0.99]},
    ),
]
FUZZ_SETTINGS = {"grid_points": 41, "nodes": 16, "variance_panels": 32, "truncation": [0.005, 0.995]}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=8,
)


def _paths(node, prefix=()):
    yield prefix
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, prefix + (key,))


DELETE = object()


def _mutate(doc, path, value):
    """Replace the value at ``path``, or delete it from its object."""
    if not path:
        return None if value is DELETE else value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        if isinstance(parent, dict):
            parent.pop(path[-1], None)
    else:
        parent[path[-1]] = value
    return doc


class TestContractFuzz:
    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_any_json_exits_cleanly_naming_the_security(self, tmp_path_factory, data):
        base = {"schema_version": 1, "settings": FUZZ_SETTINGS, "securities": [data.draw(st.sampled_from(FUZZ_BASES))]}
        doc = json.loads(json.dumps(base))  # a deep copy
        for _ in range(data.draw(st.integers(1, 3))):
            if not isinstance(doc, (dict, list)):
                break
            paths = list(_paths(doc))
            if isinstance(doc, dict) and isinstance(doc.get("securities"), list) and doc["securities"]:
                entry = doc["securities"][0]
                if isinstance(entry, dict) and isinstance(entry.get("future_value"), dict):
                    paths.append(("securities", 0, "future_value", "truncation"))
            path = data.draw(st.sampled_from(paths))
            doc = _mutate(doc, path, data.draw(st.just(DELETE) | json_values))
        block = doc.get("settings") if isinstance(doc, dict) else None
        if isinstance(block, dict):  # huge resolutions only exhaust memory
            for key in ("grid_points", "nodes", "variance_panels"):
                if type(block.get(key)) is int and block[key] > 300:
                    block[key] = 300
        entries = doc.get("securities") if isinstance(doc, dict) else None
        entry = entries[0] if isinstance(entries, list) and entries else None
        sec_id = entry.get("id") if isinstance(entry, dict) else None

        path = tmp_path_factory.mktemp("fuzz") / "portfolio.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        for command in ("validate", "analyze"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, str(path)])
            assert code in (0, 1, 2)
            if code == 0:
                continue
            lines = err.getvalue().splitlines()
            assert lines and all(line.startswith("error:") for line in lines)
            if isinstance(sec_id, str) and sec_id:
                for line in lines:
                    if line.startswith(("error: securities[0]", "error: security ")) and ".id:" not in line:
                        assert repr(sec_id) in line


magnitudes = st.floats(min_value=-300.0, max_value=300.0).map(lambda exponent: 10.0**exponent)


@st.composite
def extreme_securities(draw):
    """A valid-looking security whose corners, normal mean and sd, or atoms lie
    anywhere from 1e-300 to 1e300."""
    corners = sorted(draw(st.lists(magnitudes, min_size=4, max_size=4)))
    if draw(st.booleans()):
        atoms = sorted(set(draw(st.lists(magnitudes, min_size=1, max_size=3))))
        law = {"family": "discrete", "points": atoms, "probs": [1.0 / len(atoms)] * len(atoms)}
    else:
        mean = draw(magnitudes)
        law = {"family": "normal", "mean": mean, "sd": mean * draw(st.floats(min_value=1e-3, max_value=0.3))}
    return {
        "convention": draw(st.sampled_from(["simple", "logarithmic"])),
        "present_value": dict(zip("abcd", corners), type="trapezoid"),
        "future_value": law,
    }


class TestMagnitudeFuzz:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(extreme_securities(), min_size=1, max_size=3))
    def test_extreme_magnitudes_exit_cleanly_in_the_users_terms(self, tmp_path_factory, securities):
        securities = [{"id": f"s{i}", **entry} for i, entry in enumerate(securities)]
        path = tmp_path_factory.mktemp("magnitudes") / "portfolio.json"
        path.write_text(json.dumps({
            "schema_version": 1, "settings": {"grid_points": 201, "nodes": 64, "variance_panels": 256},
            "securities": securities,
        }), encoding="utf-8")
        for command in ("validate", "analyze"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, str(path)])
            assert code in (0, 1, 2)
            lines = err.getvalue().splitlines()
            assert all(line.startswith("error:") and "encountered" not in line for line in lines), lines
            assert bool(lines) == (code != 0)
            if command == "analyze" and code == 0:
                def not_finite(constant):
                    raise AssertionError(f"report holds {constant}")

                json.loads(out.getvalue(), parse_constant=not_finite)
