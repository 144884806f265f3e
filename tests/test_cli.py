import json
from pathlib import Path

import numpy as np
import pytest

from bpv_effect.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def write_portfolio(tmp_path, securities, settings=None, name="portfolio.json"):
    doc = {"schema_version": 1, "securities": securities}
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

    def test_report_to_stdout_by_default(self, tmp_path, capsys):
        path = write_portfolio(tmp_path, [simple_security()])
        assert main(["analyze", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ids"] == ["one"]
        assert report["securities"][0]["effectiveness"] == 1.0
        assert report["securities"][0]["strict_effectiveness"] == 1.0

    def test_flags_override_and_echo(self, tmp_path, capsys):
        path = write_portfolio(tmp_path, [simple_security()], settings={"grid_points": 501})
        assert main([
            "analyze", path,
            "--grid-points", "101", "--nodes", "16", "--variance-panels", "64",
            "--truncation", "0.01,0.99",
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["settings"] == {
            "grid_points": 101, "nodes": 16, "variance_panels": 64, "truncation": [0.01, 0.99],
        }

    def test_settings_block_without_flags(self, tmp_path, capsys):
        path = write_portfolio(tmp_path, [simple_security()], settings={"grid_points": 201, "nodes": 32})
        assert main(["analyze", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["settings"]["grid_points"] == 201
        assert report["settings"]["nodes"] == 32
        assert report["settings"]["variance_panels"] == 1024

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

    def test_validation_failure_exits_one(self, capsys):
        assert main(["analyze", str(FIXTURES / "bad_prob_sum.json")]) == 1
        assert "alpha" in capsys.readouterr().err
