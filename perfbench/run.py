#!/usr/bin/env python3
"""Benchmark for bpv-effect: cold CLI calls, batch profiling and pairwise screening.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cli-cold --seed 1 --seconds 20 --trace 0

The run writes seeded portfolios, measures the set-up time of a fresh
``import bpv_effect``, runs the workload as a closed loop with one client
for ``--seconds``, checks every report (exit code, bytes, and accuracy
against ``reference.py`` in a child process), and prints a summary followed
by one JSON line.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates traced and untraced units and
reports the per-layer metrics.  Files go to ``.perfbench_run/`` in the
checkout.  See README.md for the workloads, metrics and references.
"""

import argparse
import contextlib
import importlib.metadata
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time

import portfolios
import spans

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
# numpy's mat-vecs in rho and the variance may use several BLAS threads; one
# thread keeps runs comparable on a shared 2-core machine.  The setting is
# recorded with every result and must match on both sides of a comparison.
BLAS_THREADS = "1"
BLAS = {name: BLAS_THREADS for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
MIN_UNITS = {"cli-cold": 5, "batch-profiles": 64, "screen-pairwise": 2}
# Accuracy gates: a report whose error exceeds one of these fails.  They sit
# 4 to 8 times above the largest error seen over 10 to 30 seeds per workload
# at the commit that introduced the benchmark (README.md lists them).
GATES = {"variance_rel_err.max": 5e-3, "rho_sup_err.max": 4e-2, "dominance_abs_err.max": 2e-2}
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _spec:
    _SPEC = json.load(_spec)
WORKLOADS = [w["name"] for w in _SPEC["workloads"]]
END_TO_END_UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}
# Per-layer metric -> (span names, "self" or "total" time); values are per unit.
SPAN_METRICS = {
    "distribution.make_nodes_s": (("distribution.make_nodes",), "self"),
    "returns.spanning_s": (("returns.spanning",), "self"),
    "returns.rho_s": (("returns.rho",), "self"),
    "returns.center_s": (("returns.center",), "self"),
    "returns.variance_s": (("returns.variance",), "self"),
    "membership.energy_entropy_s": (("membership.energy", "membership.entropy"), "self"),
    "membership.dominance_s": (("membership.dominance",), "total"),
    "effectiveness.build_report.self_s": (("effectiveness.build_report",), "self"),
    "cli.parse_s": (("cli.validate",), "total"),
    "cli.self_s": (("cli.analyze",), "self"),
}


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=SRC, **BLAS)


def fresh_import_seconds() -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import bpv_effect"], env=child_env(), check=True)
    return time.perf_counter() - start


def import_times() -> dict:
    """Cumulative import time of each top-level package, from ``-X importtime``."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import bpv_effect"],
                          env=child_env(), check=True, capture_output=True, text=True)
    entries = []
    for line in proc.stderr.splitlines():
        match = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( +)(\S+)", line)
        if match:
            entries.append((len(match.group(2)), match.group(3).split(".")[0], int(match.group(1))))
    totals = {"bpv_effect": 0.0, "scipy": 0.0, "numpy": 0.0}
    ancestors: list[tuple[int, str]] = []
    # Lines come children first; reversed, each entry follows its ancestors.
    for indent, package, cumulative in reversed(entries):
        while ancestors and ancestors[-1][0] >= indent:
            ancestors.pop()
        if package in totals and all(p != package for _, p in ancestors):
            totals[package] += cumulative / 1e6
        ancestors.append((indent, package))
    return totals


def environment() -> dict:
    def version(name):
        try:
            return importlib.metadata.version(name)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "blas_threads": BLAS_THREADS, "machine": platform.machine()}


def read_bytes(path: str):
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError:
        return None


# --------------------------------------------------------------------------- cli-cold


def cold_unit(argv: list[str], spans_path: str | None = None) -> dict:
    """One fresh interpreter running the CLI; wall time, exit code and peak RSS."""
    if spans_path is None:
        command = [sys.executable, "-m", "bpv_effect", *argv]
    else:
        command = [sys.executable, os.path.join(BENCH, "worker.py"), "once", "--spans", spans_path, *argv]
    start = time.perf_counter()
    proc = subprocess.Popen(command, env=child_env(), stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"seconds": seconds, "exit": proc.returncode, "peak_rss_kb": usage.ru_maxrss}


def run_cold(paths: list[str], workdir: str, seconds: float, trace: bool) -> dict:
    portfolio = paths[0]
    first_out, first_grids = os.path.join(workdir, "first00.json"), os.path.join(workdir, "first00.csv")
    warm = cold_unit(["analyze", portfolio, "--out", first_out, "--grids-out", first_grids])
    first = read_bytes(first_out)
    out = os.path.join(workdir, "unit.json")
    units: list[dict] = []
    span_files: list[tuple[int, str]] = []
    begin = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - begin
        if len(units) >= MIN_UNITS["cli-cold"] and elapsed + statistics.median(u["seconds"] for u in units) > seconds:
            break
        traced = trace and len(units) % 2 == 1
        spans_path = os.path.join(workdir, f"spans{len(units):03d}.json") if traced else None
        with contextlib.suppress(FileNotFoundError):
            os.remove(out)  # a unit that writes nothing must not match the last one
        unit = cold_unit(["analyze", portfolio, "--out", out], spans_path)
        unit.update(portfolio=0, traced=traced, same_bytes=first is not None and read_bytes(out) == first)
        if traced:
            span_files.append((len(units), spans_path))
        units.append(unit)
    elapsed = time.perf_counter() - begin
    spans_all, absent = [], []
    for unit_index, path in span_files:
        with open(path, encoding="utf-8") as handle:
            dumped = json.load(handle)
        offset = len(spans_all)
        for name, _, start, end, parent in dumped["spans"]:
            spans_all.append([name, unit_index, start, end, parent + offset if parent >= 0 else -1])
        absent = dumped["absent"]
    if trace:
        spans.write(os.path.join(workdir, "spans.json"), spans_all, absent)
    return {"warm": [dict(warm, portfolio=0)], "units": units, "elapsed": elapsed,
            "peak_rss_kb": max(u["peak_rss_kb"] for u in units if not u["traced"])}


# --------------------------------------------------------------------------- in-process


def run_in_process(workload: str, paths: list[str], workdir: str, seconds: float, trace: bool) -> dict:
    result_path = os.path.join(workdir, "worker.json")
    command = [sys.executable, os.path.join(BENCH, "worker.py"), "loop", "--outdir", workdir,
               "--seconds", str(seconds), "--min-units", str(MIN_UNITS[workload]),
               "--trace", str(int(trace)), "--grids", str(int(workload == "batch-profiles")),
               "--result", result_path, "--spans", os.path.join(workdir, "spans.json"), *paths]
    subprocess.run(command, env=child_env(), check=True)
    with open(result_path, encoding="utf-8") as handle:
        return json.load(handle)


def accuracy(workload: str, seed: int, workdir: str) -> dict | None:
    """Errors of the first reports against the references, in a child process.

    The references need a few hundred MB at peak; a child keeps that out of
    this process, whose size every spawned child inherits in its maximum RSS
    figure.
    """
    subprocess.run([sys.executable, os.path.join(BENCH, "reference.py"), workdir, workload, str(seed)],
                   env=child_env(), check=True)
    with open(os.path.join(workdir, "accuracy.json"), encoding="utf-8") as handle:
        return json.load(handle)


# --------------------------------------------------------------------------- metrics


def percentile_90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def computed_counts(documents: list[dict]) -> tuple[float, float]:
    """rho state evaluations and variance kernel evaluations per unit.

    grid_points x nodes and 2 x (panels + 1) x nodes per security, where a
    discrete law contributes its atoms and a continuous one ``nodes``.
    """
    state = kernel = 0
    for document in documents:
        settings = document["settings"]
        for security in document["securities"]:
            law = security["future_value"]
            nodes = len(law["points"]) if law["family"] == "discrete" else settings["nodes"]
            state += settings["grid_points"] * nodes
            kernel += 2 * (settings["variance_panels"] + 1) * nodes
    return state / len(documents), kernel / len(documents)


def per_layer(run: dict, documents: list[dict], workdir: str, imports: dict) -> tuple[dict, list[str]]:
    with open(os.path.join(workdir, "spans.json"), encoding="utf-8") as handle:
        dumped = json.load(handle)
    absent = dumped["absent"]
    totals = spans.unit_totals(dumped["spans"])
    traced = [u for u in run["units"] if u["traced"]]
    untraced = [u for u in run["units"] if not u["traced"]]
    traced_ids = [k for k, u in enumerate(run["units"]) if u["traced"]]
    # Times: median over traced units.  Counts: the first traced pass.
    per_unit = [totals.get(k, {}) for k in traced_ids]
    first_pass = per_unit[: len(documents)]
    values = {}
    for metric, (names, kind) in SPAN_METRICS.items():
        values[metric] = statistics.median(
            sum(unit.get(name, {}).get(kind, 0.0) for name in names) for unit in per_unit)

    def calls(name):
        return sum(unit.get(name, {}).get("calls", 0) for unit in first_pass) / len(first_pass)

    values["distribution.make_nodes.calls"] = calls("distribution.make_nodes")
    dominance_calls = calls("membership.dominance")
    values["membership.dominance.calls"] = dominance_calls
    dominance_time = statistics.median(u.get("membership.dominance", {}).get("total", 0.0) for u in per_unit)
    dominance_per_unit = statistics.median(u.get("membership.dominance", {}).get("calls", 0) for u in per_unit)
    values["membership.dominance.us_per_call"] = (
        dominance_time / dominance_per_unit * 1e6 if dominance_per_unit else 0.0)
    useful = 0
    for p in range(len(documents)):
        report = json.loads(read_bytes(os.path.join(workdir, f"first{p:02d}.json")))
        variance = [s["variance"] for s in report["securities"]]
        useful += sum(1 for a in variance for b in variance if a <= b)
    values["effectiveness.dominance_useful_ratio"] = (
        useful / (dominance_calls * len(documents)) if dominance_calls else 0.0)
    state, kernel = computed_counts(documents)
    values["returns.rho.state_evals"] = state
    values["returns.variance.kernel_evals"] = kernel
    values["trace.overhead_s"] = (statistics.median(u["seconds"] for u in traced)
                                  - statistics.median(u["seconds"] for u in untraced))
    values.update({f"import.{name}_s": seconds for name, seconds in imports.items()})
    metric_spans = {m: names for m, (names, _) in SPAN_METRICS.items()}
    metric_spans.update({"distribution.make_nodes.calls": ("distribution.make_nodes",),
                         "membership.dominance.calls": ("membership.dominance",),
                         "membership.dominance.us_per_call": ("membership.dominance",),
                         "effectiveness.dominance_useful_ratio": ("membership.dominance",)})
    missing = [m for m, names in metric_spans.items() if all(n in absent for n in names)]
    for metric in missing:
        values[metric] = 0.0
    return values, missing


# --------------------------------------------------------------------------- main


def failures(run: dict, accurate: bool) -> dict:
    """Failed units by cause; an inaccurate first report fails every unit."""
    everything = run["warm"] + run["units"]
    causes = {"exit": sum(1 for u in everything if u["exit"] != 0),
              "bytes": sum(1 for u in run["units"] if not u["same_bytes"])}
    failed = sum(1 for u in everything if u["exit"] != 0 or not u.get("same_bytes", True))
    causes["accuracy"] = 0 if accurate else len(everything)
    return {"attempted": len(everything), "failed": len(everything) if not accurate else failed,
            "causes": causes}


def end_to_end(run: dict, documents: list[dict], setup: list[float], errors: dict) -> dict:
    timed = [u["seconds"] for u in run["units"]]
    securities = sum(len(documents[u["portfolio"]]["securities"]) for u in run["units"])
    values = {"setup_s": statistics.median(setup), "run_s.p50": statistics.median(timed),
              "run_s.p90": percentile_90(timed), "securities_per_s": securities / run["elapsed"],
              "peak_rss_mb": run["peak_rss_kb"] / 1024.0}
    values.update(errors)
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "bpv_effect", "__init__.py")):
        print(f"error: no package source at {SRC}; run from the root of a bpv-effect checkout",
              file=sys.stderr)
        return 2
    trace = bool(args.trace)
    workdir = os.path.join(ROOT, ".perfbench_run", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    paths = portfolios.write(args.workload, args.seed, workdir)
    panel = os.path.join(workdir, "panel")
    os.makedirs(panel)
    panel_path, = portfolios.write("panel", args.seed, panel)
    documents = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            documents.append(json.load(handle))
    if trace:
        samples = [import_times() for _ in range(IMPORTTIME_REPEATS)]
        imports = {name: statistics.median(s[name] for s in samples) for name in samples[0]}
    else:
        setup = [fresh_import_seconds() for _ in range(SETUP_REPEATS)]
    # The fixed accuracy panel goes through the CLI as a user would call it.
    cold_unit(["analyze", panel_path, "--out", os.path.join(panel, "first00.json"),
               "--grids-out", os.path.join(panel, "first00.csv")])
    if args.workload == "cli-cold":
        run = run_cold(paths, workdir, args.seconds, trace)
    else:
        run = run_in_process(args.workload, paths, workdir, args.seconds, trace)

    checked = accuracy(args.workload, args.seed, workdir)
    # A missing first report reads as error 1.0, which fails its gate.
    checked = {part: errors or {name: 1.0 for name in GATES} for part, errors in checked.items()}
    accurate = all(errors[name] <= gate for errors in checked.values() for name, gate in GATES.items())
    errors = checked["panel"]
    counts = failures(run, accurate)
    if trace:
        metrics, absent = per_layer(run, documents, workdir, imports)
        units = PER_LAYER_UNITS
    else:
        metrics, absent = end_to_end(run, documents, setup, errors), []
        units = END_TO_END_UNITS
    env = environment()
    result = {"correct": counts["failed"] == 0, "attempted": counts["attempted"], "failed": counts["failed"],
              "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}}

    samples_note = f"{len(run['units'])} timed units" + (
        f" ({sum(u['traced'] for u in run['units'])} traced)" if trace else "")
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: {samples_note}, "
          f"1 client, closed loop, {run['elapsed']:.1f} s measured")
    for name, unit in units.items():
        note = " (absent)" if name in absent else ""
        print(f"  {name:38s} {metrics[name]:.6g} {unit}{note}")
    print(f"  {'failed_ratio':38s} {counts['failed'] / counts['attempted']:.6g} 1 "
          f"({counts['failed']}/{counts['attempted']}; causes {counts['causes']})")
    for name, gate in GATES.items():
        print(f"  accuracy {name}: panel {checked['panel'][name]:.3e}, "
              f"seeded inputs {checked['seeded'][name]:.3e} (gate {gate:g})")
    print("  environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    with open(os.path.join(workdir, "result.json"), "w", encoding="utf-8") as handle:
        json.dump({**result, "workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "failed_ratio": counts["failed"] / counts["attempted"], "failure_causes": counts["causes"],
                   "accuracy": checked, "gates": GATES, "absent": absent, "environment": env,
                   "samples": len(run["units"]), "composition": portfolios.COMPOSITION[args.workload],
                   "computed_counts": ["returns.rho.state_evals", "returns.variance.kernel_evals",
                                       "membership.dominance.calls",
                                       "effectiveness.dominance_useful_ratio"]}, handle, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
