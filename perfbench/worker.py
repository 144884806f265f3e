"""Workload process: drives ``bpv_effect.cli.main`` in-process.

``loop`` runs the in-process workloads as a closed loop with one client.
A first pass analyzes every portfolio once (with ``--grids-out``) to warm
up and to produce the reference report bytes; timed units then cycle over
the portfolios.  With tracing on, untraced and traced passes alternate so
the gap between them gives the tracing overhead.

``once`` runs a single traced ``analyze`` plus ``validate`` in a fresh
interpreter, for the ``cli-cold`` traced run.

Both write their results as JSON files; ``run.py`` does the checking.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

from spans import Tracer

import bpv_effect.cli as cli


def _call(argv: list[str]) -> int:
    """cli.main as a user sees it: its exit code, with a traceback counted as failure."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return int(cli.main(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a traceback is a failed run, reported on stderr
        traceback.print_exc()
        return 1


def _read(path: str) -> bytes | None:
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError:
        return None


def _analyze_argv(portfolio: str, out: str, grids: str | None) -> list[str]:
    argv = ["analyze", portfolio, "--out", out]
    return argv + ["--grids-out", grids] if grids else argv


def loop(args) -> None:
    portfolios = args.portfolios
    first, warm = [], []
    for i, portfolio in enumerate(portfolios):
        out, grids = f"{args.outdir}/first{i:02d}.json", f"{args.outdir}/first{i:02d}.csv"
        start = time.perf_counter()
        code = _call(_analyze_argv(portfolio, out, grids))
        warm.append({"portfolio": i, "seconds": time.perf_counter() - start, "exit": code})
        first.append(_read(out))

    out = f"{args.outdir}/unit.json"
    grids = f"{args.outdir}/unit.csv" if args.grids else None
    tracer = Tracer()
    units: list[dict] = []

    def run_unit(i: int, traced: bool) -> None:
        with contextlib.suppress(FileNotFoundError):
            os.remove(out)  # a unit that writes nothing must not match the last one
        if traced:
            tracer.unit = len(units)
            start = time.perf_counter()
            code = tracer.call("cli.analyze", _call, _analyze_argv(portfolios[i], out, grids))
            seconds = time.perf_counter() - start
            tracer.call("cli.validate", _call, ["validate", portfolios[i]])
        else:
            start = time.perf_counter()
            code = _call(_analyze_argv(portfolios[i], out, grids))
            seconds = time.perf_counter() - start
        units.append({"portfolio": i, "seconds": seconds, "exit": code, "traced": traced,
                      "same_bytes": first[i] is not None and _read(out) == first[i]})

    begin = time.perf_counter()
    if not args.trace:
        k = 0
        # Start a unit only while it is expected to end within the budget.
        while k < args.min_units or time.perf_counter() - begin + _median_seconds(units) <= args.seconds:
            run_unit(k % len(portfolios), traced=False)
            k += 1
    else:
        passes = 0
        while passes < 2 or time.perf_counter() - begin + 2 * _pass_seconds(units, len(portfolios)) <= args.seconds:
            traced = passes % 2 == 1
            if traced:
                tracer.install()
            try:
                for i in range(len(portfolios)):
                    run_unit(i, traced)
            finally:
                tracer.uninstall()
            passes += 1
        tracer.dump(args.spans)
    elapsed = time.perf_counter() - begin

    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump({"warm": warm, "units": units, "elapsed": elapsed,
                   "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}, handle)


def _median_seconds(units: list[dict]) -> float:
    times = sorted(u["seconds"] for u in units)
    return times[len(times) // 2] if times else 0.0


def _pass_seconds(units: list[dict], size: int) -> float:
    return sum(u["seconds"] for u in units[-size:])


def once(args) -> int:
    tracer = Tracer()
    tracer.install()
    code = tracer.call("cli.analyze", _call, args.argv)
    tracer.call("cli.validate", _call, ["validate", args.argv[1]])
    tracer.uninstall()
    tracer.dump(args.spans)
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="mode", required=True)
    p_loop = sub.add_parser("loop")
    p_loop.add_argument("--outdir", required=True)
    p_loop.add_argument("--seconds", type=float, required=True)
    p_loop.add_argument("--min-units", type=int, required=True)
    p_loop.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p_loop.add_argument("--grids", type=int, choices=(0, 1), required=True)
    p_loop.add_argument("--result", required=True)
    p_loop.add_argument("--spans", required=True)
    p_loop.add_argument("portfolios", nargs="+")
    p_once = sub.add_parser("once")
    p_once.add_argument("--spans", required=True)
    p_once.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    if args.mode == "loop":
        loop(args)
        return 0
    return once(args)


if __name__ == "__main__":
    sys.exit(main())
