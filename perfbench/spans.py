"""In-memory span tracing installed from outside the package.

Hooks replace public functions by attribute patching, so no file under
``src/`` changes.  ``profile`` and ``build_report`` look their helpers up
as module globals at call time, which is why the hooks patch attributes of
``bpv_effect.returns`` and ``bpv_effect.effectiveness``, the method on the
``FutureValueDist`` class, and the names ``bpv_effect.cli`` imported.  A
target that no longer exists is recorded as absent and skipped.
"""

import importlib
import json
import time

# span name -> (module, attribute path) of the function it wraps
HOOKS = {
    "returns.profile": ("bpv_effect.cli", "profile"),
    "effectiveness.build_report": ("bpv_effect.cli", "build_report"),
    "distribution.make_nodes": ("bpv_effect.distribution", "FutureValueDist.make_nodes"),
    "returns.spanning": ("bpv_effect.returns", "ReturnGrid.spanning"),
    "returns.rho": ("bpv_effect.returns", "expected_return_distribution"),
    "returns.center": ("bpv_effect.returns", "expected_return"),
    "returns.variance": ("bpv_effect.returns", "return_variance"),
    "membership.energy": ("bpv_effect.returns", "energy_measure"),
    "membership.entropy": ("bpv_effect.returns", "entropy_measure"),
    "membership.dominance": ("bpv_effect.effectiveness", "dominance"),
}


class Tracer:
    """Records (name, unit, start, end, parent) spans; parent is a span index or -1."""

    def __init__(self):
        self.spans: list[list] = []
        self.unit = 0
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self.absent: list[str] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.unit, time.perf_counter(), None, parent])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        index = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(index)

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def install(self) -> None:
        self.absent = []
        for name, (module_name, path) in HOOKS.items():
            owner = importlib.import_module(module_name)
            *parents, attribute = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            raw = vars(owner).get(attribute) if owner is not None else None
            if raw is None:
                self.absent.append(name)
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                replacement = type(raw)(self._wrap(name, raw.__func__))
            else:
                replacement = self._wrap(name, raw)
            setattr(owner, attribute, replacement)
            self._patched.append((owner, attribute, raw))

    def uninstall(self) -> None:
        for owner, attribute, raw in reversed(self._patched):
            setattr(owner, attribute, raw)
        self._patched = []

    def dump(self, path: str) -> None:
        write(path, self.spans, self.absent)


def write(path: str, spans: list[list], absent: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"absent": absent, "fields": ["name", "unit", "start", "end", "parent"],
                   "spans": spans}, handle)


def unit_totals(spans: list[list]) -> dict:
    """Per unit and span name: summed duration, summed self time and call count.

    Self time is a span's duration minus the durations of its direct
    children; spans of one unit never overlap except by nesting.
    """
    child_time = [0.0] * len(spans)
    for name, unit, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict = {}
    for index, (name, unit, start, end, parent) in enumerate(spans):
        entry = totals.setdefault(unit, {}).setdefault(name, {"total": 0.0, "self": 0.0, "calls": 0})
        entry["total"] += end - start
        entry["self"] += end - start - child_time[index]
        entry["calls"] += 1
    return totals
