"""Spans and counts at powertrace's module boundaries, recorded from outside
the package.

``Tracer.install`` replaces each function listed in ``layers.json`` by a
wrapper, on every powertrace module that binds it (``qsvt`` imports
``density_block_encoding`` from ``blockenc``, for instance), so calls made
inside the package are caught too. ``DensityMatrix`` construction is
caught through its ``__post_init__`` validation.

In "time" mode a wrapper records a span (id, parent id, op id, name, start,
end) in memory, adds the span's duration minus its direct children's to the
function's self time, and feeds the computed counts. In "memory" mode only
the heavy spans are tracked, by tracemalloc peak; that pass is separate so
that tracemalloc's cost never reaches a self time.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

MIB = 2 ** 20

LAYERS = json.loads(Path(__file__).with_name("layers.json").read_text())["layers"]


def _dilation_mib(be) -> float:
    dilation = getattr(be, "dilation", None)
    return 0.0 if dilation is None else dilation.nbytes / MIB


# Computed counts: functions of a call's result that repeat exactly. An
# attribute a later version drops (no dilation, no bookkeeping path, no
# surrogate mode) reads as the construction being absent.
_OBSERVERS = {
    "blockenc.density_block_encoding": lambda c, r: c.add("blockenc.dilation_mib", _dilation_mib(r)),
    "blockenc.be_product": lambda c, r: c.add("blockenc.dilation_mib", _dilation_mib(r)),
    "blockenc.halmos_dilate": lambda c, r: c.add("blockenc.dilation_mib", r.nbytes / MIB),
    "estimator.amplitude_estimate": lambda c, r: c.add("estimator.ae_grid_sum", r.grid_size_K),
    "estimator.estimate_trace_power": lambda c, r: (
        c.add("estimator.u_rho_queries_sum", r.u_rho_queries_total),
        c.add("estimates", 1),
        c.add("bookkeeping_estimates", getattr(r, "circuit_path", None) == "bookkeeping"),
    ),
    "qsvt.power_block_encoding": lambda c, r: c.add("qsvt.poly_degree_sum", r[1].poly_degree),
    "bounds.swap_test_estimate": lambda c, r: (
        c.add("swap_tests", 1),
        c.add("exact_swap_tests", getattr(r, "mode", "exact") == "exact"),
    ),
}


class Counts(defaultdict):
    def __init__(self):
        super().__init__(float)

    def add(self, key: str, value) -> None:
        self[key] += value


class Tracer:
    def __init__(self):
        self.mode = "time"
        self.op_id = -1
        self.spans: list[tuple] = []
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.peak_mib: defaultdict[str, float] = defaultdict(float)
        self.counts = Counts()
        self._heavy = {f"{m}.{f}" for m, spec in LAYERS.items() for f in spec.get("heavy", [])}
        self._stack: list[list] = []  # [span id, child seconds] per open span
        self._mem_stack: list[list] = []  # [traced bytes at entry, peak bytes] per open heavy span
        self._next_id = 0
        self._patches: list[tuple] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "powertrace" or name.startswith("powertrace.")]
        for module, spec in LAYERS.items():
            if not spec.get("functions"):
                continue
            home = sys.modules[f"powertrace.{module}"]
            for fn in spec["functions"]:
                name = f"{module}.{fn}"
                original = getattr(home, fn, None)
                if original is None:  # removed from the package: reports 0 calls
                    continue
                if isinstance(original, type):  # a class: trace its validation
                    if hasattr(original, "__post_init__"):
                        self._patch(original, "__post_init__", self._wrap(name, original.__post_init__))
                    continue
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, name: str, fn):
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.mode == "memory":
                if name in self._heavy:
                    return self._call_memory(name, fn, args, kwargs)
                return fn(*args, **kwargs)
            result = self._call_timed(name, fn, args, kwargs)
            if observe is not None:
                observe(self.counts, result)
            return result

        return wrapper

    # -- recording --------------------------------------------------------

    def _call_timed(self, name, fn, args, kwargs):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        frame = [span_id, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            if parent is not None:
                parent[1] += duration
            self.calls[name] += 1
            self.self_s[name] += duration - frame[1]
            self.spans.append(
                (span_id, -1 if parent is None else parent[0], self.op_id, name, start, end)
            )

    def _call_memory(self, name, fn, args, kwargs):
        current, peak = tracemalloc.get_traced_memory()
        if self._mem_stack:
            self._mem_stack[-1][1] = max(self._mem_stack[-1][1], peak)
        tracemalloc.reset_peak()
        frame = [current, current]
        self._mem_stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            frame[1] = max(frame[1], tracemalloc.get_traced_memory()[1])
            self._mem_stack.pop()
            if self._mem_stack:
                self._mem_stack[-1][1] = max(self._mem_stack[-1][1], frame[1])
            self.peak_mib[name] = max(self.peak_mib[name], (frame[1] - frame[0]) / MIB)

    # -- results ----------------------------------------------------------

    def top_level_seconds(self) -> float:
        """Time in top-level spans of pass ops (set-up spans excluded)."""
        return sum(end - start for _, parent, op, _, start, end in self.spans
                   if parent == -1 and op >= 0)

    def per_layer_metrics(self, untraced_wall: float, traced_wall: float) -> dict:
        """Every per-layer metric, in layers.json order, as {name: (value, unit)}."""
        counts = self.counts
        derived = {
            "estimator.bookkeeping_frac": _ratio(counts["bookkeeping_estimates"], counts["estimates"]),
            "bounds.swap_exact_frac": _ratio(counts["exact_swap_tests"], counts["swap_tests"]),
            "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
            "trace.coverage_frac": self.top_level_seconds() / traced_wall,
        }
        metrics = {}
        for module, spec in LAYERS.items():
            for fn in spec.get("functions", []):
                name = f"{module}.{fn}"
                metrics[f"{name}.calls"] = (self.calls[name], "count")
                metrics[f"{name}.self_s"] = (self.self_s[name], "s")
            for fn in spec.get("heavy", []):
                metrics[f"{module}.{fn}.peak_mib"] = (self.peak_mib[f"{module}.{fn}"], "MiB")
            for count, cspec in spec.get("counts", {}).items():
                name = f"{module}.{count}"
                metrics[name] = (derived[name] if name in derived else counts[name], cspec["unit"])
        return metrics

    def write_spans(self, path: Path, env: dict) -> None:
        """Write every span; op -1 marks input generation, times are perf_counter seconds."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"env": env, "fields": ["id", "parent", "op", "name", "start_s", "end_s"],
                       "spans": self.spans}, fh)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
