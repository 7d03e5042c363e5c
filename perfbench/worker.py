"""One workload in one process; run.py starts it and reads its last stdout line.

Phases:
  setup  build the inputs, run the warm-up op, report setup_s and exit;
  run    the same set-up, then timed passes over the op set for as long
         as the next pass should end within --seconds (at least one);
         reports the end-to-end metrics;
  trace  the same set-up with input generation traced, then an untraced,
         a traced, an untraced and a tracemalloc pass; reports the
         per-layer metrics and writes the spans to .perfbench/.

setup_s runs from --spawned-at (the starting process's time.monotonic(),
a system-wide clock on Linux) to the first timed op.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
SETUP_OP = -1
PROBE_REF_S = {"python": 0.0025, "blas": 0.0052, "memory": 0.021}


def _import_program():
    """Import powertrace from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import powertrace
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import powertrace from {src}: {exc}")
    if Path(powertrace.__file__).resolve().parent != src / "powertrace":
        raise SystemExit(f"perfbench: powertrace came from {powertrace.__file__}, not {src}")
    return powertrace


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}",
    }


@dataclass
class Tally:
    """Outcomes of the ops run so far, and every gate violation seen."""

    attempted: int = 0
    completed: int = 0
    failed: int = 0
    reach_n: int = 0
    estimates: int = 0
    within_eps: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, outcomes, powertrace) -> None:
        for op, result, exc in outcomes:
            self.attempted += 1
            if exc is not None:
                # a refusable op refused by the qubit cap just did not complete
                if not (op.refusable and isinstance(exc, powertrace.ResourceError)):
                    self.failed += 1
                    self.problems.append(f"{type(exc).__name__}: {exc}")
                continue
            problems = op.check(result)
            if problems:
                self.failed += 1
                self.problems.extend(problems)
                continue
            self.completed += 1
            self.reach_n = max(self.reach_n, op.n)
            within = op.within_eps(result)
            if within is not None:
                self.estimates += 1
                self.within_eps += within

    def close(self, threshold: float) -> None:
        """Apply the workload-wide within-eps gate."""
        if self.estimates and self.within_eps / self.estimates < threshold:
            self.problems.append(
                f"within-eps fraction {self.within_eps}/{self.estimates} is below {threshold:.4f}"
            )


class SpeedProbe:
    """Times three fixed kernels between the ops of a run.

    On a machine whose cores are shared with other work, the CPU's speed
    drifts. On the 2-CPU Linux box where the benchmark was defined it
    drifted by up to 25% over seconds, which moved the raw pass times of
    identical runs by 13-25% (IQR over median). Dividing by the probe's
    slowdown, measured over the same stretch of time, about halved that
    spread. The kernels cover the program's three cost profiles:
    interpreter work, a BLAS product on the pinned threads, and a
    memory-bound array pass. PROBE_REF_S holds their medians on that box.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._matrix = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
        self._array = rng.standard_normal(2 ** 20)
        self.samples: dict[str, list[float]] = {kernel: [] for kernel in PROBE_REF_S}

    def sample(self) -> None:
        t0 = time.perf_counter()
        total = 0
        for i in range(30_000):
            total += i * i
        t1 = time.perf_counter()
        for _ in range(3):
            self._matrix @ self._matrix
        t2 = time.perf_counter()
        float(np.sin(self._array).sum())
        t3 = time.perf_counter()
        for kernel, seconds in zip(PROBE_REF_S, (t1 - t0, t2 - t1, t3 - t2)):
            self.samples[kernel].append(seconds)

    def slowdown(self) -> float:
        """Mean over the kernels of median time over reference time."""
        return statistics.fmean(
            statistics.median(times) / PROBE_REF_S[kernel] for kernel, times in self.samples.items()
        )


def run_pass(ops, pass_index: int, powertrace, tracer=None, probe=None):
    """Run each op once, closed loop; returns (summed op seconds, outcomes).

    With a probe, a probe sample precedes every op and follows the last.
    """
    outcomes = []
    busy = 0.0
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = index
        if probe is not None:
            probe.sample()
        start = time.perf_counter()
        try:
            outcomes.append((op, op.run(pass_index), None))
        except powertrace.PowertraceError as exc:
            outcomes.append((op, None, exc))
        busy += time.perf_counter() - start
    if probe is not None:
        probe.sample()
    return busy, outcomes


def measure(name: str, seed: int, seconds: float, size: str, phase: str, spawned_at: float) -> dict:
    powertrace = _import_program()
    import workloads
    from tracer import Tracer

    tracer = Tracer() if phase == "trace" else None
    WORK.mkdir(exist_ok=True)
    workdir = str(WORK / f"{name}-{os.getpid()}")
    if tracer is not None:
        tracer.op_id = SETUP_OP
        tracer.install()
    workload = workloads.WORKLOADS[name](seed, size, workdir)
    if tracer is not None:
        tracer.uninstall()
    try:
        tally = Tally()
        # warm-up: the first op once, untimed; gates apply, counts do not
        warm = Tally()
        warm.record(run_pass(workload.ops[:1], 0, powertrace)[1], powertrace)
        workload.end_pass(0)
        setup_s = time.monotonic() - spawned_at
        if phase == "setup":
            return {"setup_s": setup_s}
        result = {"setup_s": setup_s, "env": environment()}
        if phase == "run":
            probe = SpeedProbe()
            walls = []
            start = next_end = time.perf_counter()
            # another pass only if, as long as the last one, it ends within --seconds
            while not walls or next_end - start <= seconds:
                pass_start = time.perf_counter()
                pass_index = len(walls) + 1
                wall, outcomes = run_pass(workload.ops, pass_index, powertrace, probe=probe)
                walls.append(wall)
                tally.record(outcomes, powertrace)
                workload.end_pass(pass_index)
                now = time.perf_counter()
                next_end = now + (now - pass_start)
            result.update(passes=len(walls), raw_wall_s=statistics.median(walls),
                          slowdown=probe.slowdown())
            metrics = {
                "wall_s": (result["raw_wall_s"] / result["slowdown"], "s"),
                "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
                "completed_frac": (tally.completed / tally.attempted, "ratio"),
                "reach_n": (tally.reach_n, "qubits"),
            }
        else:
            # pass 1 settles first-touch costs; the overhead compares passes 2 and 3
            walls = {}
            for pass_index, mode in enumerate((None, "time", None, "memory"), start=1):
                if mode is not None:
                    tracer.mode = mode
                    tracer.install()
                if mode == "memory":
                    tracemalloc.start()
                try:
                    walls[pass_index], outcomes = run_pass(workload.ops, pass_index, powertrace, tracer)
                finally:
                    if mode == "memory":
                        tracemalloc.stop()
                    tracer.uninstall()
                if mode == "time":
                    tracer.counts["suites.bytes_written"] = workloads.output_bytes(r for _, r, _ in outcomes)
                tally.record(outcomes, powertrace)
                workload.end_pass(pass_index)
            metrics = tracer.per_layer_metrics(untraced_wall=walls[3], traced_wall=walls[2])
            spans = WORK / f"spans-{name}-seed{seed}.json"
            tracer.write_spans(spans, result["env"])
            result["spans"] = str(spans.relative_to(ROOT))
        tally.close(workloads.WITHIN_EPS_THRESHOLD)
        problems = warm.problems + tally.problems
        result.update(
            correct=not problems,
            attempted=tally.attempted,
            failed=tally.failed + warm.failed,
            problems=problems,
            metrics={key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
        )
        return result
    finally:
        workload.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--phase", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--spawned-at", type=float, default=None)
    args = parser.parse_args(argv)
    spawned_at = time.monotonic() if args.spawned_at is None else args.spawned_at
    result = measure(args.workload, args.seed, args.seconds, args.size, args.phase, spawned_at)
    print(json.dumps(result), flush=True)
    return 0 if result.get("correct", True) else 1


if __name__ == "__main__":
    sys.exit(main())
