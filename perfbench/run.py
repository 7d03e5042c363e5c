"""Run a benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py            # all four workloads, untraced

Each workload runs in fresh worker processes (worker.py) with the BLAS
thread count pinned to nproc. Untraced, the set-up (imports, input
generation, one warm-up op) runs SETUP_REPEATS times, in SETUP_REPEATS - 1
processes that stop after it and in the measuring process; setup_s is the
median. The measuring process then runs passes over the workload's fixed
op set, closed loop, while the next pass should end within --seconds, and
reports the median pass time as wall_s. With --trace 1 one process reports the per-layer
metrics instead.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The exit status is 0 only when every
correctness gate held; any gate violation is printed to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("suites_default", "estimate_scale", "ae_fine", "swap_deep")
SETUP_REPEATS = 5
# a run must end within 180 s; this leaves room to stop a stuck worker
DEADLINE_S = 170.0
MAX_PROBLEMS_SHOWN = 20


class BenchmarkError(Exception):
    """The benchmark could not produce a result."""


def pinned_env() -> dict:
    """This process's environment with BLAS threads pinned to nproc.

    Unpinned OpenBLAS has run a 64x64 complex128 matmul in 1.4 ms against
    0.04 ms when pinned to the same 2 threads (2-CPU Linux box); pinning
    keeps that effect out of the numbers.
    POWERTRACE_SEED is dropped because it would override the suites' seeds.
    """
    threads = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
    env.pop("POWERTRACE_SEED", None)
    return env


def run_worker(args, phase: str, deadline: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--size", args.size, "--phase", phase,
    ]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchmarkError(f"{args.workload}: out of time before the {phase} phase")
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=pinned_env(),
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{args.workload}: {phase} phase did not end in time") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise BenchmarkError(f"{args.workload}: {phase} worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(args) -> dict:
    """One workload's result object and its info line (env, passes, raw wall time)."""
    deadline = time.monotonic() + DEADLINE_S
    if args.trace:
        out = run_worker(args, "trace", deadline)
        metrics = out["metrics"]
    else:
        setups = [run_worker(args, "setup", deadline)["setup_s"] for _ in range(SETUP_REPEATS - 1)]
        out = run_worker(args, "run", deadline)
        setups.append(out["setup_s"])
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **out["metrics"]}
    result = {
        "correct": out["correct"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }
    for problem in out["problems"][:MAX_PROBLEMS_SHOWN]:
        print(f"perfbench: {args.workload}: gate failed: {problem}", file=sys.stderr)
    if len(out["problems"]) > MAX_PROBLEMS_SHOWN:
        print(f"perfbench: {args.workload}: {len(out['problems'])} gate failures in all", file=sys.stderr)
    info = {"workload": args.workload, "env": out["env"]}
    info.update((key, out[key]) for key in ("passes", "raw_wall_s", "slowdown", "spans") if key in out)
    return result, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run powertrace benchmark workloads.")
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs each workload at a smoke-test size")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            result, info = run_workload(argparse.Namespace(**{**vars(args), "workload": name}))
            print(json.dumps(info), flush=True)
            if len(names) > 1:
                for metric, entry in result["metrics"].items():
                    print(f"{name:15s} {metric:16s} {entry['value']:.6g} {entry['unit']}", flush=True)
            results[name] = result
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": entry
                        for name, r in results.items() for metric, entry in r["metrics"].items()},
        }
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
