"""Reach of one estimate: set-up and estimate wall time, and peak traced
memory, for n = 1..10 system qubits.

Each row is one full-rank instance (k = 16, eps = 0.05, random Hermitian O,
seed = n), measured ``RUNS`` = 5 times; each column is the median of its 5
values, since single runs spike. A run records ``runs_per_row``; rows of a
run without it are single runs. The columns:

- ``observable_s``: wall time of ``make_observable`` (rows recorded before
  this column existed lack it);
- ``setup_s``: wall time of ``make_state`` + ``purify``;
- ``estimate_s``: wall time of one ``estimate_trace_power`` on that
  purification;
- ``tracemalloc_peak_mib``: the ``tracemalloc`` peak over the same set-up
  and estimate, run again under tracing so that tracing never reaches a
  timing;
- ``setup_peak_mib``: the part of that traced run's peak reached during
  ``make_state`` + ``purify``;
- ``estimate_peak_mib``: the peak during the estimate, above what set-up
  left allocated (``tracemalloc.reset_peak`` between the two stages).
  Rows recorded before these two columns existed lack them.

The powertrace that is measured is the one in this checkout's ``src/``.
Results are stored under ``--label`` in the output file, next to the runs
already there, so several versions of the package can be recorded in one
file. The file is append-only: a label it already holds is refused (exit 2)
before anything is measured, and the file is left as it was:

    python3 benchmarks/estimator_reach.py --label after
    python3 benchmarks/estimator_reach.py --label after --max-n 7 --out /tmp/reach.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import powertrace as pt  # noqa: E402

K = 16
EPS = 0.05
RUNS = 5
MIB = 2 ** 20


def measure(n: int) -> dict:
    """One run of the row for ``n`` qubits."""
    spec = pt.InstanceSpec(qubits=n, rank=2 ** n, seed=n)
    start = time.perf_counter()
    obs = pt.make_observable(spec)
    observable_s = time.perf_counter() - start
    start = time.perf_counter()
    pur = pt.purify(pt.make_state(spec))
    setup_s = time.perf_counter() - start
    start = time.perf_counter()
    report = pt.estimate_trace_power(pur, obs, K, EPS, seed=n)
    estimate_s = time.perf_counter() - start

    tracemalloc.start()
    try:
        pur = pt.purify(pt.make_state(spec))
        held, setup_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        pt.estimate_trace_power(pur, obs, K, EPS, seed=n)
        estimate_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    return {
        "n": n,
        "observable_s": observable_s,
        "setup_s": setup_s,
        "estimate_s": estimate_s,
        "tracemalloc_peak_mib": max(setup_peak, held + estimate_peak) / MIB,
        "setup_peak_mib": setup_peak / MIB,
        "estimate_peak_mib": estimate_peak / MIB,
        "abs_error": abs(report.estimate - report.oracle_value),
        "model_error": report.model_error,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="name of this run in the output file")
    parser.add_argument("--max-n", type=int, default=10)
    parser.add_argument("--out", default=str(ROOT / "BENCH_estimator.json"))
    args = parser.parse_args(argv)
    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    if args.label in doc.get("runs", {}):
        parser.error(f"{out} already holds a run labelled {args.label!r}; choose a new --label")

    rows = []
    for n in range(1, args.max_n + 1):
        runs = [measure(n) for _ in range(RUNS)]
        rows.append({key: statistics.median(run[key] for run in runs) for key in runs[0]})
        print(json.dumps(rows[-1]), flush=True)
    doc["config"] = {
        "k": K,
        "eps": EPS,
        "instance": "full rank, random Hermitian O, seed = n",
        "note": "a row is the median of runs_per_row runs, column by column (a run without runs_per_row is a "
                "single run), on a shared machine: read them as orders of magnitude",
    }
    doc.setdefault("runs", {})[args.label] = {
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": os.cpu_count(),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        },
        "runs_per_row": RUNS,
        "rows": rows,
    }
    out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
