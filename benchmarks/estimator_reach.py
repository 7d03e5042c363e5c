"""Reach of one estimate: set-up and estimate wall time, and peak traced
memory, for n = 1..10 system qubits.

Each row is one full-rank instance (k = 16, eps = 0.05, random Hermitian O,
seed = n):

- ``observable_s``: wall time of ``make_observable`` (rows recorded before
  this column existed lack it);
- ``setup_s``: wall time of ``make_state`` + ``purify``;
- ``estimate_s``: wall time of one ``estimate_trace_power`` on that
  purification;
- ``tracemalloc_peak_mib``: the ``tracemalloc`` peak over the same set-up
  and estimate, run again under tracing so that tracing never reaches a
  timing.

Every figure is a single run. The powertrace that is measured is the one
in this checkout's ``src/``. Results are stored under ``--label`` in the
output file, next to the runs already there, so several versions of the
package can be recorded in one file:

    python3 benchmarks/estimator_reach.py --label after
    python3 benchmarks/estimator_reach.py --label after --max-n 7 --out /tmp/reach.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
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
MIB = 2 ** 20


def measure(n: int) -> dict:
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
        pt.estimate_trace_power(pt.purify(pt.make_state(spec)), obs, K, EPS, seed=n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {
        "n": n,
        "observable_s": observable_s,
        "setup_s": setup_s,
        "estimate_s": estimate_s,
        "tracemalloc_peak_mib": peak / MIB,
        "abs_error": abs(report.estimate - report.oracle_value),
        "model_error": report.model_error,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="name of this run in the output file")
    parser.add_argument("--max-n", type=int, default=10)
    parser.add_argument("--out", default=str(ROOT / "BENCH_estimator.json"))
    args = parser.parse_args(argv)

    rows = []
    for n in range(1, args.max_n + 1):
        rows.append(measure(n))
        print(json.dumps(rows[-1]), flush=True)
    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc["config"] = {
        "k": K,
        "eps": EPS,
        "instance": "full rank, random Hermitian O, seed = n",
        "note": "single runs on a shared machine: read them as orders of magnitude",
    }
    doc.setdefault("runs", {})[args.label] = {
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": os.cpu_count(),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        },
        "rows": rows,
    }
    out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
