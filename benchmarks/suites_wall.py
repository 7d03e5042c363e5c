"""Wall time and peak traced memory of the default suites, each run through
``cli.main`` at its default config as a user runs it.

One row per suite:

- ``wall_s``: the median wall time of ``--runs`` timed calls of
  ``cli.main([suite, "--out", <fresh temporary directory>])``, after one
  untimed warm-up call;
- ``wall_s_runs``: every timed call, in order;
- ``run_s`` and ``run_s_runs``: the same for the time inside the suite's
  runner alone, so ``wall_s - run_s`` is the share of the command line,
  the config and the output writers;
- ``tracemalloc_peak_mib``: the ``tracemalloc`` peak of one more call, run
  after the timed ones so that tracing never reaches a timing.

The powertrace that is measured is the one in this checkout's ``src/``.
Results are stored under ``--label`` in the output file, next to the runs
already there, so several versions of the package can be recorded in one
file. The file is append-only: a label it already holds is refused (exit 2)
before anything is measured, and the file is left as it was:

    python3 benchmarks/suites_wall.py --label after
    python3 benchmarks/suites_wall.py --label quick --suites estimate apps --runs 3 --out /tmp/suites.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from powertrace.cli import main as cli_main  # noqa: E402
from powertrace.suites import SUITE_REGISTRY, SUITES  # noqa: E402

MIB = 2 ** 20


def _call(suite: str) -> tuple[float, float]:
    """Wall time of one default run of ``suite``, into a directory removed
    after, and the time inside its runner; the registry entry is restored."""
    out = tempfile.mkdtemp(prefix="suites-wall-")
    entry, inside = SUITE_REGISTRY[suite], []

    def timed_run(cfg):
        start = time.perf_counter()
        try:
            return entry.run(cfg)
        finally:
            inside.append(time.perf_counter() - start)

    SUITE_REGISTRY[suite] = entry._replace(run=timed_run)
    try:
        start = time.perf_counter()
        code = cli_main([suite, "--out", out])
        elapsed = time.perf_counter() - start
    finally:
        SUITE_REGISTRY[suite] = entry
        shutil.rmtree(out, ignore_errors=True)
    if code != 0:
        raise RuntimeError(f"suite {suite} exited with {code}")
    return elapsed, inside[0]


def measure(suite: str, runs: int) -> dict:
    _call(suite)  # warm-up: imports, caches and first-touch costs
    walls, inside = zip(*(_call(suite) for _ in range(runs)))
    tracemalloc.start()
    try:
        _call(suite)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {
        "suite": suite,
        "wall_s": statistics.median(walls),
        "wall_s_runs": list(walls),
        "run_s": statistics.median(inside),
        "run_s_runs": list(inside),
        "tracemalloc_peak_mib": peak / MIB,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="name of this run in the output file")
    parser.add_argument("--suites", nargs="+", choices=SUITES, default=list(SUITES))
    parser.add_argument("--runs", type=int, default=7, help="timed calls per suite (at least 1)")
    parser.add_argument("--out", default=str(ROOT / "BENCH_suites.json"))
    args = parser.parse_args(argv)
    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    if args.label in doc.get("runs", {}):
        parser.error(f"{out} already holds a run labelled {args.label!r}; choose a new --label")
    if args.runs < 1:
        parser.error("--runs must be at least 1")

    rows = []
    for suite in args.suites:
        rows.append(measure(suite, args.runs))
        print(json.dumps(rows[-1]), flush=True)
    doc["config"] = {
        "suites": "default configs through cli.main, one fresh output directory per call",
        "note": "medians on a shared machine: compare runs recorded side by side, not across days",
    }
    doc.setdefault("runs", {})[args.label] = {
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": os.cpu_count(),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
            "runs": args.runs,
        },
        "rows": rows,
    }
    out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
