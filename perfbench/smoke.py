"""Smoke test of the benchmark itself; run from the repository root:

    python3 perfbench/smoke.py

It checks that BENCHMARK.json agrees with layers.json, runs every workload
at the tiny size untraced and traced through run.py, and checks that each
metric prints with its unit, that the computed counts repeat exactly
across seeds, that a corrupted oracle value trips the gate, and that the
command fails without printing a result when the program's source is
missing. Exits 0 when every check passes.
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

failures: list[str] = []


def check(condition: bool, message: str) -> None:
    if not condition:
        failures.append(message)
        print(f"FAIL {message}", flush=True)


def run(args: list[str], cwd: Path = ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None), proc


def computed_names(layers: dict) -> list[str]:
    names = []
    for module, spec in layers.items():
        names += [f"{module}.{c}" for c, cs in spec.get("counts", {}).items() if cs["computed"]]
        names += [f"{module}.{fn}.calls" for fn in spec.get("computed_calls", [])]
    return names


def check_manifest(bench: dict, layers: dict) -> None:
    check(set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
          "BENCHMARK.json has exactly the contract keys")
    every = [m["name"] for key in ("end_to_end", "per_layer") for m in bench[key]]
    every += [w["name"] for w in bench["workloads"]]
    check(len(every) == len(set(every)), "metric and workload names are unique")
    check(all(NAME.match(name) for name in every), "names match the allowed pattern")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    check(bounds.get("setup_s") == max(bounds.values()) <= 0.25, "setup_s has the largest bound")
    expected = []
    for module, spec in layers.items():
        for fn in spec.get("functions", []):
            expected += [(f"{module}.{fn}.calls", "count"), (f"{module}.{fn}.self_s", "s")]
        expected += [(f"{module}.{fn}.peak_mib", "MiB") for fn in spec.get("heavy", [])]
        expected += [(f"{module}.{c}", cs["unit"]) for c, cs in spec.get("counts", {}).items()]
    check([(m["name"], m["unit"]) for m in bench["per_layer"]] == expected,
          "BENCHMARK.json per_layer matches layers.json")
    check({w["name"] for w in bench["workloads"]} == set(json.loads(
        (HERE / "layers.json").read_text())["workloads"]), "every workload has a layers.json record")


def check_result(label: str, code: int, result, metrics: list[dict]) -> None:
    check(code == 0, f"{label}: exit code {code}")
    if result is None:
        check(False, f"{label}: no result line")
        return
    check(set(result) == RESULT_KEYS, f"{label}: result keys {sorted(result)}")
    check(result.get("correct") is True and result.get("attempted", 0) >= 1
          and result.get("failed") == 0, f"{label}: correct/attempted/failed")
    printed = result.get("metrics", {})
    for metric in metrics:
        entry = printed.get(metric["name"])
        check(entry is not None and entry.get("unit") == metric["unit"]
              and isinstance(entry.get("value"), (int, float)),
              f"{label}: metric {metric['name']} printed with unit {metric['unit']}")
    check(len(printed) == len(metrics), f"{label}: {len(printed)} metrics printed, {len(metrics)} declared")


def check_workloads(bench: dict, layers: dict) -> None:
    computed = computed_names(layers)
    for workload in [w["name"] for w in bench["workloads"]]:
        base = ["--workload", workload, "--seconds", "1", "--size", "tiny"]
        code, result, _ = run([*base, "--seed", "3", "--trace", "0"])
        check_result(f"{workload} untraced", code, result, bench["end_to_end"])
        if workload == "estimate_scale" and result:
            values = {k: v["value"] for k, v in result["metrics"].items()}
            check(values.get("reach_n") == 2 and values.get("completed_frac", 1) < 1,
                  "estimate_scale: the n=5 cap refusal lowers completed_frac and caps reach_n")
        traced = []
        for seed in ("3", "4"):
            code, result, _ = run([*base, "--seed", seed, "--trace", "1"])
            check_result(f"{workload} traced seed {seed}", code, result, bench["per_layer"])
            traced.append(result["metrics"] if result else {})
        for name in computed:
            check(traced[0].get(name) == traced[1].get(name),
                  f"{workload}: computed count {name} repeats across runs")


def check_corrupted_oracle() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import powertrace
    import worker

    original = powertrace.estimate_trace_power

    def corrupted(*args, **kwargs):
        report = original(*args, **kwargs)
        return dataclasses.replace(report, oracle_value=report.oracle_value + 1e-6)

    powertrace.estimate_trace_power = corrupted
    try:
        result = worker.measure("estimate_scale", 3, 0.1, "tiny", "run", time.monotonic())
        code = worker.main(["--workload", "ae_fine", "--seed", "3", "--seconds", "0.1",
                            "--size", "tiny", "--phase", "run"])
    finally:
        powertrace.estimate_trace_power = original
    check(result["correct"] is False and result["failed"] > 0
          and any("oracle_value" in p for p in result["problems"]),
          "a corrupted oracle value trips the gate")
    check(code == 1, "the worker exits 1 when a gate fails")


def check_without_program() -> None:
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        code, _, proc = run(["--workload", "swap_deep", "--seed", "0", "--seconds", "1",
                             "--size", "tiny", "--trace", "0"], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(code != 0 and not proc.stdout.strip(), "without src/ the command fails and prints no result")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((HERE / "layers.json").read_text())["layers"]
    check_manifest(bench, layers)
    check_workloads(bench, layers)
    check_corrupted_oracle()
    check_without_program()
    print(f"{'FAILED' if failures else 'ok'}: {len(failures)} failed checks", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
