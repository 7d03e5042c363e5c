import importlib.util
import json
import statistics
from pathlib import Path

import pytest

import powertrace.suites as suites

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "estimator_reach.py"


def _load():
    spec = importlib.util.spec_from_file_location("estimator_reach", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_estimator_reach_keeps_each_labelled_run(tmp_path, capsys):
    reach = _load()
    out = tmp_path / "BENCH_estimator.json"
    assert reach.main(["--label", "a", "--max-n", "2", "--out", str(out)]) == 0
    assert reach.main(["--label", "b", "--max-n", "1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["k"] == 16 and doc["config"]["eps"] == 0.05
    assert set(doc["runs"]) == {"a", "b"}
    rows = doc["runs"]["a"]["rows"]
    assert [row["n"] for row in rows] == [1, 2]
    for row in rows:
        assert row["setup_s"] > 0 and row["estimate_s"] > 0 and row["tracemalloc_peak_mib"] > 0
        assert row["observable_s"] > 0
        assert 0 < row["setup_peak_mib"] <= row["tracemalloc_peak_mib"]
        assert 0 < row["estimate_peak_mib"] <= row["tracemalloc_peak_mib"]
        assert row["model_error"] <= 0.05 / 2


def test_estimator_reach_rows_are_medians_of_five_runs(tmp_path, monkeypatch, capsys):
    reach = _load()
    values = iter([3.0, 1.0, 9.0, 2.0, 5.0])
    monkeypatch.setattr(reach, "measure", lambda n: {"n": n, "estimate_s": next(values)})
    out = tmp_path / "BENCH_estimator.json"
    assert reach.main(["--label", "a", "--max-n", "1", "--out", str(out)]) == 0
    run = json.loads(out.read_text())["runs"]["a"]
    assert run["runs_per_row"] == 5 and run["rows"] == [{"n": 1, "estimate_s": 3.0}]


SUITES_SCRIPT = SCRIPT.parent / "suites_wall.py"


def test_suites_wall_keeps_each_labelled_run(tmp_path):
    spec = importlib.util.spec_from_file_location("suites_wall", SUITES_SCRIPT)
    wall = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(wall)
    out = tmp_path / "BENCH_suites.json"
    assert wall.main(["--label", "a", "--suites", "bounds", "separation", "--runs", "2", "--out", str(out)]) == 0
    assert wall.main(["--label", "b", "--suites", "bounds", "--runs", "1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert set(doc["runs"]) == {"a", "b"}
    rows = doc["runs"]["a"]["rows"]
    assert [row["suite"] for row in rows] == ["bounds", "separation"]
    for row in rows:
        assert len(row["wall_s_runs"]) == 2 and all(t > 0 for t in row["wall_s_runs"])
        assert row["wall_s"] == statistics.median(row["wall_s_runs"])
        assert row["run_s"] == statistics.median(row["run_s_runs"])
        # the runner's time lies inside its call's wall time
        assert all(0 < inner < whole for inner, whole in zip(row["run_s_runs"], row["wall_s_runs"]))
        assert row["tracemalloc_peak_mib"] > 0
    assert wall.SUITE_REGISTRY["bounds"].run is suites._suite_bounds  # the timed runner is taken out again
    assert [row["suite"] for row in doc["runs"]["b"]["rows"]] == ["bounds"]


def test_bench_scripts_refuse_a_label_their_file_holds(tmp_path, monkeypatch, capsys):
    """A label already in the output file exits 2 before anything is measured
    and leaves the file byte-identical, so a recorded run is never replaced."""
    for script, args in ((SCRIPT, ["--max-n", "1"]), (SUITES_SCRIPT, ["--suites", "bounds", "--runs", "1"])):
        spec = importlib.util.spec_from_file_location(script.stem, script)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        monkeypatch.setattr(module, "measure", lambda *a: pytest.fail("measured a refused label"))
        out = tmp_path / f"{script.stem}.json"
        out.write_text('{"runs": {"parent": {"rows": []}}}\n')
        before = out.read_bytes()
        with pytest.raises(SystemExit) as exc:
            module.main(["--label", "parent", *args, "--out", str(out)])
        assert exc.value.code == 2
        assert "already holds a run labelled 'parent'" in capsys.readouterr().err
        assert out.read_bytes() == before
