import importlib.util
import json
from pathlib import Path

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
        assert row["model_error"] <= 0.05 / 2
