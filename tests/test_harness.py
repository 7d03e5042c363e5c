import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
from functools import partial

import numpy as np
import pytest

import powertrace as pt
from powertrace import estimator, instances, linalg, suites
from powertrace.cli import main
from powertrace.suites import _separation_confidence_z, canonical_json, config_hash, load_config_file, resolve_config


# ------------------------------------------------------------ random_density

def test_random_density_rank_one_is_pure():
    rho = pt.random_density(2, 1, seed=0)
    purity = np.trace(rho.mat @ rho.mat).real
    assert purity == pytest.approx(1.0, abs=1e-10)


def test_random_density_full_rank():
    rho = pt.random_density(2, 4, seed=1)
    w = np.linalg.eigvalsh(rho.mat)
    assert np.all(w > 1e-12)


def test_random_density_deterministic():
    a = pt.random_density(3, 5, seed=42)
    b = pt.random_density(3, 5, seed=42)
    assert np.array_equal(a.mat, b.mat)


def test_random_density_rank_validation():
    with pytest.raises(pt.ValidationError):
        pt.random_density(1, 3, seed=0)


@pytest.mark.parametrize("kind", ["random_mixed", "diagonal"])
@pytest.mark.parametrize("rank", [0, 5])
def test_make_state_checks_the_rank_before_it_allocates(kind, rank):
    """A rank outside [1, d] is refused with the same message by every kind
    that reads it, before any array is sized from it."""
    spec = pt.InstanceSpec(qubits=2, rank=rank, seed=0, state_kind=kind)
    with pytest.raises(pt.ValidationError, match=rf"rank must lie in \[1, 4\], got {rank}$"):
        pt.make_state(spec)


def test_cli_diagonal_rank_above_the_dimension_exits_2_before_any_work(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"state_kind": "diagonal", "qubits": 2, "rank": 5}))
    out = tmp_path / "out"
    assert main(["estimate", "--config", str(cfg), "--out", str(out)]) == 2
    assert "powertrace: rank must lie in [1, 4], got 5" in capsys.readouterr().err
    assert not out.exists()


def test_random_density_builds_its_matrix_in_place():
    """A full-rank state keeps two d x d arrays (its matrix and cached
    eigenvectors); building it peaks at no more than 3.5 arrays' worth."""
    dim = 2 ** 8
    tracemalloc.start()
    try:
        pt.random_density(8, dim, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * dim * dim * 16


def test_make_state_kinds():
    spec = pt.InstanceSpec(qubits=1, rank=2, seed=3, state_kind="named:rho0")
    assert np.allclose(pt.make_state(spec).mat, np.diag([1.0, 0.0]))
    spec = pt.InstanceSpec(qubits=2, rank=4, seed=3, state_kind="named:max_mixed")
    assert np.allclose(pt.make_state(spec).mat, np.eye(4) / 4)
    spec = pt.InstanceSpec(qubits=1, rank=2, seed=3, state_kind="named:rho1_0.1")
    assert np.allclose(pt.make_state(spec).mat, np.diag([0.9, 0.1]))
    spec = pt.InstanceSpec(qubits=2, rank=2, seed=3, state_kind="diagonal")
    mat = pt.make_state(spec).mat
    assert np.allclose(mat, np.diag(np.diag(mat)))


@pytest.mark.parametrize("kind", ["diagonal", "named:max_mixed"])
def test_make_states_validates_a_non_random_kind_once(numpy_decompositions, kind):
    """A stack of a non-random kind is built raw and validated once: one
    eigh of the (3, 4, 4) stack, and each matrix is what ``make_state``
    builds for its seed."""
    spec = pt.InstanceSpec(qubits=2, rank=3, seed=0, state_kind=kind)
    states = instances.make_states(spec, [1, 2, 3])
    assert [(name, arg.shape) for name, arg in numpy_decompositions] == [("eigh", (3, 4, 4))]
    for mat, seed in zip(states.mat, [1, 2, 3]):
        assert np.array_equal(mat, pt.make_state(dataclasses.replace(spec, seed=seed)).mat)


def test_make_observable_kinds():
    spec = pt.InstanceSpec(qubits=2, rank=1, seed=0, observable_kind="pauli:ZI")
    assert np.allclose(
        pt.make_observable(spec).mat, np.kron(np.diag([1.0, -1.0]), np.eye(2))
    )
    spec = pt.InstanceSpec(qubits=1, rank=1, seed=0, observable_kind="projector")
    assert np.allclose(pt.make_observable(spec).mat, np.diag([1.0, 0.0]))
    spec = pt.InstanceSpec(qubits=1, rank=1, seed=0, observable_kind="random_hermitian")
    obs = pt.make_observable(spec)
    assert obs.op_norm == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("kind", ["pauli:ZI", "identity", "projector"])
def test_seed_independent_observables_are_built_once_read_only(kind):
    first = pt.make_observable(pt.InstanceSpec(qubits=2, rank=1, seed=0, observable_kind=kind))
    again = pt.make_observable(pt.InstanceSpec(qubits=2, rank=2, seed=9, observable_kind=kind))
    assert again is first
    with pytest.raises(ValueError, match="read-only"):
        first.mat[0, 0] = 2.0


def test_random_hermitian_observable_is_fresh_per_seed():
    def build(seed):
        return pt.make_observable(pt.InstanceSpec(qubits=2, rank=1, seed=seed))

    a, b = build(4), build(5)
    assert a is not b and not np.array_equal(a.mat, b.mat)
    again = build(4)
    assert again is not a and np.array_equal(again.mat, a.mat)


def test_to_json_is_a_fresh_copy_of_the_fields():
    spec = pt.InstanceSpec(qubits=2, rank=2, seed=3)
    report = pt.estimate_trace_power(
        pt.purify(pt.make_state(spec)), pt.make_observable(spec), 4, 0.05, seed=1
    )
    expected = dataclasses.asdict(report)
    for key in ("estimate", "oracle_value"):
        expected[key] = {"re": expected[key].real, "im": expected[key].imag}
    for obj, want in ((spec, dataclasses.asdict(spec)), (report, expected)):
        out = obj.to_json()
        assert out == want and out is not obj.to_json()
        out["seed"] = -1
        assert obj.seed != -1 and obj.to_json() == want


def test_vd_record_runs_each_oracle_once(monkeypatch):
    # the records' true ratios are read from the reports vd_ratio_stack
    # returns: one oracle call per half for the whole stack of records
    calls = []

    def counting(real):
        return lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs)

    monkeypatch.setattr(suites, "trace_power_obs_oracle", counting(pt.trace_power_obs_oracle))
    monkeypatch.setattr(estimator, "trace_power_obs_oracles", counting(linalg.trace_power_obs_oracles))
    records = suites._vd_records(resolve_config("apps", None, None), range(5))
    assert len(calls) == 2
    assert [record["run"] for record in records] == list(range(5))
    for record in records:
        report = record["report"]
        assert report["true_error"] == abs(report["ratio_estimate"] - report["true_ratio"])


def _chunk_size(chunk: range) -> list:
    return [len(chunk)]


def test_chunks_hold_at_most_two_to_the_sixteen_matrix_entries():
    sizes = partial(suites._map_chunks, _chunk_size)
    assert sizes(200, 4) == [200] and sizes(5000, 4) == [4096, 904]
    assert sizes(20, 64) == [16, 4] and sizes(3, 256) == [1, 1, 1]
    assert sizes(0, 4) == []


def test_chunk_boundaries_do_not_change_a_record(tmp_path):
    """At qubits = 5 a chunk holds 64 records, so 70 runs are stacks of 64
    and 6; every written record is the one its index gives alone."""
    over = {"qubits": 5, "rank": 32, "runs": 70}
    main(["estimate", *(f"--{key}={value}" for key, value in over.items()), "--out", str(tmp_path)])
    (path,) = (tmp_path / "estimate").glob("*/records.json")
    written = json.loads(path.read_text())
    cfg = resolve_config("estimate", None, over)
    assert len(written) == 70
    for i, record in enumerate(written):
        (alone,) = suites._estimate_records(cfg, range(i, i + 1))
        assert {key: record[key] for key in alone} == json.loads(canonical_json(alone))


def test_a_large_state_run_peaks_at_one_record():
    """At qubits = 8 each record is its own stack, so the traced peak of an
    ``estimate`` run does not grow with its record count."""
    def peak(runs):
        cfg = resolve_config("estimate", None, {"qubits": 8, "rank": 256, "runs": runs, "k_values": [16]})
        tracemalloc.start()
        try:
            suites._suite_estimate(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one, four = peak(1), peak(4)
    assert one > 4 * 256 * 256 * 16  # a record holds several d x d arrays
    assert four < 1.25 * one


SPEC_15 = pt.InstanceSpec(qubits=15, rank=1, seed=0)
BUILDERS_15 = {
    "make_state": lambda: pt.make_state(SPEC_15),
    "make_state-named": lambda: pt.make_state(dataclasses.replace(SPEC_15, state_kind="named:max_mixed")),
    "make_states": lambda: instances.make_states(SPEC_15, [0, 1]),
    "make_observable": lambda: pt.make_observable(SPEC_15),
    "make_observables": lambda: instances.make_observables(SPEC_15, [0, 1]),
    "random_density": lambda: pt.random_density(15, 1, 0),
    "shared_observable": lambda: instances.shared_observable("identity", 15),
}


@pytest.mark.parametrize("build", BUILDERS_15.values(), ids=BUILDERS_15)
def test_instance_builders_check_the_qubit_cap_before_they_allocate(build):
    """A 15-qubit matrix is 16 GiB; each builder refuses it before it
    allocates any array."""
    tracemalloc.start()
    try:
        with pytest.raises(pt.ResourceError, match="exceeds the qubit cap"):
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_cli_beyond_the_qubit_cap_exits_1_before_any_work(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["estimate", "--qubits", "15", "--runs", "1", "--out", str(out)]) == 1
    assert "powertrace: random state of dimension 32768 exceeds the qubit cap" in capsys.readouterr().err
    assert not out.exists()


def test_random_unitary_is_unitary():
    u = pt.random_unitary(8, seed=5)
    assert np.linalg.norm(u.conj().T @ u - np.eye(8), 2) <= 1e-10


# ------------------------------------------------------- canonical rendering

def test_canonical_json_sorted_and_17_digits():
    text = canonical_json({"b": 1 / 3, "a": True, "c": [1, 2.5]})
    assert text.index('"a"') < text.index('"b"') < text.index('"c"')
    assert "0.33333333333333331" in text
    json.loads(text)  # stays valid JSON


def test_config_hash_is_stable():
    cfg = {"suite": "approx", "k_values": [8], "eps": 1e-3}
    assert config_hash(cfg) == config_hash(dict(reversed(list(cfg.items()))))
    assert config_hash(cfg) != config_hash({**cfg, "eps": 1e-4})


def test_separation_confidence_z_matches_scipy():
    from scipy.special import ndtri

    for confidence in np.arange(1, 1000) / 1000:
        want = float(ndtri(0.5 + confidence / 2))
        got = _separation_confidence_z(confidence)
        assert abs(got - want) <= 4 * np.spacing(abs(want)), confidence


def test_package_imports_without_scipy():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = "import sys, powertrace, powertrace.cli; print('scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


# ------------------------------------------------------------------ CLI runs

def test_cli_approx_single_k(tmp_path):
    out = tmp_path / "out"
    code = main(["approx", "--k", "50", "--eps", "1e-3", "--out", str(out)])
    assert code == 0
    (csv_path,) = list((out / "approx").glob("*/table.csv"))
    header, row = csv_path.read_text().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    # ceil(sqrt(100 ln 2000)) = 28 after rounding up to the parity of k
    assert cells["k"] == "50"
    assert cells["formula_degree"] == "28"
    assert float(cells["measured_sup_error"]) <= 1e-3


def test_cli_bqp_defect(tmp_path):
    out = tmp_path / "out"
    code = main(
        ["bqp", "--seed", "7", "--q", "10", "--k", "5", "--runs", "6", "--out", str(out)]
    )
    assert code == 0
    (summary_path,) = list((out / "bqp").glob("*/summary.json"))
    summary = json.loads(summary_path.read_text())
    assert summary["max_identity_defect"] <= 1e-10
    assert summary["all_bernoulli_ok"] is True


@pytest.mark.parametrize("ks, ratio_range", [("10,20,40,80", [7.0, 9.0]), ("10,20", [1.75, 2.25])])
def test_bounds_helstrom_window_follows_the_k_sweep(tmp_path, ks, ratio_range):
    """m* grows as k, so the m* ratio is gated within 7/8 to 9/8 of the
    sweep's k ratio: [7, 9] on the default sweep, [1.75, 2.25] on k = 10, 20."""
    out = tmp_path / "out"
    assert main(["bounds", "--k", ks, "--out", str(out)]) == 0
    (summary_path,) = list((out / "bounds").glob("*/summary.json"))
    summary = json.loads(summary_path.read_text())
    assert summary["helstrom_ratio_range"] == ratio_range
    assert summary["lecam_exponent_window"] == [1.9, 2.1]
    assert summary["hybrid_exponent_window"] == [0.95, 1.05]


def test_cli_estimate_small_run(tmp_path):
    out = tmp_path / "out"
    code = main(["estimate", "--runs", "12", "--k", "4", "--out", str(out)])
    assert code == 0
    (summary_path,) = list((out / "estimate").glob("*/summary.json"))
    summary = json.loads(summary_path.read_text())
    assert summary["pass_fraction"] >= summary["pass_threshold"]
    (records_path,) = list((out / "estimate").glob("*/records.json"))
    records = json.loads(records_path.read_text())
    assert len(records) == 12
    for rec in records:
        assert "within_eps" in rec
        assert "oracle_value" in rec["report"]


def test_apps_keeps_its_records_when_one_denominator_is_refused(tmp_path, monkeypatch):
    """At seed 4 one distillation record's denominator estimate is within
    vd_eps of 0. That record is refused (nan ratio, not covered), and the
    suite still writes all 202 records and applies its coverage gate."""
    monkeypatch.delenv(suites.SEED_ENV_VAR, raising=False)
    assert main(["apps", "--seed", "4", "--out", str(tmp_path)]) == 0
    (config_dir,) = (tmp_path / "apps").iterdir()
    records = json.loads((config_dir / "records.json").read_text())
    assert len(records) == 202
    refused = [r["report"] for r in records if r["report"].get("ratio_estimate") == "nan"]
    assert len(refused) == 1 and refused[0]["error_bound"] == "nan" and not refused[0]["covered"]
    summary = json.loads((config_dir / "summary.json").read_text())
    assert summary["coverage_threshold"] <= summary["vd_coverage"] < 1.0


def test_cli_estimate_named_instance(tmp_path):
    # the projector instance: Tr(rho0^k O) = 1, estimate must flag a pass
    out = tmp_path / "out"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "runs": 1,
                "k_values": [4],
                "state_kind": "named:rho0",
                "observable_kind": "projector",
                "qubits": 1,
                "rank": 1,
            }
        )
    )
    code = main(["estimate", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    (records_path,) = list((out / "estimate").glob("*/records.json"))
    rec = json.loads(records_path.read_text())[0]
    assert rec["report"]["oracle_value"]["re"] == pytest.approx(1.0)
    assert abs(rec["report"]["estimate"]["re"] - 1.0) <= 0.05
    assert rec["within_eps"] is True


def test_cli_config_parse_error_is_line_anchored(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{\n  "runs": 3,\n  "oops"\n}\n')
    code = main(["estimate", "--config", str(bad), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    import re

    assert re.search(rf"{re.escape(str(bad))}:\d+:\d+", err)


def test_cli_reproducibility_byte_identical(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    args = ["estimate", "--runs", "6", "--k", "4,8", "--seed", "5"]
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    (csv_a,) = list((out_a / "estimate").glob("*/table.csv"))
    (csv_b,) = list((out_b / "estimate").glob("*/table.csv"))
    assert csv_a.read_bytes() == csv_b.read_bytes()
    (rec_a,) = list((out_a / "estimate").glob("*/records.json"))
    (rec_b,) = list((out_b / "estimate").glob("*/records.json"))
    ra = json.loads(rec_a.read_text())
    rb = json.loads(rec_b.read_text())
    for x, y in zip(ra, rb):
        x.pop("timestamp")
        y.pop("timestamp")
    assert ra == rb


def test_seed_env_var_overrides(tmp_path, monkeypatch):
    monkeypatch.setenv("POWERTRACE_SEED", "123")
    cfg = resolve_config("estimate", None, {"seed": 5})
    assert cfg["seed"] == 123
    monkeypatch.delenv("POWERTRACE_SEED")
    cfg = resolve_config("estimate", None, {"seed": 5})
    assert cfg["seed"] == 5


def test_run_suite_from_config_file(tmp_path):
    cfg_path = tmp_path / "suite.json"
    cfg_path.write_text(json.dumps({"suite": "approx", "k_values": [8, 16], "eps": 0.01}))
    code = main(["approx", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert code == 0
    (summary_path,) = (tmp_path / "out" / "approx").glob("*/summary.json")
    assert json.loads(summary_path.read_text())["config"]["k_values"] == [8, 16]


def test_load_config_requires_object(tmp_path):
    path = tmp_path / "arr.json"
    path.write_text("[1, 2]")
    with pytest.raises(pt.ValidationError):
        load_config_file(str(path))


def test_output_layout(tmp_path):
    out = tmp_path / "out"
    assert main(["baseline", "--shots", "100,1000", "--out", str(out)]) == 0
    (suite_dir,) = list((out / "baseline").iterdir())
    assert sorted(p.name for p in suite_dir.iterdir()) == [
        "records.json",
        "summary.json",
        "table.csv",
    ]
    body = (suite_dir / "table.csv").read_bytes()
    assert b"\r" not in body  # LF line endings only
