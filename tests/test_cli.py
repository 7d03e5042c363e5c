"""How the command line reaches a suite's config.

Each shared flag sets one config key of the suite it is given to; a flag
whose key the suite does not read is a usage error, as is a config-file
key the suite does not read.
"""

import json

import pytest

import powertrace.cli as cli
import powertrace.suites as suites
from powertrace.cli import main
from powertrace.errors import ValidationError
from powertrace.suites import SEED_ENV_VAR, SUITES, resolve_config, suite_defaults

# (suite, argv after the suite name, config keys it sets)
ROUTES = [
    ("approx", ["--k", "8,16"], {"k_values": [8, 16]}),
    ("approx", ["--eps", "0.01"], {"eps": 0.01}),
    ("estimate", ["--k", "4,8"], {"k_values": [4, 8]}),
    ("estimate", ["--eps", "0.1"], {"eps": 0.1}),
    ("estimate", ["--qubits", "3"], {"qubits": 3}),
    ("estimate", ["--rank", "1"], {"rank": 1}),
    ("estimate", ["--runs", "7"], {"runs": 7}),
    ("estimate", ["--qubits", "3", "--rank", "8"], {"qubits": 3, "rank": 8}),
    ("baseline", ["--k", "5"], {"k": 5}),
    ("baseline", ["--qubits", "2"], {"qubits": 2}),
    ("baseline", ["--rank", "1"], {"rank": 1}),
    ("baseline", ["--shots", "10,20"], {"shots_list": [10, 20]}),
    ("bounds", ["--k", "10,20"], {"k_values": [10, 20]}),
    ("bounds", ["--c", "0.25"], {"c": 0.25}),
    ("bqp", ["--k", "1,5"], {"k_values": [1, 5]}),
    ("bqp", ["--runs", "6"], {"runs": 6}),
    ("bqp", ["--q", "3"], {"q_values": [3.0]}),
    ("apps", ["--k", "6", "--eps", "0.03", "--runs", "4"], {"vd_k": 6, "vd_eps": 0.03, "vd_runs": 4}),
    ("apps", ["--qubits", "3"], {"qubits": 3}),
    ("apps", ["--rank", "1"], {"rank": 1}),
    ("separation", ["--k", "4,8"], {"k_values": [4, 8]}),
    ("separation", ["--eps", "0.1"], {"eps": 0.1}),
    ("separation", ["--qubits", "3"], {"qubits": 3}),
    ("separation", ["--rank", "1"], {"rank": 1}),
] + [(suite, ["--seed", "9"], {"seed": 9}) for suite in SUITES]

SHARED_FLAGS = {"k": "4", "eps": "0.1", "qubits": "2", "rank": "1", "shots": "10",
                "runs": "3", "q": "2", "c": "0.5"}


@pytest.fixture
def resolved(monkeypatch):
    """The (suite, config) that ``main`` hands to the suite runner; no
    suite runs."""
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    calls = []

    def recorder(suite, cfg, out_root="out"):
        calls.append((suite, cfg))
        return 0

    monkeypatch.setattr(cli, "run_suite_config", recorder)
    return calls


@pytest.mark.parametrize("suite, argv, keys", ROUTES, ids=lambda x: " ".join(x) if isinstance(x, list) else None)
def test_flag_sets_the_suites_config_key(resolved, suite, argv, keys):
    assert main([suite, *argv]) == 0
    ((got_suite, cfg),) = resolved
    assert got_suite == suite
    assert cfg == {**suite_defaults(suite), **keys, "suite": suite}


@pytest.mark.parametrize("suite", SUITES)
def test_flags_a_suite_does_not_read_are_rejected(resolved, suite, capsys):
    routed = {arg[2:] for s, argv, _ in ROUTES if s == suite for arg in argv if arg.startswith("--")}
    # --jobs and --K are no flags of any suite: every suite runs in one
    # process, and the readout grid is always the one the error budget sets
    for flag, value in {**SHARED_FLAGS, "jobs": "2", "K": "64"}.items():
        if flag in routed:
            continue
        with pytest.raises(SystemExit) as exc:
            main([suite, f"--{flag}", value])
        assert exc.value.code == 2, flag
        assert f"--{flag}" in capsys.readouterr().err
    assert resolved == []


def test_suite_help_lists_only_its_flags(capsys):
    with pytest.raises(SystemExit):
        main(["baseline", "-h"])
    text = capsys.readouterr().out
    assert "--shots" in text and "--k" in text
    assert "--eps" not in text and "--runs" not in text and "--K" not in text


def test_config_file_key_a_suite_does_not_read_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k_value": [8]}))
    assert main(["approx", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "'k_value'" in err and "k_values" in err
    assert not (tmp_path / "out").exists()
    with pytest.raises(ValidationError, match="eps"):
        resolve_config("bounds", {"eps": 0.1}, None)


@pytest.mark.parametrize("name", ["missing.json", "a-directory"])
def test_config_path_that_cannot_be_read_is_rejected(tmp_path, capsys, name):
    (tmp_path / "a-directory").mkdir()
    path = str(tmp_path / name)
    assert main(["approx", "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert f"cannot read config {path}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [["approx", "--k", ""], ["baseline", "--k", ""], ["apps", "--k", ""], ["baseline", "--shots", ""],
     ["approx", "--k", "8,,16"], ["bqp", "--k", "1,"]],
    ids=" ".join,
)
def test_empty_list_flag_element_is_rejected(resolved, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "expected comma-separated integers" in capsys.readouterr().err
    assert resolved == []


def test_seed_and_suite_keys_are_accepted_by_every_suite(resolved, tmp_path, capsys):
    """A config naming its own suite is accepted, so a summary's config
    block can be fed back; one naming another suite exits 2 before any
    record runs and writes no output directory."""
    for suite in SUITES:
        cfg = resolve_config(suite, {"suite": suite, "seed": 4}, None)
        assert cfg["seed"] == 4 and cfg["suite"] == suite
        other = "approx" if suite == "estimate" else "estimate"
        path = tmp_path / f"{suite}.json"
        path.write_text(json.dumps({"suite": other, "seed": 4}))
        out = tmp_path / "out"
        assert main([suite, "--config", str(path), "--out", str(out)]) == 2
        assert f"config is for suite {other!r}, not {suite}" in capsys.readouterr().err
        assert resolved == [] and not out.exists()


@pytest.mark.parametrize(
    "argv, env_seed, config_seed",
    [(["estimate", "--seed", "-1"], None, None), (["approx", "--seed", "-3"], None, None),
     (["approx"], "abc", None), (["estimate"], "-1", None), (["estimate"], "1.5", None),
     (["bounds"], "", None), (["estimate"], None, -2), (["estimate"], None, "7"),
     (["approx"], None, 1.5), (["baseline"], None, True)],
    ids=["flag-negative", "flag-negative-no-default", "env-text", "env-negative", "env-float",
         "env-empty", "file-negative", "file-string", "file-float", "file-bool"],
)
def test_seed_that_is_not_a_non_negative_integer_exits_2(
    resolved, monkeypatch, tmp_path, capsys, argv, env_seed, config_seed
):
    if env_seed is not None:
        monkeypatch.setenv(SEED_ENV_VAR, env_seed)
    if config_seed is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": config_seed}))
        argv = [*argv, "--config", str(cfg)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "non-negative integer" in err
    assert (SEED_ENV_VAR if env_seed is not None else "'seed'") in err
    assert resolved == []


def test_seed_from_each_source_is_accepted(resolved, monkeypatch, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 3}))
    assert main(["approx", "--config", str(cfg)]) == 0
    assert main(["approx", "--seed", "0"]) == 0
    monkeypatch.setenv(SEED_ENV_VAR, " 12 ")
    assert main(["approx", "--seed", "5"]) == 0
    assert [cfg["seed"] for _, cfg in resolved] == [3, 0, 12]


@pytest.mark.parametrize(
    "suite, key, value, expected",
    [("estimate", "runs", "x", "a number"), ("estimate", "k_values", 5, "a list of number values"),
     ("estimate", "k_values", [4, "8"], "a list of number values"), ("estimate", "eps", [0.1], "a number"),
     ("estimate", "mode", 3, "a string"), ("estimate", "qubits", True, "a number"),
     ("bounds", "c", "0.5", "a number"), ("apps", "entropy_mode", 1, "a string"),
     ("bounds", "eps_grid", [0.3, None], "a list of number values"),
     ("estimate", "observable_kind", ["pauli:ZI"], "a string"), ("bqp", "runs", {"n": 1}, "a number")],
    ids=["runs-string", "k_values-scalar", "k_values-string-element", "eps-list", "mode-number",
         "qubits-bool", "c-string", "entropy_mode-number", "eps_grid-null-element",
         "observable_kind-list", "runs-object"],
)
def test_config_value_of_the_wrong_kind_exits_2(resolved, tmp_path, capsys, suite, key, value, expected):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suite": suite, key: value}))
    assert main([suite, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"config key {key!r} must be {expected}" in err
    assert resolved == []


def test_config_values_of_their_defaults_kind_are_accepted(monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    given = {"eps": 1, "k_values": [4, 8], "mode": "ideal", "state_kind": "pure", "runs": None}
    cfg = resolve_config("estimate", given, None)
    assert {key: cfg[key] for key in given} == {**given, "runs": suite_defaults("estimate")["runs"]}


@pytest.mark.parametrize(
    "suite, argv, config, key",
    [("estimate", ["--runs", "0"], {}, "runs"), ("estimate", ["--runs", "-1"], {}, "runs"),
     ("bqp", ["--runs", "0"], {}, "runs"), ("apps", ["--runs", "0"], {}, "vd_runs"),
     ("baseline", [], {"repeats": 0}, "repeats"), ("baseline", ["--shots", "100,0"], {}, "shots_list"),
     ("baseline", [], {"shots_list": [1, 100]}, "shots_list"), ("approx", [], {"grid_size": 1}, "grid_size"),
     ("estimate", ["--qubits", "-1"], {}, "qubits"), ("bqp", [], {"r_qubits": -1}, "r_qubits"),
     ("bqp", [], {"r_qubits": 0}, "r_qubits"), ("approx", [], {"k_values": [8, 0]}, "k_values"),
     ("baseline", ["--k", "0"], {}, "k"), ("apps", ["--k", "0"], {}, "vd_k"), ("estimate", ["--rank", "0"], {}, "rank"),
     ("apps", [], {"renyi_alpha": 0}, "renyi_alpha"),
     ("apps", [], {"tsallis_q": -1}, "tsallis_q")],
    ids=["estimate-runs-0", "estimate-runs-negative", "bqp-runs-0", "apps-vd_runs-0", "baseline-repeats-0",
         "baseline-shots-0", "baseline-shots-1", "approx-grid_size-1", "estimate-qubits-negative",
         "bqp-r_qubits-negative", "bqp-r_qubits-0", "approx-k_values-0", "baseline-k-0", "apps-vd_k-0",
         "estimate-rank-0", "apps-renyi_alpha-0", "apps-tsallis_q-negative"],
)
def test_count_below_its_least_value_exits_2_before_any_work(
    tmp_path, capsys, monkeypatch, suite, argv, config, key
):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main([suite, *argv, "--config", str(cfg), "--out", str(out)]) == 2
    assert f"config key {key!r} must be at least" in capsys.readouterr().err
    assert not out.exists()


def test_counts_at_their_least_value_are_accepted(monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    least = {"estimate": {"runs": 1, "qubits": 0, "rank": 1}, "bqp": {"runs": 1, "r_qubits": 1},
             "apps": {"vd_runs": 1}, "baseline": {"repeats": 1, "shots_list": [2]}, "approx": {"grid_size": 2}}
    for suite, given in least.items():
        cfg = resolve_config(suite, given, None)
        assert {key: cfg[key] for key in given} == given


# each integer key, a suite that reads it, and a fractional value of the key's shape
FRACTIONAL = [("estimate", "runs", 3.9), ("apps", "vd_runs", 2.5), ("baseline", "repeats", 1.5),
              ("baseline", "shots_list", [100, 1000.5]), ("approx", "grid_size", 100.7),
              ("estimate", "qubits", 1.5), ("bqp", "r_qubits", 2.0), ("approx", "k_values", [8.5, 16.9]),
              ("baseline", "k", 3.5), ("apps", "vd_k", 4.5), ("estimate", "rank", 1.2),
              ("apps", "renyi_alpha", 2.5), ("apps", "tsallis_q", 3.0)]


def test_every_integer_key_has_a_fractional_case():
    assert sorted(key for _, key, _ in FRACTIONAL) == sorted(suites._COUNT_MINIMUM)


@pytest.mark.parametrize("suite, key, value", FRACTIONAL, ids=[f"{s}-{k}" for s, k, _ in FRACTIONAL])
def test_fractional_integer_key_exits_2_before_any_work(tmp_path, capsys, monkeypatch, suite, key, value):
    """A fraction is not truncated to an integer: it exits 2 and names the key."""
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    assert _exits_2_before_any_work(tmp_path, suite, {key: value})
    assert f"config key {key!r} takes integers only, got {value!r}" in capsys.readouterr().err


LIST_KEYS = [(suite, key) for suite in SUITES for key, value in suite_defaults(suite).items()
             if isinstance(value, list)]


def _exits_2_before_any_work(tmp_path, suite, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    code = main([suite, "--config", str(cfg), "--out", str(out)])
    return code == 2 and not out.exists()


@pytest.mark.parametrize("suite, key", LIST_KEYS, ids=[f"{s}-{k}" for s, k in LIST_KEYS])
def test_empty_list_exits_2_before_any_work(tmp_path, capsys, monkeypatch, suite, key):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    assert _exits_2_before_any_work(tmp_path, suite, {key: []})
    assert f"config key {key!r} must be a non-empty list" in capsys.readouterr().err


# gate thresholds, and keys that changed no record or overrode the error
# budget: a suite's verdict and its readout grid are set by its code
REMOVED_KEYS = [("approx", "slope_range", [0.0, 9.0]), ("estimate", "pass_threshold", 0.0),
                ("estimate", "ae_grid_override", 64), ("baseline", "slope_tolerance", 9.0),
                ("bounds", "helstrom_ratio_range", [0.0, 99.0]), ("bounds", "t_values", [1, 2]),
                ("bqp", "defect_tolerance", 1.0), ("apps", "coverage_threshold", 0.0),
                ("separation", "swap_exponent_range", [0.0, 9.0]), ("separation", "query_exponent_max", 2.0),
                ("separation", "observable_kind", "pauli:ZI")]


@pytest.mark.parametrize("suite, key, value", REMOVED_KEYS, ids=[f"{s}-{k}" for s, k, _ in REMOVED_KEYS])
def test_removed_key_exits_2_before_any_work(tmp_path, capsys, monkeypatch, suite, key, value):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    assert key not in suite_defaults(suite)
    assert _exits_2_before_any_work(tmp_path, suite, {key: value})
    assert f"suite {suite} reads no config key {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize("qubits, label", [(1, "pauli:Z"), (3, "pauli:ZII")])
def test_separation_observable_follows_its_qubit_count(tmp_path, monkeypatch, qubits, label):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    assert main(["separation", "--qubits", str(qubits), "--out", str(tmp_path)]) == 0
    (config_dir,) = (tmp_path / "separation").iterdir()
    records = json.loads((config_dir / "records.json").read_text())
    assert {rec["spec"]["instance"]["observable_kind"] for rec in records} == {label}
