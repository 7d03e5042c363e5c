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
from powertrace.suites import SUITES, resolve_config, suite_defaults

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
    ("estimate", ["--k", "16"], {"k_values": [16]}),
    ("apps", ["--runs", "6"], {"vd_runs": 6}),
    ("baseline", ["--k", "5", "--shots", "10"], {"k": 5, "shots_list": [10]}),
    ("apps", ["--k", "6", "--eps", "0.03", "--runs", "4"], {"vd_k": 6, "vd_eps": 0.03, "vd_runs": 4}),
    ("apps", ["--qubits", "3"], {"qubits": 3}),
    ("apps", ["--rank", "1"], {"rank": 1}),
    ("separation", ["--k", "4,8"], {"k_values": [4, 8]}),
    ("separation", ["--eps", "0.1"], {"eps": 0.1}),
    ("separation", ["--qubits", "3"], {"qubits": 3}),
    ("separation", ["--rank", "1"], {"rank": 1}),
] + [  # a suite that draws nothing has no --seed: it gets a one-value --k instead
    (suite, ["--seed", "9"], {"seed": 9}) if "seed" in suite_defaults(suite)
    else (suite, ["--k", "9"], {"k_values": [9]}) for suite in SUITES
]

SHARED_FLAGS = {"k": "4", "eps": "0.1", "qubits": "2", "rank": "1", "shots": "10",
                "runs": "3", "c": "0.5", "seed": "1"}


@pytest.fixture
def resolved(monkeypatch):
    """The (suite, config) that ``main`` hands to the suite runner; no
    suite runs."""
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
    # --jobs, --K and --q are no flags of any suite: every suite runs in one
    # process, the readout grid is always the one the error budget sets, and
    # no suite reads a reduction weight
    for flag, value in {**SHARED_FLAGS, "jobs": "2", "K": "64", "q": "2"}.items():
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
    for suite in ("approx", "bounds"):  # they draw nothing, so they read no seed
        with pytest.raises(ValidationError, match="reads no config key 'seed'"):
            resolve_config(suite, {"seed": 3}, None)


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
     ["approx", "--k", "8,,16"], ["separation", "--k", "4,"]],
    ids=" ".join,
)
def test_empty_list_flag_element_is_rejected(resolved, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "expected comma-separated integers" in capsys.readouterr().err
    assert resolved == []


def test_seed_and_suite_keys_are_accepted_by_every_suite(resolved, tmp_path, capsys):
    """A config naming its own suite, with a seed for a suite that reads
    one, is accepted, so a summary's config block can be fed back; one
    naming another suite exits 2 before any record runs and writes no
    output directory."""
    for suite in SUITES:
        seed = {"seed": 4} if "seed" in suite_defaults(suite) else {}
        cfg = resolve_config(suite, {"suite": suite, **seed}, None)
        assert cfg == {**suite_defaults(suite), **seed, "suite": suite}
        other = "approx" if suite == "estimate" else "estimate"
        path = tmp_path / f"{suite}.json"
        path.write_text(json.dumps({"suite": other, **seed}))
        out = tmp_path / "out"
        assert main([suite, "--config", str(path), "--out", str(out)]) == 2
        assert f"config is for suite {other!r}, not {suite}" in capsys.readouterr().err
        assert resolved == [] and not out.exists()


def _exit_code(argv):
    """``main(argv)``'s exit code, also when argparse exits."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize(
    "argv, config_seed, reason",
    [(["estimate", "--seed", "-1"], None, "'seed' must be at least 0"),
     (["approx", "--seed", "-3"], None, "unrecognized arguments: --seed"),
     (["estimate"], -2, "'seed' must be at least 0"), (["estimate"], "7", "'seed' must be a number"),
     (["apps"], 1.5, "'seed' takes integers only"), (["baseline"], True, "'seed' must be a number")],
    ids=["flag-negative", "flag-negative-no-default", "file-negative", "file-string", "file-float", "file-bool"],
)
def test_seed_that_is_not_a_non_negative_integer_exits_2(resolved, tmp_path, capsys, argv, config_seed, reason):
    if config_seed is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": config_seed}))
        argv = [*argv, "--config", str(cfg)]
    assert _exit_code(argv) == 2
    assert reason in capsys.readouterr().err
    assert resolved == []


def test_seed_from_each_source_is_accepted(resolved, monkeypatch, tmp_path):
    """A seed comes from the config file or the flag, the flag last; the
    environment sets none."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 3}))
    assert main(["estimate", "--config", str(cfg)]) == 0
    assert main(["estimate", "--seed", "0"]) == 0
    assert main(["estimate", "--seed", "5", "--config", str(cfg)]) == 0
    monkeypatch.setenv("POWERTRACE_SEED", "12")
    assert main(["estimate"]) == 0
    assert [cfg["seed"] for _, cfg in resolved] == [3, 0, 5, 0]


@pytest.mark.parametrize("suite, key", [("baseline", "k"), ("apps", "vd_k")])
def test_list_flag_of_several_values_for_a_scalar_key_exits_2(resolved, capsys, suite, key):
    """The values are not cut to the first: the run exits 2 and names the key."""
    assert main([suite, "--k", "3,5"]) == 2
    assert f"--k sets {key!r}, which takes one value, got [3, 5]" in capsys.readouterr().err
    assert resolved == []


@pytest.mark.parametrize(
    "suite, key, value, expected",
    [("estimate", "runs", "x", "a number"), ("estimate", "k_values", 5, "a list of number values"),
     ("estimate", "k_values", [4, "8"], "a list of number values"), ("estimate", "eps", [0.1], "a number"),
     ("estimate", "mode", 3, "a string"), ("estimate", "qubits", True, "a number"),
     ("bounds", "c", "0.5", "a number"), ("apps", "entropy_mode", 1, "a string"),
     ("bounds", "eps_grid", [0.3, None], "a list of number values"),
     ("estimate", "observable_kind", ["pauli:ZI"], "a string"), ("estimate", "runs", {"n": 1}, "a number")],
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


def test_config_values_of_their_defaults_kind_are_accepted():
    given = {"eps": 1, "k_values": [4, 8], "mode": "ideal", "state_kind": "diagonal", "runs": None}
    cfg = resolve_config("estimate", given, None)
    assert {key: cfg[key] for key in given} == {**given, "runs": suite_defaults("estimate")["runs"]}


@pytest.mark.parametrize(
    "suite, argv, config, key",
    [("estimate", ["--runs", "0"], {}, "runs"), ("estimate", ["--runs", "-1"], {}, "runs"),
     ("apps", ["--runs", "0"], {}, "vd_runs"),
     ("baseline", [], {"repeats": 0}, "repeats"), ("baseline", ["--shots", "100,0"], {}, "shots_list"),
     ("baseline", [], {"shots_list": [1, 100]}, "shots_list"), ("approx", [], {"grid_size": 1}, "grid_size"),
     ("estimate", ["--qubits", "-1"], {}, "qubits"), ("approx", [], {"k_values": [8, 0]}, "k_values"),
     ("baseline", ["--k", "0"], {}, "k"), ("apps", ["--k", "0"], {}, "vd_k"), ("estimate", ["--rank", "0"], {}, "rank"),
     ("apps", [], {"renyi_alpha": 0}, "renyi_alpha"),
     ("apps", [], {"tsallis_q": -1}, "tsallis_q"),
     # an order of 1 has no entropy or distillation (a Tsallis q of 1 would divide by zero)
     ("apps", ["--k", "1"], {}, "vd_k"), ("apps", [], {"renyi_alpha": 1}, "renyi_alpha"),
     ("apps", [], {"tsallis_q": 1}, "tsallis_q")],
    ids=["estimate-runs-0", "estimate-runs-negative", "apps-vd_runs-0", "baseline-repeats-0",
         "baseline-shots-0", "baseline-shots-1", "approx-grid_size-1", "estimate-qubits-negative",
         "approx-k_values-0", "baseline-k-0", "apps-vd_k-0",
         "estimate-rank-0", "apps-renyi_alpha-0", "apps-tsallis_q-negative", "apps-vd_k-1",
         "apps-renyi_alpha-1", "apps-tsallis_q-1"],
)
def test_count_below_its_least_value_exits_2_before_any_work(tmp_path, capsys, suite, argv, config, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main([suite, *argv, "--config", str(cfg), "--out", str(out)]) == 2
    assert f"config key {key!r} must be at least" in capsys.readouterr().err
    assert not out.exists()


def test_counts_at_their_least_value_are_accepted():
    least = {"estimate": {"runs": 1, "qubits": 0, "rank": 1},
             "apps": {"vd_runs": 1, "renyi_alpha": 2, "tsallis_q": 2, "vd_k": 2},
             "baseline": {"repeats": 1, "shots_list": [2]}, "approx": {"grid_size": 2}}
    for suite, given in least.items():
        cfg = resolve_config(suite, given, None)
        assert {key: cfg[key] for key in given} == given


# each integer key, a suite that reads it, and a fractional value of the key's shape
FRACTIONAL = [("estimate", "runs", 3.9), ("apps", "vd_runs", 2.5), ("baseline", "repeats", 1.5),
              ("baseline", "shots_list", [100, 1000.5]), ("approx", "grid_size", 100.7),
              ("estimate", "qubits", 1.5), ("approx", "k_values", [8.5, 16.9]),
              ("baseline", "k", 3.5), ("apps", "vd_k", 4.5), ("estimate", "rank", 1.2),
              ("apps", "renyi_alpha", 2.5), ("apps", "tsallis_q", 3.0), ("estimate", "seed", 2.5)]


def test_every_integer_key_has_a_fractional_case():
    assert sorted(key for _, key, _ in FRACTIONAL) == sorted(suites._COUNT_MINIMUM)


@pytest.mark.parametrize("suite, key, value", FRACTIONAL, ids=[f"{s}-{k}" for s, k, _ in FRACTIONAL])
def test_fractional_integer_key_exits_2_before_any_work(tmp_path, capsys, suite, key, value):
    """A fraction is not truncated to an integer: it exits 2 and names the key."""
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
def test_empty_list_exits_2_before_any_work(tmp_path, capsys, suite, key):
    assert _exits_2_before_any_work(tmp_path, suite, {key: []})
    assert f"config key {key!r} must be a non-empty list" in capsys.readouterr().err


# gate thresholds, and keys that changed no record or overrode the error
# budget: a suite's verdict and its readout grid are set by its code
REMOVED_KEYS = [("approx", "slope_range", [0.0, 9.0]), ("estimate", "pass_threshold", 0.0),
                ("estimate", "ae_grid_override", 64), ("baseline", "slope_tolerance", 9.0),
                ("bounds", "helstrom_ratio_range", [0.0, 99.0]), ("bounds", "t_values", [1, 2]),
                ("apps", "coverage_threshold", 0.0),
                ("separation", "swap_exponent_range", [0.0, 9.0]), ("separation", "query_exponent_max", 2.0),
                ("separation", "observable_kind", "pauli:ZI")]


@pytest.mark.parametrize("suite, key, value", REMOVED_KEYS, ids=[f"{s}-{k}" for s, k, _ in REMOVED_KEYS])
def test_removed_key_exits_2_before_any_work(tmp_path, capsys, suite, key, value):
    assert key not in suite_defaults(suite)
    assert _exits_2_before_any_work(tmp_path, suite, {key: value})
    assert f"suite {suite} reads no config key {key!r}" in capsys.readouterr().err


def test_baseline_repeats_above_100_exit_2_before_any_work(tmp_path, capsys):
    """Repeat r of shot level i is seeded 100 i + r, so a 101st repeat
    would draw the next level's first record."""
    assert _exits_2_before_any_work(tmp_path, "baseline", {"repeats": 101, "shots_list": [100, 100]})
    assert "baseline needs repeats <= 100, got 101" in capsys.readouterr().err


def test_baseline_shots_beyond_int64_exit_2_without_output(tmp_path, capsys):
    """A swap test's shots are one multinomial draw of int64 counts."""
    out = tmp_path / "out"
    assert main(["baseline", "--shots", str(2 ** 63), "--out", str(out)]) == 2
    assert f"shots must be an integer in [2, 2^63), got {2 ** 63}" in capsys.readouterr().err
    assert not out.exists()


def test_out_that_cannot_be_written_exits_2_with_one_line(tmp_path, capsys):
    """An --out naming a regular file cannot hold the suite's directory: the run exits 2 and says so once."""
    out = tmp_path / "file"
    out.write_text("kept\n")
    assert main(["approx", "--k", "8", "--out", str(out)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"powertrace: cannot write output under {out}: ")
    assert out.read_text() == "kept\n"


@pytest.mark.parametrize("grid", [[0.0, 0.03], [-0.1, -0.03]], ids=["zero", "negative"])
def test_bounds_non_positive_hybrid_eps_exits_2_without_output(tmp_path, capsys, grid):
    """A hybrid eps <= 0 is a zero or negative kick, for which no t* exists."""
    cfg, out = tmp_path / "cfg.json", tmp_path / "out"
    cfg.write_text(json.dumps({"hybrid_eps_grid": grid}))
    assert main(["bounds", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"eps={grid[0]} gives delta={2 * grid[0]} outside (0, 1]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("config, message", [
    ({"hybrid_eps_grid": [1e-320, 0.03]}, "eps=1e-320 is too small: t* = ceil(1 / ||U0 - U1||) is not a finite number"),
    ({"eps_grid": [1e-200, 0.1]}, "eps=1e-200 is too small: the copy bound 1/KL is not a finite number"),
    ({"c": 1e-320}, "c=1e-320 is too small for k=10: m* is not a finite number"),
], ids=["hybrid-t-star", "lecam-kl", "helstrom-m-star"])
def test_bounds_tiny_parameter_without_a_finite_bound_exits_2_without_output(tmp_path, capsys, config, message):
    """An in-range parameter so small that t*, 1/KL or m* is no finite number
    is refused, not carried into an overflow or a division by zero."""
    cfg, out = tmp_path / "cfg.json", tmp_path / "out"
    cfg.write_text(json.dumps(config))
    assert main(["bounds", "--config", str(cfg), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_separation_eps_too_small_for_the_ae_grid_exits_2_without_output(tmp_path, capsys):
    """The estimator refuses the eps before the swap-shot count can overflow."""
    cfg, out = tmp_path / "cfg.json", tmp_path / "out"
    cfg.write_text(json.dumps({"eps": 1e-300}))
    assert main(["separation", "--config", str(cfg), "--out", str(out)]) == 2
    assert "amplitude-estimation grid for accuracy" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["pure", "named:rho0", "named:max_mixed", "named:rho1_0.1"])
@pytest.mark.parametrize("suite", ["estimate", "baseline"])
def test_removed_state_kind_exits_2_before_any_work(tmp_path, capsys, monkeypatch, suite, kind):
    """Two state kinds remain, random_mixed and diagonal; any other name is
    refused before a state is drawn or anything is written."""
    monkeypatch.setattr("powertrace.instances.generators", lambda seeds: pytest.fail("drew a state"))
    cfg, out = tmp_path / "cfg.json", tmp_path / "out"
    cfg.write_text(json.dumps({"state_kind": kind, "rank": 1}))
    assert main([suite, "--config", str(cfg), "--out", str(out)]) == 2
    assert f"unknown state kind {kind!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("qubits, label", [(1, "pauli:Z"), (3, "pauli:ZII")])
def test_separation_observable_follows_its_qubit_count(tmp_path, qubits, label):
    assert main(["separation", "--qubits", str(qubits), "--out", str(tmp_path)]) == 0
    (config_dir,) = (tmp_path / "separation").iterdir()
    records = json.loads((config_dir / "records.json").read_text())
    assert {rec["spec"]["instance"]["observable_kind"] for rec in records} == {label}


@pytest.mark.parametrize(
    "argv, config, reason",
    [(["--eps", "nan"], {}, "'eps' must be finite"), ([], '{"eps": NaN}', "'eps' must be finite"),
     ([], '{"eps": 1e400}', "'eps' must be finite"), ([], '{"c": -Infinity}', "'c' must be finite"),
     ([], {"confidence": 1}, "0 < confidence < 1"), ([], {"confidence": 1.5}, "0 < confidence < 1"),
     ([], {"confidence": 0}, "0 < confidence < 1"), ([], {"confidence": -0.2}, "0 < confidence < 1"),
     ([], {"eps": 0.0}, "0 < eps <= 1"), ([], {"eps": 2.0}, "0 < eps <= 1")],
    ids=["eps-nan-flag", "eps-nan", "eps-overflow", "c-minus-infinity", "confidence-1", "confidence-1.5",
         "confidence-0", "confidence-negative", "eps-0", "eps-2"],
)
def test_non_finite_value_or_bad_confidence_exits_2_before_any_work(tmp_path, capsys, argv, config, reason):
    """argparse's float and json.loads both accept nan and infinities; a
    config rejects them for every key, and ``separation`` checks its
    confidence and eps before any record runs."""
    suite = "bounds" if "'c'" in reason else "separation"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config if isinstance(config, str) else json.dumps(config))
    out = tmp_path / "out"
    assert main([suite, *argv, "--config", str(cfg), "--out", str(out)]) == 2
    assert reason in capsys.readouterr().err
    assert not out.exists()


def _outcome(parse, argv, capsys):
    """(exit code, stdout, stderr) of ``parse(argv)``; 0 if it returns."""
    try:
        parse(argv)
        code = 0
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", [["-h"], ["estimate", "-h"], [], ["estimat"], ["bqp"], ["baseline", "--bogus"]],
                         ids=lambda argv: " ".join(argv) or "empty")
def test_main_prints_what_the_all_suite_parser_prints(resolved, capsys, argv):
    assert _outcome(main, argv, capsys) == _outcome(cli.build_parser().parse_args, argv, capsys)
    assert resolved == []


def test_main_builds_only_the_named_suites_parser(resolved, monkeypatch):
    built, real = [], cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda suites=SUITES: built.append(tuple(suites)) or real(suites))
    assert main(["estimate", "--runs", "3"]) == 0
    with pytest.raises(SystemExit):
        main(["estimatex"])
    assert built == [("estimate",), SUITES]
