"""Every config key of a suite is an experiment parameter: changing it
changes the suite's records.

A suite's gate thresholds are code, not config, so a key that changed no
record could only set a verdict, or nothing at all. Each case below runs
one suite with one key moved off its default and compares the records
with the default run's, once the ``timestamp`` and ``config_hash`` values
(which any config change or rerun moves) are blanked.
"""

import re

import pytest

from powertrace.suites import SEED_ENV_VAR, SUITE_REGISTRY, resolve_config, run_suite_config

# (suite, key) -> one alternative value
ALTERNATIVES = {
    ("approx", "k_values"): [8, 16],
    ("approx", "eps"): 1e-2,
    ("approx", "grid_size"): 1000,
    ("estimate", "qubits"): 1,
    ("estimate", "rank"): 1,
    ("estimate", "k_values"): [4, 8],
    ("estimate", "eps"): 0.1,
    ("estimate", "runs"): 20,
    ("estimate", "seed"): 1,
    ("estimate", "state_kind"): "pure",
    ("estimate", "observable_kind"): "projector",
    ("estimate", "mode"): "ideal",
    ("baseline", "qubits"): 2,
    ("baseline", "rank"): 1,
    ("baseline", "k"): 4,
    ("baseline", "shots_list"): [100, 1000],
    ("baseline", "repeats"): 3,
    ("baseline", "seed"): 1,
    ("baseline", "state_kind"): "diagonal",
    ("baseline", "observable_kind"): "projector",
    ("bounds", "k_values"): [10, 20],
    ("bounds", "c"): 0.25,
    ("bounds", "eps_grid"): [0.3, 0.1],
    ("bounds", "hybrid_eps_grid"): [0.1, 0.03],
    ("bqp", "r_qubits"): 3,
    ("bqp", "runs"): 10,
    ("bqp", "q_values"): [3],
    ("bqp", "k_values"): [2],
    ("bqp", "seed"): 1,
    ("apps", "renyi_alpha"): 3,
    ("apps", "tsallis_q"): 2,
    ("apps", "entropy_eps"): 0.02,
    ("apps", "entropy_mode"): "sampled",
    ("apps", "vd_runs"): 20,
    ("apps", "vd_k"): 6,
    ("apps", "vd_eps"): 0.05,
    ("apps", "qubits"): 1,
    ("apps", "rank"): 1,
    ("apps", "seed"): 1,
    ("apps", "mode"): "ideal",
    ("separation", "qubits"): 1,
    ("separation", "rank"): 1,
    ("separation", "k_values"): [4, 8],
    ("separation", "eps"): 0.1,
    ("separation", "seed"): 8,
    ("separation", "confidence"): 0.9,
}


# A one-qubit rank-1 state is pure: its swap test of the identity reads 1 on
# every shot, so each stderr is 0 and the suite's log-log stderr fit warns.
_ZERO_STDERR_WARNING = pytest.mark.filterwarnings("ignore:divide by zero encountered in log:RuntimeWarning")
CASES = [pytest.param(suite, key, id=f"{suite}-{key}",
                      marks=[_ZERO_STDERR_WARNING] if (suite, key) == ("baseline", "rank") else [])
         for suite, key in ALTERNATIVES]


def _records(suite: str, file_config: dict, out) -> str:
    """The suite's ``records.json`` text with its timestamps and config
    hashes blanked."""
    cfg = resolve_config(suite, file_config, None)
    run_suite_config(suite, cfg, out_root=str(out))
    (path,) = out.glob(f"{suite}/*/records.json")
    text = path.read_text()
    return re.sub(r'"(timestamp|config_hash)": "[^"]*"', r'"\1": ""', text)


@pytest.fixture(scope="module")
def default_records(tmp_path_factory):
    """Each suite's default records, run once for the module."""
    cache = {}

    def records(suite: str) -> str:
        if suite not in cache:
            with pytest.MonkeyPatch.context() as mp:
                mp.delenv(SEED_ENV_VAR, raising=False)
                cache[suite] = _records(suite, None, tmp_path_factory.mktemp(suite))
        return cache[suite]

    return records


def test_every_config_key_has_an_alternative():
    keys = {(suite, key) for suite, entry in SUITE_REGISTRY.items() for key in entry.defaults}
    assert set(ALTERNATIVES) == keys


@pytest.mark.parametrize("suite, key", CASES)
def test_every_config_key_changes_a_record(default_records, tmp_path, monkeypatch, suite, key):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    assert ALTERNATIVES[suite, key] != SUITE_REGISTRY[suite].defaults[key]
    assert _records(suite, {key: ALTERNATIVES[suite, key]}, tmp_path) != default_records(suite)
