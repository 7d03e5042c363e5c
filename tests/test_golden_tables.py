"""Byte-level regression gate on the six suites at their defaults.

Each suite has three hashes: the sha256 of the raw bytes of its
``table.csv``, its ``records.json`` and its ``summary.json`` (config,
config hash, version and the gate figures). A rerun changes none of them.
The records hold every field a record carries, so they pin what no table
column reads: ``model_error``, ``eps_ae_budget``, ``alpha_o`` and the
query counts. A change that moves numbers on purpose updates the hashes
it changes and says why; any other difference is a behaviour change. The
same run pins the key paths of ``records.json`` and checks that every
table row is the projection of the record it came from.
"""

import csv
import hashlib
import json
import os

import pytest

from powertrace.cli import main
from powertrace.suites import SUITE_REGISTRY, SUITES

GOLDEN_TABLE_SHA256 = {
    "approx": "7cdd5f3bcc110571832f6bcf05fe27f2a11f4fc6a0e7172717d709af5c70d42c",
    "estimate": "28c453530a1af4ea9be8143f8ce85480969bfb3d8c4cc042f8135cb9a75d347b",
    "baseline": "497f39a0a8900ac44ed75e8cd28042fa465c5c55678421bdfb0ebe18e579f2cf",
    "bounds": "adf2d34498aa8c5573903d48f2e23b2d06b9a04735f59bfd822f9f5af342cb78",
    "apps": "8831a561d137f2948fa0e3d803b0d0b582686c18a78a8cc75783add6948a5c54",
    "separation": "a406d05163c5fa0ae028a311ec518acea4ce1edc7114603b9e12bbd6b08c9456",
}

GOLDEN_RECORDS_SHA256 = {
    "approx": "529f3b8fe402dae44553a61ff31c1e4930abe26169edf20c60144451126b4605",
    "estimate": "6d6e30f04f0642212e624175dea4255d0a47d0de7c463a144eea2a93c4d9d242",
    "baseline": "ac1505f10cdd6c440fee71cec4efd8698cf2d5ff837c607e8d3b7e902269b1d1",
    "bounds": "f9cbe636e83e9ec26d414716747c03e7c25fd14b741cfcff83c7dff8c0751d8c",
    "apps": "2307029f3bf2221275ddfa2b28a6b59f64b451c5b5c5522ac177fe17e4ce9e46",
    "separation": "8666eff97fcf0d611f275fb399f6f6a0f478b86bfcf68d105bd0ef62fe74ebfc",
}

GOLDEN_SUMMARY_SHA256 = {
    "approx": "4e2e05d8d3b215b7efeee4513bb8bf75d57cb9b1b4452fe18ede3867418e4ae1",
    "estimate": "c48bb9fffa6e7dc5fc36034aa9b220c15e736752c9cbceb43fa2653f0a7610fd",
    "baseline": "62f9a9d8402286ea649ac8a4fbee2e13fce85a915f63162c37d598813f0afc2d",
    "bounds": "6d495ee98374147b25f7db0294263c3f159cf7d3e97d328d61b5746f0beb4145",
    "apps": "6483352ccad9605bf82bfc0d1913a51989af0dd18b23bf330df91ac398e742a9",
    "separation": "857ed7376a68a3ac87544587aa4122f1e73d5b2373b4b6a568ee3ecc8de52820",
}


# An ``EstimationReport.to_json()``, as it appears under a record.
_ESTIMATION_REPORT = (
    "ae_queries_K alpha_o eps_ae_budget eps_poly_budget eps_requested estimate.im estimate.re k "
    "mode model_error oracle_value.im oracle_value.re poly_degree seed u_rho_queries_total"
).split()
_INSTANCE_SPEC = "eps k observable_kind qubits rank seed state_kind".split()


def _under(prefix, keys):
    return [f"{prefix}.{key}" for key in keys]


# Sorted dotted key paths over all records of each default records.json;
# "[]" steps into a list.
RECORD_KEY_PATHS = {
    "approx": _under("report", [
        "chernoff_tail", "empirical_degree", "formula_degree", "measured_sup_error", "tail_exact", "within_eps"]) + ["spec.eps", "spec.k"],
    "estimate": ["abs_error", *_under("report", _ESTIMATION_REPORT), "run",
                 *_under("spec", _INSTANCE_SPEC), "within_eps"],
    "baseline": _under("report", [
        "abs_error", "copies_used", "mean", "mode", "oracle_value", "repeat", "shots", "stderr",
    ]) + _under("spec", _INSTANCE_SPEC),
    "bounds": _under("report", [
        "copies_bound", "delta", "eps_prime", "expectation_0", "expectation_1", "kl", "m_star",
        "norm_closed_form", "norm_direct", "rows[].fidelity", "rows[].m",
        "rows[].success_lower_bound", "t_star",
    ]) + _under("spec", ["c", "eps", "experiment", "k", "obs"]),
    "apps": ["application"] + _under("report", [
        "covered", "error_bound", "ratio_estimate",
        *_under("trace_power", _ESTIMATION_REPORT),
        "true_error", "true_ratio", "true_value", "value", "within_bound",
    ]) + ["run"] + _under("spec", [
        "application", "eps", "k", "observable_kind", "order", "qubits", "rank", "seed",
        "state", "state_kind",
    ]),
    "separation": _under("report", [
        "abs_error", *_under("estimator", _ESTIMATION_REPORT),
        "swap_copies", "swap_shots", "swap_variance",
    ]) + _under("spec", ["confidence", "eps", *_under("instance", _INSTANCE_SPEC), "k"]),
}


def _key_paths(obj, prefix=""):
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _key_paths(value, f"{prefix}.{key}" if prefix else key)
    elif isinstance(obj, list):
        for value in obj:
            yield from _key_paths(value, prefix + "[]")
    else:
        yield prefix


def _lookup(record, paths):
    """The record's value at the first of the "|"-separated dotted paths it
    holds, or None if it holds none."""
    for path in paths.split("|"):
        value = record
        for key in path.split("."):
            value = value.get(key) if isinstance(value, dict) else None
        if value is not None:
            return value
    return None


def _same_cell(text, value):
    if value is None:
        return text == "nan"
    if isinstance(value, bool):
        return text == ("true" if value else "false")
    if isinstance(value, str):
        return text == value
    return float(text) == value


def test_every_suite_has_a_golden_hash():
    assert set(GOLDEN_TABLE_SHA256) == set(SUITES) == set(GOLDEN_RECORDS_SHA256) == set(GOLDEN_SUMMARY_SHA256)


@pytest.mark.parametrize("suite", SUITES)
def test_default_table_matches_golden_hash(suite, tmp_path):
    assert main([suite, "--out", str(tmp_path)]) == 0
    (config_dir,) = os.listdir(tmp_path / suite)
    table = (tmp_path / suite / config_dir / "table.csv").read_bytes()
    assert hashlib.sha256(table).hexdigest() == GOLDEN_TABLE_SHA256[suite]

    records_text = (tmp_path / suite / config_dir / "records.json").read_bytes()
    assert hashlib.sha256(records_text).hexdigest() == GOLDEN_RECORDS_SHA256[suite]
    summary = (tmp_path / suite / config_dir / "summary.json").read_bytes()
    assert hashlib.sha256(summary).hexdigest() == GOLDEN_SUMMARY_SHA256[suite]
    records = json.loads(records_text)
    assert sorted({p for rec in records for p in _key_paths(rec)}) == sorted(RECORD_KEY_PATHS[suite])

    header, *rows = csv.reader(table.decode().splitlines())
    columns = SUITE_REGISTRY[suite].columns
    assert header == list(columns)
    assert len(rows) == len(records)
    for row, rec in zip(rows, records):
        for name, text in zip(header, row):
            assert _same_cell(text, _lookup(rec, columns[name])), (name, text, rec)
