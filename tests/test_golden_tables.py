"""Byte-level regression gate on the seven suites at their defaults.

Each suite has two hashes: the sha256 of its ``table.csv``, and that of
its ``records.json`` with every record's ``timestamp`` value emptied (the
one field a rerun changes). The records hold every field a record
carries, so they pin what no table column reads: ``model_error``,
``eps_ae_budget``, ``alpha_o`` and the ledger-derived fields. A change
that moves numbers on purpose updates the hashes it changes and says why;
any other difference is a behaviour change. The same run pins the key
paths of ``records.json`` and checks that every table row is the
projection of the record it came from.
"""

import csv
import hashlib
import json
import os
import re

import pytest

from powertrace.cli import main
from powertrace.suites import SEED_ENV_VAR, SUITE_REGISTRY, SUITES

GOLDEN_TABLE_SHA256 = {
    "approx": "c07c5b96377d8ebe01e0c95396d7929de66ef03cd7bbe0cc1801f2c8a8b3f2b8",
    "estimate": "28c453530a1af4ea9be8143f8ce85480969bfb3d8c4cc042f8135cb9a75d347b",
    "baseline": "56cbb6e74ff28193c48330dc2aa6abebe9f6ed39ba916cd0d4b0dca619881125",
    "bounds": "adf2d34498aa8c5573903d48f2e23b2d06b9a04735f59bfd822f9f5af342cb78",
    "bqp": "591f0a3a14091ab6588367638fb12f036bbfe9beaf518bb55c2df13bf805eaeb",
    "apps": "8831a561d137f2948fa0e3d803b0d0b582686c18a78a8cc75783add6948a5c54",
    "separation": "a406d05163c5fa0ae028a311ec518acea4ce1edc7114603b9e12bbd6b08c9456",
}

GOLDEN_RECORDS_SHA256 = {
    "approx": "8dc1ba1aad3a93ac1675ad9f54ddb6d7d709faa0d120d14999280c22dd68ab5f",
    "estimate": "9e55107da2a4683111ab50de921c8b1fe847a8860a1b41639a275a4685405314",
    "baseline": "1bf9ae12266046220f8f81430fa7bd487e274863d81c5845e3d4a64293b4fb9f",
    "bounds": "2ec8c2d79de3ddf92387a56b44698c131b0207a5036cc762c6a86196fd7fda86",
    "bqp": "ff1bb2fee068bc52f55639dfa0ebe80505e6fb9037ccd82c0fa87cb13882f3ac",
    "apps": "a9950f8f29429f1aab6dfbb2400f75e8857b832606949f0d041179b0f6c06d6c",
    "separation": "bf71fc251962aceaa16b4b0ead1200d297e213559c30fd0b451f640d7c3f18db",
}


def records_digest(text: bytes) -> str:
    """sha256 of a ``records.json`` with each ``timestamp`` value emptied."""
    return hashlib.sha256(re.sub(rb'"timestamp": "[^"]*"', b'"timestamp": ""', text)).hexdigest()


# An ``EstimationReport.to_json()``, as it appears under a record.
_ESTIMATION_REPORT = (
    "ae_queries_K alpha_o eps_ae_budget eps_poly_budget eps_requested estimate.im estimate.re k "
    "mode model_error oracle_value.im oracle_value.re poly_degree seed u_rho_queries_total"
).split()
_INSTANCE_SPEC = "eps k observable_kind qubits rank seed state_kind".split()
_STAMP = ["config_hash", "timestamp", "tool_version"]


def _under(prefix, keys):
    return [f"{prefix}.{key}" for key in keys]


# Sorted dotted key paths over all records of each default records.json;
# "[]" steps into a list.
RECORD_KEY_PATHS = {
    "approx": _STAMP + _under("report", [
        "chernoff_tail", "empirical_degree", "formula_degree", "lower_bound_d",
        "measured_sup_error", "tail_exact", "within_eps"]) + ["spec.eps", "spec.k"],
    "estimate": ["abs_error", *_STAMP, *_under("report", _ESTIMATION_REPORT), "run",
                 *_under("spec", _INSTANCE_SPEC), "within_eps"],
    "baseline": _STAMP + _under("report", [
        "abs_error", "copies_used", "mean", "mode", "oracle_value", "repeat", "shots", "stderr",
    ]) + _under("spec", _INSTANCE_SPEC),
    "bounds": _STAMP + _under("report", [
        "copies_bound", "delta", "eps_prime", "expectation_0", "expectation_1", "kl", "m_star",
        "norm_closed_form", "norm_direct", "rows[].fidelity", "rows[].m",
        "rows[].success_lower_bound", "t_star",
    ]) + _under("spec", ["c", "eps", "experiment", "k", "obs"]),
    "bqp": _STAMP + _under("report", [
        "bernoulli_ok", "identity_defect", "lambda", "p_x", "thresholds[]", "trace_power",
    ]) + _under("spec", ["k", "q", "r_qubits", "run", "seed"]),
    "apps": ["application", *_STAMP] + _under("report", [
        "covered", "error_bound", "ratio_estimate",
        *_under("trace_power", _ESTIMATION_REPORT),
        "true_error", "true_ratio", "true_value", "value", "within_bound",
    ]) + ["run"] + _under("spec", [
        "application", "eps", "k", "observable_kind", "order", "qubits", "rank", "seed",
        "state", "state_kind",
    ]),
    "separation": _STAMP + _under("report", [
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
    assert set(GOLDEN_TABLE_SHA256) == set(SUITES) == set(GOLDEN_RECORDS_SHA256)


@pytest.mark.parametrize("suite", SUITES)
def test_default_table_matches_golden_hash(suite, tmp_path, monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    assert main([suite, "--out", str(tmp_path)]) == 0
    (config_dir,) = os.listdir(tmp_path / suite)
    table = (tmp_path / suite / config_dir / "table.csv").read_bytes()
    assert hashlib.sha256(table).hexdigest() == GOLDEN_TABLE_SHA256[suite]

    records_text = (tmp_path / suite / config_dir / "records.json").read_bytes()
    assert records_digest(records_text) == GOLDEN_RECORDS_SHA256[suite]
    records = json.loads(records_text)
    assert sorted({p for rec in records for p in _key_paths(rec)}) == sorted(RECORD_KEY_PATHS[suite])

    header, *rows = csv.reader(table.decode().splitlines())
    columns = SUITE_REGISTRY[suite].columns
    assert header == list(columns)
    assert len(rows) == len(records)
    for row, rec in zip(rows, records):
        for name, text in zip(header, row):
            assert _same_cell(text, _lookup(rec, columns[name])), (name, text, rec)
