"""Byte-level regression gate on the seven suites at their defaults.

Each suite has three hashes: the sha256 of its ``table.csv``, that of its
``records.json`` with every record's ``timestamp`` value emptied (the one
field a rerun changes), and that of its ``summary.json`` (config, config
hash, version and the gate figures, none of which a rerun changes). The records hold every field a record
carries, so they pin what no table column reads: ``model_error``,
``eps_ae_budget``, ``alpha_o`` and the query counts. A change
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
from powertrace.suites import SUITE_REGISTRY, SUITES

GOLDEN_TABLE_SHA256 = {
    "approx": "7cdd5f3bcc110571832f6bcf05fe27f2a11f4fc6a0e7172717d709af5c70d42c",
    "estimate": "28c453530a1af4ea9be8143f8ce85480969bfb3d8c4cc042f8135cb9a75d347b",
    "baseline": "497f39a0a8900ac44ed75e8cd28042fa465c5c55678421bdfb0ebe18e579f2cf",
    "bounds": "adf2d34498aa8c5573903d48f2e23b2d06b9a04735f59bfd822f9f5af342cb78",
    "bqp": "591f0a3a14091ab6588367638fb12f036bbfe9beaf518bb55c2df13bf805eaeb",
    "apps": "8831a561d137f2948fa0e3d803b0d0b582686c18a78a8cc75783add6948a5c54",
    "separation": "a406d05163c5fa0ae028a311ec518acea4ce1edc7114603b9e12bbd6b08c9456",
}

GOLDEN_RECORDS_SHA256 = {
    "approx": "fdd9dfa3ee74c0c23a9b0020e5f9c4e03d7431cbb31fa6f788b8c9906f864176",
    "estimate": "9e55107da2a4683111ab50de921c8b1fe847a8860a1b41639a275a4685405314",
    "baseline": "04804331d4879fc7247d3e52c236f2bcd329a2948d9a1960c0cec9a35f60c9e4",
    "bounds": "2ec8c2d79de3ddf92387a56b44698c131b0207a5036cc762c6a86196fd7fda86",
    "bqp": "ff1bb2fee068bc52f55639dfa0ebe80505e6fb9037ccd82c0fa87cb13882f3ac",
    "apps": "a9950f8f29429f1aab6dfbb2400f75e8857b832606949f0d041179b0f6c06d6c",
    "separation": "bf71fc251962aceaa16b4b0ead1200d297e213559c30fd0b451f640d7c3f18db",
}

GOLDEN_SUMMARY_SHA256 = {
    "approx": "cdeff87c765fe4cd600fcb758ca12a023877479e7f3640f20983639f5a672e95",
    "estimate": "ed513663062e754a3a36c87b46a25af1d1245374e7ed9b715dce89d1474c5b59",
    "baseline": "f82344afd7f1ae38989c3fa1c66ff6a4f747f7c4392a768bd028caee958aa7d4",
    "bounds": "0bed2af3bea6e51f5ce9945f7f0e5c375a0bdb6bb83a7d12095d961af98184a2",
    "bqp": "ed6c0ab5ef8cd84521f667e9500328acd1321440aea2e845b926900f8c43d73f",
    "apps": "00a8fe8b724e1f3f11e5fa3d54ae4c6955cc76d3a50b1fca183cc4985b488097",
    "separation": "2f52b6f7c6da538b857afd4c6daac77b3312848aa4a24f8833bea64c261e0196",
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
        "chernoff_tail", "empirical_degree", "formula_degree", "measured_sup_error", "tail_exact", "within_eps"]) + ["spec.eps", "spec.k"],
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
    assert set(GOLDEN_TABLE_SHA256) == set(SUITES) == set(GOLDEN_RECORDS_SHA256) == set(GOLDEN_SUMMARY_SHA256)


@pytest.mark.parametrize("suite", SUITES)
def test_default_table_matches_golden_hash(suite, tmp_path):
    assert main([suite, "--out", str(tmp_path)]) == 0
    (config_dir,) = os.listdir(tmp_path / suite)
    table = (tmp_path / suite / config_dir / "table.csv").read_bytes()
    assert hashlib.sha256(table).hexdigest() == GOLDEN_TABLE_SHA256[suite]

    records_text = (tmp_path / suite / config_dir / "records.json").read_bytes()
    assert records_digest(records_text) == GOLDEN_RECORDS_SHA256[suite]
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
