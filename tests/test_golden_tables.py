"""Byte-level regression gate on the seven suites at their defaults.

Each hash is the sha256 of the suite's ``table.csv``. A change that moves
numbers on purpose updates the hash it changes and says why; any other
difference is a behaviour change.
"""

import hashlib
import os

import pytest

from powertrace.cli import main
from powertrace.suites import SEED_ENV_VAR, SUITES

GOLDEN_TABLE_SHA256 = {
    "approx": "c07c5b96377d8ebe01e0c95396d7929de66ef03cd7bbe0cc1801f2c8a8b3f2b8",
    "estimate": "68651c5b09c114e749152e06523e1ad82824a072fc33150daba4e51eeb384d33",
    "baseline": "56cbb6e74ff28193c48330dc2aa6abebe9f6ed39ba916cd0d4b0dca619881125",
    "bounds": "adf2d34498aa8c5573903d48f2e23b2d06b9a04735f59bfd822f9f5af342cb78",
    "bqp": "591f0a3a14091ab6588367638fb12f036bbfe9beaf518bb55c2df13bf805eaeb",
    "apps": "384a803787585622b6aad32380b3f1f41ea6b28664f93e119102d58df47b7ecb",
    "separation": "657709ecd78ba683c24932bb2c054faa186eb11e4c4055417a5a637d5d0161a4",
}


def test_every_suite_has_a_golden_hash():
    assert set(GOLDEN_TABLE_SHA256) == set(SUITES)


@pytest.mark.parametrize("suite", SUITES)
def test_default_table_matches_golden_hash(suite, tmp_path, monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    assert main([suite, "--out", str(tmp_path)]) == 0
    (config_dir,) = os.listdir(tmp_path / suite)
    table = (tmp_path / suite / config_dir / "table.csv").read_bytes()
    assert hashlib.sha256(table).hexdigest() == GOLDEN_TABLE_SHA256[suite]
