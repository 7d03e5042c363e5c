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
    "estimate": "16535913ec8db3efbbc1aaa6f16b8eca858dab9fb399eeb9bda9bf9e9e1fa093",
    "baseline": "56cbb6e74ff28193c48330dc2aa6abebe9f6ed39ba916cd0d4b0dca619881125",
    "bounds": "adf2d34498aa8c5573903d48f2e23b2d06b9a04735f59bfd822f9f5af342cb78",
    "bqp": "6891a9a784652f06074699efd051f022c52760d52b0b859c3142802e658f4c25",
    "apps": "2997a05ac58f4dc6500deebfa97c315751d4dc29b1509e217653002e9b20d961",
    "separation": "eae970b6d5da9735811f17617b4111b40d85b027f9486d69d5eaa565837ea050",
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
