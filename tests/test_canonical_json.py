"""``suites.canonical_json``, the records pass ``suites._rendered`` and the
files ``suites.run_suite_config`` writes from it, against the writers their
templates replaced.

``reference_canonical_json`` is the recursive JSON writer, kept here as the
oracle: it formats each value by one recursive call and joins every level,
and escapes keys as string values are. The templates must write the same
bytes for every tree, and for every list of records, whatever their shapes.
Both write a numpy ``bool_`` as a JSON bool, where the first recursive writer
wrote its string. ``reference_table`` is the cell-by-cell table writer:
``reference_cell_text`` of the value at a column's first path the record
holds, or nan.
"""

import collections
import glob
import json
import math
import os
import string
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from powertrace import suites
from powertrace.suites import canonical_json

_REFERENCE_KINDS = ((dict, dict), (float, (float, np.floating)), (bool, (bool, np.bool_)),
                    (int, (int, np.integer)), (list, (list, tuple)))


def reference_canonical_json(obj, indent: int = 0) -> str:
    """The recursive writer: each value written once, at ``indent``."""
    kind = type(obj)
    if kind not in (float, dict, str, bool, int, list):
        kind = next((base for base, types in _REFERENCE_KINDS if isinstance(obj, types)), None)
    if kind is float:
        x = float(obj)
        if math.isfinite(x):
            return format(x, ".17g")
        return '"nan"' if math.isnan(x) else ('"inf"' if x > 0 else '"-inf"')
    if kind is dict:
        pad = " " * (indent + 2)
        items = [f'{pad}{json.dumps(str(key))}: {reference_canonical_json(obj[key], indent + 2)}'
                 for key in sorted(obj)]
        return "{\n" + ",\n".join(items) + "\n" + pad[2:] + "}" if items else "{}"
    if kind is bool:
        return "true" if obj else "false"
    if kind is int:
        return str(int(obj))
    if kind is list:
        pad = " " * (indent + 2)
        items = [pad + reference_canonical_json(v, indent + 2) for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad[2:] + "]" if items else "[]"
    if obj is None:
        return "null"
    return json.dumps(str(obj))


SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2 ** 70), max_value=2 ** 70),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324]),
    st.text(),
    st.sampled_from(['a"b', "back\\slash", "tab\tnew\nline", "ü€😀"]),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
)
KEYS = st.one_of(st.text(alphabet=string.ascii_letters + string.digits + "_.", max_size=8),
                 st.sampled_from(['a"b', "k\\", "{x}", "}{", "ü"]))
TREES = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(KEYS, children, max_size=5),
    ),
    max_leaves=40,
)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(TREES)
def test_canonical_json_writes_the_reference_bytes(tree):
    assert canonical_json(tree) == reference_canonical_json(tree)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.dictionaries(st.text(), st.dictionaries(st.text(), st.integers(), max_size=3), max_size=4))
def test_any_key_round_trips_through_json(tree):
    assert json.loads(canonical_json(tree)) == tree


def test_a_key_with_a_quote_is_escaped():
    text = canonical_json({'a"b': 1})
    assert text == '{\n  "a\\"b": 1\n}'
    assert json.loads(text) == {'a"b': 1}


def test_top_level_items_and_empty_containers():
    assert canonical_json([]) == "[]" and canonical_json({}) == "{}" and canonical_json(2.5) == "2.5"
    assert canonical_json([{"b": [], "a": {}}, (1,)]) == '[\n  {\n    "a": {},\n    "b": []\n  },\n  [\n    1\n  ]\n]'


def test_a_numpy_bool_is_written_as_a_json_bool():
    assert canonical_json({"a": np.True_, "b": [np.False_]}) == '{\n  "a": true,\n  "b": [\n    false\n  ]\n}'
    assert [*map(suites._leaf_json, (np.True_, np.False_, True))] == ["true", "false", "true"]


def _refill(draw, tree):
    """A tree of ``tree``'s containers and keys, each leaf kept, or drawn anew of its type if it is a
    float (nan and infinities too), or of any scalar type."""
    if isinstance(tree, dict):
        return {key: _refill(draw, value) for key, value in tree.items()}
    if isinstance(tree, (list, tuple)):
        return type(tree)(_refill(draw, value) for value in tree)
    choice = draw(st.integers(0, 2))
    return tree if choice == 0 else draw(st.floats() if choice == 1 and type(tree) is float else SCALARS)


SKELETONS = st.dictionaries(KEYS, st.recursive(SCALARS, lambda children: st.one_of(
    st.lists(children, max_size=3), st.lists(children, max_size=3).map(tuple),
    st.dictionaries(KEYS, children, max_size=3)), max_leaves=10), max_size=4)


@st.composite
def record_lists(draw):
    """Lists of records: runs of one shape, whose leaves may change type, between other trees."""
    records = []
    for _ in range(draw(st.integers(1, 3))):
        skeleton = draw(SKELETONS)
        records += [_refill(draw, skeleton) for _ in range(draw(st.integers(1, 5)))]
        records += draw(st.lists(SKELETONS, max_size=1))
    return records


def _listed(records: list) -> str:
    """The JSON list of the non-empty ``records``, each item as the records pass writes it."""
    return "[\n" + ",\n".join(item for item, _ in suites._rendered(records, {})) + "\n]"


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(record_lists())
def test_records_of_one_shape_write_the_reference_bytes(records):
    assert _listed(records) == reference_canonical_json(records)


def test_hash_equal_keys_subclasses_and_non_finite_floats_are_not_read_through_another_shape():
    """1, True and 1.0 are one dict key; each record is written with its own, and a float that
    turns non-finite is quoted."""
    records = [{1: 1.0}, {True: 2.0}, {1.0: 3}, {"a": 1}, collections.OrderedDict(a=2.0),
               collections.defaultdict(int, b=1), {"a": np.float64(0.5)}, {"a": math.nan}, {"a": 0.5},
               {"b": 0.5}, {"b": math.nan}, {"b": -math.inf}, {"b": 2.5}]
    assert _listed(records) == reference_canonical_json(records)
    assert dict(records[5]) == {"b": 1}  # not written through another shape's keys


def test_more_shapes_than_the_cache_holds():
    records = [{f"k{i}": float(i), "v": [i] * (i % 3)} for i in range(3 * 8)] * 2
    assert _listed(records) == reference_canonical_json(records)


def reference_cell(record, paths: str):
    """The value at the first of the "|"-separated dotted ``paths`` that ``record`` holds, or nan."""
    for path in paths.split("|"):
        value = record
        for key in path.split("."):
            if not isinstance(value, dict) or key not in value:
                break
            value = value[key]
        else:
            return value
    return math.nan


def reference_cell_text(x) -> str:
    """One table cell: a float (numpy's too) at 17 significant digits, a bool as true or false, any other
    value as its ``str()``."""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    return str(x)


def reference_table(columns: dict, records: list) -> str:
    lines = [",".join(columns)] + [",".join(reference_cell_text(reference_cell(rec, paths))
                                            for paths in columns.values()) for rec in records]
    return "\n".join(lines) + "\n"


def _suite_run(columns: dict, records: list) -> dict:
    """The ``table.csv`` and ``records.json`` texts ``run_suite_config`` writes for a suite whose runner
    returns ``records`` and whose table has ``columns``."""
    entry = suites.SUITE_REGISTRY["approx"]
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        patch.setitem(suites.SUITE_REGISTRY, "approx",
                      entry._replace(run=lambda cfg: (records, {}, []), columns=columns))
        assert suites.run_suite_config("approx", suites.suite_defaults("approx"), tmp) == 0
        (out_dir,) = glob.glob(os.path.join(tmp, "approx", "*"))
        texts = {}
        for name in ("table.csv", "records.json"):
            with open(os.path.join(out_dir, name), encoding="utf-8", newline="") as fh:
                texts[name] = fh.read()
    return texts


SMALL_KEYS = st.sampled_from("abc")
PATHS = st.lists(st.lists(SMALL_KEYS, min_size=1, max_size=3).map(".".join), min_size=1, max_size=3).map("|".join)
SMALL_TREES = st.recursive(SCALARS, lambda children: st.one_of(
    st.lists(children, max_size=3), st.dictionaries(SMALL_KEYS, children, max_size=3)), max_leaves=12)


@st.composite
def tables(draw):
    columns = {f"c{i}": paths for i, paths in enumerate(draw(st.lists(PATHS, min_size=1, max_size=6)))}
    records = []
    for _ in range(draw(st.integers(1, 3))):
        skeleton = draw(st.dictionaries(SMALL_KEYS, SMALL_TREES, max_size=3))
        records += [_refill(draw, skeleton) for _ in range(draw(st.integers(1, 5)))]
        records += draw(st.lists(SMALL_TREES, max_size=1))
    return columns, records


def test_a_suite_table_reaches_a_nan_through_a_fallback_path():
    columns = {"value": "report.m_star|report.t_star", "kind": "spec.kind", "flag": "ok|report.ok",
               "box": "report", "none": "spec.none"}
    records = [{"spec": {"kind": "a", "none": None}, "report": {"t_star": math.nan, "ok": np.True_}},
               {"spec": {"kind": "b", "none": None}, "report": {"t_star": 2.5, "ok": False}},
               {"spec": {"kind": 'q"uote', "none": None}, "report": {"m_star": -math.inf}, "ok": True},
               {"spec": {}, "other": 7}]
    text = _suite_run(columns, records)["table.csv"]
    assert text == reference_table(columns, records)
    assert text.splitlines()[1].startswith("nan,a,true,{'t_star': nan,") and text.endswith("\nnan,nan,nan,nan,nan\n")


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(tables())
@example(({"c0": "a"}, []))
def test_a_suite_run_writes_the_reference_table_and_records(table):
    """``run_suite_config`` writes both files from one pass over the records
    its runner returned: the cell-by-cell table and the recursive JSON, byte
    for byte."""
    columns, records = table
    records = [record for record in records if isinstance(record, dict)]
    texts = _suite_run(columns, records)
    assert texts["table.csv"] == reference_table(columns, records)
    assert texts["records.json"] == reference_canonical_json(records) + "\n"
