"""``suites.canonical_json`` against the recursive writer it replaced.

``reference_canonical_json`` is that writer, kept here as the oracle: it
formats each value by one recursive call and joins every level. The
one-pass emitter must write the same bytes for every tree whose keys need
no escaping; keys that do are escaped as string values are. Both write a
numpy ``bool_`` as a JSON bool, where the replaced writer wrote its string.
"""

import json
import math
import string

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from powertrace.suites import canonical_json, fmt

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
        items = [f'{pad}"{key}": {reference_canonical_json(obj[key], indent + 2)}' for key in sorted(obj)]
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
# keys the reference writes unescaped
KEYS = st.text(alphabet=string.ascii_letters + string.digits + "_.", max_size=8)
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
    assert (fmt(np.True_), fmt(np.False_), fmt(True)) == ("true", "false", "true")
