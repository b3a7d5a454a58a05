"""The package's JSON writer against the standard json module.

charblocks._jsontext.dumps must give json.dumps's bytes, one-line and with
indent=2, for every value of its domain: dicts with str keys, lists, str,
int, bool and None, the strings being printable ASCII with no '"' and no '\\'.
Every value outside that domain raises TypeError, wherever it sits.  Random
runs are derandomized, so every run draws the same examples.
"""

import enum
import json

import pytest
from hypothesis import find, given, settings, strategies as st

from charblocks._jsontext import dumps

fixed = settings(derandomize=True, deadline=None, database=None)

texts = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E,
                              exclude_characters='"\\'), max_size=12)
scalars = (st.none() | st.booleans() | st.integers()
           | st.integers(-10**40, 10**40) | texts)
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(texts, inner, max_size=4),
    max_leaves=24)


@fixed
@given(values)
def test_one_line_matches_json(value):
    assert dumps(value) == json.dumps(value)


@fixed
@given(values)
def test_indented_matches_json(value):
    assert dumps(value, indent=2) == json.dumps(value, indent=2)


class _Text(str):
    pass


class _Level(enum.IntEnum):
    LOW = 1


# Strings that json writes with an escape, or that ensure_ascii=False would
# write otherwise.
ESCAPED = {"quote": 'say "a"', "backslash": "a\\b", "nul": "\x00", "newline": "\n",
           "del": "\x7f", "e-acute": "\xe9", "lone-surrogate": "\ud800",
           "astral": "\U0001f600"}
OUTSIDE = {"tuple": (1, 2), "float": 1.5, "set": {1, 2}, "bytes": b"bytes",
           "str-subclass": _Text("text"), "int-enum": _Level.LOW, **ESCAPED}
OUTSIDE_KEYS = {"int": 1, "none": None, "tuple": (1,), "str-subclass": _Text("key"),
                **ESCAPED}


def _placed(name, value):
    """value at the top, nested in a list and nested in a dict."""
    return [pytest.param(value, id=name),
            pytest.param(["ok", value], id=f"list-{name}"),
            pytest.param({"ok": 0, "value": value}, id=f"dict-{name}")]


@pytest.mark.parametrize(
    "value",
    [case for name, value in OUTSIDE.items() for case in _placed(name, value)]
    + [case for name, key in OUTSIDE_KEYS.items() for case in _placed(f"{name}-key", {key: "a"})]
    + [pytest.param(["ok", {"nested": 0.0}], id="nested-float"),
       pytest.param([{"key": 0}, {_Text("key"): 0}], id="str-subclass-key-met-before")])
@pytest.mark.parametrize("indent", [None, 2])
def test_other_types_raise_type_error(value, indent):
    with pytest.raises(TypeError):
        dumps(value, indent=indent)


# Negative control: near misses of the writer that the properties above would
# catch, because the strategy draws values on which each one differs.
@pytest.mark.parametrize("near_miss", [
    lambda v: json.dumps(v, separators=(",", ":")),
    lambda v: json.dumps(v, indent=1),
    lambda v: json.dumps(v, sort_keys=True),
], ids=["compact-separators", "indent-1", "sort-keys"])
def test_near_misses_are_caught(near_miss):
    found = find(values, lambda v: near_miss(v) not in (json.dumps(v), json.dumps(v, indent=2)),
                 settings=fixed)
    assert near_miss(found) not in (dumps(found), dumps(found, indent=2))
