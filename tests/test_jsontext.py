"""The package's JSON writer against the standard json module, on random values.

charblocks._jsontext.dumps must give json.dumps's bytes, one-line and with
indent=2, for every value the outputs can hold.  Runs are derandomized, so
every run draws the same examples.
"""

import enum
import json

import pytest
from hypothesis import find, given, settings, strategies as st

from charblocks._jsontext import dumps

fixed = settings(derandomize=True, deadline=None, database=None)

# Any code point, lone surrogates included, with the characters that need an
# escape drawn often: control characters, DEL, quote, backslash, non-ASCII
# and astral ones.
chars = st.characters(exclude_categories=()) | st.sampled_from(
    '\x00\x01\b\t\n\x0b\f\r\x1f\x7f"\\/ ~\x80\xe9\u2028\ud800\udfff\U0001f600\U0010ffff')
texts = st.text(chars, max_size=12)
scalars = (st.none() | st.booleans() | st.integers()
           | st.integers(-10**40, 10**40) | texts)
values = st.recursive(
    scalars,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(texts, inner, max_size=4)),
    max_leaves=24)


@fixed
@given(values)
def test_one_line_matches_json(value):
    assert dumps(value) == json.dumps(value)


@fixed
@given(values)
def test_indented_matches_json(value):
    assert dumps(value, indent=2) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [1.5, {1, 2}, {1: "a"}, {None: 1}, {(1,): 2},
                                   ["ok", {"nested": 0.0}], b"bytes"],
                         ids=["float", "set", "int-key", "none-key", "tuple-key",
                              "nested-float", "bytes"])
@pytest.mark.parametrize("indent", [None, 2])
def test_other_types_raise_type_error(value, indent):
    with pytest.raises(TypeError):
        dumps(value, indent=indent)


class _Text(str):
    pass


class _Level(enum.IntEnum):
    LOW = 1


# json writes a subclass of str or int as its base class, at any depth.
@pytest.mark.parametrize("value", [
    _Text('say "\xe9"'), _Level.LOW,
    [_Text('say "\xe9"'), _Level.LOW], {"text": _Text('say "\xe9"'), "level": (_Level.LOW,)},
], ids=["str-subclass", "int-enum", "nested-list", "nested-dict"])
@pytest.mark.parametrize("indent", [None, 2])
def test_subclasses_are_written_as_their_base(value, indent):
    assert dumps(value, indent=indent) == json.dumps(value, indent=indent)


# Negative control: near misses of the writer that the properties above would
# catch, because the strategy draws values on which each one differs.
@pytest.mark.parametrize("near_miss", [
    lambda v: json.dumps(v, ensure_ascii=False),
    lambda v: json.dumps(v, separators=(",", ":")),
    lambda v: json.dumps(v, indent=1),
], ids=["no-ascii-escapes", "compact-separators", "indent-1"])
def test_near_misses_are_caught(near_miss):
    found = find(values, lambda v: near_miss(v) not in (json.dumps(v), json.dumps(v, indent=2)),
                 settings=fixed)
    assert near_miss(found) not in (dumps(found), dumps(found, indent=2))
