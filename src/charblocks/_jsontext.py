"""The package's JSON text: the bytes that the standard json.dumps(obj) and
json.dumps(obj, indent=k) give, for the values the outputs hold.

Those values are a dict with str keys, a list, a str, an int, a bool or None,
nested to any depth, each matched by its exact type.  A str is printable ASCII
with no '"' and no '\\', which json writes as itself between quotes.  Anything
else raises TypeError: a tuple, a float, a subclass of str or int other than
bool, a key that is no str, or a string outside that set.  The package writes
nothing else, so a refused value is a fault of the program, not of its input.
The module imports nothing: the json package compiles six regular expressions
when it is imported, and on Python 3.11 its indented layout goes through a
pure-Python encoder.
"""

_LITERALS = {None: "null", True: "true", False: "false"}


def _string(s: str) -> str:
    # For ASCII, isprintable means space to tilde.
    if s.isascii() and s.isprintable() and '"' not in s and "\\" not in s:
        return '"' + s + '"'
    raise TypeError(f"{s!r} is not printable ASCII free of '\"' and '\\'")


# The writer of each scalar type, matched by exact type.
_SCALARS = {str: _string, int: int.__repr__, bool: _LITERALS.__getitem__,
            type(None): _LITERALS.__getitem__}


def _text(obj, nl, step, keys) -> str:
    """The text of obj.  nl is None for the one-line layout, else the newline
    and indent of the line that closes obj; step is one level of indent.
    keys holds the written form of each key seen so far in this call of dumps,
    with the colon and space after it: reports repeat a few keys in every row."""
    kind = type(obj)
    if kind is dict:
        brackets = "{}"
        inner = None if nl is None else nl + step
        items = []
        for key, value in obj.items():
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            head = keys.get(key)
            if head is None:
                head = keys[key] = _string(key) + ": "
            write = _SCALARS.get(type(value))
            items.append(head + (write(value) if write else _text(value, inner, step, keys)))
    elif kind is list:
        brackets = "[]"
        inner = None if nl is None else nl + step
        items = [write(value) if (write := _SCALARS.get(type(value)))
                 else _text(value, inner, step, keys) for value in obj]
    elif kind in _SCALARS:
        return _SCALARS[kind](obj)
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    if not items:
        return brackets
    if nl is None:
        return brackets[0] + ", ".join(items) + brackets[1]
    return brackets[0] + inner + ("," + inner).join(items) + nl + brackets[1]


def dumps(obj, indent=None) -> str:
    """obj as json.dumps(obj, indent=indent) writes it, indent None or an int."""
    if indent is None:
        return _text(obj, None, None, {})
    return _text(obj, "\n", " " * indent, {})
