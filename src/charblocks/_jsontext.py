"""The package's JSON text: the bytes that the standard json.dumps(obj) and
json.dumps(obj, indent=k) give, for the values the outputs hold.

A value is a dict with str keys, a list, a tuple, a str, an int, a bool or
None, nested to any depth; anything else raises TypeError.  Strings are
written as json's ensure_ascii writes them.  The module imports nothing: the
json package compiles six regular expressions when it is imported, and on
Python 3.11 its indented layout goes through a pure-Python encoder.
"""

_ESCAPES = {'"': '\\"', "\\": "\\\\", "\b": "\\b", "\f": "\\f", "\n": "\\n", "\r": "\\r",
            "\t": "\\t"}
_LITERALS = {None: "null", True: "true", False: "false"}


def _escape(c: str) -> str:
    """One character as ensure_ascii writes it: printable ASCII as itself, an
    astral character as a UTF-16 surrogate pair of escapes."""
    if c in _ESCAPES:
        return _ESCAPES[c]
    if " " <= c <= "~":
        return c
    n = ord(c)
    if n < 0x10000:
        return "\\u%04x" % n
    n -= 0x10000
    return "\\u%04x\\u%04x" % (0xD800 | n >> 10, 0xDC00 | n & 0x3FF)


def _string(s: str) -> str:
    # For ASCII, isprintable means space to tilde.
    if s.isascii() and s.isprintable() and '"' not in s and "\\" not in s:
        return '"' + s + '"'
    return '"' + "".join(map(_escape, s)) + '"'


def _scalar(obj) -> str:
    """A value that is no container, matched with isinstance as json matches
    it, so that a subclass of str or int is written as its base class."""
    if isinstance(obj, str):
        return _string(obj)
    if obj is None or obj is True or obj is False:
        return _LITERALS[obj]
    if isinstance(obj, int):
        return int.__repr__(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


# The writer of each exact scalar type, looked up before any isinstance test.
_SCALARS = {str: _string, int: int.__repr__, bool: _LITERALS.__getitem__,
            type(None): _LITERALS.__getitem__}


def _text(obj, nl, step, keys) -> str:
    """The text of obj.  nl is None for the one-line layout, else the newline
    and indent of the line that closes obj; step is one level of indent.
    keys holds the written form of each key seen so far in this call of dumps,
    with the colon and space after it: reports repeat a few keys in every row."""
    if isinstance(obj, dict):
        brackets = "{}"
        inner = None if nl is None else nl + step
        items = []
        for key, value in obj.items():
            head = keys.get(key)
            if head is None:
                if not isinstance(key, str):
                    raise TypeError(f"keys must be str, not {type(key).__name__}")
                head = keys[key] = _string(key) + ": "
            write = _SCALARS.get(type(value))
            items.append(head + (write(value) if write else _text(value, inner, step, keys)))
    elif isinstance(obj, (list, tuple)):
        brackets = "[]"
        inner = None if nl is None else nl + step
        items = [write(value) if (write := _SCALARS.get(type(value)))
                 else _text(value, inner, step, keys) for value in obj]
    else:
        return _scalar(obj)
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
