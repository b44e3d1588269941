"""Fast writers for the served JSON documents.

``json.dumps`` falls back to its pure-Python encoder whenever
``indent`` is set, and the documents the daemon returns are indented.
:func:`dumps_sorted` writes the bytes of
``json.dumps(data, indent=2, sort_keys=True)`` with one appending pass
and no generators; :func:`scalar` writes one scalar the way ``json``
does, and :mod:`repro.core.annotation_io` builds its fixed-schema
writer on it.  Byte equality with ``json.dumps`` is pinned by
``tests/test_jsontext.py``.

Only the commands that print these documents import this module
(``compile``, ``explain --json`` and the daemon), so figure and
campaign processes never compile it.
"""

from json.encoder import encode_basestring_ascii as string

_INFINITY = float("inf")


def _float(value):
    if value != value:
        return "NaN"
    if value == _INFINITY:
        return "Infinity"
    if value == -_INFINITY:
        return "-Infinity"
    return float.__repr__(value)


#: Exact-type fast path; subclasses take :func:`scalar`'s checks.
_BY_TYPE = {
    str: string,
    int: int.__repr__,
    float: _float,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def scalar(value):
    """One JSON scalar (str, None, bool, int or float, subclasses
    included) exactly as ``json.dumps`` writes it."""
    write = _BY_TYPE.get(type(value))
    if write is not None:
        return write(value)
    if isinstance(value, str):
        return string(value)
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float(value)
    raise TypeError(
        f"Object of type {type(value).__name__} is not JSON serializable"
    )


def _key(key):
    """A non-str dict key converted the way ``json`` converts it."""
    if isinstance(key, (int, float)) or key is None:
        return scalar(key)
    raise TypeError(
        f"keys must be str, int, float, bool or None, "
        f"not {key.__class__.__name__}"
    )


def dumps_sorted(data):
    """``json.dumps(data, indent=2, sort_keys=True)``, byte for byte."""
    parts = []
    _value(data, parts, "\n")
    return "".join(parts)


def _value(value, parts, newline):
    write = _BY_TYPE.get(type(value))
    if write is not None:
        parts.append(write(value))
    elif isinstance(value, (list, tuple)):
        _array(value, parts, newline)
    elif isinstance(value, dict):
        _object(value, parts, newline)
    else:
        parts.append(scalar(value))


def _array(items, parts, newline):
    if not items:
        parts.append("[]")
        return
    inner = newline + "  "
    separator = "[" + inner
    for item in items:
        write = _BY_TYPE.get(type(item))
        if write is not None:
            parts.append(separator + write(item))
        else:
            parts.append(separator)
            _value(item, parts, inner)
        separator = "," + inner
    parts.append(newline + "]")


def _object(obj, parts, newline):
    if not obj:
        parts.append("{}")
        return
    inner = newline + "  "
    separator = "{" + inner
    for key, value in sorted(obj.items()):
        name = string(key if isinstance(key, str) else _key(key))
        write = _BY_TYPE.get(type(value))
        if write is not None:
            parts.append(f"{separator}{name}: {write(value)}")
        else:
            parts.append(f"{separator}{name}: ")
            _value(value, parts, inner)
        separator = "," + inner
    parts.append(newline + "}")
