"""Indent-2 JSON text for the CLI reports, equal to ``json.dumps(obj, indent=2)``.

With ``indent`` set, the standard library encodes through its pure-Python
encoder, one generator step per value.  A ``bloch`` report holds some
hundreds of coefficient records, and writing them that way took longer than
computing them.  :func:`dumps` returns the same text, byte for byte, for
every JSON value (the tests compare it with ``json.dumps`` on generated
values and on every CLI report), and writes record lists in one step:

* **Fast path.**  A list whose items are dicts with the same string keys in
  the same order, each value an ``int`` (not ``bool``), a finite ``float``
  or a list of those with the same length in every item, becomes one
  ``%``-template: ``%r`` per value, indented exactly as ``json`` indents
  it, repeated once per item and filled by one ``template % tuple(values)``
  call.  For finite floats and plain ints ``repr`` is what ``json`` writes.
* **Fallback.**  Every other value goes through a recursive writer with the
  rules of ``json``: ``NaN``/``Infinity``/``-Infinity``, ``true``/``false``/
  ``null``, ``[]``/``{}`` for empty containers, tuples as lists, strings and
  keys through ``json.encoder.encode_basestring_ascii``, non-string keys
  converted, and ``TypeError`` for anything else.  Like ``json`` with
  ``check_circular=False`` it does not detect reference cycles.
"""

from __future__ import annotations

import math
from itertools import chain
from json.encoder import encode_basestring_ascii as _string
from operator import itemgetter

_INDENT = "  "
_SCALARS = frozenset((int, float))


def dumps(obj) -> str:
    """``json.dumps(obj, indent=2)``, byte for byte."""
    chunks: list[str] = []
    _write(obj, 0, chunks.append)
    return "".join(chunks)


def _float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _key(key) -> str:
    if isinstance(key, str):
        return _string(key)
    if isinstance(key, float):
        return _string(_float(key))
    if key is True:
        return '"true"'
    if key is False:
        return '"false"'
    if key is None:
        return '"null"'
    if isinstance(key, int):
        return _string(int.__repr__(key))
    raise TypeError(
        f"keys must be str, int, float, bool or None, not {key.__class__.__name__}"
    )


def _write(o, level: int, out) -> None:
    if isinstance(o, str):
        out(_string(o))
    elif o is None:
        out("null")
    elif o is True:
        out("true")
    elif o is False:
        out("false")
    elif isinstance(o, int):
        out(int.__repr__(o))
    elif isinstance(o, float):
        out(_float(o))
    elif isinstance(o, (list, tuple)):
        if not o:
            out("[]")
            return
        records = _records(o, level)
        if records is not None:
            out(records)
            return
        sep = "[\n" + _INDENT * (level + 1)
        for value in o:
            out(sep)
            sep = ",\n" + _INDENT * (level + 1)
            _write(value, level + 1, out)
        out("\n" + _INDENT * level + "]")
    elif isinstance(o, dict):
        if not o:
            out("{}")
            return
        sep = "{\n" + _INDENT * (level + 1)
        for key, value in o.items():
            out(sep + _key(key) + ": ")
            sep = ",\n" + _INDENT * (level + 1)
            _write(value, level + 1, out)
        out("\n" + _INDENT * level + "}")
    else:
        raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _records(items, level: int) -> str | None:
    """The fast path: ``items`` at nesting ``level`` written by one template,
    or None when the items are not records of one shape (module docstring)."""
    first = items[0]
    if type(first) is not dict or not first:
        return None
    keys = list(first)
    if (
        not all(type(k) is str for k in keys)
        or set(map(type, items)) != {dict}
        or not all(map(keys.__eq__, map(list, items)))
    ):
        return None
    # one column per scalar field and per element of a list field
    columns: list = []
    for key, value in first.items():
        column = list(map(itemgetter(key), items))
        if type(value) is not list:
            columns.append(column)
        elif set(map(type, column)) == {list} and set(map(len, column)) == {len(value)}:
            columns.extend(zip(*column))
        else:
            return None
    flat = list(chain.from_iterable(zip(*columns)))
    if not _SCALARS.issuperset(map(type, flat)) or not all(
        map(math.isfinite, [x for x in flat if type(x) is float])
    ):
        return None

    field = "\n" + _INDENT * (level + 2)
    element = "\n" + _INDENT * (level + 3)
    parts = []
    for key, value in first.items():
        if type(value) is not list:
            value = "%r"
        elif not value:
            value = "[]"
        else:
            value = "[" + element + ("," + element).join(["%r"] * len(value)) + field + "]"
        parts.append(_string(key).replace("%", "%%") + ": " + value)
    item = "{" + field + ("," + field).join(parts) + "\n" + _INDENT * (level + 1) + "}"
    row = "\n" + _INDENT * (level + 1)
    template = "[" + row + ("," + row).join([item] * len(items)) + "\n" + _INDENT * level + "]"
    return template % tuple(flat)
