"""Indent-2 JSON text for the CLI reports, equal to ``json.dumps(obj, indent=2)``.

With ``indent`` set, the standard library encodes through its pure-Python
encoder, one generator step per value.  A ``bloch`` report holds some
hundreds of coefficient records, and writing them that way took longer than
computing them.  :func:`dumps` returns the same text, byte for byte, as
``json.dumps(obj, indent=2, default=list)``: for plain JSON values that is
``json.dumps(obj, indent=2)``, and a :class:`Columns` table is written as
the list of records it stands for (the tests compare the two on generated
values and on every CLI report).  Two writers share the work:

* **Tables.**  A :class:`Columns` table, the one form in which the reports
  hold long record lists, is written by one ``%``-template: ``%r`` per
  value, indented exactly as ``json`` indents it, repeated once per record
  and filled by one ``template % tuple(values)`` call over the table's
  columns.  For finite floats and ints ``repr`` is what ``json`` writes; a
  table holding a NaN or an infinity goes to the recursive writer instead,
  as the list of its records.
* **Everything else** goes through a recursive writer with the rules of
  ``json``: ``NaN``/``Infinity``/``-Infinity``, ``true``/``false``/
  ``null``, ``[]``/``{}`` for empty containers, tuples as lists, strings and
  keys through ``json.encoder.encode_basestring_ascii``, non-string keys
  converted, and ``TypeError`` for anything else.  Like ``json`` with
  ``check_circular=False`` it does not detect reference cycles.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii as _string
from typing import Sequence

import numpy as np

_INDENT = "  "


class Columns:
    """A list of records with the same fields, stored by column.

    ``columns[j]`` holds field ``fields[j]`` of every record: a 1-D integer
    or float array for a scalar field, an ``(n, w)`` one for a field that is
    a list of w numbers.  Iterating yields the records as dicts of Python
    numbers, so ``json.dumps(table, default=list)`` is the text that
    :func:`dumps` writes for it.
    """

    __slots__ = ("fields", "columns")

    def __init__(self, fields: Sequence[str], columns: Sequence[np.ndarray]):
        columns = tuple(map(np.asarray, columns))
        if (
            not fields
            or len(fields) != len(columns)
            or len(set(fields)) != len(fields)
            or not all(isinstance(f, str) for f in fields)
        ):
            raise ValueError("a table needs one column per field and distinct string fields")
        if any(c.ndim not in (1, 2) or c.dtype.kind not in "iuf" for c in columns):
            raise TypeError("table columns must be 1-D or 2-D integer or float arrays")
        if len({len(c) for c in columns}) != 1:
            raise ValueError("table columns must have one entry per record")
        self.fields = tuple(fields)
        self.columns = columns

    def __len__(self) -> int:
        return len(self.columns[0])

    def __iter__(self):
        rows = zip(*(c.tolist() for c in self.columns))
        return (dict(zip(self.fields, row)) for row in rows)


def dumps(obj) -> str:
    """``json.dumps(obj, indent=2, default=list)``, byte for byte."""
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
    elif isinstance(o, Columns):
        if len(o) and all(np.isfinite(c).all() for c in o.columns if c.dtype.kind == "f"):
            out(_table(o, level))
        else:
            _write(list(o), level, out)
    elif isinstance(o, (list, tuple)):
        if not o:
            out("[]")
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


def _table(table: Columns, level: int) -> str:
    """A nonempty table of finite numbers at nesting ``level``, by one template."""
    field = "\n" + _INDENT * (level + 2)
    element = "\n" + _INDENT * (level + 3)
    parts = []
    for key, column in zip(table.fields, table.columns):
        if column.ndim == 1:
            value = "%r"
        elif column.shape[1] == 0:
            value = "[]"
        else:
            value = "[" + element + ("," + element).join(["%r"] * column.shape[1]) + field + "]"
        parts.append(_string(key).replace("%", "%%") + ": " + value)
    item = "{" + field + ("," + field).join(parts) + "\n" + _INDENT * (level + 1) + "}"
    row = "\n" + _INDENT * (level + 1)
    template = "[" + row + ("," + row).join([item] * len(table)) + "\n" + _INDENT * level + "]"

    # one row of Python numbers per record, the fields' values side by side
    widths = [c.shape[1] if c.ndim == 2 else 1 for c in table.columns]
    flat = np.empty((len(table), sum(widths)), dtype=object)
    at = 0
    for column, width in zip(table.columns, widths):
        flat[:, at : at + width] = column.reshape(len(table), width)
        at += width
    return template % tuple(flat.ravel().tolist())
