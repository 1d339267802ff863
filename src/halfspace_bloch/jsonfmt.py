"""Indent-2 JSON text for the CLI reports, equal to ``json.dumps(obj, indent=2)``.

With ``indent`` set, the standard library encodes through its pure-Python
encoder, one generator step per value.  A ``bloch`` report holds some
hundreds of coefficient records, and writing them that way took longer than
computing them.  :func:`dumps` returns the same text, byte for byte, as
``json.dumps(obj, indent=2, default=list)``: for plain JSON values that is
``json.dumps(obj, indent=2)``, and a :class:`Columns` table is written as
the list of records it stands for (the tests compare the two on generated
values and on every CLI report).  The work splits in two:

* **Tables.**  A :class:`Columns` table, the one form in which the reports
  hold long record lists, is written by one ``%``-template: ``%r`` per
  value, indented exactly as ``json`` indents it, repeated once per record
  and filled by one ``template % tuple(values)`` call over the table's
  columns.  For finite floats and ints ``repr`` is what ``json`` writes.
* **Everything else** is written by ``json`` itself.  Its ``default`` hook
  turns each table the template can write (nonempty, every float finite)
  into a marker string, and every other table into the list of its
  records.  Each marker is then replaced by the table's text, at the
  nesting level its line's indentation gives.  A report that holds the
  marker string itself would be spliced wrongly, so a marker count that
  differs from the table count raises ``ValueError``.
"""

from __future__ import annotations

import json
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


#: the string the hook hands ``json`` in place of a table the template writes
_MARKER = "<halfspace_bloch.jsonfmt table>"


def dumps(obj) -> str:
    """``json.dumps(obj, indent=2, default=list)``, byte for byte."""
    tables: list[Columns] = []

    def hook(o):
        if not isinstance(o, Columns):
            return json.JSONEncoder().default(o)  # json's own TypeError
        if len(o) and all(np.isfinite(c).all() for c in o.columns if c.dtype.kind == "f"):
            tables.append(o)
            return _MARKER
        return list(o)

    pieces = json.dumps(obj, indent=2, default=hook).split(_string(_MARKER))
    if len(pieces) != len(tables) + 1:
        raise ValueError(f"the report holds the string {_MARKER!r}, which marks a table")
    out = [pieces[0]]
    for table, before, after in zip(tables, pieces, pieces[1:]):
        line = before[before.rfind("\n") + 1 :]
        level = (len(line) - len(line.lstrip(" "))) // 2
        out += [_table(table, level), after]
    return "".join(out)


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
