import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from halfspace_bloch import bloch, cli, jsonfmt

# -- generated JSON values -------------------------------------------------------

_NUMBER = st.one_of(
    st.integers(-(10**20), 10**20),
    st.floats(allow_nan=False, allow_infinity=False),
)
_SCALAR = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([10**400, -(10**309), -0.0, math.nan, math.inf, -math.inf]),
    st.floats(),
    st.text(),  # non-ASCII and control characters included
)
_NEAR_MISS = st.sampled_from(
    [True, False, None, math.nan, math.inf, -math.inf, -0.0, 10**400, "s", [], [[1]], (1, 2), {}]
)


@st.composite
def _record_list(draw):
    """A list of records of one shape, or a near miss of one: a bool,
    non-finite float, None, string or container among the numbers, a
    missing, extra or reordered key, a ragged or nested inner list, a
    non-dict item."""
    keys = draw(st.lists(st.text(max_size=3), min_size=1, max_size=4, unique=True))
    widths = [draw(st.one_of(st.none(), st.integers(0, 3))) for _ in keys]

    def value(width):
        if width is None:
            return draw(_NUMBER)
        return draw(st.lists(_NUMBER, min_size=width, max_size=width))

    items = [
        {key: value(width) for key, width in zip(keys, widths)}
        for _ in range(draw(st.integers(1, 5)))
    ]
    for kind in draw(st.lists(st.integers(0, 7), max_size=3)):
        item = items[draw(st.integers(0, len(items) - 1))]
        key = draw(st.sampled_from(keys))
        if not isinstance(item, dict) or key not in item:
            continue
        if kind == 0:
            item[key] = draw(_NEAR_MISS)
        elif kind == 1:
            del item[key]
        elif kind == 2:
            item[key] = item.pop(key)  # the same keys in another order
        elif kind == 3:
            item[draw(st.text(max_size=3))] = draw(_NUMBER)
        elif kind == 4 and isinstance(item[key], list):
            item[key] = [*item[key], draw(_NUMBER)]  # ragged
        elif kind == 5 and isinstance(item[key], list) and item[key]:
            item[key] = [item[key], draw(_NUMBER)][: len(item[key])]  # nested
        elif kind == 6 and isinstance(item[key], list) and item[key]:
            item[key][0] = draw(_NEAR_MISS)
        elif kind == 7:
            items.append(draw(_SCALAR))
    return items


@st.composite
def _table(draw):
    """A :class:`jsonfmt.Columns` table: int64 or float columns, scalar or list
    fields of width 0 to 3, zero to four records; some float columns hold
    NaN, infinities or -0.0."""
    fields = draw(st.lists(st.text(max_size=3), min_size=1, max_size=4, unique=True))
    n = draw(st.integers(0, 4))
    columns = []
    for _ in fields:
        width = draw(st.one_of(st.none(), st.integers(0, 3)))
        shape = (n,) if width is None else (n, width)
        if draw(st.booleans()):
            columns.append(draw(hnp.arrays(np.int64, shape)))
        else:
            finite = draw(st.booleans())
            elements = st.floats(allow_nan=not finite, allow_infinity=not finite)
            columns.append(draw(hnp.arrays(np.float64, shape, elements=elements)))
    return jsonfmt.Columns(fields, columns)


_KEY = st.one_of(st.text(), st.integers(), st.floats(), st.booleans(), st.none())
_JSON = st.recursive(
    st.one_of(_SCALAR, _record_list(), _table()),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(_KEY, children, max_size=4),
        _record_list(),
        _table(),
    ),
    max_leaves=30,
)


@settings(
    max_examples=200,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(value=_JSON)
def test_dumps_equals_json_dumps_indent_2(value):
    assert jsonfmt.dumps(value) == json.dumps(value, indent=2, default=list)


@pytest.mark.parametrize(
    "value",
    [
        [{"delta": [1, -2], "re": 0.1, "im": -0.0}, {"delta": [3, 4], "re": 1e300, "im": 5}],
        {"a": [[{"x": 1}, {"x": 2}]], "b": ([{"y": [1.5]}],)},
        [{"%s": 1, "100%": [2, 3], "é\n": 0.5}],
        [{"a": []}, {"a": []}],
        [{}, {}],
        [{1: 2}, {1: 3}],
        # near misses of one record shape
        [{"a": 1, "b": [2]}, {"a": True, "b": [3]}],
        [{"a": 1.5}, {"a": math.nan}],
        [{"a": [1.5]}, {"a": [-math.inf]}],
        [{"a": 1}, {"a": None}],
        [{"a": 1, "b": 2}, {"a": 1}],
        [{"a": 1, "b": 2}, {"b": 2, "a": 1}],
        [{"a": [1, 2]}, {"a": [1, 2, 3]}],
        [{"a": [1, 2]}, {"a": [[1], 2]}],
        [{"a": [1, 2]}, {"a": True}],
        [{"a": [1, 2]}, {"a": "ab"}],
        [{"a": [1, 2]}, {"a": (1, 2)}],
        [{"a": [1, 2]}, {"a": {"x": 1, "y": 2}}],
        [{"a": 1}, 2],
    ],
)
def test_dumps_equals_json_dumps_on_record_lists(value):
    assert jsonfmt.dumps(value) == json.dumps(value, indent=2)


_OFFSETS_2D = np.array([[0, 0], [1, -2], [2, 5]], dtype=np.int64)
_VALUES = np.array([1.0, -0.25, 1e300])

TABLES = {
    "nan-inf-scalar": (("re", "im"), (np.array([0.5, math.nan, -1.0]), np.array([math.inf, 0.0, -math.inf]))),
    "nan-inf-list": (("x", "d"), (_VALUES, np.array([[1.0, math.nan], [0.0, -math.inf], [math.inf, 2.0]]))),
    "negative-zero": (("re", "im", "v"), (np.array([-0.0, 0.0]), np.array([0.0, -0.0]), np.array([[-0.0], [0.0]]))),
    "empty": (("delta", "re"), (np.zeros((0, 2), dtype=np.int64), np.zeros(0))),
    "width-0": (("a", "b"), (np.zeros((3, 0), dtype=np.int64), _VALUES)),
    "width-1": (("a", "b"), (np.array([[7], [-8], [9]]), _VALUES)),
    "offsets-1d": (("delta", "re", "im"), (np.array([[0], [3], [-4]]), _VALUES, -_VALUES)),
    "offsets-2d": (("delta", "re", "im"), (_OFFSETS_2D, _VALUES, _VALUES[::-1])),
    "offsets-3d": (("delta", "re"), (np.array([[0, 0, 0], [1, -1, 2], [2**62, -(2**62), 5]]), _VALUES)),
    "int-scalars": (("n", "m"), (np.array([0, -1, 2**63 - 1]), np.array([3, 4, 5], dtype=np.uint8))),
    "keys-percent": (("%s", "100%", "%(x)r", "%%"), (_VALUES, _OFFSETS_2D, _VALUES, _OFFSETS_2D[:, 0])),
    "keys-quotes": (('"q"', "back\\slash", "tab\t"), (_VALUES, _OFFSETS_2D, _VALUES)),
    "keys-non-ascii": (("é", "δ", "\u2028"), (_OFFSETS_2D, _VALUES, _VALUES)),
}


@pytest.mark.parametrize("name", TABLES)
def test_columns_equal_json_dumps_of_their_records(name):
    table = jsonfmt.Columns(*TABLES[name])
    records = list(table)
    assert len(records) == len(table)
    for value in (table, [table], {"outer": {"inner": [1, table]}}):
        assert jsonfmt.dumps(value) == json.dumps(value, indent=2, default=list)
    # the records are plain JSON values: the table writes as they do
    assert jsonfmt.dumps(table) == json.dumps(records, indent=2)


def test_columns_reject_what_they_cannot_write():
    for fields, columns in (
        ((), ()),
        (("a",), (np.zeros(2), np.zeros(2))),
        (("a", "a"), (np.zeros(2), np.zeros(2))),
        ((1,), (np.zeros(2),)),
        (("a", "b"), (np.zeros(2), np.zeros(3))),
    ):
        with pytest.raises(ValueError):
            jsonfmt.Columns(fields, columns)
    for column in (np.zeros(2, dtype=bool), np.zeros(2, dtype=complex), np.zeros((2, 2, 2))):
        with pytest.raises(TypeError):
            jsonfmt.Columns(("a",), (column,))


def test_dumps_rejects_what_json_rejects():
    for value in ({"a": {1, 2}}, [{"a": object()}], {(1, 2): 3}):
        with pytest.raises(TypeError):
            json.dumps(value, indent=2)
        with pytest.raises(TypeError):
            jsonfmt.dumps(value)


# -- every report shape of the five commands --------------------------------------

_IDENTITY = {"dimension": 2, "generators": [[1.0, 0.0], [0.0, 1.0]]}
_ONED = {"dimension": 1, "generators": [[2 * math.pi]]}
_POT = [{"index": [1, 0], "re": 0.1}, {"index": [1, 1], "re": 0.05, "im": -0.02}]

REPORTS = {
    "classify-in-s": (cli.cmd_classify, {**_IDENTITY, "potential": _POT}),
    "classify-not-in-s": (
        cli.cmd_classify,
        {**_IDENTITY, "potential": [{"index": [1, 0], "re": 1}, {"index": [-1, 0], "re": 1}]},
    ),
    "classify-empty": (cli.cmd_classify, {**_IDENTITY, "potential": []}),
    "bloch-both": (
        cli.cmd_bloch,
        {
            **_IDENTITY,
            "potential": _POT,
            "t": [0.31, 0.17],
            "params": {"order": 8, "depth": 6, "evaluate_at": [0.2, -0.4]},
        },
    ),
    "bloch-series-unconverged": (
        cli.cmd_bloch,
        {**_IDENTITY, "potential": _POT, "t": [0.5, 0.3],
         "params": {"method": "series", "order": 1, "tail_tol": 1e-30}},
    ),
    "bloch-closed-form-3d": (
        cli.cmd_bloch,
        {
            "dimension": 3,
            "generators": [[1.0, 0.0, 0.0], [0.5, 1.0, 0.0], [0.0, 0.5, 1.0]],
            "potential": [{"index": [1, 0, -1], "re": 0.2}],
            "t": [0.1, 0.2, 0.3],
            "params": {"method": "closed-form", "evaluate_at": [0.0, 0.1, 0.2]},
        },
    ),
    "bloch-free": (cli.cmd_bloch, {**_IDENTITY, "potential": [], "t": [0.5, 0.3]}),
    "oracle": (
        cli.cmd_oracle,
        {**_IDENTITY, "potential": _POT, "t": [0.31, 0.17], "params": {"cutoff": 4.0}},
    ),
    "oracle-not-triangular": (
        cli.cmd_oracle,
        {**_IDENTITY, "potential": [{"index": [1, 0], "re": 1}, {"index": [-1, 0], "re": 1}]},
    ),
    "multiplicity-both": (
        cli.cmd_multiplicity,
        {**_ONED, "potential": [{"index": [1], "re": "1/2"}, {"index": [2], "re": "-1/16"}],
         "params": {"mode": "both", "n": 1}},
    ),
    "multiplicity-oracle-float": (
        cli.cmd_multiplicity,
        {**_ONED, "potential": [{"index": [1], "re": 0.5}], "params": {"mode": "oracle"}},
    ),
    "multiplicity-second-plane": (
        cli.cmd_multiplicity,
        {
            **_IDENTITY,
            "potential": [{"index": [1, -1], "re": 0.3}, {"index": [1, 0], "re": 0.25}],
            "t": [0.0, 0.0],
            "params": {"mode": "2d-second-plane", "k": 1, "member": [0, 1], "cutoff": 8.0},
        },
    ),
    "fermi": (
        lambda doc: cli.cmd_fermi(doc, as_csv=False),
        {**_IDENTITY, "params": {"rho": 0.5, "resolution": 11, "threshold": 0.05}},
    ),
    "fermi-empty": (
        lambda doc: cli.cmd_fermi(doc, as_csv=False),
        {**_IDENTITY, "params": {"rho": 0.4, "resolution": 3, "threshold": 0.0}},
    ),
}


@pytest.mark.parametrize("name", REPORTS)
def test_dumps_equals_json_dumps_on_every_report(name):
    command, doc = REPORTS[name]
    report, _ = command(doc)
    assert jsonfmt.dumps(report) == json.dumps(report, indent=2, default=list)


def test_report_record_lists_take_the_fast_path():
    # the coefficient and point lists are what makes the writer fast: they
    # reach it as tables, which it fills with one template
    bloch_report, _ = cli.cmd_bloch(REPORTS["bloch-both"][1])
    fermi, _ = cli.cmd_fermi(REPORTS["fermi"][1], as_csv=False)
    for table in (
        bloch_report["series"]["entries"],
        bloch_report["closed_form"]["entries"],
        fermi["points"],
    ):
        assert isinstance(table, jsonfmt.Columns) and len(table) > 1
        assert jsonfmt.dumps(table) == json.dumps(list(table), indent=2)


def test_bloch_report_with_overflowed_coefficients(tmp_path):
    # harmonics of 1e150 overflow the coefficients to inf, then NaN, on the
    # higher planes: the tables go to the recursive writer, and the text is
    # that of the same records written as a plain list of dicts
    doc = {
        **_IDENTITY,
        "potential": [{"index": [1, 0], "re": 1e150}, {"index": [1, 1], "re": -1e150, "im": 1e150}],
        "t": [0.31, 0.17],
        "params": {"order": 5, "depth": 5},
    }
    config, out = tmp_path / "config.json", tmp_path / "out.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    with np.errstate(all="ignore"):
        code = cli.main(["bloch", "--config", str(config), "--out", str(out)])
        report, _ = cli.cmd_bloch(doc)
        basis = cli.parse_basis(doc)
        q = cli.parse_potential(doc, basis).q
        routes = {
            "series": bloch.bloch_series(basis, q, (0, 0), doc["t"], max_order=5),
            "closed_form": bloch.closed_form_coeffs(basis, q, (0, 0), doc["t"], depth=5),
        }
    assert code == cli.EXIT_NONCONVERGENCE
    for name, psi in routes.items():
        assert np.isnan(psi.values).any()
        report[name]["entries"] = [
            {"delta": list(n), "re": c.real, "im": c.imag} for n, c in sorted(psi.coeffs.items())
        ]
    assert out.read_text(encoding="utf-8") == json.dumps(report, indent=2) + "\n"
