import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from halfspace_bloch import cli, jsonfmt

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
    """A list of records of one shape, or a near miss of one (module docstring
    of ``jsonfmt``): a bool, non-finite float, None, string or container among
    the numbers, a missing, extra or reordered key, a ragged or nested inner
    list, a non-dict item."""
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


_KEY = st.one_of(st.text(), st.integers(), st.floats(), st.booleans(), st.none())
_JSON = st.recursive(
    st.one_of(_SCALAR, _record_list()),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(_KEY, children, max_size=4),
        _record_list(),
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
    assert jsonfmt.dumps(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize(
    "value",
    [
        [{"delta": [1, -2], "re": 0.1, "im": -0.0}, {"delta": [3, 4], "re": 1e300, "im": 5}],
        {"a": [[{"x": 1}, {"x": 2}]], "b": ([{"y": [1.5]}],)},
        [{"%s": 1, "100%": [2, 3], "é\n": 0.5}],
        [{"a": []}, {"a": []}],
        [{}, {}],
        [{1: 2}, {1: 3}],
        # near misses: each falls back to the recursive writer
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
    assert jsonfmt.dumps(report) == json.dumps(report, indent=2)


def test_report_record_lists_take_the_fast_path():
    # the coefficient and point lists are what makes the writer fast: a value
    # type the template cannot take (say a numpy float) would send them back
    # to the recursive writer with the same text
    bloch, _ = cli.cmd_bloch(REPORTS["bloch-both"][1])
    fermi, _ = cli.cmd_fermi(REPORTS["fermi"][1], as_csv=False)
    for records, level in (
        (bloch["series"]["entries"], 2),
        (bloch["closed_form"]["entries"], 2),
        (fermi["points"], 1),
    ):
        assert jsonfmt._records(records, level) == json.dumps(records, indent=2).replace(
            "\n", "\n" + "  " * level
        )
