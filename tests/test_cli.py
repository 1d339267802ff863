import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import halfspace_bloch as hb
from halfspace_bloch import bloch, cli, galerkin

import helpers

IDENTITY_2D = {
    "dimension": 2,
    "generators": [[1.0, 0.0], [0.0, 1.0]],
}


def run(tmp_path, capsys, config, *args):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code = cli.main([*args, "--config", str(path)])
    out = capsys.readouterr().out
    return code, out


def run_json(tmp_path, capsys, config, *args):
    code, out = run(tmp_path, capsys, config, *args)
    return code, (json.loads(out) if out else None)


def test_classify_in_s(tmp_path, capsys):
    config = {
        **IDENTITY_2D,
        "potential": [
            {"index": [1, 0], "re": 1.0},
            {"index": [1, 1], "re": 1.0},
            {"index": [2, -1], "re": 1.0},
        ],
    }
    code, doc = run_json(tmp_path, capsys, config, "classify")
    assert code == 0
    assert doc["in_s"] and doc["k"] == 1 and doc["sign"] == "+"


def test_classify_axis2_minus(tmp_path, capsys):
    config = {
        **IDENTITY_2D,
        "potential": [
            {"index": [0, -2], "re": 1.0},
            {"index": [1, -5], "re": 1.0},
        ],
    }
    code, doc = run_json(tmp_path, capsys, config, "classify")
    assert code == 0
    assert (doc["k"], doc["sign"]) == (2, "-")


def test_classify_not_in_s_with_witnesses(tmp_path, capsys):
    config = {
        **IDENTITY_2D,
        "potential": [
            {"index": [1, 0], "re": 1.0},
            {"index": [-1, 0], "re": 1.0},
        ],
    }
    code, doc = run_json(tmp_path, capsys, config, "classify")
    assert code == 0
    assert doc["in_s"] is False
    axis1 = doc["witnesses"][0]
    assert axis1["violates_plus"] == [-1, 0]
    assert axis1["violates_minus"] == [1, 0]


def test_bloch_zero_potential(tmp_path, capsys):
    config = {**IDENTITY_2D, "potential": [], "t": [0.5, 0.3]}
    code, doc = run_json(tmp_path, capsys, config, "bloch")
    assert code == 0
    assert doc["series"]["entries"] == [{"delta": [0, 0], "re": 1.0, "im": 0.0}]


def test_bloch_single_harmonic_values(tmp_path, capsys):
    config = {
        **IDENTITY_2D,
        "potential": [{"index": [1, 0], "re": 0.1}],
        "t": [0.5, 0.3],
        "params": {"gamma": [0, 0], "method": "both", "order": 8, "depth": 6},
    }
    code, doc = run_json(tmp_path, capsys, config, "bloch")
    assert code == 0
    series = {tuple(e["delta"]): complex(e["re"], e["im"]) for e in doc["series"]["entries"]}
    assert series[(1, 0)] == pytest.approx(-0.05)
    assert series[(2, 0)] == pytest.approx(0.01 / 12)
    assert doc["max_discrepancy"] < 1e-10
    assert doc["tolerances"]["denom_tol_scale"] == 1e-12


def test_bloch_resonance_exit_code(tmp_path, capsys):
    config = {
        **IDENTITY_2D,
        "potential": [{"index": [1, 0], "re": 0.1}],
        "t": [0.0, 0.0],
        "params": {"gamma": [-1, 0], "method": "series"},
    }
    code, _ = run(tmp_path, capsys, config, "bloch")
    assert code == 3


def test_bloch_nonconvergence_exit_code(tmp_path, capsys):
    config = {
        **IDENTITY_2D,
        "potential": [{"index": [1, 0], "re": 0.1}],
        "t": [0.5, 0.3],
        "params": {"method": "series", "order": 1, "tail_tol": 1e-30},
    }
    code, doc = run_json(tmp_path, capsys, config, "bloch")
    assert code == 4
    assert doc["converged"] is False


def test_oracle_zero_potential(tmp_path, capsys):
    config = {**IDENTITY_2D, "potential": [], "t": [0.5, 0.3], "params": {"cutoff": 3.0}}
    code, doc = run_json(tmp_path, capsys, config, "oracle")
    assert code == 0
    assert doc["triangular"] and doc["spectrum_match"]
    assert doc["eigenvector_agreement"] == 0.0


def test_oracle_random_classified(tmp_path, capsys):
    rng = np.random.default_rng(83)
    pot = [
        {"index": [1, int(rng.integers(-2, 3))], "re": float(rng.uniform(-0.4, 0.4)), "im": float(rng.uniform(-0.2, 0.2))}
        for _ in range(4)
    ]
    config = {**IDENTITY_2D, "potential": pot, "t": [0.3, 0.15], "params": {"cutoff": 4.0}}
    code, doc = run_json(tmp_path, capsys, config, "oracle")
    assert code == 0
    assert doc["triangular"] is True
    assert doc["spectrum_match"] is True
    assert doc["eigenvector_agreement"] < 1e-10


def test_oracle_unclassified_exits_3(tmp_path, capsys):
    config = {
        **IDENTITY_2D,
        "potential": [
            {"index": [1, 0], "re": 1.0},
            {"index": [-1, 0], "re": 1.0},
        ],
        "t": [0.3, 0.15],
    }
    code, doc = run_json(tmp_path, capsys, config, "oracle")
    assert code == 3
    assert doc["triangular"] is False


def test_oracle_matrix_dump_csv(tmp_path, capsys):
    config = {**IDENTITY_2D, "potential": [{"index": [1, 0], "re": 0.5}], "t": [0.5, 0.3], "params": {"cutoff": 1.2}}
    code, out = run(tmp_path, capsys, config, "oracle", "--format", "csv")
    assert code == 0
    rows = out.strip().splitlines()
    assert len(rows) == 5  # ball of radius 1.2 on Z^2
    assert all(len(r.split(",")) == 5 for r in rows)


def test_multiplicity_tuned_family_consistent(tmp_path, capsys):
    config = {
        "dimension": 1,
        "generators": [[2 * math.pi]],
        "potential": [
            {"index": [1], "re": "1/2"},
            {"index": [2], "re": "-1/16"},
        ],
        "t": [0.0],
        "params": {"mode": "both", "n": 1},
    }
    code, doc = run_json(tmp_path, capsys, config, "multiplicity")
    assert code == 0
    assert doc["pi_exact"] is True
    assert doc["criterion_is_zero"] is True
    assert doc["oracle_multiplicity"] == 2
    assert doc["verdict"] == "consistent"


def test_multiplicity_untuned_consistent(tmp_path, capsys):
    config = {
        "dimension": 1,
        "generators": [[2 * math.pi]],
        "potential": [{"index": [1], "re": "1/2"}],
        "t": [0.0],
        "params": {"mode": "both", "n": 1},
    }
    code, doc = run_json(tmp_path, capsys, config, "multiplicity")
    assert code == 0
    assert doc["criterion_is_zero"] is False
    assert doc["oracle_multiplicity"] == 1
    assert doc["verdict"] == "consistent"


def test_multiplicity_zero_potential_criterion(tmp_path, capsys):
    config = {
        "dimension": 1,
        "generators": [[2 * math.pi]],
        "potential": [],
        "t": [0.0],
        "params": {"mode": "1d-criterion", "n": 2},
    }
    code, doc = run_json(tmp_path, capsys, config, "multiplicity")
    assert code == 0
    assert doc["criterion"] == {"re": 0.0, "im": 0.0}
    assert doc["predicted_multiplicity"] == 2


def test_multiplicity_second_plane_family(tmp_path, capsys):
    for value, expect in ((0.0, "eigenfunction"), (0.3, "associated")):
        config = {
            **IDENTITY_2D,
            "potential": [
                {"index": [1, -1], "re": value},
                {"index": [1, 0], "re": 0.25},
            ],
            "t": [0.0, 0.0],
            "params": {"mode": "2d-second-plane", "k": 1, "member": [0, 1]},
        }
        code, doc = run_json(tmp_path, capsys, config, "multiplicity")
        assert code == 0
        assert doc["report"]["classification"] == expect
        assert doc["verdict"] == "consistent"


def test_bloch_pointwise_spot_check(tmp_path, capsys):
    config = {
        **IDENTITY_2D,
        "potential": [{"index": [1, 0], "re": 0.1}],
        "t": [0.5, 0.3],
        "params": {"method": "series", "evaluate_at": [0.0, 0.0]},
    }
    code, doc = run_json(tmp_path, capsys, config, "bloch")
    assert code == 0
    # at x = 0 the value is the plain coefficient sum
    total = sum(
        complex(e["re"], e["im"]) for e in doc["series"]["entries"]
    )
    assert complex(doc["value_at"]["re"], doc["value_at"]["im"]) == pytest.approx(total)


def test_parse_error_exit_code(tmp_path, capsys):
    config = {**IDENTITY_2D, "potential": [{"index": [1], "re": 1.0}]}
    code, _ = run(tmp_path, capsys, config, "classify")
    assert code == 2


def test_missing_config_file(capsys):
    code = cli.main(["classify", "--config", "/nonexistent/conf.json"])
    assert code == 2


def test_bad_format_combination(tmp_path, capsys):
    config = {**IDENTITY_2D, "potential": []}
    code, _ = run(tmp_path, capsys, config, "classify", "--format", "csv")
    assert code == 2


def test_fermi_csv_default(tmp_path, capsys):
    config = {
        **IDENTITY_2D,
        "potential": [],
        "params": {"rho": 0.5, "resolution": 21, "threshold": 0.02},
    }
    code, out = run(tmp_path, capsys, config, "fermi")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t_1,t_2,distance,gamma_1,gamma_2"
    assert len(lines) > 10


def test_fermi_csv_empty_sample_keeps_header(tmp_path, capsys):
    # threshold 0 at rho 0.4 on a 3-point grid retains nothing
    config = {**IDENTITY_2D, "params": {"rho": 0.4, "resolution": 3, "threshold": 0.0}}
    code, out = run(tmp_path, capsys, config, "fermi")
    assert code == 0
    assert out == "t_1,t_2,distance,gamma_1,gamma_2\n"


def test_fermi_json_and_out_file(tmp_path, capsys):
    config = {
        **IDENTITY_2D,
        "potential": [],
        "params": {"rho": 0.5, "resolution": 11, "threshold": 0.05},
    }
    out_path = tmp_path / "fermi.json"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code = cli.main(
        ["fermi", "--config", str(path), "--format", "json", "--out", str(out_path)]
    )
    assert code == 0
    doc = json.loads(out_path.read_text(encoding="utf-8"))
    assert doc["retained"] == len(doc["points"])


def test_square_summable_truncation(tmp_path, capsys):
    config = {
        **IDENTITY_2D,
        "mode": "square-summable",
        "potential": [
            {"index": [1, 0], "re": 0.3},
            {"index": [9, 9], "re": 0.3},
        ],
        "t": [0.3, 0.1],
        "params": {"truncation_radius": 2.0, "method": "series", "order": 12},
    }
    code, doc = run_json(tmp_path, capsys, config, "bloch")
    assert code == 0
    deltas = {tuple(e["delta"]) for e in doc["series"]["entries"]}
    assert (1, 0) in deltas
    # the far harmonic was truncated away and never enters the series
    assert all(d[0] < 9 for d in deltas)


def test_deterministic_output(tmp_path, capsys):
    config = {
        **IDENTITY_2D,
        "potential": [{"index": [1, 1], "re": 0.2, "im": -0.1}],
        "t": [0.25, 0.1],
        "params": {"method": "both"},
    }
    _, out1 = run(tmp_path, capsys, config, "bloch")
    _, out2 = run(tmp_path, capsys, config, "bloch")
    assert out1 == out2


def test_parser_built_once_per_process(tmp_path, capsys, monkeypatch):
    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    cli._parser.cache_clear()
    config = {**IDENTITY_2D, "potential": [{"index": [1, 0], "re": 0.1}], "t": [0.31, 0.17]}
    assert builds == []  # built on first use
    first = run(tmp_path, capsys, config, "bloch")
    second = run(tmp_path, capsys, config, "bloch")
    assert first[0] == 0 and first == second
    # a usage error goes through the same parser
    assert cli.main(["bogus", "--config", "x"]) == 2
    assert capsys.readouterr().err.startswith("usage: halfspace-bloch")
    assert builds == [1]


def test_parser_not_built_at_import():
    code = "from halfspace_bloch import cli; print(cli._parser.cache_info().currsize)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    ).stdout
    assert out == "0\n"


_POT = [{"index": [1, 0], "re": 0.1}]
# an index beyond int64, after one valid record
_HUGE_INDEX = [*_POT, {"index": [10**30, 1], "re": 0.1}]
_ONED = {"dimension": 1, "generators": [[2 * math.pi]]}
_SECOND_PLANE = {"mode": "2d-second-plane", "k": 1, "member": [0, 1], "cutoff": 6.0}


@pytest.mark.parametrize(
    "command, config, code, stderr_start",
    [
        (
            "bloch",
            {**IDENTITY_2D, "potential": _POT, "params": {"evaluate_at": ["a", 1]}},
            2,
            "config error (params.evaluate_at)",
        ),
        ("bloch", {**IDENTITY_2D, "potential": _POT, "params": [1]}, 2, "config error (params)"),
        ("oracle", {**IDENTITY_2D, "potential": _POT, "params": []}, 2, "config error (params)"),
        ("bloch", {**IDENTITY_2D, "potential": _POT, "mode": "bogus"}, 2, "config error (mode)"),
        (
            "classify",
            {"dimension": 1, "generators": [[1.0]], "mode": "square-summable"},
            2,
            "config error (mode)",
        ),
        (
            "bloch",
            {"dimension": 2, "generators": [[math.nan, 0.0], [0.0, 1.0]], "potential": _POT},
            2,
            "config error (generators[0])",
        ),
        (
            "oracle",
            {**IDENTITY_2D, "potential": _POT, "params": {"cutoff": -1}},
            2,
            "config error (params.cutoff)",
        ),
        (
            "multiplicity",
            {
                "dimension": 1,
                "generators": [[2 * math.pi]],
                "potential": [{"index": [1], "re": "1/2"}],
                "params": {"mode": "oracle", "cutoff": -1},
            },
            2,
            "config error (params.cutoff)",
        ),
        ("fermi", {**IDENTITY_2D, "params": {"resolution": 1}}, 2, "config error (params.resolution)"),
        ("fermi", {**IDENTITY_2D, "params": {"rho": -1}}, 2, "config error (params.rho)"),
        (
            "fermi",
            {**IDENTITY_2D, "params": {"threshold": -0.01}},
            2,
            "config error (params.threshold)",
        ),
        (
            "oracle",
            {**IDENTITY_2D, "potential": _POT, "params": {"cutoff": 10**400}},
            2,
            "config error (params.cutoff)",
        ),
        ("bloch", {**IDENTITY_2D, "potential": _POT, "t": [10**400, 0]}, 2, "config error (t)"),
        (
            "oracle",
            {**IDENTITY_2D, "potential": _POT, "params": {"cutoff": 2.0, "gamma": [5, 0]}},
            3,
            "CutoffError: ",
        ),
        (
            "multiplicity",
            {**_ONED, "potential": [{"index": [0], "re": "1/2"}], "params": {"mode": "both"}},
            2,
            "config error (potential)",
        ),
        (
            "multiplicity",
            {**IDENTITY_2D, "potential": [{"index": [-1, 0], "re": 0.5}], "params": _SECOND_PLANE},
            2,
            "config error (potential)",
        ),
        (
            "multiplicity",
            {**IDENTITY_2D, "potential": _POT, "params": {**_SECOND_PLANE, "k": 3}},
            2,
            "config error (params.k)",
        ),
        (
            "multiplicity",
            {**IDENTITY_2D, "potential": _POT, "params": {**_SECOND_PLANE, "k": 0}},
            2,
            "config error (params.k)",
        ),
        (
            "multiplicity",
            {**IDENTITY_2D, "potential": _POT, "params": {**_SECOND_PLANE, "member": [0, 1, 0]}},
            2,
            "config error (params.member)",
        ),
        (
            "multiplicity",
            {**IDENTITY_2D, "potential": _POT, "params": {**_SECOND_PLANE, "cutoff": 0.5}},
            3,
            "CutoffError: ",
        ),
        (
            "multiplicity",
            {**_ONED, "potential": [{"index": [1], "re": "1e400"}], "params": {"mode": "both"}},
            2,
            "config error (potential[0])",
        ),
        (
            "multiplicity",
            {**_ONED, "potential": [{"index": [1], "re": math.nan}], "params": {"mode": "oracle"}},
            2,
            "config error (potential[0])",
        ),
        (
            "multiplicity",
            {
                **_ONED,
                "potential": [{"index": [-1], "re": 0.5}, {"index": [1], "re": 0.5}],
                "params": {"mode": "oracle"},
            },
            3,
            "TriangularityError: ",
        ),
        (
            "bloch",
            {**IDENTITY_2D, "potential": [{"index": [-1, 0], "re": 0.1}, *_POT]},
            2,
            "config error (potential)",
        ),
        (
            # q_0 sits on the diagonal: the matrix is triangular, the potential not in S
            "oracle",
            {**IDENTITY_2D, "potential": [{"index": [0, 0], "re": 0.7}, *_POT]},
            2,
            "config error (potential)",
        ),
        (
            "bloch",
            {**IDENTITY_2D, "potential": _POT, "t": [0.31, 0.17], "params": {"method": "series", "order": 0}},
            2,
            "config error (params.order)",
        ),
        (
            "bloch",
            {**IDENTITY_2D, "potential": _POT, "t": [0.31, 0.17], "params": {"method": "series", "order": -1}},
            2,
            "config error (params.order)",
        ),
        (
            "bloch",
            {**IDENTITY_2D, "potential": _POT, "t": [0.31, 0.17], "params": {"depth": -2}},
            2,
            "config error (params.depth)",
        ),
        ("classify", {"dimension": 0, "generators": [], "potential": []}, 2, "config error (dimension)"),
        ("fermi", {"dimension": 0, "generators": []}, 2, "config error (dimension)"),
        ("bloch", {**IDENTITY_2D, "potential": _HUGE_INDEX}, 2, "config error (potential[1])"),
        ("oracle", {**IDENTITY_2D, "potential": _HUGE_INDEX}, 2, "config error (potential[1])"),
        ("classify", {**IDENTITY_2D, "potential": _HUGE_INDEX}, 2, "config error (potential[1])"),
        (
            "classify",
            {**IDENTITY_2D, "potential": [{"index": [1, -(2**63) - 1], "re": 0.1}]},
            2,
            "config error (potential[0])",
        ),
        (
            "fermi",
            {**IDENTITY_2D, "params": {"resolution": 10**30}},
            2,
            "config error (params.resolution)",
        ),
        (
            "fermi",
            {**IDENTITY_2D, "params": {"resolution": 10**4 + 1}},
            2,
            "config error (params.resolution)",
        ),
        ("fermi", {**IDENTITY_2D, "params": {"rho": 1e6}}, 2, "config error (params.rho)"),
        ("fermi", {**IDENTITY_2D, "params": {"rho": 1e300}}, 2, "config error (params.rho)"),
        (
            "fermi",
            {"dimension": 2, "generators": [[1e8, 0.0], [0.0, 1.0]]},
            2,
            "config error (params.rho)",
        ),
    ],
    ids=[
        "evaluate-at-non-number",
        "bloch-params-list",
        "oracle-params-list",
        "mode-bogus",
        "square-summable-1d",
        "nan-generator",
        "oracle-negative-cutoff",
        "multiplicity-negative-cutoff",
        "fermi-resolution-1",
        "fermi-negative-rho",
        "fermi-negative-threshold",
        "oracle-huge-int-cutoff",
        "bloch-huge-int-t",
        "oracle-gamma-outside-ball",
        "multiplicity-1d-criterion-nonpositive-harmonic",
        "multiplicity-second-plane-wrong-class",
        "multiplicity-k-above-dimension",
        "multiplicity-k-zero",
        "multiplicity-member-wrong-length",
        "multiplicity-member-outside-ball",
        "multiplicity-potential-overflow",
        "multiplicity-potential-nan",
        "multiplicity-oracle-not-triangular",
        "bloch-potential-not-in-s",
        "oracle-triangular-potential-not-in-s",
        "bloch-order-zero",
        "bloch-order-negative",
        "bloch-depth-negative",
        "classify-dimension-zero",
        "fermi-dimension-zero",
        "bloch-index-beyond-int64",
        "oracle-index-beyond-int64",
        "classify-index-beyond-int64",
        "classify-index-below-int64",
        "fermi-resolution-huge",
        "fermi-grid-above-work-bound",
        "fermi-rho-1e6",
        "fermi-rho-1e300",
        "fermi-generator-1e8",
    ],
)
def test_contract_exit_codes(tmp_path, capsys, command, config, code, stderr_start):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert cli.main([command, "--config", str(path)]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(stderr_start)
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


def test_null_numeric_param_means_default(tmp_path, capsys):
    config = {**_ONED, "potential": [{"index": [1], "re": "1/2"}], "params": {"mode": "both"}}
    absent = run(tmp_path, capsys, config, "multiplicity")
    config["params"].update(n=None, cutoff=None)
    assert run(tmp_path, capsys, config, "multiplicity") == absent
    assert absent[0] == 0
    config = {**IDENTITY_2D, "potential": _POT}
    absent = run(tmp_path, capsys, config, "oracle")
    assert run(tmp_path, capsys, {**config, "params": {"gamma": None}}, "oracle") == absent
    assert absent[0] == 0


def test_multiplicity_oracle_counts_the_constant_harmonic(tmp_path, capsys):
    # q_0 = -12 pi^2 puts the diagonal |2 pi m|^2 + q_0 on lam = 4 pi^2 at m = +-2
    config = {
        **_ONED,
        "potential": [{"index": [0], "re": "-12"}],
        "t": [0.0],
        "params": {"mode": "oracle", "n": 1},
    }
    code, report = run_json(tmp_path, capsys, config, "multiplicity")
    assert (code, report["oracle_multiplicity"]) == (0, 2)


_SKEWED_2D = {"dimension": 2, "generators": [[1.0, 0.0], [0.5, 0.9]]}
_SKEWED_3D = {"dimension": 3, "generators": [[1.0, 0.0, 0.0], [0.5, 1.0, 0.0], [0.0, 0.5, 1.0]]}
_TWOD_HARMONICS = [
    {"index": [1, 0], "re": 0.2},
    {"index": [1, -2], "re": 0.1, "im": 0.05},
    {"index": [2, 1], "re": -0.15},
]


def _records(coeffs):
    return [{"index": list(n), "re": v.real, "im": v.imag} for n, v in coeffs.items()]


def _reference_agreement(config):
    """(cone, agreement): the dict-loop cone, and eigenvector_agreement
    taken over it with one ``op.position`` lookup per cone node."""
    basis = hb.LatticeBasis(np.array(config["generators"], dtype=float))
    q = hb.FourierPotential(
        basis,
        {tuple(r["index"]): complex(r.get("re", 0.0), r.get("im", 0.0)) for r in config["potential"]},
    )
    params = config["params"]
    gamma = tuple(params["gamma"])
    op = galerkin.build(basis, q, config["t"], params["cutoff"])
    base = op.position(gamma)
    closed = bloch.closed_form_coeffs(
        basis, q, gamma, config["t"], depth=max(op.planes) - op.planes[base]
    )
    vec = galerkin.eigenvector_backsolve(op, base)
    cone = helpers.reference_interior_cone(op, gamma)
    worst = 0.0
    for dlt in cone:
        node = tuple(a + b for a, b in zip(gamma, dlt))
        backsolved = vec.vector[op.position(node)]
        worst = max(worst, abs(backsolved - closed.coeffs.get(dlt, 0j)))
    return cone, worst


def test_oracle_agreement_equals_dict_loop(tmp_path, capsys):
    cases = {
        # gamma on the ball's top plane: the cone is {0}
        "top-plane": ({**IDENTITY_2D, "potential": _TWOD_HARMONICS}, [4, 0], 4.0, 1),
        "empty-potential": ({**IDENTITY_2D, "potential": []}, [0, 0], 4.0, 1),
        "sign-minus": (
            {**IDENTITY_2D, "potential": _records({(-1, 0): 0.2, (-1, 2): 0.1j, (-2, -1): -0.1})},
            [1, 0],
            5.0,
            None,
        ),
        "axis-2": (
            {**IDENTITY_2D, "potential": _records({(0, 1): 0.2, (1, 1): -0.1, (-2, 1): 0.05j})},
            [0, -1],
            5.0,
            None,
        ),
        "1d": (
            {"dimension": 1, "generators": [[1.0]], "potential": _records({(1,): 0.3, (2,): -0.1j})},
            [-2],
            6.0,
            None,
        ),
        "3d": (
            {**_SKEWED_3D, "potential": _records({(1, 0, 0): 0.2, (1, -1, 1): 0.1, (2, 0, -1): 0.1j})},
            [0, 0, 0],
            3.5,
            None,
        ),
        "skewed": ({**_SKEWED_2D, "potential": _TWOD_HARMONICS}, [-1, 1], 5.0, None),
    }
    for name, (base, gamma, cutoff, cone_size) in cases.items():
        config = {**base, "t": [0.13, 0.29, 0.07][: base["dimension"]], "params": {"gamma": gamma, "cutoff": cutoff}}
        code, report = run_json(tmp_path, capsys, config, "oracle")
        assert code == 0, name
        cone, worst = _reference_agreement(config)
        assert len(cone) == cone_size if cone_size else len(cone) > 3, name
        assert report["eigenvector_agreement"] == worst, name


# -- fuzzed multiplicity configs -------------------------------------------------

_ONED_VALID = {
    "dimension": 1,
    "generators": [[2 * math.pi]],
    "potential": [{"index": [1], "re": "1/2"}, {"index": [2], "re": "-1/16"}],
    "t": [0.0],
    "params": {"mode": "both", "n": 1, "cutoff": 8.0},
}
_TWOD_VALID = {
    **IDENTITY_2D,
    "potential": [{"index": [1, -1], "re": 0.3}, {"index": [1, 0], "re": 0.25}],
    "t": [0.0, 0.0],
    "params": {"mode": "2d-second-plane", "k": 1, "member": [0, 1], "cutoff": 8.0},
}
_JUNK = st.sampled_from([None, "x", [], {}, True, 1.5])
_VALUE = st.one_of(
    st.floats(-2.0, 2.0),
    st.sampled_from([0, -1, "1/3", "-7/4", math.nan, math.inf, 10**400, "1e400", "1/0", "x"]),
    _JUNK,
)


@st.composite
def _mutated_multiplicity_config(draw):
    """A valid 1-D or 2-D multiplicity config with one to three fields mutated."""
    config = json.loads(json.dumps(draw(st.sampled_from([_ONED_VALID, _TWOD_VALID]))))
    params, records = config["params"], config["potential"]
    dim = config["dimension"]
    index = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim)
    for kind in draw(st.lists(st.integers(0, 8), min_size=1, max_size=3)):
        if kind == 0:
            params["mode"] = draw(
                st.sampled_from(["1d-criterion", "oracle", "both", "2d-second-plane", "x"])
            )
        elif kind == 1:
            params["n"] = draw(st.one_of(st.integers(-1, 3), _JUNK))
        elif kind == 2:
            params["k"] = draw(st.one_of(st.integers(-1, 3), _JUNK))
        elif kind == 3:
            params["member"] = draw(
                st.one_of(index, st.lists(st.integers(-2, 2), max_size=3), _JUNK)
            )
        elif kind == 4:
            # the cutoff stays at most 8, which keeps each example fast
            params["cutoff"] = draw(st.one_of(st.floats(-1.0, 8.0), st.integers(-1, 8), _JUNK))
        elif kind == 5:
            records.append({"index": draw(index), "re": draw(st.floats(-2.0, 2.0))})
        elif records and kind == 6:
            records.pop(draw(st.integers(0, len(records) - 1)))
        elif records and kind == 7:
            rec = records[draw(st.integers(0, len(records) - 1))]
            rec[draw(st.sampled_from(["re", "im"]))] = draw(_VALUE)
        elif records:
            rec = records[draw(st.integers(0, len(records) - 1))]
            rec["index"] = draw(st.one_of(index, st.lists(st.integers(-2, 2), max_size=3), _JUNK))
    return config


def _exit_contract_holds(command: str, config: dict) -> None:
    """Run ``command`` on ``config``: a documented exit code, at most one stderr
    line, no traceback and no warning."""
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/config.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = cli.main([command, "--config", path])
    assert code in (0, 2, 3, 4)
    assert err.getvalue().count("\n") <= 1
    # outside pytest a warning would print two more stderr lines
    assert [str(w.message) for w in caught] == []


_FUZZ_SETTINGS = settings(
    max_examples=120,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@_FUZZ_SETTINGS
@given(config=_mutated_multiplicity_config())
def test_fuzzed_multiplicity_keeps_exit_contract(config):
    _exit_contract_holds("multiplicity", config)


# -- fuzzed bloch and oracle configs ---------------------------------------------

_TWOD_POTENTIAL = [{"index": [1, 0], "re": 0.1}, {"index": [1, 1], "re": 0.05, "im": 0.02}]
_BLOCH_VALID = {
    **IDENTITY_2D,
    "potential": _TWOD_POTENTIAL,
    "t": [0.31, 0.17],
    "params": {"method": "both", "order": 4, "depth": 4},
}
_ORACLE_VALID = {
    **IDENTITY_2D,
    "potential": _TWOD_POTENTIAL,
    "t": [0.31, 0.17],
    "params": {"cutoff": 4.0, "gamma": [0, 0]},
}


#: generator entries: degenerate, non-finite and non-numeric ones among them;
#: none so small or so large that the lattice balls would hold millions of points
_GENERATOR_ENTRY = st.sampled_from([0.0, 1.0, -1.0, 0.5, 2.0, math.nan, math.inf, 10**400, "x", None, True])


@st.composite
def _mutated_twod_config(draw, valid: dict, param_values: dict, basis: bool = False):
    """``valid`` with one to three fields mutated: a parameter drawn from
    ``param_values``, ``t``, ``mode``, or a potential record; with ``basis``
    also the dimension or the generators."""
    config = json.loads(json.dumps(valid))
    params, records = config["params"], config.setdefault("potential", [])
    index = st.lists(st.integers(-2, 2), min_size=2, max_size=2)
    for kind in draw(st.lists(st.integers(0, 8 if basis else 6), min_size=1, max_size=3)):
        if kind == 7:
            config["dimension"] = draw(st.one_of(st.integers(-1, 3), _JUNK))
            continue
        if kind == 8:
            gens = config["generators"]
            rows_ok = isinstance(gens, list) and gens and all(isinstance(r, list) and r for r in gens)
            if rows_ok and draw(st.booleans()):
                row = draw(st.integers(0, len(gens) - 1))
                gens[row][draw(st.integers(0, len(gens[row]) - 1))] = draw(_GENERATOR_ENTRY)
            else:
                config["generators"] = draw(st.one_of(
                    st.lists(st.lists(_GENERATOR_ENTRY, max_size=3), max_size=3), _JUNK
                ))
            continue
        if kind == 0:
            key = draw(st.sampled_from(sorted(param_values)))
            params[key] = draw(st.one_of(param_values[key], _JUNK))
        elif kind == 1:
            config["t"] = draw(
                st.one_of(st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2), _JUNK)
            )
        elif kind == 2:
            config["mode"] = draw(st.sampled_from(["summable", "square-summable", "x"]))
        elif kind == 3:
            records.append({"index": draw(index), "re": draw(st.floats(-2.0, 2.0))})
        elif records and kind == 4:
            records.pop(draw(st.integers(0, len(records) - 1)))
        elif records and kind == 5:
            rec = records[draw(st.integers(0, len(records) - 1))]
            rec[draw(st.sampled_from(["re", "im"]))] = draw(_VALUE)
        elif records:
            rec = records[draw(st.integers(0, len(records) - 1))]
            rec["index"] = draw(st.one_of(index, st.lists(st.integers(-2, 2), max_size=3), _JUNK))
    return config


_GAMMA = st.lists(st.integers(-2, 2), min_size=2, max_size=2)


@_FUZZ_SETTINGS
@given(
    config=_mutated_twod_config(
        _BLOCH_VALID,
        {
            "method": st.sampled_from(["series", "closed-form", "both", "x"]),
            # orders and depths stay small: each term is a convolution
            "order": st.integers(-1, 6),
            "depth": st.integers(-1, 6),
            "gamma": _GAMMA,
            "tail_tol": st.sampled_from([1e-30, 1e-12, 0.5, -1.0, math.inf, math.nan]),
            "evaluate_at": st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2),
        },
    )
)
def test_fuzzed_bloch_keeps_exit_contract(config):
    _exit_contract_holds("bloch", config)


@_FUZZ_SETTINGS
@given(
    config=_mutated_twod_config(
        _ORACLE_VALID,
        {
            # the cutoff stays at most 5, which keeps each example fast
            "cutoff": st.one_of(st.floats(-1.0, 5.0), st.integers(-1, 5)),
            "gamma": _GAMMA,
        },
    )
)
def test_fuzzed_oracle_keeps_exit_contract(config):
    _exit_contract_holds("oracle", config)


# -- fuzzed classify and fermi configs ---------------------------------------------

_CLASSIFY_VALID = {
    **IDENTITY_2D,
    "potential": _TWOD_POTENTIAL,
    "params": {"truncation_radius": None},
}
_FERMI_VALID = {**IDENTITY_2D, "params": {"rho": 0.5, "resolution": 9, "threshold": 0.05}}
_SPECIAL_NUMBER = st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 10**400])


@_FUZZ_SETTINGS
@given(
    config=_mutated_twod_config(
        _CLASSIFY_VALID,
        {"truncation_radius": st.one_of(st.floats(-1.0, 4.0), _SPECIAL_NUMBER)},
        basis=True,
    )
)
def test_fuzzed_classify_keeps_exit_contract(config):
    _exit_contract_holds("classify", config)


@_FUZZ_SETTINGS
@given(
    config=_mutated_twod_config(
        _FERMI_VALID,
        {
            # rho and the resolution stay small: the grid is resolution^d points
            "rho": st.one_of(st.floats(-1.0, 3.0), _SPECIAL_NUMBER),
            "resolution": st.integers(-1, 12),
            "threshold": st.one_of(st.floats(-1.0, 1.0), _SPECIAL_NUMBER),
        },
        basis=True,
    )
)
def test_fuzzed_fermi_keeps_exit_contract(config):
    _exit_contract_holds("fermi", config)
