import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import halfspace_bloch as hb
from halfspace_bloch import bloch, cli, coeffset, galerkin, rootfn, spectrum

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


def test_oracle_builds_one_lookup_over_the_ball(tmp_path, capsys, monkeypatch):
    # the operator's lookup finds gamma, the cone and the closed form's rows;
    # the only other lookup is the plan's, over the reachable offsets, which
    # the cone and the closed form share
    sizes = []

    class Counting(coeffset.IndexBox):
        def __init__(self, indices):
            sizes.append(len(indices))
            super().__init__(indices)

        @classmethod
        def from_sorted(cls, lo, spans, keys, rows):
            sizes.append(len(rows))
            return super().from_sorted(lo, spans, keys, rows)

    monkeypatch.setattr(coeffset, "IndexBox", Counting)
    coeffset.plan.cache_clear()
    potential = [{"index": [1, 0], "re": 0.3}, {"index": [1, 1], "re": 0.2}, {"index": [2, -1], "im": 0.1}]
    config = {**IDENTITY_2D, "potential": potential, "t": [0.31, 0.17], "params": {"cutoff": 6.0}}
    code, doc = run_json(tmp_path, capsys, config, "oracle")
    assert code == 0
    made = list(sizes)
    q = hb.FourierPotential(hb.identity_basis(2), {(1, 0): 0.3, (1, 1): 0.2, (2, -1): 0.1j})
    op = galerkin.build(hb.identity_basis(2), q, (0.31, 0.17), 6.0)
    assert made == [doc["size"], len(q.plan(max(op.planes)).offsets)]


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


@pytest.mark.parametrize("factor, is_zero", [(0.1, True), (10.0, False)])
def test_criterion_tolerance_boundary_oned_float(tmp_path, capsys, factor, is_zero):
    # float mode, n = 1: the criterion (in units of pi^2) is q_2 / pi^2, put at
    # eps by q_2 = eps pi^2; the width is the literal 1e-10
    eps = factor * 1e-10
    config = {
        "dimension": 1,
        "generators": [[2 * math.pi]],
        "potential": [{"index": [2], "re": eps * math.pi**2}],
        "params": {"mode": "1d-criterion", "n": 1},
    }
    code, doc = run_json(tmp_path, capsys, config, "multiplicity")
    assert code == 0 and doc["pi_exact"] is False
    assert doc["criterion"]["re"] == pytest.approx(eps, rel=1e-12)
    assert doc["criterion_is_zero"] is is_zero
    assert doc["predicted_multiplicity"] == (2 if is_zero else 1)


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


def test_multiplicity_second_plane_deep_chain_at_default_radii(tmp_path, capsys):
    # the lam = 16 group, four planes deep, at the default cutoff 40: the
    # member's plane window holds 317 rows, and a threshold scaled by its
    # norm (about 1.5e3) hid the chain's singular value (about 6e-7); the
    # core has 5 rows and the threshold 1e-9 (1 + lam)
    config = {
        **IDENTITY_2D,
        "potential": [
            {"index": [-1, 1], "re": -0.4483164252893054, "im": 0.38250424044606496},
            {"index": [1, 1], "re": -0.1071064805214123, "im": -0.03870932422110718},
            {"index": [-1, 2], "re": -0.46747933102334643, "im": -0.35231500396920595},
        ],
        "t": [0.0, 0.0],
        "params": {"mode": "2d-second-plane", "k": 2, "member": [-4, 0]},
    }
    code, doc = run_json(tmp_path, capsys, config, "multiplicity")
    assert code == 0
    assert doc["report"]["classification"] == "associated"
    assert doc["jordan_excess"] == 1
    assert doc["verdict"] == "consistent"


def test_collision_scale_is_echoed_where_it_applies(tmp_path, capsys):
    # the closed form on the cone, and the second-plane group and guard, use it
    oracle = {**IDENTITY_2D, "potential": [], "t": [0.5, 0.3], "params": {"cutoff": 3.0}}
    second_plane = {
        **IDENTITY_2D,
        "potential": [{"index": [1, -1], "re": 0.3}, {"index": [1, 0], "re": 0.25}],
        "t": [0.0, 0.0],
        "params": {"mode": "2d-second-plane", "k": 1, "member": [0, 1]},
    }
    oned = {**_ONED, "potential": [{"index": [1], "re": "1/2"}], "params": {"mode": "both"}}
    # the echo is checked against the constants in use; their values are
    # pinned by behaviour (test_collision_tolerance_boundary and others)
    rank, diag, denom = galerkin.RANK_TOL_SCALE, galerkin.DIAG_EQ_SCALE, spectrum.DENOM_TOL_SCALE
    criterion = {"criterion_tol": rootfn.CRITERION_TOL, "rank_tol_scale": rank}
    expected = (
        ("oracle", oracle, {"rank_tol_scale": rank, "diag_eq_scale": diag, "denom_tol_scale": denom}),
        ("multiplicity", second_plane, {**criterion, "denom_tol_scale": denom}),
        ("multiplicity", oned, criterion),
    )
    for command, config, tolerances in expected:
        code, doc = run_json(tmp_path, capsys, config, command)
        assert code == 0
        assert doc["tolerances"] == tolerances


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


def test_integer_beyond_the_digit_limit_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text('{"dimension": ' + "1" * 5000 + ', "generators": []}', encoding="utf-8")
    assert cli.main(["classify", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("config error (config): config is not valid JSON: ")


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
# indices inside int64 whose sums over a few steps leave it
_NEAR_INT64_END = [*_POT, {"index": [1, 2**62], "re": 0.1}]
_INT64_MAX_INDEX = [*_POT, {"index": [1, 2**63 - 1], "re": 0.1}]
_ONED = {"dimension": 1, "generators": [[2 * math.pi]]}
_SECOND_PLANE = {"mode": "2d-second-plane", "k": 1, "member": [0, 1], "cutoff": 6.0}
_T_OVERFLOWS = "config error (t): 't' is too large: |t|^2 overflows"


@pytest.mark.parametrize(
    "command, config, code, stderr",
    [
        (
            "bloch",
            {**IDENTITY_2D, "potential": _POT, "params": {"evaluate_at": ["a", 1]}},
            2,
            "config error (params.evaluate_at): 'params.evaluate_at' contains a non-number",
        ),
        (
            "bloch",
            {**IDENTITY_2D, "potential": _POT, "params": [1]},
            2,
            "config error (params): 'params' must be an object",
        ),
        (
            "oracle",
            {**IDENTITY_2D, "potential": _POT, "params": []},
            2,
            "config error (params): 'params' must be an object",
        ),
        (
            "bloch",
            {**IDENTITY_2D, "potential": _POT, "mode": "bogus"},
            2,
            (
                "config error (mode): mode must be one of ('summable', 'square-summable'), got "
                "'bogus'"
            ),
        ),
        (
            "classify",
            {"dimension": 1, "generators": [[1.0]], "mode": "square-summable"},
            2,
            "config error (mode): square-summable mode is only admitted for dimensions 2 and 3",
        ),
        (
            "bloch",
            {"dimension": 2, "generators": [[math.nan, 0.0], [0.0, 1.0]], "potential": _POT},
            2,
            "config error (generators[0]): 'generators[0]' contains a non-finite number",
        ),
        (
            "oracle",
            {**IDENTITY_2D, "potential": _POT, "params": {"cutoff": -1}},
            2,
            "config error (params.cutoff): 'params.cutoff' must be at least 0.0",
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
            "config error (params.cutoff): 'params.cutoff' must be at least 0.0",
        ),
        (
            "fermi",
            {**IDENTITY_2D, "params": {"resolution": 1}},
            2,
            "config error (params.resolution): 'params.resolution' must be at least 2",
        ),
        (
            "fermi",
            {**IDENTITY_2D, "params": {"rho": -1}},
            2,
            "config error (params.rho): 'params.rho' must be at least 0.0",
        ),
        (
            "fermi",
            {**IDENTITY_2D, "params": {"threshold": -0.01}},
            2,
            "config error (params.threshold): 'params.threshold' must be at least 0.0",
        ),
        (
            "oracle",
            {**IDENTITY_2D, "potential": _POT, "params": {"cutoff": 10**400}},
            2,
            "config error (params.cutoff): 'params.cutoff' must be a finite number",
        ),
        (
            "bloch",
            {**IDENTITY_2D, "potential": _POT, "t": [10**400, 0]},
            2,
            "config error (t): 't' contains a non-finite number",
        ),
        (
            "oracle",
            {**IDENTITY_2D, "potential": _POT, "params": {"cutoff": 2.0, "gamma": [5, 0]}},
            3,
            "CutoffError: cutoff 2.0 ball does not contain gamma=(5, 0)",
        ),
        (
            "multiplicity",
            {**_ONED, "potential": [{"index": [0], "re": "1/2"}], "params": {"mode": "both"}},
            2,
            (
                "config error (potential): the 1-D criterion needs a potential on positive "
                "harmonics only"
            ),
        ),
        (
            "multiplicity",
            {**IDENTITY_2D, "potential": [{"index": [-1, 0], "re": 0.5}], "params": _SECOND_PLANE},
            2,
            (
                "config error (potential): the second-plane criterion needs a potential "
                "classified (k=1, '+')"
            ),
        ),
        (
            "multiplicity",
            {**IDENTITY_2D, "potential": _POT, "params": {**_SECOND_PLANE, "k": 3}},
            2,
            "config error (params.k): 'params.k' must be at most 2",
        ),
        (
            "multiplicity",
            {**IDENTITY_2D, "potential": _POT, "params": {**_SECOND_PLANE, "k": 0}},
            2,
            "config error (params.k): 'params.k' must be at least 1",
        ),
        (
            "multiplicity",
            {**IDENTITY_2D, "potential": _POT, "params": {**_SECOND_PLANE, "member": [0, 1, 0]}},
            2,
            "config error (params.member): 'params.member' must be a list of 2 integers",
        ),
        (
            "multiplicity",
            {**IDENTITY_2D, "potential": _POT, "params": {**_SECOND_PLANE, "cutoff": 0.5}},
            3,
            "CutoffError: cutoff 0.5 ball does not contain member=(0, 1)",
        ),
        (
            "multiplicity",
            {**_ONED, "potential": [{"index": [1], "re": "1e400"}], "params": {"mode": "both"}},
            2,
            "config error (potential[0]): 'potential[0]' is too large for a float",
        ),
        (
            "multiplicity",
            {**_ONED, "potential": [{"index": [1], "re": math.nan}], "params": {"mode": "oracle"}},
            2,
            "config error (potential[0]): 'potential[0]' must have a finite value",
        ),
        (
            "multiplicity",
            {
                **_ONED,
                "potential": [{"index": [-1], "re": 0.5}, {"index": [1], "re": 0.5}],
                "params": {"mode": "oracle"},
            },
            3,
            (
                "TriangularityError: the rank probe requires the plane-triangular structure; "
                "matrix entry at rows (-5,) <- (-4,) breaks the plane grading (potential not in "
                "class S, or wrong ordering)"
            ),
        ),
        (
            "bloch",
            {**IDENTITY_2D, "potential": [{"index": [-1, 0], "re": 0.1}, *_POT]},
            2,
            (
                "config error (potential): bloch needs a potential in class S (support in one "
                "open half-lattice)"
            ),
        ),
        (
            # q_0 sits on the diagonal: the matrix is triangular, the potential not in S
            "oracle",
            {**IDENTITY_2D, "potential": [{"index": [0, 0], "re": 0.7}, *_POT]},
            2,
            (
                "config error (potential): oracle needs a potential in class S (support in one "
                "open half-lattice)"
            ),
        ),
        (
            "bloch",
            {**IDENTITY_2D, "potential": _POT, "t": [0.31, 0.17], "params": {"method": "series", "order": 0}},
            2,
            "config error (params.order): 'params.order' must be at least 1",
        ),
        (
            "bloch",
            {**IDENTITY_2D, "potential": _POT, "t": [0.31, 0.17], "params": {"method": "series", "order": -1}},
            2,
            "config error (params.order): 'params.order' must be at least 1",
        ),
        (
            "bloch",
            {**IDENTITY_2D, "potential": _POT, "t": [0.31, 0.17], "params": {"depth": -2}},
            2,
            "config error (params.depth): 'params.depth' must be at least 0",
        ),
        (
            "classify",
            {"dimension": 0, "generators": [], "potential": []},
            2,
            "config error (dimension): 'dimension' must be at least 1",
        ),
        (
            "fermi",
            {"dimension": 0, "generators": []},
            2,
            "config error (dimension): 'dimension' must be at least 1",
        ),
        (
            "bloch",
            {**IDENTITY_2D, "potential": _HUGE_INDEX},
            2,
            (
                "config error (potential[1]): 'potential[1].index' entries must lie in "
                "[-9223372036854775808, 9223372036854775807]"
            ),
        ),
        (
            "oracle",
            {**IDENTITY_2D, "potential": _HUGE_INDEX},
            2,
            (
                "config error (potential[1]): 'potential[1].index' entries must lie in "
                "[-9223372036854775808, 9223372036854775807]"
            ),
        ),
        (
            "classify",
            {**IDENTITY_2D, "potential": _HUGE_INDEX},
            2,
            (
                "config error (potential[1]): 'potential[1].index' entries must lie in "
                "[-9223372036854775808, 9223372036854775807]"
            ),
        ),
        (
            "classify",
            {**IDENTITY_2D, "potential": [{"index": [1, -(2**63) - 1], "re": 0.1}]},
            2,
            (
                "config error (potential[0]): 'potential[0].index' entries must lie in "
                "[-9223372036854775808, 9223372036854775807]"
            ),
        ),
        (
            "bloch",
            {**IDENTITY_2D, "potential": _NEAR_INT64_END, "params": {"method": "closed-form", "depth": 4}},
            2,
            (
                "config error (potential): 4 steps of a harmonic with an index entry of "
                "4611686018427387904 from gamma=(0, 0) leave the int64 range of the coefficient "
                "arrays"
            ),
        ),
        (
            "bloch",
            {**IDENTITY_2D, "potential": _NEAR_INT64_END, "params": {"method": "series", "order": 2}},
            2,
            (
                "config error (potential): 2 steps of a harmonic with an index entry of "
                "4611686018427387904 from gamma=(0, 0) leave the int64 range of the coefficient "
                "arrays"
            ),
        ),
        (
            "bloch",
            {**IDENTITY_2D, "potential": _NEAR_INT64_END, "params": {"order": 2, "depth": 1}},
            2,
            (
                "config error (potential): 2 steps of a harmonic with an index entry of "
                "4611686018427387904 from gamma=(0, 0) leave the int64 range of the coefficient "
                "arrays"
            ),
        ),
        (
            "bloch",
            {**IDENTITY_2D, "potential": _INT64_MAX_INDEX},
            2,
            (
                "config error (potential): 8 steps of a harmonic with an index entry of "
                "9223372036854775807 from gamma=(0, 0) leave the int64 range of the coefficient "
                "arrays"
            ),
        ),
        (
            "bloch",
            {**IDENTITY_2D, "potential": _POT, "params": {"gamma": [0, 2**63]}},
            2,
            (
                "config error (potential): 8 steps of a harmonic with an index entry of 1 from "
                "gamma=(0, 9223372036854775808) leave the int64 range of the coefficient arrays"
            ),
        ),
        (
            "fermi",
            {**IDENTITY_2D, "params": {"resolution": 10**30}},
            2,
            (
                "config error (params.resolution): 'params.resolution' "
                "1000000000000000000000000000000 gives more than 1e+08 grid points"
            ),
        ),
        (
            "fermi",
            {**IDENTITY_2D, "params": {"resolution": 10**4 + 1}},
            2,
            (
                "config error (params.resolution): 'params.resolution' 10001 gives more than "
                "1e+08 grid points"
            ),
        ),
        (
            "fermi",
            {**IDENTITY_2D, "params": {"rho": 1e6}},
            2,
            (
                "config error (params.rho): fermi would score 1.76e+15 grid-point/candidate "
                "pairs, more than 1e+08; lower params.rho or params.resolution"
            ),
        ),
        (
            "fermi",
            {**IDENTITY_2D, "params": {"rho": 1e300}},
            2,
            (
                "config error (params.rho): fermi would score inf grid-point/candidate pairs, "
                "more than 1e+08; lower params.rho or params.resolution"
            ),
        ),
        (
            "fermi",
            {"dimension": 2, "generators": [[1e8, 0.0], [0.0, 1.0]]},
            2,
            (
                "config error (params.rho): fermi would score 5.29e+11 grid-point/candidate "
                "pairs, more than 1e+08; lower params.rho or params.resolution"
            ),
        ),
        (
            "oracle",
            {**IDENTITY_2D, "potential": _POT, "params": {"cutoff": 1e5}},
            2,
            (
                "config error (params.cutoff): 'params.cutoff' 100000 gives a ball whose integer "
                "box holds 4e+10 points, more than 1e+06"
            ),
        ),
        (
            "multiplicity",
            {**_ONED, "potential": [{"index": [1], "re": "1/2"}], "params": {"mode": "oracle", "cutoff": 1e8}},
            2,
            (
                "config error (params.cutoff): 'params.cutoff' 1e+08 gives a ball whose integer "
                "box holds 3.18e+07 points, more than 1e+06"
            ),
        ),
        (
            "multiplicity",
            {**_ONED, "potential": [{"index": [1], "re": "1/2"}], "params": {"mode": "oracle", "n": 10**8}},
            2,
            (
                "config error (params.cutoff): 'params.cutoff' 1.88496e+09 gives a ball whose "
                "integer box holds 6e+08 points, more than 1e+06"
            ),
        ),
        (
            "multiplicity",
            {**IDENTITY_2D, "potential": _POT, "params": {**_SECOND_PLANE, "group_cutoff": 1e5}},
            2,
            (
                "config error (params.group_cutoff): 'params.group_cutoff' 100000 gives a ball "
                "whose integer box holds 4e+10 points, more than 1e+06"
            ),
        ),
        (
            "multiplicity",
            {**IDENTITY_2D, "potential": _POT, "params": {**_SECOND_PLANE, "member": [0, 10**6]}},
            2,
            (
                "config error (params.group_cutoff): 'params.group_cutoff' 4e+06 gives a ball "
                "whose integer box holds 6.4e+13 points, more than 1e+06"
            ),
        ),
        (
            "multiplicity",
            {**IDENTITY_2D, "potential": _POT, "params": {**_SECOND_PLANE, "cutoff": 1e5}},
            2,
            (
                "config error (params.cutoff): 'params.cutoff' 100000 gives a ball whose integer "
                "box holds 4e+10 points, more than 1e+06"
            ),
        ),
        # a finite harmonic whose square overflows: the norms of the potential
        # are finite, and each command reaches its own verdict
        (
            "bloch",
            {**IDENTITY_2D, "potential": [{"index": [-1, 0], "re": 1e300}, *_POT]},
            2,
            (
                "config error (potential): bloch needs a potential in class S (support in one "
                "open half-lattice)"
            ),
        ),
        (
            "oracle",
            {**IDENTITY_2D, "potential": [{"index": [0, 0], "re": 1e300}, *_POT]},
            2,
            (
                "config error (potential): oracle needs a potential in class S (support in one "
                "open half-lattice)"
            ),
        ),
        (
            "multiplicity",
            {
                **_ONED,
                "potential": [{"index": [-1], "re": 1e300}, {"index": [1], "re": 0.5}],
                "params": {"mode": "oracle"},
            },
            3,
            (
                "TriangularityError: the rank probe requires the plane-triangular structure; "
                "matrix entry at rows (-5,) <- (-4,) breaks the plane grading (potential not in "
                "class S, or wrong ordering)"
            ),
        ),
        (
            "multiplicity",
            {**IDENTITY_2D, "potential": [{"index": [0, 1], "re": 1e300}], "params": _SECOND_PLANE},
            2,
            (
                "config error (potential): the second-plane criterion needs a potential "
                "classified (k=1, '+')"
            ),
        ),
        # n is bounded before the criterion runs; beyond int64 in oracle mode
        (
            "multiplicity",
            {**_ONED, "potential": [{"index": [1], "re": "1/2"}], "params": {"mode": "both", "n": 2**70}},
            2,
            "config error (params.n): 'params.n' must be at most 1000",
        ),
        (
            "multiplicity",
            {**_ONED, "potential": [{"index": [1], "re": 0.5}], "params": {"mode": "1d-criterion", "n": 1001}},
            2,
            "config error (params.n): 'params.n' must be at most 1000",
        ),
        (
            "multiplicity",
            {**_ONED, "potential": [{"index": [1], "re": "1/2"}], "params": {"mode": "oracle", "n": 10**400}},
            2,
            "config error (params.n): 'params.n' must be at most 9223372036854775807",
        ),
        # finite t whose |t|^2 overflows
        ("oracle", {**IDENTITY_2D, "potential": _POT, "t": [1e300, 0]}, 2, _T_OVERFLOWS),
        ("bloch", {**IDENTITY_2D, "potential": _POT, "t": [1e300, 0]}, 2, _T_OVERFLOWS),
        (
            "multiplicity",
            {**IDENTITY_2D, "potential": _POT, "t": [0, 2e154], "params": _SECOND_PLANE},
            2,
            _T_OVERFLOWS,
        ),
        # tolerances and radii are at least 0
        (
            "classify",
            {**IDENTITY_2D, "potential": _POT, "params": {"truncation_radius": -1}},
            2,
            "config error (params.truncation_radius): 'params.truncation_radius' must be at least 0.0",
        ),
        (
            "bloch",
            {**IDENTITY_2D, "potential": _POT, "params": {"tail_tol": -1}},
            2,
            "config error (params.tail_tol): 'params.tail_tol' must be at least 0.0",
        ),
        (
            "multiplicity",
            {**_ONED, "potential": [{"index": [1], "re": "1/2"}], "params": {"criterion_tol": -1}},
            2,
            "config error (params.criterion_tol): 'params.criterion_tol' must be at least 0.0",
        ),
        (
            "multiplicity",
            {**IDENTITY_2D, "potential": _POT, "params": {**_SECOND_PLANE, "criterion_tol": -1e-9}},
            2,
            "config error (params.criterion_tol): 'params.criterion_tol' must be at least 0.0",
        ),
        (
            "multiplicity",
            {**IDENTITY_2D, "potential": _POT, "params": {**_SECOND_PLANE, "group_cutoff": -1}},
            2,
            "config error (params.group_cutoff): 'params.group_cutoff' must be at least 0.0",
        ),
        # a member beyond int64 has no row in the index arrays
        (
            "multiplicity",
            {**IDENTITY_2D, "potential": _POT, "params": {**_SECOND_PLANE, "member": [0, 10**400]}},
            2,
            (
                "config error (params.member): 'params.member' entries must lie in "
                "[-9223372036854775808, 9223372036854775807]"
            ),
        ),
        *(
            (
                "multiplicity",
                {
                    **_ONED,
                    "potential": [{"index": [2], "re": "1/2"}],
                    "params": {"mode": mode, "n": 1, "cutoff": 6.0},
                },
                3,
                "CutoffError: cutoff 6.0 ball does not contain n=1",
            )
            for mode in ("oracle", "both")
        ),
        # (-110, 1) is 5e-9 from lam ~ 1.2e4, inside the collision width: the
        # group holds it and the top plane is 110, so (110, -1) is on no
        # second plane (an absolute 1e-9 group once left it to the
        # second-plane guard, which exited 3 on a "missed collision")
        (
            "multiplicity",
            {
                **IDENTITY_2D,
                "t": [1.1363636363636364e-11, 0.0],
                "potential": [
                    {"index": [-110, 1], "re": 0.3}, {"index": [1, 1], "re": 0.2}
                ],
                "params": {
                    "mode": "2d-second-plane", "k": 2, "member": [110, -1], "cutoff": 112.0
                },
            },
            2,
            (
                "config error (params.member): 'params.member' is not on the second plane "
                "of its degeneracy group"
            ),
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
        "bloch-closed-form-sum-beyond-int64",
        "bloch-series-sum-beyond-int64",
        "bloch-both-sum-beyond-int64",
        "bloch-int64-max-index",
        "bloch-gamma-beyond-int64",
        "fermi-resolution-huge",
        "fermi-grid-above-work-bound",
        "fermi-rho-1e6",
        "fermi-rho-1e300",
        "fermi-generator-1e8",
        "oracle-cutoff-above-ball-bound",
        "multiplicity-1d-cutoff-above-ball-bound",
        "multiplicity-1d-default-cutoff-above-ball-bound",
        "multiplicity-group-cutoff-above-ball-bound",
        "multiplicity-default-group-cutoff-above-ball-bound",
        "multiplicity-second-plane-cutoff-above-ball-bound",
        "bloch-1e300-not-in-s",
        "oracle-1e300-triangular-not-in-s",
        "multiplicity-1e300-not-triangular",
        "multiplicity-1e300-second-plane-wrong-class",
        "multiplicity-both-n-above-bound",
        "multiplicity-1d-criterion-n-above-bound",
        "multiplicity-oracle-n-beyond-int64",
        "oracle-t-square-overflows",
        "bloch-t-square-overflows",
        "multiplicity-second-plane-t-square-overflows",
        "classify-negative-truncation-radius",
        "bloch-negative-tail-tol",
        "multiplicity-1d-negative-criterion-tol",
        "multiplicity-second-plane-negative-criterion-tol",
        "multiplicity-negative-group-cutoff",
        "multiplicity-member-beyond-int64",
        "multiplicity-oracle-ball-misses-n",
        "multiplicity-both-ball-misses-n",
        "multiplicity-second-plane-collision-inside-width",
    ],
)
def test_contract_exit_codes(tmp_path, capsys, command, config, code, stderr):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert cli.main([command, "--config", str(path)]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == stderr + "\n"


def test_pi_exact_criterion_work_is_bounded(tmp_path, capsys):
    # 600 rational harmonics at n = 300 ran the Fraction recursion for 37 s;
    # the work bound turns them away before its first step
    path = tmp_path / "config.json"
    potential = [{"index": [m], "re": "3/10"} for m in range(1, 601)]
    config = {**_ONED, "potential": potential, "params": {"mode": "1d-criterion", "n": 300}}
    path.write_text(json.dumps(config), encoding="utf-8")
    started = time.perf_counter()
    assert cli.main(["multiplicity", "--config", str(path)]) == 2
    assert time.perf_counter() - started < 1.0
    assert capsys.readouterr().err == (
        "config error (potential): the pi-exact 1-D criterion at n=300 over 600 harmonics "
        "needs n^2 * harmonics = 5.4e+07, more than 2e+06\n"
    )
    # n = 1000 with two rational harmonics sits at the bound and still runs
    potential = [{"index": [1], "re": "1/2"}, {"index": [2], "re": "-3/10"}]
    config = {**_ONED, "potential": potential, "params": {"mode": "1d-criterion", "n": 1000}}
    path.write_text(json.dumps(config), encoding="utf-8")
    assert cli.main(["multiplicity", "--config", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["pi_exact"] is True


@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_zero_generators_exit_3_without_a_warning(tmp_path, capsys, dimension):
    # sigma_max = 0: the degeneracy message must not divide 0 by 0
    config = {"dimension": dimension, "generators": np.zeros((dimension, dimension)).tolist()}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run(tmp_path, capsys, config, "classify")
    assert (code, out) == (3, "")


@pytest.mark.parametrize("command, params, code", [
    ("classify", None, 0),
    # the order-1 term at (1, 0) has finite parts and a modulus of 2.0e308
    ("bloch", {"method": "series", "order": 2}, 4),
    ("bloch", {"method": "both", "order": 2}, 4),
])
def test_harmonic_whose_modulus_overflows_exits_without_a_traceback(tmp_path, capsys, command, params, code):
    # both parts finite, |q| beyond the float range: Python's complex abs raises there
    value = 1.3e308 if params is None else 1e308
    config = {**IDENTITY_2D, "potential": [{"index": [1, 0], "re": value, "im": value}]}
    if params is not None:
        config.update(t=[-0.15, 0.0], params=params)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main([command, "--config", str(path)]) == code
    captured = capsys.readouterr()
    assert captured.err == ""
    doc = json.loads(captured.out)
    if params is None:
        assert doc == {"command": "classify", "support_size": 1, "in_s": True, "k": 1, "sign": "+"}
    else:
        assert doc["tail"] == math.inf and doc["converged"] is False


@pytest.mark.parametrize("value", [1e300, -1e300, 1e-300])
def test_classify_finite_extreme_harmonics(tmp_path, capsys, value):
    # |q|^2 overflows to inf or underflows to 0; the norms do neither
    config = {**IDENTITY_2D, "potential": [{"index": [1, 0], "re": value}, {"index": [1, 1], "im": value}]}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert cli.main(["classify", "--config", str(path)]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {
        "command": "classify", "support_size": 2, "in_s": True, "k": 1, "sign": "+"
    }
    assert captured.err == ""


def test_bloch_with_a_2_40_harmonic_is_exact(tmp_path, capsys):
    # 8 steps of 2**40 stay far inside int64: both routes keep their exact offsets
    records = [*_POT, {"index": [1, 2**40], "re": 0.1}]
    t = [0.31, 0.17]
    config = {**IDENTITY_2D, "potential": records, "t": t, "params": {"order": 8, "depth": 6}}
    code, report = run_json(tmp_path, capsys, config, "bloch")
    assert code == 0
    basis = hb.identity_basis(2)
    q = hb.FourierPotential(basis, {(1, 0): 0.1 + 0j, (1, 2**40): 0.1 + 0j})

    def entries(route):
        return {tuple(e["delta"]): complex(e["re"], e["im"]) for e in report[route]["entries"]}

    series, _, _, _ = helpers.reference_series(basis, q, (0, 0), t, 8, bloch.DEFAULT_TAIL_TOL)
    closed = helpers.reference_closed_form(basis, q, (0, 0), t, 6)
    assert entries("series") == series
    assert entries("closed_form") == closed
    assert any(n[1] == 6 * 2**40 for n in closed)


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


def test_null_choice_param_means_default(tmp_path, capsys):
    # one rule for every params field: null reads as absent
    config = {**IDENTITY_2D, "potential": _POT, "t": [0.31, 0.17]}
    absent = run(tmp_path, capsys, config, "bloch")
    assert absent[0] == 0
    assert run(tmp_path, capsys, {**config, "params": {"method": None}}, "bloch") == absent
    config = {**_ONED, "potential": [{"index": [1], "re": "1/2"}]}
    absent = run(tmp_path, capsys, config, "multiplicity")
    assert absent[0] == 0
    assert run(tmp_path, capsys, {**config, "params": {"mode": None}}, "multiplicity") == absent


@pytest.mark.parametrize(
    "command, config, first_work, field",
    [
        (
            "bloch",
            {**IDENTITY_2D, "potential": _POT, "params": {"evaluate_at": [0.1, "x"]}},
            (bloch, "bloch_series"),
            "params.evaluate_at",
        ),
        (
            "multiplicity",
            {**_ONED, "potential": [{"index": [1], "re": "1/2"}], "params": {"cutoff": 1e8}},
            (rootfn, "oned_double_criterion"),
            "params.cutoff",
        ),
        (
            "multiplicity",
            {**IDENTITY_2D, "potential": _POT, "params": {**_SECOND_PLANE, "cutoff": 1e5}},
            (spectrum, "degeneracy_group"),
            "params.cutoff",
        ),
    ],
    ids=["bloch-evaluate-at", "multiplicity-both-cutoff", "second-plane-cutoff"],
)
def test_inputs_are_read_before_any_work(
    tmp_path, capsys, monkeypatch, command, config, first_work, field
):
    def fail(*args, **kwargs):
        raise AssertionError("ran before the inputs were read")

    monkeypatch.setattr(*first_work, fail)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert cli.main([command, "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"config error ({field}): ")


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



def test_oracle_writes_no_closed_form_value_outside_the_ball(tmp_path, capsys):
    # the closed form reaches (3, 3), outside the cutoff-3 ball, and the
    # operator's last row, (3, 0), is in the cone: a value written at the
    # row -1 that op.find gives an outside offset would land there
    potential = {(1, 0): 0.3, (1, 1): -0.2j}
    config = {
        **IDENTITY_2D,
        "potential": _records(potential),
        "t": [0.13, 0.29],
        "params": {"gamma": [0, 0], "cutoff": 3.0},
    }
    code, report = run_json(tmp_path, capsys, config, "oracle")
    assert code == 0
    q = hb.FourierPotential(hb.identity_basis(2), potential)
    op = galerkin.build(hb.identity_basis(2), q, config["t"], 3.0)
    closed = bloch.closed_form_coeffs(hb.identity_basis(2), q, (0, 0), config["t"], max(op.planes))
    assert (op.find(closed.offsets) < 0).any()
    assert op.index_set[-1] in set(map(tuple, galerkin.interior_cone(op, (0, 0)).tolist()))
    cone, worst = _reference_agreement(config)
    assert report["eigenvector_agreement"] == worst < 1e-15


def test_oracle_resonance_outside_the_cone_exits_3(tmp_path, capsys):
    # lam = 1 at gamma = (-1, 0), t = 0: delta = (2, 0) resonates, and its
    # predecessor (1, 5) lies outside the cutoff-3 ball, so the cone is {0};
    # the guard still reaches it, as the unrestricted recursion does
    config = {
        **IDENTITY_2D,
        "potential": [{"index": [1, 5], "re": 0.1}, {"index": [1, -5], "re": 0.2}],
        "t": [0.0, 0.0],
        "params": {"gamma": [-1, 0], "cutoff": 3.0},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert cli.main(["oracle", "--config", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "ResonanceError: d(gamma, delta) vanished at delta=(2, 0): 0.0\n"


def test_overflowing_routes_exit_4_without_a_warning(tmp_path):
    # a 1e300 harmonic overflows both routes and the backsolve to inf and NaN
    config = {
        **IDENTITY_2D,
        "potential": [{"index": [1, 0], "re": 1e300}],
        "t": [0.31, 0.17],
    }
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    reports = {}
    for command, params in (
        ("oracle", {"cutoff": 6}),
        ("bloch", {}),
        ("bloch", {"method": "closed-form"}),
    ):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**config, "params": params}), encoding="utf-8")
        done = subprocess.run(
            [sys.executable, "-m", "halfspace_bloch", command, "--config", str(path)],
            capture_output=True, text=True, env=env,
        )
        assert (done.returncode, done.stderr) == (4, ""), (command, params)
        reports[command, params.get("method")] = json.loads(done.stdout)
    assert math.isnan(reports["oracle", None]["eigenvector_agreement"])
    assert math.isnan(reports["bloch", None]["tail"])
    entries = reports["bloch", "closed-form"]["closed_form"]["entries"]
    assert not all(math.isfinite(e[part]) for e in entries for part in ("re", "im"))


def test_oracle_with_sums_beyond_int64_exits_0(tmp_path, capsys):
    # (1, 2**62) lies outside the ball, and sums of a few such steps leave
    # int64: the plan leaves them out instead of crashing
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**IDENTITY_2D, "potential": _NEAR_INT64_END}), encoding="utf-8")
    assert cli.main(["oracle", "--config", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["eigenvector_agreement"] < 1e-15


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
#: non-finite numbers, an int beyond float, and the finite extremes, whose
#: squares overflow to inf or underflow to 0
_SPECIAL_NUMBER = st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 10**400, 1e300, 1e-300])
_VALUE = st.one_of(
    st.floats(-2.0, 2.0),
    st.sampled_from([0, -1, "1/3", "-7/4", math.nan, math.inf, 10**400, "1e400", "1/0", "x"]),
    _SPECIAL_NUMBER,
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
