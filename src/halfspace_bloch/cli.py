"""Batch command-line driver.

Commands (all take a single JSON config document):

* ``classify``      half-space classification of the potential
* ``bloch``         Bloch coefficients by series, closed form, or both
* ``oracle``        truncated-matrix checks: triangularity, spectrum, eigenvectors
* ``multiplicity``  double-eigenvalue criteria vs. rank oracle
* ``fermi``         isoenergetic surface sampling

Exit codes: 0 success, 2 config/parse error, 3 mathematical guard tripped
(resonance, broken triangularity, insufficient cutoff), 4 non-convergence.
Outputs are deterministic given the config.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import operator
import sys
from fractions import Fraction
from typing import Any, Sequence

import numpy as np

from . import bloch, galerkin, isoenergetic, jsonfmt, potential, rootfn, spectrum
from .errors import (
    ConfigError,
    CutoffError,
    DegenerateBasisError,
    MalformedCoefficientsError,
    NoEigenvectorError,
    ResonanceError,
    TriangularityError,
)
from .lattice import LatticeBasis

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GUARD = 3
EXIT_NONCONVERGENCE = 4

PI_SQ = math.pi**2

#: potential indices are held in int64 arrays
INDEX_MIN, INDEX_MAX = -(2**63), 2**63 - 1

#: largest fermi work accepted: grid points times candidate box (see
#: ``_check_fermi_work``); the benchmark's fermi instances stay below 1e5
FERMI_MAX_WORK = 1e8

_GUARD_ERRORS = (
    CutoffError,
    DegenerateBasisError,
    MalformedCoefficientsError,
    NoEigenvectorError,
    ResonanceError,
    TriangularityError,
)


# -- config ------------------------------------------------------------------


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", field="config") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}", field="config") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object", field="config")
    return doc


def _require(doc: dict, key: str, kind, field: str):
    if key not in doc:
        raise ConfigError(f"missing required field '{field}'", field=field)
    value = doc[key]
    if kind is float:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ConfigError(f"field '{field}' must be a number", field=field)
        return float(value)
    if kind is int:
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(f"field '{field}' must be an integer", field=field)
        return value
    if not isinstance(value, kind):
        raise ConfigError(
            f"field '{field}' must be of type {kind.__name__}", field=field
        )
    return value


def _numbers(raw, dim: int, field: str) -> list[float]:
    """A list of ``dim`` finite numbers, or :class:`ConfigError`."""
    if not isinstance(raw, list) or len(raw) != dim:
        raise ConfigError(f"'{field}' must be a list of {dim} numbers", field=field)
    try:
        values = [float(x) for x in raw]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"'{field}' contains a non-number", field=field) from exc
    except OverflowError as exc:  # an integer beyond the float range
        raise ConfigError(f"'{field}' contains a non-finite number", field=field) from exc
    if not all(math.isfinite(x) for x in values):
        raise ConfigError(f"'{field}' contains a non-finite number", field=field)
    return values


def parse_basis(doc: dict) -> LatticeBasis:
    dim = _require(doc, "dimension", int, "dimension")
    if dim < 1:
        raise ConfigError("'dimension' must be at least 1", field="dimension")
    gens = _require(doc, "generators", list, "generators")
    if len(gens) != dim:
        raise ConfigError(
            f"'generators' must list {dim} vectors, got {len(gens)}",
            field="generators",
        )
    rows = [_numbers(row, dim, f"generators[{i}]") for i, row in enumerate(gens)]
    return LatticeBasis(np.array(rows))


def _parse_exact(value, field: str) -> Fraction:
    try:
        if isinstance(value, str):
            return Fraction(value)
        if isinstance(value, bool):
            raise ValueError("boolean")
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, float):
            return Fraction(str(value))
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"field '{field}' is not a rational: {value!r}", field=field) from exc
    raise ConfigError(f"field '{field}' is not a number or rational string", field=field)


class ParsedPotential:
    """Parsed potential: float-world object plus optional exact reduced form.

    ``pi_exact`` is set when any coefficient was given as a rational string;
    coefficients then mean (re + i*im) * pi^2 with re, im exact rationals,
    and 1-D criteria run on the exact reduced values.
    """

    def __init__(self, q: potential.FourierPotential, reduced, pi_exact: bool):
        self.q = q
        self.reduced = reduced
        self.pi_exact = pi_exact


def parse_potential(doc: dict, basis: LatticeBasis) -> "ParsedPotential":
    raw = doc.get("potential", [])
    if not isinstance(raw, list):
        raise ConfigError("'potential' must be a list of records", field="potential")
    pi_exact = any(
        isinstance(rec, dict) and
        (isinstance(rec.get("re"), str) or isinstance(rec.get("im"), str))
        for rec in raw
    )
    mode = doc.get("mode", "summable")
    coeffs: dict = {}
    reduced: dict[int, Any] = {}
    for i, rec in enumerate(raw):
        field = f"potential[{i}]"
        if not isinstance(rec, dict):
            raise ConfigError(f"'{field}' must be an object", field=field)
        idx = rec.get("index")
        if not isinstance(idx, list) or len(idx) != basis.dimension or not all(
            isinstance(x, int) and not isinstance(x, bool) for x in idx
        ):
            raise ConfigError(
                f"'{field}.index' must be a list of {basis.dimension} integers",
                field=f"{field}.index",
            )
        if not all(INDEX_MIN <= x <= INDEX_MAX for x in idx):
            # the coefficient arrays hold indices as int64
            raise ConfigError(
                f"'{field}.index' entries must lie in [{INDEX_MIN}, {INDEX_MAX}]", field=field
            )
        if pi_exact:
            re = _parse_exact(rec.get("re", 0), f"{field}.re")
            im = _parse_exact(rec.get("im", 0), f"{field}.im")
            try:
                value = complex(float(re) * PI_SQ, float(im) * PI_SQ)
            except OverflowError as exc:
                raise ConfigError(f"'{field}' is too large for a float", field=field) from exc
            red = re if im == 0 else complex(float(re), float(im))
        else:
            try:
                re = float(rec.get("re", 0.0))
                im = float(rec.get("im", 0.0))
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(
                    f"'{field}.re'/'{field}.im' must be numbers", field=field
                ) from exc
            value = complex(re, im)
            red = complex(re, im) / PI_SQ
        if not (math.isfinite(value.real) and math.isfinite(value.imag)):
            raise ConfigError(f"'{field}' must have a finite value", field=field)
        key = tuple(idx)
        coeffs[key] = coeffs.get(key, 0j) + value
        if basis.dimension == 1:
            prev = reduced.get(key[0], 0)
            reduced[key[0]] = prev + red
    truncation = _param_number(_params(doc), "truncation_radius", None)
    try:
        if truncation is not None:
            q = potential.truncated(basis, coeffs, truncation, mode=mode)
        else:
            q = potential.FourierPotential(basis, coeffs, mode=mode)
    except ValueError as exc:  # the mode is unknown or not admitted here
        raise ConfigError(str(exc), field="mode") from exc
    return ParsedPotential(q, reduced if basis.dimension == 1 else None, pi_exact)


def parse_t(doc: dict, basis: LatticeBasis) -> np.ndarray:
    raw = doc.get("t", [0.0] * basis.dimension)
    return np.array(_numbers(raw, basis.dimension, "t"))


def _params(doc: dict) -> dict:
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("'params' must be an object", field="params")
    return params


def _param_number(params: dict, key: str, default, minimum: float | None = None):
    """``params[key]`` as a finite float; absent or null gives ``default``."""
    value = default if params.get(key) is None else params[key]
    if value is None:
        return None
    if (
        not isinstance(value, (int, float))
        or isinstance(value, bool)
        or not abs(value) <= sys.float_info.max  # NaN, inf, ints beyond float
    ):
        raise ConfigError(
            f"'params.{key}' must be a finite number", field=f"params.{key}"
        )
    _check_range(key, value, minimum)
    return float(value)


def _param_int(
    params: dict,
    key: str,
    default,
    minimum: int | None = None,
    maximum: int | None = None,
):
    """``params[key]`` as an int in range; absent or null gives ``default``."""
    value = default if params.get(key) is None else params[key]
    if value is None:
        return None
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"'params.{key}' must be an integer", field=f"params.{key}")
    _check_range(key, value, minimum, maximum)
    return value


def _check_range(key: str, value, minimum, maximum=None) -> None:
    if minimum is not None and value < minimum:
        raise ConfigError(
            f"'params.{key}' must be at least {minimum}", field=f"params.{key}"
        )
    if maximum is not None and value > maximum:
        raise ConfigError(
            f"'params.{key}' must be at most {maximum}", field=f"params.{key}"
        )


def _param_index(params: dict, key: str, basis: LatticeBasis, default) -> tuple[int, ...]:
    """A lattice index: a list of ``basis.dimension`` integers, or :class:`ConfigError`.

    Absent or null gives ``default``.
    """
    raw = default if params.get(key) is None else params[key]
    if not isinstance(raw, list) or len(raw) != basis.dimension or not all(
        isinstance(x, int) and not isinstance(x, bool) for x in raw
    ):
        raise ConfigError(
            f"'params.{key}' must be a list of {basis.dimension} integers",
            field=f"params.{key}",
        )
    return tuple(raw)


def _require_class_s(q: potential.FourierPotential, use: str) -> None:
    """:class:`ConfigError` unless q is zero or classified into a half-lattice."""
    if q.classification is None and q.coeffs:
        raise ConfigError(
            f"{use} needs a potential in class S (support in one open half-lattice)",
            field="potential",
        )


# -- commands ------------------------------------------------------------------


def cmd_classify(doc: dict) -> tuple[dict, int]:
    basis = parse_basis(doc)
    pot = parse_potential(doc, basis)
    q = pot.q
    report: dict[str, Any] = {"command": "classify", "support_size": len(q)}
    if q.classification is not None:
        report.update({"in_s": True, "k": q.k, "sign": q.sign})
    else:
        witnesses = []
        support = q.support()
        for k in range(1, basis.dimension + 1):
            kills_plus = next((n for n in support if n[k - 1] < 1), None)
            kills_minus = next((n for n in support if n[k - 1] > -1), None)
            witnesses.append(
                {
                    "k": k,
                    "violates_plus": list(kills_plus) if kills_plus else None,
                    "violates_minus": list(kills_minus) if kills_minus else None,
                }
            )
        report.update({"in_s": False, "witnesses": witnesses})
    return report, EXIT_OK


def cmd_bloch(doc: dict) -> tuple[dict, int]:
    basis = parse_basis(doc)
    pot = parse_potential(doc, basis)
    _require_class_s(pot.q, "bloch")
    t = parse_t(doc, basis)
    params = _params(doc)
    gamma = _param_index(params, "gamma", basis, [0] * basis.dimension)
    method = params.get("method", "both")
    if method not in ("series", "closed-form", "both"):
        raise ConfigError(
            "'params.method' must be series, closed-form, or both",
            field="params.method",
        )
    order = _param_int(params, "order", 8, minimum=1)
    depth = _param_int(params, "depth", 6, minimum=0)
    tail_tol = _param_number(params, "tail_tol", bloch.DEFAULT_TAIL_TOL)

    report: dict[str, Any] = {
        "command": "bloch",
        "method": method,
        "tolerances": {
            "tail_tol": tail_tol,
            "denom_tol_scale": bloch.DENOM_TOL_SCALE,
        },
    }
    code = EXIT_OK
    series = closed = None
    if method in ("series", "both"):
        series = bloch.bloch_series(
            basis, pot.q, gamma, t, max_order=order, tail_tol=tail_tol
        )
        report["series"] = series.to_json_dict()
        report["tail"] = series.tail
        report["converged"] = series.converged
        if not series.converged:
            code = EXIT_NONCONVERGENCE
    if method in ("closed-form", "both"):
        closed = bloch.closed_form_coeffs(basis, pot.q, gamma, t, depth=depth)
        report["closed_form"] = closed.to_json_dict()
    if method == "both":
        report["max_discrepancy"] = bloch.max_discrepancy(series, closed)
    point = params.get("evaluate_at")
    if point is not None:
        x = _numbers(point, basis.dimension, "params.evaluate_at")
        chosen = series if series is not None else closed
        value = bloch.evaluate_function(basis, chosen, x)
        report["value_at"] = {"x": x, "re": value.real, "im": value.imag}
    return report, code


def cmd_oracle(doc: dict, want_matrix: bool = False):
    basis = parse_basis(doc)
    pot = parse_potential(doc, basis)
    t = parse_t(doc, basis)
    params = _params(doc)
    cutoff = _param_number(params, "cutoff", 6.0, minimum=0.0)
    gamma = _param_index(params, "gamma", basis, [0] * basis.dimension)

    op = galerkin.build(basis, pot.q, t, cutoff)
    if want_matrix:
        return galerkin.matrix_csv(op), EXIT_OK

    report: dict[str, Any] = {
        "command": "oracle",
        "size": op.size,
        "cutoff": cutoff,
        "tolerances": {
            "rank_tol_scale": galerkin.RANK_TOL_SCALE,
            "diag_eq_scale": galerkin.DIAG_EQ_SCALE,
        },
    }
    triangular = galerkin.is_plane_triangular(op)
    report["triangular"] = triangular
    if not triangular:
        report["spectrum_match"] = False
        return report, EXIT_GUARD
    # a triangular matrix can still come from an unclassifiable potential,
    # e.g. a constant harmonic q_0 beside others; the closed form needs class S
    _require_class_s(pot.q, "oracle")

    spectrum_values = galerkin.truncated_spectrum(op)
    free_values = tuple(sorted(spectrum.eigenvalues(basis, op.indices, t).tolist()))
    report["spectrum_match"] = spectrum_values == free_values

    try:
        base = op.position(gamma)
    except KeyError:
        raise CutoffError(
            f"cutoff {cutoff} ball does not contain gamma={gamma}"
        ) from None
    closed = bloch.closed_form_coeffs(
        basis, pot.q, gamma, t, depth=max(op.planes) - op.planes[base]
    )
    vec = galerkin.eigenvector_backsolve(op, base)
    backsolved, positions, coeffs = vec.vector.tolist(), op.positions, closed.coeffs
    worst = 0.0
    for dlt in galerkin.interior_cone(op, gamma):
        node = tuple(map(operator.add, gamma, dlt))
        worst = max(worst, abs(backsolved[positions[node]] - coeffs.get(dlt, 0j)))
    report["eigenvector_agreement"] = worst
    return report, EXIT_OK


def cmd_multiplicity(doc: dict) -> tuple[dict, int]:
    params = _params(doc)
    mode = params.get("mode", "both")
    if mode not in ("1d-criterion", "oracle", "both", "2d-second-plane"):
        raise ConfigError(
            "'params.mode' must be 1d-criterion, oracle, both, or 2d-second-plane",
            field="params.mode",
        )
    if mode == "2d-second-plane":
        return _multiplicity_second_plane(doc, params)
    return _multiplicity_oned(doc, params, mode)


def _multiplicity_oned(doc: dict, params: dict, mode: str) -> tuple[dict, int]:
    basis = parse_basis(doc)
    if basis.dimension != 1:
        raise ConfigError(
            "1-D multiplicity modes require dimension 1", field="dimension"
        )
    pot = parse_potential(doc, basis)
    if mode != "oracle" and any(m <= 0 and v != 0 for m, v in pot.reduced.items()):
        raise ConfigError(
            "the 1-D criterion needs a potential on positive harmonics only",
            field="potential",
        )
    n = _param_int(params, "n", 1, minimum=1)
    criterion_tol = _param_number(params, "criterion_tol", rootfn.CRITERION_TOL)

    report: dict[str, Any] = {
        "command": "multiplicity",
        "mode": mode,
        "n": n,
        "pi_exact": pot.pi_exact,
        "tolerances": {
            "criterion_tol": criterion_tol,
            "rank_tol_scale": galerkin.RANK_TOL_SCALE,
        },
    }
    criterion_zero = oracle_mult = None
    if mode in ("1d-criterion", "both"):
        value = rootfn.oned_double_criterion(n, pot.reduced or {})
        cval = complex(value)
        criterion_zero = (value == 0) if pot.pi_exact else (abs(cval) <= criterion_tol)
        report["criterion"] = {"re": cval.real, "im": cval.imag}
        report["criterion_units"] = "pi^2"
        report["criterion_is_zero"] = criterion_zero
        report["predicted_multiplicity"] = 2 if criterion_zero else 1
    if mode in ("oracle", "both"):
        t = parse_t(doc, basis)
        cutoff = _param_number(params, "cutoff", None, minimum=0.0)
        if cutoff is None:
            cutoff = float(2 * math.pi * (3 * n + 2))
        lam = spectrum.eigenvalue(basis, (n,), t)
        op = galerkin.build(basis, pot.q, t, cutoff)
        oracle_mult = galerkin.geometric_multiplicity(op, lam)
        report["oracle_multiplicity"] = oracle_mult
        report["oracle_cutoff"] = cutoff
    if mode == "both":
        consistent = (oracle_mult == 2) == criterion_zero
        report["verdict"] = "consistent" if consistent else "inconsistent"
    return report, EXIT_OK


def _multiplicity_second_plane(doc: dict, params: dict) -> tuple[dict, int]:
    basis = parse_basis(doc)
    pot = parse_potential(doc, basis)
    t = parse_t(doc, basis)
    k = _param_int(params, "k", 1, minimum=1, maximum=basis.dimension)
    if pot.q.classification != (k, "+"):
        raise ConfigError(
            f"the second-plane criterion needs a potential classified (k={k}, '+')",
            field="potential",
        )
    member = _param_index(params, "member", basis, None)
    criterion_tol = _param_number(params, "criterion_tol", rootfn.CRITERION_TOL)
    lam_probe = spectrum.eigenvalue(basis, member, t)
    group_cutoff = _param_number(
        params, "group_cutoff", 2.0 * (2.0 * math.sqrt(lam_probe)) + 4.0
    )
    group = spectrum.degeneracy_group(basis, member, t, k, group_cutoff)
    if len(group.planes) < 2 or member not in group.planes[1].members:
        raise ConfigError(
            "'params.member' is not on the second plane of its degeneracy group",
            field="params.member",
        )
    j = group.planes[1].members.index(member)
    result = rootfn.second_plane_solve(
        basis, pot.q, group, j, t, criterion_tol=criterion_tol
    )

    cutoff = _param_number(params, "cutoff", 2.0 * group_cutoff, minimum=0.0)
    op = galerkin.build(basis, pot.q, t, cutoff)
    try:
        op.position(member)
    except KeyError:
        raise CutoffError(
            f"cutoff {cutoff} ball does not contain member={member}"
        ) from None
    subset = [
        n
        for n, p in zip(op.index_set, op.planes)
        if p > group.planes[1].n
    ] + [member]
    excess = galerkin.jordan_chain_excess(op, group.lam, subset=subset)
    predicted = result.classification is rootfn.Classification.ASSOCIATED
    report = {
        "command": "multiplicity",
        "mode": "2d-second-plane",
        "report": result.to_json_dict(),
        "jordan_excess": excess,
        "verdict": "consistent" if (excess == 1) == predicted else "inconsistent",
        "tolerances": {
            "criterion_tol": criterion_tol,
            "rank_tol_scale": galerkin.RANK_TOL_SCALE,
        },
    }
    return report, EXIT_OK


def _check_fermi_work(basis: LatticeBasis, rho: float, resolution: int) -> None:
    """:class:`ConfigError` when the sampling would exceed ``FERMI_MAX_WORK``.

    The work is the grid points times the integer box that
    ``enumerate_ball`` scans for the candidate ball of ``sample_surface``;
    the box holds the ball, so this bounds the candidates scored too.  The
    ball's radius is the default cutoff rho + D + 1 plus the largest |t| on
    the grid, at most D/2, where the fundamental-domain diameter D is at most
    the sum S of the generator lengths; the bound takes rho + 1.5 S + 1.
    Computed from the parameters alone, before any array is built.
    """
    if resolution**basis.dimension > FERMI_MAX_WORK:
        raise ConfigError(
            f"'params.resolution' {resolution} gives more than {FERMI_MAX_WORK:.3g} grid points",
            field="params.resolution",
        )
    generators = sum(math.hypot(*v) for v in basis.generators.tolist())
    work = float(resolution) ** basis.dimension * basis.box_size(rho + 1.5 * generators + 1.0)
    if not work <= FERMI_MAX_WORK:
        raise ConfigError(
            f"fermi would score {work:.3g} grid-point/candidate pairs, more than "
            f"{FERMI_MAX_WORK:.3g}; lower params.rho or params.resolution",
            field="params.rho",
        )


def cmd_fermi(doc: dict, as_csv: bool):
    basis = parse_basis(doc)
    params = _params(doc)
    rho = _param_number(params, "rho", 0.5, minimum=0.0)
    resolution = _param_int(params, "resolution", 21, minimum=2)
    threshold = _param_number(params, "threshold", 0.01, minimum=0.0)
    _check_fermi_work(basis, rho, resolution)
    sample = isoenergetic.sample_surface(basis, rho, resolution, threshold)
    if as_csv:
        return sample.to_csv(), EXIT_OK
    report = {
        "command": "fermi",
        "rho": rho,
        "resolution": resolution,
        "threshold": threshold,
        "retained": len(sample.points),
        "points": [
            {"t": list(t), "distance": d, "gamma": list(g)}
            for t, d, g in sample.points
        ],
    }
    return report, EXIT_OK


# -- driver ------------------------------------------------------------------


def _write_output(payload, out_path: str | None) -> None:
    text = payload if isinstance(payload, str) else jsonfmt.dumps(payload) + "\n"
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="halfspace-bloch",
        description="Bloch spectra of periodic operators with half-space potentials",
    )
    parser.add_argument("command", choices=["classify", "bloch", "oracle", "multiplicity", "fermi"])
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument(
        "--format",
        choices=["json", "csv"],
        default=None,
        help="output format; csv is available for fermi (points) and oracle (matrix dump)",
    )
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first ``main`` call and reused after it."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0

    fmt = args.format or ("csv" if args.command == "fermi" else "json")
    try:
        if fmt == "csv" and args.command not in ("fermi", "oracle"):
            raise ConfigError(
                f"csv output is not defined for command '{args.command}'",
                field="--format",
            )
        doc = _load_json(args.config)
        if args.command == "classify":
            payload, code = cmd_classify(doc)
        elif args.command == "bloch":
            payload, code = cmd_bloch(doc)
        elif args.command == "oracle":
            payload, code = cmd_oracle(doc, want_matrix=(fmt == "csv"))
        elif args.command == "multiplicity":
            payload, code = cmd_multiplicity(doc)
        else:
            payload, code = cmd_fermi(doc, as_csv=(fmt == "csv"))
    except ConfigError as exc:
        sys.stderr.write(f"config error ({exc.field}): {exc}\n")
        return EXIT_CONFIG
    except _GUARD_ERRORS as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return EXIT_GUARD

    _write_output(payload, args.out)
    return code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
