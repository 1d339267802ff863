"""Batch command-line driver.

Commands (all take a single JSON config document):

* ``classify``      half-space classification of the potential
* ``bloch``         Bloch coefficients by series, closed form, or both
* ``oracle``        truncated-matrix checks: triangularity, spectrum, eigenvectors
* ``multiplicity``  double-eigenvalue criteria vs. rank oracle
* ``fermi``         isoenergetic surface sampling

Every config input is read by one checker, :func:`_value`, and each command
reads all of its inputs before its first computation.
Exit codes: 0 success, 2 config/parse error, 3 mathematical guard tripped
(resonance, broken triangularity, insufficient cutoff), 4 non-convergence or
a non-finite result.
Outputs are deterministic given the config.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from collections import namedtuple
from fractions import Fraction
from typing import Any, Sequence

import numpy as np

from . import bloch, coeffset, galerkin, isoenergetic, jsonfmt, potential, rootfn, spectrum
from .errors import (
    ConfigError, CutoffError, DegenerateBasisError, MalformedCoefficientsError,
    NoEigenvectorError, ResonanceError, TriangularityError,
)
from .lattice import LatticeBasis, in_halfspace, squared_norms

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GUARD = 3
EXIT_NONCONVERGENCE = 4

PI_SQ = math.pi**2

#: potential indices and second-plane members are held in int64 arrays
INDEX_MIN, INDEX_MAX = -(2**63), 2**63 - 1

#: largest fermi work accepted: grid points times candidate box (see
#: ``_check_fermi_work``); the benchmark's fermi instances stay below 1e5
FERMI_MAX_WORK = 1e8

#: largest ``n`` of the 1-D criterion, whose plan has 2n planes: at n = 1000
#: it runs in about 0.02 s on float harmonics and 1 s on two rational ones,
#: plan build included; the benchmark's instances use n <= 2
ONED_MAX_N = 1000

#: largest n^2 * h, h the nonzero harmonics on 1..2n, of the pi-exact 1-D
#: criterion, whose time tracks it: 1 s at n = 1000 with two rational
#: harmonics, 2 s at n = 707 with four, 19 s at n = 300 with 600
ONED_MAX_WORK = 2e6

#: largest closed-form plan accepted, in planes plus triples (see
#: ``_check_plan_work``): a plane costs about 10 us of walk and a triple well
#: under 1 us, and 2e5 empty planes took 2.2 s and a 108 MB peak; the
#: benchmark's coeffs instances stay below 1.6e4
PLAN_MAX_WORK = 2e5

#: largest matrix ``oracle --format csv`` writes, in cells N^2: 9.9e6 cells
#: took 3.1 s and a 280 MB peak; the digests' csv instances stay below 1.4e4
MATRIX_MAX_CELLS = 1e7

_GUARD_ERRORS = (
    CutoffError, DegenerateBasisError, MalformedCoefficientsError, NoEigenvectorError,
    ResonanceError, TriangularityError,
)


# -- config ------------------------------------------------------------------


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", field="config") from exc
    except ValueError as exc:  # malformed, or an integer beyond int()'s digit limit
        raise ConfigError(f"config is not valid JSON: {exc}", field="config") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object", field="config")
    return doc


def _value(value, field: str, kind, dim=None, minimum=None, maximum=None):
    """``value``, the config input ``field``, checked, or :class:`ConfigError`.

    ``kind`` is ``int`` (never a bool), ``float`` (finite, returned as a
    float) or a tuple of the allowed choices.  With ``dim`` the value is a
    list of ``dim`` entries: integers, returned as a lattice index tuple, or
    finite numbers, returned as a list of floats; a bool or a string is
    never a number, in a list or alone.  ``minimum`` and ``maximum`` bound a
    number, or each integer of an index.
    """
    if isinstance(kind, tuple):
        if value not in kind:
            listed = f"{', '.join(kind[:-1])}, or {kind[-1]}"
            raise ConfigError(f"'{field}' must be {listed}", field=field)
        return value
    if dim is not None:
        noun = "integers" if kind is int else "numbers"
        if not isinstance(value, list) or len(value) != dim or kind is int and not all(
            isinstance(x, int) and not isinstance(x, bool) for x in value
        ):
            raise ConfigError(f"'{field}' must be a list of {dim} {noun}", field=field)
        if kind is int:
            if minimum is not None and not all(minimum <= x <= maximum for x in value):
                # the error names the record that holds the index
                raise ConfigError(
                    f"'{field}' entries must lie in [{minimum}, {maximum}]",
                    field=field.removesuffix(".index"),
                )
            return tuple(value)
        if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in value):
            raise ConfigError(f"'{field}' contains a non-number", field=field)
        try:
            values = [float(x) for x in value]
        except OverflowError:  # an integer beyond the float range
            values = [math.inf]
        if not all(map(math.isfinite, values)):
            raise ConfigError(f"'{field}' contains a non-finite number", field=field)
        return values
    if isinstance(value, bool) or not isinstance(value, (int, float)) or (
        not isinstance(value, int) if kind is int
        else not abs(value) <= sys.float_info.max  # NaN, inf, ints beyond float
    ):
        what = "an integer" if kind is int else "a finite number"
        raise ConfigError(f"'{field}' must be {what}", field=field)
    if minimum is not None and value < minimum:
        raise ConfigError(f"'{field}' must be at least {minimum}", field=field)
    if maximum is not None and value > maximum:
        raise ConfigError(f"'{field}' must be at most {maximum}", field=field)
    return kind(value)


def _param(params: dict, key: str, default, kind=float, dim=None, minimum=None, maximum=None):
    """``params[key]`` read by :func:`_value` as ``params.key``; absent or
    null gives ``default``, checked alike, and a default of None gives None."""
    value = default if params.get(key) is None else params[key]
    return None if value is None else _value(value, f"params.{key}", kind, dim, minimum, maximum)


def _ball(params: dict, basis: LatticeBasis, key: str, default: float) -> float:
    """The ball radius ``params[key]``, a nonnegative float whose box passes
    :func:`_check_box`."""
    radius = _param(params, key, default, minimum=0.0)
    _check_box(basis, radius, f"params.{key}", f"{radius:.6g}")
    return radius


def _check_box(basis: LatticeBasis, radius: float, field: str, shown) -> None:
    """:class:`ConfigError` on ``field``, whose value reads ``shown``, when the
    integer box of the ball of this radius (``LatticeBasis.box_size``, from the
    radius alone, before any array is built) holds more than
    ``coeffset.BALL_MAX_BOX`` points."""
    box = basis.box_size(radius)
    if not box <= coeffset.BALL_MAX_BOX:
        raise ConfigError(
            f"'{field}' {shown} gives a ball whose integer box holds {box:.3g} "
            f"points, more than {coeffset.BALL_MAX_BOX:.3g}",
            field=field,
        )


def _row(op: galerkin.TruncatedOperator, index, cutoff: float, shown: str) -> int:
    """``op.position(index)``, or :class:`CutoffError` naming ``shown`` when the
    cutoff ball misses the index."""
    try:
        return op.position(index)
    except KeyError:
        raise CutoffError(f"cutoff {cutoff} ball does not contain {shown}") from None


def parse_basis(doc: dict) -> LatticeBasis:
    for key, kind in (("dimension", int), ("generators", list)):  # required, own wording
        if key not in doc:
            raise ConfigError(f"missing required field '{key}'", field=key)
        if not isinstance(doc[key], kind) or isinstance(doc[key], bool):
            what = "an integer" if kind is int else "of type list"
            raise ConfigError(f"field '{key}' must be {what}", field=key)
    dim = _value(doc["dimension"], "dimension", int, minimum=1)
    gens = doc["generators"]
    if len(gens) != dim:
        message = f"'generators' must list {dim} vectors, got {len(gens)}"
        raise ConfigError(message, field="generators")
    rows = [_value(row, f"generators[{i}]", float, dim) for i, row in enumerate(gens)]
    return _lattice(np.array(rows).tobytes(), dim)


@functools.lru_cache(maxsize=8)
def _lattice(key: bytes, dim: int) -> LatticeBasis:
    """The range-checked basis of the (dim, dim) generator matrix whose float64
    bytes are ``key``, built once per lattice per process and then shared.

    Keyed by the bytes, not the values, so ``-0.0`` and ``0.0`` stay apart.
    A degenerate or out-of-range matrix raises on every call, as no
    exception is cached.
    """
    # the lattice layer squares the generators, the dual vectors (the columns
    # of the inverse, read off the basis as the coordinates of the unit
    # vectors) and the fundamental-domain diameter, which is at most the
    # generators' summed length; one of them beyond the float range would
    # surface as a warning or a crash
    with np.errstate(all="ignore"):
        basis = LatticeBasis(np.frombuffer(key).reshape(dim, dim))
        duals = basis.generator_coordinates(np.eye(dim)).T
        squares = squared_norms(np.concatenate([basis.generators, duals])).tolist()
    summed = sum(map(math.sqrt, squares[:dim]))
    if not all(sys.float_info.min <= x <= sys.float_info.max for x in [*squares, summed * summed]):
        message = "'generators' give a squared length outside the float range"
        raise ConfigError(message, field="generators")
    return basis


def _parse_exact(value, field: str) -> Fraction:
    if not isinstance(value, (str, int, float)):
        raise ConfigError(f"field '{field}' is not a number or rational string", field=field)
    try:  # a float by its shortest repr; a bool as "True"/"False", which is no rational
        return Fraction(str(value))
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"field '{field}' is not a rational: {value!r}", field=field) from exc


#: a parsed potential: the float-world ``q`` and, in 1-D, ``reduced``, the
#: coefficients over pi^2.  ``pi_exact`` is set when any coefficient was given
#: as a rational string; coefficients then mean (re + i*im) * pi^2 with re, im
#: exact rationals, and 1-D criteria run on the exact reduced values.
ParsedPotential = namedtuple("ParsedPotential", "q reduced pi_exact")


def parse_potential(doc: dict, basis: LatticeBasis) -> "ParsedPotential":
    raw = doc.get("potential", [])
    if not isinstance(raw, list):
        raise ConfigError("'potential' must be a list of records", field="potential")
    pi_exact = any(
        isinstance(rec, dict) and any(isinstance(rec.get(part), str) for part in ("re", "im"))
        for rec in raw
    )
    mode = doc.get("mode", "summable")
    coeffs: dict = {}
    reduced: dict[int, Any] = {}
    for i, rec in enumerate(raw):
        field = f"potential[{i}]"
        if not isinstance(rec, dict):
            raise ConfigError(f"'{field}' must be an object", field=field)
        # the coefficient arrays hold indices as int64
        index = rec.get("index")
        key = _value(index, f"{field}.index", int, basis.dimension, INDEX_MIN, INDEX_MAX)
        if pi_exact:
            re = _parse_exact(rec.get("re", 0), f"{field}.re")
            im = _parse_exact(rec.get("im", 0), f"{field}.im")
            try:
                value = complex(float(re) * PI_SQ, float(im) * PI_SQ)
            except OverflowError as exc:
                raise ConfigError(f"'{field}' is too large for a float", field=field) from exc
            red = re if im == 0 else complex(float(re), float(im))
        else:
            re, im = rec.get("re", 0.0), rec.get("im", 0.0)
            message = f"'{field}.re'/'{field}.im' must be numbers"
            if isinstance(re, bool) or isinstance(im, bool):
                raise ConfigError(message, field=field)
            try:
                re, im = float(re), float(im)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(message, field=field) from exc
            value = complex(re, im)
            red = complex(re, im) / PI_SQ
        if not (math.isfinite(value.real) and math.isfinite(value.imag)):
            raise ConfigError(f"'{field}' must have a finite value", field=field)
        coeffs[key] = coeffs.get(key, 0j) + value
        if basis.dimension == 1:
            prev = reduced.get(key[0], 0)
            reduced[key[0]] = prev + red
    truncation = _param(_params(doc), "truncation_radius", None, minimum=0.0)
    try:
        if truncation is not None:
            q = potential.truncated(basis, coeffs, truncation, mode=mode)
        else:
            q = potential.FourierPotential(basis, coeffs, mode=mode)
    except ValueError as exc:  # the mode is unknown or not admitted here
        raise ConfigError(str(exc), field="mode") from exc
    return ParsedPotential(q, reduced if basis.dimension == 1 else None, pi_exact)


def parse_t(doc: dict, basis: LatticeBasis) -> np.ndarray:
    t = _value(doc.get("t", [0.0] * basis.dimension), "t", float, basis.dimension)
    # |g + t|^2 overflows with it for every g of a ball around 0
    if not math.isfinite(sum(x * x for x in t)):
        raise ConfigError("'t' is too large: |t|^2 overflows", field="t")
    return np.array(t)


def _params(doc: dict) -> dict:
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("'params' must be an object", field="params")
    return params


def _require_class_s(q: potential.FourierPotential, use: str) -> None:
    """:class:`ConfigError` unless q is zero or classified into a half-lattice."""
    if q.classification is None and q.coeffs:
        message = f"{use} needs a potential in class S (support in one open half-lattice)"
        raise ConfigError(message, field="potential")


def _check_index_reach(q: potential.FourierPotential, gamma, steps: int) -> None:
    """:class:`ConfigError` unless gamma plus every sum of ``steps`` harmonics
    fits in int64: both Bloch routes hold these indices in int64 arrays, where
    a larger sum would wrap into a wrong offset."""
    largest = max((abs(x) for n in q.coeffs for x in n), default=0)
    if steps * largest + max(map(abs, gamma)) > INDEX_MAX:
        raise ConfigError(
            f"{steps} steps of a harmonic with an index entry of {largest} from "
            f"gamma={gamma} leave the int64 range of the coefficient arrays",
            field="potential",
        )


def _check_plan_work(q: potential.FourierPotential, depth: int) -> None:
    """:class:`ConfigError` when the closed form's plan to plane ``depth`` may
    exceed ``PLAN_MAX_WORK`` planes and triples.

    The plan walks depth + 1 planes.  Each harmonic rises at least one
    plane, so its offsets are sums of at most ``depth`` of the s harmonics:
    at most the points of their ``coeffset.sum_box`` and at most the
    C(depth + s, s) multisets of them, and each offset is the target of at
    most s triples.  Computed from the parameters alone, before any array
    is built.
    """
    s = len(q)
    k = min(s, depth)
    # C(depth + s, k) as a running product of binomials, each at least twice
    # the one before, stopped once it passes the bound
    multisets = 1
    for i in range(1, k + 1):
        if multisets > PLAN_MAX_WORK:
            break
        multisets = multisets * (depth + s - k + i) // i
    support, _ = coeffset.from_mapping(q.coeffs, q.basis.dimension)
    box = math.prod(coeffset.sum_box(support, depth)[1])
    if depth + 1 + s * min(box, multisets) > PLAN_MAX_WORK:
        raise ConfigError(
            f"'params.depth' {depth} over {s} harmonics may give the closed form a plan of "
            f"more than {PLAN_MAX_WORK:.3g} planes and triples",
            field="params.depth",
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
        def outside(k: int, sign: str):  # the first support index outside (k, sign)
            return next((list(n) for n in q.support() if not in_halfspace(n, k, sign)), None)

        witnesses = [
            {"k": k, "violates_plus": outside(k, "+"), "violates_minus": outside(k, "-")}
            for k in range(1, basis.dimension + 1)
        ]
        report.update({"in_s": False, "witnesses": witnesses})
    return report, EXIT_OK


def cmd_bloch(doc: dict) -> tuple[dict, int]:
    basis = parse_basis(doc)
    pot = parse_potential(doc, basis)
    _require_class_s(pot.q, "bloch")
    t = parse_t(doc, basis)
    params = _params(doc)
    gamma = _param(params, "gamma", [0] * basis.dimension, int, basis.dimension)
    method = _param(params, "method", "both", ("series", "closed-form", "both"))
    order = _param(params, "order", 8, int, minimum=1)
    depth = _param(params, "depth", 6, int, minimum=0)
    steps = {"series": order, "closed-form": depth}.get(method, max(order, depth))
    tail_tol = _param(params, "tail_tol", bloch.DEFAULT_TAIL_TOL, minimum=0.0)
    x = _param(params, "evaluate_at", None, float, basis.dimension)
    _check_index_reach(pot.q, gamma, steps)
    if method != "series":
        _check_plan_work(pot.q, depth)

    report: dict[str, Any] = {
        "command": "bloch",
        "method": method,
        "tolerances": {"tail_tol": tail_tol, "denom_tol_scale": spectrum.DENOM_TOL_SCALE},
    }
    code = EXIT_OK
    series = closed = None
    # an overflow shows in the report as a non-finite value, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        if method in ("series", "both"):
            series = bloch.bloch_series(basis, pot.q, gamma, t, max_order=order, tail_tol=tail_tol)
            report.update(
                series=series.to_json_dict(), tail=series.tail, converged=series.converged
            )
            if not series.converged:
                code = EXIT_NONCONVERGENCE
        if method in ("closed-form", "both"):
            closed = bloch.closed_form_coeffs(basis, pot.q, gamma, t, depth=depth)
            report["closed_form"] = closed.to_json_dict()
            if not np.isfinite(closed.values).all():
                code = EXIT_NONCONVERGENCE
        if method == "both":
            report["max_discrepancy"] = bloch.max_discrepancy(series, closed)
        if x is not None:
            chosen = series if series is not None else closed
            value = bloch.evaluate_function(basis, chosen, x)
            report["value_at"] = {"x": x, "re": value.real, "im": value.imag}
    return report, code if x is None or np.isfinite(value) else EXIT_NONCONVERGENCE


def cmd_oracle(doc: dict, want_matrix: bool = False):
    basis = parse_basis(doc)
    pot = parse_potential(doc, basis)
    t = parse_t(doc, basis)
    params = _params(doc)
    cutoff = _ball(params, basis, "cutoff", 6.0)
    gamma = _param(params, "gamma", [0] * basis.dimension, int, basis.dimension)

    op = galerkin.build(basis, pot.q, t, cutoff)
    if want_matrix:
        if op.size**2 > MATRIX_MAX_CELLS:
            raise ConfigError(
                f"'params.cutoff' {cutoff:.6g} gives a matrix of {op.size**2:.3g} cells, "
                f"more than the {MATRIX_MAX_CELLS:.3g} that --format csv writes",
                field="params.cutoff",
            )
        return galerkin.matrix_csv(op), EXIT_OK

    report: dict[str, Any] = {
        "command": "oracle",
        "size": op.size,
        "cutoff": cutoff,
        "tolerances": {
            "rank_tol_scale": galerkin.RANK_TOL_SCALE, "diag_eq_scale": galerkin.DIAG_EQ_SCALE,
            "denom_tol_scale": spectrum.DENOM_TOL_SCALE,
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

    # the spectrum of a triangular matrix is its diagonal;
    # class S has no q_0, so M_jj = |g + t|^2 + 0j, and two arrays equal entry
    # by entry are equal as sorted multisets: this is the multiset check's value
    report["spectrum_match"] = bool((op.matrix_diagonal.real == op.diagonal).all())

    base = _row(op, gamma, cutoff, f"gamma={gamma}")
    # the cone and the closed form read one plan; the closed form runs
    # before the backsolve, so that a resonance surfaces first
    cone = galerkin.interior_cone(op, gamma)
    with np.errstate(over="ignore", invalid="ignore"):
        closed = bloch.closed_form_coeffs(
            basis, pot.q, gamma, t, depth=int(op.planes.max() - op.planes[base])
        )
        vec = galerkin.eigenvector_backsolve(op, base)
        expected = np.zeros(op.size, dtype=complex)
        m = len(closed.offsets)
        found = op.find(np.concatenate([closed.offsets, cone]) + gamma)
        found, rows = found[:m], found[m:]
        expected[found[found >= 0]] = closed.values[found >= 0]
        diff = vec.vector[rows] - expected[rows]
        moduli = coeffset.moduli(diff)
    # the largest modulus, or NaN when one is NaN
    report["eigenvector_agreement"] = worst = float(moduli.max(initial=0.0))
    return report, EXIT_OK if math.isfinite(worst) else EXIT_NONCONVERGENCE


def cmd_multiplicity(doc: dict) -> tuple[dict, int]:
    params = _params(doc)
    mode = _param(params, "mode", "both", ("1d-criterion", "oracle", "both", "2d-second-plane"))
    if mode == "2d-second-plane":
        return _multiplicity_second_plane(doc, params)
    basis = parse_basis(doc)
    if basis.dimension != 1:
        raise ConfigError("1-D multiplicity modes require dimension 1", field="dimension")
    pot = parse_potential(doc, basis)
    run_criterion, run_oracle = mode != "oracle", mode != "1d-criterion"
    if run_criterion and any(m <= 0 and v != 0 for m, v in pot.reduced.items()):
        message = "the 1-D criterion needs a potential on positive harmonics only"
        raise ConfigError(message, field="potential")
    n = _param(params, "n", 1, int, minimum=1, maximum=ONED_MAX_N if run_criterion else INDEX_MAX)
    criterion_tol = _param(params, "criterion_tol", rootfn.CRITERION_TOL, minimum=0.0)
    if run_criterion and pot.pi_exact:
        harmonics = sum(1 for m, v in pot.reduced.items() if m <= 2 * n and v != 0)
        if n * n * harmonics > ONED_MAX_WORK:
            raise ConfigError(
                f"the pi-exact 1-D criterion at n={n} over {harmonics} harmonics needs "
                f"n^2 * harmonics = {n * n * harmonics:.3g}, more than {ONED_MAX_WORK:.3g}",
                field="potential",
            )
    t = parse_t(doc, basis)
    if run_criterion:
        # the criterion's recursion is the one of period 1 at t = 0
        if abs(basis.generators.item(0)) != 2 * math.pi:
            message = "the 1-D criterion needs the generator 2 pi or -2 pi (period 1)"
            raise ConfigError(message, field="generators")
        if t.any():
            raise ConfigError("the 1-D criterion needs t = 0", field="t")
    if run_oracle:
        cutoff = _ball(params, basis, "cutoff", float(2 * math.pi * (3 * n + 2)))

    report: dict[str, Any] = {
        "command": "multiplicity",
        "mode": mode,
        "n": n,
        "pi_exact": pot.pi_exact,
        "tolerances": {"criterion_tol": criterion_tol, "rank_tol_scale": galerkin.RANK_TOL_SCALE},
    }
    if run_criterion:
        value = rootfn.oned_double_criterion(n, pot.reduced or {})
        try:
            cval = complex(value)
        except OverflowError:  # an exact rational beyond the float range
            cval = complex(math.inf if value > 0 else -math.inf)
        criterion_zero = (value == 0) if pot.pi_exact else (abs(cval) <= criterion_tol)
        report["criterion"] = {"re": cval.real, "im": cval.imag}
        report["criterion_units"] = "pi^2"
        report["criterion_is_zero"] = criterion_zero
        report["predicted_multiplicity"] = 2 if criterion_zero else 1
    if run_oracle:
        op = galerkin.build(basis, pot.q, t, cutoff)
        # the ball is symmetric: it holds -n exactly when it holds n
        _row(op, (n,), cutoff, f"n={n}")
        oracle_mult = galerkin.geometric_multiplicity(op, spectrum.eigenvalue(basis, (n,), t))
        report.update(oracle_multiplicity=oracle_mult, oracle_cutoff=cutoff)
    if mode == "both":
        consistent = (oracle_mult == 2) == criterion_zero
        report["verdict"] = "consistent" if consistent else "inconsistent"
    return report, EXIT_OK if not run_criterion or np.isfinite(cval) else EXIT_NONCONVERGENCE


def _multiplicity_second_plane(doc: dict, params: dict) -> tuple[dict, int]:
    basis = parse_basis(doc)
    pot = parse_potential(doc, basis)
    t = parse_t(doc, basis)
    k = _param(params, "k", 1, int, minimum=1, maximum=basis.dimension)
    if pot.q.classification != (k, "+"):
        message = f"the second-plane criterion needs a potential classified (k={k}, '+')"
        raise ConfigError(message, field="potential")
    member = _value(
        params.get("member"), "params.member", int, basis.dimension, INDEX_MIN, INDEX_MAX
    )
    criterion_tol = _param(params, "criterion_tol", rootfn.CRITERION_TOL, minimum=0.0)
    # the group ball and the default radius follow from the member's free eigenvalue
    lam_probe = spectrum.eigenvalue(basis, member, t)
    _check_box(basis, spectrum.group_radius(basis, lam_probe, t), "params.member", list(member))
    cutoff = _ball(params, basis, "cutoff", 8.0 * math.sqrt(lam_probe) + 8.0)

    group = spectrum.degeneracy_group(basis, member, t, k)
    if len(group.planes) < 2 or member not in group.planes[1].members:
        raise ConfigError(
            "'params.member' is not on the second plane of its degeneracy group",
            field="params.member",
        )
    j = group.planes[1].members.index(member)
    # an overflow shows in the report as a non-finite criterion, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        result = rootfn.second_plane_solve(basis, pot.q, group, j, criterion_tol=criterion_tol)
    op = galerkin.build(basis, pot.q, t, cutoff)
    _row(op, member, cutoff, f"member={member}")
    # the planes of a '+' operator ascend: the rows above the member's plane are a tail
    above = op.planes.searchsorted(group.planes[1].n, side="right")
    subset = np.concatenate([op.indices[above:], [member]])
    excess = galerkin.jordan_chain_excess(op, group.lam, subset=subset)
    predicted = result.classification is rootfn.Classification.ASSOCIATED
    report = {
        "command": "multiplicity",
        "mode": "2d-second-plane",
        "report": result.to_json_dict(),
        "jordan_excess": excess,
        "verdict": "consistent" if (excess == 1) == predicted else "inconsistent",
        "tolerances": {
            "criterion_tol": criterion_tol, "rank_tol_scale": galerkin.RANK_TOL_SCALE,
            "denom_tol_scale": spectrum.DENOM_TOL_SCALE,
        },
    }
    return report, EXIT_OK if np.isfinite(result.criterion_values).all() else EXIT_NONCONVERGENCE


def _check_fermi_work(basis: LatticeBasis, rho: float, resolution: int) -> None:
    """:class:`ConfigError` when the sampling would exceed ``FERMI_MAX_WORK``.

    The work is the grid points times the integer box of the ball of radius
    rho + 1.5 S + 1, S the sum of the generator lengths, which holds the
    minimizer ball rho + D/2 + max |t| + eps that ``sample_surface`` scores
    (the diameter D of the fundamental domain is at most S, and |t| at most
    D/2).  Computed from the parameters alone, before any array is built.
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
    rho = _param(params, "rho", 0.5, minimum=0.0)
    resolution = _param(params, "resolution", 21, int, minimum=2)
    threshold = _param(params, "threshold", 0.01, minimum=0.0)
    _check_fermi_work(basis, rho, resolution)
    sample = isoenergetic.sample_surface(basis, rho, resolution, threshold)
    if as_csv:
        return sample.to_csv(), EXIT_OK
    report = {
        "command": "fermi", "rho": rho, "resolution": resolution, "threshold": threshold,
        "retained": len(sample.distances),
        "points": jsonfmt.Columns(
            ("t", "distance", "gamma"), (sample.ts, sample.distances, sample.gammas)
        ),
    }
    return report, EXIT_OK


# -- driver ------------------------------------------------------------------

#: command -> runner of (doc, csv); csv is asked for only of oracle and fermi
_RUNNERS = {
    "classify": lambda doc, csv: cmd_classify(doc),
    "bloch": lambda doc, csv: cmd_bloch(doc),
    "oracle": lambda doc, csv: cmd_oracle(doc, want_matrix=csv),
    "multiplicity": lambda doc, csv: cmd_multiplicity(doc),
    "fermi": lambda doc, csv: cmd_fermi(doc, as_csv=csv),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="halfspace-bloch",
        description="Bloch spectra of periodic operators with half-space potentials",
    )
    parser.add_argument("command", choices=list(_RUNNERS))
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument(
        "--format", choices=["json", "csv"], default=None,
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
                f"csv output is not defined for command '{args.command}'", field="--format"
            )
        payload, code = _RUNNERS[args.command](_load_json(args.config), fmt == "csv")
    except ConfigError as exc:
        sys.stderr.write(f"config error ({exc.field}): {exc}\n")
        return EXIT_CONFIG
    except _GUARD_ERRORS as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return EXIT_GUARD

    text = payload if isinstance(payload, str) else jsonfmt.dumps(payload) + "\n"
    if args.out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
