"""Constructive Bloch functions for half-space potentials.

Two routes to the same coefficients, kept deliberately separate so they can
check each other:

* the operator series: iterate the transformation A that convolves with the
  potential and divides by the eigenvalue gap, and sum the terms;
* the closed-form recursion: solve for the coefficients plane by plane,
  dividing by d(g, delta) = |g+t|^2 - |g+delta+t|^2 once per target index.

Both produce coefficient maps supported on the base index 0 and the strict
half-space planes only, normalized to 1 at the base plane wave.  Every
guard asks whether a denominator collides with lam (:func:`spectrum.collides`).

Both routes, the residual and the discrepancy run on the array-backed
coefficient sets of :mod:`coeffset`: whole offset arrays are convolved with
the potential support, merged through packed integer keys, and given one
batched |g+t|^2 per distinct target.  The results equal those of the
original dict loops bit for bit.  That is why the kernel never uses numpy's
complex ``*``, ``/`` or ``abs``: they round some values differently from
Python's complex arithmetic, so products and quotients are written out in
real arithmetic.  The series' term masses take their moduli as
:func:`coeffset.moduli` (``np.hypot`` of the parts, equal to Python's
``abs``, and inf where ``abs`` would overflow) and add them left to right.

The series holds its terms as sorted packed keys in one box, fixed from
``max_order`` the way :func:`coeffset.plan` fixes its walk's box, and
builds one order at a time: per order one broadcast add of the
harmonics' key shifts, one stable sort with a neighbour mask for the
distinct targets, one ``searchsorted`` to place the candidates, and one
``unpack`` and one batched |g+t|^2 call on the targets alone.  Nothing
past the order where the series stops is built.

The closed form is one plan and one evaluation.  The plan
(:func:`coeffset.plan`) holds the structure alone and depends on the
support, the axis and the depth, never on gamma or t: the offsets
reachable within the depth, plane-major and lexicographic within a plane,
less any with an entry beyond int64, which no array here holds, and every
(target, harmonic, predecessor) triple in the order the dict loop sums
them: target plane, first appearance of the harmonic's plane in the
support, support order, predecessor.  One walk over the planes lays out
both.  The evaluation makes one batched |g+t|^2 call, then per plane one
gather, one product, two ``bincount`` sums and one divide, on real and
imaginary parts held in separate arrays; last it reads which numerators
are kept and runs one guard over all planes, every reachable offset
reached through a kept coefficient, in row order (see :func:`_evaluate`).
A numerator that is exactly 0 is dropped and feeds nothing after it.
:func:`_evaluate_exact` runs the same triples in the same order over Python
numbers, so that rational input gives exact values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from . import coeffset, jsonfmt
from .errors import ResonanceError
from .lattice import IndexVector, LatticeBasis, as_index, sign_value
from .potential import FourierPotential
from .spectrum import collides, eigenvalue, eigenvalues

DEFAULT_MAX_ORDER = 12
DEFAULT_TAIL_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class BlochCoefficients:
    """Fourier coefficients of a Bloch function over offsets from its base index.

    ``offsets`` is the ``(m, d)`` int64 array of the offsets delta, sorted
    lexicographically without repeats, and ``values`` the complex128 array
    of the c(gamma, delta), row by row; both are read-only.  c(gamma, 0) = 1
    exactly, and the support otherwise lies in the open half-space planes.
    ``order`` is the series order or plane depth used; ``tail`` the l1 mass
    of the last series term (None for the closed form); ``term_masses`` the
    per-order l1 masses actually observed.
    """

    gamma: IndexVector
    t: tuple[float, ...]
    k: int
    sign: str
    offsets: np.ndarray
    values: np.ndarray
    order: int
    lam: float
    tail: float | None = None
    converged: bool = True
    term_masses: tuple[float, ...] = ()

    def __post_init__(self):
        offsets = np.array(self.offsets, dtype=np.int64).reshape(-1, len(self.gamma))
        values = np.array(self.values, dtype=complex)
        if values.shape != (len(offsets),):
            raise ValueError("offsets and values must have one row per coefficient")
        offsets.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "values", values)

    @cached_property
    def coeffs(self) -> dict[IndexVector, complex]:
        """delta -> c(gamma, delta) as Python ints and complex, in row order.

        Built on first use; the routes, the residual and the JSON report
        read the arrays.
        """
        return coeffset.to_dict(self.offsets, self.values)

    def to_json_dict(self) -> dict:
        """The report of the coefficients.

        ``"entries"`` is a :class:`~halfspace_bloch.jsonfmt.Columns` table,
        one record ``{"delta": [...], "re": ..., "im": ...}`` per offset in
        lexicographic order; ``jsonfmt.dumps`` writes it as that list of
        records, and so does ``json.dumps(..., default=list)``.
        """
        return {
            "gamma": list(self.gamma),
            "t": list(self.t),
            "lambda": self.lam,
            "order": self.order,
            "entries": jsonfmt.Columns(
                ("delta", "re", "im"), (self.offsets, self.values.real, self.values.imag)
            ),
        }


def _require_classified(q: FourierPotential) -> tuple[int, str]:
    if q.classification is None and q.coeffs:
        raise ValueError("potential is not classifiable into a half-lattice")
    return q.k, q.sign


def _guard(gap: np.ndarray, lam: float, offsets: np.ndarray, message: str, at=None) -> None:
    """:class:`ResonanceError` at the first gap to lam that collides
    (:func:`spectrum.collides`).

    ``gap[i]`` belongs to row i of ``offsets``; with ``at`` the gaps are
    read in the order of ``gap[at]``.
    """
    bad = collides(gap, lam)
    if bad.any():
        # argmax of a mask is its first True
        row = bad.argmax() if at is None else at[bad[at].argmax()]
        index, value = tuple(offsets[row].tolist()), float(gap[row])
        raise ResonanceError(message.format(index, value), index=index, value=value)


def bloch_series(
    basis: LatticeBasis,
    q: FourierPotential,
    gamma: Sequence[int],
    t: Sequence[float],
    max_order: int = DEFAULT_MAX_ORDER,
    tail_tol: float = DEFAULT_TAIL_TOL,
) -> BlochCoefficients:
    """Partial sums of the A-iteration applied to the base plane wave.

    Stops when the l1 mass of the newest term drops below ``tail_tol`` or at
    ``max_order``; the achieved tail and convergence flag are recorded on
    the result rather than raised, so callers can decide.  Raises
    ``ValueError`` at the first order that reaches an offset with an entry
    beyond int64.

    One application of A sends the term's mass at delta to delta + g1 for
    every harmonic g1 (harmonic outer, predecessor inner: the order the sums
    are taken in), weighted by q_{g1} / (lam - |gamma + delta + g1 + t|^2),
    and drops exact zeros; :class:`ResonanceError` names the first
    candidate, in that order, whose denominator is below the guard.
    """
    k, sign = _require_classified(q)
    gamma = as_index(gamma, basis.dimension)
    t = np.asarray(t, dtype=float)
    lam = eigenvalue(basis, gamma, t)
    support, qvals = coeffset.from_mapping(q.coeffs, basis.dimension)
    lo, spans, keys, shifts = coeffset.sum_box(support, max(max_order, 0))

    # the bare plane wave: 1 at offset 0
    values = np.array([1 + 0j])
    terms = [(keys, values)]
    masses: list[float] = []
    tail = 0.0
    order = 0
    for order in range(1, max_order + 1):
        targets, at, re, im = coeffset.convolve(shifts, qvals, keys, values)
        rows = coeffset.unpack(targets, lo, spans)
        if len(rows) < len(targets):
            raise ValueError(f"series order {order} reaches an offset beyond int64")
        gap = lam - eigenvalues(basis, rows + gamma, t)
        _guard(gap, lam, rows, "resonant denominator at offset {}: {!r}", at)
        re, im = coeffset.divide(re, im, gap[at])
        keys, values = coeffset.nonzero(targets, coeffset.accumulate(at, re, im, targets.size))
        tail = coeffset.l1_norm(values)
        masses.append(tail)
        terms.append((keys, values))
        if tail < tail_tol:
            break
    if not q.coeffs:
        order, tail = 0, 0.0

    # the base entry sums to exactly 1 + 0j: no term reaches plane 0
    values = np.concatenate([v for _, v in terms])
    targets, at = coeffset.group(np.concatenate([n for n, _ in terms]))
    keys, values = coeffset.nonzero(
        targets, coeffset.accumulate(at, values.real, values.imag, targets.size)
    )
    return BlochCoefficients(
        gamma=gamma,
        t=tuple(float(x) for x in t),
        k=k,
        sign=sign,
        offsets=coeffset.unpack(keys, lo, spans),
        values=values,
        order=order,
        lam=lam,
        tail=tail,
        converged=tail < tail_tol,
        term_masses=tuple(masses),
    )


def _evaluate(plan: coeffset.Plan, qvals: np.ndarray, d: np.ndarray, lam: float):
    """(values, kept) on the plan's offsets, kept marking nonzero numerators.

    ``d`` holds d(gamma, delta) per offset, gaps to the level ``lam``.  An
    offset is reached when a triple brings it a kept coefficient; the guard
    raises at the first reached one, in row order, whose d collides.  Every
    numerator is divided, but only the kept ones are read: a dropped one is
    0 and leaves a zero that adds nothing to the sums after it.  A d that
    collides divides as inf: the planes before the first hit, which alone
    decide where it is, are exact, and without a hit every such d belongs
    to an offset whose numerator is 0.  Values and numerators are held as
    real and imaginary parts, the base plane's numerators 1, and ``kept``
    is read off the numerators once all planes are done.
    """
    n = len(plan.offsets)
    value_re, value_im, num_re, num_im = np.zeros((4, n))
    value_re[: plan.bounds[1]] = num_re[: plan.bounds[1]] = 1.0
    q = qvals[plan.harmonics]
    q_re, q_im = q.real.copy(), q.imag.copy()
    divisor = np.where(collides(d, lam), np.inf, d)
    bounds, cuts, local, predecessors = plan.bounds, plan.cuts, plan.local, plan.predecessors
    for p in range(1, len(bounds) - 1):
        s, e, lo, hi = bounds[p], bounds[p + 1], cuts[p], cuts[p + 1]
        at = predecessors[lo:hi]
        re, im = coeffset.product(q_re[lo:hi], q_im[lo:hi], value_re[at], value_im[at])
        num_re[s:e] = np.bincount(local[lo:hi], re, e - s)
        num_im[s:e] = np.bincount(local[lo:hi], im, e - s)
        value_re[s:e], value_im[s:e] = coeffset.divide(num_re[s:e], num_im[s:e], divisor[s:e])
    kept = (num_re != 0) | (num_im != 0)
    reached = np.zeros(n, dtype=bool)
    reached[plan.targets[kept[predecessors]]] = True
    _guard(
        np.where(reached, d, np.inf), lam, plan.offsets,
        "d(gamma, delta) vanished at delta={}: {!r}",
    )
    return coeffset.join(value_re, value_im), kept


def _evaluate_exact(plan: coeffset.Plan, qvals: Sequence, d: Sequence) -> list:
    """:func:`_evaluate`'s values over Python numbers (Fraction, int or
    complex), ``qvals`` one per step and ``d`` one per offset.

    The triples are summed in plan order onto 0 and each row past the
    origin's 1 is its numerator over its own d; a numerator that is exactly
    0 stays 0.  The first reached row, in row order, whose d is exactly 0
    raises :class:`ResonanceError`.
    """
    values = [1] + [0] * (len(plan.offsets) - 1)
    reached = [False] * len(values)
    columns = (plan.targets, plan.harmonics, plan.predecessors)
    for p in range(1, len(plan.bounds) - 1):
        for row, h, before in zip(*(c[plan.cuts[p]:plan.cuts[p + 1]].tolist() for c in columns)):
            if values[before] != 0:
                reached[row] = True
                values[row] += qvals[h] * values[before]
        for row in range(plan.bounds[p], plan.bounds[p + 1]):
            if reached[row] and d[row] == 0:
                index = tuple(plan.offsets[row].tolist())
                message = f"d(gamma, delta) vanished at delta={index}: {d[row]!r}"
                raise ResonanceError(message, index=index, value=d[row])
            if values[row] != 0:
                values[row] /= d[row]
    return values


def closed_form_coeffs(
    basis: LatticeBasis,
    q: FourierPotential,
    gamma: Sequence[int],
    t: Sequence[float],
    depth: int,
) -> BlochCoefficients:
    """Plane-by-plane solution of the coefficient recursion up to a plane depth.

    The coefficient at an offset on plane p is the potential-convolution of
    the coefficients on planes below p, divided by d(gamma, delta); chains
    never descend, so each plane is determined by the previous ones alone.
    Requires the base eigenvalue to be simple (resonances raise).  It is
    :func:`coeffset.plan` and :func:`_evaluate` (module docstring).
    """
    k, sign = _require_classified(q)
    gamma = as_index(gamma, basis.dimension)
    t = np.asarray(t, dtype=float)
    lam = eigenvalue(basis, gamma, t)
    plan = q.plan(depth)
    qvals = np.array(list(q.coeffs.values()), dtype=complex)
    values, kept = _evaluate(plan, qvals, lam - eigenvalues(basis, plan.offsets + gamma, t), lam)
    rows = plan.lex[kept[plan.lex]]
    return BlochCoefficients(
        gamma=gamma,
        t=tuple(float(x) for x in t),
        k=k,
        sign=sign,
        offsets=plan.offsets[rows],
        values=values[rows],
        order=depth,
        lam=lam,
    )


def residual(basis: LatticeBasis, q: FourierPotential, psi: BlochCoefficients) -> float:
    """l2 norm of the Fourier coefficients of (-Laplacian + q - lam) applied to psi.

    Exact on the truncated coefficient set: the defect is supported on the
    support of psi plus one potential convolution, all of which is included.
    The norm is ``math.hypot`` of the :func:`coeffset.moduli`, as
    ``FourierPotential.norm_l2`` takes it: inf, not ``OverflowError``, when
    it leaves the float range.
    """
    support, qvals = coeffset.from_mapping(q.coeffs, basis.dimension)
    t = np.asarray(psi.t, dtype=float)
    offsets, values = psi.offsets, psi.values
    n = len(values)
    _, _, keys, shifts = coeffset.sum_box(support, 1, base=offsets)
    # a zero step first puts psi's own rows at at[:n]; its products are not read
    targets, at, re, im = coeffset.convolve(
        np.concatenate(([0], shifts)), np.concatenate(([0j], qvals)), keys, values
    )
    defect = coeffset.accumulate(at[n:], re[n:], im[n:], targets.size)
    shift = eigenvalues(basis, offsets + psi.gamma, t) - psi.lam
    defect[at[:n]] += coeffset.join(*coeffset.product(shift, 0.0, values.real, values.imag))
    # summed in order of first appearance: psi's offsets, then the new ones
    new = np.empty(targets.size, dtype=bool)
    new.fill(True)
    new[at[:n]] = False
    defect = defect[np.concatenate([at[:n], new.nonzero()[0]])]
    # hypot scales its arguments: inf past the float range, never OverflowError
    return math.hypot(*coeffset.moduli(defect).tolist())


def evaluate_function(
    basis: LatticeBasis, psi: BlochCoefficients, x: Sequence[float]
) -> complex:
    """Pointwise value of the Bloch function from its coefficients.

    Spot-check use only: sums c(gamma, delta) exp(i <gamma + delta + t, x>)
    over the stored offsets.  Each phase is a stacked (1, d) @ (d, 1)
    matmul, bit-equal to the 1-D ``wave @ x``; the terms are the Python
    complex coefficients times numpy's scalar ``exp``, added one by one onto
    0j in row order.
    """
    waves = basis.to_cartesian(psi.offsets + psi.gamma) + np.asarray(psi.t, dtype=float)
    phases = (waves[:, None, :] @ np.asarray(x, dtype=float)[:, None])[:, 0, 0]
    total = 0j
    for c, phase in zip(psi.values.tolist(), phases.tolist()):
        total += c * np.exp(1j * phase)
    return total


def max_discrepancy(
    a: BlochCoefficients, b: BlochCoefficients, max_plane: int | None = None
) -> float:
    """Largest coefficient difference on planes both computations determine.

    Series order N determines planes up to N and the closed form determines
    planes up to its depth, so the comparison is restricted to planes up to
    the smaller ``order`` (or to ``max_plane`` when given).
    """
    if a.gamma != b.gamma or a.t != b.t or a.k != b.k or a.sign != b.sign:
        raise ValueError("coefficient sets describe different Bloch functions")
    limit = min(a.order, b.order) if max_plane is None else max_plane
    n = len(a.values)
    lo, spans, keys, _ = coeffset.sum_box(
        a.offsets[:0], 0, base=np.concatenate([a.offsets, b.offsets])
    )
    targets, at = coeffset.group(keys)
    diff = np.zeros(targets.size, dtype=complex)
    diff[at[:n]] = a.values
    diff[at[n:]] -= b.values
    rows = coeffset.unpack(targets, lo, spans)
    p = sign_value(a.sign) * rows[:, a.k - 1]
    on_planes = ((0 < p) & (p <= limit)) | ~rows.any(axis=1)
    # inf, not OverflowError, where a modulus leaves the float range
    return max(coeffset.moduli(diff[on_planes]).tolist(), default=0.0)
