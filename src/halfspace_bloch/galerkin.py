"""Truncated plane-wave matrix of the quasiperiodic operator, as an oracle.

In the plane-wave basis the operator has matrix entries
|g + t|^2 [g = g'] + q_{g - g'}.  For a half-space potential and rows
ordered plane-major along the classification axis, every coupling entry
drops strictly toward later rows, so the matrix is strictly lower
triangular off the diagonal.  That makes the truncated spectrum literally
the diagonal, eigenvectors available by forward substitution, and Jordan
structure measurable by numerical rank, all independent of the analytic
coefficient formulas this module is used to verify.
"""

from __future__ import annotations

import io
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from . import coeffset
from .errors import NoEigenvectorError, TriangularityError
from .lattice import IndexVector, LatticeBasis, as_index, decompose, sign_value
from .potential import FourierPotential
from .spectrum import eigenvalues

#: relative spectral-norm factor for numerical rank decisions
RANK_TOL_SCALE = 1e-9

#: relative width for treating two diagonal entries as the same eigenvalue
DIAG_EQ_SCALE = 1e-9


@dataclass(frozen=True)
class TruncatedOperator:
    """Dense matrix of the operator on a plane-major-ordered index ball.

    ``index_set`` is ordered by ascending signed plane index along axis k
    (ties lexicographic), which for sign '+' is ascending plane order; the
    matrix rows/columns follow that order.  Immutable after build.
    """

    basis: LatticeBasis
    q: FourierPotential
    t: tuple[float, ...]
    k: int
    sign: str
    index_set: tuple[IndexVector, ...]
    matrix: np.ndarray
    diagonal: np.ndarray
    planes: tuple[int, ...]
    _positions: dict[IndexVector, int] = field(repr=False)

    @property
    def size(self) -> int:
        return len(self.index_set)

    def position(self, n: Sequence[int]) -> int:
        """Row/column position of a lattice index; KeyError when outside."""
        return self._positions[as_index(n, self.basis.dimension)]

    def eigen_eq_tol(self) -> float:
        scale = float(np.max(np.abs(self.diagonal))) if self.size else 0.0
        return DIAG_EQ_SCALE * (1.0 + scale)

    @cached_property
    def _witness(self) -> tuple[IndexVector, IndexVector] | None:
        # built on first use only: the rank probes never need the N x N mask
        return _first_grading_violation(self)


def build(
    basis: LatticeBasis,
    q: FourierPotential,
    t: Sequence[float],
    cutoff: float,
) -> TruncatedOperator:
    """Assemble the truncated operator on the ball |g| <= cutoff.

    An unclassifiable potential still builds (axis 1, sign '+') so the
    triangularity guard can report the violation.
    """
    t_arr = np.asarray(t, dtype=float)
    k, sign = (q.k or 1), (q.sign or "+")
    sig = sign_value(sign)
    ball = basis.enumerate_ball(np.zeros(basis.dimension), cutoff)
    index_set = tuple(sorted(ball, key=lambda n: (sig * n[k - 1], n)))
    positions = {n: i for i, n in enumerate(index_set)}

    size = len(index_set)
    indices = np.array(index_set, dtype=np.int64).reshape(size, basis.dimension)
    diag = eigenvalues(basis, indices, t_arr)
    matrix = np.zeros((size, size), dtype=complex)
    matrix[np.diag_indices(size)] = diag
    # q_{g1} couples column n to row n + g1 wherever n + g1 is in the ball;
    # no two (row, column) pairs repeat, so one scattered add places them all
    support, qvals = coeffset.from_mapping(q.coeffs, basis.dimension)
    targets = (support[:, None, :] + indices[None, :, :]).reshape(-1, basis.dimension)
    first, inverse = coeffset.unique_rows(np.concatenate([indices, targets]))
    position = np.full(first.size, -1)
    position[inverse[:size]] = np.arange(size)
    rows = position[inverse[size:]]
    inside = rows >= 0
    cols = np.tile(np.arange(size), len(qvals))
    matrix[rows[inside], cols[inside]] += np.repeat(qvals, size)[inside]
    matrix.setflags(write=False)
    diag.setflags(write=False)
    return TruncatedOperator(
        basis=basis,
        q=q,
        t=tuple(float(x) for x in t_arr),
        k=k,
        sign=sign,
        index_set=index_set,
        matrix=matrix,
        diagonal=diag,
        planes=tuple(sig * n[k - 1] for n in index_set),
        _positions=positions,
    )


def _first_grading_violation(op: TruncatedOperator) -> tuple[IndexVector, IndexVector] | None:
    p = np.asarray(op.planes)
    bad = (p[:, None] <= p[None, :]) & (op.matrix != 0)
    np.fill_diagonal(bad, False)
    rows, cols = np.nonzero(bad)
    if rows.size == 0:
        return None
    return op.index_set[rows[0]], op.index_set[cols[0]]


def triangularity_witness(op: TruncatedOperator) -> tuple[IndexVector, IndexVector] | None:
    """First entry violating the strict plane grading, or None.

    The grading demands a zero at every (row, col) pair with row plane <=
    col plane, row != col; this is an exact structural check, not a
    tolerance test.  The scan runs once per operator and is cached on it.
    """
    return op._witness


def is_plane_triangular(op: TruncatedOperator) -> bool:
    return triangularity_witness(op) is None


def _require_triangular(op: TruncatedOperator, use: str) -> None:
    """Raise :class:`TriangularityError` with the witness entry, if there is one."""
    witness = triangularity_witness(op)
    if witness is not None:
        raise TriangularityError(
            f"{use} requires the plane-triangular structure; matrix entry at "
            f"rows {witness[0]} <- {witness[1]} breaks the plane grading "
            "(potential not in class S, or wrong ordering)",
            row=witness[0],
            col=witness[1],
        )


def truncated_spectrum(op: TruncatedOperator) -> tuple[float, ...]:
    """Eigenvalue multiset of the truncation: exactly the sorted diagonal.

    Valid because the matrix is strictly triangular off the diagonal; raises
    :class:`TriangularityError` (with a witness entry) when it is not.
    """
    _require_triangular(op, "reading the spectrum off the diagonal")
    return tuple(sorted(float(x.real) for x in np.diag(op.matrix)))


@dataclass(frozen=True)
class BacksolveResult:
    """Eigenvector (or chain vector) from forward substitution.

    ``vector`` is over ``index_set`` with 1 at the requested leading
    position; ``flagged`` lists positions of repeated-diagonal rows whose
    entry was fixed to 0 because substitution could not determine it.
    """

    vector: np.ndarray
    leading: int
    flagged: tuple[int, ...]

    def coeff_map(self, op: TruncatedOperator) -> dict[IndexVector, complex]:
        return {
            n: complex(v)
            for n, v in zip(op.index_set, self.vector)
            if v != 0
        }


def eigenvector_backsolve(op: TruncatedOperator, i: int) -> BacksolveResult:
    """Solve (M - lam I) x = 0 with x = 1 at diagonal position i, zeros before.

    Rows after i with the same diagonal value are consistency checks: a
    nonzero accumulated right-hand side there means no eigenvector has this
    leading term (:class:`NoEigenvectorError`); a zero one leaves the entry
    free and it is pinned to 0 (position flagged).
    """
    _require_triangular(op, "back substitution")
    n = op.size
    if not 0 <= i < n:
        raise IndexError(f"diagonal position {i} out of range")
    lam = op.diagonal[i]
    eq_tol = op.eigen_eq_tol()
    x = np.zeros(n, dtype=complex)
    x[i] = 1.0
    flagged: list[int] = []
    for j in range(i + 1, n):
        rhs = -np.dot(op.matrix[j, i:j], x[i:j])
        gap = op.matrix[j, j] - lam
        if abs(gap) <= eq_tol:
            if abs(rhs) > eq_tol:
                raise NoEigenvectorError(
                    f"no eigenvector with leading term {op.index_set[i]}: row "
                    f"{op.index_set[j]} accumulates {rhs!r}",
                    position=j,
                    residual=complex(rhs),
                )
            flagged.append(j)
        else:
            x[j] = rhs / gap
    return BacksolveResult(vector=x, leading=i, flagged=tuple(flagged))


def first_associated_backsolve(
    op: TruncatedOperator, i: int, eigvec: np.ndarray
) -> tuple[BacksolveResult, complex]:
    """Solve (M - lam I) x = c * eigvec with x = 1 at position i; returns (x, c).

    The scalar c is fixed at the first repeated-diagonal row where the
    eigenvector has a nonzero entry; later repeated rows must agree within
    the diagonal tolerance or :class:`NoEigenvectorError` is raised.  Like
    :func:`eigenvector_backsolve`, it requires the plane-triangular structure.
    """
    _require_triangular(op, "back substitution")
    n = op.size
    lam = op.diagonal[i]
    eq_tol = op.eigen_eq_tol()
    x = np.zeros(n, dtype=complex)
    x[i] = 1.0
    c: complex | None = None
    flagged: list[int] = []
    for j in range(i + 1, n):
        rhs = -np.dot(op.matrix[j, i:j], x[i:j])
        gap = op.matrix[j, j] - lam
        if abs(gap) <= eq_tol:
            if abs(eigvec[j]) > eq_tol:
                if c is None:
                    c = complex(-rhs / eigvec[j])
                elif abs(-rhs - c * eigvec[j]) > eq_tol * (1 + abs(c)):
                    raise NoEigenvectorError(
                        "inconsistent chain condition at row "
                        f"{op.index_set[j]}",
                        position=j,
                        residual=complex(rhs),
                    )
            elif abs(rhs) > eq_tol:
                raise NoEigenvectorError(
                    f"chain blocked at row {op.index_set[j]} with residual {rhs!r}",
                    position=j,
                    residual=complex(rhs),
                )
            flagged.append(j)
        else:
            contribution = c * eigvec[j] if c is not None else 0j
            x[j] = (rhs + contribution) / gap
    return BacksolveResult(vector=x, leading=i, flagged=tuple(flagged)), (
        0j if c is None else c
    )


def _numerical_rank(mat: np.ndarray, rank_tol: float | None) -> tuple[int, np.ndarray, float]:
    svals = np.linalg.svd(mat, compute_uv=False)
    threshold = rank_tol if rank_tol is not None else RANK_TOL_SCALE * (
        float(svals[0]) if svals.size else 0.0
    )
    return int(np.sum(svals > threshold)), svals, threshold


def geometric_multiplicity(
    op: TruncatedOperator, lam: float, rank_tol: float | None = None
) -> int:
    """dim ker(M - lam I) of the truncation via numerically ranked SVD.

    Default threshold is 1e-9 times the spectral norm.  A warning is issued
    when some singular value sits within a factor 10 of the threshold, since
    the rank decision is then borderline.
    """
    a = op.matrix - lam * np.eye(op.size)
    rank, svals, threshold = _numerical_rank(a, rank_tol)
    if threshold > 0 and np.any(
        (svals >= threshold / 10) & (svals <= threshold * 10)
    ):
        warnings.warn(
            f"borderline rank decision for lam={lam}: singular values near "
            f"threshold {threshold:.3e}",
            stacklevel=2,
        )
    return op.size - rank


def jordan_chain_excess(
    op: TruncatedOperator,
    lam: float,
    rank_tol: float | None = None,
    subset: Sequence[Sequence[int]] | None = None,
) -> int:
    """Number of Jordan blocks of size >= 2 at lam: dim ker(A^2) - dim ker(A).

    With ``subset`` the probe runs on the submatrix over those lattice
    indices, which must span an invariant subspace (columns may not leak
    outside; checked exactly).
    """
    a = op.matrix - lam * np.eye(op.size)
    if subset is not None:
        pos = sorted(op.position(n) for n in subset)
        outside = np.setdiff1d(np.arange(op.size), pos)
        if np.any(op.matrix[np.ix_(outside, pos)] != 0):
            raise ValueError("subset does not span an invariant subspace")
        a = a[np.ix_(pos, pos)]
    size = a.shape[0]
    rank1, _, _ = _numerical_rank(a, rank_tol)
    rank2, _, _ = _numerical_rank(a @ a, rank_tol)
    return (size - rank2) - (size - rank1)


def matrix_csv(op: TruncatedOperator) -> str:
    """Dense matrix as CSV, row-major, cells formatted re+imi."""
    buf = io.StringIO()
    for row in op.matrix:
        buf.write(
            ",".join(f"{c.real:.17g}{c.imag:+.17g}i" for c in row)
        )
        buf.write("\n")
    return buf.getvalue()


def interior_cone(
    op: TruncatedOperator, gamma: Sequence[int]
) -> set[IndexVector]:
    """Offsets whose whole chain dependency stays inside the truncation ball.

    An offset is fully determined by the truncation only when every chain of
    potential support steps from the base to it passes exclusively through
    in-ball indices; one out-of-ball predecessor silently zeroes a
    contribution.  Computed by plane-ordered dynamic programming over the
    reachable cone.
    """
    gamma = as_index(gamma, op.basis.dimension)
    if gamma not in op._positions or not op.q.coeffs:
        return {(0,) * op.basis.dimension} if gamma in op._positions else set()
    sig = sign_value(op.sign)
    gamma_plane = sig * gamma[op.k - 1]
    max_plane = max(op.planes) - gamma_plane

    zero = (0,) * op.basis.dimension
    steps = [
        (g1, sig * decompose(g1, op.k)[1]) for g1 in op.q.coeffs
    ]
    # reachable cone by plane, ignoring the ball
    reachable: dict[int, set[IndexVector]] = {0: {zero}}
    for p in range(1, max_plane + 1):
        layer: set[IndexVector] = set()
        for g1, p1 in steps:
            for prev in reachable.get(p - p1, ()):
                layer.add(tuple(a + b for a, b in zip(prev, g1)))
        reachable[p] = layer

    determined: set[IndexVector] = {zero}
    for p in range(1, max_plane + 1):
        for dlt in reachable[p]:
            node = tuple(a + b for a, b in zip(gamma, dlt))
            if node not in op._positions:
                continue
            ok = True
            for g1, p1 in steps:
                prev = tuple(a - b for a, b in zip(dlt, g1))
                if prev == zero:
                    continue
                if prev in reachable.get(p - p1, ()):
                    if prev not in determined:
                        ok = False
                        break
            if ok:
                determined.add(dlt)
    return determined
