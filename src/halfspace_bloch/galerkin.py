"""Truncated plane-wave matrix of the quasiperiodic operator, as an oracle.

In the plane-wave basis the operator has matrix entries
|g + t|^2 [g = g'] + q_{g - g'}.  For a half-space potential and rows
ordered plane-major along the classification axis, every coupling entry
drops strictly toward later rows, so the matrix is strictly lower
triangular off the diagonal.  That makes the truncated spectrum literally
the diagonal, eigenvectors available by forward substitution, and Jordan
structure measurable by numerical rank, all independent of the analytic
coefficient formulas this module is used to verify.

Storage.  Each harmonic q_{g1} fills at most one entry per column, so the
matrix holds at most |supp q| N nonzero entries, against N^2 dense.  The
operator keeps the diagonal M_jj = |g + t|^2 + q_0, the off-diagonal
couplings as (row, col, value) arrays sorted row-major with no zero stored,
and the rows at which each plane block starts.  Nothing builds the N x N
matrix; ``op.matrix`` densifies on demand, for the CSV dump and for tests.
The triangularity witness is the first coupling, in row-major order, whose
row plane is not above its column plane.

Forward substitution by plane.  On a plane-triangular matrix the diagonal
block of a plane is diagonal (no coupling within a plane) and every
coupling into a row comes from a column on an earlier plane.  So once x is
known on the planes before, the right-hand sides of all rows of the next
plane are fixed, and none depends on another row of the same plane: one
scatter-add of value * x[col] over that plane's couplings gives them all,
and one divide by the gaps M_jj - lam gives x there.  This is the row-by-row
substitution with its sums regrouped, so it is exact up to the order of
the floating-point additions.  The rows whose gap is within the diagonal
tolerance are checked per plane, in row order and with the same tolerance,
so a failure is reported at the row the row-by-row loop would stop at.

Rank probes on the plane window.  Group the rows of A = M - lam I by plane.
A is block lower triangular and every diagonal block is itself diagonal,
with the entries M_jj - lam = |g + t|^2 + q_0 - lam (q_0, the constant
harmonic, sits on the diagonal).  Let [p_lo, p_hi] be the planes that hold
a diagonal entry M_jj within ``eigen_eq_tol()`` of lam, the tolerance the
backsolves apply to the same gaps M_jj - lam, and split the planes into
those before, inside and after it:

    A = [[B11, 0, 0], [B21, B22, 0], [B31, B32, B33]].

Planes outside the window add no kernel: every diagonal entry of B11 and
B33 differs from zero by more than the tolerance, so these triangular
blocks are invertible.  If A x = 0, then B11 x1 = 0 gives x1 = 0, then
B22 x2 = 0, and B33 x3 = -B32 x2 fixes x3; conversely every x2 in ker B22
extends this way to exactly one x in ker A.  So x -> x2 is a bijection and
dim ker A = dim ker B22.  A^2 is block lower triangular in the same split
with diagonal blocks B11^2, B22^2, B33^2: its middle one is the sum of
A_2j A_j2 over j, where A_12 = A_23 = 0 leave only B22 B22.  B11^2 and
B33^2 are invertible, so dim ker A^2 = dim ker B22^2.  The argument needs
only the blocks outside the window to be invertible, so widening the window
by further planes is always safe: an entry just inside the tolerance can
never lose kernel.  An explicit absolute rank threshold r widens it to
every gap at or below max(r, sqrt(r)) as well, so that no diagonal entry of
A or of A^2 that the threshold would call zero is left outside.  The lemma holds as well for the submatrix over an
invariant subset of indices, which keeps the plane-major order.  The probes
therefore take their SVDs on B22 alone, and their default threshold scales
with the norm of B22, which does not grow with the cutoff as the norm of A
does.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from . import coeffset
from .errors import NoEigenvectorError, TriangularityError
from .lattice import IndexVector, LatticeBasis, as_index, sign_value
from .potential import FourierPotential
from .spectrum import eigenvalues

#: rank threshold relative to the spectral norm of the probed window block
RANK_TOL_SCALE = 1e-9

#: relative width for treating two diagonal entries as the same eigenvalue
DIAG_EQ_SCALE = 1e-9


@dataclass(frozen=True)
class TruncatedOperator:
    """The operator on a plane-major-ordered index ball, in plane-graded sparse form.

    ``index_set`` is ordered by ascending signed plane index along axis k
    (ties lexicographic), which for sign '+' is ascending plane order; the
    rows/columns follow that order, and ``indices`` holds the same indices
    as an (N, d) int64 array.  The matrix M is stored as its diagonal
    ``matrix_diagonal`` (M_jj = |g + t|^2 + q_0; ``diagonal`` holds the free
    values |g + t|^2) and its off-diagonal couplings ``(rows, cols, values)``,
    sorted row-major with no zero stored.  ``plane_bounds`` lists the first
    row of each plane block, then ``size``.  Immutable after build.
    """

    basis: LatticeBasis
    q: FourierPotential
    t: tuple[float, ...]
    k: int
    sign: str
    index_set: tuple[IndexVector, ...]
    indices: np.ndarray
    diagonal: np.ndarray
    matrix_diagonal: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    planes: tuple[int, ...]
    plane_bounds: np.ndarray
    _positions: dict[IndexVector, int] = field(repr=False)

    @property
    def size(self) -> int:
        return len(self.index_set)

    @property
    def positions(self) -> Mapping[IndexVector, int]:
        """Read-only map from each index tuple in the ball to its row/column."""
        return MappingProxyType(self._positions)

    def position(self, n: Sequence[int]) -> int:
        """Row/column position of a lattice index; KeyError when outside."""
        return self._positions[as_index(n, self.basis.dimension)]

    def eigen_eq_tol(self) -> float:
        """Width within which two diagonal entries M_jj count as equal.

        Scaled by the largest |M_jj| = ||g + t|^2 + q_0|, the entries the
        backsolves and the window probes compare.
        """
        scale = float(np.max(np.abs(self.matrix_diagonal))) if self.size else 0.0
        return DIAG_EQ_SCALE * (1.0 + scale)

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense N x N matrix, built on first use.

        Only :func:`matrix_csv` and tests read it; no algorithm here does.
        """
        dense = np.zeros((self.size, self.size), dtype=complex)
        dense[np.diag_indices(self.size)] = self.matrix_diagonal
        dense[self.rows, self.cols] = self.values
        dense.setflags(write=False)
        return dense

    @cached_property
    def _witness(self) -> tuple[IndexVector, IndexVector] | None:
        # built on first use only: the rank probes never need the scan
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
    # q_{g1} couples column n to row n + g1 wherever n + g1 is in the ball;
    # no two (row, column) pairs repeat
    support, qvals = coeffset.from_mapping(q.coeffs, basis.dimension)
    targets = (support[:, None, :] + indices[None, :, :]).reshape(-1, basis.dimension)
    first, inverse = coeffset.unique_rows(np.concatenate([indices, targets]))
    position = np.full(first.size, -1)
    position[inverse[:size]] = np.arange(size)
    rows = position[inverse[size:]]
    cols = np.tile(np.arange(size), len(qvals))
    vals = np.repeat(qvals, size)
    inside = rows >= 0
    rows, cols, vals = rows[inside], cols[inside], vals[inside]
    # the constant harmonic q_0 lands on the diagonal; every other entry is
    # stored as 0j + q, the value a scatter-add onto a zero matrix would hold
    # (no zero among them: the potential keeps no zero coefficient)
    on_diag = rows == cols
    mdiag = diag.astype(complex)
    mdiag[rows[on_diag]] += vals[on_diag]
    rows, cols, vals = rows[~on_diag], cols[~on_diag], vals[~on_diag] + 0j
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    plane_arr = sig * indices[:, k - 1]
    bounds = np.append(np.flatnonzero(np.diff(plane_arr, prepend=plane_arr[:1] - 1)), size)
    for arr in (indices, diag, mdiag, rows, cols, vals, bounds):
        arr.setflags(write=False)
    return TruncatedOperator(
        basis=basis,
        q=q,
        t=tuple(float(x) for x in t_arr),
        k=k,
        sign=sign,
        index_set=index_set,
        indices=indices,
        diagonal=diag,
        matrix_diagonal=mdiag,
        rows=rows,
        cols=cols,
        values=vals,
        planes=tuple(plane_arr.tolist()),
        plane_bounds=bounds,
        _positions=positions,
    )


def _first_grading_violation(op: TruncatedOperator) -> tuple[IndexVector, IndexVector] | None:
    # The couplings are the nonzero off-diagonal entries in row-major order,
    # so the first one with row plane <= column plane is the first violation.
    planes = np.asarray(op.planes, dtype=int)
    bad = np.flatnonzero(planes[op.rows] <= planes[op.cols])
    if not bad.size:
        return None
    return op.index_set[op.rows[bad[0]]], op.index_set[op.cols[bad[0]]]


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
    return tuple(sorted(op.matrix_diagonal.real.tolist()))


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


def _substitution_start(op: TruncatedOperator, i: int):
    """(x, eq_tol, repeated, divisor) for forward substitution from position i.

    x is 1 at i and 0 elsewhere; ``repeated`` marks the rows whose gap
    M_jj - M_ii is within ``eq_tol``; ``divisor`` is that gap, with 1 on the
    repeated rows, whose entries the callers settle themselves.
    """
    if not 0 <= i < op.size:
        raise IndexError(f"diagonal position {i} out of range")
    x = np.zeros(op.size, dtype=complex)
    x[i] = 1.0
    eq_tol = op.eigen_eq_tol()
    gap = op.matrix_diagonal - op.matrix_diagonal[i]
    repeated = np.abs(gap) <= eq_tol
    return x, eq_tol, repeated, np.where(repeated, 1.0, gap)


def _plane_rhs(op: TruncatedOperator, i: int, x: np.ndarray):
    """Yield ``(s, e, rhs)``, rhs = -(M x) on the rows s .. e-1, for the rows
    after position i, one plane block at a time.

    Every coupling into a block comes from an earlier plane (module
    docstring), so rhs needs only the entries of x the caller has filled in
    before it asks for the next block.
    """
    bounds = op.plane_bounds
    edges = [i + 1, *bounds[np.searchsorted(bounds, i, side="right") :].tolist()]
    cuts = np.searchsorted(op.rows, edges).tolist()
    for s, e, lo, hi in zip(edges, edges[1:], cuts, cuts[1:]):
        if s < e:
            local = op.rows[lo:hi] - s
            terms = op.values[lo:hi] * x[op.cols[lo:hi]]
            yield s, e, -coeffset.join(
                np.bincount(local, terms.real, e - s), np.bincount(local, terms.imag, e - s)
            )


def eigenvector_backsolve(op: TruncatedOperator, i: int) -> BacksolveResult:
    """Solve (M - lam I) x = 0 with x = 1 at diagonal position i, zeros before.

    lam is the diagonal entry M_ii = |g + t|^2 + q_0, constant harmonic included.

    Rows after i with the same diagonal value are consistency checks: a
    nonzero accumulated right-hand side there means no eigenvector has this
    leading term (:class:`NoEigenvectorError`, at the first such row); a
    zero one leaves the entry free and it is pinned to 0 (position flagged).
    """
    _require_triangular(op, "back substitution")
    x, eq_tol, repeated, divisor = _substitution_start(op, i)
    flagged: list[int] = []
    for s, e, rhs in _plane_rhs(op, i, x):
        x[s:e] = rhs / divisor[s:e]
        if repeated[s:e].any():
            rows = s + np.flatnonzero(repeated[s:e])
            blocked = rows[np.abs(rhs[rows - s]) > eq_tol]
            if blocked.size:
                j = int(blocked[0])
                raise NoEigenvectorError(
                    f"no eigenvector with leading term {op.index_set[i]}: row "
                    f"{op.index_set[j]} accumulates {rhs[j - s]!r}",
                    position=j,
                    residual=complex(rhs[j - s]),
                )
            x[rows] = 0
            flagged.extend(rows.tolist())
    return BacksolveResult(vector=x, leading=i, flagged=tuple(flagged))


def first_associated_backsolve(
    op: TruncatedOperator, i: int, eigvec: np.ndarray
) -> tuple[BacksolveResult, complex]:
    """Solve (M - lam I) x = c * eigvec with x = 1 at position i; returns (x, c).

    lam is the diagonal entry M_ii, as in :func:`eigenvector_backsolve`.

    The scalar c is fixed at the first repeated-diagonal row where the
    eigenvector has a nonzero entry, and enters the rows after that one;
    later repeated rows must agree within the diagonal tolerance or
    :class:`NoEigenvectorError` is raised.  Like
    :func:`eigenvector_backsolve`, it requires the plane-triangular structure.
    """
    _require_triangular(op, "back substitution")
    x, eq_tol, repeated, divisor = _substitution_start(op, i)
    eigvec = np.asarray(eigvec)
    c: complex | None = None
    fixed_at = op.size  # c enters the rows after this one
    flagged: list[int] = []
    for s, e, rhs in _plane_rhs(op, i, x):
        for j in (s + np.flatnonzero(repeated[s:e])).tolist():
            rhs_j, eig_j = rhs[j - s], eigvec[j]
            if abs(eig_j) > eq_tol:
                if c is None:
                    c, fixed_at = complex(-rhs_j / eig_j), j
                elif abs(-rhs_j - c * eig_j) > eq_tol * (1 + abs(c)):
                    raise NoEigenvectorError(
                        f"inconsistent chain condition at row {op.index_set[j]}",
                        position=j,
                        residual=complex(rhs_j),
                    )
            elif abs(rhs_j) > eq_tol:
                raise NoEigenvectorError(
                    f"chain blocked at row {op.index_set[j]} with residual {rhs_j!r}",
                    position=j,
                    residual=complex(rhs_j),
                )
            flagged.append(j)
        if c is not None:
            rhs = np.where(np.arange(s, e) > fixed_at, rhs + c * eigvec[s:e], rhs)
        x[s:e] = np.where(repeated[s:e], 0, rhs / divisor[s:e])
    return BacksolveResult(vector=x, leading=i, flagged=tuple(flagged)), (
        0j if c is None else c
    )


def _numerical_rank(mat: np.ndarray, rank_tol: float | None) -> tuple[int, np.ndarray, float]:
    svals = np.linalg.svd(mat, compute_uv=False)
    threshold = rank_tol if rank_tol is not None else RANK_TOL_SCALE * (
        float(svals[0]) if svals.size else 0.0
    )
    return int(np.sum(svals > threshold)), svals, threshold


def _window_block(
    op: TruncatedOperator,
    lam: float,
    positions: Sequence[int] | None = None,
    rank_tol: float | None = None,
) -> np.ndarray:
    """The window block B22 of M - lam I: rows and columns on the planes
    p_lo .. p_hi that hold a diagonal entry of M near lam.

    Near means a gap |M_jj - lam| within ``op.eigen_eq_tol()``, or, with an
    explicit ``rank_tol``, within ``max(rank_tol, sqrt(rank_tol))`` when that
    is larger (module docstring).
    ``positions`` (ascending) restricts everything to a subset, whose order
    the block keeps; the block is 0 x 0 when no diagonal entry is near lam.
    """
    pos = np.arange(op.size) if positions is None else np.asarray(positions, dtype=int)
    planes = np.asarray(op.planes, dtype=int)[pos]
    tol = op.eigen_eq_tol()
    if rank_tol is not None:
        tol = max(tol, rank_tol, float(np.sqrt(rank_tol)))
    near = np.abs(op.matrix_diagonal[pos] - lam) <= tol
    if near.any():
        p_lo, p_hi = planes[near].min(), planes[near].max()
        pos = pos[(planes >= p_lo) & (planes <= p_hi)]
    else:
        pos = pos[:0]
    return _dense_block(op, pos) - lam * np.eye(pos.size)


def _dense_block(op: TruncatedOperator, pos: np.ndarray) -> np.ndarray:
    """``op.matrix[np.ix_(pos, pos)]`` for ascending positions, from the stored entries."""
    block = np.zeros((pos.size, pos.size), dtype=complex)
    if not pos.size:
        return block
    block[np.diag_indices(pos.size)] = op.matrix_diagonal[pos]
    local = np.full(op.size, -1)
    local[pos] = np.arange(pos.size)
    lo, hi = np.searchsorted(op.rows, (pos[0], pos[-1] + 1))
    rows, cols = local[op.rows[lo:hi]], local[op.cols[lo:hi]]
    inside = (rows >= 0) & (cols >= 0)
    block[rows[inside], cols[inside]] = op.values[lo:hi][inside]
    return block


def geometric_multiplicity(
    op: TruncatedOperator, lam: float, rank_tol: float | None = None
) -> int:
    """dim ker(M - lam I) of the truncation, as dim ker of its window block B22.

    The block is ranked by SVD (see the module docstring for why the window
    suffices).  The default threshold is ``RANK_TOL_SCALE`` (1e-9) times the
    largest singular value of the window block, which does not grow with the
    cutoff.  An explicit ``rank_tol`` is an absolute threshold; it ranks the
    window block, which then also takes in every plane with a diagonal gap
    at or below ``max(rank_tol, sqrt(rank_tol))``.  A warning is issued when some singular value
    of the block sits within a factor 10 of the threshold, since the rank
    decision is then borderline.  Requires the plane-triangular structure
    (:class:`TriangularityError` otherwise).
    """
    _require_triangular(op, "the rank probe")
    block = _window_block(op, lam, rank_tol=rank_tol)
    rank, svals, threshold = _numerical_rank(block, rank_tol)
    if threshold > 0 and np.any(
        (svals >= threshold / 10) & (svals <= threshold * 10)
    ):
        warnings.warn(
            f"borderline rank decision for lam={lam}: singular values near "
            f"threshold {threshold:.3e}",
            stacklevel=2,
        )
    return block.shape[0] - rank


def jordan_chain_excess(
    op: TruncatedOperator,
    lam: float,
    rank_tol: float | None = None,
    subset: Sequence[Sequence[int]] | None = None,
) -> int:
    """Number of Jordan blocks of size >= 2 at lam: dim ker(A^2) - dim ker(A).

    Both kernels are taken on the window block B22 and its square, which is
    the window block of A^2 (module docstring).  With ``subset`` the probe
    runs on the submatrix over those lattice indices, which must span an
    invariant subspace (columns may not leak outside; checked exactly).
    Requires the plane-triangular structure (:class:`TriangularityError`
    otherwise); rank thresholds as in :func:`geometric_multiplicity`.
    """
    _require_triangular(op, "the Jordan probe")
    pos = None
    if subset is not None:
        pos = sorted(op.position(n) for n in subset)
        member = np.zeros(op.size, dtype=bool)
        member[pos] = True
        # no stored coupling may run from a column in the subset to a row outside it
        if np.any(member[op.cols] & ~member[op.rows]):
            raise ValueError("subset does not span an invariant subspace")
    a = _window_block(op, lam, pos, rank_tol)
    rank1, _, _ = _numerical_rank(a, rank_tol)
    rank2, _, _ = _numerical_rank(a @ a, rank_tol)
    return rank1 - rank2


def matrix_csv(op: TruncatedOperator) -> str:
    """Dense matrix as CSV, row-major, cells formatted re+imi.

    One ``%``-template formats a row from its interleaved real and imaginary
    parts; ``"%.17g%+.17gi"`` is the cell ``f"{c.real:.17g}{c.imag:+.17g}i"``.
    """
    row = ",".join(["%.17g%+.17gi"] * op.size) + "\n"
    parts = op.matrix.view(float).reshape(op.size, 2 * op.size)
    return "".join([row % tuple(r.tolist()) for r in parts])


def interior_cone(
    op: TruncatedOperator, gamma: Sequence[int]
) -> set[IndexVector]:
    """Offsets whose whole chain dependency stays inside the truncation ball.

    An offset is fully determined by the truncation only when every chain of
    potential support steps from the base to it passes exclusively through
    in-ball indices; one out-of-ball predecessor silently zeroes a
    contribution.

    Dynamic programming by plane.  Every step g1 rises by p1 = sign * g1_k >= 1
    planes, so an offset on plane p of the reachable cone (the sums of steps,
    ignoring the ball) has its predecessors delta - g1 on the planes p - p1 < p.
    Call a reachable offset *blocked* when it is outside the ball
    (gamma + delta not an index of the operator) or has a blocked reachable
    predecessor; the origin, in the ball and without predecessors, is not.
    The cone is the set of unblocked offsets.  It is the set the recursion

        determined(delta) = delta in ball and determined(delta - g1) for
                            every step whose delta - g1 is reachable

    builds (the origin determined), because by induction on the plane,
    determined(delta) = not blocked(delta) for every reachable delta.
    Outside the ball delta is blocked and not determined.  Inside it, both
    read the same reachable predecessors, on earlier planes, where the two
    already agree: delta is determined exactly when none of them is blocked.
    Unwinding the recursion, an offset is blocked exactly when some chain to
    it leaves the ball, the property stated above.

    Packed keys.  Every reachable offset up to the top plane P of the ball
    (counted from gamma) is a sum of at most P steps, so it lies in the box
    P * min(0, g1_j) <= delta_j <= P * max(0, g1_j) over the steps, per axis.
    :func:`coeffset.pack` gives each offset in the box one key, linear and
    one-to-one there (int64, or exact Python ints when the box is too wide
    for int64).  Linearity makes the shift of a whole layer by a step one
    integer add.  Per plane p the layers p - p1, each shifted by its step,
    are concatenated, sorted and stripped of repeats.  A key is blocked when
    ``np.searchsorted`` does not find it among the sorted keys of the ball's
    offsets inside the box, or when it is the shift of a blocked key of a
    layer below: each layer keeps its blocked keys beside its keys, so the
    flag travels from the predecessors by the same shifts and one more
    ``np.searchsorted``.  The unblocked keys of each plane are its part of
    the cone.  Work and memory follow the reachable set, at most two keys per
    reachable offset, never the box.

    Raises ``ValueError`` for a potential outside class S, where steps need
    not rise and the planes give no order.
    """
    gamma = as_index(gamma, op.basis.dimension)
    if gamma not in op._positions or not op.q.coeffs:
        return {(0,) * op.basis.dimension} if gamma in op._positions else set()
    if op.q.classification is None:
        raise ValueError("the interior cone needs a potential in class S")
    sig = sign_value(op.sign)
    top = max(op.planes) - sig * gamma[op.k - 1]
    steps = np.array(list(op.q.coeffs), dtype=np.int64)
    lo = [top * min(0, v) for v in steps.min(axis=0).tolist()]
    hi = [top * max(0, v) for v in steps.max(axis=0).tolist()]
    spans = [h - m + 1 for m, h in zip(lo, hi)]

    # the ball's offsets inside the box, in key order
    offsets = op.indices - np.array(gamma, dtype=np.int64)
    offsets = offsets[np.all((offsets >= lo) & (offsets <= hi), axis=1)]
    ball = coeffset.pack(offsets, lo, spans)
    order = np.argsort(ball, kind="stable")
    offsets, ball = offsets[order], ball[order]

    keys = coeffset.pack(np.vstack([np.zeros_like(steps[:1]), steps]), lo, spans)
    origin, shifts = keys[:1], (keys[1:] - keys[0]).tolist()
    rises = (sig * steps[:, op.k - 1]).tolist()
    # per plane: its reachable keys, sorted, and those of them that are blocked
    empty = (origin[:0], origin[:0])
    layers = {0: (origin, origin[:0])}
    found = [np.searchsorted(ball, origin)]
    padded = np.append(ball, -1)  # no key in the box is negative: a miss reads -1
    for p in range(1, top + 1):
        below = [(layers.get(p - rise, empty), shift) for shift, rise in zip(shifts, rises)]
        # a stable argsort, the kernel coeffset.unique_rows runs already: the
        # sort kernels each map a few hundred kB of code into the process
        keys = np.concatenate([reached + shift for (reached, _), shift in below])
        keys = keys[np.argsort(keys, kind="stable")]
        distinct = np.ones(keys.size, dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=distinct[1:])
        keys = keys[distinct]
        at = np.searchsorted(ball, keys)
        unblocked = padded[at] == keys
        inherited = [stuck + shift for (_, stuck), shift in below if stuck.size]
        if inherited:
            unblocked[np.searchsorted(keys, np.concatenate(inherited))] = False
        layers[p] = keys, keys[~unblocked]
        found.append(at[unblocked])
    return set(zip(*offsets[np.concatenate(found)].T.tolist()))
