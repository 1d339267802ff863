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

Finding rows.  The ball stays an (N, d) int64 array from
``enumerate_ball`` to the operator: one stable argsort of the signed plane
index puts the lex-ordered ball in plane-major order, ties lexicographic.
Its rows get :func:`coeffset.pack` keys over the ball's box grown by one
negated step -g1 of every harmonic that fits that box (``coeffset.sum_box``
of the steps -g1 with the box's two corners as base).  A harmonic as long
as the ball's box on some axis links no two rows and is dropped first, so
every step left is shorter than the ball's box on every axis, and the
grown box spans less than three times the ball's box on each: it holds at
most 3^d times the points of the box ``enumerate_ball`` scans.  A
:class:`coeffset.RowTable`, one entry per point of the grown box, holds
the row of each key and -1 elsewhere.  The search runs backward: row n
takes q_{g1} from column n - g1, which lies in the grown box, so its key
is key(n) + shift(-g1), with no wrap and no alias.  One broadcast add of
the shifts to the plane-major keys and one gather from the table then
find every coupling, with no search.  The harmonics are taken in one
fixed order, descending rise and then ascending lex order of -g1.  Column
n - g1 lies on plane p(n) - rise(g1), and within a plane the rows are in
lex order, which n -> n - g1 keeps; so in every row the hits ascend by
column, and with the rows outer and the steps inner the couplings come
out row-major without sorting them.  The table stays on the operator as
its one lookup, for :meth:`TruncatedOperator.find`, ``position``, the
probes' subsets and the interior cone; an operator made by
``dataclasses.replace`` builds its own table over the box of its indices
and the origin.  The Python tuples of ``index_set`` are built on first use.
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
never lose kernel.  The lemma holds as well for the submatrix over an
invariant subset of indices, which keeps the plane-major order.

Rank probes on the core.  The same argument cuts finer than planes.  Read
each stored coupling A_rc as a step c -> r, and call the rows with a gap
within the tolerance near.  Let U be the rows no path of steps reaches from
a near row, L the rows reached from one that reach none, and C, the core,
the rest: the rows on a path from a near row to a near row, the near rows
included.  No step leaves C or L for U (its end would be reached), and none
leaves L for C (its start would reach a near row through it), so in the
order U, C, L, each kept plane-major inside,

    A = [[A_UU, 0, 0], [A_CU, A_CC, 0], [A_LU, A_LC, A_LL]].

U and L hold no near row, so A_UU and A_LL are triangular with every
diagonal entry beyond the tolerance, and the lemma gives dim ker A =
dim ker A_CC and dim ker A^2 = dim ker A_CC^2.  The plane window is the
special case where U and L are whole planes.  Every step climbs a plane,
so a path from a near row to a near row stays in the window and takes at
most p_hi - p_lo steps: two boolean propagations over the window's
couplings, forward from the near rows and backward to them, that many
rounds each, find C.  The probes take their SVDs on A_CC alone (a few rows
where the window holds tens to hundreds).

One rank rule.  Both probes rank the core block A = A_CC against one
threshold, RANK_TOL_SCALE max(sigma_max(A), 1 + |lam|).  It does not grow
with the cutoff: every core row is at most p_hi - p_lo steps from a near
row, so the core stays bounded as the cutoff grows.  The window's norm does
not grow in 1-D either, but in 2-D and 3-D its planes span the whole ball
and its norm grows like cutoff^2, which put a window threshold above true
singular values at the default radii.  The floor 1 + |lam| is the scale of
a gap's roundoff: a core of colliding rows with no coupling between them is
diagonal, with gaps at roundoff, and its own norm would call them nonzero.

Deflation.  A^2 x = 0 says exactly that A x lies in ker A, so with K an
orthonormal basis of ker A (the right singular vectors of A's one SVD
below the threshold), ker A^2 = ker((I - K K^H) A).  That matrix has A's
size and is A less K K^H A, of rank k = dim ker A: its i-th singular value
is at most A's i-th and at least A's (i + k)-th.  So ranked against A's
threshold, 0 <= dim ker A^2 - k <= k, as in every Jordan form.  Ranking
A^2 itself squares the small singular values and sets its threshold from
sigma_max(A)^2: on a weakly coupled group of four planes it read twice as
many chains as there are eigenvectors.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from . import coeffset
from .errors import NoEigenvectorError, TriangularityError
from .lattice import IndexVector, LatticeBasis, as_index, sign_value
from .potential import FourierPotential
from .spectrum import eigenvalues

#: rank threshold relative to max(spectral norm of the core block, 1 + |lam|)
RANK_TOL_SCALE = 1e-9

#: relative width for treating two diagonal entries as the same eigenvalue
DIAG_EQ_SCALE = 1e-9


@dataclass(frozen=True)
class TruncatedOperator:
    """The operator on a plane-major-ordered index ball, in plane-graded sparse form.

    ``indices``, an (N, d) int64 array, is ordered by ascending signed plane
    index along axis k (ties lexicographic), which for sign '+' is ascending
    plane order; the rows/columns follow that order, and ``index_set``
    holds the same indices as Python int tuples.  The matrix M is stored as its diagonal
    ``matrix_diagonal`` (M_jj = |g + t|^2 + q_0; ``diagonal`` holds the free
    values |g + t|^2) and its off-diagonal couplings ``(rows, cols, values)``,
    sorted row-major with no zero stored.  ``planes`` holds the signed plane
    index of each row, int64, and ``plane_bounds`` the first row of each
    plane block, then ``size``.  :meth:`find` and
    :meth:`position` read the dense row table ``build`` found the
    couplings with.  Immutable after build.
    """

    basis: LatticeBasis
    q: FourierPotential
    t: tuple[float, ...]
    k: int
    sign: str
    indices: np.ndarray
    diagonal: np.ndarray
    matrix_diagonal: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    planes: np.ndarray
    plane_bounds: np.ndarray

    @property
    def size(self) -> int:
        return len(self.indices)

    @cached_property
    def index_set(self) -> tuple[IndexVector, ...]:
        """The rows of ``indices`` as Python int tuples, built on first use."""
        return tuple(map(tuple, self.indices.tolist()))

    def find(self, indices) -> np.ndarray:
        """The row of each lattice index, the rows of an (m, d) integer-valued
        array (or a list of index tuples); -1 where the index is outside the ball."""
        return self._lookup.find(np.asarray(indices))

    def position(self, n: Sequence[int]) -> int:
        """Row/column position of a lattice index; KeyError when outside."""
        index = as_index(n, self.basis.dimension)
        row = self._lookup.row(index)
        if row < 0:
            raise KeyError(index)
        return row

    def eigen_eq_tol(self) -> float:
        """Width within which two diagonal entries M_jj count as equal.

        Scaled by the largest |M_jj| = ||g + t|^2 + q_0|, the entries the
        backsolves and the window probes compare.
        """
        scale = float(np.abs(self.matrix_diagonal).max()) if self.size else 0.0
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
    def _lookup(self) -> coeffset.RowTable:
        # ``build`` fills this cache with the table it found the couplings
        # with; an operator made by ``dataclasses.replace`` starts without it
        # and builds one over the box of its own ``indices`` and the origin,
        # never a stale one
        lo, spans, keys, _ = coeffset.sum_box(self.indices[:0], 0, base=self.indices)
        return coeffset.RowTable(lo, spans, keys, np.arange(self.size))

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
    # plane-major: a stable sort of the lex-ordered ball keeps ties lexicographic
    order = (sig * ball[:, k - 1]).argsort(kind="stable")
    indices = ball[order]
    size = len(indices)
    diag = eigenvalues(basis, indices, t_arr)
    # q_{g1} couples column n - g1 to row n wherever n - g1 is in the ball;
    # no two (row, column) pairs repeat.  A harmonic as long as the ball's
    # box on some axis reaches no row, and is dropped before any sum can wrap.
    support, qvals = coeffset.from_mapping(q.coeffs, basis.dimension)
    # column by column: numpy reduces the short rows of an (N, d) array slowly
    corners = np.array([[col.min(initial=0), col.max(initial=0)] for col in ball.T]).T
    span = corners[1] - corners[0] + 1
    fits = ((support > -span) & (support < span)).all(axis=1)
    support, qvals = support[fits], qvals[fits]
    # the constant harmonic q_0 lands on the diagonal; every other entry is
    # stored as 0j + q, the value a scatter-add onto a zero matrix would hold
    # (no zero among them: the potential keeps no zero coefficient)
    zero = ~support.any(axis=1)
    mdiag = diag.astype(complex)
    if zero.any():
        mdiag += qvals[zero][0]
    # column n - g1 lies on plane p(n) - rise(g1), and a plane's rows are in
    # lex order: with the steps -g1 by ascending rise, then lex order, every
    # row's hits come out in ascending column order
    steps, qvals = -support[~zero], qvals[~zero]
    by_col = np.lexsort((*steps.T[::-1], sig * steps[:, k - 1]))
    steps, qvals = steps[by_col], qvals[by_col]
    # at most 3^d times the box enumerate_ball scanned: a fitting step is
    # shorter than the ball's box on every axis
    lo, spans, _, shifts = coeffset.sum_box(steps, 1, base=corners)
    keys = coeffset.pack(indices, lo, spans)
    lookup = coeffset.RowTable(lo, spans, keys, np.arange(size))
    # rows in plane-major order outer, steps inner: the couplings come out row-major
    found = lookup.table[keys[:, None] + shifts].ravel()
    hit = (found >= 0).nonzero()[0]
    rows, harmonic = np.divmod(hit, len(steps))
    cols, vals = found[hit], qvals[harmonic] + 0j
    plane_arr = sig * indices[:, k - 1]
    bounds = _plane_bounds(plane_arr)
    for arr in (indices, diag, mdiag, rows, cols, vals, plane_arr, bounds):
        arr.setflags(write=False)
    op = TruncatedOperator(
        basis=basis,
        q=q,
        t=tuple(float(x) for x in t_arr),
        k=k,
        sign=sign,
        indices=indices,
        diagonal=diag,
        matrix_diagonal=mdiag,
        rows=rows,
        cols=cols,
        values=vals,
        planes=plane_arr,
        plane_bounds=bounds,
    )
    op.__dict__["_lookup"] = lookup
    return op


def _plane_bounds(planes: np.ndarray) -> np.ndarray:
    """The first row of each run of equal entries of ``planes``, then its length."""
    starts = np.empty(len(planes), dtype=bool)
    starts[:1] = True
    np.not_equal(planes[1:], planes[:-1], out=starts[1:])
    return np.concatenate((starts.nonzero()[0], [len(planes)]))


def _first_grading_violation(op: TruncatedOperator) -> tuple[IndexVector, IndexVector] | None:
    # The couplings are the nonzero off-diagonal entries in row-major order,
    # so the first one with row plane <= column plane is the first violation.
    bad = (op.planes[op.rows] <= op.planes[op.cols]).nonzero()[0]
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
    return tuple(np.sort(op.matrix_diagonal.real, kind="stable").tolist())


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
    bounds, rows, cols, values = op.plane_bounds, op.rows, op.cols, op.values
    edges = [i + 1, *bounds[bounds.searchsorted(i, side="right") :].tolist()]
    cuts = rows.searchsorted(edges).tolist()
    for s, e, lo, hi in zip(edges, edges[1:], cuts, cuts[1:]):
        if s < e:
            local = rows[lo:hi] - s
            terms = values[lo:hi] * x[cols[lo:hi]]
            rhs = coeffset.join(
                np.bincount(local, terms.real, e - s), np.bincount(local, terms.imag, e - s)
            )
            yield s, e, np.negative(rhs, out=rhs)


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
            rows = s + repeated[s:e].nonzero()[0]
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
        for j in (s + repeated[s:e].nonzero()[0]).tolist():
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


def _kernel_dims(a: np.ndarray, lam: complex, powers: int) -> tuple[list[int], np.ndarray, float]:
    """([dim ker A, dim ker A^2][:powers], the singular values of A, the threshold).

    The one rank rule of both probes (module docstring): every decision is
    on an A-sized matrix against A's threshold, and ker A^2 is
    ker((I - K K^H) A), K the right null vectors of A's SVD.
    """
    if powers == 1:
        svals = np.linalg.svd(a, compute_uv=False)
    else:
        _, svals, vh = np.linalg.svd(a)
    threshold = RANK_TOL_SCALE * max(svals.max(initial=0.0), 1.0 + abs(lam))
    dims = [int((svals <= threshold).sum())]
    if powers > 1:
        null = vh[a.shape[0] - dims[0] :].conj().T
        deflated = a - null @ (null.conj().T @ a)
        dims.append(int((np.linalg.svd(deflated, compute_uv=False) <= threshold).sum()))
    return dims, svals, threshold


def _core_block(
    op: TruncatedOperator, lam: complex, positions: Sequence[int] | None = None
) -> np.ndarray:
    """The core block of M - lam I: rows and columns that a stored coupling
    path links from a row whose diagonal entry is near lam, and to one.

    Near means a gap |M_jj - lam| within ``op.eigen_eq_tol()``; the near
    rows belong to the core (module docstring).
    ``positions`` (ascending) restricts everything to a subset, whose order
    the block keeps; the block is 0 x 0 when no diagonal entry is near lam.
    """
    pos = np.arange(op.size) if positions is None else np.asarray(positions, dtype=int)
    near = (np.abs(op.matrix_diagonal[pos] - lam) <= op.eigen_eq_tol()).nonzero()[0]
    if not near.size:
        return np.zeros((0, 0), dtype=complex)
    # the window: the rows of pos on the plane blocks first .. last of the near rows
    bounds = op.plane_bounds
    first, last = (bounds.searchsorted(pos[near[[0, -1]]], side="right") - 1).tolist()
    lo, hi = pos.searchsorted(bounds[[first, last + 1]])
    window = pos[lo:hi]
    local = np.empty(op.size, dtype=np.intp)
    local.fill(-1)
    local[window] = np.arange(window.size)
    start, stop = op.rows.searchsorted((window[0], window[-1] + 1))
    rows, cols = local[op.rows[start:stop]], local[op.cols[start:stop]]
    inside = (rows >= 0) & (cols >= 0)
    rows, cols, values = rows[inside], cols[inside], op.values[start:stop][inside]
    # every coupling climbs a plane block, so no path in the window is longer
    # than last - first couplings
    reached = np.zeros(window.size, dtype=bool)
    reached[near - lo] = True
    reaches = reached.copy()
    for _ in range(last - first):
        reached[rows[reached[cols]]] = True
        reaches[cols[reaches[rows]]] = True
    core = reached & reaches
    local = core.cumsum() - 1
    size = int(local[-1]) + 1
    inside = core[rows] & core[cols]
    block = np.zeros((size, size), dtype=complex)
    block.reshape(-1)[:: size + 1] = op.matrix_diagonal[window[core]] - lam
    block[local[rows[inside]], local[cols[inside]]] = values[inside]
    return block


def geometric_multiplicity(op: TruncatedOperator, lam: float) -> int:
    """dim ker(M - lam I) of the truncation, as dim ker of its core block A_CC.

    The block is ranked by SVD (see the module docstring for why the core
    suffices).  The threshold is ``RANK_TOL_SCALE`` (1e-9) times the larger
    of the core block's largest singular value and 1 + |lam|; neither grows
    with the cutoff.  A warning is issued when some singular value of the
    block sits within a factor 10 of the threshold, since the rank decision
    is then borderline.
    Requires the plane-triangular structure (:class:`TriangularityError`
    otherwise).
    """
    _require_triangular(op, "the rank probe")
    (mult,), svals, threshold = _kernel_dims(_core_block(op, lam), lam, 1)
    if ((svals >= threshold / 10) & (svals <= threshold * 10)).any():
        warnings.warn(
            f"borderline rank decision for lam={lam}: singular values near "
            f"threshold {threshold:.3e}",
            stacklevel=2,
        )
    return mult


def _subset_rows(op: TruncatedOperator, subset) -> np.ndarray:
    """The row of each lattice index in ``subset``, found in one lookup.

    The errors are :meth:`TruncatedOperator.position`'s, for the first member
    at fault: ``ValueError`` for a non-integer member or a wrong length,
    ``KeyError`` for a member outside the ball.
    """
    d = op.basis.dimension
    members = np.asarray(subset)
    if members.size == 0:
        return np.zeros(0, dtype=np.intp)
    if members.ndim != 2 or members.shape[1] != d:
        raise ValueError(f"subset members must be indices of length {d}, got shape {members.shape}")
    integral = np.empty(members.shape[0], dtype=bool)
    integral.fill(True)
    if members.dtype.kind not in "biu":
        try:
            with np.errstate(invalid="ignore"):  # inf % 1 is nan: non-integer
                integral = (members % 1 == 0).all(axis=1)
        except TypeError:  # strings and other non-numbers
            integral[:] = False
    rows = np.empty(members.shape[0], dtype=np.intp)
    rows.fill(-1)
    rows[integral] = op.find(members[integral])
    bad = (rows < 0).nonzero()[0]
    if bad.size:
        n = members[bad[0]].tolist()
        if not integral[bad[0]]:
            raise ValueError(f"non-integer lattice index {tuple(n)!r}")
        # the member as given: numpy turns a list holding an int beyond int64
        # into floats, which would round it
        raise KeyError(tuple(int(x) for x in subset[bad[0]]))
    return rows


def jordan_chain_excess(
    op: TruncatedOperator, lam: float, subset: Sequence[Sequence[int]] | np.ndarray | None = None
) -> int:
    """Number of Jordan blocks of size >= 2 at lam: dim ker(A^2) - dim ker(A).

    Both kernels are taken on the core block A = A_CC, ker A^2 as
    ker((I - K K^H) A) with K an orthonormal basis of ker A, so the chains
    never outnumber the eigenvectors (module docstring).  With ``subset``
    (index tuples, or the rows of an (m, d) integer array) the probe runs on the
    submatrix over those lattice indices, which must span an invariant
    subspace (columns may not leak outside; checked exactly).  The members
    are found as by :meth:`TruncatedOperator.position`, with its errors; a
    member listed twice counts once.
    Requires the plane-triangular structure (:class:`TriangularityError`
    otherwise); both ranks against the threshold of
    :func:`geometric_multiplicity`, without its borderline warning.
    """
    _require_triangular(op, "the Jordan probe")
    pos = None
    if subset is not None:
        member = np.zeros(op.size, dtype=bool)
        member[_subset_rows(op, subset)] = True
        pos = member.nonzero()[0]
        # no stored coupling may run from a column in the subset to a row outside it
        if (member[op.cols] & ~member[op.rows]).any():
            raise ValueError("subset does not span an invariant subspace")
    (kernel, square), _, _ = _kernel_dims(_core_block(op, lam, pos), lam, 2)
    return square - kernel


def matrix_csv(op: TruncatedOperator) -> str:
    """Dense matrix as CSV, row-major, cells formatted re+imi.

    One ``%``-template formats a row from its interleaved real and imaginary
    parts; ``"%.17g%+.17gi"`` is the cell ``f"{c.real:.17g}{c.imag:+.17g}i"``.
    """
    row = ",".join(["%.17g%+.17gi"] * op.size) + "\n"
    parts = op.matrix.view(float).reshape(op.size, 2 * op.size)
    return "".join([row % tuple(r.tolist()) for r in parts])


def interior_cone(op: TruncatedOperator, gamma: Sequence[int]) -> np.ndarray:
    """Offsets whose whole chain dependency stays inside the truncation ball.

    Returns the (m, d) int64 array of the offsets delta, in plane-major
    order (ascending plane counted from gamma, lexicographic within a
    plane), the origin first; it is empty when gamma is outside the ball.

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
    it leaves the ball, the property stated above.  In particular every
    reachable predecessor of a cone offset is in the cone.

    The plan.  The reachable offsets and their (target, predecessor) pairs
    are the closed form's :func:`coeffset.plan`, the same cached one the
    closed form of the instance reads, plane-major.  An offset is blocked
    when gamma + delta is not a row of the operator (a sum that wraps in
    int64 lands far outside the ball, as the true one does), or when a pair
    brings it a blocked predecessor; the pairs into a plane come from
    earlier planes, so one pass over the planes settles them in order.

    The plan leaves out the sums beyond int64 and every pair that touches
    one, yet they decide no ball offset.  Fewer pairs never block more.  A
    chain that leaves the ball still blocks its end in the plan: without a
    sum beyond int64 it lies in the plan.  Otherwise take its last such
    sum; the sum after it is in int64 and either outside the ball, and the
    rest of the chain, in int64, blocks the end, or a ball offset on a
    lower plane with such a chain, blocked by induction on the plane.

    Raises ``ValueError`` for a potential outside class S, where steps need
    not rise and the planes give no order.
    """
    gamma = as_index(gamma, op.basis.dimension)
    try:
        op.position(gamma)
    except KeyError:
        return np.zeros((0, op.basis.dimension), dtype=np.int64)
    if op.q.classification is None:
        raise ValueError("the interior cone needs a potential in class S")
    plan = op.q.plan(int(op.planes.max()) - sign_value(op.sign) * gamma[op.k - 1])
    blocked = op.find(plan.offsets + np.array(gamma, dtype=np.int64)) < 0
    for p in range(1, len(plan.bounds) - 1):
        lo, hi = plan.cuts[p], plan.cuts[p + 1]
        blocked[plan.targets[lo:hi][blocked[plan.predecessors[lo:hi]]]] = True
    return plan.offsets[~blocked]
