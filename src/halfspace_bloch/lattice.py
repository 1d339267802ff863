"""Integer-index model of a reciprocal lattice and its half-space grading.

A lattice point is always an integer coefficient tuple with respect to a
fixed generator set, so membership in half-lattices and planes is exact
integer arithmetic; real coordinates enter only through norms.  For a
generator set v_1..v_d the axis-k grading splits the lattice into planes of
constant k-th coefficient p; the component h_k of v_k orthogonal to the
span of the other generators separates consecutive planes by c(k) = |h_k|,
which is the constant behind the sum estimate |g_1+...+g_s| >= c(k)*s for
points g_j in the open half-lattice.

Both come from the dual vectors w_k, the columns of the inverse of the
generator matrix: v_j . w_k is 1 for j = k and 0 otherwise.  So w_k is
orthogonal to every other generator, and h_k, the part of v_k in the line
of w_k, is (v_k . w_k) w_k / |w_k|^2 = w_k / |w_k|^2, of length
c(k) = 1 / |w_k|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import DegenerateBasisError

IndexVector = tuple[int, ...]

#: relative smallest-singular-value threshold below which a generator set
#: is declared degenerate
CONDITION_TOL = 1e-12

#: slack added to integer bounding boxes so float rounding can only add
#: candidates, never lose them
_BOX_PAD = 1e-9

#: a box bound below this in magnitude is finite and within int64, padding
#: and rounding included
_BOX_LIMIT = 2.0**63

#: u, the largest relative rounding error of one float operation
_UNIT_ROUNDOFF = np.finfo(float).eps / 2


def as_index(n: Sequence[int], dimension: int | None = None) -> IndexVector:
    """Coerce to a canonical integer index tuple."""
    idx = tuple(int(x) for x in n)
    if any(x != v for x, v in zip(idx, n)):
        raise ValueError(f"non-integer lattice index {n!r}")
    if dimension is not None and len(idx) != dimension:
        raise ValueError(f"index {n!r} has length {len(idx)}, expected {dimension}")
    return idx


def decompose(delta: Sequence[int], k: int) -> tuple[IndexVector, int]:
    """Split delta = a + p*e_k with a in the axis-k sublattice (k is 1-based).

    Exact on integer indices; the returned ``a`` has zero k-th entry.
    """
    idx = as_index(delta)
    if not 1 <= k <= len(idx):
        raise ValueError(f"axis k={k} out of range for dimension {len(idx)}")
    p = idx[k - 1]
    a = idx[: k - 1] + (0,) + idx[k:]
    return a, p


def in_halfspace(delta: Sequence[int], k: int, sign: str) -> bool:
    """True iff delta lies in the open half-lattice of axis k and given sign.

    Membership means the k-th coefficient p satisfies sign*p >= 1; the p = 0
    plane is excluded on both sides.
    """
    _, p = decompose(delta, k)
    return sign_value(sign) * p >= 1


def sign_value(sign: str) -> int:
    """+1 for the '+' half-lattice, -1 for '-'."""
    if sign == "+":
        return 1
    if sign == "-":
        return -1
    raise ValueError(f"sign must be '+' or '-', got {sign!r}")


@dataclass(frozen=True)
class LatticeBasis:
    """Generators v_1..v_d of a d-dimensional lattice, rows of a (d, d) array.

    Immutable after construction, its arrays read-only, so a basis can be
    shared.  The inverse coordinates and the norms of the dual vectors, which
    give the orthogonal components h_k and the separation constants c(k), are
    computed up front; the fundamental-domain diameter on first use, once per
    basis.  Construction fails with
    :class:`DegenerateBasisError` when the generators are numerically
    dependent.
    """

    generators: np.ndarray
    dimension: int = field(init=False)
    _inverse: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        mat = np.array(self.generators, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"generators must form a square matrix, got shape {mat.shape}")
        d = mat.shape[0]
        svals = np.linalg.svd(mat, compute_uv=False)
        if svals[-1] <= CONDITION_TOL * svals[0]:
            # all-zero generators have sigma_max = 0: report the ratio as 0
            ratio = svals[-1] / svals[0] if svals[0] else 0.0
            raise DegenerateBasisError(
                f"generators are numerically dependent (sigma_min/sigma_max = {ratio:.3e})"
            )
        inverse = np.linalg.inv(mat)
        # |w_k| per generator coordinate: the half-width of the box holding a
        # unit ball, and 1 / c(k)
        dual_norms = np.sqrt((inverse**2).sum(axis=0))
        # read-only, so that a basis can be shared
        mat.setflags(write=False)
        inverse.setflags(write=False)
        dual_norms.setflags(write=False)
        object.__setattr__(self, "generators", mat)
        object.__setattr__(self, "dimension", d)
        object.__setattr__(self, "_inverse", inverse)
        object.__setattr__(self, "_dual_norms", dual_norms)

    @cached_property
    def _diameter(self) -> float:
        # the longest of the 2^d vertex sums +-v_1 +- ... +- v_d
        signs = grid([np.array([-1.0, 1.0])] * self.dimension)
        return math.sqrt(squared_norms(self.to_cartesian(signs)).max())

    # -- coordinates ---------------------------------------------------

    def to_cartesian(self, n) -> np.ndarray:
        """Cartesian point sum_j n_j v_j of an index, or of every row of an array.

        A stacked matmul: each row goes through the same vector-matrix kernel
        as a single 1-D index, so the rows of a batch are bit-equal to
        one-at-a-time calls (one (m, d) gemm is free to round them otherwise).
        The input is made C-contiguous first, so a transposed or strided
        index array reaches that kernel as its rows would one at a time.
        """
        x = np.ascontiguousarray(n, dtype=float)
        return (x[..., None, :] @ self.generators)[..., 0, :]

    def index_of(self, point: Sequence[float]) -> IndexVector:
        """Nearest integer index of a cartesian point (exact on lattice points)."""
        return tuple(int(x) for x in np.rint(np.asarray(point, float) @ self._inverse))

    def generator_coordinates(self, point: Sequence[float]) -> np.ndarray:
        """Real coefficients of a cartesian point in the generator basis."""
        return np.asarray(point, dtype=float) @ self._inverse

    # -- grading geometry ----------------------------------------------

    def separation_constant(self, k: int) -> float:
        """|h_k| = 1 / |w_k|: distance between consecutive axis-k lattice planes."""
        if not 1 <= k <= self.dimension:
            raise ValueError(f"axis k={k} out of range for dimension {self.dimension}")
        return 1.0 / float(self._dual_norms[k - 1])

    def orthogonal_component(self, k: int) -> np.ndarray:
        """h_k = w_k / |w_k|^2, the part of v_k orthogonal to the span of the
        other generators."""
        if not 1 <= k <= self.dimension:
            raise ValueError(f"axis k={k} out of range for dimension {self.dimension}")
        w = self._inverse[:, k - 1]
        return w / (w @ w)

    def fundamental_diameter(self) -> float:
        """Diameter of the fundamental domain [-1/2, 1/2)^d in generator coords."""
        return self._diameter

    @cached_property
    def cancellation(self) -> float:
        """K = sum_j |v_j| |w_j|, w_j the dual vectors (columns of the inverse).

        Bounds the cancellation in :meth:`to_cartesian`: the coefficients of
        x = sum_j n_j v_j obey |n_j| = |x . w_j| <= |x| |w_j|, so a computed
        x is off by at most d u sum_j |n_j| |v_j| <= d u K |x|, u the unit
        roundoff.  K >= d (v_j . w_j = 1), with equality for orthogonal
        generators.
        """
        return float(np.sqrt(squared_norms(self.generators)) @ self._dual_norms)

    def rounding_margin(self, scale: float) -> float:
        """eps = 64 d K u M, M = ``scale``: the slack that keeps a ball's
        computed members inside its computed radius when every norm of the
        argument is below M (the Fermi sampler's and the degeneracy group's
        balls; the bound is proved in :mod:`~halfspace_bloch.isoenergetic`).
        """
        return 64 * self.dimension * self.cancellation * _UNIT_ROUNDOFF * scale

    # -- enumeration and reduction ---------------------------------------

    def enumerate_ball(self, center: Sequence[float], radius: float) -> np.ndarray:
        """All indices n with |to_cartesian(n) - center| <= radius, as the rows
        of an (m, d) int64 array in lex order; (0, d) when the ball is empty.

        The integer bounding box comes from the dual coordinates of the
        center, so no candidate is missed regardless of basis skew.  The box
        is one C-ordered :func:`grid` of the axis ranges, whose rows are
        already in lex order, filtered in one step; each kept row's norm is
        bit-equal to the scalar ``sqrt(v @ v)`` of
        ``v = to_cartesian(n) - center``.  Callers that report an index turn
        only that row into a tuple.  A negative or non-finite radius, or a
        box bound that is non-finite or beyond int64, is a ``ValueError``.
        """
        if not 0 <= radius < math.inf:
            raise ValueError(f"radius must be finite and nonnegative, got {radius}")
        c = np.asarray(center, dtype=float)
        if c.shape != (self.dimension,):
            raise ValueError(f"center must have length {self.dimension}")
        mid = (c @ self._inverse).tolist()
        half = (radius * self._dual_norms).tolist()
        # False for NaN, so a non-finite center or half-width is refused too
        if not all(abs(m) + h < _BOX_LIMIT for m, h in zip(mid, half)):
            raise ValueError(
                f"the ball of radius {radius} about {c.tolist()} has an integer box "
                "beyond int64"
            )
        box = grid([
            np.arange(
                math.ceil(m - h - _BOX_PAD), math.floor(m + h + _BOX_PAD) + 1, dtype=np.int64
            )
            for m, h in zip(mid, half)
        ])
        keep = np.sqrt(squared_norms(self.to_cartesian(box) - c)) <= radius
        return box[keep]

    def box_size(self, radius: float) -> float:
        """Upper bound on the integer points :meth:`enumerate_ball` scans for a
        ball of this radius, about any center, computed without building them:
        an axis of the box holds at most 2 h + 1 integers, h its half-width
        (plus the padding).
        """
        return math.prod(
            2.0 * (radius * h) + 2.0 * _BOX_PAD + 1.0 for h in self._dual_norms.tolist()
        )

    def reduce_quasimomentum(self, t: Sequence[float]) -> np.ndarray:
        """Translate t by a lattice vector into generator coordinates [-1/2, 1/2)."""
        coords = np.asarray(t, dtype=float) @ self._inverse
        reduced = coords - np.floor(coords + 0.5)
        return reduced @ self.generators


def grid(axes: Sequence[np.ndarray]) -> np.ndarray:
    """The Cartesian product of 1-D arrays of one dtype, as the rows of a
    (prod len, d) array in lex order (the last axis varies fastest).

    A C-ordered ``np.empty((*lengths, d))`` is filled one axis at a time by
    a broadcast assignment, so the rows come out contiguous, as a batch of
    one-at-a-time indices would be.
    """
    d = len(axes)
    out = np.empty((*map(len, axes), d), dtype=axes[0].dtype)
    for j, axis in enumerate(axes):
        out[..., j] = axis.reshape(-1, *[1] * (d - 1 - j))
    return out.reshape(-1, d)


def squared_norms(v: np.ndarray) -> np.ndarray:
    """v . v over the last axis of a float array.

    A stacked (1, d) @ (d, 1) matmul, so every entry is bit-equal to the 1-D
    ``v @ v`` of its row; an einsum or ``(v**2).sum(-1)`` sums in another
    order and rounds some entries differently.
    """
    v = np.ascontiguousarray(v)
    return (v[..., None, :] @ v[..., :, None])[..., 0, 0]


def identity_basis(dimension: int, scale: float = 1.0) -> LatticeBasis:
    """Convenience basis with orthogonal generators scale*e_k."""
    return LatticeBasis(scale * np.eye(dimension))
