"""Integer-index model of a reciprocal lattice and its half-space grading.

A lattice point is always an integer coefficient tuple with respect to a
fixed generator set, so membership in half-lattices and planes is exact
integer arithmetic; real coordinates enter only through norms.  For a
generator set v_1..v_d the axis-k grading splits the lattice into planes of
constant k-th coefficient p; the component h_k of v_k orthogonal to the
span of the other generators separates consecutive planes by c(k) = |h_k|,
which is the constant behind the sum estimate |g_1+...+g_s| >= c(k)*s for
points g_j in the open half-lattice.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
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

    Immutable after construction.  Derived data (inverse coordinates, the
    orthogonal components h_k and separation constants c(k)) is computed once
    up front; construction fails with :class:`DegenerateBasisError` when the
    generators are numerically dependent.
    """

    generators: np.ndarray
    dimension: int = field(init=False)
    _inverse: np.ndarray = field(init=False, repr=False)
    _ortho: np.ndarray = field(init=False, repr=False)
    _sep: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        mat = np.array(self.generators, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"generators must form a square matrix, got shape {mat.shape}")
        d = mat.shape[0]
        svals = np.linalg.svd(mat, compute_uv=False)
        if svals[-1] <= CONDITION_TOL * svals[0]:
            raise DegenerateBasisError(
                f"generators are numerically dependent (sigma_min/sigma_max = "
                f"{svals[-1] / svals[0]:.3e})"
            )
        mat.setflags(write=False)
        ortho = np.empty_like(mat)
        for k in range(d):
            ortho[k] = _orthogonal_component(mat, k)
        ortho.setflags(write=False)
        object.__setattr__(self, "generators", mat)
        object.__setattr__(self, "dimension", d)
        object.__setattr__(self, "_inverse", np.linalg.inv(mat))
        # per generator coordinate, the half-width of the box holding a unit ball
        object.__setattr__(self, "_dual_norms", np.sqrt((self._inverse**2).sum(axis=0)))
        object.__setattr__(self, "_ortho", ortho)
        object.__setattr__(self, "_sep", np.sqrt(np.einsum("ij,ij->i", ortho, ortho)))

    # -- coordinates ---------------------------------------------------

    def to_cartesian(self, n) -> np.ndarray:
        """Cartesian point sum_j n_j v_j of an index, or of every row of an array.

        A stacked matmul: each row goes through the same vector-matrix kernel
        as a single 1-D index, so the rows of a batch are bit-equal to
        one-at-a-time calls (one (m, d) gemm is free to round them otherwise).
        """
        x = np.asarray(n, dtype=float)
        return (x[..., None, :] @ self.generators)[..., 0, :]

    def index_of(self, point: Sequence[float]) -> IndexVector:
        """Nearest integer index of a cartesian point (exact on lattice points)."""
        return tuple(int(x) for x in np.rint(np.asarray(point, float) @ self._inverse))

    def generator_coordinates(self, point: Sequence[float]) -> np.ndarray:
        """Real coefficients of a cartesian point in the generator basis."""
        return np.asarray(point, dtype=float) @ self._inverse

    # -- grading geometry ----------------------------------------------

    def separation_constant(self, k: int) -> float:
        """|h_k|: distance between consecutive axis-k lattice planes."""
        if not 1 <= k <= self.dimension:
            raise ValueError(f"axis k={k} out of range for dimension {self.dimension}")
        return float(self._sep[k - 1])

    def orthogonal_component(self, k: int) -> np.ndarray:
        """h_k, the part of v_k orthogonal to the span of the other generators."""
        if not 1 <= k <= self.dimension:
            raise ValueError(f"axis k={k} out of range for dimension {self.dimension}")
        return self._ortho[k - 1]

    def fundamental_diameter(self) -> float:
        """Diameter of the fundamental domain [-1/2, 1/2)^d in generator coords."""
        best = 0.0
        for signs in itertools.product((-1.0, 1.0), repeat=self.dimension):
            v = np.asarray(signs) @ self.generators
            best = max(best, math.sqrt(float(v @ v)))
        return best

    # -- enumeration and reduction ---------------------------------------

    def enumerate_ball(
        self, center: Sequence[float], radius: float
    ) -> list[IndexVector]:
        """All indices n with |to_cartesian(n) - center| <= radius, in lex order.

        The integer bounding box comes from the dual coordinates of the
        center, so no candidate is missed regardless of basis skew.  The box
        is built as one array (``indexing="ij"`` rows are already in lex
        order) and filtered in one step; each kept row's norm is bit-equal
        to the scalar ``sqrt(v @ v)`` of ``v = to_cartesian(n) - center``.
        """
        if radius < 0:
            raise ValueError(f"radius must be nonnegative, got {radius}")
        c = np.asarray(center, dtype=float)
        if c.shape != (self.dimension,):
            raise ValueError(f"center must have length {self.dimension}")
        mid = c @ self._inverse
        half = radius * self._dual_norms
        axes = [
            np.arange(math.ceil(m - h - _BOX_PAD), math.floor(m + h + _BOX_PAD) + 1)
            for m, h in zip(mid, half)
        ]
        box = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        box = box.reshape(-1, self.dimension)
        keep = np.sqrt(squared_norms(self.to_cartesian(box) - c)) <= radius
        return list(map(tuple, box[keep].tolist()))

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


def squared_norms(v: np.ndarray) -> np.ndarray:
    """v . v over the last axis of a float array.

    A stacked (1, d) @ (d, 1) matmul, so every entry is bit-equal to the 1-D
    ``v @ v`` of its row; an einsum or ``(v**2).sum(-1)`` sums in another
    order and rounds some entries differently.
    """
    v = np.ascontiguousarray(v)
    return (v[..., None, :] @ v[..., :, None])[..., 0, 0]


def _orthogonal_component(mat: np.ndarray, k: int) -> np.ndarray:
    """Row k of mat minus its projection onto the span of the other rows."""
    if mat.shape[0] == 1:
        return mat[0].copy()
    others = np.delete(mat, k, axis=0)
    gram = others @ others.T
    coeff = np.linalg.solve(gram, others @ mat[k])
    return mat[k] - coeff @ others


def identity_basis(dimension: int, scale: float = 1.0) -> LatticeBasis:
    """Convenience basis with orthogonal generators scale*e_k."""
    return LatticeBasis(scale * np.eye(dimension))
