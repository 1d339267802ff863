"""Free Bloch eigenvalues |g + t|^2, simplicity tests, and degeneracy groups.

For a quasimomentum t the free operator has the plane waves as eigenvectors
with eigenvalues |g + t|^2 over lattice points g.  A degeneracy group
collects every lattice point whose eigenvalue collides with a given one and
organizes the members by their axis-k plane: members are sorted by
descending plane index p, the leading count s is the number sharing the top
plane, and the plane partition drives the root-function analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CutoffError
from .lattice import IndexVector, LatticeBasis, as_index, squared_norms

#: default gap (in |g+t| units) below which two levels count as colliding
SIMPLE_GAP_TOL = 1e-6

#: default width (in eigenvalue units) of the collision equivalence
GROUP_TOL = 1e-9


def eigenvalue(basis: LatticeBasis, gamma: Sequence[int], t: Sequence[float]) -> float:
    """Free Bloch eigenvalue |g + t|^2."""
    v = basis.to_cartesian(gamma) + np.asarray(t, dtype=float)
    return float(v @ v)


def eigenvalues(basis: LatticeBasis, indices, t: Sequence[float]) -> np.ndarray:
    """|g + t|^2 for every row g of an (m, d) integer index array.

    Bit-equal to :func:`eigenvalue` row by row: both products are stacked
    matmuls (:meth:`LatticeBasis.to_cartesian`, :func:`squared_norms`), so
    each row goes through the same vector-matrix and dot kernels as the
    scalar call.  One (m, d) gemm or an einsum would round some rows
    differently in the last place.
    """
    x = np.asarray(indices, dtype=float).reshape(-1, basis.dimension)
    return squared_norms(basis.to_cartesian(x) + np.asarray(t, dtype=float))


@dataclass(frozen=True)
class Plane:
    """Members of one degeneracy group lying on the axis-k plane of index n."""

    n: int
    members: tuple[IndexVector, ...]


@dataclass(frozen=True)
class EigenGroup:
    """A free eigenvalue with all colliding lattice points, plane-organized.

    ``members`` is sorted by descending plane index p (ties lexicographic on
    the index tuple), ``s`` counts the members sharing the top plane, and
    ``planes`` partitions the members with strictly decreasing plane index.
    ``excluded_gap`` is the distance (in eigenvalue units) to the nearest
    enumerated level left out of the group, for auditing borderline
    clusters.
    """

    lam: float
    members: tuple[tuple[IndexVector, int], ...]
    s: int
    planes: tuple[Plane, ...]
    k: int
    t: tuple[float, ...]
    excluded_gap: float

    @property
    def multiplicity(self) -> int:
        return len(self.members)

    def leading_members(self) -> tuple[IndexVector, ...]:
        return self.planes[0].members

    def member_indices(self) -> tuple[IndexVector, ...]:
        return tuple(b for b, _ in self.members)


def _check_cutoff(basis, gamma, t, cutoff):
    t = np.asarray(t, dtype=float)
    lam = eigenvalue(basis, gamma, t)
    needed = 2.0 * (math.sqrt(lam) + math.sqrt(lam))
    if cutoff < needed:
        raise CutoffError(
            f"cutoff {cutoff} too small: collisions with |g+t| = {math.sqrt(lam):.6g} "
            f"require at least {needed:.6g}"
        )
    return t, lam


def is_simple(
    basis: LatticeBasis,
    gamma: Sequence[int],
    t: Sequence[float],
    cutoff: float,
    tol: float = SIMPLE_GAP_TOL,
) -> bool:
    """True iff no other lattice point comes within tol of |g + t|.

    The candidate scan runs over the ball |x + t| <= cutoff, which contains
    every possible collision once the cutoff precondition holds.
    """
    gamma = as_index(gamma, basis.dimension)
    t, lam = _check_cutoff(basis, gamma, t, cutoff)
    ball = basis.enumerate_ball(-t, cutoff)
    others = ball[(ball != gamma).any(axis=1)]
    gaps = np.abs(np.sqrt(eigenvalues(basis, others, t)) - math.sqrt(lam))
    return not (gaps <= tol).any()


def degeneracy_group(
    basis: LatticeBasis,
    gamma: Sequence[int],
    t: Sequence[float],
    k: int,
    cutoff: float,
    group_tol: float = GROUP_TOL,
) -> EigenGroup:
    """Collect all collisions of |gamma + t|^2 and organize them by axis-k plane.

    Output is canonical: member order depends only on the set of collisions,
    never on enumeration order.  A simple eigenvalue yields a one-member
    group.
    """
    gamma = as_index(gamma, basis.dimension)
    if not 1 <= k <= basis.dimension:
        raise ValueError(f"axis k={k} out of range for dimension {basis.dimension}")
    t, lam = _check_cutoff(basis, gamma, t, cutoff)

    ball = basis.enumerate_ball(-t, cutoff)
    gaps = np.abs(eigenvalues(basis, ball, t) - lam)
    hit = gaps <= group_tol
    members = [(n, n[k - 1]) for n in map(tuple, ball[hit].tolist())]
    excluded_gap = float(gaps[~hit].min()) if not hit.all() else math.inf
    if gamma not in [b for b, _ in members]:
        raise CutoffError(
            f"enumeration ball (cutoff {cutoff}) does not contain gamma={gamma}"
        )

    members.sort(key=lambda item: (-item[1], item[0]))
    top_p = members[0][1]
    s = sum(1 for _, p in members if p == top_p)

    planes: list[Plane] = []
    for _, p in members:
        if not planes or planes[-1].n != p:
            planes.append(Plane(p, tuple(b for b, pb in members if pb == p)))

    return EigenGroup(
        lam=lam,
        members=tuple(members),
        s=s,
        planes=tuple(planes),
        k=k,
        t=tuple(float(x) for x in t),
        excluded_gap=excluded_gap,
    )
