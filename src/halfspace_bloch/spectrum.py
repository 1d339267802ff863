"""Free Bloch eigenvalues |g + t|^2, the collision tolerance, and degeneracy groups.

For a quasimomentum t the free operator has the plane waves as eigenvectors
with eigenvalues |g + t|^2 over lattice points g.  A degeneracy group
collects every lattice point whose eigenvalue collides with a given one and
organizes the members by their axis-k plane: members are sorted by
descending plane index p, the leading count s is the number sharing the top
plane, and the plane partition drives the root-function analysis.

Collisions.  Every multiplicity and resonance question here asks whether
two free levels coincide, and :func:`collides` alone answers it: a gap to
the level lam collides when |gap| < tol(lam) = DENOM_TOL_SCALE (1 + |lam|).
Group membership, the resonance guards and the target screen of
:mod:`bloch` and the second-plane guard of :mod:`rootfn` all ask it, on the
same batched |g + t|^2 rows, so a guard rejects exactly the points that the
group of lam holds when its ball reaches them.  The width separates

* the roundoff it absorbs: a computed |n + t|^2 is off by about
  d u K |n + t|^2 (u = 2^-53, K = :attr:`LatticeBasis.cancellation`), so an
  exact collision at lam computes as a gap of at most about 6 d u K lam,
  below tol(lam) while d K < 1.5e3 (the identity basis has d K = d^2);
* from the smallest true gap it must not hide: with the identity basis and
  t of denominator q, distinct levels differ by a multiple of 1/q^2, above
  tol(lam) for q up to about 1e6 / sqrt(1 + lam).  Closer levels, which t
  can make arbitrarily close, count as colliding.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CutoffError
from .lattice import IndexVector, LatticeBasis, as_index, squared_norms

#: scale of the collision tolerance (module docstring)
DENOM_TOL_SCALE = 1e-12


def denominator_tolerance(lam: float) -> float:
    """Width below which a gap to the level lam counts as a collision."""
    return DENOM_TOL_SCALE * (1.0 + abs(lam))


def collides(gap, lam: float) -> np.ndarray:
    """Mask of the gaps to the level lam that are collisions: |gap| < tol(lam)."""
    return np.abs(gap) < denominator_tolerance(lam)


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


def degeneracy_group(
    basis: LatticeBasis, gamma: Sequence[int], t: Sequence[float], k: int, cutoff: float
) -> EigenGroup:
    """Collect all collisions of |gamma + t|^2 and organize them by axis-k plane.

    The members are the points of the ball |x + t| <= cutoff whose level
    :func:`collides` with lam = |gamma + t|^2.  Output is canonical: member
    order depends only on the set of collisions, never on enumeration
    order.  A simple eigenvalue yields a one-member group.
    """
    gamma = as_index(gamma, basis.dimension)
    if not 1 <= k <= basis.dimension:
        raise ValueError(f"axis k={k} out of range for dimension {basis.dimension}")
    t, lam = _check_cutoff(basis, gamma, t, cutoff)

    ball = basis.enumerate_ball(-t, cutoff)
    gaps = np.abs(eigenvalues(basis, ball, t) - lam)
    hit = collides(gaps, lam)
    members = [(n, n[k - 1]) for n in map(tuple, ball[hit].tolist())]
    excluded_gap = float(gaps[~hit].min()) if not hit.all() else math.inf
    if gamma not in [b for b, _ in members]:
        raise CutoffError(
            f"enumeration ball (cutoff {cutoff}) does not contain gamma={gamma}"
        )

    members.sort(key=lambda item: (-item[1], item[0]))
    planes = [
        Plane(p, tuple(b for b, _ in run)) for p, run in itertools.groupby(members, lambda m: m[1])
    ]
    return EigenGroup(
        lam=lam,
        members=tuple(members),
        s=len(planes[0].members),
        planes=tuple(planes),
        k=k,
        t=tuple(float(x) for x in t),
        excluded_gap=excluded_gap,
    )
