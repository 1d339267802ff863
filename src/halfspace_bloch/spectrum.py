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
group of lam holds.  The width separates

* the roundoff it absorbs: a computed |n + t|^2 is off by about
  d u K |n + t|^2 (u = 2^-53, K = :attr:`LatticeBasis.cancellation`), so an
  exact collision at lam computes as a gap of at most about 6 d u K lam,
  below tol(lam) while d K < 1.5e3 (the identity basis has d K = d^2);
* from the smallest true gap it must not hide: with the identity basis and
  t of denominator q, distinct levels differ by a multiple of 1/q^2, above
  tol(lam) for q up to about 1e6 / sqrt(1 + lam).  Closer levels, which t
  can make arbitrarily close, count as colliding.

The group ball.  :func:`degeneracy_group` scans the ball about -t of radius
r + D + eps, where r = sqrt(lam + tol(lam)), D is the fundamental-domain
diameter and eps the rounding margin.  It holds every member, the nearest
level the group leaves out, and every point tying that level:

* a member has |n + t|^2 < lam + tol(lam), so |n + t| < r;
* some non-member lies within r + D.  The covering radius is at most D/2
  (:mod:`~halfspace_bloch.isoenergetic`), so a point x with
  |x + t| = r + D/2 lies within D/2 of a lattice point n, and
  r <= |n + t| <= r + D.  Then |n + t|^2 >= lam + tol(lam): n is no member,
  and its gap is at most (r + D)^2 - lam;
* a lattice point farther than r + D has a larger gap than that, so it can
  neither be the nearest excluded level nor tie it.  The group's
  ``excluded_gap`` is the lattice's own gap, and always finite.

The chain holds for exact norms.  It is the Fermi sampler's minimizer-ball
chain with r in place of rho and a full D in place of D/2, and the same
accounting of the computed norms, gaps, r and D below M = r + D + |t| gives
the same margin eps = 64 d K u M (:meth:`LatticeBasis.rounding_margin`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

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
    level of the lattice left out of the group, for auditing borderline
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


def group_radius(basis: LatticeBasis, lam: float, t: np.ndarray) -> float:
    """Radius r + D + eps of the group ball of the level lam about -t
    (module docstring)."""
    reach = math.sqrt(lam + denominator_tolerance(lam))
    diameter = basis.fundamental_diameter()
    return reach + diameter + basis.rounding_margin(reach + diameter + math.sqrt(float(t @ t)))


def degeneracy_group(
    basis: LatticeBasis, gamma: Sequence[int], t: Sequence[float], k: int
) -> EigenGroup:
    """Collect all collisions of |gamma + t|^2 and organize them by axis-k plane.

    The members are the lattice points whose level :func:`collides` with
    lam = |gamma + t|^2; the group ball (module docstring) holds them and
    the nearest level left out.  Output is canonical: member order depends
    only on the set of collisions, never on enumeration order.  A simple
    eigenvalue yields a one-member group.
    """
    gamma = as_index(gamma, basis.dimension)
    if not 1 <= k <= basis.dimension:
        raise ValueError(f"axis k={k} out of range for dimension {basis.dimension}")
    t = np.asarray(t, dtype=float)
    lam = eigenvalue(basis, gamma, t)

    ball = basis.enumerate_ball(-t, group_radius(basis, lam, t))
    gaps = np.abs(eigenvalues(basis, ball, t) - lam)
    hit = collides(gaps, lam)
    members = [(n, n[k - 1]) for n in map(tuple, ball[hit].tolist())]
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
        excluded_gap=float(gaps[~hit].min()),
    )
