"""Sampling of isoenergetic (Fermi) surfaces over the quasimomentum domain.

The level set at energy rho^2 is the union of spheres of radius rho,
translated by the lattice and clipped to the fundamental domain.  Points
are reported as a cloud with their distance to the nearest sphere and the
translating lattice index; set-level claims (potential independence) are
tested on the cloud directly.

The distance of a point t is min over all lattice points n of
| |n + t| - rho |, with the lexicographically first minimizer.  All points
of a grid are scored against one candidate set, the minimizer ball about
-t0, and no other lattice point can win or tie:

* **Every point is near a sphere.**  Every x lies within the covering
  radius of some lattice point, and the covering radius is at most half the
  fundamental-domain diameter D (reduce x into the parallelepiped
  [-1/2, 1/2)^d about a lattice point; the norm is convex, so the largest
  offset is a vertex, |sum +-v_j / 2| <= D/2).  Taking x on the sphere
  |x + t| = rho gives a lattice point with distance at most D/2.
* **Minimizer-ball lemma.**  So a minimizer of t, and every lattice point
  that ties with it, has distance at most D/2, i.e. |n + t| <= rho + D/2,
  and then |n + t0| <= |n + t| + |t - t0| <= rho + D/2 + |t - t0|.  The
  ball of radius rho + D/2 + max |t - t0| + eps about -t0 therefore holds
  every point's minimizers and ties, and a lattice point outside it has a
  larger distance than the minimizer.  The grid is scored with t0 = 0; a
  single point is the case t0 = t.  The candidates keep their
  lexicographic order, so ``argmin``, which takes the first minimum, picks
  the lexicographically first minimizer over the whole lattice.  At
  rho = 0 the bound is sharp: the corner (1/2, 1/2) of the square lattice
  lies exactly D/2 from four lattice points, and its lexicographically
  first minimizer (-1, -1) lies exactly on the sphere of the grid's ball.
* **Rounding margin.**  The lemma holds for exact norms; the scores, D, the
  spread max |t - t0| and the enumerated norms are computed ones.  With u
  the unit roundoff, a computed lattice point x = to_cartesian(n) is off by
  at most d u K |x| (see :meth:`LatticeBasis.cancellation`); every other
  sum, dot product and square root is off by at most (d/2 + 3) u times a
  norm below M = rho + D + max |t - t0| + |t0|.  A computed score, a
  computed norm, D/2, the spread and the radius's own sum are each off by
  less than 8 d K u M (K >= d), and the inclusion chain above passes through
  fewer than eight of them, so eps = 64 d K u M keeps every computed
  minimizer and tie inside the computed ball.  That is a few hundred units
  of roundoff relative to M (9e-14 on the square lattice at rho = 1), far
  below the gap between lattice shells, so it seldom adds a candidate (on
  none of the fermi benchmark's seed-1 grids, at their rho or at rho = 0).
  It matters far from the origin: at the deep hole with generator
  coordinates (10.5, 10.5) of the 0.1-scaled square lattice, all four
  minimizers are computed 5.6e-17 beyond D/2, and a ball without the margin
  is empty.

Each |n + t|^2 is the stacked matmul of
:func:`~halfspace_bloch.lattice.squared_norms`, bit-equal to the scalar
:func:`~halfspace_bloch.spectrum.eigenvalue`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .lattice import IndexVector, LatticeBasis, grid, squared_norms

#: grid-point-by-candidate entries scored at once; bounds the temporary arrays
#: of one chunk whatever the resolution
_CHUNK_ELEMENTS = 1 << 16

#: u, the largest relative rounding error of one float operation
_UNIT_ROUNDOFF = np.finfo(float).eps / 2


@dataclass(frozen=True, eq=False)
class SurfaceSample:
    """Grid points of the fundamental domain near the energy-rho^2 surface.

    Row i of the arrays is one retained grid point: ``ts`` the (m, d) points
    t, ``distances`` the m distances min over lattice points g of
    | |g + t| - rho |, ``gammas`` the (m, d) int64 nearest lattice indices.
    The arrays are stored read-only.  ``dimension`` names the CSV columns,
    also when no point is retained.
    """

    rho: float
    resolution: int
    threshold: float
    dimension: int
    ts: np.ndarray
    distances: np.ndarray
    gammas: np.ndarray

    def __post_init__(self):
        ts = np.array(self.ts, dtype=float).reshape(-1, self.dimension)
        distances = np.array(self.distances, dtype=float).reshape(-1)
        gammas = np.array(self.gammas, dtype=np.int64).reshape(-1, self.dimension)
        if not len(ts) == len(distances) == len(gammas):
            raise ValueError(
                f"{len(ts)} points, {len(distances)} distances and {len(gammas)} indices"
            )
        for name, array in (("ts", ts), ("distances", distances), ("gammas", gammas)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    @cached_property
    def points(self) -> tuple[tuple[tuple[float, ...], float, IndexVector], ...]:
        """(t, distance, nearest lattice index) per row, as Python numbers.

        Built on first use; ``to_csv`` and the JSON report read the arrays.
        """
        return tuple(
            zip(
                map(tuple, self.ts.tolist()),
                self.distances.tolist(),
                map(tuple, self.gammas.tolist()),
            )
        )

    def to_csv(self) -> str:
        """The points as CSV under a header, formatted by one ``%``-template.

        ``"%.17g"`` is ``f"{x:.17g}"`` and ``"%s"`` is ``str(g)``.
        """
        dim = self.dimension
        cols = [f"t_{i+1}" for i in range(dim)] + ["distance"] + [
            f"gamma_{i+1}" for i in range(dim)
        ]
        row = ",".join(["%.17g"] * (dim + 1) + ["%s"] * dim) + "\n"
        # one row of Python numbers per point: t, distance, gamma side by side
        flat = np.empty((len(self.distances), 2 * dim + 1), dtype=object)
        flat[:, :dim] = self.ts
        flat[:, dim] = self.distances
        flat[:, dim + 1 :] = self.gammas
        return ",".join(cols) + "\n" + (row * len(flat)) % tuple(flat.ravel().tolist())


def _nearest(
    basis: LatticeBasis, ts: np.ndarray, t0: np.ndarray, rho: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(distance per row of ts, (m, d) candidate array, row of each row's minimizer).

    Candidates are the minimizer ball about -t0, which holds every row's
    minimizers and ties; the (grid x candidate) array is scored in row
    chunks of at most ``_CHUNK_ELEMENTS`` entries.  A lattice point outside
    the ball is farther from the sphere than every row's minimizer (module
    docstring), so the first minimum over the candidates is the minimizer
    over the whole lattice.
    """
    if rho < 0:
        raise ValueError(f"rho must be nonnegative, got {rho}")
    spread = float(np.sqrt(squared_norms(ts - t0)).max())
    diameter = basis.fundamental_diameter()
    scale = rho + diameter + spread + math.sqrt(float(t0 @ t0))
    eps = 64 * basis.dimension * basis.cancellation * _UNIT_ROUNDOFF * scale
    candidates = basis.enumerate_ball(-t0, rho + diameter / 2 + spread + eps)
    points = basis.to_cartesian(candidates)
    rows = max(1, _CHUNK_ELEMENTS // len(candidates))
    dist = np.empty(len(ts))
    best = np.empty(len(ts), dtype=np.intp)
    for lo in range(0, len(ts), rows):
        norms = np.sqrt(squared_norms(points + ts[lo : lo + rows, None, :]))
        scored = np.abs(norms - rho)
        j = scored.argmin(axis=1)
        best[lo : lo + rows] = j
        dist[lo : lo + rows] = scored[np.arange(len(j)), j]
    return dist, candidates, best


def distance_to_surface(
    basis: LatticeBasis, t: Sequence[float], rho: float
) -> tuple[float, IndexVector]:
    """min over all lattice points g of | |g + t| - rho | with its
    lexicographically first argmin."""
    t = np.asarray(t, dtype=float)
    if t.shape != (basis.dimension,):
        raise ValueError(f"t must have length {basis.dimension}")
    dist, candidates, best = _nearest(basis, t[None, :], t, rho)
    return float(dist[0]), tuple(candidates[best[0]].tolist())


def sample_surface(
    basis: LatticeBasis, rho: float, resolution: int, threshold: float
) -> SurfaceSample:
    """Scan a uniform generator-coordinate grid and keep near-surface points.

    The grid is resolution points per axis across [-1/2, 1/2] (endpoints
    included; the two boundary sheets are lattice translates of each other),
    one C-ordered :func:`~halfspace_bloch.lattice.grid` of generator
    coordinates in lex order, so the retained points keep that order.
    """
    if resolution < 2:
        raise ValueError(f"resolution must be at least 2, got {resolution}")
    axis = np.linspace(-0.5, 0.5, resolution)
    ts = basis.to_cartesian(grid([axis] * basis.dimension))
    dist, candidates, best = _nearest(basis, ts, np.zeros(basis.dimension), rho)
    kept = (dist <= threshold).nonzero()[0]
    return SurfaceSample(
        rho=rho,
        resolution=resolution,
        threshold=threshold,
        dimension=basis.dimension,
        ts=ts[kept],
        distances=dist[kept],
        gammas=candidates[best[kept]],
    )
