"""Sampling of isoenergetic (Fermi) surfaces over the quasimomentum domain.

The level set at energy rho^2 is the union of spheres of radius rho,
translated by the lattice and clipped to the fundamental domain.  Points
are reported as a cloud with their distance to the nearest sphere and the
translating lattice index; set-level claims (potential independence) are
tested on the cloud directly.

The distance of a point t is min over lattice points n of | |n + t| - rho |,
taken over its own ball |n + t| <= cutoff, with the lexicographically first
minimizer.  All points of a grid are scored against one candidate set:

* **Candidate lemma.**  |n + t| <= cutoff implies |n + t0| <= |n + t| +
  |t - t0| <= cutoff + |t - t0|, so the ball of radius cutoff + max |t - t0|
  about -t0 contains the ball of every point.  The grid is scored with
  t0 = 0, i.e. the ball |n| <= cutoff + max |t|; a single point is the case
  t0 = t, whose candidate set is its own ball.  Candidates outside a
  point's own ball are scored as ``inf``; the rest keep their lexicographic
  order, so ``argmin``, which takes the first minimum, picks the same
  minimizer as a scan of the point's own ball.
* **Masked candidates never win.**  Every point x lies within the covering
  radius of some lattice point, and the covering radius is at most half the
  fundamental-domain diameter D (reduce x into the parallelepiped
  [-1/2, 1/2)^d about a lattice point; the norm is convex, so the largest
  offset is a vertex, |sum +-v_j / 2| <= D/2).  Taking x on the sphere
  |x + t| = rho gives a lattice point with distance at most D/2, inside the
  point's ball since rho + D/2 < cutoff.  A candidate outside the ball has
  distance above cutoff - rho >= D, so it can neither win nor tie, and the
  minimizers sit D/2 inside every radius used, far beyond rounding.

Each |n + t|^2 is the stacked matmul of
:func:`~halfspace_bloch.lattice.squared_norms`, bit-equal to the scalar
:func:`~halfspace_bloch.spectrum.eigenvalue`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CutoffError
from .lattice import IndexVector, LatticeBasis, squared_norms

#: grid-point-by-candidate entries scored at once; bounds the temporary arrays
#: of one chunk whatever the resolution
_CHUNK_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class SurfaceSample:
    """Grid points of the fundamental domain near the energy-rho^2 surface.

    ``points`` holds (t, distance, nearest lattice index) for every retained
    grid point, where distance = min over lattice points g of
    | |g + t| - rho |.  ``dimension`` names the CSV columns, also when no
    point is retained.
    """

    rho: float
    resolution: int
    threshold: float
    dimension: int
    points: tuple[tuple[tuple[float, ...], float, IndexVector], ...]

    def to_csv(self) -> str:
        """The points as CSV under a header, formatted by one ``%``-template.

        ``"%.17g"`` is ``f"{x:.17g}"`` and ``"%s"`` is ``str(g)``.
        """
        dim = self.dimension
        cols = [f"t_{i+1}" for i in range(dim)] + ["distance"] + [
            f"gamma_{i+1}" for i in range(dim)
        ]
        row = ",".join(["%.17g"] * (dim + 1) + ["%s"] * dim) + "\n"
        values = [v for t, dist, gamma in self.points for v in (*t, dist, *gamma)]
        return ",".join(cols) + "\n" + (row * len(self.points)) % tuple(values)


def _check_cutoff(basis: LatticeBasis, rho: float, cutoff: float) -> None:
    if rho < 0:
        raise ValueError(f"rho must be nonnegative, got {rho}")
    needed = rho + basis.fundamental_diameter()
    if cutoff < needed:
        raise CutoffError(
            f"cutoff {cutoff} too small to certify the minimizer; need at least "
            f"{needed:.6g}"
        )


def _nearest(
    basis: LatticeBasis, ts: np.ndarray, t0: np.ndarray, rho: float, cutoff: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(distance per row of ts, (m, d) candidate array, row of each row's minimizer).

    Candidates are the ball about -t0 that covers the ball of every row;
    the (grid x candidate) array is scored in row chunks of at most
    ``_CHUNK_ELEMENTS`` entries.  See the module docstring for why this
    gives every row the result of its own ball.
    """
    reach = cutoff + float(np.sqrt(squared_norms(ts - t0)).max())
    candidates = basis.enumerate_ball(-t0, reach)
    points = basis.to_cartesian(candidates)
    rows = max(1, _CHUNK_ELEMENTS // len(candidates))
    dist = np.empty(len(ts))
    best = np.empty(len(ts), dtype=np.intp)
    for lo in range(0, len(ts), rows):
        norms = np.sqrt(squared_norms(points + ts[lo : lo + rows, None, :]))
        scored = np.where(norms <= cutoff, np.abs(norms - rho), np.inf)
        j = scored.argmin(axis=1)
        best[lo : lo + rows] = j
        dist[lo : lo + rows] = scored[np.arange(len(j)), j]
    return dist, candidates, best


def distance_to_surface(
    basis: LatticeBasis,
    t: Sequence[float],
    rho: float,
    cutoff: float,
) -> tuple[float, IndexVector]:
    """min over g of | |g + t| - rho | with its lexicographically first argmin.

    The cutoff must reach rho plus the fundamental-domain diameter so that
    the ball |g + t| <= cutoff provably contains a minimizer.
    """
    _check_cutoff(basis, rho, cutoff)
    t = np.asarray(t, dtype=float)
    if t.shape != (basis.dimension,):
        raise ValueError(f"t must have length {basis.dimension}")
    dist, candidates, best = _nearest(basis, t[None, :], t, rho, cutoff)
    return float(dist[0]), tuple(candidates[best[0]].tolist())


def sample_surface(
    basis: LatticeBasis,
    rho: float,
    resolution: int,
    threshold: float,
    cutoff: float | None = None,
) -> SurfaceSample:
    """Scan a uniform generator-coordinate grid and keep near-surface points.

    The grid is resolution points per axis across [-1/2, 1/2] (endpoints
    included; the two boundary sheets are lattice translates of each other).
    """
    if resolution < 2:
        raise ValueError(f"resolution must be at least 2, got {resolution}")
    if cutoff is None:
        cutoff = rho + basis.fundamental_diameter() + 1.0
    _check_cutoff(basis, rho, cutoff)
    axis = np.linspace(-0.5, 0.5, resolution)
    grids = np.meshgrid(*([axis] * basis.dimension), indexing="ij")
    ts = basis.to_cartesian(np.stack([g.ravel() for g in grids], axis=-1))
    dist, candidates, best = _nearest(basis, ts, np.zeros(basis.dimension), rho, cutoff)
    kept = np.flatnonzero(dist <= threshold)
    points = tuple(
        (tuple(t), d, tuple(n))
        for t, d, n in zip(
            ts[kept].tolist(), dist[kept].tolist(), candidates[best[kept]].tolist()
        )
    )
    return SurfaceSample(
        rho=rho,
        resolution=resolution,
        threshold=threshold,
        dimension=basis.dimension,
        points=points,
    )
