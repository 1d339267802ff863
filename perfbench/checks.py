"""Output checks, independent of the program, with the acceptance tolerances.

Every instance must exit 0 and pass its command's check:

* ``bloch``: the series converged and agrees with the closed form to 1e-10;
* ``oracle``: the matrix is plane-triangular, its spectrum is the free one,
  and the back-solved eigenvector matches the closed form to 1e-10;
* ``multiplicity``: the analytic criterion and the rank oracle agree;
* ``fermi``: the retained grid points, their distances and lattice indices
  equal a brute-force numpy scan over a generous box of lattice points.
"""

from __future__ import annotations

import json

import numpy as np

from workloads import lattice_points

COEFF_TOL = 1e-10

#: float slack between two evaluations of the same distance; grid points this
#: close to the threshold may fall on either side of it
DISTANCE_TOL = 1e-12


def check(command: str, config: dict, code: int, text: str) -> bool:
    if code != 0:
        return False
    if command == "fermi":
        return _check_fermi(config, text)
    doc = json.loads(text)
    if command == "bloch":
        return doc["converged"] is True and doc["max_discrepancy"] < COEFF_TOL
    if command == "oracle":
        return (
            doc["triangular"] is True
            and doc["spectrum_match"] is True
            and doc["eigenvector_agreement"] < COEFF_TOL
        )
    if command == "multiplicity":
        return doc["verdict"] == "consistent"
    raise ValueError(f"no check for command {command!r}")


def fermi_scan(config: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(t per grid point, | |n + t| - rho | per grid point and n, the points n)."""
    g = np.asarray(config["generators"], dtype=float)
    params = config["params"]
    axis = np.linspace(-0.5, 0.5, params["resolution"])
    coords = np.stack(np.meshgrid(*([axis] * len(g)), indexing="ij"), axis=-1)
    t = coords.reshape(-1, len(g)) @ g
    reach = float(np.abs(t).sum(axis=1).max())
    # n = 0 gives a distance of at most rho + reach, so a minimiser has
    # |n + t| <= 2 rho + reach and |n| <= 2 (rho + reach)
    pts = lattice_points(g, np.zeros(len(g)), 2.0 * (params["rho"] + reach) + 1.0)
    norms = np.sqrt(((t[:, None, :] + (pts @ g)[None, :, :]) ** 2).sum(axis=2))
    return t, np.abs(norms - params["rho"]), pts


def _check_fermi(config: dict, text: str) -> bool:
    g = np.asarray(config["generators"], dtype=float)
    dim = len(g)
    res, threshold = config["params"]["resolution"], config["params"]["threshold"]
    t, dist, pts = fermi_scan(config)
    best = dist.min(axis=1)
    inv = np.linalg.inv(g)
    header = [f"t_{i+1}" for i in range(dim)] + ["distance"]
    header += [f"gamma_{i+1}" for i in range(dim)]
    lines = text.splitlines()
    # an empty sample has no dimension to name its columns by
    if lines != ["distance"] and (not lines or lines[0].split(",") != header):
        return False
    column = {tuple(p): j for j, p in enumerate(pts.tolist())}
    seen = set()
    for line in lines[1:]:
        cells = line.split(",")
        tp = np.array([float(x) for x in cells[:dim]])
        cell = np.rint((tp @ inv + 0.5) * (res - 1)).astype(int)
        if cell.min() < 0 or cell.max() >= res:
            return False
        i = int(np.ravel_multi_index(tuple(cell), (res,) * dim))
        if i in seen or np.abs(tp - t[i]).max() > DISTANCE_TOL:
            return False
        seen.add(i)
        j = column.get(tuple(int(x) for x in cells[dim + 1:]))
        if j is None or dist[i, j] - best[i] > DISTANCE_TOL:
            return False
        if abs(float(cells[dim]) - best[i]) > DISTANCE_TOL:
            return False
        if best[i] > threshold + DISTANCE_TOL:
            return False
    inside = np.flatnonzero(best <= threshold - DISTANCE_TOL)
    return all(int(i) in seen for i in inside)
