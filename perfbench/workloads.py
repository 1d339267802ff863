"""Seeded instance generators for the benchmark workloads.

Every generator returns a pool of ``Instance`` records: the CLI command and
the JSON config the program receives.  The pool is built round-robin over
the workload's strata (basis, size class, instance family), so every prefix
of the pool has the same mix whatever the seed; the seed only varies the
details inside each stratum.  This keeps the figures comparable between
seeds.

Nothing here imports ``halfspace_bloch``: the non-resonance filter and the
1-D criterion used to skip borderline instances are re-implemented in numpy
and ``fractions`` so the program under test never decides its own inputs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

WORKLOADS = ("coeffs", "oracle", "multiplicity", "fermi")

#: smallest number of instances in the timed pool of an end-to-end run
TIMED_POOL_MIN = 200

#: smallest number of instances in one pass of the traced run
TRACE_PASS_MIN = 18

IDENTITY_2D = ((1.0, 0.0), (0.0, 1.0))
SKEWED_2D = ((1.0, 0.0), (1.0, 1.0))
HEXAGONAL_2D = ((1.0, 0.0), (0.5, math.sqrt(3.0) / 2.0))
SCALED_2D = ((1.5, 0.0), (0.0, 1.5))
SKEWED_3D = ((1.0, 0.0, 0.0), (0.5, 1.0, 0.0), (0.0, 0.5, 1.0))
ONED = ((2.0 * math.pi,),)

#: smallest accepted denominator |lam - |gamma + delta + t|^2| over the cone
MIN_GAP = 1.0

#: certified bound on the series tail at the configured order; the program's
#: default tail tolerance is 1e-12, so the series always converges in time
TAIL_BOUND = 1e-13


@dataclass(frozen=True)
class Instance:
    command: str
    config: dict
    stratum: str


# -- lattice geometry, independent of the program -------------------------------


def lattice_points(generators, center, radius: float) -> np.ndarray:
    """Integer indices n with |n @ G - center| <= radius, by a padded box scan."""
    g = np.asarray(generators, dtype=float)
    inv = np.linalg.inv(g)
    mid = np.asarray(center, dtype=float) @ inv
    half = radius * np.sqrt((inv**2).sum(axis=0))
    axes = [
        np.arange(math.floor(m - h) - 1, math.ceil(m + h) + 2)
        for m, h in zip(mid, half)
    ]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))
    dist = np.sqrt(((pts @ g - center) ** 2).sum(axis=1))
    return pts[dist <= radius]


@functools.cache
def _ball(generators: tuple, radius: int) -> tuple[np.ndarray, np.ndarray]:
    """Lattice indices within ``radius`` of 0 and their cartesian points."""
    pts = lattice_points(generators, np.zeros(len(generators)), radius)
    return pts, pts @ np.asarray(generators, dtype=float)


def plane_gaps(generators, k: int, sign: int, gamma, t, planes: int) -> np.ndarray:
    """Lower bounds g_j <= |lam - |gamma + delta + t|^2| over sign*delta_k >= j.

    Entries j = 1..planes.  The ball of radius R >= sqrt(lam) + planes + 2 is
    scanned; outside it |gamma + delta + t| > R - sqrt(lam), so every gap
    there exceeds (R - sqrt(lam))^2 - lam, which caps each bound.
    """
    g = np.asarray(generators, dtype=float)
    base = np.asarray(gamma, dtype=float) @ g + np.asarray(t, dtype=float)
    lam = float(base @ base)
    radius = math.ceil(math.sqrt(lam)) + planes + 2
    pts, cart = _ball(tuple(map(tuple, generators)), radius)
    floor = (radius - math.sqrt(lam)) ** 2 - lam
    v = base + cart
    gaps = np.abs(lam - (v * v).sum(axis=1))
    plane = sign * pts[:, k - 1]
    cone = plane >= 1
    mins = np.full(planes + 1, floor)
    np.minimum.at(mins, np.minimum(plane[cone], planes), gaps[cone])
    return np.minimum.accumulate(mins[::-1])[::-1][1:]


def _unit_disc(rng, scale: float = 1.0) -> complex:
    r = scale * math.sqrt(rng.uniform(0.0, 1.0))
    theta = rng.uniform(0.0, 2.0 * math.pi)
    return complex(r * math.cos(theta), r * math.sin(theta))


def _halfspace_support(rng, dim: int, k: int, sign: int, harmonics: int) -> list:
    """Distinct indices on planes sign*p in {1, 2}, other entries in [-2, 2]."""
    out: list[tuple[int, ...]] = []
    while len(out) < harmonics:
        idx = [int(rng.integers(-2, 3)) for _ in range(dim)]
        idx[k - 1] = sign * int(rng.integers(1, 3))
        if tuple(idx) not in out:
            out.append(tuple(idx))
    return out


def _potential_records(coeffs: dict) -> list[dict]:
    return [
        {"index": list(n), "re": v.real, "im": v.imag} for n, v in coeffs.items()
    ]


def _nonresonant(rng, generators, harmonics: int, order: int, tail: float):
    """(coeffs, gamma, t) with every cone denominator at least ``MIN_GAP``.

    The term of order m lives on planes >= m, so its l1 mass is at most
    prod_{j<=m} M / g_j for a potential of l1 norm M.  M is set so that this
    bound reaches ``tail`` at ``order``: the series is certain to converge
    there, and strong enough to need most of the orders.
    """
    dim = len(generators)
    while True:
        k = int(rng.integers(1, dim + 1))
        sign = 1 if rng.uniform() < 0.5 else -1
        gamma = [0] * dim
        gamma[int(rng.integers(0, dim))] = int(rng.choice((-1, 0, 1)))
        t = rng.uniform(0.05, 0.45, size=dim)
        gaps = plane_gaps(generators, k, sign, gamma, t, order)
        if gaps[0] < MIN_GAP:
            continue
        support = _halfspace_support(rng, dim, k, sign, harmonics)
        raw = {n: _unit_disc(rng) for n in support}
        norm = math.exp((math.log(tail) + np.log(gaps).sum()) / order)
        scale = norm / sum(abs(v) for v in raw.values())
        return {n: v * scale for n, v in raw.items()}, gamma, [float(x) for x in t]


def _config(generators, coeffs: dict, t, params: dict) -> dict:
    return {
        "dimension": len(generators),
        "generators": [list(row) for row in generators],
        "potential": _potential_records(coeffs),
        "t": list(t),
        "params": params,
    }


# -- workloads -----------------------------------------------------------------------


def _coeffs_instance(rng, stratum: tuple, slot: tuple[int, int]) -> Instance:
    name, generators, harmonics, order, depth = stratum
    coeffs, gamma, t = _nonresonant(rng, generators, harmonics, order, TAIL_BOUND)
    params = {"gamma": gamma, "method": "both", "order": order, "depth": depth}
    return Instance("bloch", _config(generators, coeffs, t, params), name)


COEFFS_STRATA = (
    ("identity-2d", IDENTITY_2D, 6, 14, 10),
    ("skewed-2d", SKEWED_2D, 6, 14, 10),
    ("identity-2d", IDENTITY_2D, 5, 14, 10),
    ("skewed-2d", SKEWED_2D, 5, 14, 10),
    ("identity-2d", IDENTITY_2D, 7, 14, 10),
    ("skewed-3d", SKEWED_3D, 5, 10, 8),
)


def _oracle_instance(rng, stratum: tuple, slot: tuple[int, int]) -> Instance:
    name, generators, cutoff = stratum
    coeffs, gamma, t = _nonresonant(rng, generators, 5, 14, TAIL_BOUND)
    params = {"gamma": gamma, "cutoff": cutoff}
    return Instance("oracle", _config(generators, coeffs, t, params), name)


ORACLE_STRATA = tuple(
    (f"{name}-c{cutoff}", generators, float(cutoff))
    for cutoff, (name, generators) in zip(
        (10, 20, 12, 18, 14, 16, 15),
        (("identity", IDENTITY_2D), ("skewed", SKEWED_2D)) * 4,
    )
)


#: reduced (pi^2 units) draws for the 1-D family, all exact rationals
ONED_DRAWS = (
    Fraction(0),
    Fraction(3, 10),
    Fraction(-3, 10),
    Fraction(1, 2),
    Fraction(-7, 4),
)
ONED_TUNED = (Fraction(1, 2), Fraction(-3, 10), Fraction(7, 4), Fraction(2, 5))

#: nonzero 1-D criteria below this size are too close to the rank threshold
#: to decide, as in the acceptance suite's borderline band
ONED_BORDERLINE = 1e-3


def oned_criterion(n: int, q: dict) -> Fraction:
    """q_{2n} + sum_p q_{2n-p} c_p with 4 p (2n - p) c_p = q_p + sum_j q_j c_{p-j}."""
    c = {0: Fraction(1)}
    for p in range(1, 2 * n):
        total = q.get(p, 0) + sum(q.get(j, 0) * c[p - j] for j in range(1, p))
        c[p] = Fraction(total) / (4 * p * (2 * n - p))
    return q.get(2 * n, 0) + sum(q.get(2 * n - p, 0) * c[p] for p in range(1, 2 * n))


def _oned_instance(rng, tuned: bool) -> Instance:
    n = int(rng.integers(1, 3))
    while True:
        if tuned:
            alpha = ONED_TUNED[int(rng.integers(0, len(ONED_TUNED)))]
            q = {1: alpha, 2: -alpha * alpha / 4}
        else:
            q = {1: ONED_DRAWS[int(rng.integers(1, len(ONED_DRAWS)))]}
            for m in range(2, 5):
                q[m] = ONED_DRAWS[int(rng.integers(0, len(ONED_DRAWS)))]
        crit = oned_criterion(n, q)
        if crit == 0 or abs(crit) >= ONED_BORDERLINE:
            break
    config = {
        "dimension": 1,
        "generators": [list(row) for row in ONED],
        "potential": [
            {"index": [m], "re": str(v)} for m, v in sorted(q.items()) if v != 0
        ],
        "t": [0.0],
        "params": {"mode": "both", "n": n},
    }
    return Instance("multiplicity", config, "1d-tuned" if tuned else "1d-draw")


def _first_halfspace(support) -> tuple[int, int] | None:
    """First (k, sign) in the order k = 1..d, '+' before '-' holding the support."""
    dim = len(next(iter(support)))
    for k in range(1, dim + 1):
        for sign in (1, -1):
            if all(sign * n[k - 1] >= 1 for n in support):
                return k, sign
    return None


def _second_plane_instance(rng, lam: int, cutoff: float) -> Instance:
    """Identity lattice at t = 0 with a second-plane member of the lam group.

    lam = 1: member (0, s), leading (1, 0); the criterion is q_(1,-s).
    lam = 2: member (-1, s), leading (1, 1) and (1, -1); the criterion sums
    the plane-2 jumps q_(2, +-1-s) and the two-step paths through plane 0.
    Half the instances drop every coefficient a criterion path can use, so
    both verdicts occur.  The k = 2 instances are transposes.
    """
    s = 1 if rng.uniform() < 0.5 else -1
    member = [0, s] if lam == 1 else [-1, s]
    if lam == 1:
        critical = {(1, -s)}
    else:
        critical = {(2, 1 - s), (2, -1 - s)} | {(1, a) for a in range(-2, 3)}
    k = 1 if rng.uniform() < 0.5 else 2
    drop = rng.uniform() < 0.5
    candidates = [(p, a) for p in (1, 2) for a in range(-2, 3)]
    while True:
        picks = rng.choice(len(candidates), size=int(rng.integers(3, 7)), replace=False)
        coeffs = {candidates[i]: _unit_disc(rng, 0.6) for i in sorted(picks)}
        # (2, -1) is off every criterion path for both groups and both signs
        coeffs.setdefault((2, -1), _unit_disc(rng, 0.6))
        if drop:
            coeffs = {n: v for n, v in coeffs.items() if n not in critical}
        if k == 2:
            coeffs = {(a, p): v for (p, a), v in coeffs.items()}
        if _first_halfspace(coeffs) == (k, 1):
            break
    if k == 2:
        member = member[::-1]
    params = {"mode": "2d-second-plane", "k": k, "member": member, "cutoff": cutoff}
    return Instance(
        "multiplicity",
        _config(IDENTITY_2D, coeffs, [0.0, 0.0], params),
        f"2d-lam{lam}-c{int(cutoff)}",
    )


#: the four cutoff-10 strata sit in the middle of the cost order, so the
#: median instance falls well inside one size class rather than between two
MULTIPLICITY_STRATA = (
    ("1d", True),
    ("2d", 1, 6.0),
    ("2d", 1, 10.0),
    ("2d", 2, 10.0),
    ("2d", 1, 14.0),
    ("2d", 2, 16.0),
    ("1d", False),
    ("2d", 2, 8.0),
    ("2d", 1, 10.0),
    ("2d", 2, 10.0),
    ("2d", 2, 12.0),
    ("2d", 1, 16.0),
)


def _multiplicity_instance(rng, stratum: tuple, slot: tuple[int, int]) -> Instance:
    if stratum[0] == "1d":
        return _oned_instance(rng, stratum[1])
    return _second_plane_instance(rng, stratum[1], stratum[2])


FERMI_STRATA = tuple(
    (name, generators, resolution)
    for resolution in (7, 9, 11, 13, 15, 17)
    for name, generators in (
        ("identity", IDENTITY_2D),
        ("skewed", SKEWED_2D),
        ("hexagonal", HEXAGONAL_2D),
        ("scaled", SCALED_2D),
    )
)


def _fermi_instance(rng, stratum: tuple, slot: tuple[int, int]) -> Instance:
    """rho and the threshold, which set the cost, are spread evenly over the
    rounds of the pool; the seed only moves each inside its share."""
    name, generators, resolution = stratum
    r, rounds = slot

    def spread(lo: float, hi: float, shift: int) -> float:
        return lo + (hi - lo) * ((r + shift) % rounds + rng.uniform()) / rounds

    params = {
        "rho": float(spread(0.3, 1.3, 0)),
        "resolution": resolution,
        "threshold": float(spread(0.02, 0.06, rounds // 2)),
    }
    config = {
        "dimension": 2,
        "generators": [list(row) for row in generators],
        "params": params,
    }
    return Instance("fermi", config, f"{name}-r{resolution}")


_GENERATORS = {
    "coeffs": (COEFFS_STRATA, _coeffs_instance),
    "oracle": (ORACLE_STRATA, _oracle_instance),
    "multiplicity": (MULTIPLICITY_STRATA, _multiplicity_instance),
    "fermi": (FERMI_STRATA, _fermi_instance),
}


def strata_count(workload: str) -> int:
    return len(_GENERATORS[workload][0])


def timed_rounds(workload: str) -> int:
    """Stratum rounds in the timed pool: at least ``TIMED_POOL_MIN`` instances."""
    return -(-TIMED_POOL_MIN // strata_count(workload))


def trace_rounds(workload: str) -> int:
    """Stratum rounds in one traced pass: at least ``TRACE_PASS_MIN`` instances."""
    return -(-TRACE_PASS_MIN // strata_count(workload))


def generate(workload: str, seed: int, rounds: int) -> list[Instance]:
    """``rounds`` rounds over the workload's strata, seeded by ``seed``."""
    strata, make = _GENERATORS[workload]
    rng = np.random.default_rng([WORKLOADS.index(workload), seed])
    return [make(rng, stratum, (r, rounds)) for r in range(rounds) for stratum in strata]
