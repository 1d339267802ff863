"""Shared independent oracles and instance generators for the test suite.

Oracles here deliberately avoid the library's own code paths: brute-force
box scans, explicit Gram-Schmidt, literal chain-sum evaluation.  Expected
values frozen into tests were computed with these.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from fractions import Fraction

import numpy as np

import halfspace_bloch as hb
from halfspace_bloch import bloch, coeffset, galerkin, lattice, rootfn, spectrum
from halfspace_bloch.errors import NoEigenvectorError, ResonanceError

# -- geometry oracles ---------------------------------------------------------


def gram_schmidt_separation(generators: np.ndarray, k: int) -> float:
    """Separation constant by explicit sequential Gram-Schmidt projection."""
    mat = np.asarray(generators, dtype=float)
    others = [mat[j] for j in range(mat.shape[0]) if j != k - 1]
    ortho: list[np.ndarray] = []
    for v in others:
        w = v.astype(float)
        for u in ortho:
            w = w - (w @ u) * u
        ortho.append(w / np.linalg.norm(w))
    h = mat[k - 1].astype(float)
    for u in ortho:
        h = h - (h @ u) * u
    return float(np.linalg.norm(h))


def ball_scan_oracle(basis: hb.LatticeBasis, center, radius: float):
    """Brute-force bounding-box scan for the lattice ball."""
    center = np.asarray(center, dtype=float)
    spread = int(math.ceil(radius * np.abs(basis._inverse).sum())) + 2
    mid = np.rint(center @ basis._inverse).astype(int)
    out = []
    for n in itertools.product(
        *[range(m - spread, m + spread + 1) for m in mid]
    ):
        v = basis.to_cartesian(n) - center
        if math.sqrt(float(v @ v)) <= radius:
            out.append(n)
    return sorted(out)


def collision_scan_oracle(basis, gamma, t, radius=8.0, tol=1e-9):
    """All lattice points whose free eigenvalue collides with gamma's."""
    lam = spectrum.eigenvalue(basis, gamma, t)
    hits = []
    for n in ball_scan_oracle(basis, -np.asarray(t, float), radius):
        if abs(spectrum.eigenvalue(basis, n, t) - lam) <= tol:
            hits.append(n)
    return sorted(hits)


# -- 1-D chain-sum oracle -----------------------------------------------------


def compositions(total: int, parts: int):
    """All tuples of ``parts`` positive integers summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def oned_chain_oracle(n: int, q: dict, p: int):
    """Literal chain-sum evaluation of the 1-D coefficient (reduced units).

    c_p = (q_p + sum over chains q_{n_1}..q_{n_k} q_{p-n(k)} / prod_s
    4 (p - n(s)) (2n - p + n(s))) / (4 p (2n - p)).
    """
    total = q.get(p, 0)
    for k in range(1, p):
        for comp in compositions(p, k + 1):
            prod = q.get(comp[-1], 0)
            for m in comp[:-1]:
                prod = prod * q.get(m, 0)
            if prod == 0:
                continue
            denom = 1
            running = 0
            for s in range(k):
                running += comp[s]
                denom *= 4 * (p - running) * (2 * n - p + running)
            total = total + prod / denom
    return total / (4 * p * (2 * n - p))


# -- instance generators ------------------------------------------------------


def random_unit_disc(rng, scale: float = 1.0) -> complex:
    r = scale * math.sqrt(rng.uniform(0, 1))
    theta = rng.uniform(0, 2 * math.pi)
    return complex(r * math.cos(theta), r * math.sin(theta))


def random_halfspace_potential(
    rng,
    basis,
    k: int = 1,
    sign: str = "+",
    max_harmonics: int = 8,
    max_p: int = 3,
    max_a: int = 3,
    coeff_scale: float = 1.0,
):
    """Random finite potential supported in the (k, sign) open half-lattice.

    Raises ``ValueError`` when the drawn harmonic count exceeds the distinct
    harmonics that ``max_p``, ``max_a`` and the dimension allow.
    """
    sig = 1 if sign == "+" else -1
    count = int(rng.integers(1, max_harmonics + 1))
    available = max_p * (2 * max_a + 1) ** (basis.dimension - 1)
    if count > available:
        raise ValueError(f"drew {count} harmonics, but only {available} distinct ones exist")
    coeffs = {}
    while len(coeffs) < count:
        p = sig * int(rng.integers(1, max_p + 1))
        a = [int(rng.integers(-max_a, max_a + 1)) for _ in range(basis.dimension - 1)]
        idx = list(a)
        idx.insert(k - 1, p)
        coeffs[tuple(idx)] = random_unit_disc(rng, coeff_scale)
    return hb.FourierPotential(basis, coeffs)


def scaled(q, factor: complex):
    """The potential with every coefficient multiplied by ``factor``."""
    return hb.FourierPotential(
        q.basis,
        {n: factor * v for n, v in q.coeffs.items()},
        mode=q.mode,
        truncation_radius=q.truncation_radius,
    )


def random_rational_t(rng, basis, denominator_max: int = 9) -> np.ndarray:
    """Quasimomentum with rational generator coordinates in [-1/2, 1/2)."""
    coords = []
    for _ in range(basis.dimension):
        den = int(rng.integers(2, denominator_max + 1))
        num = int(rng.integers(-(den // 2), den - den // 2))
        frac = Fraction(num, den)
        if frac >= Fraction(1, 2):
            frac -= 1
        coords.append(float(frac))
    return np.asarray(coords) @ basis.generators


def min_denominator_gap(basis, q, gamma, t, floor: float = 9.0) -> float:
    """Sound lower bound for |lam - |gamma+delta+t|^2| over the support cone.

    Scans every delta on positive planes within the ball where the gap could
    be below ``floor``; outside it the gap exceeds ``floor`` by the triangle
    inequality.
    """
    lam = spectrum.eigenvalue(basis, gamma, t)
    r = math.sqrt(lam)
    radius = r + math.sqrt(lam + floor) + 1.0
    k, sign = q.k, q.sign
    sig = 1 if sign == "+" else -1
    best = floor
    base = basis.to_cartesian(gamma) + np.asarray(t, float)
    for n in reference_enumerate_ball(basis, np.zeros(basis.dimension), radius):
        if sig * n[k - 1] < 1:
            continue
        v = base + basis.to_cartesian(n)
        best = min(best, abs(lam - float(v @ v)))
    return best


def nonresonant_instance(rng, basis, max_harmonics: int = 6, min_gap: float = 1.0):
    """(q, gamma, t) with potential scaled to M <= min(0.5, 0.5 * gap).

    Resamples gamma and t until every denominator in the support cone is
    bounded below by ``min_gap``.
    """
    gammas = [(0, 0), (1, 0), (0, 1), (-1, 0), (0, -1)]
    while True:
        q = random_halfspace_potential(
            rng, basis, max_harmonics=max_harmonics, max_p=2, max_a=2
        )
        gamma = gammas[int(rng.integers(0, len(gammas)))]
        t = rng.uniform(0.05, 0.45, size=basis.dimension)
        gap = min_denominator_gap(basis, q, gamma, t)
        if gap < min_gap:
            continue
        target = min(0.5, 0.5 * gap)
        if q.norm_l1 > target:
            q = scaled(q, target / q.norm_l1)
        return q, gamma, t


# -- 1-D oracle helpers --------------------------------------------------------

PI_SQ = math.pi**2

#: draw set for reduced 1-D coefficients: exact rationals plus one complex pair
ONED_DRAWS = (
    0,
    Fraction(3, 10),
    Fraction(-3, 10),
    complex(0.7, 0.2),
    complex(-0.7, -0.2),
)


def oned_basis() -> hb.LatticeBasis:
    return hb.LatticeBasis(np.array([[2 * math.pi]]))


def oned_potential(reduced: dict) -> hb.FourierPotential:
    """Float-world potential from reduced (pi^2 units) coefficients."""
    return hb.FourierPotential(
        oned_basis(), {(m,): complex(v) * PI_SQ for m, v in reduced.items()}
    )


def oned_oracle_multiplicity(reduced: dict, n: int, cutoff_planes: int | None = None):
    basis = oned_basis()
    planes = cutoff_planes if cutoff_planes is not None else 3 * n + 2
    op = galerkin.build(basis, oned_potential(reduced), (0.0,), 2 * math.pi * planes)
    lam = spectrum.eigenvalue(basis, (n,), (0.0,))
    return galerkin.geometric_multiplicity(op, lam), op, lam


# -- dict-loop references for the coefficient kernel ---------------------------
#
# The loops the array kernel in ``coeffset`` replaced, kept literally: the
# kernel must reproduce them bit for bit (coefficients, tails, term masses,
# the first resonance hit).


def apply_A(basis, q, gamma, t, coeffs):
    """One application of the series transformation A to a coefficient map.

    Not an oracle: a row kernel on the library's ``coeffset`` primitives and
    guard, so tests can apply A to a map in any order;
    ``reference_apply_A`` is the dict loop it must match.  Sends mass at
    offset delta to delta + g1 for every support index g1 of the potential,
    weighted by q_{g1} / (lam - |gamma + delta + g1 + t|^2); raises
    :class:`ResonanceError` at the first target denominator that collides
    with lam.  The result is sorted, zeros dropped.
    """
    gamma = lattice.as_index(gamma, basis.dimension)
    t = np.asarray(t, dtype=float)
    lam = spectrum.eigenvalue(basis, gamma, t)
    support, qvals = coeffset.from_mapping(q.coeffs, basis.dimension)
    offsets, values = coeffset.from_mapping(coeffs, basis.dimension)
    lo, spans, keys, shifts = coeffset.sum_box(support, 1, base=offsets)
    targets, at, re, im = coeffset.convolve(shifts, qvals, keys, values)
    rows = coeffset.unpack(targets, lo, spans)
    gap = lam - spectrum.eigenvalues(basis, rows + gamma, t)
    bloch._guard(gap, lam, rows, "resonant denominator at offset {}: {!r}", at)
    re, im = coeffset.divide(re, im, gap[at])
    out = coeffset.nonzero(rows, coeffset.accumulate(at, re, im, targets.size))
    return coeffset.to_dict(*out)


def reference_apply_A(basis, q, gamma, t, coeffs):
    gamma = tuple(gamma)
    t = np.asarray(t, dtype=float)
    lam = spectrum.eigenvalue(basis, gamma, t)
    tol = spectrum.denominator_tolerance(lam)
    out = {}
    for g1, qv in q.coeffs.items():
        for delta, cv in coeffs.items():
            target = tuple(a + b for a, b in zip(delta, g1))
            denom = lam - spectrum.eigenvalue(
                basis, tuple(a + b for a, b in zip(gamma, target)), t
            )
            if abs(denom) < tol:
                raise ResonanceError(
                    f"resonant denominator at offset {target}: {denom!r}",
                    index=target,
                    value=denom,
                )
            out[target] = out.get(target, 0j) + qv * cv / denom
    return {n: v for n, v in sorted(out.items()) if v != 0}


def reference_series(basis, q, gamma, t, max_order, tail_tol):
    """(coeffs, order, tail, term_masses) of the dict-loop series."""
    gamma = tuple(gamma)
    zero = (0,) * basis.dimension
    total = {zero: 1.0 + 0j}
    term = {zero: 1.0 + 0j}
    masses = []
    tail = 0.0
    order = 0
    for order in range(1, max_order + 1):
        term = reference_apply_A(basis, q, gamma, t, term)
        tail = sum(abs(v) for v in term.values())
        masses.append(tail)
        for n, v in term.items():
            total[n] = total.get(n, 0j) + v
        if tail < tail_tol:
            break
    if not q.coeffs:
        order, tail = 0, 0.0
    total = {n: v for n, v in sorted(total.items()) if v != 0}
    total[zero] = 1.0 + 0j
    return total, order, tail, tuple(masses)


def reference_closed_form(basis, q, gamma, t, depth):
    gamma = tuple(gamma)
    sig = 1 if q.sign == "+" else -1
    t = np.asarray(t, dtype=float)
    lam = spectrum.eigenvalue(basis, gamma, t)
    tol = spectrum.denominator_tolerance(lam)
    zero = (0,) * basis.dimension
    by_plane = {}
    for g1, qv in q.coeffs.items():
        by_plane.setdefault(sig * g1[q.k - 1], []).append((g1, qv))
    computed = {0: {zero: 1.0 + 0j}}
    for p in range(1, depth + 1):
        numerators = {}
        for p1, entries in by_plane.items():
            lower = computed.get(p - p1)
            if not lower:
                continue
            for g1, qv in entries:
                for dlt, cv in lower.items():
                    target = tuple(a + b for a, b in zip(dlt, g1))
                    numerators[target] = numerators.get(target, 0j) + qv * cv
        plane_coeffs = {}
        for dlt, num in sorted(numerators.items()):
            d = lam - spectrum.eigenvalue(
                basis, tuple(a + b for a, b in zip(gamma, dlt)), t
            )
            if abs(d) < tol:
                raise ResonanceError(
                    f"d(gamma, delta) vanished at delta={dlt}: {d!r}",
                    index=dlt,
                    value=d,
                )
            if num != 0:
                plane_coeffs[dlt] = num / d
        computed[p] = plane_coeffs
    coeffs = {zero: 1.0 + 0j}
    for p in range(1, depth + 1):
        coeffs.update(computed[p])
    return dict(sorted(coeffs.items()))


def reference_reach(steps, rises, top):
    """(lo, spans, shifts, layers): the sums of ``steps`` up to plane ``top``,
    layer by layer, as sorted distinct packed keys over the box of
    ``coeffset.sum_box``; ``shifts[i]`` is the key change of step i."""
    lo, spans, origin, shifts = coeffset.sum_box(np.array(steps, dtype=np.int64), top)
    rises = np.array(rises)
    by_rise = [(r, shifts[rises == r][:, None]) for r in dict.fromkeys(rises.tolist())]
    layers = [origin]
    for p in range(1, top + 1):
        layers.append(coeffset.distinct(np.concatenate(
            [origin[:0], *((layers[p - r] + s).ravel() for r, s in by_rise if r <= p)]
        )))
    return tuple(lo), tuple(spans), tuple(shifts.tolist()), tuple(layers)


def reference_plan(steps, rises, depth):
    """``coeffset.plan`` in two passes: the walk of :func:`reference_reach`,
    then every step shifted from every row low enough for it, looked up in
    a dict from key to row, and the hits sorted stably by target plane; the
    rows' lexicographic order by Python's sort of their offsets."""
    lo, spans, shifts, layers = reference_reach(steps, rises, depth)
    keys = np.concatenate(layers)
    offsets, inside = coeffset._unpack(keys, lo, spans)
    keys = keys[inside]
    bounds = np.flatnonzero(inside).searchsorted(np.cumsum([0, *map(len, layers)]))
    planes = np.repeat(np.arange(depth + 1), np.diff(bounds))
    rows = np.arange(len(keys))
    row_of = dict(zip(keys.tolist(), rows.tolist()))
    rank = {r: i for i, r in enumerate(dict.fromkeys(rises))}
    order = [i for _, i in sorted((rank[r], i) for i, r in enumerate(rises) if r <= depth)]
    counts = [bounds[depth + 1 - rises[i]] for i in order]
    found = np.array([
        row_of.get(key + shifts[i], -1) for i, n in zip(order, counts) for key in keys[:n].tolist()
    ], dtype=np.intp)
    hit = np.flatnonzero(found >= 0)
    by_plane = hit[planes[found[hit]].argsort(kind="stable")]
    targets = found[by_plane]
    target_planes = planes[targets]
    return coeffset.Plan(
        offsets=offsets,
        bounds=tuple(bounds.tolist()),
        lex=np.array(sorted(rows.tolist(), key=offsets.tolist().__getitem__), dtype=np.intp),
        harmonics=np.repeat(np.array(order, dtype=np.intp), counts)[by_plane],
        targets=targets,
        local=targets - bounds[target_planes],
        predecessors=np.concatenate([rows[:0], *(rows[:n] for n in counts)])[by_plane],
        cuts=tuple(target_planes.searchsorted(np.arange(depth + 2)).tolist()),
    )


def reference_second_plane_solve(basis, q, group, j, criterion_tol=rootfn.CRITERION_TOL):
    """The second-plane system by the dict loop over (a, n), at ``group.t``.

    The base carries weight 1 at the member; each plane n_2+1 .. n_1 is the
    potential convolution of the planes below, divided by its left factor,
    with the group's rows skipped; the criterion is the numerator at each
    leading member.
    """
    if len(group.planes) < 2:
        raise ValueError("group has a single plane: no second-plane members")
    if q.classification is None or q.sign != "+" or q.k != group.k:
        raise ValueError(
            f"potential must be classified (k={group.k}, '+') to match the group"
        )
    k = group.k
    t = np.asarray(group.t, dtype=float)
    lam = group.lam
    tol = spectrum.denominator_tolerance(lam)

    n1 = group.planes[0].n
    n2 = group.planes[1].n
    member = group.planes[1].members[j]
    delta = lattice.decompose(member, k)[0]
    leading_a = tuple(lattice.decompose(b, k)[0] for b in group.planes[0].members)
    group_set = {b for b, _ in group.members}

    # potential split as q_{u + m v_k}: plane m -> {u: coefficient}
    q_planes = {}
    for g1, qv in q.coeffs.items():
        a, m = lattice.decompose(g1, k)
        q_planes.setdefault(m, {})[a] = qv

    def index_at(a, n):
        return a[: k - 1] + (n,) + a[k:]

    # c[(a, n)] over planes n2+1 .. n1; the base carries weight 1 at (delta, n2)
    coeffs = {}

    def numerator(a, n):
        base_jump = q_planes.get(n - n2, {})
        total = base_jump.get(tuple(x - y for x, y in zip(a, delta)), 0j)
        for m in range(1, n - n2):
            plane = q_planes.get(m)
            if not plane:
                continue
            for u, qv in plane.items():
                prev = coeffs.get((tuple(x - y for x, y in zip(a, u)), n - m))
                if prev is not None:
                    total += prev * qv
        return total

    reach = {delta}
    for n in range(n2 + 1, n1 + 1):
        reach = {
            tuple(x + y for x, y in zip(a, u))
            for a in reach
            for m, plane in q_planes.items()
            for u in plane
        } | reach
        for a in sorted(reach):
            num = numerator(a, n)
            point = index_at(a, n)
            left = lam - spectrum.eigenvalue(basis, point, t)
            if abs(left) < tol:
                if point in group_set:
                    continue  # criterion rows handled below
                raise ResonanceError(
                    f"left factor vanished at non-group index {point}; the "
                    "group lacks this colliding point",
                    index=point,
                    value=left,
                )
            if num != 0:
                coeffs[(a, n)] = num / left

    criterion = tuple(numerator(a_i, n1) for a_i in leading_a)
    all_zero = all(abs(c) <= criterion_tol for c in criterion)
    return rootfn.RootFunctionReport(
        group=group,
        plane=2,
        member=member,
        coefficients=coeffs,
        criterion_values=criterion,
        classification=(
            rootfn.Classification.EIGENFUNCTION if all_zero else rootfn.Classification.ASSOCIATED
        ),
        associated_bound=None if all_zero else 1,
        criterion_tol=criterion_tol,
    )


def reference_convolve(a, b):
    out = {}
    for na, va in a.items():
        for nb, vb in b.items():
            key = tuple(x + y for x, y in zip(na, nb))
            out[key] = out.get(key, 0j) + va * vb
    return {n: v for n, v in sorted(out.items()) if v != 0}


def reference_residual(basis, q, psi):
    t = np.asarray(psi.t, dtype=float)
    defect = {}
    for dlt, cv in psi.coeffs.items():
        shifted = spectrum.eigenvalue(
            basis, tuple(a + b for a, b in zip(psi.gamma, dlt)), t
        )
        defect[dlt] = defect.get(dlt, 0j) + (shifted - psi.lam) * cv
    for n, v in reference_convolve(q.coeffs, psi.coeffs).items():
        defect[n] = defect.get(n, 0j) + v
    return math.hypot(*(abs(v) for v in defect.values()))


def reference_max_discrepancy(a, b, max_plane=None):
    limit = min(a.order, b.order) if max_plane is None else max_plane
    sig = 1 if a.sign == "+" else -1
    worst = 0.0
    for key in set(a.coeffs) | set(b.coeffs):
        p = sig * key[a.k - 1]
        if 0 < p <= limit or key == (0,) * len(key):
            worst = max(worst, abs(a.coeffs.get(key, 0j) - b.coeffs.get(key, 0j)))
    return worst


def reference_evaluate_function(basis, psi, x):
    x = np.asarray(x, dtype=float)
    t = np.asarray(psi.t, dtype=float)
    total = 0j
    for delta, cv in psi.coeffs.items():
        wave = basis.to_cartesian(tuple(a + b for a, b in zip(psi.gamma, delta))) + t
        total += cv * np.exp(1j * float(wave @ x))
    return total


# -- loop references for the batched lattice layer -----------------------------
#
# The per-point loops that ``enumerate_ball``, ``distance_to_surface``,
# ``sample_surface`` and ``degeneracy_group`` replaced, kept
# literally with the original ``n @ generators`` coordinates: the batched code
# must reproduce them bit for bit, ties and boundary points included.


def reference_cartesian(basis, n):
    return np.asarray(n, dtype=float) @ basis.generators


def reference_eigenvalue(basis, n, t):
    v = reference_cartesian(basis, n) + np.asarray(t, dtype=float)
    return float(v @ v)


def reference_enumerate_ball(basis, center, radius):
    c = np.asarray(center, dtype=float)
    mid = c @ basis._inverse
    half = radius * np.sqrt((basis._inverse**2).sum(axis=0))
    pad = lattice._BOX_PAD
    ranges = [
        range(math.ceil(m - h - pad), math.floor(m + h + pad) + 1)
        for m, h in zip(mid, half)
    ]
    out = []
    for n in itertools.product(*ranges):
        v = reference_cartesian(basis, n) - c
        if math.sqrt(float(v @ v)) <= radius:
            out.append(n)
    return out


# The constructions that lattice.grid and galerkin._plane_bounds replaced,
# kept as they were: the integer box and the Fermi t-grid as np.meshgrid +
# np.stack, the fundamental-domain diameter as a loop over the sign vectors,
# and the plane blocks as np.diff + np.flatnonzero + np.append.


def reference_meshgrid_ball(basis, center, radius):
    c = np.asarray(center, dtype=float)
    mid = c @ basis._inverse
    half = radius * basis._dual_norms
    pad = lattice._BOX_PAD
    axes = [
        np.arange(math.ceil(m - h - pad), math.floor(m + h + pad) + 1, dtype=np.int64)
        for m, h in zip(mid, half)
    ]
    box = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, basis.dimension)
    keep = np.sqrt(lattice.squared_norms(basis.to_cartesian(box) - c)) <= radius
    return box[keep]


def reference_meshgrid_ts(basis, resolution):
    axis = np.linspace(-0.5, 0.5, resolution)
    grids = np.meshgrid(*([axis] * basis.dimension), indexing="ij")
    return basis.to_cartesian(np.stack([g.ravel() for g in grids], axis=-1))


def reference_diameter(basis):
    best = 0.0
    for signs in itertools.product((-1.0, 1.0), repeat=basis.dimension):
        v = np.asarray(signs) @ basis.generators
        best = max(best, math.sqrt(float(v @ v)))
    return best


def reference_plane_bounds(planes):
    planes = np.asarray(planes, dtype=np.int64)
    return np.append(np.flatnonzero(np.diff(planes, prepend=planes[:1] - 1)), len(planes))


def reference_distance_to_surface(basis, t, rho, cutoff):
    t = np.asarray(t, dtype=float)
    best = None
    for n in reference_enumerate_ball(basis, -t, cutoff):
        dist = abs(math.sqrt(reference_eigenvalue(basis, n, t)) - rho)
        if best is None or dist < best[0]:
            best = (dist, n)
    return best


def reference_sample_surface(basis, rho, resolution, threshold, cutoff=None):
    """The retained ``points`` of the per-point scan."""
    if cutoff is None:
        cutoff = rho + basis.fundamental_diameter() + 1.0
    axis = np.linspace(-0.5, 0.5, resolution)
    grids = np.meshgrid(*([axis] * basis.dimension), indexing="ij")
    coords = np.stack([g.ravel() for g in grids], axis=-1)
    points = []
    for c in coords:
        t = c @ basis.generators
        dist, gamma = reference_distance_to_surface(basis, t, rho, cutoff)
        if dist <= threshold:
            points.append((tuple(float(x) for x in t), dist, gamma))
    return tuple(points)


def reference_group_scan(basis, gamma, t, k, cutoff):
    """(members in canonical order, excluded_gap) of the degeneracy-group loop."""
    t = np.asarray(t, dtype=float)
    lam = reference_eigenvalue(basis, gamma, t)
    tol = spectrum.denominator_tolerance(lam)
    members = []
    excluded_gap = math.inf
    for n in reference_enumerate_ball(basis, -t, cutoff):
        gap = abs(reference_eigenvalue(basis, n, t) - lam)
        if gap < tol:
            members.append((n, n[k - 1]))
        else:
            excluded_gap = min(excluded_gap, gap)
    members.sort(key=lambda item: (-item[1], item[0]))
    return tuple(members), excluded_gap


# -- dense references for the core rank probes ---------------------------------
#
# The geometric probe as it was before it moved to the plane window and then
# to its core: one SVD of the whole M - lam, threshold 1e-9 times its
# spectral norm.  The Jordan probe on the dense plane window block, which
# needs only the plane lemma, with ker A^2 ranked by deflation against the
# block's own threshold.  The core probes must give the same integers on
# operators whose singular values sit far from the thresholds.


def _dense_rank(a, threshold=None):
    svals = np.linalg.svd(a, compute_uv=False)
    if threshold is None:
        threshold = galerkin.RANK_TOL_SCALE * (float(svals[0]) if svals.size else 0.0)
    return int(np.sum(svals > threshold))


def reference_geometric_multiplicity(op, lam):
    a = op.matrix - lam * np.eye(op.size)
    return op.size - _dense_rank(a)


def reference_jordan_chain_excess(op, lam, subset=None):
    """dim ker A^2 - dim ker A on the dense window block of A = M - lam.

    The window is every row of the subset (default: all rows) on the planes
    from the first to the last that hold a diagonal entry within
    ``eigen_eq_tol()`` of lam.  ker A^2 = ker((I - K K^H) A), K an
    orthonormal basis of ker A from the block's SVD.
    """
    pos = range(op.size) if subset is None else sorted({op.position(n) for n in subset})
    pos = np.array(pos, dtype=int)
    near = pos[np.abs(op.matrix_diagonal[pos] - lam) <= op.eigen_eq_tol()]
    if not near.size:
        return 0
    planes = op.planes[pos]
    window = pos[(planes >= op.planes[near].min()) & (planes <= op.planes[near].max())]
    a = op.matrix[np.ix_(window, window)] - lam * np.eye(window.size)
    _, svals, vh = np.linalg.svd(a)
    threshold = galerkin.RANK_TOL_SCALE * float(svals[0])
    rank = int(np.sum(svals > threshold))
    null = vh[rank:].conj().T
    return rank - _dense_rank(a - null @ (null.conj().T @ a), threshold)


# -- triangularity and CSV references --------------------------------------------
# The dense witness scan and the per-cell CSV loops that the block scan and
# the %-templates replaced; the library must give the same witness and the
# same text.


def reference_grading_violation(op):
    """First entry (row-major) with row plane <= column plane, off the diagonal."""
    p = np.asarray(op.planes)
    bad = (p[:, None] <= p[None, :]) & (op.matrix != 0)
    np.fill_diagonal(bad, False)
    rows, cols = np.nonzero(bad)
    if rows.size == 0:
        return None
    return op.index_set[rows[0]], op.index_set[cols[0]]


def triangular_spectrum(op):
    """The eigenvalues of a plane-triangular truncation, its sorted diagonal;
    asserts first that the matrix is plane-triangular, which makes them so."""
    assert galerkin.is_plane_triangular(op)
    return tuple(np.sort(op.matrix_diagonal.real, kind="stable").tolist())


def reference_surface_csv(sample):
    dim = sample.dimension
    cols = [f"t_{i+1}" for i in range(dim)] + ["distance"] + [
        f"gamma_{i+1}" for i in range(dim)
    ]
    lines = [",".join(cols)]
    for t, dist, gamma in sample.points:
        row = [f"{x:.17g}" for x in t] + [f"{dist:.17g}"] + [str(g) for g in gamma]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def reference_matrix_csv(op):
    return "".join(
        ",".join(f"{c.real:.17g}{c.imag:+.17g}i" for c in row) + "\n"
        for row in op.matrix
    )


# -- dense references for the sparse operator -----------------------------------
#
# The N x N build, the row-by-row np.dot substitution loops and the dense
# core slice, found by a loop over the nonzeros.  The sparse operator must
# densify to the same bits, flag the same rows, fail at the same row, and give
# the same core blocks; the backsolved vectors may differ in
# the last digits, since the sums run in another order than np.dot's.


def reference_build(basis, q, t, cutoff):
    """(index_set, dense matrix) of the truncated operator, built N x N.

    The ball comes from the per-point loop, the plane-major order from a
    Python sort, and every coupling target n + g1 is summed in Python ints
    and looked up in a dict, so no int64 sum can wrap.
    """
    k, sign = (q.k or 1), (q.sign or "+")
    sig = lattice.sign_value(sign)
    ball = reference_enumerate_ball(basis, np.zeros(basis.dimension), cutoff)
    index_set = tuple(sorted(ball, key=lambda n: (sig * n[k - 1], n)))
    positions = {n: j for j, n in enumerate(index_set)}
    size = len(index_set)
    matrix = np.zeros((size, size), dtype=complex)
    for j, n in enumerate(index_set):
        matrix[j, j] = reference_eigenvalue(basis, n, t)
    for g1, value in q.coeffs.items():
        for j, n in enumerate(index_set):
            row = positions.get(tuple(a + b for a, b in zip(n, g1)))
            if row is not None:
                matrix[row, j] += value
    return index_set, matrix


def reference_couplings(basis, q, cutoff):
    """(rows, cols, values) of the couplings by the forward search and a sort.

    Every column n looks up its row n + g1 in a dict of the ball's keys over
    the box grown by the steps g1, harmonic by harmonic in support order; one
    stable argsort of row * N + column then puts the hits in row-major order.
    """
    k, sign = (q.k or 1), (q.sign or "+")
    ball = basis.enumerate_ball(np.zeros(basis.dimension), cutoff)
    order = np.argsort(lattice.sign_value(sign) * ball[:, k - 1], kind="stable")
    size = len(ball)
    support, qvals = coeffset.from_mapping(q.coeffs, basis.dimension)
    corners = np.array([ball.min(axis=0, initial=0), ball.max(axis=0, initial=0)])
    span = corners[1] - corners[0] + 1
    fits = ((support > -span) & (support < span)).all(axis=1) & support.any(axis=1)
    support, qvals = support[fits], qvals[fits]
    lo, spans, _, shifts = coeffset.sum_box(support, 1, base=corners)
    keys = coeffset.pack(ball, lo, spans)
    row_of = dict(zip(keys[order].tolist(), range(size)))
    found = np.array(
        [[row_of.get(key, -1) for key in shifted] for shifted in (keys + shifts[:, None]).tolist()],
        dtype=np.intp,
    ).reshape(len(shifts), size)[:, order]
    hit = np.flatnonzero(found >= 0)
    harmonic, cols = np.divmod(hit, size)
    rows, values = found.ravel()[hit], qvals[harmonic] + 0j
    by_entry = np.argsort(rows * size + cols, kind="stable")
    return rows[by_entry], cols[by_entry], values[by_entry]


def reference_eigenvector_backsolve(op, i):
    n = op.size
    if not 0 <= i < n:
        raise IndexError(f"diagonal position {i} out of range")
    lam = op.matrix[i, i]
    eq_tol = op.eigen_eq_tol()
    x = np.zeros(n, dtype=complex)
    x[i] = 1.0
    flagged = []
    for j in range(i + 1, n):
        rhs = -np.dot(op.matrix[j, i:j], x[i:j])
        gap = op.matrix[j, j] - lam
        if abs(gap) <= eq_tol:
            if abs(rhs) > eq_tol:
                raise NoEigenvectorError("blocked", position=j, residual=complex(rhs))
            flagged.append(j)
        else:
            x[j] = rhs / gap
    return galerkin.BacksolveResult(vector=x, leading=i, flagged=tuple(flagged))


def reference_first_associated_backsolve(op, i, eigvec):
    n = op.size
    lam = op.matrix[i, i]
    eq_tol = op.eigen_eq_tol()
    x = np.zeros(n, dtype=complex)
    x[i] = 1.0
    c = None
    flagged = []
    for j in range(i + 1, n):
        rhs = -np.dot(op.matrix[j, i:j], x[i:j])
        gap = op.matrix[j, j] - lam
        if abs(gap) <= eq_tol:
            if abs(eigvec[j]) > eq_tol:
                if c is None:
                    c = complex(-rhs / eigvec[j])
                elif abs(-rhs - c * eigvec[j]) > eq_tol * (1 + abs(c)):
                    raise NoEigenvectorError("inconsistent", position=j, residual=complex(rhs))
            elif abs(rhs) > eq_tol:
                raise NoEigenvectorError("blocked", position=j, residual=complex(rhs))
            flagged.append(j)
        else:
            contribution = c * eigvec[j] if c is not None else 0j
            x[j] = (rhs + contribution) / gap
    result = galerkin.BacksolveResult(vector=x, leading=i, flagged=tuple(flagged))
    return result, (0j if c is None else c)


def reference_core_block(op, lam, positions=None):
    """The core block as a slice of the dense matrix.

    The core is found without planes: over the dense slice's nonzero
    off-diagonal entries (r, c), read as steps c -> r, a Python loop collects
    the rows reached from a near row and the rows that reach one, and keeps
    the rows in both sets.
    """
    pos = list(range(op.size)) if positions is None else [int(j) for j in positions]
    dense = op.matrix[np.ix_(pos, pos)]
    tol = op.eigen_eq_tol()
    near = {i for i in range(len(pos)) if abs(dense[i, i] - lam) <= tol}
    succ, pred = defaultdict(list), defaultdict(list)
    for r, c in zip(*np.nonzero(dense)):
        if r != c:
            succ[int(c)].append(int(r))
            pred[int(r)].append(int(c))

    def closure(step):
        found, todo = set(near), list(near)
        while todo:
            for j in step[todo.pop()]:
                if j not in found:
                    found.add(j)
                    todo.append(j)
        return found

    rows = [pos[i] for i in sorted(closure(succ) & closure(pred))]
    return op.matrix[np.ix_(rows, rows)] - lam * np.eye(len(rows))


def reference_subset_leaks(op, subset):
    """Whether some column in the subset has a nonzero entry in a row outside it."""
    pos = sorted(op.position(n) for n in subset)
    outside = np.setdiff1d(np.arange(op.size), pos)
    return bool(np.any(op.matrix[np.ix_(outside, pos)] != 0))


def reference_interior_cone(op, gamma):
    """Interior cone by the dict loop: the reachable cone plane by plane,
    then each in-ball offset checked against its reachable predecessors."""
    dimension = op.basis.dimension
    gamma = lattice.as_index(gamma, dimension)
    ball = set(op.index_set)
    if gamma not in ball or not op.q.coeffs:
        return {(0,) * dimension} if gamma in ball else set()
    sig = lattice.sign_value(op.sign)
    gamma_plane = sig * gamma[op.k - 1]
    max_plane = int(op.planes.max()) - gamma_plane

    zero = (0,) * dimension
    steps = [(g1, sig * lattice.decompose(g1, op.k)[1]) for g1 in op.q.coeffs]
    # reachable cone by plane, ignoring the ball
    reachable: dict[int, set] = {0: {zero}}
    for p in range(1, max_plane + 1):
        layer: set = set()
        for g1, p1 in steps:
            for prev in reachable.get(p - p1, ()):
                layer.add(tuple(a + b for a, b in zip(prev, g1)))
        reachable[p] = layer

    determined = {zero}
    for p in range(1, max_plane + 1):
        for dlt in reachable[p]:
            node = tuple(a + b for a, b in zip(gamma, dlt))
            if node not in ball:
                continue
            ok = True
            for g1, p1 in steps:
                prev = tuple(a - b for a, b in zip(dlt, g1))
                if prev == zero:
                    continue
                if prev in reachable.get(p - p1, ()):
                    if prev not in determined:
                        ok = False
                        break
            if ok:
                determined.add(dlt)
    return determined
