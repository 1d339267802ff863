"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Tolerances are pinned here, not configurable: structural claims at zero
tolerance, coefficient agreements at 1e-10, residuals at 1e-9, criterion
zero-tests at 1e-10 (or exact rational zero), stated runtime budgets.
"""

import math
import time
from fractions import Fraction

import numpy as np

import halfspace_bloch as hb
from halfspace_bloch import bloch, galerkin, isoenergetic, rootfn, spectrum

import helpers

IDENTITY = hb.identity_basis(2)
SKEWED = hb.LatticeBasis(np.array([[1.0, 0.0], [1.0, 1.0]]))
SCALED = hb.LatticeBasis(2 * math.pi * np.eye(2))


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num}] {name}: {status}{suffix}")


# -- shared instance set for criteria 2-4 --------------------------------------

_INSTANCES = None


def nonresonant_instances():
    global _INSTANCES
    if _INSTANCES is None:
        rng = np.random.default_rng(2024)
        _INSTANCES = [
            helpers.nonresonant_instance(rng, IDENTITY, max_harmonics=6)
            for _ in range(50)
        ]
    return _INSTANCES


def test_criterion_1_spectrum_identity():
    rng = np.random.default_rng(1001)
    ts = [helpers.random_rational_t(rng, IDENTITY) for _ in range(10)]
    started = time.perf_counter()
    ok = True
    for i in range(100):
        q = helpers.random_halfspace_potential(
            rng, IDENTITY, k=1, sign="+", max_harmonics=8, coeff_scale=1.0
        )
        t = ts[i % 10]
        op = galerkin.build(IDENTITY, q, t, 6.0)
        if not galerkin.is_plane_triangular(op):
            ok = False
            break
        values = helpers.triangular_spectrum(op)
        free = tuple(sorted(spectrum.eigenvalue(IDENTITY, n, t) for n in op.index_set))
        if values != free:
            ok = False
            break
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 10.0
    _report(1, "spectrum identity under class-S perturbation", ok, f"100 instances, {elapsed:.2f}s")
    assert ok


def test_criterion_2_series_closed_form_agreement():
    started = time.perf_counter()
    worst = 0.0
    for q, gamma, t in nonresonant_instances():
        assert q.norm_l1 <= 0.5 + 1e-12
        series = bloch.bloch_series(IDENTITY, q, gamma, t, max_order=8, tail_tol=0.0)
        closed = bloch.closed_form_coeffs(IDENTITY, q, gamma, t, depth=6)
        worst = max(worst, bloch.max_discrepancy(series, closed, max_plane=6))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-10 and elapsed < 30.0
    _report(2, "series vs closed-form coefficients", ok, f"max discrepancy {worst:.2e}, {elapsed:.2f}s")
    assert ok


def test_criterion_3_residual_and_tail_ratio():
    worst_residual = 0.0
    worst_ratio = 0.0
    for q, gamma, t in nonresonant_instances():
        psi = bloch.bloch_series(IDENTITY, q, gamma, t, max_order=14, tail_tol=0.0)
        worst_residual = max(worst_residual, bloch.residual(IDENTITY, q, psi))
        masses = psi.term_masses
        for n in range(2, len(masses)):
            if masses[n - 1] > 1e-300:
                worst_ratio = max(worst_ratio, masses[n] / masses[n - 1])
    ok = worst_residual < 1e-9 and worst_ratio <= 0.6
    _report(
        3,
        "order-14 residual and geometric tail",
        ok,
        f"max residual {worst_residual:.2e}, max term ratio {worst_ratio:.3f}",
    )
    assert ok


def test_criterion_4_halfspace_support_structural():
    ok = True
    zero = (0, 0)
    for q, gamma, t in nonresonant_instances():
        series = bloch.bloch_series(IDENTITY, q, gamma, t, max_order=8)
        closed = bloch.closed_form_coeffs(IDENTITY, q, gamma, t, depth=6)
        for coeffs in (series.coeffs, closed.coeffs):
            for delta in coeffs:
                if delta == zero:
                    continue
                if hb.decompose(delta, q.k)[1] < 1:
                    ok = False
    _report(4, "half-space support of Bloch coefficients", ok, "structural, zero tolerance")
    assert ok


def test_criterion_5_halfspace_sum_separation():
    rng = np.random.default_rng(5005)
    ok = True
    checked = 0
    for basis in (IDENTITY, SKEWED, SCALED):
        for k in (1, 2):
            for sign in ("+", "-"):
                sig = 1 if sign == "+" else -1
                c = basis.separation_constant(k)
                for _ in range(200):
                    s = int(rng.integers(1, 51))
                    total = np.zeros(2, dtype=int)
                    for _ in range(s):
                        idx = [int(rng.integers(-4, 5)), int(rng.integers(-4, 5))]
                        idx[k - 1] = sig * int(rng.integers(1, 5))
                        total += np.asarray(idx)
                    v = basis.to_cartesian(tuple(total))
                    checked += 1
                    if math.sqrt(float(v @ v)) < c * s:
                        ok = False
    _report(5, "half-lattice sum separation bound", ok, f"{checked} sums, exact comparison")
    assert ok


def test_criterion_6_oned_double_eigenvalue_iff():
    started = time.perf_counter()
    rng = np.random.default_rng(6006)
    ok = True
    cases = []
    for _ in range(30):
        n = int(rng.integers(1, 3))
        u = {
            m: helpers.ONED_DRAWS[int(rng.integers(0, len(helpers.ONED_DRAWS)))]
            for m in range(1, 5)
        }
        cases.append((n, u))
    for alpha in (Fraction(1, 2), Fraction(-3, 10), Fraction(7, 4)):
        cases.append((1, {1: alpha, 2: -alpha * alpha / 4}))
        cases.append((2, {1: alpha, 2: -alpha * alpha / 4}))
    disagreements = 0
    for n, u in cases:
        crit = rootfn.oned_double_criterion(n, u)
        mult, _, _ = helpers.oned_oracle_multiplicity(u, n)
        is_zero = crit == 0
        if not is_zero and abs(complex(crit)) < 1e-3:
            ok = False  # instance not clear of the borderline band
        if is_zero != (mult == 2):
            disagreements += 1
    elapsed = time.perf_counter() - started
    ok = ok and disagreements == 0 and elapsed < 5.0
    _report(
        6,
        "1-D double-eigenvalue criterion iff rank oracle",
        ok,
        f"{len(cases)} cases, {disagreements} disagreements, {elapsed:.2f}s",
    )
    assert ok


def test_criterion_7_second_plane_criterion_vs_jordan_probe():
    rng = np.random.default_rng(7007)
    group = spectrum.degeneracy_group(IDENTITY, (1, 0), (0.0, 0.0), k=1)
    ok = True
    instances = 0
    for sweep in (0.0, 0.3, -0.2 + 0.1j):
        for _ in range(4):
            coeffs = {(1, -1): sweep}
            for idx in ((1, 0), (1, 1), (1, 2), (2, 0), (2, -1), (2, 2)):
                coeffs[idx] = helpers.random_unit_disc(rng, 0.6)
            q = hb.FourierPotential(IDENTITY, coeffs)
            op = galerkin.build(IDENTITY, q, (0.0, 0.0), 6.0)
            for member in group.planes[1].members:
                j = group.planes[1].members.index(member)
                rep = rootfn.second_plane_solve(IDENTITY, q, group, j)
                subset = [
                    n for n, p in zip(op.index_set, op.planes) if p >= 1
                ] + [member]
                excess = galerkin.jordan_chain_excess(op, group.lam, subset=subset)
                predicted = rep.classification is rootfn.Classification.ASSOCIATED
                instances += 1
                if (excess == 1) != predicted:
                    ok = False
    _report(7, "second-plane eigenfunction criterion vs Jordan probe", ok, f"{instances} member instances")
    assert ok


def test_criterion_8_fermi_surface_identity():
    rng = np.random.default_rng(8008)
    ok = True
    axis = np.linspace(-0.5, 0.5, 21)
    for rho in (0.5, 1.0):
        threshold = 0.02
        free = isoenergetic.sample_surface(IDENTITY, rho, resolution=21, threshold=threshold)
        free_set = {t for t, _, _ in free.points}
        for _ in range(5):
            q = helpers.random_halfspace_potential(rng, IDENTITY, max_harmonics=6)
            retained = set()
            for tx in axis:
                for ty in axis:
                    op = galerkin.build(IDENTITY, q, (tx, ty), 4.0)
                    values = helpers.triangular_spectrum(op)
                    if min(abs(math.sqrt(v) - rho) for v in values) <= threshold:
                        retained.add((float(tx), float(ty)))
            if retained != free_set:
                ok = False
    _report(8, "isoenergetic surface identity", ok, "21x21 grid, rho in {0.5, 1.0}, exact set equality")
    assert ok


def test_criterion_9_oned_root_function_forms():
    rng = np.random.default_rng(9009)
    nonzero = [d for d in helpers.ONED_DRAWS if d != 0]
    ok = True
    for _ in range(10):
        n = int(rng.integers(1, 3))
        u = {1: nonzero[int(rng.integers(0, len(nonzero)))]}
        for m in range(2, 5):
            u[m] = helpers.ONED_DRAWS[int(rng.integers(0, len(helpers.ONED_DRAWS)))]
        crit = rootfn.oned_double_criterion(n, u)
        if crit == 0 or abs(complex(crit)) < 1e-3:
            ok = False  # construction must keep instances at multiplicity one
            continue
        mult, op, lam = helpers.oned_oracle_multiplicity(u, n)
        if mult != 1:
            ok = False
            continue
        plus = galerkin.eigenvector_backsolve(op, op.position((n,)))
        psi = {m[0]: complex(v) for m, v in zip(op.index_set, plus.vector) if v != 0}
        if rootfn.classify_eigenfunction_form(psi, n) is not rootfn.RootForm.PLUS:
            ok = False
        chain, c = galerkin.first_associated_backsolve(
            op, op.position((-n,)), plus.vector
        )
        phi = {m[0]: complex(v) for m, v in zip(op.index_set, chain.vector) if v != 0}
        if abs(c) == 0 or abs(phi.get(-n, 0j)) == 0:
            ok = False
        if rootfn.classify_eigenfunction_form(phi, n) is not rootfn.RootForm.MINUS:
            ok = False
    _report(9, "1-D eigenvector and chain-vector support forms", ok, "10 potentials, n in {1, 2}")
    assert ok
