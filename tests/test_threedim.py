"""Dimension-generic checks in d = 3: nothing in the core code is 2-D-specific."""

import math
import time
import tracemalloc

import numpy as np
import pytest

import halfspace_bloch as hb
from halfspace_bloch import bloch, galerkin, spectrum

import helpers

BASIS3 = hb.identity_basis(3)
T3 = (0.3, 0.15, 0.05)


def potential3():
    return hb.FourierPotential(
        BASIS3, {(0, 1, 0): 0.15, (1, 1, -1): 0.1j, (0, 2, 1): -0.05}
    )


def test_classification_axis2():
    assert potential3().classification == (2, "+")


def test_triangular_spectrum_identity_3d():
    q = potential3()
    op = galerkin.build(BASIS3, q, T3, 2.5)
    assert op.size > 50
    assert galerkin.is_plane_triangular(op)
    assert helpers.triangular_spectrum(op) == tuple(
        sorted(spectrum.eigenvalue(BASIS3, n, T3) for n in op.index_set)
    )


def test_series_closed_form_agree_3d():
    q = potential3()
    series = bloch.bloch_series(BASIS3, q, (0, 0, 0), T3, max_order=7)
    closed = bloch.closed_form_coeffs(BASIS3, q, (0, 0, 0), T3, depth=5)
    assert bloch.max_discrepancy(series, closed, max_plane=5) < 1e-10
    assert bloch.residual(BASIS3, q, series) < 1e-8


def test_series_builds_nothing_past_its_stopping_order():
    # the series stops at order 7; a max_order of 10_000 only sizes its key
    # box, and a walk of every order up to it would blow the floor
    q = potential3()
    started = time.perf_counter()
    far = bloch.bloch_series(BASIS3, q, (0, 0, 0), T3, max_order=10_000)
    elapsed = time.perf_counter() - started
    near = bloch.bloch_series(BASIS3, q, (0, 0, 0), T3, max_order=40)
    assert far.converged and far.order == near.order < 40
    assert far.offsets.tolist() == near.offsets.tolist()
    assert repr(far.values.tolist()) == repr(near.values.tolist())
    assert (far.tail, far.term_masses) == (near.tail, near.term_masses)
    assert elapsed < 2.0


def test_degeneracy_group_3d_unit_sphere():
    group = spectrum.degeneracy_group(BASIS3, (0, 1, 0), (0.0, 0.0, 0.0), k=2)
    assert group.multiplicity == 6
    assert group.s == 1
    assert [(p.n, len(p.members)) for p in group.planes] == [(1, 1), (0, 4), (-1, 1)]


def test_backsolve_matches_closed_form_3d():
    q = potential3()
    op = galerkin.build(BASIS3, q, T3, 3.0)
    vec = galerkin.eigenvector_backsolve(op, op.position((0, 0, 0)))
    closed = bloch.closed_form_coeffs(BASIS3, q, (0, 0, 0), T3, depth=int(op.planes.max()))
    for delta in map(tuple, galerkin.interior_cone(op, (0, 0, 0)).tolist()):
        value = vec.vector[op.position(delta)]
        assert abs(value - closed.coeffs.get(delta, 0j)) < 1e-10


def test_square_summable_mode_3d_flow():
    # truncated square-summable input runs through the whole pipeline
    coeffs = {(0, m, r): 0.3 / (1 + m * m + r * r) for m in range(1, 6) for r in (-1, 0, 1)}
    q = hb.potential.truncated(BASIS3, coeffs, radius=3.5)
    assert q.mode == "square-summable"
    assert q.truncation_radius == 3.5
    assert q.classification == (2, "+")
    psi = bloch.bloch_series(BASIS3, q, (0, 0, 0), T3, max_order=8)
    assert psi.converged
    assert bloch.residual(BASIS3, q, psi) < 1e-6


def test_backsolve_matches_closed_form_3d_at_cutoff_12():
    # N = 7153: a dense matrix would take 819 MB, the sparse operator a few
    tracemalloc.start()
    try:
        q = potential3()
        op = galerkin.build(BASIS3, q, T3, 12.0)
        vec = galerkin.eigenvector_backsolve(op, op.position((0, 0, 0)))
        cone = galerkin.interior_cone(op, (0, 0, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert op.size == 7153 and len(cone) == 167
    assert peak < 64 * 2**20
    closed = bloch.closed_form_coeffs(BASIS3, q, (0, 0, 0), T3, depth=int(op.planes.max()))
    worst = max(
        abs(vec.vector[op.position(d)] - closed.coeffs.get(d, 0j)) for d in map(tuple, cone.tolist())
    )
    assert worst < 1e-15


@pytest.mark.parametrize(
    "coeffs, answers",
    [
        ({(0, 1, 0): 0.15, (1, 1, -1): 0.1j, (0, 2, 1): -0.05}, (5, 1, [0, 0, 0, 0])),
        # (1, 1, 0) and (0, 1, 1) lift (-1, 0, 0) and (0, 0, -1) onto (0, 1, 0)
        ({(1, 1, 0): 0.3, (0, 1, 1): 0.2j, (0, 2, 0): 0.1, (0, 1, 0): 0.15}, (4, 2, [1, 1, 0, 0])),
    ],
)
def test_rank_probes_on_the_3d_unit_sphere_group(coeffs, answers):
    t0 = (0.0, 0.0, 0.0)
    q = hb.FourierPotential(BASIS3, coeffs)
    group = spectrum.degeneracy_group(BASIS3, (0, 1, 0), t0, k=2)
    assert group.multiplicity == 6
    for cutoff in (3.0, 6.0):
        op = galerkin.build(BASIS3, q, t0, cutoff)
        subsets = [
            [n for n, p in zip(op.index_set, op.planes) if p > 0] + [member]
            for member in group.planes[1].members
        ]
        got = (
            galerkin.geometric_multiplicity(op, 1.0),
            galerkin.jordan_chain_excess(op, 1.0),
            [galerkin.jordan_chain_excess(op, 1.0, subset=s) for s in subsets],
        )
        assert got == answers
        if cutoff == 3.0:  # N = 123: the dense references are cheap here
            assert got == (
                helpers.reference_geometric_multiplicity(op, 1.0),
                helpers.reference_jordan_chain_excess(op, 1.0),
                [helpers.reference_jordan_chain_excess(op, 1.0, subset=s) for s in subsets],
            )
