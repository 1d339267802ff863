import dataclasses
import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

import halfspace_bloch as hb
from halfspace_bloch import bloch, coeffset, galerkin, lattice, spectrum
from halfspace_bloch.errors import NoEigenvectorError, TriangularityError

import helpers

BASIS = hb.identity_basis(2)
T = (0.5, 0.3)
SKEWED = hb.LatticeBasis(np.array([[1.0, 0.0], [0.5, 0.9]]))
BASIS3 = hb.identity_basis(3)


def test_build_zero_potential_is_diagonal():
    q = hb.FourierPotential(BASIS, {})
    op = galerkin.build(BASIS, q, T, 1.5)
    assert op.size == 9
    assert np.allclose(op.matrix, np.diag(op.diagonal))
    for i, n in enumerate(op.index_set):
        assert op.diagonal[i] == spectrum.eigenvalue(BASIS, n, T)


def test_build_single_harmonic_entries():
    a = 0.25 + 0.1j
    q = hb.FourierPotential(BASIS, {(1, 0): a})
    op = galerkin.build(BASIS, q, T, 2.5)
    for j, n in enumerate(op.index_set):
        target = (n[0] + 1, n[1])
        if target in op.index_set:
            assert op.matrix[op.position(target), j] == a


@pytest.mark.parametrize("generators", ([[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.5, 0.9]]))
def test_build_equals_entrywise_loop(generators):
    basis = hb.LatticeBasis(np.array(generators))
    rng = np.random.default_rng(47)
    potentials = [helpers.random_halfspace_potential(rng, basis) for _ in range(3)]
    potentials.append(hb.FourierPotential(basis, {(1, 0): 1.0, (-1, 0): 0.5j, (0, 0): 0.25}))
    for q in potentials:
        op = galerkin.build(basis, q, T, 4.0)
        expected = np.zeros((op.size, op.size), dtype=complex)
        for i, n in enumerate(op.index_set):
            expected[i, i] = spectrum.eigenvalue(basis, n, T)
        for g1, qv in q.coeffs.items():
            for j, n in enumerate(op.index_set):
                target = tuple(a + b for a, b in zip(n, g1))
                if target in op.index_set:
                    expected[op.position(target), j] += qv
        assert np.array_equal(op.matrix, expected)


def test_plane_major_order():
    q = hb.FourierPotential(BASIS, {(1, 0): 0.1})
    op = galerkin.build(BASIS, q, T, 2.0)
    planes = [n[0] for n in op.index_set]
    assert planes == sorted(planes)
    # ties resolved lexicographically
    for p in set(planes):
        block = [n for n in op.index_set if n[0] == p]
        assert block == sorted(block)


def test_triangularity_classified():
    rng = np.random.default_rng(41)
    for _ in range(5):
        q = helpers.random_halfspace_potential(rng, BASIS)
        op = galerkin.build(BASIS, q, T, 4.0)
        assert galerkin.is_plane_triangular(op)


def test_triangularity_minus_sign():
    q = hb.FourierPotential(BASIS, {(0, -2): 1.0, (1, -5): 1.0})
    assert q.classification == (2, "-")
    op = galerkin.build(BASIS, q, (0.1, 0.2), 6.0)
    assert galerkin.is_plane_triangular(op)
    assert galerkin.truncated_spectrum(op) == tuple(
        sorted(spectrum.eigenvalue(BASIS, n, (0.1, 0.2)) for n in op.index_set)
    )


def test_unclassified_potential_fails_triangularity():
    q = hb.FourierPotential(BASIS, {(1, 0): 1.0, (-1, 0): 1.0})
    op = galerkin.build(BASIS, q, T, 2.0)
    assert not galerkin.is_plane_triangular(op)
    with pytest.raises(TriangularityError):
        galerkin.truncated_spectrum(op)


def test_backsolves_require_triangularity():
    q = hb.FourierPotential(BASIS, {(1, 0): 1.0, (-1, 0): 1.0})
    op = galerkin.build(BASIS, q, T, 2.0)
    with pytest.raises(TriangularityError) as err:
        galerkin.eigenvector_backsolve(op, 0)
    assert (err.value.row, err.value.col) == galerkin.triangularity_witness(op)
    with pytest.raises(TriangularityError) as err:
        galerkin.first_associated_backsolve(op, 0, np.zeros(op.size, dtype=complex))
    assert (err.value.row, err.value.col) == galerkin.triangularity_witness(op)


@pytest.mark.parametrize(
    "coeffs, witnessed",
    [
        ({(1, 0): 0.2, (1, 1): 0.1}, False),
        ({(0, -2): 1.0, (1, -5): 1.0}, False),  # classified (2, '-')
        ({(0, 0): 0.7, (1, 0): 0.3}, False),  # q_0 sits on the diagonal
        ({(1, 0): 1.0, (-1, 0): 1.0}, True),
        ({(2, 1): 0.5, (-1, 3): 0.25j, (1, -1): 0.1}, True),
        # same-plane couplings: the witness lies inside a diagonal block
        ({(0, 1): 1.0, (0, -1): 1.0}, True),
        ({(1, 0): 0.3, (0, 2): 0.2, (0, -1): 0.1}, True),
    ],
)
def test_grading_witness_equals_dense_scan(coeffs, witnessed):
    basis = hb.LatticeBasis(np.array([[1.0, 0.0], [0.5, 0.9]]))
    rng = np.random.default_rng(59)
    ops = [
        galerkin.build(b, hb.FourierPotential(b, coeffs), T, cutoff)
        for b in (BASIS, basis)
        for cutoff in (0.0, 2.0, 4.5)
    ]
    if not witnessed:
        ops += [
            galerkin.build(BASIS, helpers.random_halfspace_potential(rng, BASIS, k, sign), T, 4.0)
            for k, sign in ((1, "+"), (2, "-"))
        ]
    for op in ops:
        witness = galerkin.triangularity_witness(op)
        assert witness == helpers.reference_grading_violation(op)
        assert (witness is not None) == (witnessed and op.size > 1)
    if coeffs.keys() == {(0, 1), (0, -1)}:
        row, col = witness
        assert row[0] == col[0]


@pytest.mark.parametrize("coeffs", ({(1, 0): 0.2, (1, 1): 0.1}, {(1, 0): 1.0, (-1, 0): 1.0}))
def test_triangularity_mask_built_once_and_lazily(monkeypatch, coeffs):
    scans = []
    scan = galerkin._first_grading_violation
    monkeypatch.setattr(
        galerkin, "_first_grading_violation", lambda op: scans.append(op) or scan(op)
    )
    op = galerkin.build(BASIS, hb.FourierPotential(BASIS, coeffs), T, 3.0)
    assert scans == []
    witness = galerkin.triangularity_witness(op)
    for use in (
        galerkin.is_plane_triangular,
        galerkin.truncated_spectrum,
        lambda op: galerkin.eigenvector_backsolve(op, 0),
        lambda op: galerkin.first_associated_backsolve(op, 0, np.zeros(op.size)),
    ):
        try:
            use(op)
        except TriangularityError:
            assert witness is not None
        except NoEigenvectorError:
            assert witness is None  # got past the guard
    assert galerkin.triangularity_witness(op) == witness
    assert scans == [op]


def test_spectrum_identity_exact():
    rng = np.random.default_rng(43)
    free = None
    for _ in range(5):
        q = helpers.random_halfspace_potential(rng, BASIS)
        op = galerkin.build(BASIS, q, T, 5.0)
        values = galerkin.truncated_spectrum(op)
        if free is None:
            free = tuple(
                sorted(spectrum.eigenvalue(BASIS, n, T) for n in op.index_set)
            )
        assert values == free


def test_spectrum_invariant_under_amplitude():
    # scaling the potential by any factor leaves the truncated spectrum
    # literally unchanged: the diagonal never sees the coupling
    rng = np.random.default_rng(45)
    q = helpers.random_halfspace_potential(rng, BASIS)
    reference = galerkin.truncated_spectrum(galerkin.build(BASIS, q, T, 4.0))
    for factor in (1e-6, 1.0, 1e6, -3.5j):
        scaled = galerkin.build(BASIS, q.scaled(factor), T, 4.0)
        assert galerkin.truncated_spectrum(scaled) == reference


def test_spectrum_matches_dense_eigensolver():
    rng = np.random.default_rng(47)
    q = helpers.random_halfspace_potential(rng, BASIS, coeff_scale=0.5)
    op = galerkin.build(BASIS, q, T, 4.0)
    numeric = np.sort(np.linalg.eigvals(op.matrix).real)
    assert np.allclose(numeric, galerkin.truncated_spectrum(op), atol=1e-8)


def test_backsolve_zero_potential_standard_basis():
    q = hb.FourierPotential(BASIS, {})
    op = galerkin.build(BASIS, q, T, 2.0)
    i = op.position((1, 0))
    result = galerkin.eigenvector_backsolve(op, i)
    expected = np.zeros(op.size, dtype=complex)
    expected[i] = 1.0
    assert np.array_equal(result.vector, expected)


def test_backsolve_matches_closed_form_on_interior_cone():
    q = hb.FourierPotential(BASIS, {(1, 0): 0.1})
    op = galerkin.build(BASIS, q, T, 6.0)
    result = galerkin.eigenvector_backsolve(op, op.position((0, 0)))
    closed = bloch.closed_form_coeffs(BASIS, q, (0, 0), T, depth=int(op.planes.max()))
    cone = galerkin.interior_cone(op, (0, 0))
    assert len(cone) > 3
    for delta in map(tuple, cone.tolist()):
        node = (delta[0], delta[1])
        value = result.vector[op.position(node)]
        assert abs(value - closed.coeffs.get(delta, 0j)) < 1e-10


def test_backsolves_use_the_matrix_diagonal():
    # the constant harmonic moves every M_jj = |g + t|^2 + q_0 off the free value
    q = hb.FourierPotential(BASIS, {(0, 0): 0.7, (1, 0): 0.3})
    op = galerkin.build(BASIS, q, (0.1, 0.2), 3.0)
    i = op.position((0, 0))
    shifted = op.matrix - op.matrix[i, i] * np.eye(op.size)
    eig = galerkin.eigenvector_backsolve(op, i)
    assert np.linalg.norm(shifted @ eig.vector) <= op.eigen_eq_tol()
    chain, c = galerkin.first_associated_backsolve(op, i, eig.vector)
    assert np.linalg.norm(shifted @ chain.vector - c * eig.vector) <= op.eigen_eq_tol()
    assert op.eigen_eq_tol() == galerkin.DIAG_EQ_SCALE * (
        1.0 + np.max(np.abs(np.diagonal(op.matrix)))
    )


def test_backsolve_unit_leading_normalization():
    rng = np.random.default_rng(53)
    q = helpers.random_halfspace_potential(rng, BASIS, coeff_scale=0.3)
    op = galerkin.build(BASIS, q, T, 4.0)
    i = op.position((0, 0))
    result = galerkin.eigenvector_backsolve(op, i)
    assert result.vector[i] == 1.0
    assert np.all(result.vector[:i] == 0)


def test_tuned_oned_double_eigenvalue_two_solutions():
    alpha = Fraction(1, 2)
    reduced = {1: alpha, 2: -alpha * alpha / 4}
    mult, op, lam = helpers.oned_oracle_multiplicity(reduced, 1)
    assert mult == 2
    minus = galerkin.eigenvector_backsolve(op, op.position((-1,)))
    plus = galerkin.eigenvector_backsolve(op, op.position((1,)))
    stacked = np.vstack([minus.vector, plus.vector])
    assert np.linalg.matrix_rank(stacked) == 2


def test_untuned_oned_blocked_backsolve():
    reduced = {1: Fraction(1, 2)}
    mult, op, lam = helpers.oned_oracle_multiplicity(reduced, 1)
    assert mult == 1
    with pytest.raises(NoEigenvectorError) as err:
        galerkin.eigenvector_backsolve(op, op.position((-1,)))
    assert err.value.position == op.position((1,))


def test_backsolve_splits_diagonal_entries_at_the_eq_tolerance():
    # t = (-1/2 + e/2, 0) puts M_jj at (0, 0) and at (1, 0) e apart, and
    # (1, 0) couples to (0, 0); the width comes from the literal 1e-9, so a
    # moved DIAG_EQ_SCALE moves the boundary and not the test
    q = hb.FourierPotential(BASIS, {(1, 0): 0.3})

    def backsolve(e):
        op = galerkin.build(BASIS, q, (-0.5 + e / 2, 0.0), 3.0)
        return galerkin.eigenvector_backsolve(op, op.position((0, 0))), op

    op = galerkin.build(BASIS, q, (-0.5, 0.0), 3.0)
    tol = 1e-9 * (1.0 + float(np.max(np.abs(op.matrix_diagonal))))
    with pytest.raises(NoEigenvectorError) as err:
        backsolve(tol / 10)
    assert err.value.position == op.position((1, 0))
    result, op = backsolve(10 * tol)
    assert result.vector[op.position((1, 0))] != 0


def test_geometric_multiplicity_free_operator():
    q = hb.FourierPotential(BASIS, {})
    op = galerkin.build(BASIS, q, (0.0, 0.0), 2.5)
    assert galerkin.geometric_multiplicity(op, 1.0) == 4


def test_geometric_multiplicity_stable_under_cutoff():
    alpha = Fraction(2, 5)
    reduced = {1: alpha, 2: -alpha * alpha / 4}
    m1, _, _ = helpers.oned_oracle_multiplicity(reduced, 1, cutoff_planes=5)
    m2, _, _ = helpers.oned_oracle_multiplicity(reduced, 1, cutoff_planes=8)
    assert m1 == m2 == 2


def test_first_associated_backsolve_chain():
    reduced = {1: Fraction(1, 2)}
    _, op, lam = helpers.oned_oracle_multiplicity(reduced, 1)
    plus = galerkin.eigenvector_backsolve(op, op.position((1,)))
    chain, c = galerkin.first_associated_backsolve(op, op.position((-1,)), plus.vector)
    assert abs(c) > 1e-3
    a = op.matrix - lam * np.eye(op.size)
    assert np.allclose(a @ chain.vector, c * plus.vector, atol=1e-9)


def test_jordan_chain_excess_detects_block():
    reduced_tuned = {1: Fraction(1, 2), 2: -Fraction(1, 16)}
    _, op, lam = helpers.oned_oracle_multiplicity(reduced_tuned, 1)
    assert galerkin.jordan_chain_excess(op, lam) == 0
    reduced_blocked = {1: Fraction(1, 2)}
    _, op2, lam2 = helpers.oned_oracle_multiplicity(reduced_blocked, 1)
    assert galerkin.jordan_chain_excess(op2, lam2) == 1


def test_jordan_chain_excess_invariant_subset_guard():
    q = hb.FourierPotential(BASIS, {(1, 0): 0.1})
    op = galerkin.build(BASIS, q, (0.0, 0.0), 4.0)
    with pytest.raises(ValueError):
        # a p = 0 index other than the probe member leaks
        galerkin.jordan_chain_excess(op, 1.0, subset=[(0, 1), (-1, 0)])


# -- core rank probes against the dense references -------------------------------

@pytest.mark.parametrize("n", (1, 2))
def test_rank_probes_equal_dense_reference_oned(n):
    rng = np.random.default_rng(61 + n)
    cases = [{1: a, 2: -a * a / 4} for a in (Fraction(1, 2), Fraction(2, 5), Fraction(7, 4))]
    for _ in range(6):
        draws = helpers.ONED_DRAWS
        cases.append({m: draws[int(rng.integers(1 if m == 1 else 0, len(draws)))] for m in range(1, 5)})
    answers = set()
    for reduced in cases:
        mult, op, lam = helpers.oned_oracle_multiplicity(reduced, n)
        assert mult == helpers.reference_geometric_multiplicity(op, lam)
        excess = galerkin.jordan_chain_excess(op, lam)
        assert excess == helpers.reference_jordan_chain_excess(op, lam)
        answers.add((mult, excess))
    assert {(2, 0), (1, 1)} <= answers


def _second_plane_case(rng, lam, k, drop):
    """Identity lattice, t = 0: a (k, '+') potential and a second-plane member
    of the lam group; ``drop`` removes every criterion path coefficient, else
    one is forced in."""
    s = 1 if rng.uniform() < 0.5 else -1
    member = (0, s) if lam == 1 else (-1, s)
    if lam == 1:
        critical = {(1, -s)}
    else:
        critical = {(2, 1 - s), (2, -1 - s)} | {(1, a) for a in range(-2, 3)}
    candidates = [(p, a) for p in (1, 2) for a in range(-2, 3)]
    picks = rng.choice(len(candidates), size=int(rng.integers(3, 7)), replace=False)
    coeffs = {candidates[i]: helpers.random_unit_disc(rng, 0.6) for i in sorted(picks)}
    coeffs.setdefault((2, -1), helpers.random_unit_disc(rng, 0.6))
    if drop:
        coeffs = {n: v for n, v in coeffs.items() if n not in critical}
    else:
        coeffs.setdefault((2, 1 - s) if lam == 2 else (1, -s), 0.4)
    if k == 2:
        coeffs = {(a, p): v for (p, a), v in coeffs.items()}
        member = member[::-1]
    return hb.FourierPotential(BASIS, coeffs), member


@pytest.mark.parametrize("lam, k", ((1, 1), (1, 2), (2, 1), (2, 2)))
def test_rank_probes_equal_dense_reference_second_plane(lam, k):
    rng = np.random.default_rng(67 + 2 * lam + k)
    answers = set()
    for drop in (True, False) * 3:
        q, member = _second_plane_case(rng, lam, k, drop)
        op = galerkin.build(BASIS, q, (0.0, 0.0), 7.0)
        second = member[k - 1]
        subset = [n for n, p in zip(op.index_set, op.planes) if p > second] + [member]
        excess = galerkin.jordan_chain_excess(op, float(lam), subset=subset)
        assert excess == helpers.reference_jordan_chain_excess(op, float(lam), subset=subset)
        assert galerkin.jordan_chain_excess(op, float(lam)) == (
            helpers.reference_jordan_chain_excess(op, float(lam))
        )
        assert galerkin.geometric_multiplicity(op, float(lam)) == (
            helpers.reference_geometric_multiplicity(op, float(lam))
        )
        answers.add(excess)
    assert answers == {0, 1}


def test_free_operator_core_is_the_colliding_rows():
    # the window spans the planes -1 .. 1, but with no coupling the core is
    # the four rows |n| = 1 alone, each with gap 0
    op = galerkin.build(BASIS, hb.FourierPotential(BASIS, {}), (0.0, 0.0), 2.5)
    assert np.array_equal(galerkin._core_block(op, 1.0), np.zeros((4, 4)))
    assert galerkin.geometric_multiplicity(op, 1.0) == 4
    assert helpers.reference_geometric_multiplicity(op, 1.0) == 4
    assert galerkin.jordan_chain_excess(op, 1.0) == 0
    assert helpers.reference_jordan_chain_excess(op, 1.0) == 0


def test_rank_probes_equal_dense_reference_skewed_basis():
    basis = hb.LatticeBasis(np.array([[1.0, 0.0], [0.5, 0.9]]))
    t = (0.31, 0.17)
    rng = np.random.default_rng(71)
    for _ in range(3):
        q = helpers.random_halfspace_potential(rng, basis, max_harmonics=4)
        op = galerkin.build(basis, q, t, 4.0)
        for lam in sorted(set(op.diagonal.tolist()))[::5]:
            assert galerkin.geometric_multiplicity(op, lam) == (
                helpers.reference_geometric_multiplicity(op, lam)
            )
            assert galerkin.jordan_chain_excess(op, lam) == (
                helpers.reference_jordan_chain_excess(op, lam)
            )


def test_rank_probes_off_the_diagonal_have_empty_window():
    q = hb.FourierPotential(BASIS, {(1, 0): 0.3, (1, 1): 0.2j})
    op = galerkin.build(BASIS, q, T, 3.0)
    lam = 0.5 * (op.diagonal[0] + op.diagonal[1]) + 0.123
    assert galerkin._core_block(op, lam).shape == (0, 0)
    assert galerkin.geometric_multiplicity(op, lam) == 0
    assert helpers.reference_geometric_multiplicity(op, lam) == 0
    assert galerkin.jordan_chain_excess(op, lam) == 0
    assert helpers.reference_jordan_chain_excess(op, lam) == 0


def test_rank_probes_read_the_constant_harmonic_on_the_diagonal():
    # q_0 = -12 pi^2 shifts the diagonal to 4 pi^2 (m^2 - 3): it meets
    # lam = 4 pi^2 at m = +-2, planes the free values |2 pi m|^2 would not pick
    basis = hb.LatticeBasis(np.array([[2 * math.pi]]))
    pi_sq = math.pi ** 2
    lam = 4 * pi_sq
    answers = []
    for coeffs in ({(0,): -12 * pi_sq}, {(0,): -12 * pi_sq, (1,): 0.5 * pi_sq}):
        op = galerkin.build(basis, hb.FourierPotential(basis, coeffs), (0.0,), 30.0)
        mult = galerkin.geometric_multiplicity(op, lam)
        assert mult == helpers.reference_geometric_multiplicity(op, lam)
        assert galerkin.jordan_chain_excess(op, lam) == (
            helpers.reference_jordan_chain_excess(op, lam)
        )
        answers.append(mult)
    assert answers[0] == 2


def test_explicit_rank_tol_widens_the_window():
    op = galerkin.build(BASIS, hb.FourierPotential(BASIS, {}), (0.0, 0.0), 2.5)
    # gaps |n|^2 - 1 of 3 at (0, +-2) and (+-2, 0): rank_tol 3.5 calls them
    # zero, also on the planes +-2 that hold no gap within eigen_eq_tol
    with pytest.warns(UserWarning, match="borderline rank decision"):
        assert galerkin.geometric_multiplicity(op, 1.0, rank_tol=3.5) == 13
    assert helpers.reference_geometric_multiplicity(op, 1.0, rank_tol=3.5) == 13
    # at lam = 3.3 no gap is within 0.6, but the gaps 0.7 at |n|^2 = 4 square
    # to 0.49, which the threshold calls zero in (M - lam)^2
    assert galerkin.jordan_chain_excess(op, 3.3, rank_tol=0.6) == 4
    assert helpers.reference_jordan_chain_excess(op, 3.3, rank_tol=0.6) == 4


def test_rank_threshold_independent_of_cutoff(monkeypatch):
    thresholds = []
    rank = galerkin._numerical_rank

    def recording_rank(mat, rank_tol, lam):
        result = rank(mat, rank_tol, lam)
        thresholds.append(result[2])
        return result

    monkeypatch.setattr(galerkin, "_numerical_rank", recording_rank)
    reduced = {1: Fraction(2, 5), 2: -Fraction(1, 25)}
    for planes in (5, 8, 12):
        helpers.oned_oracle_multiplicity(reduced, 1, cutoff_planes=planes)
    assert len(thresholds) == 3 and len(set(thresholds)) == 1


def test_explicit_rank_tol_is_absolute_and_borderline_warns():
    op = galerkin.build(BASIS, hb.FourierPotential(BASIS, {}), (0.0, 0.0), 2.5)
    # gaps |n|^2 - 1 are -1 (once), 0 (four times) and 1 (four times) within 1.5
    with pytest.warns(UserWarning, match="borderline rank decision"):
        assert galerkin.geometric_multiplicity(op, 1.0, rank_tol=1.5) == 9


def test_rank_threshold_boundary_on_the_oned_core():
    # basis 2 pi, n = 1, lam = 4 pi^2: the core is the rows -1, 0, 1, with
    # A = [[0, 0, 0], [q_1, -4 pi^2, 0], [q_2, q_1, 0]].  The product of its two
    # nonzero singular values is the minor |q_1^2 + 4 pi^2 q_2|, 0 at the
    # tuned q_2, so q_2 = tuned + delta puts sigma_2 at 4 pi^2 |delta| / sigma_1.
    # The width comes from the literal 1e-9, so a moved RANK_TOL_SCALE moves
    # the boundary and not the test.
    basis = helpers.oned_basis()
    lam = 4 * math.pi**2
    q_1 = 0.5 * math.pi**2
    tuned = -(q_1**2) / lam

    def core_probes(q_2):
        q = hb.FourierPotential(basis, {(1,): q_1, (2,): q_2})
        op = galerkin.build(basis, q, (0.0,), 2 * math.pi * 5)
        core = helpers.reference_core_block(op, lam)
        assert core.shape == (3, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # borderline at 1/10 and 10
            probes = galerkin.geometric_multiplicity(op, lam), galerkin.jordan_chain_excess(op, lam)
        return probes, np.linalg.svd(core, compute_uv=False)

    sigma_1 = core_probes(tuned)[1][0]
    threshold = 1e-9 * max(sigma_1, 1.0 + lam)
    for factor, expected in ((0.01, (2, 0)), (0.1, (2, 0)), (10, (1, 1)), (100, (1, 1))):
        probes, svals = core_probes(tuned + factor * threshold * sigma_1 / lam)
        assert svals[1] == pytest.approx(factor * threshold, rel=1e-3)
        assert probes == expected


def test_coupling_free_core_at_roundoff_gaps_keeps_its_kernel():
    # q_0 = 1e-12 moves the four rows |n| = 1 off lam = 1 by a gap of
    # roundoff size, and nothing couples them: the core is 1e-12 times the
    # 4 x 4 identity.  Ranked against its own norm it would have no kernel;
    # the floor 1 + |lam| of the threshold calls the gaps zero.
    op = galerkin.build(BASIS, hb.FourierPotential(BASIS, {(0, 0): 1e-12}), (0.0, 0.0), 2.5)
    block = galerkin._core_block(op, 1.0)
    assert block.shape == (4, 4)
    assert np.abs(np.diagonal(block) - 1e-12).max() < 1e-15
    assert galerkin.geometric_multiplicity(op, 1.0) == 4
    assert helpers.reference_geometric_multiplicity(op, 1.0) == 4
    assert galerkin.jordan_chain_excess(op, 1.0) == 0
    assert helpers.reference_jordan_chain_excess(op, 1.0) == 0


def test_second_plane_core_keeps_the_far_rows_between_the_group_planes():
    # lam = 2: the member (-1, -1) is on the group's second plane, (1, +-1)
    # on its top plane, and no harmonic links the two planes directly.  Only
    # the plane-0 rows (0, -1) and (0, 1), gaps -1, lie on a path between
    # them, and the chain to (1, -1) through (0, -1) blocks the member's
    # eigenvector: one Jordan block, which a core of the near rows alone misses.
    q = hb.FourierPotential(BASIS, {(1, 0): 0.3, (1, 2): 0.2})
    op = galerkin.build(BASIS, q, (0.0, 0.0), 4.0)
    subset = [n for n, p in zip(op.index_set, op.planes) if p > -1] + [(-1, -1)]
    pos = np.sort(op.find(subset))
    block = galerkin._core_block(op, 2.0, pos)
    assert block.tobytes() == helpers.reference_core_block(op, 2.0, pos).tobytes()
    # plane-major: the member, (0, -1), (0, 1), (1, -1), (1, 1)
    assert np.diagonal(block).tolist() == [0, -1, -1, 0, 0]
    assert galerkin.jordan_chain_excess(op, 2.0, subset=subset) == 1
    assert helpers.reference_jordan_chain_excess(op, 2.0, subset=subset) == 1


def test_rank_probes_require_triangularity():
    q = hb.FourierPotential(BASIS, {(1, 0): 1.0, (-1, 0): 1.0})
    op = galerkin.build(BASIS, q, T, 2.0)
    for probe in (galerkin.geometric_multiplicity, galerkin.jordan_chain_excess):
        with pytest.raises(TriangularityError) as err:
            probe(op, float(op.diagonal[0]))
        assert (err.value.row, err.value.col) == galerkin.triangularity_witness(op)


def test_matrix_csv_round_trip():
    q = hb.FourierPotential(BASIS, {(1, 0): 0.5 - 0.25j})
    op = galerkin.build(BASIS, q, T, 1.2)
    text = galerkin.matrix_csv(op)
    rows = [line.split(",") for line in text.strip().splitlines()]
    assert len(rows) == op.size and len(rows[0]) == op.size
    parsed = np.array(
        [[complex(cell.replace("i", "j")) for cell in row] for row in rows]
    )
    assert np.allclose(parsed, op.matrix)


def test_matrix_csv_equals_per_cell_loop():
    rng = np.random.default_rng(61)
    q = helpers.random_halfspace_potential(rng, BASIS, coeff_scale=0.3)
    op = galerkin.build(BASIS, q, T, 10.0)
    assert op.size >= 300
    assert galerkin.matrix_csv(op) == helpers.reference_matrix_csv(op)
    # signed zeros and extreme magnitudes, in a matrix the build never makes
    cells = np.array([[complex(-0.0, -0.0), 0j], [1e-300 - 1e300j, complex(-0.0, 2.5)]])
    small = dataclasses.replace(
        op,
        indices=op.indices[:2],
        matrix_diagonal=np.diagonal(cells).copy(),
        rows=np.array([1]),
        cols=np.array([0]),
        values=cells[1:, 0].copy(),
    )
    assert small.matrix.tobytes() == cells.tobytes()
    assert galerkin.matrix_csv(small) == helpers.reference_matrix_csv(small)
    assert galerkin.matrix_csv(small).startswith("-0-0i,0+0i\n")


def _interior_cone_chain_oracle(op, gamma, q):
    # delta is fully determined iff every chain of support steps reaching it
    # stays inside the index set at every prefix
    import itertools

    supp = list(q.coeffs)
    max_len = int(op.planes.max() - op.planes[op.position(gamma)])
    verdict: dict[tuple, bool] = {}
    for length in range(1, max_len + 1):
        for chain in itertools.product(supp, repeat=length):
            prefix = gamma
            ok = True
            for step in chain:
                prefix = tuple(a + b for a, b in zip(prefix, step))
                if prefix not in op.index_set:
                    ok = False
                    break
            endpoint = tuple(a - b for a, b in zip(prefix, gamma)) if ok else None
            if ok:
                verdict[endpoint] = verdict.get(endpoint, True)
            else:
                # identify the endpoint regardless to poison it
                total = gamma
                for step in chain:
                    total = tuple(a + b for a, b in zip(total, step))
                offset = tuple(a - b for a, b in zip(total, gamma))
                verdict[offset] = False
    zero = (0,) * len(gamma)
    determined = {zero}
    for delta, ok in verdict.items():
        node = tuple(a + b for a, b in zip(gamma, delta))
        if ok and node in op.index_set:
            determined.add(delta)
    return determined


def test_interior_cone_matches_chain_oracle():
    q = hb.FourierPotential(BASIS, {(1, 3): 0.1, (1, -3): 0.1})
    op = galerkin.build(BASIS, q, (0.1, 0.2), 4.0)
    cone = set(map(tuple, galerkin.interior_cone(op, (0, 0)).tolist()))
    assert cone == _interior_cone_chain_oracle(op, (0, 0), q)
    assert (0, 0) in cone

    rng = np.random.default_rng(59)
    for _ in range(5):
        q = helpers.random_halfspace_potential(
            rng, BASIS, max_harmonics=3, max_p=2, max_a=3
        )
        op = galerkin.build(BASIS, q, (0.1, 0.2), 4.5)
        cone = galerkin.interior_cone(op, (0, 0))
        assert set(map(tuple, cone.tolist())) == _interior_cone_chain_oracle(op, (0, 0), q)


def _ball_gammas(op):
    """Every index of the ball, plus one just outside it."""
    outside = tuple(max(n[0] for n in op.index_set) + 1 for _ in range(op.basis.dimension))
    return [*op.index_set, outside]


@pytest.mark.parametrize(
    "basis, k, sign, cutoff",
    [
        (hb.identity_basis(1), 1, "+", 5.0),
        (hb.identity_basis(1), 1, "-", 5.0),
        (BASIS, 1, "+", 3.5),
        (BASIS, 2, "-", 3.5),
        (SKEWED, 1, "-", 3.5),
        (SKEWED, 2, "+", 3.5),
        (BASIS3, 3, "+", 2.5),
        (BASIS3, 1, "-", 2.5),
    ],
    ids=["1d-plus", "1d-minus", "identity-k1-plus", "identity-k2-minus",
         "skewed-k1-minus", "skewed-k2-plus", "3d-k3-plus", "3d-k1-minus"],
)
def test_interior_cone_equals_dict_loop(basis, k, sign, cutoff):
    # gamma on every plane of the ball and outside it, random potentials
    rng = np.random.default_rng(71 + basis.dimension + k)
    nontrivial = 0
    for _ in range(5):
        q = helpers.random_halfspace_potential(
            rng, basis, k=k, sign=sign, max_harmonics=3, max_p=3, max_a=2
        )
        op = galerkin.build(basis, q, (0.1, 0.2, 0.3)[: basis.dimension], cutoff)
        for gamma in _ball_gammas(op):
            cone = galerkin.interior_cone(op, gamma)
            assert set(map(tuple, cone.tolist())) == helpers.reference_interior_cone(op, gamma), (
                q.coeffs, gamma
            )
            # plane-major, lexicographic within a plane: the order a closed-form plan takes
            sig = 1 if op.sign == "+" else -1
            assert cone.tolist() == sorted(cone.tolist(), key=lambda n: (sig * n[op.k - 1], n))
            nontrivial += len(cone) > 1
    assert nontrivial


def test_interior_cone_with_planes_no_step_reaches():
    # every step rises two planes or more: plane 1 of the cone stays empty
    q = hb.FourierPotential(BASIS, {(2, 0): 0.1, (3, 1): 0.2, (2, -1): 0.1j})
    op = galerkin.build(BASIS, q, T, 4.0)
    assert {d[0] for d in galerkin.interior_cone(op, (-4, 0)).tolist()} == {0, 2, 3, 4, 5, 6, 7, 8}
    for gamma in _ball_gammas(op):
        cone = galerkin.interior_cone(op, gamma)
        assert set(map(tuple, cone.tolist())) == helpers.reference_interior_cone(op, gamma)


def test_interior_cone_of_wide_harmonics_stays_small():
    # the box of offsets is 40 * 10**6 wide; memory follows the reachable set
    import tracemalloc

    w = 10**6
    q = hb.FourierPotential(BASIS, {(1, w): 0.1, (1, -w): 0.2j, (1, 0): 0.3})
    op = galerkin.build(BASIS, q, T, 20.0)
    tracemalloc.start()
    try:
        cone = galerkin.interior_cone(op, (0, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    # (2, 0) has the reachable, out-of-ball predecessor (1, -w)
    assert set(map(tuple, cone.tolist())) == helpers.reference_interior_cone(op, (0, 0)) == {
        (0, 0), (1, 0)
    }
    for gamma in [(-19, 0), (5, 3), (20, 0)]:
        cone = galerkin.interior_cone(op, gamma)
        assert set(map(tuple, cone.tolist())) == helpers.reference_interior_cone(op, gamma)


@pytest.mark.parametrize(
    "basis, coeffs, fallback",
    [
        (BASIS, {(1, 2**40): 0.1, (1, 0): 0.2, (2, -1): 0.1j}, False),
        (BASIS3, {(1, 2**40, 0): 0.1, (1, 0, -(2**40)): 0.2, (1, 0, 0): 0.3, (2, 1, -1): 0.1j}, True),
        (BASIS, {(1, 2**62): 0.1, (1, 0): 0.2, (1, 1): -0.1}, True),
    ],
    ids=["2d-2**40", "3d-2**40", "2d-2**62"],
)
def test_interior_cone_of_huge_harmonics_equals_dict_loop(basis, coeffs, fallback):
    # the box of offsets spans prod(spans) keys; beyond int64 the keys are Python ints
    q = hb.FourierPotential(basis, coeffs)
    op = galerkin.build(basis, q, (0.1, 0.2, 0.3)[: basis.dimension], 3.0)
    top = int(op.planes.max())
    spans = [
        top * (max(0, max(c)) - min(0, min(c))) + 1 for c in zip(*coeffs)
    ]
    assert (math.prod(spans) >= 2**63) == fallback
    for gamma in _ball_gammas(op):
        cone = galerkin.interior_cone(op, gamma)
        assert set(map(tuple, cone.tolist())) == helpers.reference_interior_cone(op, gamma)
    assert len(galerkin.interior_cone(op, (0,) * basis.dimension)) > 2


def test_interior_cone_needs_class_s():
    q = hb.FourierPotential(BASIS, {(1, 0): 0.1, (-1, 0): 0.1})
    op = galerkin.build(BASIS, q, T, 2.0)
    with pytest.raises(ValueError, match="class S"):
        galerkin.interior_cone(op, (0, 0))


def test_planes_are_a_read_only_int64_array():
    q = hb.FourierPotential(BASIS, {(1, 0): 0.1})
    op = galerkin.build(BASIS, q, T, 2.0)
    assert op.indices.tolist() == [list(n) for n in op.index_set]
    assert op.planes.dtype == np.int64 and not op.planes.flags.writeable
    assert op.planes.tolist() == [n[0] for n in op.index_set]
    with pytest.raises(ValueError):
        op.planes[0] = 1


# -- the sparse operator against the dense references ----------------------------


def _dense_reference_cases():
    """pytest params of (basis, q, t, cutoff): both signs, q_0, skewed and 3-D
    bases, and potentials outside class S."""
    rng = np.random.default_rng(73)
    cases = []
    for name, basis, t, cutoff in (
        ("identity", BASIS, T, 4.5),
        ("skewed", SKEWED, (0.31, 0.17), 4.0),
        ("3d", BASIS3, (0.3, 0.15, 0.05), 2.5),
    ):
        for k, sign in ((1, "+"), (2, "-")):
            q = helpers.random_halfspace_potential(rng, basis, k, sign, max_harmonics=5)
            cases.append(pytest.param(basis, q, t, cutoff, id=f"{name}-{k}{sign}"))
            t0 = (0.0,) * basis.dimension
            cases.append(pytest.param(basis, q.scaled(-2.5j), t0, cutoff, id=f"{name}-{k}{sign}-t0"))
        zero = (0,) * basis.dimension
        one = tuple(int(i == 0) for i in range(basis.dimension))
        minus = tuple(-x for x in one)
        for label, coeffs in (
            ("q0", {zero: 0.7 - 0.2j, one: 0.3}),
            ("not-in-s", {one: 1.0, minus: 0.5j, zero: -0.25}),
            ("empty", {}),
        ):
            q = hb.FourierPotential(basis, coeffs)
            cases.append(pytest.param(basis, q, t, cutoff, id=f"{name}-{label}"))
    same_plane = hb.FourierPotential(BASIS, {(0, 1): 1.0, (0, -1): 2.0})
    cases.append(pytest.param(BASIS, same_plane, T, 3.0, id="same-plane"))
    negative_zero = hb.FourierPotential(BASIS, {(1, 0): complex(0.5, -0.0)})
    cases.append(pytest.param(BASIS, negative_zero, T, 2.0, id="negative-zero"))
    return cases


@pytest.mark.parametrize("basis, q, t, cutoff", _dense_reference_cases())
def test_sparse_operator_densifies_to_the_dense_build(basis, q, t, cutoff):
    op = galerkin.build(basis, q, t, cutoff)
    index_set, dense = helpers.reference_build(basis, q, t, cutoff)
    assert op.index_set == index_set
    assert np.array_equal(op.matrix, dense)
    assert op.matrix.tobytes() == dense.tobytes()  # signed zeros too
    assert op.matrix_diagonal.tobytes() == np.diagonal(dense).tobytes()
    # the stored form: sorted row-major, off the diagonal, no zero stored
    keys = op.rows * op.size + op.cols
    assert np.all(np.diff(keys) > 0)
    assert np.all(op.rows != op.cols) and np.all(op.values != 0)
    assert op.values.size == np.count_nonzero(dense - np.diag(np.diagonal(dense)))
    assert op.plane_bounds[0] == 0 and op.plane_bounds[-1] == op.size
    for s, e in zip(op.plane_bounds[:-1], op.plane_bounds[1:]):
        assert len(set(op.planes[s:e])) == 1 and (s == 0 or op.planes[s - 1] < op.planes[s])
    assert galerkin.triangularity_witness(op) == helpers.reference_grading_violation(op)


@pytest.mark.parametrize(
    "planes",
    [[], [0], [3, 3, 3], [0, 0, 1, 1, 1, 3], [-2, -2, -1, 0, 4, 4], [0, 1, 2, 3], [5, 7, 7, 9]],
)
def test_plane_bounds_of_hand_made_plane_sequences(planes):
    got = galerkin._plane_bounds(np.array(planes, dtype=np.int64))
    expected = helpers.reference_plane_bounds(planes)
    assert got.dtype == expected.dtype == np.int64
    assert got.tolist() == expected.tolist()
    assert got[0] == 0 and got[-1] == len(planes)


def test_plane_bounds_of_built_operators_equal_the_diff_form():
    rng = np.random.default_rng(17)
    for basis, sign in ((BASIS, "+"), (BASIS, "-"), (BASIS3, "+")):
        q = helpers.random_halfspace_potential(rng, basis, k=1, sign=sign)
        op = galerkin.build(basis, q, (0.5, 0.3, 0.1)[: basis.dimension], 4.0)
        assert op.plane_bounds.tolist() == helpers.reference_plane_bounds(op.planes).tolist()


def _same_outcome(solve, reference):
    """Both raise NoEigenvectorError at the same row, or give the same flagged
    rows, chain constant and vector, to 1e-14 (1 + |x|)."""
    try:
        expected = reference()
    except NoEigenvectorError as err:
        with pytest.raises(NoEigenvectorError) as got:
            solve()
        assert got.value.position == err.position
        return "blocked"
    got = solve()
    (result, c), (ref, ref_c) = (got, expected) if isinstance(got, tuple) else ((got, 0j), (expected, 0j))
    assert result.flagged == ref.flagged and result.leading == ref.leading
    assert np.all(np.abs(result.vector - ref.vector) <= 1e-14 * (1 + np.abs(ref.vector)))
    assert abs(c - ref_c) <= 1e-14 * (1 + abs(ref_c))
    return "flagged" if ref.flagged else "solved"


def _degenerate_operators():
    """Triangular operators at t = 0, where diagonal values repeat within and
    across planes, plus tuned and blocked 1-D double eigenvalues."""
    rng = np.random.default_rng(79)
    ops = []
    for basis, k, sign in ((BASIS, 1, "+"), (BASIS, 2, "-"), (SKEWED, 1, "+")):
        for _ in range(2):
            q = helpers.random_halfspace_potential(rng, basis, k, sign, max_harmonics=4, max_p=2, max_a=2)
            ops.append(galerkin.build(basis, q, (0.0, 0.0), 3.2))
    ops.append(galerkin.build(BASIS, hb.FourierPotential(BASIS, {(0, 0): 0.4, (1, 0): 0.3, (1, 1): 0.2j}), (0.0, 0.0), 3.2))
    for reduced in ({1: Fraction(1, 2), 2: -Fraction(1, 16)}, {1: Fraction(1, 2)}):
        ops.append(helpers.oned_oracle_multiplicity(reduced, 1)[1])
        ops.append(helpers.oned_oracle_multiplicity(reduced, 2)[1])
    return ops


def test_eigenvector_backsolve_equals_dense_loop():
    outcomes = set()
    for op in _degenerate_operators():
        for i in range(op.size):
            outcomes.add(_same_outcome(
                lambda: galerkin.eigenvector_backsolve(op, i),
                lambda: helpers.reference_eigenvector_backsolve(op, i),
            ))
    assert outcomes == {"blocked", "flagged", "solved"}


def test_first_associated_backsolve_equals_dense_loop():
    rng = np.random.default_rng(83)
    outcomes = set()
    for op in _degenerate_operators():
        tol = op.eigen_eq_tol()
        diag = op.matrix_diagonal
        for i in range(op.size):
            group = np.flatnonzero(np.abs(diag - diag[i]) <= tol)
            if group.size < 2:
                continue
            eigvecs = [rng.normal(size=op.size) + 1j * rng.normal(size=op.size)]
            for j in group:
                try:
                    eigvecs.append(helpers.reference_eigenvector_backsolve(op, j).vector)
                except NoEigenvectorError:
                    pass
            # nonzero at one repeated row only: c is fixed there and nowhere checked
            lone = eigvecs[0].copy()
            lone[group[group > i]] = 0
            lone[group[-1]] = 1.5 - 0.5j
            for eigvec in [*eigvecs, lone]:
                outcomes.add(_same_outcome(
                    lambda: galerkin.first_associated_backsolve(op, i, eigvec),
                    lambda: helpers.reference_first_associated_backsolve(op, i, eigvec),
                ))
    assert {"blocked", "flagged"} <= outcomes


def _handmade_operator(planes, diagonal, entries):
    """A 1-D operator with the given plane of each row, diagonal and
    couplings {(row, col): value}."""
    op = galerkin.build(hb.identity_basis(1), hb.FourierPotential(hb.identity_basis(1), {}), (0.0,), 0.0)
    keys = sorted(entries)
    starts = [j for j in range(len(planes)) if j == 0 or planes[j] != planes[j - 1]]
    return dataclasses.replace(
        op,
        indices=np.arange(len(planes), dtype=np.int64).reshape(-1, 1),
        diagonal=np.real(np.asarray(diagonal, dtype=complex)),
        matrix_diagonal=np.asarray(diagonal, dtype=complex),
        rows=np.array([r for r, _ in keys], dtype=np.int64),
        cols=np.array([c for _, c in keys], dtype=np.int64),
        values=np.array([entries[key] for key in keys], dtype=complex),
        planes=np.array(planes, dtype=np.int64),
        plane_bounds=np.array([*starts, len(planes)]),
    )


def test_chain_constant_enters_only_the_rows_after_it():
    # plane 1 holds a row before the repeated one that fixes c, the repeated
    # row, and a row after it: only the last takes c * eigvec
    op = _handmade_operator(
        [0, 1, 1, 1, 2],
        [1.0, 5.0, 1.0, 5.0, 1.0],
        {(1, 0): 2.0, (2, 0): 3.0, (3, 0): -1.0, (4, 1): 2.0, (4, 3): 1.0},
    )
    eigvec = np.array([0, 1.0, 1.0, 1.0, 0])
    chain, c = galerkin.first_associated_backsolve(op, 0, eigvec)
    ref, ref_c = helpers.reference_first_associated_backsolve(op, 0, eigvec)
    assert c == ref_c == 3.0
    assert np.array_equal(chain.vector, ref.vector)
    assert chain.vector[1] == -0.5 and chain.vector[3] == (1.0 + 3.0) / 4.0
    # the last row repeats lam and accumulates 2 x_1 + x_3 = 0: flagged
    assert chain.flagged == ref.flagged == (2, 4)
    with pytest.raises(NoEigenvectorError, match="inconsistent") as err:
        galerkin.first_associated_backsolve(op, 0, np.array([0, 1.0, 1.0, 1.0, 1.0]))
    assert err.value.position == 4


def test_core_blocks_equal_dense_slices():
    rng = np.random.default_rng(89)
    checked = 0
    for op in _degenerate_operators():
        values = sorted(set(op.matrix_diagonal.tolist()), key=lambda v: (v.real, v.imag))
        positions = [None, np.flatnonzero(rng.uniform(size=op.size) < 0.6)]
        for lam in [*values[::3], values[0].real + 0.123]:
            for pos in positions:
                for rank_tol in (None, 1e-3, 2.5):
                    block = galerkin._core_block(op, lam, pos, rank_tol)
                    expected = helpers.reference_core_block(op, lam, pos, rank_tol)
                    assert block.shape == expected.shape
                    assert block.tobytes() == expected.tobytes()
                    checked += block.size > 0
    assert checked > 50


def test_invariant_subset_check_equals_dense_scan():
    rng = np.random.default_rng(97)
    verdicts = set()
    for op in _degenerate_operators()[:6]:
        for _ in range(20):
            take = rng.uniform(size=op.size) < rng.choice([0.3, 0.9])
            plane = rng.choice(op.planes)
            # a tail of planes is invariant; a random subset usually is not
            if rng.uniform() < 0.5:
                take = np.array(op.planes) >= plane
            subset = [op.index_set[j] for j in np.flatnonzero(take)]
            if not subset:
                continue
            leaks = helpers.reference_subset_leaks(op, subset)
            verdicts.add(leaks)
            lam = float(op.matrix_diagonal[op.position(subset[-1])].real)
            if leaks:
                with pytest.raises(ValueError, match="invariant"):
                    galerkin.jordan_chain_excess(op, lam, subset=subset)
            else:
                assert galerkin.jordan_chain_excess(op, lam, subset=subset) == (
                    helpers.reference_jordan_chain_excess(op, lam, subset=subset)
                )
    assert verdicts == {True, False}


# -- int64 ends and the one-lookup subset ------------------------------------------


def _int64_end_cases():
    big, top, bottom = 2**62, 2**63 - 1, -(2**63)
    cases = []
    for label, coeffs in (
        ("2**62", {(1, 0): 0.2, (1, big): 0.1j}),
        ("2**63-1", {(1, 0): 0.2, (1, top): 0.1j}),
        ("-2**63", {(1, 0): 0.2, (1, bottom): 0.1j}),
        ("both-ends", {(1, 0): 0.2, (1, top): 0.1j, (2, bottom): -0.3, (top, -1): 0.05}),
        ("sign-minus", {(-1, 0): 0.2, (-1, top): 0.1j, (bottom, 1): -0.3}),
    ):
        cases.append(pytest.param(BASIS, coeffs, 4.0, id=f"2d-{label}"))
    for label, coeffs in (
        ("2**62", {(1, 0, 0): 0.2, (1, big, 0): 0.1j}),
        ("2**63-1", {(1, 0, 0): 0.2, (1, 0, top): 0.1j, (1, -1, bottom): -0.1}),
    ):
        cases.append(pytest.param(BASIS3, coeffs, 3.0, id=f"3d-{label}"))
    return cases


@pytest.mark.parametrize("basis, coeffs, cutoff", _int64_end_cases())
def test_build_with_int64_end_harmonics_equals_dense_build(basis, coeffs, cutoff):
    # n + g1 wraps in int64 for these harmonics; none may alias into the ball
    q = hb.FourierPotential(basis, coeffs)
    t = (0.5, 0.3, 0.2)[: basis.dimension]
    op = galerkin.build(basis, q, t, cutoff)
    index_set, dense = helpers.reference_build(basis, q, t, cutoff)
    assert op.index_set == index_set
    assert op.indices.dtype == np.int64
    assert op.indices.tolist() == [list(n) for n in index_set]
    assert op.matrix.tobytes() == dense.tobytes()
    _check_row_table(op, np.random.default_rng(101))


def _probe_operator():
    """A '+' operator with a second-plane member whose Jordan excess is 1."""
    q = hb.FourierPotential(BASIS, {(1, 0): 0.3, (2, -1): 0.2, (1, -1): 0.4, (2, 1): 0.1j})
    op = galerkin.build(BASIS, q, (0.0, 0.0), 7.0)
    member = (0, 1)
    subset = [n for n, p in zip(op.index_set, op.planes) if p > 0] + [member]
    return op, subset


def test_jordan_subset_as_tuples_or_array():
    op, subset = _probe_operator()
    expected = helpers.reference_jordan_chain_excess(op, 1.0, subset=subset)
    assert expected == 1
    scrambled = np.random.default_rng(5).permutation(len(subset))
    for form in (
        subset,
        np.array(subset, dtype=np.int64),
        np.array(subset, dtype=np.int64)[scrambled],
        [subset[j] for j in scrambled],
        np.array(subset, dtype=float),
    ):
        assert galerkin.jordan_chain_excess(op, 1.0, subset=form) == expected
    assert galerkin.jordan_chain_excess(op, 1.0, subset=[]) == 0
    assert galerkin.jordan_chain_excess(op, 1.0, subset=np.zeros((0, 2), np.int64)) == 0


def test_jordan_subset_errors_match_position():
    op, subset = _probe_operator()
    radius = max(n[1] for n in op.index_set)
    # (-1, radius + 1) packs, without the box check, onto the key of (0, -radius)
    for outside in ((9, 9), (-1, radius + 1), (0, 2**70), (1, -(2**63))):
        with pytest.raises(KeyError) as from_position:
            op.position(outside)
        # an int64 array, or an object array for the index beyond int64
        for form in (subset + [outside], np.array(subset + [outside])):
            with pytest.raises(KeyError) as got:
                galerkin.jordan_chain_excess(op, 1.0, subset=form)
            assert got.value.args == from_position.value.args
    messages = set()
    for form in (subset + [(0.5, 1)], np.array(subset + [(0.5, 1)], dtype=float)):
        with pytest.raises(ValueError, match="non-integer") as got:
            galerkin.jordan_chain_excess(op, 1.0, subset=form)
        messages.add(str(got.value))
    assert len(messages) == 1
    with pytest.raises(ValueError):
        op.position((0.5, 1))
    # the first member at fault decides, as a per-member lookup would
    with pytest.raises(ValueError, match="non-integer"):
        galerkin.jordan_chain_excess(op, 1.0, subset=[(0.5, 1), (9, 9)])
    with pytest.raises(KeyError):
        galerkin.jordan_chain_excess(op, 1.0, subset=[(9, 9), (0.5, 1)])
    for wrong_length in ([(0, 1, 0)], np.zeros((2, 3), dtype=np.int64), [(0, 1), (0, 1, 2)]):
        with pytest.raises(ValueError):
            galerkin.jordan_chain_excess(op, 1.0, subset=wrong_length)


def test_jordan_subset_reports_a_member_beyond_int64_as_given():
    # numpy makes this list a float64 array, where 2**63 + 1 rounds to 2**63
    op, _ = _probe_operator()
    big = (0, 2**63 + 1)
    with pytest.raises(KeyError) as from_position:
        op.position(big)
    with pytest.raises(KeyError) as got:
        galerkin.jordan_chain_excess(op, 1.0, subset=[(0, 0), big])
    assert got.value.args == from_position.value.args == (big,)


# -- the grown key box and the operator's one lookup ---------------------------------


_GROWN_BOX_CASES = (
    (BASIS, T, 4.0),
    (SKEWED, (0.31, 0.17), 4.0),
    (BASIS3, (0.3, 0.15, 0.05), 2.5),
)


def _equals_reference_build(basis, q, t, cutoff):
    """The operator, after checking it byte for byte against the dense build."""
    op = galerkin.build(basis, q, t, cutoff)
    index_set, dense = helpers.reference_build(basis, q, t, cutoff)
    assert op.index_set == index_set
    assert op.matrix.tobytes() == dense.tobytes()
    assert op.matrix_diagonal.tobytes() == np.diagonal(dense).tobytes()
    return op


def test_build_keeps_a_harmonic_one_shorter_than_the_ball_box_and_drops_a_box_long_one():
    for basis, t, cutoff in _GROWN_BOX_CASES:
        ball = basis.enumerate_ball(np.zeros(basis.dimension), cutoff)
        spans = (ball.max(axis=0) - ball.min(axis=0) + 1).tolist()
        # twice the lex-last row n couples -n to n: span - 1 long on axis 1
        kept, dropped = {tuple((2 * ball[-1]).tolist()): 0.5}, {(spans[0], *[0] * (len(spans) - 1)): 0.75}
        for j in range(1, len(spans)):
            for length, bucket, value in ((spans[j] - 1, kept, 0.125), (spans[j], dropped, 0.375)):
                for sign in (1, -1):
                    g = [1] + [0] * (len(spans) - 1)
                    g[j] = sign * length
                    bucket[tuple(g)] = sign * (value + 1j * j)
        op = _equals_reference_build(basis, hb.FourierPotential(basis, {**kept, **dropped}), t, cutoff)
        assert 0.5 in op.values.tolist()
        assert not set(dropped.values()) & set(op.values.tolist())


def test_build_with_a_zero_harmonic_and_on_a_one_point_ball():
    rng = np.random.default_rng(29)
    for basis, t, cutoff in _GROWN_BOX_CASES:
        zero = (0,) * basis.dimension
        # one shorter than the ball's box on axis 2: it couples across it
        top = basis.enumerate_ball(np.zeros(basis.dimension), cutoff)[:, 1].max()
        wide = (1, 2 * int(top), *[0] * (basis.dimension - 2))
        q = helpers.random_halfspace_potential(rng, basis, 1, "+", max_harmonics=4)
        q = hb.FourierPotential(basis, {zero: 0.7 - 0.2j, wide: 0.3, **q.coeffs})
        op = _equals_reference_build(basis, q, t, cutoff)
        assert op.matrix_diagonal.tolist() == (op.diagonal + (0.7 - 0.2j)).tolist()
        point = _equals_reference_build(basis, q, t, 0.0)
        assert point.index_set == (zero,) and point.values.size == 0
        assert point.matrix_diagonal.tolist() == [spectrum.eigenvalue(basis, zero, t) + (0.7 - 0.2j)]


def test_indices_of_the_grown_box_outside_the_ball_are_missing():
    coeffs = {(1, 0): 0.3, (2, -3): 0.2, (1, 3): 0.1j}
    op = _equals_reference_build(BASIS, hb.FourierPotential(BASIS, coeffs), T, 3.0)
    # the ball's box is [-3, 3]^2; the negated harmonics grow it to [-5, 3] x [-6, 6]
    for outside in ((4, 0), (5, -6), (-3, 6), (3, 3), (0, -6), (-5, 0), (-4, -6)):
        assert op.find([outside]).tolist() == [-1]
        with pytest.raises(KeyError) as from_position:
            op.position(outside)
        with pytest.raises(KeyError) as from_subset:
            galerkin.jordan_chain_excess(op, 1.0, subset=[(0, 0), outside])
        assert from_position.value.args == from_subset.value.args == (outside,)
    assert op.find(op.indices).tolist() == list(range(op.size))


def test_replaced_indices_are_found_afresh():
    op = galerkin.build(BASIS, hb.FourierPotential(BASIS, {(1, 0): 0.3}), T, 2.0)
    moved = dataclasses.replace(op, indices=op.indices[::-1] + 10)
    assert moved.find(moved.indices).tolist() == list(range(op.size))
    assert moved.find(op.indices).tolist() == [-1] * op.size
    assert moved.position((12, 10)) == 0 and op.position((2, 0)) == op.size - 1
    with pytest.raises(KeyError):
        moved.position((0, 0))


# -- couplings found row-major, and the diagonal of class S ------------------------

HEXAGONAL = hb.LatticeBasis(np.array([[1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]]))
SKEWED3 = hb.LatticeBasis(np.array([[1.0, 0.0, 0.0], [0.5, 1.0, 0.0], [0.0, 0.5, 1.0]]))
_COUPLING_BASES = {
    "identity": (BASIS, 4.5),
    "skewed": (SKEWED, 4.0),
    "hexagonal": (HEXAGONAL, 4.0),
    "3d": (BASIS3, 2.5),
    "3d-skewed": (SKEWED3, 2.5),
}


def _unclassifiable_potential(rng, basis, constant: bool):
    """Random harmonics plus a constant one, or plus a step g beside -g:
    neither support lies in an open half-lattice."""
    d = basis.dimension
    coeffs = {}
    for _ in range(int(rng.integers(1, 6))):
        coeffs[tuple(rng.integers(-3, 4, size=d).tolist())] = helpers.random_unit_disc(rng)
    g = tuple(rng.integers(-2, 3, size=d).tolist())
    if constant or not any(g):
        coeffs[(0,) * d] = 0.5 - 0.25j
    else:
        coeffs[g], coeffs[tuple(-x for x in g)] = 0.75, -0.125j
    return hb.FourierPotential(basis, coeffs)


@pytest.mark.parametrize("name", _COUPLING_BASES)
def test_couplings_equal_the_forward_search_and_its_sort(name):
    basis, radius = _COUPLING_BASES[name]
    d = basis.dimension
    rng = np.random.default_rng(83 + len(name))
    potentials = [
        helpers.random_halfspace_potential(rng, basis, k, sign, max_harmonics=7, max_p=3)
        for k in range(1, d + 1)
        for sign in ("+", "-")
        for _ in range(3)
    ]
    potentials += [_unclassifiable_potential(rng, basis, constant=j % 2 == 0) for j in range(8)]
    assert sum(q.classification is None for q in potentials) == 8
    for q in potentials:
        cutoff = float(rng.uniform(0.5, radius))
        op = galerkin.build(basis, q, (0.0,) * d, cutoff)
        for got, ref in zip((op.rows, op.cols, op.values), helpers.reference_couplings(basis, q, cutoff)):
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("name", _COUPLING_BASES)
def test_class_s_diagonal_is_the_free_values_bit_for_bit(name):
    # with no q_0 the matrix diagonal is |g + t|^2 + 0j, so comparing it
    # entry by entry with the free values decides what a sorted comparison does
    basis, radius = _COUPLING_BASES[name]
    d = basis.dimension
    rng = np.random.default_rng(89 + len(name))
    for k in range(1, d + 1):
        for sign in ("+", "-"):
            q = helpers.random_halfspace_potential(rng, basis, k, sign, max_harmonics=5)
            for t in (rng.uniform(-0.5, 0.5, size=d), np.zeros(d)):
                op = galerkin.build(basis, q, t, radius)
                assert q.classification is not None
                assert op.matrix_diagonal.real.tobytes() == op.diagonal.tobytes()


# -- the dense row table against a dict from index to row ---------------------------

_ROW_TABLE_BASES = {
    **_COUPLING_BASES,
    "1d": (hb.identity_basis(1), 6.0),
    "1d-2pi": (hb.LatticeBasis(np.array([[2 * math.pi]])), 40.0),
}


def _position(op, n):
    """The row of n, or the args of the KeyError position raises."""
    try:
        return op.position(n)
    except KeyError as error:
        return ("KeyError", error.args)


def _probe_members(op, rng):
    """int64 members: the ball, every point of the row table's box (in the
    ball or not), points just and far outside the box on each side of every
    axis, and points with entries at the int64 ends."""
    d = op.basis.dimension
    corner, spans = op._lookup.lo.tolist(), op._lookup.spans.tolist()
    box = lattice.grid([np.arange(m, m + s, dtype=np.int64) for m, s in zip(corner, spans)])
    picks = box[rng.integers(0, len(box), size=4 * d)]
    moved = []
    for j, (m, s) in enumerate(zip(corner, spans)):
        for value in (m - 1, m + s, m - 3 * s, m + 3 * s, -(2**63), 2**63 - 1):
            rows = picks.copy()
            rows[:, j] = value
            moved.append(rows)
    ends = np.array(list(itertools.product((-(2**63), 0, 2**63 - 1), repeat=d)), dtype=np.int64)
    return np.concatenate([op.indices, box, *moved, ends])


def _check_row_table(op, rng):
    """``op``'s table finds and positions every probe as a dict from index
    to row does, and as the table a replaced operator builds over its own box."""
    assert isinstance(op._lookup, coeffset.RowTable)
    replaced = dataclasses.replace(op)
    assert replaced._lookup is not op._lookup
    row_of = dict(zip(map(tuple, op.indices.tolist()), range(op.size)))
    members = _probe_members(op, rng)
    got = op.find(members)
    assert got.dtype == np.intp
    assert got.tolist() == [row_of.get(n, -1) for n in map(tuple, members.tolist())]
    assert got.tolist() == replaced.find(members).tolist()
    assert op.find(op.indices).tolist() == list(range(op.size))
    # entries beyond int64 reach find as exact Python ints in an object array
    d = op.basis.dimension
    beyond = [
        (2**63, *[0] * (d - 1)),
        (*[0] * (d - 1), -(2**63) - 1),
        tuple([2**70] * d),
        tuple([-(2**63)] * d),
    ]
    wide = np.array(beyond, dtype=object)
    assert op.find(wide).tolist() == replaced.find(wide).tolist() == [-1] * len(beyond)
    step = max(1, len(members) // 300)
    for n in [*map(tuple, members[::step].tolist()), *map(tuple, op.indices.tolist()), *beyond]:
        assert _position(op, n) == _position(replaced, n)
        assert _position(op, n) == (row_of[n] if n in row_of else ("KeyError", (n,)))


@pytest.mark.parametrize("name", _ROW_TABLE_BASES)
def test_row_table_equals_the_searched_lookup(name):
    basis, radius = _ROW_TABLE_BASES[name]
    d = basis.dimension
    rng = np.random.default_rng(97 + len(name))
    for k in range(1, d + 1):
        for sign in ("+", "-"):
            # six planes: 1-D has as many harmonics as planes
            q = helpers.random_halfspace_potential(rng, basis, k, sign, max_harmonics=6, max_p=6)
            cutoff = float(rng.uniform(0.5, radius))
            _check_row_table(galerkin.build(basis, q, (0.0,) * d, cutoff), rng)
    # a one-point ball, whose box no harmonic fits
    q = hb.FourierPotential(basis, {(1, *[0] * (d - 1)): 0.5})
    _check_row_table(galerkin.build(basis, q, (0.0,) * d, 0.0), rng)


def _table(op):
    return op._lookup.lo.tolist(), op._lookup.spans.tolist(), op._lookup.table.tobytes()


@pytest.mark.parametrize("name", _ROW_TABLE_BASES)
def test_row_table_stays_within_three_to_the_d_ball_boxes(name):
    basis, radius = _ROW_TABLE_BASES[name]
    d = basis.dimension
    t = (0.25, 0.125, 0.0625)[:d]
    ball = basis.enumerate_ball(np.zeros(d), radius)
    spans = (ball.max(axis=0) - ball.min(axis=0) + 1).tolist()
    assert min(spans) > 2
    first = tuple(int(j == 0) for j in range(d))
    longest = {first: 0.5}
    # one shorter than the ball's box on every axis, both ways: the table's
    # box grows by span - 1 on each side
    for j in range(d):
        for sign in (1, -1):
            g = [0] * d
            g[j] = sign * (spans[j] - 1)
            longest[tuple(g)] = sign * (0.25 + 0.125j * j)
    op = _equals_reference_build(basis, hb.FourierPotential(basis, longest), t, radius)
    assert op._lookup.spans.tolist() == [3 * s - 2 for s in spans]
    assert op._lookup.table.size <= 3**d * math.prod(spans)
    _check_row_table(op, np.random.default_rng(103))
    # harmonics as long as the box or beyond it are dropped before the box is grown
    beyond = {(1, 2**62, *[0] * (d - 2)) if d > 1 else (2**62,): 0.375, (spans[0], *[0] * (d - 1)): 0.0625}
    for coeffs in ({first: 0.5}, longest):
        without = galerkin.build(basis, hb.FourierPotential(basis, coeffs), t, radius)
        with_beyond = galerkin.build(basis, hb.FourierPotential(basis, {**coeffs, **beyond}), t, radius)
        assert _table(with_beyond) == _table(without)
