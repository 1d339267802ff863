import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

import halfspace_bloch as hb
from halfspace_bloch import bloch, galerkin, spectrum
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
    closed = bloch.closed_form_coeffs(BASIS, q, (0, 0), T, depth=max(op.planes))
    cone = galerkin.interior_cone(op, (0, 0))
    assert len(cone) > 3
    for delta in cone:
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


# -- window rank probes against the dense references -----------------------------

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


def test_free_operator_window_spans_three_planes():
    op = galerkin.build(BASIS, hb.FourierPotential(BASIS, {}), (0.0, 0.0), 2.5)
    rows = [i for i, p in enumerate(op.planes) if -1 <= p <= 1]
    expected = op.matrix[np.ix_(rows, rows)] - np.eye(len(rows))
    assert np.array_equal(galerkin._window_block(op, 1.0), expected)
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
    assert galerkin._window_block(op, lam).shape == (0, 0)
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

    def recording_rank(mat, rank_tol):
        result = rank(mat, rank_tol)
        thresholds.append(result[2])
        return result

    monkeypatch.setattr(galerkin, "_numerical_rank", recording_rank)
    reduced = {1: Fraction(2, 5), 2: -Fraction(1, 25)}
    for planes in (5, 8, 12):
        helpers.oned_oracle_multiplicity(reduced, 1, cutoff_planes=planes)
    assert len(thresholds) == 3 and len(set(thresholds)) == 1


def test_explicit_rank_tol_is_absolute_and_borderline_warns():
    op = galerkin.build(BASIS, hb.FourierPotential(BASIS, {}), (0.0, 0.0), 2.5)
    # window gaps |n|^2 - 1 are 0 (four times), 1 (five times) and 3 or 4
    with pytest.warns(UserWarning, match="borderline rank decision"):
        assert galerkin.geometric_multiplicity(op, 1.0, rank_tol=1.5) == 9


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
        index_set=op.index_set[:2],
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
    max_len = max(op.planes) - op.planes[op.position(gamma)]
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
    cone = galerkin.interior_cone(op, (0, 0))
    assert cone == _interior_cone_chain_oracle(op, (0, 0), q)
    assert (0, 0) in cone

    rng = np.random.default_rng(59)
    for _ in range(5):
        q = helpers.random_halfspace_potential(
            rng, BASIS, max_harmonics=3, max_p=2, max_a=3
        )
        op = galerkin.build(BASIS, q, (0.1, 0.2), 4.5)
        assert galerkin.interior_cone(op, (0, 0)) == _interior_cone_chain_oracle(
            op, (0, 0), q
        )


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
            assert cone == helpers.reference_interior_cone(op, gamma), (q.coeffs, gamma)
            nontrivial += len(cone) > 1
    assert nontrivial


def test_interior_cone_with_planes_no_step_reaches():
    # every step rises two planes or more: plane 1 of the cone stays empty
    q = hb.FourierPotential(BASIS, {(2, 0): 0.1, (3, 1): 0.2, (2, -1): 0.1j})
    op = galerkin.build(BASIS, q, T, 4.0)
    assert {d[0] for d in galerkin.interior_cone(op, (-4, 0))} == {0, 2, 3, 4, 5, 6, 7, 8}
    for gamma in _ball_gammas(op):
        assert galerkin.interior_cone(op, gamma) == helpers.reference_interior_cone(op, gamma)


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
    assert cone == helpers.reference_interior_cone(op, (0, 0)) == {(0, 0), (1, 0)}
    for gamma in [(-19, 0), (5, 3), (20, 0)]:
        assert galerkin.interior_cone(op, gamma) == helpers.reference_interior_cone(op, gamma)


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
    top = max(op.planes)
    spans = [
        top * (max(0, max(c)) - min(0, min(c))) + 1 for c in zip(*coeffs)
    ]
    assert (math.prod(spans) >= 2**63) == fallback
    for gamma in _ball_gammas(op):
        assert galerkin.interior_cone(op, gamma) == helpers.reference_interior_cone(op, gamma)
    assert len(galerkin.interior_cone(op, (0,) * basis.dimension)) > 2


def test_interior_cone_needs_class_s():
    q = hb.FourierPotential(BASIS, {(1, 0): 0.1, (-1, 0): 0.1})
    op = galerkin.build(BASIS, q, T, 2.0)
    with pytest.raises(ValueError, match="class S"):
        galerkin.interior_cone(op, (0, 0))


def test_positions_is_a_read_only_view():
    q = hb.FourierPotential(BASIS, {(1, 0): 0.1})
    op = galerkin.build(BASIS, q, T, 2.0)
    assert dict(op.positions) == {n: op.position(n) for n in op.index_set}
    with pytest.raises(TypeError):
        op.positions[(0, 0)] = 1
    assert op.indices.tolist() == [list(n) for n in op.index_set]


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
    index_set = tuple((j,) for j in range(len(planes)))
    starts = [j for j in range(len(planes)) if j == 0 or planes[j] != planes[j - 1]]
    return dataclasses.replace(
        op,
        index_set=index_set,
        indices=np.array(index_set, dtype=np.int64),
        diagonal=np.real(np.asarray(diagonal, dtype=complex)),
        matrix_diagonal=np.asarray(diagonal, dtype=complex),
        rows=np.array([r for r, _ in keys], dtype=np.int64),
        cols=np.array([c for _, c in keys], dtype=np.int64),
        values=np.array([entries[key] for key in keys], dtype=complex),
        planes=tuple(planes),
        plane_bounds=np.array([*starts, len(planes)]),
        _positions={n: j for j, n in enumerate(index_set)},
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


def test_window_blocks_equal_dense_slices():
    rng = np.random.default_rng(89)
    checked = 0
    for op in _degenerate_operators():
        values = sorted(set(op.matrix_diagonal.tolist()), key=lambda v: (v.real, v.imag))
        positions = [None, np.flatnonzero(rng.uniform(size=op.size) < 0.6)]
        for lam in [*values[::3], values[0].real + 0.123]:
            for pos in positions:
                for rank_tol in (None, 1e-3, 2.5):
                    block = galerkin._window_block(op, lam, pos, rank_tol)
                    expected = helpers.reference_window_block(op, lam, pos, rank_tol)
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
