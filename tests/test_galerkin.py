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
    small = dataclasses.replace(op, matrix=cells, index_set=op.index_set[:2])
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
