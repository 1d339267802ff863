import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import halfspace_bloch as hb
from halfspace_bloch import bloch, galerkin, rootfn, spectrum
from halfspace_bloch.errors import MalformedCoefficientsError, ResonanceError

import helpers

BASIS = hb.identity_basis(2)
T0 = (0.0, 0.0)


def unit_circle_group():
    return spectrum.degeneracy_group(BASIS, (1, 0), T0, k=1, cutoff=6.0)


def test_second_plane_criterion_is_single_coefficient():
    # adjacent planes (n1 - n2 = 1) leave no chain terms: the criterion for the
    # member (0, 1) is q_{(1,-1)} and for (0, -1) it is q_{(1,1)}
    group = unit_circle_group()
    q = hb.FourierPotential(
        BASIS, {(1, -1): 0.3, (1, 1): 0.0, (1, 0): 0.25, (2, 1): 0.1}
    )
    j_plus = group.planes[1].members.index((0, 1))
    j_minus = group.planes[1].members.index((0, -1))
    rep = rootfn.second_plane_solve(BASIS, q, group, j_plus)
    assert rep.criterion_values == (pytest.approx(0.3 + 0j),)
    assert rep.classification is rootfn.Classification.ASSOCIATED
    assert rep.associated_bound == 1
    rep2 = rootfn.second_plane_solve(BASIS, q, group, j_minus)
    assert rep2.criterion_values == (0j,)
    assert rep2.classification is rootfn.Classification.EIGENFUNCTION


def test_second_plane_eigenfunction_when_coupling_absent():
    group = unit_circle_group()
    q = hb.FourierPotential(BASIS, {(1, 0): 0.4, (2, -2): 0.2})
    j = group.planes[1].members.index((0, 1))
    rep = rootfn.second_plane_solve(BASIS, q, group, j)
    assert rep.classification is rootfn.Classification.EIGENFUNCTION


@pytest.mark.parametrize("factor, expected", [
    (0.1, rootfn.Classification.EIGENFUNCTION),
    (10.0, rootfn.Classification.ASSOCIATED),
])
def test_criterion_tolerance_boundary_second_plane(factor, expected):
    # adjacent planes: the criterion of the member (0, 1) is q_{(1,-1)} * 1 / 1,
    # exactly eps; (2, -1) rises past the leading plane.  The width is the
    # literal, so CRITERION_TOL moved by 100 either way fails one side
    eps = factor * 1e-10
    group = unit_circle_group()
    q = hb.FourierPotential(BASIS, {(1, -1): eps, (2, -1): 0.3})
    rep = rootfn.second_plane_solve(BASIS, q, group, group.planes[1].members.index((0, 1)))
    assert rep.criterion_values == (complex(eps),)
    assert rep.classification is expected


def test_second_plane_jordan_probe_agreement():
    # classification matches the rank probe on the member's invariant subspace
    rng = np.random.default_rng(61)
    group = unit_circle_group()
    for sweep in (0.0, 0.3, -0.2 + 0.1j):
        coeffs = {(1, -1): sweep}
        for idx in ((1, 0), (1, 1), (2, 0), (2, -1), (2, 1)):
            coeffs[idx] = helpers.random_unit_disc(rng, 0.5)
        q = hb.FourierPotential(BASIS, coeffs)
        op = galerkin.build(BASIS, q, T0, 6.0)
        for member in group.planes[1].members:
            j = group.planes[1].members.index(member)
            rep = rootfn.second_plane_solve(BASIS, q, group, j)
            subset = [
                n for n, p in zip(op.index_set, op.planes) if p >= 1
            ] + [member]
            excess = galerkin.jordan_chain_excess(op, group.lam, subset=subset)
            expected_assoc = rep.classification is rootfn.Classification.ASSOCIATED
            assert (excess == 1) == expected_assoc


def test_second_plane_deeper_group_has_chain_terms():
    # lam = 4 at t = 0: planes n1 = 2 (member (2,0)) and n2 = 0 contain
    # (0, +-2); the criterion then includes one chain term through plane 1
    group = spectrum.degeneracy_group(BASIS, (2, 0), T0, k=1, cutoff=10.0)
    assert group.planes[0].n == 2 and group.planes[1].n == 0
    a, b = 0.31, -0.27
    q = hb.FourierPotential(BASIS, {(1, -1): a, (1, -3): 0.0, (2, -2): b})
    member = (0, 2)
    j = group.planes[1].members.index(member)
    rep = rootfn.second_plane_solve(BASIS, q, group, j)
    # hand evaluation: c((1,-1)+(0,2)=(1,1) at plane 1) = q_{(1,-1)} / (4 - |(1,1)|^2)
    # criterion = q_{(2,-2)} + q_{(1,-1)} * c((1,1))
    c11 = a / (4.0 - 2.0)
    expected = b + a * c11
    assert rep.criterion_values[0] == pytest.approx(expected)
    assert rep.coefficients[((0, 1), 1)] == pytest.approx(c11)


def test_second_plane_coefficients_match_backsolve():
    # tune the deep group (lam = 4, n1 - n2 = 2) to criterion zero:
    # q_{(2,-2)} = -q_{(1,-1)}^2 / 2 makes (0, 2) an eigenfunction member,
    # and the solved c(a, n) must then equal the backsolved eigenvector
    group = spectrum.degeneracy_group(BASIS, (2, 0), T0, k=1, cutoff=10.0)
    a = 0.4
    q = hb.FourierPotential(BASIS, {(1, -1): a, (2, -2): -a * a / 2.0})
    member = (0, 2)
    j = group.planes[1].members.index(member)
    rep = rootfn.second_plane_solve(BASIS, q, group, j)
    assert rep.classification is rootfn.Classification.EIGENFUNCTION

    op = galerkin.build(BASIS, q, T0, 6.0)
    vec = galerkin.eigenvector_backsolve(op, op.position(member))
    for (a_idx, n), value in rep.coefficients.items():
        node = (n, a_idx[1])
        if node in op.index_set:
            assert vec.vector[op.position(node)] == pytest.approx(value, abs=1e-12)

    # detuned: the backsolve is blocked exactly at the leading member row
    q_bad = hb.FourierPotential(BASIS, {(1, -1): a, (2, -2): 0.1})
    rep_bad = rootfn.second_plane_solve(BASIS, q_bad, group, j)
    assert rep_bad.classification is rootfn.Classification.ASSOCIATED
    op_bad = galerkin.build(BASIS, q_bad, T0, 6.0)
    import pytest as _pytest

    from halfspace_bloch.errors import NoEigenvectorError

    with _pytest.raises(NoEigenvectorError) as err:
        galerkin.eigenvector_backsolve(op_bad, op_bad.position(member))
    assert op_bad.index_set[err.value.position] == (2, 0)
    # the blocking residual is exactly the criterion value
    assert err.value.residual == pytest.approx(-rep_bad.criterion_values[0])


def test_second_plane_requires_matching_classification():
    group = unit_circle_group()
    q = hb.FourierPotential(BASIS, {(0, -2): 1.0})  # classified (2, '-')
    with pytest.raises(ValueError):
        rootfn.second_plane_solve(BASIS, q, group, 0)


def test_oned_coefficient_examples():
    assert rootfn.oned_coefficient(1, {}, 1) == 0
    a = 0.37 + 0.11j
    # reduced units: q_1 = A means u_1 = A / pi^2; c_1 = u_1 / 4 = A / (4 pi^2)
    u = a / math.pi**2
    assert rootfn.oned_coefficient(1, {1: u}, 1) == pytest.approx(a / (4 * math.pi**2))
    assert rootfn.oned_coefficient(2, {1: u}, 1) == pytest.approx(a / (12 * math.pi**2))


def test_oned_coefficient_matches_chain_oracle():
    rng = np.random.default_rng(67)
    for n in (1, 2, 3):
        for _ in range(10):
            u = {
                m: helpers.ONED_DRAWS[int(rng.integers(0, len(helpers.ONED_DRAWS)))]
                for m in range(1, 2 * n + 1)
            }
            for p in range(1, 2 * n):
                mine = complex(rootfn.oned_coefficient(n, u, p))
                oracle = complex(helpers.oned_chain_oracle(n, u, p))
                assert mine == pytest.approx(oracle, abs=1e-12)


def test_oned_criterion_free_operator():
    assert rootfn.oned_double_criterion(1, {}) == 0
    assert rootfn.oned_double_criterion(2, {}) == 0


def test_oned_criterion_single_harmonic():
    # u_2 term absent: criterion = u_1 * c_1 = u_1^2 / 4
    u1 = Fraction(1, 2)
    assert rootfn.oned_double_criterion(1, {1: u1}) == Fraction(1, 16)


def test_oned_criterion_tuned_cancellation_exact():
    for alpha in (Fraction(1, 2), Fraction(-3, 10), Fraction(7, 4)):
        u = {1: alpha, 2: -alpha * alpha / 4}
        assert rootfn.oned_double_criterion(1, u) == 0


def test_oned_criterion_support_guard():
    with pytest.raises(ValueError):
        rootfn.oned_double_criterion(1, {0: 1.0, 1: 1.0})
    with pytest.raises(ValueError):
        rootfn.oned_coefficient(1, {-2: 1.0}, 1)


def test_oned_criterion_oracle_equivalence_random():
    rng = np.random.default_rng(71)
    for _ in range(30):
        n = int(rng.integers(1, 3))
        u = {
            m: helpers.ONED_DRAWS[int(rng.integers(0, len(helpers.ONED_DRAWS)))]
            for m in range(1, 5)
        }
        crit = rootfn.oned_double_criterion(n, u)
        mult, _, _ = helpers.oned_oracle_multiplicity(u, n)
        if crit == 0:
            assert mult == 2
        else:
            assert abs(complex(crit)) >= 1e-3
            assert mult == 1


def test_classify_forms_free_waves():
    assert rootfn.classify_eigenfunction_form({-2: 1.0}, 2) is rootfn.RootForm.MINUS
    assert rootfn.classify_eigenfunction_form({2: 1.0}, 2) is rootfn.RootForm.PLUS
    assert rootfn.classify_eigenfunction_form({}, 1) is rootfn.RootForm.ZERO


def test_classify_forms_backsolved_vectors():
    u = {1: Fraction(1, 2)}
    _, op, lam = helpers.oned_oracle_multiplicity(u, 1)
    plus = galerkin.eigenvector_backsolve(op, op.position((1,)))
    psi = {n[0]: complex(v) for n, v in zip(op.index_set, plus.vector) if v != 0}
    assert rootfn.classify_eigenfunction_form(psi, 1) is rootfn.RootForm.PLUS
    chain, c = galerkin.first_associated_backsolve(op, op.position((-1,)), plus.vector)
    assert c != 0
    phi = {n[0]: complex(v) for n, v in zip(op.index_set, chain.vector) if v != 0}
    assert rootfn.classify_eigenfunction_form(phi, 1) is rootfn.RootForm.MINUS


def test_classify_forms_malformed():
    with pytest.raises(MalformedCoefficientsError):
        rootfn.classify_eigenfunction_form({-3: 1.0, -1: 1.0}, 1)
    with pytest.raises(MalformedCoefficientsError):
        rootfn.classify_eigenfunction_form({1: 1.0, 0: 0.5}, 1)
    with pytest.raises(MalformedCoefficientsError):
        rootfn.classify_eigenfunction_form({3: 1.0}, 2)


def test_minus_form_eigenvector_when_multiplicity_two():
    alpha = Fraction(1, 2)
    u = {1: alpha, 2: -alpha * alpha / 4}
    mult, op, lam = helpers.oned_oracle_multiplicity(u, 1)
    assert mult == 2
    minus = galerkin.eigenvector_backsolve(op, op.position((-1,)))
    psi = {n[0]: complex(v) for n, v in zip(op.index_set, minus.vector) if v != 0}
    assert rootfn.classify_eigenfunction_form(psi, 1) is rootfn.RootForm.MINUS


def test_leading_plane_root_functions_are_eigenfunctions():
    # series functions on the top plane have tiny residual: first-plane root
    # functions are genuine eigenfunctions
    t = (0.5, 0.0)
    q = hb.FourierPotential(BASIS, {(0, 1): 0.3, (1, 1): 0.2})
    group = spectrum.degeneracy_group(BASIS, (0, 0), t, k=2, cutoff=6.0)
    for b in group.leading_members():
        psi = bloch.bloch_series(BASIS, q, b, t, max_order=12)
        assert bloch.residual(BASIS, q, psi) < 1e-9


def test_report_serialization():
    group = unit_circle_group()
    q = hb.FourierPotential(BASIS, {(1, -1): 0.3})
    rep = rootfn.second_plane_solve(BASIS, q, group, 1)
    doc = rep.to_json_dict()
    assert doc["classification"] == "associated"
    assert doc["associated_bound"] == 1
    assert doc["criterion_values"][0]["re"] == pytest.approx(0.3)


def test_second_plane_rejects_out_of_range_member():
    group = unit_circle_group()
    q = hb.FourierPotential(BASIS, {(1, -1): 0.3})
    for j in (-1, len(group.planes[1].members)):
        with pytest.raises(IndexError):
            rootfn.second_plane_solve(BASIS, q, group, j)


def test_second_plane_missed_collision_raises():
    # lam = 2 at t = 0 without (1, 1): from the member (-1, 1) the harmonic
    # (1, 0) reaches (1, 1) on the leading plane, where the left factor is 0
    group = spectrum.degeneracy_group(BASIS, (1, 1), T0, k=1, cutoff=8.0)
    members = tuple(m for m in group.members if m[0] != (1, 1))
    planes = (
        dataclasses.replace(group.planes[0], members=((1, -1),)),
        *group.planes[1:],
    )
    group = dataclasses.replace(group, members=members, planes=planes)
    q = hb.FourierPotential(BASIS, {(1, 0): 0.3, (1, 1): 0.2})
    j = group.planes[1].members.index((-1, 1))
    message = r"non-group index \(1, 1\); the group lacks this colliding point"
    with pytest.raises(ResonanceError, match=message) as err:
        rootfn.second_plane_solve(BASIS, q, group, j)
    assert err.value.index == (1, 1)
    assert err.value.value == 0.0


def _groups_by_depth(basis, t, depths):
    """One group per plane depth n_1 - n_2, from a scan of small indices."""
    found = {}
    for gamma in itertools.product(range(-4, 5), repeat=2):
        for k in (1, 2):
            lam = spectrum.eigenvalue(basis, gamma, t)
            group = spectrum.degeneracy_group(basis, gamma, t, k, 4.0 * math.sqrt(lam) + 4.0)
            if len(group.planes) > 1:
                found.setdefault(group.planes[0].n - group.planes[1].n, group)
    return [found[d] for d in depths]


@pytest.mark.parametrize(
    "generators", ([[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.5, 0.9]]), ids=("identity", "skewed")
)
@pytest.mark.parametrize(
    "half, depths", ((None, (1, 2, 3, 4, 6)), ((0, 1), range(1, 7))), ids=("t0", "half-lattice-t")
)
def test_second_plane_matches_dict_loop_reference(generators, half, depths):
    # at t = 0 and at t = half a lattice vector every level pairs with its
    # reflection, so groups with two planes exist; no depth-5 group is this
    # small at t = 0
    basis = hb.LatticeBasis(np.array(generators))
    t = (0.0, 0.0) if half is None else tuple(0.5 * basis.to_cartesian(half))
    rng = np.random.default_rng(73)
    for group in _groups_by_depth(basis, t, depths):
        for _ in range(3):
            q = helpers.random_halfspace_potential(rng, basis, k=group.k, max_harmonics=10)
            while q.classification != (group.k, "+"):  # k = 2 may also fit k = 1
                q = helpers.random_halfspace_potential(rng, basis, k=group.k, max_harmonics=10)
            for j in range(len(group.planes[1].members)):
                _assert_second_plane_matches_reference(basis, q, group, j)


def _assert_second_plane_matches_reference(basis, q, group, j):
    """The report for member j, checked against the dict-loop reference."""
    rep = rootfn.second_plane_solve(basis, q, group, j)
    ref = helpers.reference_second_plane_solve(basis, q, group, j)
    assert rep.classification is ref.classification
    assert rep.criterion_values == pytest.approx(ref.criterion_values, rel=1e-12, abs=1e-15)
    assert list(rep.coefficients) == list(ref.coefficients)
    assert rep.coefficients == pytest.approx(ref.coefficients, rel=1e-12, abs=1e-15)
    return rep


@pytest.mark.parametrize("coeffs, reached", [
    # plane 2 holds (2, 0), (2, 1), (2, 2): only the leading (1, 1) is reached
    ({(1, 0): 0.3, (1, 1): 0.2}, [(1, 1)]),
    # plane 2 holds (2, 5), (2, 10): no leading member is reached
    ({(1, 5): 0.2, (2, 5): 0.1}, []),
    # rises of 3 leave plane 2 empty
    ({(3, 0): 0.3, (3, 1): 0.2 - 0.1j}, []),
])
def test_second_plane_finds_the_reached_leading_members_on_the_top_plane(coeffs, reached):
    # lam = 2 at t = 0: the leading plane 1 holds (1, -1) and (1, 1), s = 2,
    # and the member (-1, 1) lies two planes below it
    group = spectrum.degeneracy_group(BASIS, (1, 1), T0, k=1, cutoff=8.0)
    assert group.planes[0].members == ((1, -1), (1, 1))
    q = hb.FourierPotential(BASIS, coeffs)
    j = group.planes[1].members.index((-1, 1))
    plan = q.plan(2)
    top = {tuple(n) for n in plan.offsets[plan.bounds[2]:plan.bounds[3]].tolist()}
    assert [m for m in group.planes[0].members if (m[0] + 1, m[1] - 1) in top] == reached
    rep = _assert_second_plane_matches_reference(BASIS, q, group, j)
    unreached = [v for m, v in zip(group.planes[0].members, rep.criterion_values) if m not in reached]
    assert unreached == [0j] * (2 - len(reached))
    assert all(v != 0 for m, v in zip(group.planes[0].members, rep.criterion_values) if m in reached)
