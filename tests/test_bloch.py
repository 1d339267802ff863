import math
import warnings

import numpy as np
import pytest

import halfspace_bloch as hb
from halfspace_bloch import bloch, galerkin, potential, spectrum
from halfspace_bloch.errors import ResonanceError
from halfspace_bloch.lattice import decompose

import helpers

BASIS = hb.identity_basis(2)
T = (0.5, 0.3)


def single_harmonic(a=0.1):
    return hb.FourierPotential(BASIS, {(1, 0): a})


def test_apply_a_zero_potential():
    q = hb.FourierPotential(BASIS, {})
    assert helpers.apply_A(BASIS, q, (0, 0), T, {(0, 0): 1.0}) == {}


def test_apply_a_single_harmonic():
    # lam = 0.34, |(1.5, 0.3)|^2 = 2.34: coefficient -A/2
    out = helpers.apply_A(BASIS, single_harmonic(), (0, 0), T, {(0, 0): 1.0})
    assert out == {(1, 0): pytest.approx(-0.05)}


def test_apply_a_second_application():
    first = helpers.apply_A(BASIS, single_harmonic(), (0, 0), T, {(0, 0): 1.0})
    second = helpers.apply_A(BASIS, single_harmonic(), (0, 0), T, first)
    # |(2.5, 0.3)|^2 = 6.34: (-A/2) * A / (0.34 - 6.34) = A^2 / 12
    assert second == {(2, 0): pytest.approx(0.01 / 12)}


def test_apply_a_resonance_error():
    # t = 0, gamma = (-1, 0): offset (1,0) hits |(0,0)|^2 = lam... not resonant;
    # offset (2,0) hits |(1,0)+t|^2 = 1 = lam exactly
    q = single_harmonic()
    with pytest.raises(ResonanceError) as err:
        coeffs = {(0, 0): 1.0}
        for _ in range(3):
            coeffs = helpers.apply_A(BASIS, q, (-1, 0), (0.0, 0.0), coeffs)
    assert err.value.index == (2, 0)


def test_series_zero_potential():
    out = bloch.bloch_series(BASIS, hb.FourierPotential(BASIS, {}), (0, 0), T)
    assert out.coeffs == {(0, 0): 1.0}
    assert out.tail == 0.0 and out.converged


@pytest.mark.parametrize("max_order", [0, -1, -3])
def test_series_without_orders_is_the_bare_wave(max_order):
    q = hb.FourierPotential(BASIS, {(1, 0): 0.1, (1, -2): 0.2, (2, 1): 0.05})
    out = bloch.bloch_series(BASIS, q, (0, 0), T, max_order=max_order)
    assert out.coeffs == {(0, 0): 1.0}
    assert (out.order, out.term_masses) == (0, ())


def test_series_single_harmonic_values():
    out = bloch.bloch_series(BASIS, single_harmonic(), (0, 0), T, max_order=12)
    assert out.coeffs[(0, 0)] == 1.0
    assert out.coeffs[(1, 0)] == pytest.approx(-0.05)
    assert out.coeffs[(2, 0)] == pytest.approx(8.333333333e-4, rel=1e-6)
    assert out.converged
    # geometric decay of the term masses
    ratios = [b / a for a, b in zip(out.term_masses, out.term_masses[1:]) if a > 0]
    assert all(r < 0.6 for r in ratios)


def test_series_degenerate_leading_member():
    # gamma = (1,0) is the single leading member of the lam = 1 group at t = 0
    out = bloch.bloch_series(BASIS, single_harmonic(), (1, 0), (0.0, 0.0))
    assert out.coeffs[(1, 0)] == pytest.approx(0.1 / (1 - 4))
    assert out.converged


def test_closed_form_zero_potential():
    out = bloch.closed_form_coeffs(BASIS, hb.FourierPotential(BASIS, {}), (0, 0), T, 4)
    assert out.coeffs == {(0, 0): 1.0}


def test_closed_form_single_harmonic_hand_values():
    out = bloch.closed_form_coeffs(BASIS, single_harmonic(), (0, 0), T, depth=3)
    assert out.coeffs[(1, 0)] == pytest.approx(-0.05)
    assert out.coeffs[(2, 0)] == pytest.approx(0.01 / 12)


def test_closed_form_two_harmonics_chain_sum():
    # c((2,0)) = (q_{(2,0)} + q_{(1,0)}^2 / d_1) / d_2 with d_1 = -2, d_2 = -6
    a, b2 = 0.1, 0.07
    q = hb.FourierPotential(BASIS, {(1, 0): a, (2, 0): b2})
    out = bloch.closed_form_coeffs(BASIS, q, (0, 0), T, depth=2)
    assert out.coeffs[(2, 0)] == pytest.approx((b2 + a * a / -2.0) / -6.0)


def test_apply_a_is_linear():
    rng = np.random.default_rng(41)
    q = helpers.random_halfspace_potential(rng, BASIS, max_harmonics=4)
    f = {(1, 0): 0.3 + 0.1j, (1, -1): -0.2}
    g = {(1, 0): -1.0j, (2, 2): 0.7}
    alpha, beta = 0.6 - 0.2j, 1.3j
    combo = {}
    for key in set(f) | set(g):
        combo[key] = alpha * f.get(key, 0j) + beta * g.get(key, 0j)
    lhs = helpers.apply_A(BASIS, q, (0, 0), T, combo)
    af = helpers.apply_A(BASIS, q, (0, 0), T, f)
    ag = helpers.apply_A(BASIS, q, (0, 0), T, g)
    rhs = {}
    for key in set(af) | set(ag):
        rhs[key] = alpha * af.get(key, 0j) + beta * ag.get(key, 0j)
    assert set(lhs) == {k for k, v in rhs.items() if abs(v) > 0}
    for key, value in lhs.items():
        assert value == pytest.approx(rhs[key], abs=1e-15)


def test_closed_form_resonance_error():
    q = single_harmonic()
    with pytest.raises(ResonanceError):
        bloch.closed_form_coeffs(BASIS, q, (-1, 0), (0.0, 0.0), depth=3)


@pytest.mark.parametrize("factor", (0.01, 0.1, 10.0, 100.0))
@pytest.mark.parametrize("m", (0, 30, 300))
def test_collision_tolerance_boundary(m, factor):
    # t_1 = -1/2 + e/2 puts (0, m) and (1, m) e apart, so the denominator at
    # offset (1, 0) is -e; the width 1e-12 (1 + lam) is written out, not read
    # from the package, so that moving it fails here
    lam = 0.25 + m * m
    e = factor * 1e-12 * (1.0 + lam)
    t = (-0.5 + e / 2, 0.0)
    q = hb.FourierPotential(BASIS, {(1, 0): 0.3})
    cutoff = 4.0 * math.sqrt(lam) + 1.0
    group = spectrum.degeneracy_group(BASIS, (0, m), t, k=1, cutoff=cutoff)
    routes = (
        lambda: bloch.bloch_series(BASIS, q, (0, m), t, max_order=3),
        lambda: bloch.closed_form_coeffs(BASIS, q, (0, m), t, depth=3),
    )
    if factor < 1:
        assert (1, m) in group.member_indices()
        for route in routes:
            with pytest.raises(ResonanceError) as err:
                route()
            assert err.value.index == (1, 0)
            assert err.value.value == pytest.approx(-e, rel=0.1)
    else:
        assert (1, m) not in group.member_indices()
        assert group.excluded_gap == pytest.approx(e, rel=0.1)
        for route in routes:
            psi = route()
            assert psi.coeffs[(1, 0)] == pytest.approx(-0.3 / e, rel=0.1)


def test_series_closed_form_agreement_random():
    rng = np.random.default_rng(23)
    for _ in range(12):
        q, gamma, t = helpers.nonresonant_instance(rng, BASIS)
        series = bloch.bloch_series(BASIS, q, gamma, t, max_order=8)
        closed = bloch.closed_form_coeffs(BASIS, q, gamma, t, depth=6)
        assert bloch.max_discrepancy(series, closed, max_plane=6) < 1e-10


def test_halfspace_support_structural():
    rng = np.random.default_rng(29)
    for _ in range(8):
        q, gamma, t = helpers.nonresonant_instance(rng, BASIS)
        out = bloch.bloch_series(BASIS, q, gamma, t, max_order=8)
        zero = (0, 0)
        for delta in out.coeffs:
            if delta != zero:
                assert decompose(delta, q.k)[1] >= 1
        closed = bloch.closed_form_coeffs(BASIS, q, gamma, t, depth=5)
        for delta in closed.coeffs:
            if delta != zero:
                assert decompose(delta, q.k)[1] >= 1


def test_normalization_exact():
    rng = np.random.default_rng(31)
    q, gamma, t = helpers.nonresonant_instance(rng, BASIS)
    out = bloch.bloch_series(BASIS, q, gamma, t)
    assert out.coeffs[(0, 0)] == 1.0 + 0j


def test_residual_zero_potential():
    q = hb.FourierPotential(BASIS, {})
    psi = bloch.bloch_series(BASIS, q, (0, 0), T)
    assert bloch.residual(BASIS, q, psi) == 0.0


def test_residual_of_series_is_small():
    out = bloch.bloch_series(BASIS, single_harmonic(), (0, 0), T, max_order=12)
    assert bloch.residual(BASIS, single_harmonic(), out) < 1e-10


def test_residual_past_the_float_range_is_a_float():
    # the defect's entries near 1e299 square past the float range, where a sum
    # of squares raised OverflowError; a harmonic of 1e200 drives it to inf
    for value in (1e100, 1e200):
        q = hb.FourierPotential(BASIS, {(1, 0): value})
        with np.errstate(over="ignore", invalid="ignore"):
            psi = bloch.closed_form_coeffs(BASIS, q, (0, 0), (0.31, 0.17), 2)
            res = bloch.residual(BASIS, q, psi)
        assert type(res) is float and res > 1e298
    assert res == math.inf
    q = hb.FourierPotential(BASIS, {(1, 0): 1e100})
    psi = bloch.closed_form_coeffs(BASIS, q, (0, 0), (0.31, 0.17), 2)
    assert bloch.residual(BASIS, q, psi) == helpers.reference_residual(BASIS, q, psi)


def test_residual_of_bare_wave_is_potential_norm():
    q = hb.FourierPotential(BASIS, {(1, 0): 0.3, (2, -1): -0.4j})
    free = bloch.BlochCoefficients(
        gamma=(0, 0),
        t=T,
        k=1,
        sign="+",
        offsets=np.zeros((1, 2), dtype=np.int64),
        values=np.ones(1, dtype=complex),
        order=0,
        lam=spectrum.eigenvalue(BASIS, (0, 0), T),
    )
    assert bloch.residual(BASIS, q, free) == pytest.approx(q.norm_l2)


def test_residual_equals_next_term_defect():
    # the defect of the order-N partial sum telescopes to q * (last term)
    rng = np.random.default_rng(37)
    for _ in range(6):
        q, gamma, t = helpers.nonresonant_instance(rng, BASIS)
        for order in (2, 4):
            psi = bloch.bloch_series(BASIS, q, gamma, t, max_order=order, tail_tol=0.0)
            term = {(0, 0): 1.0 + 0j}
            for _ in range(order):
                term = helpers.apply_A(BASIS, q, gamma, t, term)
            defect = potential.convolve(q.coeffs, term)
            expected = math.sqrt(sum(abs(v) ** 2 for v in defect.values()))
            assert bloch.residual(BASIS, q, psi) == pytest.approx(
                expected, abs=1e-12
            )


def test_residual_decreases_with_order():
    q = single_harmonic(0.2)
    prev = math.inf
    for order in (2, 4, 6, 8):
        psi = bloch.bloch_series(BASIS, q, (0, 0), T, max_order=order, tail_tol=0.0)
        res = bloch.residual(BASIS, q, psi)
        assert res < prev
        prev = res


def test_degenerate_leading_members_independent():
    # t = (0.5, 0): lam = 0.25 group {(0,0), (-1,0)} shares the k=2 top plane
    t = (0.5, 0.0)
    q = hb.FourierPotential(BASIS, {(0, 1): 0.3, (1, 1): 0.2})
    assert q.classification == (2, "+")
    group = spectrum.degeneracy_group(BASIS, (0, 0), t, k=2, cutoff=6.0)
    assert group.s == 2
    leading = group.leading_members()
    vectors = []
    for b in leading:
        psi = bloch.bloch_series(BASIS, q, b, t, max_order=10)
        assert bloch.residual(BASIS, q, psi) < 1e-9
        vectors.append(psi)
    # the s x s matrix of coefficients at the leading members is the identity
    mat = np.zeros((len(leading), len(leading)), dtype=complex)
    for i, psi in enumerate(vectors):
        for j, b in enumerate(leading):
            offset = tuple(np.subtract(b, leading[i]))
            mat[i, j] = psi.coeffs.get(offset, 0j)
    assert np.allclose(mat, np.eye(len(leading)))


def test_minus_class_series_and_closed_form_agree():
    q = hb.FourierPotential(BASIS, {(0, -1): 0.2, (1, -2): -0.1j})
    assert q.classification == (2, "-")
    t = (0.3, 0.15)
    series = bloch.bloch_series(BASIS, q, (0, 0), t, max_order=8)
    closed = bloch.closed_form_coeffs(BASIS, q, (0, 0), t, depth=6)
    assert bloch.max_discrepancy(series, closed, max_plane=6) < 1e-10
    for delta in series.coeffs:
        if delta != (0, 0):
            assert decompose(delta, 2)[1] <= -1
    assert bloch.residual(BASIS, q, series) < 1e-9


def test_non_convergence_flag():
    out = bloch.bloch_series(
        BASIS, single_harmonic(), (0, 0), T, max_order=1, tail_tol=1e-30
    )
    assert not out.converged
    assert out.tail > 1e-30


def test_json_round_trip():
    out = bloch.bloch_series(BASIS, single_harmonic(), (0, 0), T, max_order=6)
    doc = out.to_json_dict()
    assert doc["gamma"] == [0, 0]
    assert doc["lambda"] == pytest.approx(0.34)
    assert doc["order"] == out.order
    rebuilt = {tuple(e["delta"]): complex(e["re"], e["im"]) for e in doc["entries"]}
    assert rebuilt == out.coeffs


@pytest.mark.parametrize(
    "generators",
    ([[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [1.0, 1.0]], [[2 * math.pi, 0.0], [0.0, 2 * math.pi]]),
    ids=("identity", "skewed", "scaled"),
)
def test_routes_agree_on_non_identity_bases(generators):
    basis = hb.LatticeBasis(np.array(generators))
    q = hb.FourierPotential(basis, {(1, 0): 0.1, (1, 1): 0.05})
    t = basis.reduce_quasimomentum((0.21, 0.34))
    series = bloch.bloch_series(basis, q, (0, 0), t, max_order=9)
    closed = bloch.closed_form_coeffs(basis, q, (0, 0), t, depth=6)
    assert bloch.max_discrepancy(series, closed, max_plane=6) < 1e-10
    assert bloch.residual(basis, q, series) < 1e-9


def test_pointwise_quasiperiodicity():
    # for the integer lattice the period lattice is 2 pi Z^2: the constructed
    # function gains exactly e^{i <t, w>} across a period w
    q = hb.FourierPotential(BASIS, {(1, 0): 0.2, (1, -1): 0.1j})
    psi = bloch.bloch_series(BASIS, q, (0, 0), T, max_order=10)
    rng = np.random.default_rng(97)
    for _ in range(5):
        x = rng.uniform(-1, 1, size=2)
        w = 2 * math.pi * np.array([1.0, -2.0])
        lhs = bloch.evaluate_function(BASIS, psi, x + w)
        rhs = np.exp(1j * float(np.dot(T, w))) * bloch.evaluate_function(BASIS, psi, x)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_max_discrepancy_rejects_another_quasimomentum():
    q = single_harmonic()
    series = bloch.bloch_series(BASIS, q, (0, 0), (0.1, 0.2), max_order=6)
    closed = bloch.closed_form_coeffs(BASIS, q, (0, 0), (0.3, 0.2), 6)
    with pytest.raises(ValueError, match="different Bloch functions"):
        bloch.max_discrepancy(series, closed)
    same = bloch.closed_form_coeffs(BASIS, q, (0, 0), (0.1, 0.2), 6)
    assert bloch.max_discrepancy(series, same) < 1e-10


def test_max_discrepancy_is_inf_where_a_modulus_overflows():
    # the difference at (1, 0) has finite parts and a modulus beyond the
    # float range, where Python's abs raises
    common = {"gamma": (0, 0), "t": (0.1, 0.2), "k": 1, "sign": "+", "order": 2, "lam": 0.05}
    big = 1.3e308 + 1.3e308j
    with pytest.raises(OverflowError):
        abs(big)
    a = bloch.BlochCoefficients(offsets=[(0, 0), (1, 0), (1, 1)], values=[1, big, 0.5], **common)
    b = bloch.BlochCoefficients(offsets=[(0, 0), (1, 1), (2, 0)], values=[1, 0.25, 3e307 + 4e307j], **common)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert bloch.max_discrepancy(a, b) == math.inf
        # where abs returns, the same float
        origin = bloch.BlochCoefficients(offsets=[(0, 0)], values=[1], **common)
        assert bloch.max_discrepancy(b, origin) == abs(3e307 + 4e307j)


def test_residual_of_a_long_harmonic():
    q = hb.FourierPotential(BASIS, {(3, 0): 0.1})
    psi = bloch.bloch_series(BASIS, q, (0, 0), T, max_order=4)
    assert bloch.residual(BASIS, q, psi) < 1e-6


def test_pt_symmetric_potentials_give_real_coefficients():
    # real q_g and real gamma + t keep every product, sum and quotient real:
    # the series and the closed form have imaginary parts exactly 0
    bases = [
        (BASIS, 4.0),
        (hb.LatticeBasis(np.array([[1.0, 0.0], [0.6, 0.9]])), 4.0),
        (hb.LatticeBasis(np.array([[1.0, 0.2, 0.0], [0.3, 1.0, 0.1], [0.0, 0.4, 1.3]])), 2.5),
    ]
    rng = np.random.default_rng(2016)
    sizes = []
    for i in range(40):
        basis, cutoff = bases[i % 3]
        d = basis.dimension
        k, sign = int(rng.integers(1, d + 1)), "+-"[int(rng.integers(0, 2))]
        q = helpers.random_halfspace_potential(rng, basis, k=k, sign=sign, max_harmonics=5, max_p=2, max_a=2)
        q = hb.FourierPotential(basis, {n: 0.4 * v.real for n, v in q.coeffs.items()})
        assert q.is_pt_symmetric
        gamma = tuple(int(x) for x in rng.integers(-1, 2, size=d))
        t = rng.uniform(-0.5, 0.5, size=d)
        op = galerkin.build(basis, q, t, cutoff)
        depth = int(op.planes.max() - op.planes[op.position(gamma)])
        results = [
            bloch.bloch_series(basis, q, gamma, t, max_order=6, tail_tol=0.0),
            bloch.closed_form_coeffs(basis, q, gamma, t, depth),
        ]
        for psi in results:
            assert np.all(psi.values.imag == 0)
        sizes.append(min(len(psi.values) for psi in results))
    assert sum(size > 1 for size in sizes) >= 30
