import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import halfspace_bloch as hb
from halfspace_bloch import potential
from halfspace_bloch.lattice import decompose

import helpers

BASIS = hb.identity_basis(2)


def test_classify_axis1_plus():
    coeffs = {(1, 0): 1.0, (1, 1): 1.0, (2, -1): 1.0}
    assert potential.classify(coeffs, BASIS) == (1, "+")


def test_classify_mixed_not_in_s():
    assert potential.classify({(1, 0): 1.0, (-1, 0): 1.0}, BASIS) is None


def test_classify_axis2_minus():
    assert potential.classify({(0, -2): 1.0, (1, -5): 1.0}, BASIS) == (2, "-")


def test_classify_prefers_smallest_axis_then_plus():
    # support admissible for both axes: axis 1 wins
    assert potential.classify({(1, 1): 1.0}, BASIS) == (1, "+")


@given(st.permutations([(1, 0), (1, 1), (2, -1), (3, 2)]))
def test_classify_insertion_order_irrelevant(order):
    coeffs = {idx: complex(i + 1) for i, idx in enumerate(order)}
    q = hb.FourierPotential(BASIS, coeffs)
    assert q.classification == (1, "+")
    assert potential.classify(q.coeffs, BASIS) == potential.classify(
        dict(reversed(list(q.coeffs.items()))), BASIS
    )


def test_norms():
    q0 = hb.FourierPotential(BASIS, {})
    assert q0.norm_l1 == 0 and q0.norm_l2 == 0
    q1 = hb.FourierPotential(BASIS, {(1, 0): 3 + 4j})
    assert q1.norm_l1 == pytest.approx(5.0)
    assert q1.norm_l2 == pytest.approx(5.0)
    q2 = hb.FourierPotential(BASIS, {(1, 0): 1.0, (2, 0): 1.0})
    assert q2.norm_l1 == pytest.approx(2.0)
    assert q2.norm_l2 == pytest.approx(math.sqrt(2))
    # |q|^2 overflows above about 1.3e154 and underflows below 1e-162
    big = hb.FourierPotential(BASIS, {(1, 0): 3e300 + 4e300j, (2, 0): 1e300})
    assert big.norm_l1 == pytest.approx(6e300)
    assert big.norm_l2 == pytest.approx(math.sqrt(26) * 1e300)
    assert hb.FourierPotential(BASIS, {(1, 0): 1e300}).norm_l2 == 1e300
    tiny = hb.FourierPotential(BASIS, {(1, 0): 1e-300, (1, 1): -1e-300j})
    assert tiny.norm_l1 == pytest.approx(2e-300)
    assert tiny.norm_l2 == pytest.approx(math.sqrt(2) * 1e-300)
    assert hb.FourierPotential(BASIS, {(1, 0): 1e-300}).norm_l2 == 1e-300


def test_zero_coefficients_dropped():
    q = hb.FourierPotential(BASIS, {(1, 0): 0.0, (1, 1): 2.0})
    assert q.support() == ((1, 1),)


def test_support_sorted_lexicographically():
    q = hb.FourierPotential(BASIS, {(2, -1): 1.0, (1, 5): 1.0, (1, -5): 1.0})
    assert q.support() == ((1, -5), (1, 5), (2, -1))


def test_convolution_power_support_in_deep_planes():
    # m-fold convolution of a (k, +) supported map lives on planes p >= m
    rng = np.random.default_rng(3)
    q = helpers.random_halfspace_potential(rng, BASIS, max_harmonics=5)
    power = dict(q.coeffs)
    for m in range(1, 5):
        assert all(decompose(n, q.k)[1] >= m for n in power)
        power = helpers.reference_convolve(power, q.coeffs)


def test_truncated_keeps_what_the_per_index_norm_keeps():
    rng = np.random.default_rng(3)
    for _ in range(60):
        d = int(rng.integers(1, 4))
        basis = hb.LatticeBasis(np.eye(d) + rng.uniform(-0.4, 0.4, size=(d, d)))
        coeffs = {tuple(int(x) for x in rng.integers(-4, 5, size=d)): 1.0 for _ in range(12)}
        norms = {
            n: math.sqrt(float(basis.to_cartesian(n) @ basis.to_cartesian(n))) for n in coeffs
        }
        # a radius equal to one index's norm: the boundary is decided bit for bit
        radius = sorted(norms.values())[len(norms) // 2]
        kept = potential.truncated(basis, coeffs, radius=radius, mode="summable")
        assert kept.support() == tuple(sorted(n for n in coeffs if norms[n] <= radius))


def test_square_summable_mode_dimension_guard():
    hb.FourierPotential(BASIS, {(1, 0): 1.0}, mode="square-summable")
    with pytest.raises(ValueError):
        hb.FourierPotential(
            hb.identity_basis(4), {(1, 0, 0, 0): 1.0}, mode="square-summable"
        )


def test_truncated_records_radius():
    coeffs = {(1, 0): 1.0, (5, 5): 1.0}
    q = potential.truncated(BASIS, coeffs, radius=2.0)
    assert q.truncation_radius == 2.0
    assert q.support() == ((1, 0),)
    assert q.mode == "square-summable"


def test_pt_symmetric_flag():
    assert hb.FourierPotential(BASIS, {(1, 0): 0.5, (2, 1): -1.0}).is_pt_symmetric
    assert not hb.FourierPotential(BASIS, {(1, 0): 0.5j}).is_pt_symmetric


def test_random_potential_raises_when_the_drawn_count_has_too_few_harmonics():
    # in 1-D max_p = 3 allows three harmonics; seed 0 draws a count of 6
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match=r"drew 6 harmonics, but only 3 distinct ones exist"):
        helpers.random_halfspace_potential(rng, hb.identity_basis(1), max_harmonics=6)
