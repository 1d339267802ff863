import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import halfspace_bloch as hb
from halfspace_bloch import lattice
from halfspace_bloch.errors import DegenerateBasisError

import helpers

IDENTITY = hb.identity_basis(2)
SKEWED = hb.LatticeBasis(np.array([[1.0, 0.0], [1.0, 1.0]]))
SCALED = hb.LatticeBasis(2 * math.pi * np.eye(2))
BASES = (IDENTITY, SKEWED, SCALED)


def test_to_cartesian_identity():
    assert np.allclose(IDENTITY.to_cartesian((3, -2)), [3, -2])


def test_to_cartesian_combination():
    assert np.allclose(SKEWED.to_cartesian((0, 2)), [2, 2])


def test_to_cartesian_scaled():
    assert np.allclose(SCALED.to_cartesian((1, 0)), [2 * math.pi, 0])


def test_decompose_axis1():
    assert lattice.decompose((3, -2), 1) == ((0, -2), 3)


def test_decompose_axis2():
    assert lattice.decompose((3, -2), 2) == ((3, 0), -2)


def test_decompose_zero_vector():
    assert lattice.decompose((0, 0, 0), 2) == ((0, 0, 0), 0)


def test_in_halfspace():
    assert lattice.in_halfspace((0, 1), 2, "+")
    assert not lattice.in_halfspace((5, 0), 2, "+")
    assert lattice.in_halfspace((2, -3), 2, "-")


def test_separation_constant_orthogonal():
    assert IDENTITY.separation_constant(1) == 1.0


def test_separation_constant_skewed():
    # project v_2 = (1,1) off the x-axis: remainder (0,1)
    assert SKEWED.separation_constant(2) == pytest.approx(1.0, abs=1e-14)
    assert helpers.gram_schmidt_separation(SKEWED.generators, 2) == pytest.approx(1.0)


def test_separation_constant_tall_skew():
    basis = hb.LatticeBasis(np.array([[2.0, 0.0], [1.0, 3.0]]))
    assert basis.separation_constant(2) == pytest.approx(3.0, abs=1e-14)
    assert helpers.gram_schmidt_separation(basis.generators, 2) == pytest.approx(3.0)


def test_separation_constant_matches_gram_schmidt_random():
    rng = np.random.default_rng(7)
    for _ in range(25):
        mat = rng.normal(size=(3, 3))
        if np.linalg.cond(mat) > 1e6:
            continue
        basis = hb.LatticeBasis(mat)
        for k in (1, 2, 3):
            assert basis.separation_constant(k) == pytest.approx(
                helpers.gram_schmidt_separation(mat, k), rel=1e-10
            )


def test_orthogonality_invariant():
    for basis in BASES:
        for k in range(1, basis.dimension + 1):
            h = basis.orthogonal_component(k)
            for j in range(1, basis.dimension + 1):
                if j != k:
                    assert abs(h @ basis.generators[j - 1]) < 1e-12
            assert basis.separation_constant(k) > 0


def test_degenerate_basis_rejected():
    with pytest.raises(DegenerateBasisError):
        hb.LatticeBasis(np.array([[1.0, 0.0], [2.0, 0.0]]))


def test_enumerate_ball_unit():
    assert IDENTITY.enumerate_ball((0, 0), 1.0) == [
        (-1, 0),
        (0, -1),
        (0, 0),
        (0, 1),
        (1, 0),
    ]


def test_enumerate_ball_radius_zero():
    assert IDENTITY.enumerate_ball((0, 0), 0.0) == [(0, 0)]


def test_enumerate_ball_radius_1_5():
    pts = IDENTITY.enumerate_ball((0, 0), 1.5)
    assert len(pts) == 9
    assert pts == helpers.ball_scan_oracle(IDENTITY, (0, 0), 1.5)


def test_enumerate_ball_matches_oracle_random():
    rng = np.random.default_rng(11)
    for basis in BASES:
        for _ in range(10):
            center = rng.uniform(-2, 2, size=2)
            radius = rng.uniform(0, 4)
            assert basis.enumerate_ball(center, radius) == helpers.ball_scan_oracle(
                basis, center, radius
            )


HEXAGONAL = hb.LatticeBasis(np.array([[1.0, 0.0], [0.5, math.sqrt(3) / 2]]))
SKEWED_3D = hb.LatticeBasis(np.array([[1.0, 0.0, 0.0], [0.5, 1.0, 0.0], [0.0, 0.5, 1.0]]))
EXACTNESS_BASES = {
    "identity": IDENTITY,
    "skewed": SKEWED,
    "hexagonal": HEXAGONAL,
    "scaled": SCALED,
    "skewed-3d": SKEWED_3D,
}


@pytest.mark.parametrize("name", EXACTNESS_BASES)
def test_enumerate_ball_equals_reference_loop(name):
    basis = EXACTNESS_BASES[name]
    d = basis.dimension
    rng = np.random.default_rng(100 + list(EXACTNESS_BASES).index(name))
    on_lattice = basis.to_cartesian(rng.integers(-3, 4, size=d))
    cases = [(np.zeros(d), 0.0), (on_lattice, 0.0), (rng.uniform(-2, 2, size=d), 0.0)]
    # radii on lattice shells: the boundary point sits exactly at the radius
    for n in rng.integers(-2, 3, size=(4, d)):
        v = helpers.reference_cartesian(basis, n)
        cases.append((np.zeros(d), math.sqrt(float(v @ v))))
    for _ in range(6):
        center = rng.uniform(-2, 2, size=d)
        cases.append((center, float(rng.uniform(0, 3.5))))
        for n in np.rint(center @ basis._inverse) + rng.integers(-2, 3, size=(12 // d, d)):
            v = helpers.reference_cartesian(basis, n) - center
            cases.append((center, math.sqrt(float(v @ v))))
    for center, radius in cases:
        got = basis.enumerate_ball(center, radius)
        assert got == helpers.reference_enumerate_ball(basis, center, radius)
        assert all(type(x) is int for n in got for x in n)


@pytest.mark.parametrize("name", EXACTNESS_BASES)
def test_box_size_bounds_the_scanned_box(name):
    # the integer box enumerate_ball builds, recounted from its generator-coordinate span
    basis = EXACTNESS_BASES[name]
    inverse = np.linalg.inv(basis.generators)
    dual = np.sqrt((inverse**2).sum(axis=0))
    rng = np.random.default_rng(7)
    for _ in range(20):
        center = rng.uniform(-3, 3, size=basis.dimension)
        radius = float(rng.uniform(0, 6))
        mid = center @ inverse
        box = math.prod(
            math.floor(m + radius * h + 1e-9) - math.ceil(m - radius * h - 1e-9) + 1
            for m, h in zip(mid, dual)
        )
        assert len(basis.enumerate_ball(center, radius)) <= box <= basis.box_size(radius)
    assert basis.box_size(math.inf) == math.inf


def test_reduce_quasimomentum_examples():
    assert np.allclose(IDENTITY.reduce_quasimomentum((1.3, -0.7)), [0.3, 0.3])
    assert np.allclose(IDENTITY.reduce_quasimomentum((0.0, 0.0)), [0.0, 0.0])
    two = hb.LatticeBasis(2 * np.eye(2))
    assert np.allclose(two.reduce_quasimomentum((3.0, 0.0)), [-1.0, 0.0])


@given(st.lists(st.integers(-50, 50), min_size=2, max_size=2))
def test_index_roundtrip(n):
    for basis in BASES:
        assert basis.index_of(basis.to_cartesian(n)) == tuple(n)


@given(
    st.lists(st.integers(-20, 20), min_size=2, max_size=2),
    st.sampled_from([1, 2]),
)
def test_decompose_cartesian_consistency(delta, k):
    for basis in BASES:
        a, p = lattice.decompose(delta, k)
        reconstructed = basis.to_cartesian(a) + p * basis.generators[k - 1]
        assert np.allclose(reconstructed, basis.to_cartesian(delta), atol=1e-12)


@given(
    st.lists(
        st.floats(-10, 10, allow_nan=False, allow_infinity=False),
        min_size=2,
        max_size=2,
    )
)
@settings(max_examples=60)
def test_reduce_quasimomentum_properties(t):
    for basis in BASES:
        reduced = basis.reduce_quasimomentum(t)
        coords = basis.generator_coordinates(reduced)
        assert np.all(coords >= -0.5 - 1e-9) and np.all(coords < 0.5 + 1e-9)
        shift = basis.generator_coordinates(np.asarray(t) - reduced)
        assert np.allclose(shift, np.rint(shift), atol=1e-6)


@pytest.mark.parametrize("basis", BASES, ids=("identity", "skewed", "scaled"))
@pytest.mark.parametrize("sign", ("+", "-"))
@pytest.mark.parametrize("k", (1, 2))
def test_halfspace_sum_separation(basis, sign, k):
    # |g_1 + ... + g_s| >= c(k) * s for g_j drawn from the open half-lattice
    rng = np.random.default_rng(101 + k)
    sig = 1 if sign == "+" else -1
    c = basis.separation_constant(k)
    for _ in range(60):
        s = int(rng.integers(1, 51))
        total = np.zeros(2, dtype=int)
        for _ in range(s):
            idx = [int(rng.integers(-4, 5)), int(rng.integers(-4, 5))]
            idx[k - 1] = sig * int(rng.integers(1, 5))
            total += np.asarray(idx)
        v = basis.to_cartesian(tuple(total))
        assert math.sqrt(float(v @ v)) >= c * s
