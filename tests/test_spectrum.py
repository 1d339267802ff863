import math
from fractions import Fraction

import numpy as np
import pytest

import halfspace_bloch as hb
from halfspace_bloch import spectrum
from halfspace_bloch.errors import CutoffError

import helpers

BASIS = hb.identity_basis(2)


def test_eigenvalue_examples():
    assert spectrum.eigenvalue(BASIS, (1, 0), (0.1, 0.2)) == pytest.approx(1.25)
    assert spectrum.eigenvalue(BASIS, (0, 0), (0.0, 0.0)) == 0.0
    assert spectrum.eigenvalue(BASIS, (0, 1), (0.5, 0.3)) == pytest.approx(1.94)


@pytest.mark.parametrize(
    "generators",
    (
        [[2 * math.pi]],
        [[1.0, 0.0], [1.0, 1.0]],
        [[1.0, 0.0], [0.5, math.sqrt(3) / 2]],
        [[1.0, 0.2, 0.0], [0.3, 1.0, 0.1], [0.0, 0.4, 1.3]],
    ),
    ids=("1d", "skewed", "hexagonal", "3d"),
)
def test_batched_eigenvalues_bit_equal_scalar(generators):
    basis = hb.LatticeBasis(np.array(generators))
    rng = np.random.default_rng(len(generators))
    t = rng.uniform(-0.5, 0.5, size=basis.dimension)
    indices = rng.integers(-25, 26, size=(500, basis.dimension))
    batched = spectrum.eigenvalues(basis, indices, t).tolist()
    assert batched == [spectrum.eigenvalue(basis, n, t) for n in indices.tolist()]
    assert spectrum.eigenvalues(basis, indices[:0], t).shape == (0,)


@pytest.mark.parametrize(
    "generators",
    (
        [[2 * math.pi]],
        [[1.0, 0.0], [0.0, 1.0]],
        [[1.0, 0.0], [1.0, 1.0]],
        [[1.0, 0.0], [0.5, math.sqrt(3) / 2]],
        [[1.0, 0.0, 0.0], [0.5, 1.0, 0.0], [0.0, 0.5, 1.0]],
    ),
    ids=("1d", "identity", "skewed", "hexagonal", "3d"),
)
def test_simplicity_and_groups_equal_loop_scan(generators):
    basis = hb.LatticeBasis(np.array(generators))
    d = basis.dimension
    rng = np.random.default_rng(10 + len(generators))
    for trial in range(8 if d < 3 else 4):
        gamma = tuple(int(x) for x in rng.integers(-1, 2, size=d))
        # exact collisions at t = 0 and half-integer t, generic ones otherwise
        t = basis.to_cartesian([(0.0, 0.5, 0.5)[(trial + j) % 3] for j in range(d)])
        if trial % 2:
            t = helpers.random_rational_t(rng, basis)
        cutoff = 4.0 * math.sqrt(spectrum.eigenvalue(basis, gamma, t)) + 1.5
        k = 1 + trial % d
        group = spectrum.degeneracy_group(basis, gamma, t, k, cutoff)
        members, gap = helpers.reference_group_scan(basis, gamma, t, k, cutoff)
        assert group.members == members
        assert group.excluded_gap == gap and type(group.excluded_gap) is float


def _simple(gamma, t, cutoff):
    return spectrum.degeneracy_group(BASIS, gamma, t, 1, cutoff).multiplicity == 1


def test_is_simple_collision_at_origin():
    assert not _simple((1, 0), (0.0, 0.0), cutoff=6.0)


def test_is_simple_generic_t():
    assert _simple((0, 0), (0.1, 0.2), cutoff=4.0)


def test_is_simple_half_integer_t():
    assert not _simple((0, 0), (0.5, 0.0), cutoff=4.0)


def test_is_simple_cutoff_guard():
    with pytest.raises(CutoffError):
        _simple((3, 0), (0.1, 0.2), cutoff=1.0)


def test_group_holds_a_collision_wider_than_1e9():
    # (326, -1) and (-326, 1) are 1304 t_1 = 5e-8 apart at lam ~ 1.06e5:
    # below the collision width 1.06e-7, above the former absolute 1e-9,
    # at which the second-plane guard took (-326, 1) for a missed collision
    t = (5e-8 / 1304, 0.0)
    cutoff = 4.0 * math.sqrt(spectrum.eigenvalue(BASIS, (326, -1), t)) + 1.0
    group = spectrum.degeneracy_group(BASIS, (326, -1), t, k=2, cutoff=cutoff)
    assert (-326, 1) in [b for b, _ in group.members]


def test_degeneracy_group_unit_circle():
    group = spectrum.degeneracy_group(BASIS, (1, 0), (0.0, 0.0), k=1, cutoff=6.0)
    assert group.lam == pytest.approx(1.0)
    assert group.members == (
        ((1, 0), 1),
        ((0, -1), 0),
        ((0, 1), 0),
        ((-1, 0), -1),
    )
    assert group.s == 1
    assert [(p.n, len(p.members)) for p in group.planes] == [(1, 1), (0, 2), (-1, 1)]
    # brute-force collision scan agrees
    assert sorted(b for b, _ in group.members) == helpers.collision_scan_oracle(
        BASIS, (1, 0), (0.0, 0.0)
    )


def test_group_members_are_python_int_tuples():
    group = spectrum.degeneracy_group(BASIS, (1, 0), (0.0, 0.0), k=1, cutoff=6.0)
    assert group.multiplicity == 4
    for n, p in group.members:
        assert type(n) is tuple and type(p) is int
        assert all(type(x) is int for x in n)
    assert all(type(x) is int for plane in group.planes for n in plane.members for x in n)


def test_degeneracy_group_simple_case():
    group = spectrum.degeneracy_group(BASIS, (0, 0), (0.1, 0.2), k=1, cutoff=4.0)
    assert group.multiplicity == 1
    assert group.s == 1
    assert len(group.planes) == 1
    assert group.excluded_gap > 0.5


def test_degeneracy_group_half_half():
    # oracle: the four points (0,0), (-1,0), (0,-1), (-1,-1) collide at 0.5;
    # two of them sit on the top k=1 plane p=0, so s = 2
    group = spectrum.degeneracy_group(BASIS, (0, 0), (0.5, 0.5), k=1, cutoff=6.0)
    assert group.lam == pytest.approx(0.5)
    assert sorted(b for b, _ in group.members) == helpers.collision_scan_oracle(
        BASIS, (0, 0), (0.5, 0.5)
    )
    assert sorted(b for b, _ in group.members) == [(-1, -1), (-1, 0), (0, -1), (0, 0)]
    assert group.s == 2
    assert group.planes[0].members == ((0, -1), (0, 0))


def test_group_eigenvalue_agreement():
    group = spectrum.degeneracy_group(BASIS, (1, 0), (0.0, 0.0), k=2, cutoff=6.0)
    for b, _ in group.members:
        assert spectrum.eigenvalue(BASIS, b, group.t) == pytest.approx(group.lam)


def test_group_canonical_under_cutoff_growth():
    small = spectrum.degeneracy_group(BASIS, (1, 0), (0.0, 0.0), k=1, cutoff=6.0)
    large = spectrum.degeneracy_group(BASIS, (1, 0), (0.0, 0.0), k=1, cutoff=9.0)
    assert small.members == large.members
    assert small.planes == large.planes
    assert small.s == large.s


def test_axis_choice_changes_planes():
    g1 = spectrum.degeneracy_group(BASIS, (0, 0), (0.5, 0.5), k=1, cutoff=6.0)
    g2 = spectrum.degeneracy_group(BASIS, (0, 0), (0.5, 0.5), k=2, cutoff=6.0)
    assert {b for b, _ in g1.members} == {b for b, _ in g2.members}
    assert g2.planes[0].members == ((-1, 0), (0, 0))


def test_is_simple_iff_single_member():
    # t has denominators <= 9, so distinct levels differ by at least 1/72^2:
    # the exact rational scan decides simplicity
    rng = np.random.default_rng(5)
    for _ in range(20):
        gamma = (int(rng.integers(-2, 3)), int(rng.integers(-2, 3)))
        t = helpers.random_rational_t(rng, BASIS)
        cutoff = 4.0 * (math.sqrt(spectrum.eigenvalue(BASIS, gamma, t)) + 1.0)
        exact = [Fraction(x).limit_denominator(9) for x in t.tolist()]
        levels = [
            sum((a + b) ** 2 for a, b in zip(n, exact))
            for n in map(tuple, BASIS.enumerate_ball(-t, cutoff).tolist())
        ]
        lam = sum((a + b) ** 2 for a, b in zip(gamma, exact))
        simple = levels.count(lam) == 1
        group = spectrum.degeneracy_group(BASIS, gamma, t, k=1, cutoff=cutoff)
        assert simple == (group.multiplicity == 1)
