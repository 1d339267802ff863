import math
from fractions import Fraction

import numpy as np
import pytest

import halfspace_bloch as hb
from halfspace_bloch import spectrum

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
        [[1.3, 0.2], [-0.4, 0.9]],
        [[1.0, 0.0, 0.0], [0.5, 1.0, 0.0], [0.0, 0.5, 1.0]],
    ),
    ids=("1d", "identity", "skewed", "hexagonal", "generic", "3d"),
)
def test_simplicity_and_groups_equal_loop_scan(generators):
    # the group ball gives what a loop over the former radii 4R + 4 and
    # 8R + 8 gives; a loop ball that holds no non-member reports the gap as
    # inf, which the group ball r + D + eps rules out
    basis = hb.LatticeBasis(np.array(generators))
    d = basis.dimension
    rng = np.random.default_rng(10 + len(generators))
    for trial in range(8 if d < 3 else 4):
        gamma = tuple(int(x) for x in rng.integers(-1, 2, size=d))
        # exact collisions at t = 0 and half-integer t, generic ones otherwise
        t = basis.to_cartesian([(0.0, 0.5, 0.5)[(trial + j) % 3] for j in range(d)])
        if trial % 2:
            t = helpers.random_rational_t(rng, basis)
        r = math.sqrt(spectrum.eigenvalue(basis, gamma, t))
        k = 1 + trial % d
        group = spectrum.degeneracy_group(basis, gamma, t, k)
        assert type(group.excluded_gap) is float
        for radius in (4.0 * r + 4.0, 8.0 * r + 8.0):
            members, gap = helpers.reference_group_scan(basis, gamma, t, k, radius)
            assert group.members == members
            if gap == math.inf:
                assert radius < r + basis.fundamental_diameter()
            else:
                assert group.excluded_gap == gap


def test_group_at_the_origin_reaches_the_first_shell():
    # the nearest excluded level of lam = 0, at |n| = 1, lies beyond the
    # half diameter 0.707: a ball of radius r + D/2 holds no non-member
    group = spectrum.degeneracy_group(BASIS, (0, 0), (0.0, 0.0), k=1)
    assert group.members == (((0, 0), 0),)
    assert group.excluded_gap == 1.0


def test_far_group_scans_its_own_ball():
    # lam = 90000.25: the ball of radius r + D + eps about -t has a box of
    # about 3.7e5 points, where the former 4R + 4 had 5.8e6
    t = np.array([0.0, 0.5])
    group = spectrum.degeneracy_group(BASIS, (0, 300), t, k=2)
    assert sorted(b for b, _ in group.members) == [
        (-120, -276), (-120, 275), (0, -301), (0, 300), (120, -276), (120, 275)
    ]
    assert group.excluded_gap == 1.0
    radius = spectrum.group_radius(BASIS, group.lam, t)
    assert 3.6e5 < BASIS.box_size(radius) < 3.7e5


def _simple(gamma, t):
    return spectrum.degeneracy_group(BASIS, gamma, t, 1).multiplicity == 1


def test_is_simple_collision_at_origin():
    assert not _simple((1, 0), (0.0, 0.0))


def test_is_simple_generic_t():
    assert _simple((0, 0), (0.1, 0.2))


def test_is_simple_half_integer_t():
    assert not _simple((0, 0), (0.5, 0.0))


def test_group_holds_a_collision_wider_than_1e9():
    # (326, -1) and (-326, 1) are 1304 t_1 = 5e-8 apart at lam ~ 1.06e5:
    # below the collision width 1.06e-7, above the former absolute 1e-9,
    # at which the second-plane guard took (-326, 1) for a missed collision
    t = (5e-8 / 1304, 0.0)
    group = spectrum.degeneracy_group(BASIS, (326, -1), t, k=2)
    assert (-326, 1) in [b for b, _ in group.members]


def test_degeneracy_group_unit_circle():
    group = spectrum.degeneracy_group(BASIS, (1, 0), (0.0, 0.0), k=1)
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
    group = spectrum.degeneracy_group(BASIS, (1, 0), (0.0, 0.0), k=1)
    assert group.multiplicity == 4
    for n, p in group.members:
        assert type(n) is tuple and type(p) is int
        assert all(type(x) is int for x in n)
    assert all(type(x) is int for plane in group.planes for n in plane.members for x in n)


def test_degeneracy_group_simple_case():
    group = spectrum.degeneracy_group(BASIS, (0, 0), (0.1, 0.2), k=1)
    assert group.multiplicity == 1
    assert group.s == 1
    assert len(group.planes) == 1
    assert group.excluded_gap > 0.5


def test_degeneracy_group_half_half():
    # oracle: the four points (0,0), (-1,0), (0,-1), (-1,-1) collide at 0.5;
    # two of them sit on the top k=1 plane p=0, so s = 2
    group = spectrum.degeneracy_group(BASIS, (0, 0), (0.5, 0.5), k=1)
    assert group.lam == pytest.approx(0.5)
    assert sorted(b for b, _ in group.members) == helpers.collision_scan_oracle(
        BASIS, (0, 0), (0.5, 0.5)
    )
    assert sorted(b for b, _ in group.members) == [(-1, -1), (-1, 0), (0, -1), (0, 0)]
    assert group.s == 2
    assert group.planes[0].members == ((0, -1), (0, 0))


def test_group_eigenvalue_agreement():
    group = spectrum.degeneracy_group(BASIS, (1, 0), (0.0, 0.0), k=2)
    for b, _ in group.members:
        assert spectrum.eigenvalue(BASIS, b, group.t) == pytest.approx(group.lam)


def test_axis_choice_changes_planes():
    g1 = spectrum.degeneracy_group(BASIS, (0, 0), (0.5, 0.5), k=1)
    g2 = spectrum.degeneracy_group(BASIS, (0, 0), (0.5, 0.5), k=2)
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
        group = spectrum.degeneracy_group(BASIS, gamma, t, k=1)
        assert simple == (group.multiplicity == 1)


def test_group_whose_level_overflows_is_a_value_error():
    # |gamma + t|^2 = 1.5e310 overflows to inf, and so does the group ball's
    # radius: enumerate_ball refuses it instead of failing to convert inf
    basis = hb.LatticeBasis(np.array([[1e150]]))
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="radius must be finite"):
        spectrum.degeneracy_group(basis, (123456,), (0.0,), 1)
