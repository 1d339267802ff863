import itertools
import math

import numpy as np
import pytest

import halfspace_bloch as hb
from halfspace_bloch import galerkin, isoenergetic

import helpers

BASIS = hb.identity_basis(2)


def test_distance_tie_breaks_lexicographically():
    dist, gamma = isoenergetic.distance_to_surface(BASIS, (0.5, 0.0), 0.5)
    assert dist == 0.0
    assert gamma == (-1, 0)


def test_distance_at_origin():
    # (0,0), (+-1,0) and (0,+-1) all sit at distance 0.5: lex picks (-1,0)
    dist, gamma = isoenergetic.distance_to_surface(BASIS, (0.0, 0.0), 0.5)
    assert dist == pytest.approx(0.5)
    assert gamma == (-1, 0)


def test_distance_interior_point():
    dist, gamma = isoenergetic.distance_to_surface(BASIS, (0.3, 0.0), 0.5)
    assert dist == pytest.approx(0.2)
    # (-1,0) ties (0,0) at distance 0.2 up to rounding; the lex rule applies
    assert gamma in ((-1, 0), (0, 0))


def test_distance_matches_brute_force():
    rng = np.random.default_rng(73)
    for _ in range(15):
        t = rng.uniform(-0.5, 0.5, size=2)
        rho = rng.uniform(0, 2)
        dist, gamma = isoenergetic.distance_to_surface(BASIS, t, rho)
        best = min(
            abs(math.sqrt(hb.eigenvalue(BASIS, n, t)) - rho)
            for n in helpers.ball_scan_oracle(BASIS, -t, rho + 3.0)
        )
        assert dist == best


def test_sample_rho_zero_keeps_origin_only():
    sample = isoenergetic.sample_surface(BASIS, 0.0, resolution=21, threshold=1e-9)
    assert [p[0] for p in sample.points] == [(0.0, 0.0)]


def test_sample_quarter_circles():
    sample = isoenergetic.sample_surface(BASIS, 0.5, resolution=101, threshold=0.01)
    assert len(sample.points) > 50
    for t, dist, gamma in sample.points:
        assert dist <= 0.01
        # every retained point is near one of the corner circles of radius 1/2
        center = -BASIS.to_cartesian(gamma)
        assert math.dist(t, center) == pytest.approx(0.5, abs=0.011)


def test_sample_threshold_retains_everything():
    sample = isoenergetic.sample_surface(BASIS, 0.5, resolution=11, threshold=10.0)
    assert len(sample.points) == 121


def test_sample_symmetric_under_negation():
    sample = isoenergetic.sample_surface(BASIS, 0.5, resolution=41, threshold=0.02)
    kept = {tuple(round(x, 12) for x in t) for t, _, _ in sample.points}
    assert kept == {tuple(round(-x, 12) for x in t) for t in kept}


def test_potential_independence_of_retained_set():
    # the retained set from the operator diagonal equals the free-operator set
    rng = np.random.default_rng(79)
    rho, threshold = 0.5, 0.02
    free = isoenergetic.sample_surface(BASIS, rho, resolution=21, threshold=threshold)
    free_set = {t for t, _, _ in free.points}
    axis = np.linspace(-0.5, 0.5, 21)
    q = helpers.random_halfspace_potential(rng, BASIS)
    retained = set()
    for tx in axis:
        for ty in axis:
            op = galerkin.build(BASIS, q, (tx, ty), 4.0)
            values = helpers.triangular_spectrum(op)
            dist = min(abs(math.sqrt(v) - rho) for v in values)
            if dist <= threshold:
                retained.add((float(tx), float(ty)))
    assert retained == free_set


def test_csv_export_round_trip():
    sample = isoenergetic.sample_surface(BASIS, 0.5, resolution=21, threshold=0.02)
    text = sample.to_csv()
    lines = text.strip().splitlines()
    assert lines[0] == "t_1,t_2,distance,gamma_1,gamma_2"
    assert len(lines) == len(sample.points) + 1
    first = lines[1].split(",")
    assert float(first[2]) <= 0.02


def test_csv_equals_per_point_loop():
    samples = [
        isoenergetic.sample_surface(basis, rho, resolution, threshold)
        for basis in (BASIS, hb.LatticeBasis(np.array([[1.0, 0.0], [0.5, math.sqrt(3) / 2]])))
        for rho, resolution, threshold in ((0.5, 21, 0.02), (0.4, 3, 0.0), (0.77, 9, math.inf))
    ]
    assert any(not s.points for s in samples) and any(s.points for s in samples)
    # signed zeros and a 1-D and a 3-D table, as the dataclass admits them
    samples += [
        isoenergetic.SurfaceSample(
            0.5, 2, 0.1, 2, np.array([[-0.0, 0.5]]), np.array([-0.0]), np.array([[0, -1]])
        ),
        isoenergetic.SurfaceSample(
            0.5, 2, 0.1, 1, np.array([[1e-300]]), np.array([0.1]), np.array([[3]])
        ),
        isoenergetic.SurfaceSample(
            0.5, 2, 0.1, 3, np.empty((0, 3)), np.empty(0), np.empty((0, 3), dtype=np.int64)
        ),
    ]
    for sample in samples:
        assert sample.to_csv() == helpers.reference_surface_csv(sample)
    assert samples[-3].to_csv().splitlines()[1] == "-0,0.5,-0,0,-1"
    assert samples[-1].to_csv() == "t_1,t_2,t_3,distance,gamma_1,gamma_2,gamma_3\n"


SURFACE_BASES = {
    "identity": BASIS,
    "skewed": hb.LatticeBasis(np.array([[1.0, 0.0], [1.0, 1.0]])),
    "hexagonal": hb.LatticeBasis(np.array([[1.0, 0.0], [0.5, math.sqrt(3) / 2]])),
    "scaled": hb.LatticeBasis(1.5 * np.eye(2)),
}


@pytest.mark.parametrize("name", SURFACE_BASES)
def test_sample_surface_equals_per_point_loop(name):
    basis = SURFACE_BASES[name]
    i = list(SURFACE_BASES).index(name)
    # the four bases together cover every resolution from 2 to 21
    for j, resolution in enumerate(range(2 + i, 22, 4)):
        rho = (0.0, 0.5, 0.77, 1.3)[(i + j) % 4]
        threshold = math.inf if j % 2 else 0.05
        sample = isoenergetic.sample_surface(basis, rho, resolution, threshold)
        expected = helpers.reference_sample_surface(basis, rho, resolution, threshold)
        assert sample.points == expected
        assert sample.dimension == 2


def test_sample_surface_chunking_invariant(monkeypatch):
    basis = SURFACE_BASES["hexagonal"]
    expected = helpers.reference_sample_surface(basis, 0.9, 9, math.inf)
    for cap in (1, 61):
        monkeypatch.setattr(isoenergetic, "_CHUNK_ELEMENTS", cap)
        assert isoenergetic.sample_surface(basis, 0.9, 9, math.inf).points == expected


def test_one_candidate_set_covers_every_point_ball(monkeypatch):
    balls = []
    enumerate_ball = hb.LatticeBasis.enumerate_ball

    def recording(self, center, radius):
        balls.append(enumerate_ball(self, center, radius))
        return balls[-1]

    monkeypatch.setattr(hb.LatticeBasis, "enumerate_ball", recording)
    basis = SURFACE_BASES["skewed"]
    rho, resolution = 0.6, 7
    isoenergetic.sample_surface(basis, rho, resolution, threshold=0.05)
    assert len(balls) == 1
    assert balls[0].dtype == np.int64 and balls[0].shape[1] == basis.dimension
    # the minimizer-ball lemma: every n with |n + t| <= rho + D/2 is a candidate
    reach = rho + basis.fundamental_diameter() / 2
    axis = np.linspace(-0.5, 0.5, resolution)
    for c in itertools.product(axis, repeat=2):
        t = np.asarray(c) @ basis.generators
        assert set(helpers.reference_enumerate_ball(basis, -t, reach)) <= set(
            map(tuple, balls[0].tolist())
        )


# bases of every dimension for the edge of the minimizer-ball lemma; the
# rectangular ones have deep holes exactly D/2 from 2^d lattice points
EDGE_BASES = {
    "1d": hb.LatticeBasis(np.array([[0.7]])),
    "1d-tenth": hb.identity_basis(1, 0.1),
    "identity": BASIS,
    "rectangular": hb.LatticeBasis(np.diag([1.0, 0.3])),
    "tenth": hb.identity_basis(2, 0.1),
    "hexagonal": SURFACE_BASES["hexagonal"],
    "3d": hb.identity_basis(3),
    "3d-box": hb.LatticeBasis(np.diag([0.3, 1.0, 0.7])),
    "3d-skewed": hb.LatticeBasis(np.array([[1.0, 0.0, 0.0], [0.5, 1.0, 0.0], [0.2, 0.3, 1.1]])),
}


def _odd_resolutions(basis):
    return (3, 5) if basis.dimension == 3 else (3, 5, 7)


@pytest.mark.parametrize("name", EDGE_BASES)
def test_rho_zero_on_odd_grids_equals_full_balls(name):
    # at rho = 0 every minimizer sits at the covering radius, at most D/2
    basis = EDGE_BASES[name]
    for resolution in _odd_resolutions(basis):
        sample = isoenergetic.sample_surface(basis, 0.0, resolution, math.inf)
        assert sample.points == helpers.reference_sample_surface(
            basis, 0.0, resolution, math.inf
        )


def test_identity_corner_takes_the_minimizer_on_the_ball_edge():
    # (1/2, 1/2) lies D/2 from (0, 0), (-1, 0), (0, -1) and (-1, -1); the lex
    # first, (-1, -1), lies exactly rho + D/2 + max |t| from the ball's center
    for resolution in (3, 5, 21):
        sample = isoenergetic.sample_surface(BASIS, 0.0, resolution, math.inf)
        t, dist, gamma = sample.points[-1]
        assert t == (0.5, 0.5) and gamma == (-1, -1)
        assert dist == math.sqrt(0.5) == BASIS.fundamental_diameter() / 2
        assert sample.points[0] == ((-0.5, -0.5), math.sqrt(0.5), (0, 0))


@pytest.mark.parametrize("name", EDGE_BASES)
def test_deep_holes_far_from_the_domain_equal_full_balls(name):
    # t = sum (k + 1/2) v_j ties 2^d lattice points at D/2 in exact arithmetic;
    # far from the origin the computed distances carry the rounding of |t|,
    # which the ball's margin has to absorb
    basis = EDGE_BASES[name]
    diameter = basis.fundamental_diameter()
    for k in (0, 1, 10, 13, 40, 1000):
        for sign in (1, -1):
            t = basis.to_cartesian(np.full(basis.dimension, sign * (k + 0.5)))
            for rho, cutoff in ((0.0, diameter), (0.0, diameter + 0.5), (0.3, 0.3 + diameter)):
                got = isoenergetic.distance_to_surface(basis, t, rho)
                assert got == helpers.reference_distance_to_surface(basis, t, rho, cutoff)


@pytest.mark.parametrize("name", EDGE_BASES)
def test_cutoff_of_exactly_rho_plus_d_equals_full_balls(name):
    # the smallest sound cutoff of the per-ball scan: the minimizer ball
    # reaches beyond it
    basis = EDGE_BASES[name]
    diameter = basis.fundamental_diameter()
    resolution = 5 if basis.dimension == 3 else 9
    for rho in (0.0, 0.25, 0.5, 1.3):
        cutoff = rho + diameter
        sample = isoenergetic.sample_surface(basis, rho, resolution, math.inf)
        assert sample.points == helpers.reference_sample_surface(
            basis, rho, resolution, math.inf, cutoff
        )


ALL_BASES = {**SURFACE_BASES, **EDGE_BASES}


@pytest.mark.parametrize("name", ALL_BASES)
def test_distance_does_not_depend_on_the_cutoff(name):
    # the minimizer-ball lemma: every per-ball scan whose cutoff reaches
    # rho + D finds the distance over the whole lattice, whatever the cutoff
    basis = ALL_BASES[name]
    diameter = basis.fundamental_diameter()
    rng = np.random.default_rng(89)
    for trial in range(2 if basis.dimension == 3 else 4):
        # t inside the fundamental domain, then far outside it
        reach = 0.5 if trial % 2 == 0 else 8.0
        t = basis.to_cartesian(rng.uniform(-reach, reach, size=basis.dimension))
        rho = 0.0 if trial < 2 else float(rng.uniform(0, 1.5))
        got = isoenergetic.distance_to_surface(basis, t, rho)
        for cutoff in (rho + diameter, rho + diameter + 1.0, rho + 10 * diameter):
            assert got == helpers.reference_distance_to_surface(basis, t, rho, cutoff)


@pytest.mark.parametrize("name", ["1d", "3d", "3d-skewed"])
def test_one_and_three_dimensional_samples_equal_full_balls(name):
    basis = EDGE_BASES[name]
    resolutions = (2, 4, 6) if basis.dimension == 3 else range(2, 30, 3)
    for i, resolution in enumerate(resolutions):
        rho = (0.0, 0.45, 0.77, 1.6)[i % 4]
        threshold = math.inf if i % 2 else 0.1
        sample = isoenergetic.sample_surface(basis, rho, resolution, threshold)
        assert sample.points == helpers.reference_sample_surface(
            basis, rho, resolution, threshold
        )
        assert sample.ts.shape == sample.gammas.shape == (len(sample.distances), basis.dimension)


def test_distance_to_surface_equals_per_point_loop():
    rng = np.random.default_rng(83)
    for basis in SURFACE_BASES.values():
        for trial in range(12):
            # t also far outside the fundamental domain
            t = rng.uniform(-8, 8, size=2)
            rho = 0.0 if trial % 4 == 0 else float(rng.uniform(0, 2))
            cutoff = rho + basis.fundamental_diameter() + float(rng.uniform(0, 1.5))
            assert isoenergetic.distance_to_surface(
                basis, t, rho
            ) == helpers.reference_distance_to_surface(basis, t, rho, cutoff)


@pytest.mark.parametrize(
    "t, rho, expected",
    [
        ((0.0, 0.0), 0.5, (0.5, (-1, 0))),
        ((0.5, 0.0), 0.5, (0.0, (-1, 0))),
        ((0.5, 0.5), 0.0, (math.sqrt(0.5), (-1, -1))),
        ((-0.5, 0.5), 1.0, (abs(math.sqrt(0.5) - 1.0), (0, -1))),
    ],
)
def test_distance_exact_ties_take_lex_first(t, rho, expected):
    got = isoenergetic.distance_to_surface(BASIS, t, rho)
    assert got == expected
    assert got == helpers.reference_distance_to_surface(BASIS, t, rho, 4.0)


def test_reported_translates_are_python_int_tuples():
    sample = isoenergetic.sample_surface(BASIS, 0.6, 9, threshold=0.2)
    assert sample.points
    for t, dist, gamma in sample.points:
        assert type(gamma) is tuple and all(type(x) is int for x in gamma)
        assert type(t) is tuple and type(dist) is float
    dist, gamma = isoenergetic.distance_to_surface(BASIS, (0.3, -0.2), 0.6)
    assert type(dist) is float
    assert type(gamma) is tuple and all(type(x) is int for x in gamma)


def test_guards_reject_negative_rho():
    with pytest.raises(ValueError):
        isoenergetic.sample_surface(BASIS, -0.1, resolution=5, threshold=0.1)
    with pytest.raises(ValueError):
        isoenergetic.distance_to_surface(BASIS, (0.0, 0.0), -0.1)


GRID_BASES = {
    1: hb.LatticeBasis(np.array([[0.7]])),
    2: hb.LatticeBasis(np.array([[1.0, 0.0], [1.0 / math.pi, 2.0 / math.sqrt(math.pi)]])),
    3: hb.LatticeBasis(np.random.default_rng(5).normal(size=(3, 3))),
}


@pytest.mark.parametrize("d", GRID_BASES)
def test_sampled_points_are_the_meshgrid_grid_bit_for_bit(d):
    # with no threshold every grid point is retained, in grid order
    basis = GRID_BASES[d]
    for resolution in range(2, 22):
        ts = isoenergetic.sample_surface(basis, 0.5, resolution, math.inf).ts
        expected = helpers.reference_meshgrid_ts(basis, resolution)
        assert ts.shape == expected.shape == (resolution**d, d)
        assert ts.tobytes() == expected.tobytes()
