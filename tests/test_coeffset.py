"""The array kernel against the dict loops it replaced, compared exactly.

``repr`` equality pins every bit of every value, the sign of zeros and the
key order; ``==`` alone would accept -0.0 for 0.0.
"""

import math

import numpy as np
import pytest

import halfspace_bloch as hb
from halfspace_bloch import bloch, coeffset, galerkin, potential
from halfspace_bloch.errors import ResonanceError

import helpers

BASES = {
    "1d": [[2 * math.pi]],
    "identity": [[1.0, 0.0], [0.0, 1.0]],
    "skewed": [[1.0, 0.0], [1.0, 1.0]],
    "hexagonal": [[1.0, 0.0], [0.5, math.sqrt(3) / 2]],
    "3d": [[1.0, 0.2, 0.0], [0.3, 1.0, 0.1], [0.0, 0.4, 1.3]],
}


def outcome(fn, *args):
    """The result, or the resonance it raised as (index, value, message)."""
    try:
        return fn(*args)
    except ResonanceError as exc:
        return ("resonance", exc.index, exc.value, str(exc))


def resonated(result) -> bool:
    return isinstance(result, tuple) and result[0] == "resonance"


def assert_same(got, ref):
    assert got == ref
    assert repr(got) == repr(ref)


def instances(name, count):
    """Seeded instances, real and complex potentials, resonant ones included."""
    basis = hb.LatticeBasis(np.array(BASES[name]))
    d = basis.dimension
    rng = np.random.default_rng(sum(map(ord, name)))
    for i in range(count):
        k = int(rng.integers(1, d + 1))
        sign = "+-"[int(rng.integers(0, 2))]
        q = helpers.random_halfspace_potential(
            rng, basis, k=k, sign=sign, max_harmonics=2 if d == 1 else 5,
            max_p=2, max_a=2, coeff_scale=0.3,
        )
        if i % 3 == 0:
            q = hb.FourierPotential(basis, {n: round(v.real, 1) for n, v in q.coeffs.items()})
        gamma = tuple(int(x) for x in rng.integers(-1, 2, size=d))
        t = rng.uniform(-0.5, 0.5, size=d) if i % 4 else np.zeros(d)
        yield basis, q, gamma, t, (8 if d < 3 else 5), (6 if d < 3 else 4)


@pytest.mark.parametrize("name", BASES)
def test_routes_equal_dict_loops(name):
    resonant = 0
    for basis, q, gamma, t, order, depth in instances(name, 24):
        for tail_tol in (bloch.DEFAULT_TAIL_TOL, 1e-3):
            ref = outcome(helpers.reference_series, basis, q, gamma, t, order, tail_tol)
            got = outcome(bloch.bloch_series, basis, q, gamma, t, order, tail_tol)
            if isinstance(got, bloch.BlochCoefficients):
                got = (got.coeffs, got.order, got.tail, got.term_masses)
            assert_same(got, ref)
        closed = outcome(bloch.closed_form_coeffs, basis, q, gamma, t, depth)
        if isinstance(closed, bloch.BlochCoefficients):
            closed = closed.coeffs
        assert_same(closed, outcome(helpers.reference_closed_form, basis, q, gamma, t, depth))
        if resonated(got) or resonated(closed):
            resonant += 1
            continue
        series = bloch.bloch_series(basis, q, gamma, t, order, 0.0)
        psi = bloch.closed_form_coeffs(basis, q, gamma, t, depth)
        assert_same(bloch.residual(basis, q, series), helpers.reference_residual(basis, q, series))
        assert_same(bloch.max_discrepancy(series, psi), helpers.reference_max_discrepancy(series, psi))
        assert_same(
            potential.convolve(q.coeffs, series.coeffs),
            helpers.reference_convolve(q.coeffs, series.coeffs),
        )
        x = t + 0.37
        assert_same(potential.evaluate(q, x), helpers.reference_evaluate(q, x))
        for got in (series, psi):
            assert_same(
                bloch.evaluate_function(basis, got, x),
                helpers.reference_evaluate_function(basis, got, x),
            )
    assert resonant < 12  # most instances must run the full routes


def test_apply_a_keeps_the_input_order():
    basis = hb.identity_basis(2)
    rng = np.random.default_rng(7)
    q = helpers.random_halfspace_potential(rng, basis, max_harmonics=6)
    t = (0.31, 0.17)
    # an unsorted input map: the sums follow its iteration order
    coeffs = {(2, 1): 0.3 - 0.1j, (1, -1): 1.0, (1, 2): -0.25j, (0, 0): 1}
    assert_same(
        helpers.apply_A(basis, q, (0, 0), t, coeffs),
        helpers.reference_apply_A(basis, q, (0, 0), t, coeffs),
    )


def test_resonance_index_is_the_first_hit():
    basis = hb.identity_basis(2)
    # gamma = (-1, 0) at t = 0: lam = 1 is hit at the offsets (1, 1), (1, -1)
    # and (2, 0); the input order puts (1, 1) first, the sorted order (1, -1)
    q = hb.FourierPotential(basis, {(1, 0): 0.1})
    coeffs = {(0, 1): 1.0, (0, -1): 1.0}
    ref = outcome(helpers.reference_apply_A, basis, q, (-1, 0), (0.0, 0.0), coeffs)
    assert ref[1] == (1, 1)
    assert outcome(helpers.apply_A, basis, q, (-1, 0), (0.0, 0.0), coeffs) == ref
    q = hb.FourierPotential(basis, {(1, 1): 0.1, (1, -1): 0.2, (2, 0): 0.3})
    for got, want in (
        (
            outcome(bloch.bloch_series, basis, q, (-1, 0), (0.0, 0.0), 4, 0.0),
            outcome(helpers.reference_series, basis, q, (-1, 0), (0.0, 0.0), 4, 0.0),
        ),
        (
            outcome(bloch.closed_form_coeffs, basis, q, (-1, 0), (0.0, 0.0), 3),
            outcome(helpers.reference_closed_form, basis, q, (-1, 0), (0.0, 0.0), 3),
        ),
    ):
        assert resonated(want)
        assert got == want


WIDE = 10**9


def test_group_on_base_box_packed_and_wide_paths():
    rng = np.random.default_rng(11)
    narrow = rng.integers(-3, 4, size=(200, 3))
    # column spans of 2e9 + 1: their product leaves int64
    wide = narrow * np.array([1, WIDE // 3, WIDE // 3])
    spans = [int(c.max()) - int(c.min()) + 1 for c in wide.T]
    assert math.prod(spans) >= 2**63
    for rows, dtype in ((narrow, np.int64), (wide, object)):
        lo, spans, keys, _ = coeffset.sum_box(rows[:0], 0, base=rows)
        assert keys.dtype == dtype
        targets, at = coeffset.group(keys)
        distinct = sorted(set(map(tuple, rows.tolist())))
        merged = coeffset.unpack(targets, lo, spans)
        assert [tuple(r) for r in merged.tolist()] == distinct
        assert np.array_equal(merged[at], rows)
        first = [at.tolist().index(i) for i in range(targets.size)]
        assert all(
            tuple(rows[f]) not in map(tuple, rows[:f].tolist()) for f in first
        )


def test_wide_offsets_equal_dict_loops():
    basis = hb.identity_basis(3)
    q = hb.FourierPotential(
        basis, {(1, WIDE, -WIDE): 0.2 + 0.1j, (1, -WIDE, WIDE): -0.3, (2, 1, 1): 0.1j}
    )
    t = (0.21, 0.13, -0.07)
    series = bloch.bloch_series(basis, q, (0, 0, 0), t, max_order=4, tail_tol=0.0)
    ref = helpers.reference_series(basis, q, (0, 0, 0), t, 4, 0.0)
    assert_same((series.coeffs, series.order, series.tail, series.term_masses), ref)
    psi = bloch.closed_form_coeffs(basis, q, (0, 0, 0), t, 4)
    assert_same(psi.coeffs, helpers.reference_closed_form(basis, q, (0, 0, 0), t, 4))
    # the merges run on object keys: every box here is wider than int64
    for got in (series, psi):
        assert_same(bloch.residual(basis, q, got), helpers.reference_residual(basis, q, got))
    assert_same(bloch.max_discrepancy(series, psi), helpers.reference_max_discrepancy(series, psi))
    assert_same(
        potential.convolve(q.coeffs, series.coeffs),
        helpers.reference_convolve(q.coeffs, series.coeffs),
    )


# -- the closed form as one plan and one evaluation ----------------------------------

#: (basis, k, sign, ball cutoff) of the plan cases; 3-D on axis 2 with sign '-'
PLAN_CASES = {
    "1d": (BASES["1d"], 1, "+", 40.0),
    "identity": (BASES["identity"], 1, "+", 5.0),
    "skewed": (BASES["skewed"], 2, "-", 5.0),
    "3d-k2-minus": (BASES["3d"], 2, "-", 3.0),
}


def top_plane(basis, q, gamma, t, cutoff):
    """The closed form to the top plane of the cutoff ball, as an
    :func:`outcome`, after checking it against the dict loop."""
    op = galerkin.build(basis, q, t, cutoff)
    depth = max(op.planes) - op.planes[op.position(gamma)]
    full = outcome(bloch.closed_form_coeffs, basis, q, gamma, t, depth)
    assert_same(full if resonated(full) else full.coeffs,
                outcome(helpers.reference_closed_form, basis, q, gamma, t, depth))
    return full


@pytest.mark.parametrize("name", PLAN_CASES)
def test_closed_form_plan_equals_dict_loop(name):
    generators, k, sign, cutoff = PLAN_CASES[name]
    basis = hb.LatticeBasis(np.array(generators))
    d = basis.dimension
    rng = np.random.default_rng(sum(map(ord, name)) + 101)
    for i in range(12):
        q = helpers.random_halfspace_potential(
            rng, basis, k=k, sign=sign, max_harmonics=2 if d == 1 else 5,
            max_p=2, max_a=2, coeff_scale=0.3,
        )
        gamma = tuple(int(x) for x in rng.integers(-1, 2, size=d))
        t = rng.uniform(-0.5, 0.5, size=d) if i % 4 else np.zeros(d)
        for sign_flip in (1, -1):
            if sign_flip < 0:  # the same harmonics in the opposite half-lattice
                q = hb.FourierPotential(basis, {tuple(-x for x in n): v for n, v in q.coeffs.items()})
            for depth in (0, 1, 5 if d < 3 else 4):
                assert_same(
                    outcome(lambda *a: bloch.closed_form_coeffs(*a).coeffs, basis, q, gamma, t, depth),
                    outcome(helpers.reference_closed_form, basis, q, gamma, t, depth),
                )
            top_plane(basis, q, gamma, t, cutoff)


def test_closed_form_sums_planes_in_first_appearance_order():
    # on axis 2 the support, kept in lexicographic order, runs over the
    # planes 1, 2, 1, 3: every sum takes both plane-1 harmonics first
    basis = hb.identity_basis(2)
    rng = np.random.default_rng(5)
    for _ in range(10):
        coeffs = {n: helpers.random_unit_disc(rng, 0.4) for n in [(-1, 1), (0, 2), (1, 1), (2, 3)]}
        q = hb.FourierPotential(basis, coeffs)
        assert q.classification == (2, "+") and [n[1] for n in q.coeffs] == [1, 2, 1, 3]
        t = rng.uniform(-0.5, 0.5, size=2)
        assert_same(
            bloch.closed_form_coeffs(basis, q, (0, 0), t, 8).coeffs,
            helpers.reference_closed_form(basis, q, (0, 0), t, 8),
        )
        top_plane(basis, q, (0, 0), t, 4.0)


def test_closed_form_drops_an_exact_zero_numerator():
    # t = 0, gamma = 0: the (2, 1) numerator 1 * c(1, 1) + 1 * c(1, 0) + 1.5
    # = -0.5 - 1 + 1.5 is exactly 0, so (2, 1) is dropped and feeds nothing
    basis = hb.identity_basis(2)
    q = hb.FourierPotential(basis, {(1, 0): 1.0, (1, 1): 1.0, (2, 1): 1.5})
    closed = bloch.closed_form_coeffs(basis, q, (0, 0), (0.0, 0.0), 4)
    assert (2, 1) not in closed.coeffs and (1, 1) in closed.coeffs
    assert_same(closed.coeffs, helpers.reference_closed_form(basis, q, (0, 0), (0.0, 0.0), 4))
    top_plane(basis, q, (0, 0), (0.0, 0.0), 3.0)


def test_closed_form_guards_a_target_reached_through_an_underflowed_coefficient():
    # a = 2.83e-162: the plane-2 numerator a * c(1) is the least subnormal and
    # its quotient rounds to 0.0; the coefficient is kept, so its successor on
    # plane 3, where d vanishes, is reached and guarded
    basis = hb.identity_basis(1)
    q = hb.FourierPotential(basis, {(1,): 2.829110012464732e-162})
    closed = bloch.closed_form_coeffs(basis, q, (-1,), (-0.5,), 2)
    assert closed.coeffs[(2,)] == 0
    assert_same(closed.coeffs, helpers.reference_closed_form(basis, q, (-1,), (-0.5,), 2))
    got = outcome(bloch.closed_form_coeffs, basis, q, (-1,), (-0.5,), 4)
    assert got[:2] == ("resonance", (3,))
    assert got == outcome(helpers.reference_closed_form, basis, q, (-1,), (-0.5,), 4)


def test_closed_form_passes_a_resonance_that_only_dropped_numerators_reach():
    # lam = 9 at gamma = (-3, 0), t = 0: delta = (3, 3) resonates, and its one
    # reachable predecessor (2, 2) has the numerator 1e-200 * c(1, 1), which
    # underflows to exactly 0: dropped, it reaches nothing, and nothing raises
    basis = hb.identity_basis(2)
    q = hb.FourierPotential(basis, {(1, 0): 1e-200, (1, 1): 1e-200})
    gamma, t = (-3, 0), (0.0, 0.0)
    assert hb.eigenvalue(basis, gamma, t) == hb.eigenvalue(basis, (0, 3), t)
    closed = bloch.closed_form_coeffs(basis, q, gamma, t, 4)
    assert (1, 1) in closed.coeffs and (2, 2) not in closed.coeffs
    assert_same(closed.coeffs, helpers.reference_closed_form(basis, q, gamma, t, 4))
    top_plane(basis, q, gamma, t, 4.0)


def test_closed_form_raises_the_first_hit_outside_the_cone():
    # lam = 1 at gamma = (-1, 0), t = 0; delta = (2, 0) resonates, and its
    # predecessor (1, 5) lies outside the cutoff-3 ball: the cone is {0}
    basis = hb.identity_basis(2)
    q = hb.FourierPotential(basis, {(1, 5): 0.1, (1, -5): 0.2})
    op = galerkin.build(basis, q, (0.0, 0.0), 3.0)
    assert galerkin.interior_cone(op, (-1, 0)).tolist() == [[0, 0]]
    full = top_plane(basis, q, (-1, 0), (0.0, 0.0), 3.0)
    assert full == ("resonance", (2, 0), 0.0, "d(gamma, delta) vanished at delta=(2, 0): 0.0")
    # the numerator at (2, 0) underflows to 0, but the kept (1, +-5) reach it
    q = hb.FourierPotential(basis, {(1, 5): 1e-200, (1, -5): 1e-200})
    assert top_plane(basis, q, (-1, 0), (0.0, 0.0), 3.0) == full


def test_closed_form_on_harmonics_near_both_int64_ends():
    # the targets (1, +-2**62) span 2**63 + 1 on axis 2, beyond int64: the
    # plan's lookup box keeps that span exact and finds both targets
    basis = hb.identity_basis(2)
    q = hb.FourierPotential(basis, {(1, 2**62): 0.1, (1, -(2**62)): 0.2, (1, 0): 0.3})
    t = (0.31, 0.17)
    closed = bloch.closed_form_coeffs(basis, q, (0, 0), t, 1)
    assert len(closed.offsets) == 4
    assert_same(closed.coeffs, helpers.reference_closed_form(basis, q, (0, 0), t, 1))
    box = coeffset.IndexBox(closed.offsets)
    assert box.spans.tolist() == [2, 2**63 + 1]
    assert box.find(closed.offsets).tolist() == [0, 1, 2, 3]


def test_unpack_leaves_out_sums_beyond_int64():
    # two or more steps of (1, 2**62) leave int64: the walk holds them as
    # exact keys, and unpack keeps the rest in plane-major order
    plan = coeffset.plan(((1, 0), (1, 2**62)), (1, 1), 6)
    assert plan.box.keys.dtype == object
    rows = plan.offsets
    assert rows.dtype == np.int64
    assert rows.tolist() == [[0, 0]] + [[p, b * 2**62] for p in range(1, 7) for b in (0, 1)]


def assert_same_plan(got, ref):
    """Every field of two plans equal, arrays with their dtypes."""
    for name in ("bounds", "cuts"):
        assert getattr(got, name) == getattr(ref, name), name
    for name in ("offsets", "harmonics", "targets", "local", "predecessors"):
        a, b = getattr(got, name), getattr(ref, name)
        assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b), name
    assert got.box.corner == ref.box.corner
    for name in ("lo", "hi", "spans", "keys", "rows"):
        a, b = getattr(got.box, name), getattr(ref.box, name)
        assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b), name


@pytest.mark.parametrize("name", ["identity", "skewed", "3d"])
def test_plan_equals_the_two_pass_reference(name):
    # rises 1-3, grouped on axis 1 and interleaved on the others, in both half-lattices
    basis = hb.LatticeBasis(np.array(BASES[name]))
    d = basis.dimension
    rng = np.random.default_rng(sum(map(ord, name)) + 303)
    for i in range(40):
        k, sign = int(rng.integers(1, d + 1)), "+-"[i % 2]
        q = helpers.random_halfspace_potential(
            rng, basis, k=k, sign=sign, max_harmonics=6, max_p=3, max_a=2
        )
        steps = tuple(q.coeffs)
        rises = tuple((1 if q.sign == "+" else -1) * g1[q.k - 1] for g1 in steps)
        for depth in (0, 1, int(rng.integers(2, 13 if d < 3 else 7))):
            assert_same_plan(
                coeffset.plan(steps, rises, depth), helpers.reference_plan(steps, rises, depth)
            )


@pytest.mark.parametrize("steps", [
    ((1, 0), (1, 2**62)),
    ((1, 2**62), (1, -(2**62)), (1, 0)),
    ((1, 0), (2, -(2**62)), (1, 2**62 - 1)),
    ((2, 2**62), (1, 5), (3, -(2**62)), (1, -(2**63))),
    ((1, WIDE, -WIDE), (1, -WIDE, WIDE), (2, 1, 1)),
])
def test_plan_near_both_int64_ends_equals_the_two_pass_reference(steps):
    # every box is wider than int64, so the walk runs on exact keys; in all
    # but the last support some sums leave int64, and so do their triples
    rises = tuple(n[0] for n in steps)
    for depth in range(7):
        got = coeffset.plan(steps, rises, depth)
        assert got.box.keys.dtype == (object if depth else np.int64)
        assert_same_plan(got, helpers.reference_plan(steps, rises, depth))


def test_series_raises_at_the_order_that_leaves_int64():
    # order 2 reaches (2, 2**63): the box of max_order 3 holds it as an
    # exact key, and the series names the order instead of wrapping it into
    # the offset (2, -2**63)
    basis = hb.identity_basis(2)
    q = hb.FourierPotential(basis, {(1, 0): 0.1, (1, 2**62): 0.1})
    t = (0.31, 0.17)
    with pytest.raises(ValueError, match="series order 2 reaches an offset beyond int64"):
        bloch.bloch_series(basis, q, (0, 0), t, max_order=3)
    # order 1 stays in int64 and, on the same exact-key box, equals the dict loop
    got = bloch.bloch_series(basis, q, (0, 0), t, max_order=1)
    ref = helpers.reference_series(basis, q, (0, 0), t, 1, bloch.DEFAULT_TAIL_TOL)
    assert_same((got.coeffs, got.order, got.tail, got.term_masses), ref)
