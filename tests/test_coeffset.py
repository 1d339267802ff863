"""The array kernel against the dict loops it replaced, compared exactly.

``repr`` equality pins every bit of every value, the sign of zeros and the
key order; ``==`` alone would accept -0.0 for 0.0.
"""

import math

import numpy as np
import pytest

import halfspace_bloch as hb
from halfspace_bloch import bloch, coeffset, potential
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
        bloch.apply_A(basis, q, (0, 0), t, coeffs),
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
    assert outcome(bloch.apply_A, basis, q, (-1, 0), (0.0, 0.0), coeffs) == ref
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


def test_unique_rows_packed_and_wide_paths():
    rng = np.random.default_rng(11)
    narrow = rng.integers(-3, 4, size=(200, 3))
    # column spans of 2e9 + 1: their product leaves int64
    wide = narrow * np.array([1, WIDE // 3, WIDE // 3])
    spans = [int(c.max()) - int(c.min()) + 1 for c in wide.T]
    assert math.prod(spans) >= 2**63
    for rows in (narrow, wide):
        first, inverse = coeffset.unique_rows(rows)
        distinct = sorted(set(map(tuple, rows.tolist())))
        assert [tuple(r) for r in rows[first].tolist()] == distinct
        assert np.array_equal(rows[first][inverse], rows)
        assert all(
            tuple(rows[f]) not in map(tuple, rows[:f].tolist()) for f in first.tolist()
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
    assert_same(
        bloch.closed_form_coeffs(basis, q, (0, 0, 0), t, 4).coeffs,
        helpers.reference_closed_form(basis, q, (0, 0, 0), t, 4),
    )
