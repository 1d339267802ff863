"""Array-backed sparse coefficient sets, the kernel under both Bloch routes.

A coefficient set is an (m, d) int64 array of lattice offsets, sorted
lexicographically without repeats, and a complex128 array of values.  The
functions here stand in for loops over ``dict[tuple, complex]`` and return,
bit for bit, what those loops return:

* rows are laid out in the loops' iteration order and summed with
  ``np.bincount``, which adds its weights one by one onto 0.0, exactly as
  ``out[key] = out.get(key, 0j) + v`` does;
* complex products and quotients by a real are written out in real
  arithmetic, as CPython computes them (see :func:`divide` for the one
  liberty taken).  numpy's complex ``*`` and ``/`` round some results
  differently in the last place, and so does its complex ``abs``; moduli
  are :func:`moduli`, ``np.hypot`` of the parts, which equals Python's
  ``abs`` wherever that returns.

Every merge of offsets (the series, the walk of :func:`plan`, the
residual, the discrepancy and :func:`convolve`) is one :func:`group` of
:func:`pack` keys over one :func:`sum_box`: the box of a base set plus
sums of steps, in which a row moves by a step with one integer add.  The
oracle finds its couplings the same way, in the ball's box grown by one
step, through a :class:`RowTable`, the one row lookup here: a dense table
of rows over that box, read by one gather with no search.

:func:`plan` builds the structure of the closed form's plane-by-plane
recursion in one walk over the reachable planes.  It depends on the
support, the rises and the depth alone, so one serves every (gamma, t),
and it holds the only cache here: the closed form, the second-plane solve
and the interior cone of one instance read one plan.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from typing import Mapping, Sequence

import numpy as np

from .errors import BoxSizeError

#: packed row keys must stay below this bound to fit in int64
_KEY_LIMIT = 2**63

#: largest integer box accepted for an oracle or degeneracy-group ball (see
#: ``cli._ball``); the benchmark's instances stay below 2.4e3 points and the
#: tests below 3.4e4, and a 1e6 box runs in seconds and well under 1.5 GB.
#: A :class:`RowTable` in d dimensions holds at most 3^d times as many.
BALL_MAX_BOX = 1e6


def from_mapping(coeffs: Mapping, dimension: int) -> tuple[np.ndarray, np.ndarray]:
    """(offsets, values) of a coefficient map, in its own iteration order."""
    offsets = np.array(list(coeffs), dtype=np.int64).reshape(-1, dimension)
    return offsets, np.array(list(coeffs.values()), dtype=complex)


def to_dict(offsets: np.ndarray, values: np.ndarray) -> dict:
    """The coefficient map with Python int tuples as keys, in row order."""
    return dict(zip(map(tuple, offsets.tolist()), values.tolist()))


def join(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Complex array from real and imaginary parts, copied exactly."""
    out = np.empty(re.shape, dtype=complex)
    out.real = re
    out.imag = im
    return out


def product(a_re, a_im, b_re, b_im):
    """CPython's complex product a * b, elementwise, as (re, im)."""
    return a_re * b_re - a_im * b_im, a_re * b_im + a_im * b_re


def divide(re, im, den):
    """(re + i im) / den for a real nonzero den, as (re, im).

    CPython divides by complex(den, 0.0) and so adds a signed zero to each
    part of the numerator.  For finite values that changes at most the sign
    of a zero quotient, and the series erases that sign by summing its
    quotients onto 0.0; the closed form takes the same liberty on sums,
    which are never -0.0.
    """
    return re / den, im / den


def moduli(values: np.ndarray) -> np.ndarray:
    """|v| per entry of a complex array: Python's complex ``abs`` bit for
    bit, except that a modulus beyond the float range is inf, where ``abs``
    raises ``OverflowError``."""
    with np.errstate(over="ignore"):
        return np.hypot(values.real, values.imag)


def l1_norm(values: np.ndarray) -> float:
    """The sum of the :func:`moduli`, added left to right onto 0 as Python
    3.11's ``sum`` adds floats, inf past the float range; the int 0 when
    there are none."""
    if not values.size:
        return 0
    # one errstate for the moduli and the sum: moduli's own would be a second
    with np.errstate(over="ignore"):
        return np.add.accumulate(np.hypot(values.real, values.imag))[-1].item()


def pack(rows: np.ndarray, lo: Sequence[int], spans: Sequence[int]) -> np.ndarray:
    """One key per row of an (n, d) int64 array in the box lo_j <= x_j < lo_j + spans_j.

    The key sum_j (x_j - lo_j) * prod(spans[j+1:]) is linear in the row,
    one-to-one on the box and ordered as the rows are lexicographically; a
    row outside the box gets a key that may equal one inside.  Keys are
    int64 when ``prod(spans)`` fits; otherwise (the one fallback) they are
    exact Python ints in an object array, computed row by row: slower, but
    unbounded.
    """
    if math.prod(spans) >= _KEY_LIMIT:
        rows = rows.astype(object)
    key = rows[:, 0] - lo[0]
    for j in range(1, rows.shape[1]):
        key = key * spans[j] + (rows[:, j] - lo[j])
    return key


def unpack(keys: np.ndarray, lo: Sequence[int], spans: Sequence[int]) -> np.ndarray:
    """The (n, d) int64 rows of keys that :func:`pack` gave rows of the box,
    in key order, less the rows with an entry beyond int64 (only exact
    keys, in an object array, can name those)."""
    return _unpack(keys, lo, spans)[0]


def _unpack(keys: np.ndarray, lo: Sequence[int], spans: Sequence[int]):
    """(rows, inside): :func:`unpack`'s rows, and which keys they are."""
    rows = np.empty((len(keys), len(spans)), dtype=keys.dtype)
    for j in range(len(spans) - 1, 0, -1):
        rows[:, j] = keys % spans[j] + lo[j]
        keys = keys // spans[j]
    rows[:, 0] = keys + lo[0]
    inside = np.empty(len(rows), dtype=bool)
    inside.fill(True)
    if rows.dtype == object:
        inside = ((rows >= -_KEY_LIMIT) & (rows < _KEY_LIMIT)).all(axis=1)
        rows = rows[inside]
    return rows.astype(np.int64, copy=False), inside


class RowTable:
    """Row lookup by one gather from a dense table over a box.

    ``table[key]`` is the row of the index with :func:`pack` key ``key``,
    -1 where the box holds no index, so a batch of keys is found with one
    fancy index and no search.  Indices outside the box are rejected before
    they are packed, since a key is one-to-one on the box only.  The table
    has one entry per point of the box, and a box of more than
    3^d ``BALL_MAX_BOX`` points, more than the box of any admitted ball
    grown by one harmonic on each side, is refused with
    :class:`BoxSizeError` before anything is allocated.
    """

    def __init__(self, lo: Sequence[int], spans: Sequence[int], keys: np.ndarray, rows: np.ndarray):
        """The table over the box ``lo``, ``spans`` with ``rows[i]`` at
        ``keys[i]``, the keys in any order."""
        size, bound = math.prod(spans), 3 ** len(spans) * BALL_MAX_BOX
        if size > bound:
            raise BoxSizeError(f"a row table over a box of {size} points exceeds {bound:.3g}")
        self.lo = np.array(lo, dtype=np.int64)
        self.spans = np.array(spans, dtype=np.int64)
        self.hi = self.lo + self.spans - 1
        self.table = np.empty(size, dtype=np.intp)
        self.table.fill(-1)
        self.table[keys] = rows

    def find(self, members: np.ndarray) -> np.ndarray:
        """The row of each member (rows of an (m, d) integer-valued array), -1 where absent."""
        inside = ((members >= self.lo) & (members <= self.hi)).all(axis=1).nonzero()[0]
        rows = np.empty(members.shape[0], dtype=np.intp)
        rows.fill(-1)
        members = members[inside].astype(np.int64, copy=False)
        rows[inside] = self.table[pack(members, self.lo, self.spans)]
        return rows

    def row(self, index: tuple[int, ...]) -> int:
        """The row of one index of Python ints, -1 where absent."""
        # packed in Python ints, exact however far outside the box the index lies
        key = 0
        for x, m, s in zip(index, self.lo.tolist(), self.spans.tolist()):
            if not 0 <= x - m < s:
                return -1
            key = key * s + (x - m)
        return self.table.item(key)


def sum_box(steps: np.ndarray, top: int, base: np.ndarray | None = None):
    """(lo, spans, keys, shifts) of the box that holds every row of the (b, d)
    int64 array ``base`` plus any sum of at most ``top`` rows of the (s, d)
    int64 array ``steps``.

    The box is min(0, b_j) + top * min(0, g_j) <= x_j <= max(0, b_j) +
    top * max(0, g_j) over the rows; ``keys`` are the :func:`pack` keys of
    the base rows (by default the origin alone) and ``shifts[i]`` the key
    change of step i.  :func:`pack` is linear and one-to-one on the box, so
    a sum's key is its base row's plus its steps' shifts (exact Python ints
    when the box is too wide for int64).
    """
    d = steps.shape[1]
    if base is None:
        base = np.zeros((1, d), dtype=np.int64)
    low, high = base.min(axis=0, initial=0).tolist(), base.max(axis=0, initial=0).tolist()
    lo = [b + top * g for b, g in zip(low, steps.min(axis=0, initial=0).tolist())]
    hi = [b + top * g for b, g in zip(high, steps.max(axis=0, initial=0).tolist())]
    spans = [h - m + 1 for m, h in zip(lo, hi)]
    keys = pack(np.concatenate([base, np.zeros((1, d), dtype=np.int64), steps]), lo, spans)
    n = base.shape[0]
    return lo, spans, keys[:n], keys[n + 1 :] - keys[n]


def distinct(keys: np.ndarray) -> np.ndarray:
    """The sorted distinct entries of a 1-D key array: one stable sort and a
    neighbour mask.  The stable sort merges the sorted runs of its input,
    so keys laid out as a few shifted copies of sorted layers sort fast."""
    keys = keys.copy()
    keys.sort(kind="stable")
    first = np.empty(keys.size, dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first]


def group(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(targets, at): the :func:`distinct` keys and the place of each key among them."""
    targets = distinct(keys)
    return targets, targets.searchsorted(keys)


def convolve(shifts: np.ndarray, q: np.ndarray, keys: np.ndarray, values: np.ndarray):
    """(targets, at, re, im) of the sparse convolution of the steps with key
    changes ``shifts`` and weights ``q`` with the rows ``keys``, ``values``
    (keys and shifts of one :func:`sum_box`).

    Candidate i * len(keys) + j, harmonic outer and row inner, is
    ``keys[j] + shifts[i]`` with weight ``q[i] * values[j]`` in ``re``,
    ``im``; :func:`group` gives the distinct ``targets`` and the place
    ``at`` of each candidate among them, so :func:`accumulate` over ``at``
    sums the products in loop order.
    """
    targets, at = group((keys + shifts[:, None]).ravel())
    re, im = product(q.real[:, None], q.imag[:, None], values.real, values.imag)
    return targets, at, re.ravel(), im.ravel()


#: the closed form's structure, values aside (see :func:`plan`)
Plan = namedtuple("Plan", "offsets bounds lex harmonics targets local predecessors cuts")


@functools.lru_cache(maxsize=4)
def plan(steps: tuple, rises: tuple, depth: int) -> Plan:
    """The structure of the plane-by-plane recursion over the sums of
    ``steps`` (index tuples) to plane ``depth``, step i rising
    ``rises[i] >= 1`` planes (so a sum's plane is a function of the sum).

    ``offsets`` holds the reachable offsets, plane-major and lexicographic
    within a plane, the origin first, less any with an entry beyond int64,
    which no array here holds.  ``bounds[p]`` is the first row of plane p
    (then the row count), and ``lex`` lists the rows in lexicographic
    order of their offsets.  Triple j carries row ``predecessors[j]`` by step
    ``harmonics[j]`` to row ``targets[j]``, ``local[j]`` places into its
    plane.  The triples run in the order the dict loop sums them: target
    plane, first appearance of the step's rise in ``steps``, step order,
    predecessor; ``cuts[p]`` is the first one into plane p.  A triple from
    or to an offset beyond int64 is left out.

    One walk builds it.  Plane p holds the sorted distinct :func:`pack`
    keys, over the box of :func:`sum_box`, of the planes p - r shifted by
    their steps of rise r: one broadcast add per distinct rise, in the
    triples' order, so the candidates of plane p are its triples, and the
    one :func:`group` that makes the plane places each of them in it.
    Work and memory follow the reachable set, never the box.  Which row
    and step each triple starts from follows from the planes' sizes.

    The plan depends on the support, the axis and the depth alone, so one
    serves every (gamma, t): the last few are kept, read-only, and the
    interior cone and the closed form of one instance share one.
    """
    lo, spans, origin, shifts = sum_box(np.array(steps, dtype=np.int64), depth)
    # the steps within the depth by rise, the rises in order of first
    # appearance and the steps of one rise in support order
    by_rise = {r: [] for r in rises if r <= depth}
    for i, r in enumerate(rises):
        if r <= depth:
            by_rise[r].append(i)
    moves = [(r, shifts[i][:, None]) for r, i in by_rise.items()]
    layers, local = [origin], [np.zeros(0, dtype=np.intp)]
    for p in range(1, depth + 1):
        keys, at = group(np.concatenate(
            [origin[:0], *((layers[p - r] + s).ravel() for r, s in moves if r <= p)]
        ))
        layers.append(keys)
        local.append(at)
    # block (p, j) of the triples carries every row of plane p - rise[j] by
    # step order[j]: plane-major, as the walk laid them out
    order = [i for ids in by_rise.values() for i in ids]
    rise = np.array([rises[i] for i in order], dtype=np.int64)
    plane, j = (np.arange(1, depth + 1)[:, None] >= rise).nonzero()
    plane += 1
    source = plane - rise[j]
    sizes = np.array(list(map(len, layers)))
    starts = sizes.cumsum() - sizes
    counts = sizes[source]
    harmonics = np.array(order, dtype=np.intp)[j].repeat(counts)
    target_planes = plane.repeat(counts)
    predecessors = np.arange(counts.sum()) + (
        starts[source] - (counts.cumsum() - counts)
    ).repeat(counts)
    local = np.concatenate(local)
    targets = starts[target_planes] + local

    keys = np.concatenate(layers)
    offsets, inside = _unpack(keys, lo, spans)
    # the kept rows before the first of each plane
    bounds = inside.nonzero()[0].searchsorted(np.concatenate((starts, [len(keys)])))
    if not inside.all():
        # drop the triples that touch a sum beyond int64, renumber the rest
        kept = inside[predecessors] & inside[targets]
        renumber = inside.cumsum() - 1
        harmonics, target_planes = harmonics[kept], target_planes[kept]
        predecessors, targets = renumber[predecessors[kept]], renumber[targets[kept]]
        local = targets - bounds[target_planes]
        keys = keys[inside]
    # distinct planes hold distinct sums, so no key repeats, and the stable
    # sort merges the sorted planes
    lex = keys.argsort(kind="stable")
    for arr in (offsets, lex, harmonics, targets, local, predecessors):
        arr.setflags(write=False)
    return Plan(
        offsets=offsets,
        bounds=tuple(bounds.tolist()),
        lex=lex,
        harmonics=harmonics,
        targets=targets,
        local=local,
        predecessors=predecessors,
        cuts=tuple(target_planes.searchsorted(np.arange(depth + 2)).tolist()),
    )


def accumulate(inverse: np.ndarray, re, im, size: int) -> np.ndarray:
    """Complex sums of the weights grouped by ``inverse``, in row order."""
    return join(
        np.bincount(inverse, weights=re, minlength=size),
        np.bincount(inverse, weights=im, minlength=size),
    )


def nonzero(offsets: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The set without its exact-zero entries."""
    keep = values != 0
    return offsets[keep], values[keep]


def fourier_sum(waves: np.ndarray, values, x: np.ndarray) -> complex:
    """sum_j values[j] * exp(i <waves[j], x>) over the rows of an (m, d) float array.

    Each phase is a stacked (1, d) @ (d, 1) matmul, bit-equal to the 1-D
    ``waves[j] @ x``; the terms are the Python complex ``values`` times
    numpy's scalar ``exp``, added one by one onto 0j in row order.
    """
    phases = (waves[:, None, :] @ x[:, None])[:, 0, 0]
    total = 0j
    for c, phase in zip(values, phases.tolist()):
        total += c * np.exp(1j * phase)
    return total
