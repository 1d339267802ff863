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
  differently in the last place, and so does its complex ``abs``; callers
  take moduli with Python's ``abs``.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

#: packed row keys must stay below this bound to fit in int64
_KEY_LIMIT = 2**63


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
    of a zero quotient, and both callers erase that sign: one sums the
    quotients onto 0.0, the other divides sums, which are never -0.0.
    """
    return re / den, im / den


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


def unique_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, inverse) for the distinct rows of an (n, d) int64 array.

    ``rows[first]`` are the distinct rows in lexicographic order, each at its
    first occurrence, and ``inverse`` maps every row to its rank among them.
    Rows are merged through one :func:`pack` key each, with the box spanned
    by ``rows``.
    """
    if rows.shape[0] == 0:
        empty = np.zeros(0, dtype=np.intp)
        return empty, empty
    lo = rows.min(axis=0).tolist()
    spans = [h - m + 1 for m, h in zip(lo, rows.max(axis=0).tolist())]
    _, first, inverse = np.unique(
        pack(rows, lo, spans), return_index=True, return_inverse=True
    )
    return first, inverse


def accumulate(inverse: np.ndarray, re, im, size: int) -> np.ndarray:
    """Complex sums of the weights grouped by ``inverse``, in row order."""
    return join(
        np.bincount(inverse, weights=re, minlength=size),
        np.bincount(inverse, weights=im, minlength=size),
    )


def convolve_rows(a_offsets, a_values, b_offsets, b_values):
    """(rows, re, im) of a_i + b_j and a_i * b_j, with i outer and j inner."""
    rows = (a_offsets[:, None, :] + b_offsets[None, :, :]).reshape(
        -1, a_offsets.shape[1]
    )
    re, im = product(
        a_values.real[:, None],
        a_values.imag[:, None],
        b_values.real[None, :],
        b_values.imag[None, :],
    )
    return rows, re.reshape(-1), im.reshape(-1)


def nonzero(offsets: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The set without its exact-zero entries."""
    keep = values != 0
    return offsets[keep], values[keep]


def merge(rows: np.ndarray, re, im) -> tuple[np.ndarray, np.ndarray]:
    """Sum the weights of equal rows: a sorted coefficient set, zeros kept."""
    first, inverse = unique_rows(rows)
    return rows[first], accumulate(inverse, re, im, first.size)


def convolve(a_offsets, a_values, b_offsets, b_values):
    """Sparse convolution of two coefficient sets; exact zeros are dropped."""
    return nonzero(*merge(*convolve_rows(a_offsets, a_values, b_offsets, b_values)))


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
