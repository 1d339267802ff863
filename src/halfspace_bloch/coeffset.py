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
from typing import Mapping

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


def unique_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, inverse) for the distinct rows of an (n, d) int64 array.

    ``rows[first]`` are the distinct rows in lexicographic order, each at its
    first occurrence, and ``inverse`` maps every row to its rank among them.
    Rows are merged through one int64 key each, with the radix of every
    column taken from its span in ``rows``; when the spans' product leaves
    int64, the slower row-wise ``np.unique`` does the merge instead.
    """
    if rows.shape[0] == 0:
        empty = np.zeros(0, dtype=np.intp)
        return empty, empty
    lo = rows.min(axis=0)
    spans = [int(h) - int(m) + 1 for m, h in zip(lo.tolist(), rows.max(axis=0).tolist())]
    if math.prod(spans) >= _KEY_LIMIT:
        _, first, inverse = np.unique(
            rows, axis=0, return_index=True, return_inverse=True
        )
        return first, inverse.reshape(-1)
    shifted = rows - lo
    key = shifted[:, 0]
    for j in range(1, rows.shape[1]):
        key = key * spans[j] + shifted[:, j]
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
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
