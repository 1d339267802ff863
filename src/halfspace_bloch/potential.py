"""Sparse Fourier representation of periodic potentials and class-S tests.

A potential is a finite map from integer lattice indices to complex Fourier
coefficients.  It belongs to the admissible class when its support lies
entirely in one open half-lattice (axis k, sign + or -); everything
downstream relies on that support condition, so classification is computed
at construction and revalidated structurally rather than by tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import coeffset
from .lattice import IndexVector, LatticeBasis, as_index, in_halfspace, sign_value, squared_norms

MODES = ("summable", "square-summable")


def classify(
    coeffs: Mapping[Sequence[int], complex] | Iterable[Sequence[int]],
    basis: LatticeBasis,
) -> tuple[int, str] | None:
    """Smallest (k, sign) whose open half-lattice contains the whole support.

    Axes are searched in order k = 1..d with sign '+' before '-'; returns
    None when no half-lattice works.  Independent of the iteration order of
    ``coeffs``.
    """
    support = [as_index(n, basis.dimension) for n in coeffs]
    for k in range(1, basis.dimension + 1):
        for sign in ("+", "-"):
            if all(in_halfspace(n, k, sign) for n in support):
                return k, sign
    return None


@dataclass(frozen=True)
class FourierPotential:
    """Finite half-space-classifiable Fourier potential.

    ``coeffs`` is canonicalized at construction: keys become integer tuples
    sorted lexicographically and exact-zero coefficients are dropped.  The
    classification (k, sign) is None when the support fits no half-lattice.
    ``mode`` records whether the input was declared absolutely summable or
    only square-summable (the latter is admitted for d in {2, 3} only).
    ``truncation_radius`` is the radius :func:`truncated` cut the support
    to, and None when nothing cut it: square-summable input built directly,
    or given to the CLI without ``params.truncation_radius``, keeps None.
    Beyond that dimension check, neither field enters any computation.
    """

    basis: LatticeBasis
    coeffs: dict[IndexVector, complex]
    mode: str = "summable"
    truncation_radius: float | None = None
    k: int | None = field(init=False, default=None)
    sign: str | None = field(init=False, default=None)
    norm_l1: float = field(init=False, default=0.0)
    norm_l2: float = field(init=False, default=0.0)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.mode == "square-summable" and self.basis.dimension not in (2, 3):
            raise ValueError(
                "square-summable mode is only admitted for dimensions 2 and 3"
            )
        canon: dict[IndexVector, complex] = {}
        for n, q in self.coeffs.items():
            value = complex(q)
            if value == 0:
                continue
            canon[as_index(n, self.basis.dimension)] = value
        canon = dict(sorted(canon.items()))
        object.__setattr__(self, "coeffs", canon)
        cls = classify(canon, self.basis)
        if cls is not None:
            object.__setattr__(self, "k", cls[0])
            object.__setattr__(self, "sign", cls[1])
        # inf where a modulus or a norm leaves the float range
        moduli = coeffset.moduli(np.array(list(canon.values()), dtype=complex)).tolist()
        object.__setattr__(self, "norm_l1", sum(moduli))
        # hypot scales its arguments: no overflow above 1e154, no underflow below 1e-154
        object.__setattr__(self, "norm_l2", math.hypot(*moduli))

    @property
    def classification(self) -> tuple[int, str] | None:
        return None if self.k is None else (self.k, self.sign)

    @property
    def is_pt_symmetric(self) -> bool:
        """All coefficients real: q(-x) equals the conjugate of q(x)."""
        return all(q.imag == 0 for q in self.coeffs.values())

    def support(self) -> tuple[IndexVector, ...]:
        return tuple(self.coeffs)

    def __len__(self) -> int:
        return len(self.coeffs)

    def plan(self, depth: int) -> coeffset.Plan:
        """The closed form's :func:`coeffset.plan` of the support on the
        classification axis to plane ``depth``; the zero potential's one
        step of 0 rises past the depth, so its plan holds the origin alone."""
        steps = tuple(self.coeffs) or ((0,) * self.basis.dimension,)
        rises = tuple(sign_value(self.sign) * g1[self.k - 1] for g1 in self.coeffs)
        return coeffset.plan(steps, rises or (depth + 1,), depth)


def truncated(
    basis: LatticeBasis,
    coeffs: Mapping[Sequence[int], complex],
    radius: float,
    mode: str = "square-summable",
) -> FourierPotential:
    """Drop coefficients outside a cartesian ball and record the radius."""
    indices = list(coeffs)
    norms = np.sqrt(squared_norms(basis.to_cartesian(indices))).tolist() if indices else []
    kept = {n: q for (n, q), norm in zip(coeffs.items(), norms) if norm <= radius}
    return FourierPotential(basis, kept, mode=mode, truncation_radius=radius)
