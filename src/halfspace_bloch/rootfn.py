"""Root functions at multiple eigenvalues: criteria and 1-D special cases.

For a degenerate free eigenvalue the root function attached to a
second-plane member solves a finite triangular system plane by plane; the
rows belonging to the leading (first-plane) members cannot be solved and
instead yield one scalar per leading member.  The root function is an
eigenfunction exactly when all those scalars vanish; otherwise it is a
first associated function.  That system is the closed form's recursion
from the member (:mod:`bloch`): one plan over the offsets reachable within
the planes up to the leading plane, and one evaluation of it with
d = lam - |member + delta + t|^2, in which the leading members' rows divide
by 1, so that their values are the criterion's numerators.

The one-dimensional periodic problem (period 1, potential supported on
positive harmonics) admits the fully explicit version: coefficients c_p of
the candidate eigenfunction with leading term exp(-i 2 pi n x) follow a
rational recursion, and the double eigenvalue criterion is
q_{2n} + sum_p q_{2n-p} c_p = 0.  Coefficients here are handled in units of
pi^2, which removes pi from the algebra entirely: rational inputs
(fractions.Fraction) then cancel exactly, so the criterion really is zero
when it should be.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import bloch
from .errors import MalformedCoefficientsError
from .lattice import IndexVector, LatticeBasis
from .potential import FourierPotential
from .spectrum import EigenGroup, eigenvalues

#: absolute size below which a float criterion value counts as zero.  It
#: separates the roundoff of a criterion that is zero in exact arithmetic
#: (at most 3.5e-17 over 2000 float-tuned 1-D potentials, n <= 5 and
#: |q_m| < 1.5) from the smallest true value it must not hide: every value
#: of 1e-10 or more counts as nonzero, far below the second-plane criteria
#: of the benchmark's 2-D pools (none nonzero under 9e-3 on seeds 1-3).
#: The pi-exact 1-D criterion is compared with 0 exactly instead.
CRITERION_TOL = 1e-10


class Classification(enum.Enum):
    EIGENFUNCTION = "eigenfunction"
    ASSOCIATED = "associated"


@dataclass(frozen=True)
class RootFunctionReport:
    """Outcome of the second-plane analysis for one group member.

    ``coefficients`` maps (a, n) with a in the axis sublattice (k-th entry
    zero) and n the plane index, covering planes n_2+1 .. n_1 as far as they
    are solvable.  ``criterion_values`` holds one scalar per leading member,
    in leading-plane order; the classification is Eigenfunction iff all of
    them vanish within ``criterion_tol``, else the function is associated of
    order at most ``associated_bound``.
    """

    group: EigenGroup
    plane: int
    member: IndexVector
    coefficients: dict[tuple[IndexVector, int], complex]
    criterion_values: tuple[complex, ...]
    classification: Classification
    associated_bound: int | None
    criterion_tol: float

    def to_json_dict(self) -> dict:
        gap = self.group.excluded_gap
        return {
            "lambda": self.group.lam,
            "member": list(self.member),
            "plane": self.plane,
            "group_multiplicity": self.group.multiplicity,
            "leading_count": self.group.s,
            "group_excluded_gap": gap if gap != float("inf") else None,
            "criterion_values": [
                {"re": c.real, "im": c.imag} for c in self.criterion_values
            ],
            "classification": self.classification.value,
            "associated_bound": self.associated_bound,
            "criterion_tol": self.criterion_tol,
        }


def second_plane_solve(
    basis: LatticeBasis,
    q: FourierPotential,
    group: EigenGroup,
    j: int,
    criterion_tol: float = CRITERION_TOL,
) -> RootFunctionReport:
    """Solve the second-plane system for member j and evaluate the criterion.

    ``j`` indexes the second plane's member list (0-based); the system is
    the one at ``group.t``.  It is the closed form's plan from the member
    over the n_1 - n_2 planes up to the leading plane, evaluated with
    d = lam - |member + delta + t|^2 (module docstring).  A left factor
    that collides with lam (:func:`spectrum.collides`, the group's own
    predicate) away from the leading members marks a colliding point that
    the group lacks and raises :class:`ResonanceError`.
    """
    if len(group.planes) < 2:
        raise ValueError("group has a single plane: no second-plane members")
    if q.classification is None or q.sign != "+" or q.k != group.k:
        raise ValueError(
            f"potential must be classified (k={group.k}, '+') to match the group"
        )
    members = group.planes[1].members
    if not 0 <= j < len(members):
        raise IndexError(f"j={j} is not a second-plane member (0..{len(members) - 1})")
    k, member = group.k, members[j]
    depth = group.planes[0].n - group.planes[1].n
    plan = q.plan(depth)
    qvals = np.array(list(q.coeffs.values()), dtype=complex)
    points = plan.offsets + member
    d = group.lam - eigenvalues(basis, points, group.t)
    # the leading members' rows divide by 1: their values are the numerators;
    # every leading member lies on the plan's top plane, plane depth
    leads = np.array(group.planes[0].members)
    first, end = plan.bounds[depth:depth + 2]
    hit, at = (leads - member == plan.offsets[first:end, None]).all(axis=2).nonzero()
    leading = np.empty(len(leads), dtype=np.intp)
    leading.fill(-1)
    leading[at] = first + hit
    lead_rows = leading[leading >= 0]
    d[lead_rows] = 1.0
    bloch._guard(
        d[plan.bounds[1]:], group.lam, points[plan.bounds[1]:],
        "left factor vanished at non-group index {}; the group lacks this colliding point",
    )
    values, kept = bloch._evaluate(plan, qvals, d, group.lam)
    criterion = tuple(values[i].item() if i >= 0 else 0j for i in leading.tolist())
    # c(a, n) on the kept rows above the base, less the leading members
    kept[: plan.bounds[1]] = False
    kept[lead_rows] = False
    n = points[kept, k - 1].tolist()
    a = points[kept]
    a[:, k - 1] = 0
    coeffs = dict(zip(zip(map(tuple, a.tolist()), n), values[kept].tolist()))
    all_zero = all(abs(c) <= criterion_tol for c in criterion)
    return RootFunctionReport(
        group=group,
        plane=2,
        member=member,
        coefficients=coeffs,
        criterion_values=criterion,
        classification=(
            Classification.EIGENFUNCTION if all_zero else Classification.ASSOCIATED
        ),
        associated_bound=None if all_zero else 1,
        criterion_tol=criterion_tol,
    )


# -- one-dimensional explicit case -------------------------------------------
#
# Coefficients q are given in units of pi^2 ("reduced"): the physical
# coefficient of exp(i 2 pi m x) is q[m] * pi^2.  In these units the
# recursion below involves only rational operations, so Fraction inputs stay
# exact.


def oned_coefficient(n: int, q: Mapping[int, complex], p: int):
    """Coefficient c_p of the candidate eigenfunction with leading term -n.

    Satisfies 4 p (2n - p) c_p = q_p + sum_{j<p} q_j c_{p-j} in reduced
    units, for 1 <= p <= 2n-1 where the left factor is nonzero.  ``q`` maps
    positive harmonics to reduced coefficients; entries at nonpositive
    indices must be absent or zero.
    """
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    if not 1 <= p <= 2 * n - 1:
        raise ValueError(f"p must lie in 1..{2 * n - 1}, got {p}")
    _check_oned_support(q)
    c = _oned_coefficients(n, q, p)
    return c[p]


def _check_oned_support(q: Mapping[int, complex]) -> None:
    for m, value in q.items():
        if m <= 0 and value != 0:
            raise ValueError(
                f"one-dimensional potential must be supported on positive "
                f"harmonics; got q[{m}] = {value!r}"
            )


def _oned_coefficients(n: int, q: Mapping[int, complex], up_to: int) -> dict:
    c: dict[int, object] = {0: 1}
    for p in range(1, up_to + 1):
        total = q.get(p, 0)
        for j in range(1, p):
            qj = q.get(j, 0)
            if qj != 0 and c[p - j] != 0:
                total = total + qj * c[p - j]
        c[p] = total / (4 * p * (2 * n - p)) if total != 0 else total * 0
    return c


def oned_double_criterion(n: int, q: Mapping[int, complex]):
    """Reduced obstruction q_{2n} + sum_{p=1}^{2n-1} q_{2n-p} c_p.

    Zero exactly when the eigenvalue (2 pi n)^2 of the periodic problem has
    geometric multiplicity two; only harmonics q_1 .. q_{2n} participate.
    The physical criterion is this value times pi^2.
    """
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    _check_oned_support(q)
    c = _oned_coefficients(n, q, 2 * n - 1)
    total = q.get(2 * n, 0)
    for p in range(1, 2 * n):
        qv = q.get(2 * n - p, 0)
        if qv != 0 and c[p] != 0:
            total = total + qv * c[p]
    return total


class RootForm(enum.Enum):
    """Support pattern of a 1-D eigenfunction at the double eigenvalue."""

    MINUS = "minus"   # leading term exp(-i 2 pi n x), support from -n upward
    PLUS = "plus"     # leading term exp(+i 2 pi n x), support from +n upward
    ZERO = "zero"


def classify_eigenfunction_form(
    psi: Mapping[int, complex], n: int, tol: float = 1e-12
) -> RootForm:
    """Partition an eigenvector of the 1-D problem by its leading support term.

    ``psi`` maps Fourier indices to coefficients.  Nonzero mass below -n, or
    mass strictly between -n and n when the -n term vanishes, violates the
    admissible patterns and raises :class:`MalformedCoefficientsError`.
    """
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    nonzero = {m for m, v in psi.items() if abs(v) > tol}
    below = sorted(m for m in nonzero if m < -n)
    if below:
        raise MalformedCoefficientsError(
            f"support at index {below[0]} below -n={-n} is inadmissible"
        )
    if -n in nonzero:
        return RootForm.MINUS
    if n in nonzero:
        middle = sorted(m for m in nonzero if -n < m < n)
        if middle:
            raise MalformedCoefficientsError(
                f"support at index {middle[0]} between -n and n contradicts a "
                "leading +n term"
            )
        return RootForm.PLUS
    if nonzero:
        raise MalformedCoefficientsError(
            "coefficients vanish at both -n and +n but not identically"
        )
    return RootForm.ZERO
