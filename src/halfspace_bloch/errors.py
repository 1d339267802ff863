"""Exception types shared across the package.

Guard failures are split by what they mean for a caller: bad inputs
(config, degenerate basis), truncations that are provably too small, and
mathematical guards (vanishing denominators, broken triangularity) that the
half-space hypotheses exclude.
"""

from __future__ import annotations


class DegenerateBasisError(ValueError):
    """Generators fail the linear-independence conditioning check."""


class CutoffError(ValueError):
    """A truncation radius is too small for the requested computation."""


class BoxSizeError(ValueError):
    """A dense table over an integer box would hold more points than any
    admitted truncation needs."""


class ResonanceError(ArithmeticError):
    """A denominator required to be nonzero vanished (within guard tolerance).

    ``index`` is the lattice index at which the denominator vanished and
    ``value`` the offending denominator.
    """

    def __init__(self, message: str, index=None, value=None):
        super().__init__(message)
        self.index = index
        self.value = value


class TriangularityError(ValueError):
    """The truncated operator matrix is not strictly plane-triangular.

    Carries one witness entry (``row``, ``col`` are lattice indices).
    """

    def __init__(self, message: str, row=None, col=None):
        super().__init__(message)
        self.row = row
        self.col = col


class NoEigenvectorError(ValueError):
    """Back substitution blocked: no eigenvector with the requested leading term.

    ``position`` is the blocking row (position in the truncation order) and
    ``residual`` the nonzero accumulated right-hand side found there.
    """

    def __init__(self, message: str, position: int | None = None, residual=None):
        super().__init__(message)
        self.position = position
        self.residual = residual


class MalformedCoefficientsError(ValueError):
    """A coefficient vector violates the support pattern it must have."""


class ConfigError(ValueError):
    """Invalid configuration document; ``field`` names the offending entry."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field
