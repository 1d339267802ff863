"""Bloch spectra and Bloch functions of periodic Schrodinger operators
whose potentials have half-space Fourier support.

The package is organized around small immutable value types (lattice basis,
sparse potential, degeneracy group, coefficient sets) and pure functions;
everything downstream of a constructed object is safe to use concurrently.
"""

from .lattice import IndexVector, LatticeBasis, decompose, identity_basis, in_halfspace
from .potential import FourierPotential, classify, convolve, evaluate
from .spectrum import EigenGroup, Plane, degeneracy_group, eigenvalue, eigenvalues
from .bloch import (
    BlochCoefficients,
    bloch_series,
    closed_form_coeffs,
    evaluate_function,
    max_discrepancy,
    residual,
)
from .galerkin import (
    TruncatedOperator,
    build,
    eigenvector_backsolve,
    first_associated_backsolve,
    geometric_multiplicity,
    interior_cone,
    is_plane_triangular,
    jordan_chain_excess,
    matrix_csv,
    truncated_spectrum,
)
from .rootfn import (
    Classification,
    RootForm,
    RootFunctionReport,
    classify_eigenfunction_form,
    oned_coefficient,
    oned_double_criterion,
    second_plane_solve,
)
from .isoenergetic import SurfaceSample, distance_to_surface, sample_surface
from .errors import (
    BoxSizeError,
    ConfigError,
    CutoffError,
    DegenerateBasisError,
    MalformedCoefficientsError,
    NoEigenvectorError,
    ResonanceError,
    TriangularityError,
)

__version__ = "0.1.0"
