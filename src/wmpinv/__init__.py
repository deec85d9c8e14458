"""Exact weighted pseudoinverses of univariate rational and polynomial
matrices.

Two independent computation paths are provided: a rational-function path
(``greville``) that grows the pseudoinverse column by column, and a
coefficient path (``poly_greville``) that carries every quantity as
polynomial coefficient sequences over a single scalar denominator.  Both
are exact, neither imports the other, and each yields its stages from
``partition_stages(problem)``, ``problem`` a ``matrices.WeightedProblem``
over the path's matrix type.  ``scalars`` holds the scalar arithmetic and
the integer-sequence kernel; ``verify`` checks the four weighted Penrose
identities and the agreement of the paths.  The package exports each job
under one name; helpers such as ``scalars.poly_gcd`` stay in their modules.
"""

from .errors import (
    CapacityError,
    DegenerateWeightError,
    MatrixParseError,
    PoleError,
    SingularMatrixError,
)
from .greville import bordering_inverse, partition_stages, weighted_pinv
from .matrices import RfMatrix, WeightedProblem
from .matrixio import format_matrix, parse_entry, parse_matrix_file
from .poly_greville import MatrixPolyFraction, PolyMatrix
from .scalars import Poly, RatFun
from .verify import PenroseReport, cross_path_check, penrose_check

__all__ = [
    "CapacityError",
    "DegenerateWeightError",
    "MatrixParseError",
    "MatrixPolyFraction",
    "PenroseReport",
    "Poly",
    "PolyMatrix",
    "PoleError",
    "RatFun",
    "RfMatrix",
    "SingularMatrixError",
    "WeightedProblem",
    "bordering_inverse",
    "cross_path_check",
    "format_matrix",
    "parse_entry",
    "parse_matrix_file",
    "partition_stages",
    "penrose_check",
    "weighted_pinv",
]

__version__ = "0.1.0"
