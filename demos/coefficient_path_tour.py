"""Tour of the coefficient path.

A polynomial matrix is carried as a grid of per-entry coefficient
tuples, and each stage's pseudoinverse is a matrix-polynomial numerator
over one scalar polynomial denominator.  The result must agree entry for
entry with the rational-function path, because the weighted pseudoinverse
is unique.
"""

from wmpinv import (
    PolyMatrix,
    WeightedProblem,
    cross_path_check,
    weighted_pinv,
)
from wmpinv.matrixio import format_matrix, parse_matrix_file
from wmpinv.poly_greville import partition_stages, weighted_pinv as coeff_pinv
from wmpinv.scalars import Poly

a_rf = parse_matrix_file(
    """matrix 3 3
    1+s; -2+s^4; s
    s; -1+s; s
    s; s; 1+s"""
)
w_rf = parse_matrix_file(
    """matrix 3 3
    1+s; s; s
    s; -1+s; s
    s; s; 1+s"""
)

a = PolyMatrix.from_rf_matrix(a_rf)
w = PolyMatrix.from_rf_matrix(w_rf)
print("input degree:", a.degree, " weight degree:", w.degree)

# watch the representation grow and then shrink under per-stage reduction
for state in partition_stages(WeightedProblem(a, w, w)):
    print(
        f"stage {state.i}: numerator degree {state.x.num.degree:2d}, "
        f"denominator degree {len(state.x.den) - 1:2d}"
    )

frac = coeff_pinv(a, w, w)
print()
print("common denominator:", Poly(frac.den))
print("entry (1,1) numerator:", Poly(frac.num[0, 0]))
print()
print("as a matrix of canonical rational functions:")
print(format_matrix(frac.to_rf_matrix()))

# the uniqueness cross-check: both paths, one answer
print("paths agree:", cross_path_check(a_rf, w_rf, w_rf))
assert frac.to_rf_matrix() == weighted_pinv(WeightedProblem(a_rf, w_rf, w_rf))
