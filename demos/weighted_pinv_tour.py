"""Tour of the rational-function path.

A 3x3 rank-2 matrix is inverted under two symmetric weights, one stage at
a time, and every stage is checked against the four weighted Penrose
identities for its subproblem.
"""

from wmpinv import WeightedProblem, penrose_check, weighted_pinv
from wmpinv.greville import partition_stages
from wmpinv.matrixio import format_matrix, parse_matrix_file

a = parse_matrix_file(
    """matrix 3 3
    s+1; s+2; s
    s; s; s+1
    s+1; s+2; s"""
)
m_weight = parse_matrix_file(
    """matrix 3 3
    s+1; s; s+1
    s; s+2; s
    s+1; s; s+3"""
)
n_weight = parse_matrix_file(
    """matrix 3 3
    s+1; s+1; s+1
    s+1; s+2; s
    s+1; s; s+3"""
)

# rows 1 and 3 are equal, so the third column must take the
# dependent-column branch of the recursion
print("input rank over the function field:", a.rank())

problem = WeightedProblem(a, m_weight, n_weight)
for state in partition_stages(problem):
    branch = "-"
    if state.stage is not None:
        branch = "dependent" if state.stage.resid.is_zero else "independent"
    sub = penrose_check(
        a.leading_columns(state.i),
        m_weight,
        n_weight.leading_block(state.i),
        state.x,
    )
    print(f"stage {state.i}: branch={branch:12s} subproblem Penrose: {sub.all_hold}")

x = state.x
print()
print("weighted pseudoinverse:")
print(format_matrix(x))

report = penrose_check(a, m_weight, n_weight, x)
print("A X A = A                 :", report.eq1_holds)
print("X A X = X                 :", report.eq2_holds)
print("(M A X)^T = M A X         :", report.eq3m_holds)
print("(N X A)^T = N X A         :", report.eq4n_holds)

# with identity weights the same recursion yields the ordinary
# Moore-Penrose inverse
plain = weighted_pinv(WeightedProblem(a))
print("unweighted pseudoinverse entry (1,1):", plain[0, 0])
