"""Weighted pseudoinverse of a rational matrix by column partitioning.

The pseudoinverse of the leading i-column submatrix is grown one column at
a time.  Appending column i either enlarges the column space (nonzero
residual branch) or not (dependent-column branch, where a weighted
Schur-type factor replaces the quadratic form).  The inverse of the
leading principal block of the column weight is carried along by the
classical bordering recursion, never recomputed from scratch.

Each stage is a pure function of the previous stage, of column i and of
the order-i block of the column weight, split by ``principal_partition``
into the triple (prev, border, corner): the stage formulas take what they
read as arguments and return what they compute, and every stage yields a
new frozen ``PartitionState`` (i, rank, x, ninv, stage) that later stages
never touch, ``stage`` being None at stage 1.  The column-weight inverse
starts from its order-1 block, as in ``bordering_inverse``, and grows by
one ``bordering_step`` per stage of the same loop.

Identity weights, which ``WeightedProblem`` records once, are never
multiplied by: with M = I the row weight is passed as None and the
weighted row is v^T, not v^T M; with N = I every border l is zero and the
dependent branch's row is proj^T, not proj^T Nprev - l^T.

All quantities are exact rational functions; "zero" always means
identically zero.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DegenerateWeightError, SingularMatrixError
# WeightedProblem is re-exported; its last caller is bench/worker.py
from .matrices import RfMatrix, WeightedProblem
from .scalars import RatFun


@dataclass(frozen=True)
class Stage:
    """The quantities that turn stage i-1 into stage i; ``schur`` is set
    exactly when the residual is zero (the dependent-column branch)."""

    proj: RfMatrix         # coordinates of the new column in the old ones
    resid: RfMatrix        # part of the new column outside the old span
    row: RfMatrix          # new bottom row of the pseudoinverse
    schur: RatFun = None   # weighted Schur factor


@dataclass(frozen=True)
class PartitionState:
    """State after stage i: the rank of the first i columns, their
    pseudoinverse, the inverse of the order-i leading block of the column
    weight (None at the last stage), and the ``Stage`` that produced it
    (None at stage 1)."""

    i: int
    rank: int
    x: RfMatrix
    ninv: RfMatrix = None
    stage: Stage = None


def _weighted_form_row(v, col, m_weight, what, stage):
    """v^T M / (v^T M v) for a nonzero column v, whose weighted squared
    length must be a nonzero rational function.  v^T M v is formed as
    (v^T M)*col: ``col`` is v itself, or the stage's new column, whose
    residual v is M-orthogonal to the earlier columns (Greville 1960).
    An ``m_weight`` of None stands for M = I, where v^T M is v^T."""
    form = v.transpose() if m_weight is None else v.transpose() * m_weight
    sq = (form * col)[0, 0]
    if sq.is_zero:
        raise DegenerateWeightError(
            f"weighted squared length of a nonzero {what} is identically zero",
            stage=stage,
        )
    return form.scale(sq.reciprocal())


def column_pinv_init(col, m_weight):
    """Weighted pseudoinverse of a single column (1 x rows).

    The zero column has pseudoinverse zero; otherwise the weighted squared
    length col^T M col must be a nonzero rational function.  An
    ``m_weight`` of None stands for M = I.
    """
    if col.is_zero:
        return col.transpose()
    return _weighted_form_row(col, col, m_weight, "column", 1)


def project_column(x, col, prefix):
    """Coordinates of a new column in the preceding columns ``prefix``
    (under their pseudoinverse ``x``) and the residual."""
    proj = x * col
    return proj, col - prefix * proj


def weighted_schur_factor(lhs, proj, part, coupling, i):
    """Schur-type scalar inverted on the dependent-column branch.

    Combines the corner c and border l of the order-i weight block
    ``part`` with the projection coordinates, the row lhs = proj^T Nprev -
    l^T and the weight-coupling column (None when it is zero):
    c + lhs*proj - proj^T l - l^T coupling, where a zero border l adds no
    proj^T l term.  It must be a nonzero rational function for the
    recursion to continue.
    """
    _, border, corner = part
    value = corner + (lhs * proj)[0, 0]
    if not border.is_zero:
        value -= (proj.transpose() * border)[0, 0]
    if coupling is not None:
        value -= (border.transpose() * coupling)[0, 0]
    if value.is_zero:
        raise DegenerateWeightError(
            "weighted Schur factor is identically zero", stage=i
        )
    return value


def bottom_row(x, col, resid, lhs, schur, m_weight, i):
    """New bottom row of the pseudoinverse for stage i (1 x rows), ``col``
    being the stage's new column; on the dependent branch it is
    (lhs*x)/schur with the row lhs of ``weighted_schur_factor``.  An
    ``m_weight`` of None stands for M = I."""
    if not resid.is_zero:
        return _weighted_form_row(resid, col, m_weight, "residual", i)
    return (lhs * x).scale(schur.reciprocal())


def extend_pinv(x, proj, coupling, row):
    """Stack x - (proj + coupling)*row, one grouped rank-one update
    (``RfMatrix.minus_outer``), on the new bottom row, by ``_of``; a zero
    coupling column is passed as None and not added."""
    upper = x.minus_outer(proj if coupling is None else proj + coupling, row)
    return RfMatrix._of(upper.rows + 1, upper.cols, upper.grid + row.grid)


def bordering_step(prev_inv, part):
    """Grow a leading-block inverse by one row and column.

    Given the inverse of the previous block and the partition pieces,
    returns the inverse of the enlarged block; a singular one raises with
    its order as the stage.  t = prev_inv*l serves the Schur scalar, the
    border -t/schur and the core prev_inv - border*t^T (``minus_outer``);
    [[core, border], [border^T, 1/schur]] is joined row by row by ``_of``.
    The base case is a zero border l, where t = 0: the Schur scalar is the
    corner, the border zero and the core prev_inv, and none is formed.
    """
    _, border, corner = part
    t, schur, inv_border, core = None, corner, border, prev_inv
    if not border.is_zero:
        t = prev_inv * border
        schur = corner - (border.transpose() * t)[0, 0]
    if schur.is_zero:
        raise SingularMatrixError(
            "leading principal block is symbolically singular", stage=prev_inv.rows + 1
        )
    inv_corner = schur.reciprocal()
    if t is not None:
        inv_border = t.scale(-inv_corner)
        core = prev_inv.minus_outer(inv_border, t.transpose())
    last = inv_border.transpose().grid[0] + (inv_corner,)
    grid = tuple(r + b for r, b in zip(core.grid, inv_border.grid)) + (last,)
    return RfMatrix._of(core.rows + 1, core.cols + 1, grid)


def _order_one_inverse(mat):
    """Inverse of the order-1 leading block of ``mat``; a zero corner
    raises at stage 1."""
    if mat[0, 0].is_zero:
        raise SingularMatrixError("leading 1x1 block is symbolically singular", stage=1)
    return RfMatrix._of(1, 1, ((mat[0, 0].reciprocal(),),))


def bordering_inverse(mat):
    """Inverse of a symmetric matrix whose leading principal blocks are all
    symbolically nonsingular, computed by the bordering recursion."""
    if not RfMatrix.expect(mat).is_square:
        raise ValueError("bordering inverse of a non-square matrix")
    if not mat.is_symmetric:
        raise ValueError("bordering inverse expects a symmetric matrix")
    inv = _order_one_inverse(mat)
    for i in range(2, mat.rows + 1):
        inv = bordering_step(inv, mat.principal_partition(i))
    return inv


def partition_stages(problem):
    """Yield the PartitionState after every stage i = 1..n.

    The final state's ``x`` is the weighted pseudoinverse of the full
    matrix.  The coupling column (I - X*prefix)*N^-1*l is t - X*(prefix*t)
    with t = N^-1*l.  It is zero when the first i-1 columns have full
    column rank, since A*X*A = A then gives X*prefix = I (Greville 1960),
    and is formed only where the rank falls short and the border l is
    nonzero (t = 0 when l = 0).  N^-1 still grows at every stage i < n,
    by one ``bordering_step`` after that stage's extend, so a singular
    weight block raises at its own stage.  An identity weight is not
    multiplied by: M = I is passed on as None, and with N = I, whose
    borders are zero, the dependent branch's row is lhs = proj^T.  Errors
    carry the failing stage index.
    """
    problem = WeightedProblem.expect(problem)
    a, n_w = RfMatrix.expect(problem.a), problem.n_weight
    m_w = None if problem.m_is_identity else problem.m_weight
    col = a.column(1)
    x = column_pinv_init(col, m_w)
    ninv = _order_one_inverse(n_w) if a.cols > 1 else None
    state = PartitionState(1, int(not col.is_zero), x, ninv)
    yield state
    for i in range(2, a.cols + 1):
        part = n_w.principal_partition(i)
        prefix = a.leading_columns(i - 1)
        col = a.column(i)
        proj, resid = project_column(state.x, col, prefix)
        coupling = lhs = schur = None
        if state.rank < state.i and not part[1].is_zero:
            t = state.ninv * part[1]
            coupling = t - state.x * (prefix * t)
        if resid.is_zero:
            lhs = proj.transpose()
            if not problem.n_is_identity:
                lhs = lhs * part[0] - part[1].transpose()
            schur = weighted_schur_factor(lhs, proj, part, coupling, i)
        row = bottom_row(state.x, col, resid, lhs, schur, m_w, i)
        x = extend_pinv(state.x, proj, coupling, row)
        ninv = bordering_step(state.ninv, part) if i < a.cols else None
        rank = state.rank + (not resid.is_zero)
        state = PartitionState(i, rank, x, ninv, Stage(proj, resid, row, schur))
        yield state


def weighted_pinv(problem):
    """Weighted pseudoinverse of problem.a (cols x rows).

    The result satisfies the four weighted Penrose identities exactly over
    the rational-function field.
    """
    for state in partition_stages(problem):
        pass
    return state.x
