"""Column-partitioning pseudoinverse at the coefficient level.

Instead of rational-function entries, every quantity is carried as
polynomial coefficient sequences in the grid format of ``scalars`` (a
matrix polynomial is a grid of per-entry integer coefficient tuples), and
each stage's pseudoinverse is one matrix-polynomial numerator over one
scalar polynomial denominator.  Every formula of the rational path then
turns into a sum of Cauchy products of coefficient sequences, which the
Kronecker-substitution kernel ``scalars.conv`` evaluates in integer
arithmetic.
``PolyMatrix`` is a ``matrices.Grid`` of such tuples, so its column,
leading-block and principal-partition accessors (the triple (prev, border,
corner), corner a coefficient tuple) are those of ``RfMatrix``: the two
recursions share this indexing and no arithmetic.  ``PolyMatrix`` rejects
non-integral coefficients; a rational matrix enters through ``solve`` or
``invert`` as P/L, the integer matrix polynomial P over the scalar
polynomial L of ``RfMatrix.clear_denominators``.

The degree of every computed sequence is bounded a priori by the degrees
of its inputs; the kernel ``scalars.conv`` checks each capacity on the
operands' untrimmed length and on the length of its result, every entry
of which is canonical (trimmed, () for zero), or ``step_extend`` on that
of the packed result it reduces, so an index slip in any convolution
raises CapacityError, also under ``python -O``.  Every stage
leaves its numerator/denominator pair reduced (common polynomial factor
and integer content divided out) by ``fraction_simplify``, the one
reduction, which is what keeps the capacities from growing
multiplicatively.  It reduces the new bottom row over its own denominator
first, then the corrected previous block over the coupling denominator
alone; stacked, the two are already the canonical pair, so no gcd is
taken over the whole family (``step_extend``).  That block leaves the
kernel packed (``conv(..., unpack=False)``), so its reduction divides on
packed values and unpacks one entry for its first gcd step and otherwise
only quotients; ``scalars._long_divmod`` stays the one long division and
the only fallback.

Each stage is a pure function of the previous stage: the step formulas
take the previous frozen ``PolyPartitionState`` and the sequences built
earlier in the same stage as arguments and return new sequences, and the
driver builds one new frozen state per stage: i, rank, the
``MatrixPolyFraction`` records x and ninv, the input degrees q, m_deg and
n_deg, and stage, which is None at stage 1.  The column-weight inverse
starts from its order-1 block, as in ``bordering_inverse``, and grows by
one ``poly_bordering_step`` per stage of the same loop; a step with a zero
border, as every step of an identity or diagonal weight, takes one scalar
reduction of its corner over the previous denominator in place of a
``fraction_simplify`` over the whole enlarged block.

Identity weights, which ``WeightedProblem`` records once, are never
convolved with: with M = I the row weight is passed as None and the
weighted row is s^T, not s^T M; with N = I the dependent branch takes
proj^T in place of proj^T Nprev.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add

from .errors import DegenerateWeightError, SingularMatrixError
from .matrices import Grid, RfMatrix, WeightedProblem
from .scalars import (
    ONE_POLY, Packs, Poly, RatFun, check_capacity, coerce_coeff, conv, joint_reduce,
    seq_len, transpose, trim,
)

# ---------------------------------------------------------------------------
# matrix polynomials and matrix/scalar polynomial fractions


def _int_grid(grid, rows, cols):
    """grid as a rows x cols grid of trimmed int tuples; an entry that is
    not a coefficient list or tuple, or a non-integral or inexact
    coefficient, is rejected, naming its 1-based entry."""
    def coerce(r, c, x):
        try:
            return coerce_coeff(x)
        except ValueError:
            raise ValueError(f"entry ({r + 1}, {c + 1}) is not integral: {x}") from None
        except TypeError as exc:
            raise TypeError(f"entry ({r + 1}, {c + 1}): {exc}") from None

    def entry(r, c, seq):
        if not isinstance(seq, (tuple, list)):
            raise TypeError(
                f"entry ({r + 1}, {c + 1}) is not a coefficient sequence: {seq!r}"
            )
        return trim([coerce(r, c, x) for x in seq])

    out = tuple(
        tuple(entry(r, c, seq) for c, seq in enumerate(row))
        for r, row in enumerate(grid)
    )
    if len(out) != rows or any(len(row) != cols for row in out):
        raise ValueError(f"coefficient grid is not {rows}x{cols}")
    return out


class PolyMatrix(Grid):
    """Matrix polynomial as a grid of per-entry integer coefficient tuples.

    ``coeffs[r][c]`` (the ``Grid`` grid) is the coefficient tuple of entry
    (r, c), lowest degree first and without trailing zeros, as
    ``Poly.coeffs``; the zero matrix is a grid of empty tuples, so it keeps
    its shape.  Coefficients are ints; the validating constructor
    ``PolyMatrix(rows, cols, coeffs)`` rejects a non-integral one (an
    integral Fraction is taken as its int), and results come from ``_of``.
    """

    __slots__ = ()
    ZERO, ONE = (), (1,)

    def __init__(self, rows, cols, coeffs):
        self.rows, self.cols, self.grid = rows, cols, _int_grid(coeffs, rows, cols)

    coeffs = property(lambda self: self.grid, doc="The grid of coefficient tuples.")

    @classmethod
    def from_rf_matrix(cls, a):
        """Coefficient form of a matrix with polynomial entries.

        Entries with a nontrivial denominator are rejected, naming the
        1-based entry.
        """
        for r, row in enumerate(a.grid):
            for c, f in enumerate(row):
                if f.den != ONE_POLY:
                    raise ValueError(f"entry ({r + 1}, {c + 1}) is not a polynomial: {f}")
        coeffs = tuple(tuple(f.num.coeffs for f in row) for row in a.grid)
        return cls._of(a.rows, a.cols, coeffs)

    @property
    def degree(self):
        return seq_len(self.grid) - 1

    def to_rf_matrix(self, den=1):
        """Entrywise rational functions, each entry over ``den``."""
        grid = tuple(tuple(RatFun(Poly._raw(e), den) for e in row) for row in self.grid)
        return RfMatrix._of(self.rows, self.cols, grid)

    def __repr__(self):
        return f"PolyMatrix({self.rows}x{self.cols}, degree {self.degree})"


@dataclass(frozen=True)
class MatrixPolyFraction:
    """A rational matrix as one matrix-polynomial numerator ``num`` over one
    scalar polynomial denominator ``den`` (a coefficient tuple): a record,
    reduced only when ``fraction_simplify`` or ``step_extend`` built it."""

    num: PolyMatrix
    den: tuple

    def to_rf_matrix(self):
        return self.num.to_rf_matrix(Poly(self.den))


def fraction_simplify(num, den, packs=None):
    """The one reduction of a matrix-polynomial numerator over a scalar
    denominator, returned as a ``MatrixPolyFraction``.  The gcd of the
    denominator and every numerator entry is divided out, then the joint
    integer content, leaving a positive leading denominator coefficient.
    The value is unchanged; applying it twice changes nothing.  With
    ``packs`` (a ``Packs``), num's entries are their values at
    s = 2**packs.k, as ``conv(..., unpack=False)`` returns them, and
    ``joint_reduce`` divides on those values."""
    entries = [e for row in num.coeffs for e in row]
    if packs is None:
        entries = [Poly._raw(e) for e in entries]
    reduced, den = joint_reduce(entries, Poly(den), packs)
    it = iter(reduced)
    grid = tuple(tuple(next(it).coeffs for _ in row) for row in num.coeffs)
    return MatrixPolyFraction(PolyMatrix._of(num.rows, num.cols, grid), den.coeffs)


# ---------------------------------------------------------------------------
# stage state


@dataclass(frozen=True)
class PolyStage:
    """Sequences that turn stage i-1 into stage i.  ``row_num`` over
    ``row_den`` is the new bottom row, reduced, so ``row_den`` is the
    reduced row's denominator.  ``schur_den`` is set exactly when the
    residual is zero (the dependent-column branch), where the row's
    denominator before that reduction is the weighted Schur factor's
    numerator.  A zero ``coupling_num`` is over the previous denominator
    y, a nonzero one over y*ndd (``step_coupling``)."""

    proj: tuple             # coordinates of the new column (numerator)
    resid: tuple            # residual column (numerator)
    coupling_num: tuple     # weight-coupling column numerator
    coupling_den: tuple     # ... and its scalar denominator
    row_num: tuple          # new bottom row numerator, reduced
    row_den: tuple          # ... and its scalar denominator
    schur_den: tuple = None  # Schur factor denominator


@dataclass(frozen=True)
class PolyPartitionState:
    """Coefficient-path state after stage i.

    ``rank`` is the rank of the first i columns and ``x`` their
    pseudoinverse; ``ninv`` the
    inverse of the matching leading block of the column weight (None at
    the last stage); ``stage`` the ``PolyStage`` that produced it (None at
    stage 1).  ``q``, ``m_deg``, ``n_deg`` are the input degrees fixed for
    the whole run; the remaining capacities derive from the current
    (reduced) representations.
    """

    i: int
    rank: int
    x: MatrixPolyFraction
    ninv: MatrixPolyFraction | None
    q: int
    m_deg: int
    n_deg: int
    stage: PolyStage = None

    @property
    def q_prev(self):
        return self.x.num.degree

    @property
    def p_prev(self):
        return len(self.x.den) - 1

    @property
    def q_hat(self):
        return max(self.p_prev, self.q_prev + self.q)

    @property
    def nbar_deg(self):
        return self.ninv.num.degree

    @property
    def ndd_deg(self):
        return len(self.ninv.den) - 1


# ---------------------------------------------------------------------------
# stage formulas


def _weighted_row(s, col, m_weight, cap, labels, what, stage):
    """The row v = s^T M and the scalar w = v*col for a nonzero column s,
    ``col`` being s itself or the stage's new column, to which the residual
    s is M-orthogonal (Greville 1960); a zero w raises at ``stage``.  An
    ``m_weight`` of None stands for M = I, where v is s^T, not formed.

    v is checked against the row capacity ``cap`` and w against cap + deg col,
    under the two ``labels``.  No capacity grows: at stage 1 cap is
    deg col + m_deg, so w's is 2 deg col + m_deg; on the independent
    branch cap is q_hat + q + m_deg and deg col <= q, so w's is at most
    q_hat + 2q + m_deg.  Nor can w's check fail once v's has passed: v then
    has length at most cap + 1, and v*col has the untrimmed length
    len v + len col - 1 <= cap + deg col + 1.

    With M = I, v = s^T is not checked, and needs no check: s was checked
    already, under a capacity no larger than cap (the input column's degree
    at stage 1, ``residual``'s q_hat + q after that).  w is still formed
    and checked under its label.
    """
    v = transpose(s)
    if m_weight is not None:
        v = conv((1, v, m_weight.coeffs), cap=cap, label=labels[0])
    w = conv((1, v, col.coeffs), cap=cap + col.degree, label=labels[1])[0][0]
    if not w:
        raise DegenerateWeightError(
            f"weighted squared length of a nonzero {what} is identically zero",
            stage=stage,
        )
    return v, w


def _reduced_row(v, w):
    """The 1 x m row v over the scalar w, reduced by ``fraction_simplify``."""
    row = fraction_simplify(PolyMatrix._of(1, len(v[0]), v), w)
    return row.num.coeffs, row.den


def init_fraction(col, m_weight):
    """Numerator/denominator coefficients of the single-column pseudoinverse.

    The zero column yields (zero, 1).  The pair is returned unreduced; the
    driver reduces it.  A zero weighted squared length raises at stage 1.
    An ``m_weight`` of None stands for M = I.
    """
    if col.is_zero:
        return PolyMatrix.zeros(1, col.rows), (1,)
    labels = ("single-column numerator", "single-column denominator")
    cap = col.degree + (0 if m_weight is None else m_weight.degree)
    z, y = _weighted_row(col.coeffs, col, m_weight, cap, labels, "column", 1)
    return PolyMatrix._of(1, col.rows, z), y


def step_projection(state, col):
    """Numerator coefficients of the new column's coordinates in the old
    columns (shares the previous stage's denominator)."""
    cap = state.q_prev + state.q
    return conv((1, state.x.num.coeffs, col.coeffs), cap=cap, label="projection")


def step_residual(state, col, prefix, proj):
    """Numerator coefficients of the residual column (over the previous
    denominator); an empty result selects the dependent-column branch."""
    terms = (1, state.x.den, col.coeffs), (-1, prefix.coeffs, proj)
    return conv(*terms, cap=state.q_hat + state.q, label="residual")


def step_coupling(state, prefix, border):
    """The weight-coupling column (I - X*prefix)*N^-1*l, X = num/y and
    N^-1 = nbar/ndd, in rank-one form: y*t - num*(prefix*t) with t = nbar*l,
    over y*ndd; a zero column is over y, so ``coupling_den`` is y whenever
    ``coupling_num`` is zero.  When the first i-1 columns have full column
    rank, A*X*A = A gives X*prefix = I (Greville 1960), and a zero border l
    gives t = 0; in both cases the column is not formed."""
    phi = zero = (((),),) * state.i
    if state.rank < state.i and not border.is_zero:
        t = conv((1, state.ninv.num.coeffs, border.coeffs),
                 cap=state.nbar_deg + state.n_deg, label="weighted coupling column")
        at = conv((1, prefix.coeffs, t))
        cap = state.q_hat + state.nbar_deg + state.n_deg
        phi = conv((1, state.x.den, t), (-1, state.x.num.coeffs, at),
                   cap=cap, label="coupling numerator")
    if phi == zero:
        return phi, state.x.den
    return phi, conv((1, state.x.den, state.ninv.den),
                     cap=state.p_prev + state.ndd_deg, label="coupling denominator")


def step_bottom_row(state, col, proj, resid, coupling_num, m_weight, part):
    """Numerator/denominator coefficients of the stage's new bottom row,
    then the weighted Schur factor's denominator (None on the independent
    branch).  On both branches the row v over w is returned reduced by
    ``fraction_simplify``, so the two are coprime and their joint content
    is 1, as ``step_extend`` needs; on the dependent branch the unreduced
    w is the Schur factor's numerator.

    Independent branch: r = resid/y is M-orthogonal to the old columns, so
    r^T M r = a_i^T M r for the new column a_i = ``col`` (Greville 1960) and
    the row r^T M / (r^T M r) is resid^T M over (resid^T M)*a_i, free of y;
    an ``m_weight`` of None stands for M = I.
    Dependent branch: ``proj`` and the previous numerator ``num`` are over
    the previous denominator y, the coupling column phi over y*ndd, and
    ``part`` = (Nprev, l, c) holds the pieces of the order-i weight block,
    Nprev None when N = I, so that proj^T Nprev is proj^T.
    The Schur factor is (ndd*(c*y^2 + proj^T Nprev proj - 2*y*proj^T l) -
    y*l^T phi) over y^2*ndd, and in the row ((proj^T Nprev - y*l^T)/y)
    (num/y) / Schur factor the y^2 cancels: it is
    ndd*(proj^T Nprev - y*l^T)*num over the Schur numerator.  A zero phi
    leaves ndd in every term, so it is not formed: the Schur factor is
    core/y^2 and the row (proj^T Nprev - y*l^T)*num over core.  A zero
    border l adds no term in l: neither proj^T l nor y*l^T is formed.
    """
    i = state.i + 1
    if any(map(any, resid)):  # a nonzero entry: the independent branch
        labels = (
            "bottom row numerator (independent)", "bottom row denominator (independent)"
        )
        cap = state.q_hat + state.q + state.m_deg
        v, w = _weighted_row(resid, col, m_weight, cap, labels, "residual", i)
        return (*_reduced_row(v, w), None)

    # dependent branch: residual is identically zero
    y = state.x.den
    nprev, border, corner = part
    projT, borderT = transpose(proj), transpose(border.coeffs)
    coupled = any(map(any, coupling_num))  # every term over ndd, and l^T phi
    bordered = not border.is_zero  # the terms in l
    ndd, ndd_deg = state.ninv.den, state.ndd_deg
    den_cap, core_cap = 2 * state.p_prev, 2 * state.q_hat + state.n_deg
    yy = conv((1, y, y), cap=den_cap, label="Schur factor denominator")
    # 1x1 sequences: core = c*y^2 + proj^T Nprev proj - 2*y*proj^T l
    dn = projT if nprev is None else conv((1, projT, nprev.coeffs))
    terms = [(1, ((corner,),), yy), (1, dn, proj)]
    if bordered:
        terms.append((-2, conv((1, projT, border.coeffs)), y))
    core = conv(*terms, cap=core_cap, label="Schur factor numerator")
    if coupled:
        yy = conv((1, yy, ndd), cap=den_cap + ndd_deg, label="Schur factor denominator")
        core = conv((1, core, ndd), (-1, conv((1, borderT, coupling_num)), y),
                    cap=core_cap + max(state.n_deg + state.nbar_deg, ndd_deg),
                    label="Schur factor numerator")
    row_den = core[0][0]
    if not row_den:
        raise DegenerateWeightError(
            "weighted Schur factor is identically zero", stage=i
        )
    lhs = conv((1, dn, (1,)), (-1, y, borderT)) if bordered else dn
    v_cap = state.q_prev + state.q_hat + state.n_deg
    v = conv((1, lhs, state.x.num.coeffs), cap=v_cap,
             label="bottom row numerator (dependent)")
    if coupled:
        v = conv((1, ndd, v), cap=v_cap + ndd_deg, label="bottom row numerator (dependent)")
    return (*_reduced_row(v, row_den), yy)


def step_extend(state, proj, coupling_num, coupling_den, row_num, row_den):
    """The next stage's pseudoinverse as a reduced MatrixPolyFraction.

    With the reduced bottom row v/w (``step_bottom_row``) and the coupling
    denominator c, the corrected previous block is U = scale*num - shift*v
    over c*w.  The base case is a zero coupling column, over y: scale = w
    and shift = proj.  A nonzero one, phi over y*ndd, sets scale = ndd*w
    and shift = ndd*proj + phi.  U is reduced over c alone to U1/c1, so
    the upper block is U1 over c1*w, and the result is [U1; c1*v] over
    c1*w with no further reduction.  U leaves the kernel as packed values,
    and ``fraction_simplify`` divides on them, unpacking only what it
    needs.  Its capacity is checked on what that returns: the reduction
    divides the whole family by one polynomial times an integer, so
    U = U1*(c/c1) entrywise, and U's longest entry has length
    len U1 + deg c - deg c1, or 0 when U1 is zero.

    That pair is already canonical.  Both (U1, c1) and (v, w) are reduced,
    so an irreducible p of Z[s] (an integer prime included) that divides
    c1 misses some entry of U1, and one that divides w but not c1 misses
    some v_j and so c1*v_j.  No p divides c1*w and every numerator entry,
    and the leading coefficients of c1 and w are positive: the pair is the
    one ``fraction_simplify`` makes of the unreduced stacked pair, both
    being the canonical form of the same values.

    Each capacity is the sum of its operands' degrees; shift's is that of
    proj, q_prev + q, or max(ndd_deg + q_prev + q, q_hat + nbar_deg + n_deg)
    with phi.  The base case's are those of the uncoupled formula; coupled,
    q_prev, p_prev <= q_hat keep each within the full formula's
    q_hat + q + max(nbar_deg + n_deg, ndd_deg) + max(row_deg, b_den).
    """
    b_den, row_deg = len(row_den) - 1, seq_len(row_num) - 1
    scale, shift, ndd_deg, shift_deg = row_den, proj, 0, state.q_prev + state.q
    if any(map(any, coupling_num)):
        ndd, ndd_deg = state.ninv.den, state.ndd_deg
        scale = conv((1, ndd, row_den))
        shift = conv((1, ndd, proj), (1, coupling_num, (1,)))
        shift_deg = max(ndd_deg + shift_deg, state.q_hat + state.nbar_deg + state.n_deg)
    cols = state.x.num.cols

    cap = max(state.q_prev + ndd_deg + b_den, shift_deg + row_deg)
    label = "extended numerator (upper block)"
    upper, k = conv((1, scale, state.x.num.coeffs), (-1, shift, row_num),
                    cap=cap, label=label, unpack=False)
    upper = PolyMatrix._of(state.i, cols, upper)
    upper = fraction_simplify(upper, coupling_den, Packs(k))
    c1, c_deg = upper.den, len(upper.den) - 1
    n = seq_len(upper.num.coeffs)
    check_capacity(n and n + len(coupling_den) - len(c1), cap, label)

    lower = conv((1, c1, row_num),
                 cap=c_deg + row_deg, label="extended numerator (bottom row)")
    den = conv((1, c1, row_den), cap=c_deg + b_den, label="extended denominator")

    num = PolyMatrix._of(state.i + 1, cols, upper.num.coeffs + lower)
    return MatrixPolyFraction(num, den)


# ---------------------------------------------------------------------------
# bordering recursion for the column-weight inverse (coefficient form)


def poly_bordering_step(inv, border, corner, n_deg):
    """Grow the coefficient-form inverse ``inv`` (a MatrixPolyFraction) by
    one row and column.

    With inv = nbar/ndd, the border column l, f = nbar*l and the Schur
    numerator g = corner*ndd - l^T*f, the enlarged inverse is
    [[g*nbar + f*f^T, -ndd*f], [-ndd*f^T, ndd^2]] over ndd*g, reduced by
    ``fraction_simplify``.

    A zero border, as at every step of an identity or diagonal weight,
    makes ndd cancel: g = corner, and the inverse is [[g*nbar, 0], [0, ndd]]
    over ndd*g.  Since nbar/ndd is canonical, the only common factor of that
    family is D = gcd(ndd, g), integer content included: an irreducible p^a
    (p an integer prime or a polynomial) that divides ndd and every
    g*nbar_ij but not g would put p in ndd and in every nbar_ij, against
    canonicity.  So the scalar pair is reduced once, g/D and ndd/D by
    ``joint_reduce``, and the result [[(g/D)*nbar, 0], [0, ndd/D]] over
    (ndd/D)*g, negated when g's leading coefficient is negative, is
    canonical as it stands; g/D = 1 leaves nbar as it is.
    """
    i = inv.num.rows + 1
    nbar, ndd = inv.num.coeffs, inv.den
    nbar_deg, ndd_deg = inv.num.degree, len(ndd) - 1

    g, bordered = corner, any(map(any, border.coeffs))
    if bordered:
        f = conv((1, nbar, border.coeffs), cap=nbar_deg + n_deg, label="border numerator")
        p_seq = conv((1, corner, ndd), cap=n_deg + ndd_deg, label="corner scalar product")
        q_seq = conv((1, transpose(border.coeffs), f),
                     cap=2 * n_deg + nbar_deg, label="corner coupling form")[0][0]
        g = conv((1, p_seq, (1,)), (-1, q_seq, (1,)), label="corner denominator",
                 cap=max(n_deg + ndd_deg, 2 * n_deg + nbar_deg))
        f_deg = seq_len(f) - 1
        side = conv((-1, ndd, f), cap=ndd_deg + f_deg, label="block numerator (border)")
        last = conv((1, ndd, ndd), cap=2 * ndd_deg, label="block numerator (corner)")
    if not g:
        raise SingularMatrixError(
            "leading principal block is symbolically singular", stage=i
        )
    g_deg = len(g) - 1

    if not bordered:
        (gq,), nq = joint_reduce([Poly._raw(g)], Poly._raw(ndd))
        if g[-1] < 0:
            gq, nq = -gq, -nq
        core = nbar
        if gq != ONE_POLY:
            core = conv((1, gq.coeffs, nbar),
                        cap=g_deg + nbar_deg, label="block numerator (core)")
        den = conv((1, nq.coeffs, g), cap=ndd_deg + g_deg, label="block denominator")
        stacked = tuple(row + ((),) for row in core) + (((),) * (i - 1) + (nq.coeffs,),)
        return MatrixPolyFraction(PolyMatrix._of(i, i, stacked), den)

    core = conv((1, g, nbar), (1, f, transpose(f)),
                cap=max(g_deg + nbar_deg, 2 * f_deg), label="block numerator (core)")
    den = conv((1, ndd, g), cap=ndd_deg + g_deg, label="block denominator")
    stacked = tuple(map(add, core, side)) + (transpose(side)[0] + (last,),)
    return fraction_simplify(PolyMatrix._of(i, i, stacked), den)


def _order_one_inverse(mat):
    """Inverse of the order-1 leading block of ``mat`` as a
    MatrixPolyFraction; a zero corner raises at stage 1."""
    corner = mat.coeffs[0][0]
    if not corner:
        raise SingularMatrixError("leading 1x1 block is symbolically singular", stage=1)
    return fraction_simplify(PolyMatrix.identity(1), corner)


def bordering_inverse(mat):
    """Inverse of a symmetric matrix polynomial as a matrix-polynomial
    numerator over one scalar denominator."""
    if not PolyMatrix.expect(mat).is_square:
        raise ValueError("bordering inverse of a non-square matrix")
    if not mat.is_symmetric:
        raise ValueError("bordering inverse expects a symmetric matrix")
    inv = _order_one_inverse(mat)
    for i in range(2, mat.rows + 1):
        _, border, corner = mat.principal_partition(i)
        inv = poly_bordering_step(inv, border, corner, mat.degree)
    return inv


# ---------------------------------------------------------------------------
# driver


def partition_stages(problem):
    """Yield the coefficient-path state after every stage i = 1..n of a
    ``WeightedProblem`` over PolyMatrix.  An identity weight is not
    convolved with: M = I is passed on as None, and so is the previous
    block of N = I."""
    problem = WeightedProblem.expect(problem)
    a, m_weight, n_weight = problem.a, problem.m_weight, problem.n_weight
    PolyMatrix.expect(a)
    q, m_deg, n_deg = a.degree, m_weight.degree, n_weight.degree
    m_row = None if problem.m_is_identity else m_weight

    col = a.column(1)
    x = fraction_simplify(*init_fraction(col, m_row))
    ninv = _order_one_inverse(n_weight) if a.cols > 1 else None
    state = PolyPartitionState(1, int(not col.is_zero), x, ninv, q, m_deg, n_deg)
    yield state

    for i in range(2, a.cols + 1):
        part = n_weight.principal_partition(i)
        if problem.n_is_identity:
            part = (None, *part[1:])
        col = a.column(i)
        prefix = a.leading_columns(i - 1)
        proj = step_projection(state, col)
        resid = step_residual(state, col, prefix, proj)
        coupling_num, coupling_den = step_coupling(state, prefix, part[1])
        row_num, row_den, schur_den = step_bottom_row(
            state, col, proj, resid, coupling_num, m_row, part
        )
        x = step_extend(state, proj, coupling_num, coupling_den, row_num, row_den)
        ninv = (
            poly_bordering_step(state.ninv, part[1], part[2], n_deg)
            if i < a.cols else None
        )
        stage = PolyStage(
            proj, resid, coupling_num, coupling_den, row_num, row_den, schur_den
        )
        rank = state.rank + any(map(any, resid))
        state = PolyPartitionState(i, rank, x, ninv, q, m_deg, n_deg, stage)
        yield state


def weighted_pinv(a, m_weight=None, n_weight=None):
    """Weighted pseudoinverse in numerator-over-scalar-denominator form.

    Agrees entrywise (as rational functions) with the rational path; the
    weighted pseudoinverse is unique, so this is a complete cross-check of
    both implementations.
    """
    for state in partition_stages(WeightedProblem(a, m_weight, n_weight)):
        pass
    return state.x


# ---------------------------------------------------------------------------
# rational front doors: a rational matrix enters as P/L


def cleared(mat):
    """(P, L) with mat = P/L, by ``RfMatrix.clear_denominators``."""
    grid, den = RfMatrix.expect(mat).clear_denominators()
    coeffs = tuple(tuple(p.coeffs for p in row) for row in grid)
    return PolyMatrix._of(mat.rows, mat.cols, coeffs), den.coeffs


def _times(den, frac):
    """den * frac, for a scalar coefficient sequence den."""
    num = frac.num
    scaled = conv((1, den, num.coeffs))
    return fraction_simplify(PolyMatrix._of(num.rows, num.cols, scaled), frac.den)


def solve(problem):
    """Weighted pseudoinverse of a rational ``WeightedProblem``: with
    A = P/L it is L*P^+, and a weight enters as its cleared numerator (a
    nonzero scalar factor on a weight leaves the result unchanged)."""
    a, den = cleared(problem.a)
    m_weight, _ = cleared(problem.m_weight)
    n_weight, _ = cleared(problem.n_weight)
    return _times(den, weighted_pinv(a, m_weight, n_weight))


def invert(mat):
    """Inverse of a symmetric RfMatrix N = P/L as L*P^-1, with P^-1 from
    ``bordering_inverse``."""
    p, den = cleared(mat)
    return _times(den, bordering_inverse(p))
