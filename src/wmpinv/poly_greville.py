"""Column-partitioning pseudoinverse at the coefficient level.

Instead of rational-function entries, every quantity is carried as a
polynomial coefficient sequence: a matrix polynomial is a list of constant
integer matrices (index j holds the coefficient of s**j), and each stage's
pseudoinverse is one matrix-polynomial numerator over one scalar
polynomial denominator.  Every formula of the rational path then turns
into a sum of Cauchy products of coefficient sequences, which one
Kronecker-substitution kernel (``_conv``) evaluates in integer arithmetic.
``PolyMatrix`` rejects non-integral coefficients; a rational matrix enters
through ``solve`` or ``invert`` as P/L, the integer matrix polynomial P
over the scalar polynomial L of ``RfMatrix.clear_denominators``.

The degree of every computed sequence is bounded a priori by the degrees
of its inputs; ``_fit`` checks each capacity on the untrimmed sequence and
only then trims trailing zeros, so an index slip in any convolution raises
CapacityError, also under ``python -O``.  After each stage the
numerator/denominator pair is reduced (common polynomial factor and integer
content divided out), which is what keeps the capacities from growing
multiplicatively.

Each stage is a pure function of the previous stage: the step formulas
take the previous frozen ``PolyPartitionState`` and the sequences built
earlier in the same stage as arguments and return new sequences, and the
driver builds one new frozen state (i, x, ninv, stage) per stage, stage
being None at stage 1.  The column-weight inverse is grown by one
bordering loop shared with ``bordering_inverse``.

Zero-length sequences represent zero throughout; when two sequences of
different lengths are combined the shorter is implicitly padded with
zeros.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .errors import CapacityError, DegenerateWeightError, SingularMatrixError
from .greville import WeightedProblem
from .matrices import RfMatrix
from .scalars import (
    ONE_POLY, Poly, RatFun, _coerce_coeff, _digits, _pack, _trim, joint_reduce
)

# ---------------------------------------------------------------------------
# coefficient sequences (scalar: ints; matrix: tuples of tuples of ints)


def _mT(a):
    return tuple(zip(*a)) if a else ()


def _mtrim(seq):
    n = len(seq)
    while n and not any(map(any, seq[n - 1])):
        n -= 1
    return tuple(seq[:n])


def _norm(seq):
    # largest coefficient magnitude of a nonempty sequence
    if isinstance(seq[0], int):
        return max(map(abs, seq))
    return max(max(map(abs, row)) for m in seq for row in m)


def _by_degree(grid):
    """Matrix coefficient sequence from a grid (a list of rows) of
    per-entry coefficient sequences of one common length."""
    return list(zip(*(zip(*row) for row in grid)))


def _poly_coeffs(polys):
    """Coefficient sequence of a grid (a list of rows) of polynomials."""
    deg = max((p.degree for row in polys for p in row), default=-1)
    padded = [[p.coeffs + (0,) * (deg - p.degree) for p in row] for row in polys]
    return _by_degree(padded)


def _packed(seq, k):
    """Each entry's sequence as its value at s = 2**k (``scalars._pack``)."""
    if isinstance(seq[0], int):
        return _pack(seq, k)
    return tuple(tuple(_pack(e, k) for e in zip(*rows)) for rows in zip(*seq))


def _pmul(x, y):
    # product of packed values: ints, an int scaling a matrix, or matrices
    if isinstance(x, int):
        return x * y if isinstance(y, int) else _pmul(y, x)
    if isinstance(y, int):
        return tuple(tuple(v * y for v in row) for row in x)
    return tuple(tuple(sum(map(mul, row, col)) for col in zip(*y)) for row in x)


def _conv(*terms):
    """Sum of c*a*b over the terms (c, a, b): c an int, a and b scalar or
    matrix coefficient sequences, each product a Cauchy product with a
    matrix product per term.

    Kronecker substitution: every entry's sequence is packed into its value
    at s = 2**k, the whole sum is evaluated in integer arithmetic, and the
    balanced base-2**k digits are unpacked once.  2**(k-2) exceeds the sum
    over the terms of |c| * max|a| * max|b| * min(len a, len b) * inner,
    which bounds every output coefficient, so the digits are the
    coefficients.  The result is untrimmed, of the length of the longest
    product, len a + len b - 1 (a term with an empty operand adds nothing).
    """
    terms = [t for t in terms if t[1] and t[2]]
    if not terms:
        return []
    bound = 0
    for c, a, b in terms:
        inner = len(b[0]) if isinstance(a[0], tuple) and isinstance(b[0], tuple) else 1
        bound += abs(c) * _norm(a) * _norm(b) * min(len(a), len(b)) * inner
    k = bound.bit_length() + 2
    n = max(len(a) + len(b) - 1 for _, a, b in terms)

    def unpack(v):
        digits = _digits(v, k)
        return digits + [0] * (n - len(digits))

    prods = [_pmul(_packed(a, k), _pmul(c, _packed(b, k))) for c, a, b in terms]
    if isinstance(prods[0], int):
        return unpack(sum(prods))
    return _by_degree([[unpack(sum(v)) for v in zip(*rows)] for rows in zip(*prods)])


def _mblock(grid, heights, widths):
    """Coefficient sequence of the block matrix whose (r, c) block is the
    heights[r] x widths[c] matrix sequence grid[r][c]; shorter sequences
    are padded with zero matrices."""
    out = []
    for j in range(max(len(seq) for row in grid for seq in row)):
        stacked = []
        for row, h in zip(grid, heights):
            parts = [
                seq[j] if j < len(seq) else ((0,) * w,) * h
                for seq, w in zip(row, widths)
            ]
            stacked.extend(sum(pieces, ()) for pieces in zip(*parts))
        out.append(tuple(stacked))
    return out


def _unwrap(seq):
    """Scalar sequence from a sequence of 1x1 matrices."""
    return [m[0][0] for m in seq]


def _fit(seq, cap, label):
    """seq without trailing zeros, as a tuple, once its untrimmed length has
    been checked against the formula's degree capacity ``cap``."""
    if seq and len(seq) > cap + 1:
        raise CapacityError(
            f"{label}: coefficient sequence of length {len(seq)} exceeds "
            f"its degree capacity {cap}",
            label,
        )
    return _trim(seq) if seq and isinstance(seq[0], int) else _mtrim(seq)


# ---------------------------------------------------------------------------
# matrix polynomials and matrix/scalar polynomial fractions


def _int_const(m, rows, cols):
    """m as a rows x cols tuple grid of ints; a non-integral coefficient is
    rejected, naming its 1-based entry."""
    def coerce(r, c, x):
        try:
            return _coerce_coeff(x)
        except ValueError:
            raise ValueError(f"entry ({r + 1}, {c + 1}) is not integral: {x}") from None

    grid = tuple(
        tuple(coerce(r, c, x) for c, x in enumerate(row)) for r, row in enumerate(m)
    )
    if len(grid) != rows or any(len(row) != cols for row in grid):
        raise ValueError(f"coefficient matrix is not {rows}x{cols}")
    return grid


class PolyMatrix:
    """Matrix polynomial as a sequence of constant integer coefficient matrices.

    ``coeffs[j]`` is the coefficient matrix of s**j; trailing all-zero
    coefficient matrices are trimmed, so the zero matrix has no
    coefficients at all.  Coefficients are ints; the constructors reject a
    non-integral one (an integral Fraction is taken as its int).
    """

    __slots__ = ("rows", "cols", "coeffs")

    def __init__(self, rows, cols, coeffs=()):
        self.rows = rows
        self.cols = cols
        self.coeffs = _mtrim([_int_const(m, rows, cols) for m in coeffs])

    @classmethod
    def _ints(cls, rows, cols, coeffs):
        # trusted: every coefficient matrix is a rows x cols tuple grid of ints
        p = object.__new__(cls)
        p.rows, p.cols, p.coeffs = rows, cols, _mtrim(coeffs)
        return p

    @classmethod
    def from_rf_matrix(cls, a):
        """Coefficient form of a matrix with polynomial entries.

        Entries with a nontrivial denominator are rejected, naming the
        1-based entry.
        """
        for r in range(a.rows):
            for c in range(a.cols):
                f = a[r, c]
                if f.den != ONE_POLY:
                    raise ValueError(
                        f"entry ({r + 1}, {c + 1}) is not a polynomial: {f}"
                    )
        polys = [[a[r, c].num for c in range(a.cols)] for r in range(a.rows)]
        return cls(a.rows, a.cols, _poly_coeffs(polys))

    @classmethod
    def from_entries(cls, grid):
        """From a grid of polynomials (or exact scalars)."""
        polys = []
        for row in grid:
            wanted = []
            for x in row:
                p = Poly._want(x)
                if p is None:
                    raise TypeError(f"polynomial entry expected, got {type(x).__name__}")
                wanted.append(p)
            polys.append(wanted)
        cols = len(polys[0]) if polys else 0
        return cls(len(polys), cols, _poly_coeffs(polys))

    @classmethod
    def identity(cls, n):
        return cls(n, n, [tuple(tuple(int(i == j) for j in range(n)) for i in range(n))])

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return not self.coeffs

    def entry_poly(self, r, c):
        return Poly._raw(_trim([m[r][c] for m in self.coeffs]))

    def column(self, i):
        if not 1 <= i <= self.cols:
            raise IndexError(f"column index {i} out of range 1..{self.cols}")
        c = i - 1
        return PolyMatrix._ints(
            self.rows, 1, [tuple((row[c],) for row in m) for m in self.coeffs]
        )

    def leading_columns(self, i):
        if not 1 <= i <= self.cols:
            raise IndexError(f"column count {i} out of range 1..{self.cols}")
        return PolyMatrix._ints(
            self.rows, i, [tuple(row[:i] for row in m) for m in self.coeffs]
        )

    def leading_block(self, i):
        block = [tuple(row[:i] for row in m[:i]) for m in self.coeffs]
        return PolyMatrix._ints(i, i, block)

    def partition_coeffs(self, i):
        """Pieces of the leading i x i block: previous block, coupling
        column, corner scalar coefficient sequence (i is 1-based)."""
        if self.rows != self.cols:
            raise ValueError("principal partition of a non-square matrix")
        if not 2 <= i <= self.rows:
            raise IndexError(f"partition index {i} out of range 2..{self.rows}")
        prev = self.leading_block(i - 1)
        border = PolyMatrix._ints(
            i - 1, 1, [tuple((m[r][i - 1],) for r in range(i - 1)) for m in self.coeffs]
        )
        corner = _trim([m[i - 1][i - 1] for m in self.coeffs])
        return prev, border, corner

    def transpose(self):
        return PolyMatrix._ints(self.cols, self.rows, [_mT(m) for m in self.coeffs])

    @property
    def is_symmetric(self):
        return self.rows == self.cols and all(m == _mT(m) for m in self.coeffs)

    def to_rf_matrix(self, den=1):
        """Entrywise rational functions, each entry over ``den``."""
        return RfMatrix(
            self.rows,
            self.cols,
            [
                RatFun(self.entry_poly(r, c), den)
                for r in range(self.rows)
                for c in range(self.cols)
            ],
        )

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.coeffs))

    def __repr__(self):
        return f"PolyMatrix({self.rows}x{self.cols}, degree {self.degree})"


def fraction_simplify(num, den):
    """Reduce a matrix-polynomial numerator over a scalar denominator.

    The gcd of the denominator and every numerator entry is divided out,
    then the joint integer content, leaving a positive leading denominator
    coefficient.  The value is unchanged;
    applying it twice changes nothing.  Returns (PolyMatrix, tuple).
    """
    den_poly = den if isinstance(den, Poly) else Poly(den)
    if den_poly.is_zero:
        raise ZeroDivisionError("zero scalar denominator")
    if num.is_zero:
        return PolyMatrix(num.rows, num.cols), (1,)
    entries = [
        num.entry_poly(r, c) for r in range(num.rows) for c in range(num.cols)
    ]
    reduced, new_den = joint_reduce(entries, den_poly)
    polys = [reduced[r * num.cols:(r + 1) * num.cols] for r in range(num.rows)]
    return PolyMatrix._ints(num.rows, num.cols, _poly_coeffs(polys)), new_den.coeffs


class MatrixPolyFraction:
    """A rational matrix as one matrix-polynomial numerator over one scalar
    polynomial denominator, in reduced canonical form."""

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        self.num, self.den = fraction_simplify(num, den)

    def to_rf_matrix(self):
        return self.num.to_rf_matrix(Poly(self.den))

    def __eq__(self, other):
        if not isinstance(other, MatrixPolyFraction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __repr__(self):
        return f"MatrixPolyFraction({self.num!r} / {list(self.den)!r})"


# ---------------------------------------------------------------------------
# stage state


@dataclass(frozen=True)
class PolyStage:
    """Sequences that turn stage i-1 into stage i; ``schur_den`` is set
    exactly when the residual is zero (the dependent-column branch), where
    ``row_den`` is the weighted Schur factor's numerator."""

    proj: tuple             # coordinates of the new column (numerator)
    resid: tuple            # residual column (numerator)
    coupling_num: tuple     # weight-coupling column numerator
    coupling_den: tuple     # ... and its scalar denominator
    row_num: tuple          # new bottom row numerator
    row_den: tuple          # ... and its scalar denominator
    schur_den: tuple = None  # Schur factor denominator


@dataclass(frozen=True)
class PolyPartitionState:
    """Coefficient-path state after stage i.

    ``x`` is the pseudoinverse of the first i columns; ``ninv`` the
    inverse of the matching leading block of the column weight (None at
    the last stage); ``stage`` the ``PolyStage`` that produced it (None at
    stage 1).  ``q``, ``m_deg``, ``n_deg`` are the input degrees fixed for
    the whole run; the remaining capacities derive from the current
    (reduced) representations.
    """

    i: int
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


def init_fraction(col, m_weight):
    """Numerator/denominator coefficients of the single-column pseudoinverse.

    The zero column yields (zero, 1).  The pair is returned unreduced; the
    driver reduces it.  A zero weighted squared length raises at stage 1.
    """
    if col.is_zero:
        return PolyMatrix(1, col.rows), (1,)
    q, m_deg = col.degree, m_weight.degree
    z = _conv((1, [_mT(m) for m in col.coeffs], m_weight.coeffs))
    z = _fit(z, q + m_deg, "single-column numerator")
    y = _unwrap(_conv((1, z, col.coeffs)))
    y = _fit(y, 2 * q + m_deg, "single-column denominator")
    if not y:
        raise DegenerateWeightError(
            "weighted squared length of a nonzero column is identically zero", stage=1
        )
    return PolyMatrix._ints(1, col.rows, z), y


def step_projection(state, col):
    """Numerator coefficients of the new column's coordinates in the old
    columns (shares the previous stage's denominator)."""
    out = _conv((1, state.x.num.coeffs, col.coeffs))
    return _fit(out, state.q_prev + state.q, "projection")


def step_residual(state, col, prefix, proj):
    """Numerator coefficients of the residual column (over the previous
    denominator); an empty result selects the dependent-column branch."""
    out = _conv((1, state.x.den, col.coeffs), (-1, prefix.coeffs, proj))
    return _fit(out, state.q_hat + state.q, "residual")


def step_coupling(state, prefix, border):
    """The weight-coupling column (I - X*prefix)*N^-1*l, X = num/y and
    N^-1 = nbar/ndd, in rank-one form: y*t - num*(prefix*t) with t = nbar*l,
    over its scalar denominator y*ndd."""
    t = _conv((1, state.ninv.num.coeffs, border.coeffs))
    t = _fit(t, state.nbar_deg + state.n_deg, "weighted coupling column")
    at = _conv((1, prefix.coeffs, t))
    phi = _conv((1, state.x.den, t), (-1, state.x.num.coeffs, at))
    phi = _fit(phi, state.q_hat + state.nbar_deg + state.n_deg, "coupling numerator")
    psi = _conv((1, state.x.den, state.ninv.den))
    return phi, _fit(psi, state.p_prev + state.ndd_deg, "coupling denominator")


def step_bottom_row(state, col, proj, resid, coupling_num, m_weight, part):
    """Numerator/denominator coefficients of the stage's new bottom row,
    then the weighted Schur factor's denominator (None on the independent
    branch); on the dependent branch the row denominator is the Schur
    factor's numerator.

    Independent branch: r = resid/y is M-orthogonal to the old columns, so
    r^T M r = a_i^T M r for the new column a_i = ``col`` (Greville 1960) and
    the row r^T M / (r^T M r) is resid^T M over (resid^T M)*a_i, free of y.
    Dependent branch: ``proj`` and the previous numerator ``num`` are over
    the previous denominator y, the coupling column phi over y*ndd, and
    ``part`` = (Nprev, l, c) holds the pieces of the order-i weight block.
    The Schur factor is (ndd*(c*y^2 + proj^T Nprev proj - 2*y*proj^T l) -
    y*l^T phi) over y^2*ndd, and in the row ((proj^T Nprev - y*l^T)/y)
    (num/y) / Schur factor the y^2 cancels: it is
    ndd*(proj^T Nprev - y*l^T)*num over the Schur numerator.
    """
    i = state.i + 1
    if resid:
        v = _fit(
            _conv((1, [_mT(m) for m in resid], m_weight.coeffs)),
            state.q_hat + state.q + state.m_deg,
            "bottom row numerator (independent)",
        )
        w = _fit(
            _unwrap(_conv((1, v, col.coeffs))),
            state.q_hat + 2 * state.q + state.m_deg,
            "bottom row denominator (independent)",
        )
        if not w:
            raise DegenerateWeightError(
                "weighted squared length of a nonzero residual is identically zero",
                stage=i,
            )
        return v, w, None

    # dependent branch: residual is identically zero
    y, ndd = state.x.den, state.ninv.den
    nprev, border, corner = part
    projT = [_mT(m) for m in proj]
    borderT = [_mT(m) for m in border.coeffs]
    yy = _conv((1, y, y))
    schur_den = _fit(
        _conv((1, yy, ndd)),
        2 * state.p_prev + state.ndd_deg,
        "Schur factor denominator",
    )

    # 1x1 sequences: core = c*y^2 + proj^T Nprev proj - 2*y*proj^T l, l^T phi
    dn = _conv((1, projT, nprev.coeffs))
    core = _conv(
        (1, [((c,),) for c in corner], yy),
        (1, dn, proj),
        (-2, _conv((1, projT, border.coeffs)), y),
    )
    lphi = _conv((1, borderT, coupling_num))
    row_den = _fit(
        _unwrap(_conv((1, core, ndd), (-1, lphi, y))),
        2 * state.q_hat
        + state.n_deg
        + max(state.n_deg + state.nbar_deg, state.ndd_deg),
        "Schur factor numerator",
    )
    if not row_den:
        raise DegenerateWeightError(
            "weighted Schur factor is identically zero", stage=i
        )

    lhs = _conv((1, dn, (1,)), (-1, y, borderT))
    v = _fit(
        _conv((1, ndd, _conv((1, lhs, state.x.num.coeffs)))),
        state.ndd_deg + state.q_prev + state.q_hat + state.n_deg,
        "bottom row numerator (dependent)",
    )
    return v, row_den, schur_den


def step_extend(state, proj, coupling_num, coupling_den, row_num, row_den):
    """The next stage's pseudoinverse as a reduced MatrixPolyFraction: the
    corrected previous block
    ndd*row_den*num - (ndd*proj + coupling_num)*row_num stacked on the new
    bottom row, all over the coupling denominator y*ndd times the row
    denominator."""
    i = state.i + 1
    m = state.x.num.cols
    ndd = state.ninv.den
    b_den = len(row_den) - 1

    proj_coupling = _conv((1, ndd, proj), (1, coupling_num, (1,)))
    upper = _conv(
        (1, _conv((1, ndd, row_den)), state.x.num.coeffs),
        (-1, proj_coupling, row_num),
    )
    cap_upper = (
        state.q_hat
        + state.q
        + max(state.nbar_deg + state.n_deg, state.ndd_deg)
        + max(len(row_num) - 1, b_den)
    )
    upper = _fit(upper, cap_upper, "extended numerator (upper block)")

    lower = _conv((1, coupling_den, row_num))
    lower = _fit(lower, cap_upper, "extended numerator (bottom row)")

    den = _conv((1, coupling_den, row_den))
    den = _fit(den, state.p_prev + state.ndd_deg + b_den, "extended denominator")
    if not den:
        raise CapacityError(
            "extended denominator: identically zero", "extended denominator"
        )

    stacked = _mblock([[upper], [lower]], (i - 1, 1), (m,))
    return MatrixPolyFraction(PolyMatrix._ints(i, m, stacked), den)


# ---------------------------------------------------------------------------
# bordering recursion for the column-weight inverse (coefficient form)


def poly_bordering_step(inv, border, corner, n_deg):
    """Grow the coefficient-form inverse ``inv`` (a MatrixPolyFraction) by
    one row and column.

    With inv = nbar/ndd, the border column l, f = nbar*l and the Schur
    numerator g = corner*ndd - l^T*f, the enlarged inverse is
    [[g*nbar + f*f^T, -ndd*f], [-ndd*f^T, ndd^2]] over ndd*g.
    """
    i = inv.num.rows + 1
    nbar, ndd = inv.num.coeffs, inv.den
    nbar_deg, ndd_deg = inv.num.degree, len(ndd) - 1

    f = _fit(_conv((1, nbar, border.coeffs)), nbar_deg + n_deg, "border numerator")
    p_seq = _fit(_conv((1, corner, ndd)), n_deg + ndd_deg, "corner scalar product")
    q_seq = _unwrap(_conv((1, [_mT(m) for m in border.coeffs], f)))
    q_seq = _fit(q_seq, 2 * n_deg + nbar_deg, "corner coupling form")
    g = _conv((1, p_seq, (1,)), (-1, q_seq, (1,)))
    g = _fit(g, max(n_deg + ndd_deg, 2 * n_deg + nbar_deg), "corner denominator")
    if not g:
        raise SingularMatrixError(
            "leading principal block is symbolically singular", stage=i
        )
    g_deg, f_deg = len(g) - 1, len(f) - 1

    core = _conv((1, g, nbar), (1, f, [_mT(m) for m in f]))
    core = _fit(core, max(g_deg + nbar_deg, 2 * f_deg), "block numerator (core)")
    side = _fit(_conv((-1, ndd, f)), ndd_deg + f_deg, "block numerator (border)")
    ndd2 = _fit(_conv((1, ndd, ndd)), 2 * ndd_deg, "block numerator (corner)")
    den = _fit(_conv((1, ndd, g)), ndd_deg + g_deg, "block denominator")
    stacked = _mblock(
        [[core, side], [[_mT(m) for m in side], [((c,),) for c in ndd2]]],
        (i - 1, 1),
        (i - 1, 1),
    )
    return MatrixPolyFraction(PolyMatrix._ints(i, i, stacked), den)


def _leading_inverses(mat, parts):
    """Yield the inverse of the order-1 leading block of ``mat``, then of
    each larger one, one bordering step per ``partition_coeffs`` triple in
    ``parts`` (orders 2, 3, ...), each as a MatrixPolyFraction."""
    corner = _trim([m[0][0] for m in mat.coeffs])
    if not corner:
        raise SingularMatrixError(
            "leading 1x1 block is symbolically singular", stage=1
        )
    inv = MatrixPolyFraction(PolyMatrix(1, 1, [((1,),)]), corner)
    yield inv
    for _, border, corner in parts:
        inv = poly_bordering_step(inv, border, corner, mat.degree)
        yield inv


def bordering_inverse(mat):
    """Inverse of a symmetric matrix polynomial as a matrix-polynomial
    numerator over one scalar denominator."""
    if mat.rows != mat.cols:
        raise ValueError("bordering inverse of a non-square matrix")
    if not mat.is_symmetric:
        raise ValueError("bordering inverse expects a symmetric matrix")
    parts = (mat.partition_coeffs(i) for i in range(2, mat.rows + 1))
    for inv in _leading_inverses(mat, parts):
        pass
    return inv


# ---------------------------------------------------------------------------
# driver


def partition_stages(a, m_weight=None, n_weight=None):
    """Yield the coefficient-path state after every stage i = 1..n."""
    problem = WeightedProblem(a, m_weight, n_weight)
    m_weight, n_weight = problem.m_weight, problem.n_weight
    q, m_deg, n_deg = a.degree, m_weight.degree, n_weight.degree
    # the inverse of the order-i weight block is drawn at stage i < n only
    parts = [n_weight.partition_coeffs(i) for i in range(2, a.cols + 1)]
    inverses = _leading_inverses(n_weight, parts)

    x = MatrixPolyFraction(*init_fraction(a.column(1), m_weight))
    ninv = next(inverses) if a.cols > 1 else None
    state = PolyPartitionState(1, x, ninv, q, m_deg, n_deg)
    yield state

    for i, part in enumerate(parts, 2):
        col = a.column(i)
        prefix = a.leading_columns(i - 1)
        proj = step_projection(state, col)
        resid = step_residual(state, col, prefix, proj)
        coupling_num, coupling_den = step_coupling(state, prefix, part[1])
        row_num, row_den, schur_den = step_bottom_row(
            state, col, proj, resid, coupling_num, m_weight, part
        )
        x = step_extend(state, proj, coupling_num, coupling_den, row_num, row_den)
        ninv = next(inverses) if i < a.cols else None
        stage = PolyStage(
            proj, resid, coupling_num, coupling_den, row_num, row_den, schur_den
        )
        state = PolyPartitionState(i, x, ninv, q, m_deg, n_deg, stage)
        yield state


def weighted_pinv(a, m_weight=None, n_weight=None):
    """Weighted pseudoinverse in numerator-over-scalar-denominator form.

    Agrees entrywise (as rational functions) with the rational path; the
    weighted pseudoinverse is unique, so this is a complete cross-check of
    both implementations.
    """
    for state in partition_stages(a, m_weight, n_weight):
        pass
    return state.x


# ---------------------------------------------------------------------------
# rational front doors: a rational matrix enters as P/L


def _cleared(mat):
    """(P, L) with mat = P/L, by ``RfMatrix.clear_denominators``."""
    grid, den = mat.clear_denominators()
    return PolyMatrix._ints(mat.rows, mat.cols, _poly_coeffs(grid)), den.coeffs


def _times(den, frac):
    """den * frac, for a scalar coefficient sequence den."""
    num = frac.num
    scaled = _conv((1, den, num.coeffs))
    return MatrixPolyFraction(PolyMatrix._ints(num.rows, num.cols, scaled), frac.den)


def solve(problem):
    """Weighted pseudoinverse of a rational ``WeightedProblem``: with
    A = P/L it is L*P^+, and a weight enters as its cleared numerator (a
    nonzero scalar factor on a weight leaves the result unchanged)."""
    a, den = _cleared(problem.a)
    m_weight, _ = _cleared(problem.m_weight)
    n_weight, _ = _cleared(problem.n_weight)
    return _times(den, weighted_pinv(a, m_weight, n_weight))


def invert(mat):
    """Inverse of a symmetric RfMatrix N = P/L as L*P^-1, with P^-1 from
    ``bordering_inverse``."""
    p, den = _cleared(mat)
    return _times(den, bordering_inverse(p))
