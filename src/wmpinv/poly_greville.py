"""Column-partitioning pseudoinverse at the coefficient level.

Instead of rational-function entries, every quantity is carried as a
polynomial coefficient sequence: a matrix polynomial is a list of constant
matrices (index j holds the coefficient of s**j), and each stage's
pseudoinverse is one matrix-polynomial numerator over one scalar
polynomial denominator.  Every formula of the rational path then turns
into Cauchy products (convolutions) of coefficient sequences.

The degree of every computed sequence is bounded a priori by the degrees
of its inputs; those capacities are checked before trailing zeros are
trimmed, so an index slip in any convolution raises CapacityError, also
under ``python -O``.  After each stage the numerator/denominator pair is
reduced (common polynomial factor and integer content divided out), which
is what keeps the capacities from growing multiplicatively.

Each stage is a pure function of the previous stage: the step formulas
take the previous frozen ``PolyPartitionState`` and the sequences built
earlier in the same stage as arguments and return new sequences, and the
driver builds one new frozen state per stage.  The column-weight inverse
is grown by one bordering loop shared with ``bordering_inverse``.

Zero-length sequences represent zero throughout; when two sequences of
different lengths are combined the shorter is implicitly padded with
zeros.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    CapacityError,
    DegenerateWeightError,
    PoleError,
    SingularMatrixError,
)
from .greville import WeightedProblem
from .matrices import RfMatrix
from .scalars import ONE_POLY, Poly, RatFun, _coerce_coeff, joint_reduce

# ---------------------------------------------------------------------------
# constant matrices as tuples of tuples of exact numbers


def _mzero(rows, cols):
    return tuple((0,) * cols for _ in range(rows))


def _mis0(a):
    return all(not x for row in a for x in row)


def _madd(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _msub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _mneg(a):
    return tuple(tuple(-x for x in row) for row in a)


def _mscale(a, c):
    return tuple(tuple(c * x for x in row) for row in a)


def _mmul(a, b):
    cols = range(len(b[0]))
    return tuple(
        tuple(sum(ra[t] * b[t][c] for t in range(len(b))) for c in cols) for ra in a
    )


def _mT(a):
    return tuple(zip(*a)) if a else ()


# ---------------------------------------------------------------------------
# coefficient sequences (scalar: numbers; matrix: constant matrices)


def _strim(seq):
    n = len(seq)
    while n and not seq[n - 1]:
        n -= 1
    return tuple(seq[:n])


def _mtrim(seq):
    n = len(seq)
    while n and _mis0(seq[n - 1]):
        n -= 1
    return tuple(seq[:n])


def _sconv(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            if bj:
                out[i + j] += ai * bj
    return out


def _sadd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for j, c in enumerate(b):
        out[j] += c
    return out


def _ssub(a, b):
    out = list(a) + [0] * max(len(b) - len(a), 0)
    for j, c in enumerate(b):
        out[j] -= c
    return out


def _mmconv(a, b):
    """Cauchy product of two matrix coefficient sequences (matrix product
    per term)."""
    if not a or not b:
        return []
    out = [None] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            p = _mmul(ai, bj)
            out[i + j] = p if out[i + j] is None else _madd(out[i + j], p)
    return out


def _smconv(s, m):
    """Cauchy product of a scalar sequence with a matrix sequence."""
    if not s or not m:
        return []
    out = [None] * (len(s) + len(m) - 1)
    for i, si in enumerate(s):
        for j, mj in enumerate(m):
            p = _mscale(mj, si)
            out[i + j] = p if out[i + j] is None else _madd(out[i + j], p)
    return out


def _mseq_op(op, a, b, rows, cols):
    """Termwise ``op`` (_madd or _msub) of two rows x cols matrix sequences."""
    n = max(len(a), len(b))
    zero = _mzero(rows, cols)
    out = []
    for j in range(n):
        x = a[j] if j < len(a) else zero
        y = b[j] if j < len(b) else zero
        out.append(op(x, y))
    return out


def _mblock(grid, heights, widths):
    """Coefficient sequence of the block matrix whose (r, c) block is the
    heights[r] x widths[c] matrix sequence grid[r][c]; shorter sequences
    are padded with zero matrices."""
    out = []
    for j in range(max(len(seq) for row in grid for seq in row)):
        stacked = []
        for row, h in zip(grid, heights):
            parts = [
                seq[j] if j < len(seq) else _mzero(h, w) for seq, w in zip(row, widths)
            ]
            stacked.extend(sum(pieces, ()) for pieces in zip(*parts))
        out.append(tuple(stacked))
    return out


def _unwrap(seq):
    """Scalar sequence from a sequence of 1x1 matrices."""
    return [m[0][0] for m in seq]


def _check_cap(seq, cap, label):
    # pre-trim length must fit the formula's degree bound
    if seq and len(seq) > cap + 1:
        raise CapacityError(
            f"{label}: coefficient sequence of length {len(seq)} exceeds "
            f"its degree capacity {cap}",
            label,
        )


# ---------------------------------------------------------------------------
# matrix polynomials and matrix/scalar polynomial fractions


def _coerce_const(m, rows, cols):
    grid = tuple(tuple(_coerce_coeff(x) for x in row) for row in m)
    if len(grid) != rows or any(len(row) != cols for row in grid):
        raise ValueError(f"coefficient matrix is not {rows}x{cols}")
    return grid


class PolyMatrix:
    """Matrix polynomial as a sequence of constant coefficient matrices.

    ``coeffs[j]`` is the coefficient matrix of s**j; trailing all-zero
    coefficient matrices are trimmed, so the zero matrix has no
    coefficients at all.
    """

    __slots__ = ("rows", "cols", "coeffs")

    def __init__(self, rows, cols, coeffs=()):
        self.rows = rows
        self.cols = cols
        self.coeffs = _mtrim([_coerce_const(m, rows, cols) for m in coeffs])

    @classmethod
    def _from_polys(cls, rows, cols, polys):
        """From a rows x cols grid (a list of rows) of polynomials."""
        deg = max((p.degree for row in polys for p in row), default=-1)
        coeffs = [
            [[polys[r][c][j] for c in range(cols)] for r in range(rows)]
            for j in range(deg + 1)
        ]
        return cls(rows, cols, coeffs)

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
        return cls._from_polys(a.rows, a.cols, polys)

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
        return cls._from_polys(len(polys), cols, polys)

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
        return Poly([m[r][c] for m in self.coeffs])

    def column(self, i):
        if not 1 <= i <= self.cols:
            raise IndexError(f"column index {i} out of range 1..{self.cols}")
        c = i - 1
        return PolyMatrix(
            self.rows, 1, [tuple((row[c],) for row in m) for m in self.coeffs]
        )

    def leading_columns(self, i):
        if not 1 <= i <= self.cols:
            raise IndexError(f"column count {i} out of range 1..{self.cols}")
        return PolyMatrix(
            self.rows, i, [tuple(row[:i] for row in m) for m in self.coeffs]
        )

    def leading_block(self, i):
        return PolyMatrix(i, i, [tuple(row[:i] for row in m[:i]) for m in self.coeffs])

    def partition_coeffs(self, i):
        """Pieces of the leading i x i block: previous block, coupling
        column, corner scalar coefficient sequence (i is 1-based)."""
        if self.rows != self.cols:
            raise ValueError("principal partition of a non-square matrix")
        if not 2 <= i <= self.rows:
            raise IndexError(f"partition index {i} out of range 2..{self.rows}")
        prev = self.leading_block(i - 1)
        border = PolyMatrix(
            i - 1, 1, [tuple((m[r][i - 1],) for r in range(i - 1)) for m in self.coeffs]
        )
        corner = _strim([m[i - 1][i - 1] for m in self.coeffs])
        return prev, border, corner

    def transpose(self):
        return PolyMatrix(self.cols, self.rows, [_mT(m) for m in self.coeffs])

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
    then coefficients are cleared to integers with joint content 1 and a
    positive leading denominator coefficient.  The value is unchanged;
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
    return PolyMatrix._from_polys(num.rows, num.cols, polys), tuple(new_den.coeffs)


class MatrixPolyFraction:
    """A rational matrix as one matrix-polynomial numerator over one scalar
    polynomial denominator, in reduced canonical form."""

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        self.num, self.den = fraction_simplify(num, den)

    @classmethod
    def _reduced(cls, num, den):
        # trusted: (num, den) is already fraction_simplify's output
        f = object.__new__(cls)
        f.num, f.den = num, den
        return f

    @property
    def den_poly(self):
        return Poly(self.den)

    def to_rf_matrix(self):
        return self.num.to_rf_matrix(self.den_poly)

    def eval_at(self, x):
        x = Fraction(x)
        d = self.den_poly(x)
        if not d:
            raise PoleError(f"pole at s = {x} in the common denominator")
        return tuple(
            tuple(
                self.num.entry_poly(r, c)(x) / d for c in range(self.num.cols)
            )
            for r in range(self.num.rows)
        )

    def __eq__(self, other):
        if not isinstance(other, MatrixPolyFraction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __repr__(self):
        return f"MatrixPolyFraction({self.num!r} / {list(self.den)!r})"


# ---------------------------------------------------------------------------
# stage state


@dataclass(frozen=True)
class PolyPartitionState:
    """Coefficient-path state after a stage, with the stage-local sequences
    that produced it.

    ``num``/``den`` hold the pseudoinverse of the leading columns processed
    so far; ``ninv`` the inverse of the matching leading block of the
    column weight (None at the last stage).  ``q``, ``m_deg``, ``n_deg``
    are the input degrees fixed for the whole run; the remaining
    capacities derive from the current (reduced) representations.
    """

    i: int
    num: PolyMatrix
    den: tuple
    ninv: MatrixPolyFraction | None
    q: int
    m_deg: int
    n_deg: int
    proj: tuple = None          # coordinates of the new column (numerator)
    resid: tuple = None         # residual column (numerator)
    coupling_num: tuple = None  # weight-coupling column numerator
    coupling_den: tuple = None  # ... and its scalar denominator
    row_num: tuple = None       # new bottom row numerator
    row_den: tuple = None       # ... and its scalar denominator
    schur_num: tuple = None     # dependent-branch factor numerator
    schur_den: tuple = None     # ... denominator
    # the stage sequences above describe how THIS stage was produced from
    # the previous one (all None at stage 1; schur_* only on the dependent
    # branch)

    @property
    def q_prev(self):
        return self.num.degree

    @property
    def p_prev(self):
        return len(self.den) - 1

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
    driver reduces it.
    """
    if col.is_zero:
        return PolyMatrix(1, col.rows), (1,)
    q, m_deg = col.degree, m_weight.degree
    colT = [_mT(m) for m in col.coeffs]
    z = _mmconv(colT, m_weight.coeffs)
    _check_cap(z, q + m_deg, "single-column numerator")
    y = _unwrap(_mmconv(z, col.coeffs))
    _check_cap(y, 2 * q + m_deg, "single-column denominator")
    return PolyMatrix(1, col.rows, z), _strim(y)


def step_projection(state, col):
    """Numerator coefficients of the new column's coordinates in the old
    columns (shares the previous stage's denominator)."""
    out = _mmconv(state.num.coeffs, col.coeffs)
    _check_cap(out, state.q_prev + state.q, "projection")
    return _mtrim(out)


def step_residual(state, col, prefix, proj):
    """Numerator coefficients of the residual column (over the previous
    denominator); an empty result selects the dependent-column branch."""
    t1 = _smconv(state.den, col.coeffs)
    t2 = _mmconv(prefix.coeffs, proj)
    out = _mseq_op(_msub, t1, t2, col.rows, 1)
    _check_cap(out, state.q_hat + state.q, "residual")
    return _mtrim(out)


def step_coupling(state, prefix, border):
    """The weight-coupling column (I - X*prefix)*N^-1*l, X = num/y and
    N^-1 = nbar/ndd, in rank-one form: y*t - num*(prefix*t) with t = nbar*l,
    over its scalar denominator y*ndd."""
    t = _mmconv(state.ninv.num.coeffs, border.coeffs)
    _check_cap(t, state.nbar_deg + state.n_deg, "weighted coupling column")
    yt = _smconv(state.den, t)
    xat = _mmconv(state.num.coeffs, _mmconv(prefix.coeffs, t))
    phi = _mseq_op(_msub, yt, xat, state.i, 1)
    _check_cap(
        phi, state.q_hat + state.nbar_deg + state.n_deg, "coupling numerator"
    )
    psi = _sconv(state.den, state.ninv.den)
    _check_cap(psi, state.p_prev + state.ndd_deg, "coupling denominator")
    return _mtrim(phi), _strim(psi)


def step_bottom_row(state, col, proj, resid, coupling_num, m_weight, part):
    """Numerator/denominator coefficients of the stage's new bottom row,
    then those of the weighted Schur factor (None, None on the independent
    branch).

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
        residT = [_mT(m) for m in resid]
        v = _mmconv(residT, m_weight.coeffs)
        _check_cap(
            v,
            state.q_hat + state.q + state.m_deg,
            "bottom row numerator (independent)",
        )
        w = _unwrap(_mmconv(v, col.coeffs))
        _check_cap(
            w,
            state.q_hat + 2 * state.q + state.m_deg,
            "bottom row denominator (independent)",
        )
        w = _strim(w)
        if not w:
            raise DegenerateWeightError(
                "weighted squared length of a nonzero residual is identically zero",
                stage=i,
            )
        return _mtrim(v), w, None, None

    # dependent branch: residual is identically zero
    y, ndd = state.den, state.ninv.den
    nprev, border, corner = part
    projT = [_mT(m) for m in proj]
    borderT = [_mT(m) for m in border.coeffs]
    yy = _sconv(y, y)
    schur_den = _sconv(yy, ndd)
    _check_cap(
        schur_den, 2 * state.p_prev + state.ndd_deg, "Schur factor denominator"
    )

    dn = _mmconv(projT, nprev.coeffs)
    mixed = _unwrap(_mmconv(projT, border.coeffs))
    core = _sadd(_sconv(corner, yy), _unwrap(_mmconv(dn, proj)))
    core = _ssub(core, _sconv(_sadd(mixed, mixed), y))
    lphi = _unwrap(_mmconv(borderT, coupling_num))
    schur_num = _ssub(_sconv(core, ndd), _sconv(lphi, y))
    _check_cap(
        schur_num,
        2 * state.q_hat
        + state.n_deg
        + max(state.n_deg + state.nbar_deg, state.ndd_deg),
        "Schur factor numerator",
    )
    schur_num = _strim(schur_num)
    if not schur_num:
        raise DegenerateWeightError(
            "weighted Schur factor is identically zero", stage=i
        )

    lhs = _mseq_op(_msub, dn, _smconv(y, borderT), 1, i - 1)
    v = _smconv(ndd, _mmconv(lhs, state.num.coeffs))
    _check_cap(
        v,
        state.ndd_deg + state.q_prev + state.q_hat + state.n_deg,
        "bottom row numerator (dependent)",
    )
    return _mtrim(v), schur_num, schur_num, _strim(schur_den)


def step_extend(state, proj, coupling_num, coupling_den, row_num, row_den):
    """Assemble and reduce the next stage's numerator/denominator pair: the
    corrected previous block
    ndd*row_den*num - (ndd*proj + coupling_num)*row_num stacked on the new
    bottom row, all over the coupling denominator y*ndd times the row
    denominator."""
    i = state.i + 1
    m = state.num.cols
    ndd = state.ninv.den
    b_num = len(row_num) - 1
    b_den = len(row_den) - 1

    t1 = _smconv(_sconv(ndd, row_den), state.num.coeffs)
    proj_coupling = _mseq_op(_madd, _smconv(ndd, proj), coupling_num, i - 1, 1)
    upper = _mseq_op(_msub, t1, _mmconv(proj_coupling, row_num), i - 1, m)
    cap_upper = (
        state.q_hat
        + state.q
        + max(state.nbar_deg + state.n_deg, state.ndd_deg)
        + max(b_num, b_den)
    )
    _check_cap(upper, cap_upper, "extended numerator (upper block)")

    lower = _smconv(coupling_den, row_num)
    _check_cap(lower, cap_upper, "extended numerator (bottom row)")

    den = _sconv(coupling_den, row_den)
    _check_cap(den, state.p_prev + state.ndd_deg + b_den, "extended denominator")
    den = _strim(den)
    if not den:
        raise CapacityError(
            "extended denominator: identically zero", "extended denominator"
        )

    stacked = _mblock([[upper], [lower]], (i - 1, 1), (m,))
    return fraction_simplify(PolyMatrix(i, m, stacked), den)


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

    f = _mmconv(nbar, border.coeffs)
    _check_cap(f, nbar_deg + n_deg, "border numerator")
    f = _mtrim(f)
    p_seq = _sconv(corner, ndd)
    _check_cap(p_seq, n_deg + ndd_deg, "corner scalar product")
    q_seq = _unwrap(_mmconv([_mT(m) for m in border.coeffs], f))
    _check_cap(q_seq, 2 * n_deg + nbar_deg, "corner coupling form")
    g = _ssub(p_seq, q_seq)
    _check_cap(g, max(n_deg + ndd_deg, 2 * n_deg + nbar_deg), "corner denominator")
    g = _strim(g)
    if not g:
        raise SingularMatrixError(
            "leading principal block is symbolically singular", stage=i
        )
    g_deg, f_deg = len(g) - 1, len(f) - 1

    fT = [_mT(m) for m in f]
    core = _mseq_op(_madd, _smconv(g, nbar), _mmconv(f, fT), i - 1, i - 1)
    _check_cap(core, max(g_deg + nbar_deg, 2 * f_deg), "block numerator (core)")
    side = [_mneg(m) for m in _smconv(ndd, f)]
    _check_cap(side, ndd_deg + f_deg, "block numerator (border)")
    ndd2 = _sconv(ndd, ndd)
    _check_cap(ndd2, 2 * ndd_deg, "block numerator (corner)")
    den = _sconv(ndd, g)
    _check_cap(den, ndd_deg + g_deg, "block denominator")
    stacked = _mblock(
        [[core, side], [[_mT(m) for m in side], [((c,),) for c in ndd2]]],
        (i - 1, 1),
        (i - 1, 1),
    )
    return MatrixPolyFraction(PolyMatrix(i, i, stacked), _strim(den))


def _leading_inverses(mat, parts):
    """Yield the inverse of the order-1 leading block of ``mat``, then of
    each larger one, one bordering step per ``partition_coeffs`` triple in
    ``parts`` (orders 2, 3, ...), each as a MatrixPolyFraction."""
    corner = _strim([m[0][0] for m in mat.coeffs])
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

    z, y = init_fraction(a.column(1), m_weight)
    if not y:
        raise DegenerateWeightError(
            "weighted squared length of a nonzero column is identically zero",
            stage=1,
        )
    num, den = fraction_simplify(z, y)
    ninv = next(inverses) if a.cols > 1 else None
    state = PolyPartitionState(1, num, den, ninv, q, m_deg, n_deg)
    yield state

    for i, part in enumerate(parts, 2):
        col = a.column(i)
        prefix = a.leading_columns(i - 1)
        proj = step_projection(state, col)
        resid = step_residual(state, col, prefix, proj)
        coupling_num, coupling_den = step_coupling(state, prefix, part[1])
        row_num, row_den, schur_num, schur_den = step_bottom_row(
            state, col, proj, resid, coupling_num, m_weight, part
        )
        num, den = step_extend(
            state, proj, coupling_num, coupling_den, row_num, row_den
        )
        ninv = next(inverses) if i < a.cols else None
        state = PolyPartitionState(
            i, num, den, ninv, q, m_deg, n_deg,
            proj, resid, coupling_num, coupling_den,
            row_num, row_den, schur_num, schur_den,
        )
        yield state


def weighted_pinv(a, m_weight=None, n_weight=None):
    """Weighted pseudoinverse in numerator-over-scalar-denominator form.

    Agrees entrywise (as rational functions) with the rational path; the
    weighted pseudoinverse is unique, so this is a complete cross-check of
    both implementations.
    """
    for state in partition_stages(a, m_weight, n_weight):
        pass
    return MatrixPolyFraction._reduced(state.num, state.den)
