"""Dense matrices over rational functions.

Entry access ``a[r, c]`` is 0-based (Python convention); the structural
operations that mirror the column-partitioning recursion — ``column``,
``leading_columns``, ``principal_partition`` — take 1-based indices i in
1..n, matching how stages are counted.

``ff_inverse`` is the independent inverse oracle: denominators are cleared
to a single scalar polynomial and the polynomial matrix is inverted by
fraction-free (Bareiss-style) Gauss-Jordan elimination, every division
exact by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import PoleError, SingularMatrixError
from .scalars import ONE, ZERO, Poly, RatFun, ONE_POLY, poly_gcd


def _want_entry(x):
    f = RatFun._want(x)
    if f is None:
        raise TypeError(f"matrix entry must be exact, got {type(x).__name__}")
    return f


class RfMatrix:
    """Immutable dense matrix with canonical RatFun entries."""

    __slots__ = ("rows", "cols", "_e")

    def __init__(self, rows, cols, entries):
        entries = tuple(_want_entry(x) for x in entries)
        if len(entries) != rows * cols:
            raise ValueError(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}"
            )
        self.rows = rows
        self.cols = cols
        self._e = entries

    @classmethod
    def from_rows(cls, rows):
        rows = [list(r) for r in rows]
        m = len(rows)
        n = len(rows[0]) if m else 0
        if any(len(r) != n for r in rows):
            raise ValueError("ragged rows")
        return cls(m, n, [x for r in rows for x in r])

    @classmethod
    def identity(cls, n):
        return cls(n, n, [ONE if i == j else ZERO for i in range(n) for j in range(n)])

    @classmethod
    def zeros(cls, rows, cols):
        return cls(rows, cols, [ZERO] * (rows * cols))

    @classmethod
    def block(cls, grid):
        """Assemble from a grid of conforming blocks."""
        out_rows = []
        for row_of_blocks in grid:
            height = row_of_blocks[0].rows
            if any(b.rows != height for b in row_of_blocks):
                raise ValueError("block heights differ within a block row")
            for r in range(height):
                line = []
                for b in row_of_blocks:
                    line.extend(b.row(r))
                out_rows.append(line)
        return cls.from_rows(out_rows)

    def __getitem__(self, key):
        r, c = key
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise IndexError(f"entry ({r}, {c}) out of range")
        return self._e[r * self.cols + c]

    def row(self, r):
        return self._e[r * self.cols : (r + 1) * self.cols]

    def __eq__(self, other):
        if not isinstance(other, RfMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self._e == other._e
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self._e))

    def __repr__(self):
        body = "; ".join(
            ", ".join(str(x) for x in self.row(r)) for r in range(self.rows)
        )
        return f"RfMatrix({self.rows}x{self.cols}: {body})"

    @property
    def is_zero(self):
        return all(x.is_zero for x in self._e)

    @property
    def is_square(self):
        return self.rows == self.cols

    def __add__(self, other):
        if not isinstance(other, RfMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError(
                f"cannot add {self.rows}x{self.cols} and {other.rows}x{other.cols}"
            )
        return RfMatrix(
            self.rows, self.cols, [a + b for a, b in zip(self._e, other._e)]
        )

    def __sub__(self, other):
        if not isinstance(other, RfMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError(
                f"cannot subtract {self.rows}x{self.cols} and {other.rows}x{other.cols}"
            )
        return RfMatrix(
            self.rows, self.cols, [a - b for a, b in zip(self._e, other._e)]
        )

    def __neg__(self):
        return RfMatrix(self.rows, self.cols, [-a for a in self._e])

    def __mul__(self, other):
        if isinstance(other, RfMatrix):
            if self.cols != other.rows:
                raise ValueError(
                    f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
                )
            e = self._e
            o = other._e
            n, k, p = self.rows, self.cols, other.cols
            out = []
            for i in range(n):
                base = i * k
                for j in range(p):
                    acc = ZERO
                    for t in range(k):
                        a = e[base + t]
                        if a.is_zero:
                            continue
                        b = o[t * p + j]
                        if b.is_zero:
                            continue
                        acc = acc + a * b
                    out.append(acc)
            return RfMatrix(n, p, out)
        f = RatFun._want(other)
        if f is None:
            return NotImplemented
        return self.scale(f)

    def __rmul__(self, other):
        f = RatFun._want(other)
        if f is None:
            return NotImplemented
        return self.scale(f)

    def scale(self, f):
        f = _want_entry(f)
        return RfMatrix(self.rows, self.cols, [f * a for a in self._e])

    def transpose(self):
        """Conjugate transpose; real coefficients make it plain transpose."""
        return RfMatrix(
            self.cols,
            self.rows,
            [self._e[r * self.cols + c] for c in range(self.cols) for r in range(self.rows)],
        )

    @property
    def is_symmetric(self):
        return self.is_square and self == self.transpose()

    def column(self, i):
        """The i-th column (1-based) as a rows x 1 matrix."""
        if not 1 <= i <= self.cols:
            raise IndexError(f"column index {i} out of range 1..{self.cols}")
        c = i - 1
        return RfMatrix(
            self.rows, 1, [self._e[r * self.cols + c] for r in range(self.rows)]
        )

    def leading_columns(self, i):
        """The submatrix of the first i columns (1-based)."""
        if not 1 <= i <= self.cols:
            raise IndexError(f"column count {i} out of range 1..{self.cols}")
        return RfMatrix(
            self.rows,
            i,
            [self._e[r * self.cols + c] for r in range(self.rows) for c in range(i)],
        )

    def leading_block(self, i):
        """The leading principal i x i submatrix (1-based)."""
        if not self.is_square:
            raise ValueError("leading principal block of a non-square matrix")
        if not 1 <= i <= self.rows:
            raise IndexError(f"block size {i} out of range 1..{self.rows}")
        return RfMatrix(
            i, i, [self._e[r * self.cols + c] for r in range(i) for c in range(i)]
        )

    def principal_partition(self, i):
        """Split the leading i x i block into the (i-1) block, its coupling
        column and the corner scalar (i is 1-based, 2 <= i <= size)."""
        if not self.is_square:
            raise ValueError("principal partition of a non-square matrix")
        if not 2 <= i <= self.rows:
            raise IndexError(f"partition index {i} out of range 2..{self.rows}")
        prev = self.leading_block(i - 1)
        col = RfMatrix(
            i - 1, 1, [self._e[r * self.cols + (i - 1)] for r in range(i - 1)]
        )
        return PrincipalPartition(prev, col, self[i - 1, i - 1])

    def eval_at(self, x):
        """Entrywise value at x as a tuple of tuples of Fractions.

        PoleError (with the 1-based entry position) when any denominator
        vanishes at x.
        """
        x = Fraction(x)
        out = []
        for r in range(self.rows):
            line = []
            for c in range(self.cols):
                f = self._e[r * self.cols + c]
                try:
                    line.append(f.eval(x))
                except PoleError:
                    raise PoleError(
                        f"pole at s = {x} in entry ({r + 1}, {c + 1})",
                        position=(r + 1, c + 1),
                    ) from None
            out.append(tuple(line))
        return tuple(out)

    def clear_denominators(self):
        """Common scalar denominator representation, in integers.

        Returns (P, L): L is the lcm of all entry denominators up to an
        integer factor and P the grid of polynomials P[r][c] = self[r][c]*L,
        so self = P / L entrywise.  P and L have int coefficients: every gcd
        divided out of L is primitive, so by Gauss's lemma every quotient of
        L by an entry denominator is too.  Each distinct denominator costs
        one gcd and one exact division, however many entries share it.
        """
        dens = {f.den.coeffs: f.den for f in self._e}
        L = ONE_POLY
        for den in dens.values():
            if den.coeffs != (1,):
                g = poly_gcd(L, den)
                L = L.exact_div(g) * den if g.degree > 0 else L * den
        quotients = {key: L.exact_div(den) for key, den in dens.items()}
        rows = (self.row(r) for r in range(self.rows))
        return [[f.num * quotients[f.den.coeffs] for f in row] for row in rows], L

    def rank(self):
        """Rank over the rational-function field, by elimination."""
        work = [list(self.row(r)) for r in range(self.rows)]
        rank = 0
        col = 0
        while rank < self.rows and col < self.cols:
            pivot = None
            for r in range(rank, self.rows):
                if not work[r][col].is_zero:
                    pivot = r
                    break
            if pivot is None:
                col += 1
                continue
            work[rank], work[pivot] = work[pivot], work[rank]
            inv = work[rank][col].reciprocal()
            for r in range(rank + 1, self.rows):
                f = work[r][col]
                if f.is_zero:
                    continue
                factor = f * inv
                for c in range(col, self.cols):
                    work[r][c] = work[r][c] - factor * work[rank][c]
            rank += 1
            col += 1
        return rank

    def ff_inverse(self):
        """Exact inverse by fraction-free elimination (see module docstring).

        The pivot for each column is the first nonzero entry scanning rows
        in order, so intermediate values are deterministic.
        """
        if not self.is_square:
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        grid, L = self.clear_denominators()
        # augmented [P | I] over polynomials; Jordan elimination keeps every
        # division exact (entries stay minors of P)
        work = [
            grid[r] + [ONE_POLY if c == r else Poly() for c in range(n)]
            for r in range(n)
        ]
        prev = ONE_POLY
        for k in range(n):
            pivot_row = None
            for r in range(k, n):
                if work[r][k]:
                    pivot_row = r
                    break
            if pivot_row is None:
                raise SingularMatrixError(
                    f"matrix is symbolically singular (column {k + 1})"
                )
            if pivot_row != k:
                work[k], work[pivot_row] = work[pivot_row], work[k]
            pivot = work[k][k]
            for r in range(n):
                if r == k:
                    continue
                lead = work[r][k]
                row = work[r]
                top = work[k]
                for c in range(2 * n):
                    row[c] = (pivot * row[c] - lead * top[c]).exact_div(prev)
            prev = pivot
        det = work[n - 1][n - 1]
        scale = RatFun(L, det)
        return RfMatrix(
            n, n, [scale * RatFun(work[r][n + c]) for r in range(n) for c in range(n)]
        )


@dataclass(frozen=True)
class PrincipalPartition:
    """The pieces of a leading principal block: previous block, coupling
    column, corner scalar."""

    n_prev: RfMatrix
    l: RfMatrix
    n_ii: RatFun


def constant_matrix(values):
    """RfMatrix with constant entries from a grid of ints/Fractions."""
    return RfMatrix.from_rows([[RatFun.const(v) for v in row] for row in values])
