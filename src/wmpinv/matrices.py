"""Dense matrices: one grid container, and matrices over rational functions.

``Grid`` holds a matrix as a tuple of row tuples and implements, once for
both computation paths, the structural operations of the
column-partitioning recursion: ``column``, ``leading_columns``,
``leading_block`` and ``principal_partition``, which returns the triple
(prev, border, corner).  ``RfMatrix`` (canonical rational-function
entries) and ``poly_greville.PolyMatrix`` (integer coefficient tuples)
subclass it.  Entry access ``a[r, c]`` is 0-based (Python convention); the
structural operations take 1-based indices i in 1..n, matching how stages
are counted.  ``WeightedProblem`` holds a grid with its two weights and
validates them once for both paths.

An ``RfMatrix`` product reduces each entry once per pair of operand
denominators: the entry's products a*b are grouped by (a.den, b.den),
each group's numerator products are added over a.den*b.den and reduced
once, and then the groups are added as rational functions.  Each matrix
operation (``*``, ``+``, ``-``, ``scale``) runs each gcd of two
nonconstant polynomials once: its entries share one memo dict
(``RatFun.plus``, ``RatFun.times``) that dies with the operation.

The two kernels of the rational path, a product's grouped sums and the
rank-one update ``minus_outer``, form numerators by Kronecker
substitution in the codec of ``scalars`` (``pack``, ``digits``): one k
per operation from an l1-norm bound on every numerator coefficient, each
operand numerator packed once (``scalars.Packs``), and each entry's
numerator formed as one integer and unpacked at most once.  Their gcd
and division work is that of ``RatFun``, so every entry is the same
canonical value; ``minus_outer`` hands each numerator to ``RatFun.over``
still packed, so that its hint's trial division runs on packed values
and only the quotient is unpacked (``scalars.packed_quotient``, with
``_long_divmod`` as the one fallback).

``rank`` and ``ff_inverse`` are the independent oracles: denominators are
cleared to a single scalar polynomial, and the one elimination,
``_ff_eliminate``, runs fraction-free (Bareiss) elimination on the
integer polynomial matrix, every division exact by construction.
``rank`` counts the pivots of its forward pass; ``ff_inverse`` runs it on
[P | I] and extends each step to the rows above, which is Gauss-Jordan
elimination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from operator import neg

from .errors import PoleError, SingularMatrixError
from .scalars import (
    ONE, ZERO, RatFun, ONE_POLY, ZERO_POLY, Packs, gcd_cofactors, poly_gcd,
)


def _expect(cls, obj):
    """``obj``, or TypeError when it is not a ``cls``."""
    if not isinstance(obj, cls):
        raise TypeError(f"{cls.__name__} expected, got {type(obj).__name__}")
    return obj


class Grid:
    """Immutable rows x cols matrix held as a tuple of row tuples, with the
    structural operations of the recursion; a subclass names its entry
    constants ``ZERO`` and ``ONE``.  The trusted ``_of`` builds all that
    is computed, shared ``identity`` and ``zeros`` included, from canonical
    entries; each subclass has one validating constructor for input."""

    __slots__ = ("rows", "cols", "grid")

    @classmethod
    def _of(cls, rows, cols, grid):
        m = object.__new__(cls)
        m.rows, m.cols, m.grid = rows, cols, grid
        return m

    @classmethod
    def identity(cls, n):
        z = cls.ZERO
        grid = tuple((z,) * r + (cls.ONE,) + (z,) * (n - 1 - r) for r in range(n))
        return cls._of(n, n, grid)

    @classmethod
    def zeros(cls, rows, cols):
        return cls._of(rows, cols, ((cls.ZERO,) * cols,) * rows)

    expect = classmethod(_expect)

    def __getitem__(self, key):
        r, c = key
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise IndexError(f"entry ({r}, {c}) out of range")
        return self.grid[r][c]

    def row(self, r):
        return self.grid[r]

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return (self.rows, self.cols, self.grid) == (other.rows, other.cols, other.grid)

    def __hash__(self):
        return hash((self.rows, self.cols, self.grid))

    @property
    def is_zero(self):
        return not any(map(any, self.grid))

    @property
    def is_square(self):
        return self.rows == self.cols

    def transpose(self):
        """Conjugate transpose; real coefficients make it plain transpose."""
        grid = tuple(zip(*self.grid)) or ((),) * self.cols
        return self._of(self.cols, self.rows, grid)

    @property
    def is_symmetric(self):
        return self.is_square and self.grid == tuple(zip(*self.grid))

    def column(self, i):
        """The i-th column (1-based) as a rows x 1 matrix."""
        if not 1 <= i <= self.cols:
            raise IndexError(f"column index {i} out of range 1..{self.cols}")
        return self._of(self.rows, 1, tuple((row[i - 1],) for row in self.grid))

    def leading_columns(self, i):
        """The submatrix of the first i columns (1-based)."""
        if not 1 <= i <= self.cols:
            raise IndexError(f"column count {i} out of range 1..{self.cols}")
        return self._of(self.rows, i, tuple(row[:i] for row in self.grid))

    def leading_block(self, i):
        """The leading principal i x i submatrix (1-based)."""
        if not self.is_square:
            raise ValueError("leading principal block of a non-square matrix")
        if not 1 <= i <= self.rows:
            raise IndexError(f"block size {i} out of range 1..{self.rows}")
        return self._of(i, i, tuple(row[:i] for row in self.grid[:i]))

    def principal_partition(self, i):
        """The leading i x i block (i is 1-based, 2 <= i <= size) split as
        (prev, border, corner): the (i-1) block, its coupling column and
        the corner entry."""
        if not self.is_square:
            raise ValueError("principal partition of a non-square matrix")
        if not 2 <= i <= self.rows:
            raise IndexError(f"partition index {i} out of range 2..{self.rows}")
        prev = self.leading_block(i - 1)
        border = self._of(i - 1, 1, tuple((row[i - 1],) for row in self.grid[:i - 1]))
        return prev, border, self.grid[i - 1][i - 1]


@dataclass(frozen=True)
class WeightedProblem:
    """A matrix with its two symmetric weights; identity weights of the
    matrix's own type by default.  ``a`` is an RfMatrix (rational path) or
    a PolyMatrix (coefficient path), and the weights are of the same type.

    ``m_is_identity`` and ``n_is_identity`` record once whether each weight
    equals the identity, an omitted weight or an explicit one alike; they
    are derived, not constructor parameters, and take no part in equality.
    Each path reads them to skip its products by I."""

    a: Grid
    m_weight: Grid = None
    n_weight: Grid = None
    m_is_identity: bool = field(init=False, repr=False, compare=False)
    n_is_identity: bool = field(init=False, repr=False, compare=False)

    expect = classmethod(_expect)

    def __post_init__(self):
        if not isinstance(self.a, Grid):
            raise TypeError(
                f"RfMatrix or PolyMatrix expected, got {type(self.a).__name__}"
            )
        if not (self.a.rows and self.a.cols):
            raise ValueError(f"matrix dimensions must be positive, got "
                             f"{self.a.rows}x{self.a.cols}")
        kind = type(self.a)
        weights = ("row", "m_weight", self.a.rows), ("column", "n_weight", self.a.cols)
        for name, attr, order in weights:
            w = getattr(self, attr)
            if w is None:
                object.__setattr__(self, attr, kind.identity(order))
            elif type(w) is not kind:
                raise TypeError(
                    f"{name} weight is a {type(w).__name__}, but the matrix is a "
                    f"{kind.__name__}"
                )
        for name, attr, order in weights:
            w = getattr(self, attr)
            if w.rows != order or not w.is_square:
                raise ValueError(
                    f"{name} weight must be square of order = {name} count"
                )
        for name, attr, _ in weights:
            if not getattr(self, attr).is_symmetric:
                raise ValueError(f"{name} weight must be symmetric")
        for _, attr, order in weights:
            is_identity = getattr(self, attr) == kind.identity(order)
            object.__setattr__(self, f"{attr[0]}_is_identity", is_identity)


def _want_entry(x):
    f = RatFun._want(x)
    if f is None:
        raise TypeError(f"matrix entry must be exact, got {type(x).__name__}")
    return f


def _l1(p):
    # the l1 norm of p's coefficients, so that |p*q|_1 <= |p|_1 * |q|_1
    return sum(map(abs, p.coeffs))


def _groups(row, col):
    """The products a*b of a row and a column of canonical entries, in
    lists grouped by the pair (a.den, b.den) of operand denominators."""
    groups = {}
    for a, b in zip(row, col):
        if a and b:
            groups.setdefault((a.den.coeffs, b.den.coeffs), []).append((a, b))
    return list(groups.values())


def _dot(groups, packs, memo):
    """Sum of the grouped products of ``_groups``.  A group of several
    products adds its numerator products as one packed integer over
    a.den*b.den, unpacks it and is reduced once; a lone product is
    cross-cancelled.  Then the groups are added.  ``memo`` keeps the
    product's gcds (``RatFun.plus``)."""
    acc = ZERO
    for pairs in groups:
        a, b = pairs[0]
        if len(pairs) == 1:
            term = a.times(b, memo)
        else:
            num = sum(packs[x.num.coeffs] * packs[y.num.coeffs] for x, y in pairs)
            term = RatFun(packs.poly(num), a.den * b.den)
        acc = acc.plus(term, memo)
    return acc


class RfMatrix(Grid):
    """Immutable dense matrix with canonical RatFun entries; input enters
    through ``from_rows``, which checks each entry, results through ``_of``."""

    __slots__ = ()
    ZERO, ONE = ZERO, ONE

    @classmethod
    def from_rows(cls, rows):
        # a shape with no rows but k columns is zeros(0, k)
        rows = [list(r) for r in rows]
        n = len(rows[0]) if rows else 0
        if any(len(r) != n for r in rows):
            raise ValueError("ragged rows")
        return cls._of(len(rows), n, tuple(tuple(map(_want_entry, r)) for r in rows))

    def __repr__(self):
        body = "; ".join(", ".join(str(x) for x in row) for row in self.grid)
        return f"RfMatrix({self.rows}x{self.cols}: {body})"

    def _map(self, f, *others):
        # f applied entrywise to self and the conforming ``others``
        grids = (self.grid, *(o.grid for o in others))
        grid = tuple(tuple(map(f, *rows)) for rows in zip(*grids))
        return RfMatrix._of(self.rows, self.cols, grid)

    def _entrywise(self, other, f, verb):
        if not isinstance(other, RfMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError(
                f"cannot {verb} {self.rows}x{self.cols} and {other.rows}x{other.cols}"
            )
        return self._map(f, other)

    def __add__(self, other):
        memo = {}
        return self._entrywise(other, lambda a, b: a.plus(b, memo), "add")

    def __sub__(self, other):
        memo = {}
        return self._entrywise(other, lambda a, b: a.plus(-b, memo), "subtract")

    def __neg__(self):
        return self._map(neg)

    def __mul__(self, other):
        if not isinstance(other, RfMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        cols = tuple(zip(*other.grid)) or ((),) * other.cols
        # every coefficient of a group's numerator is at most the sum of
        # |x.num|_1 * |y.num|_1 over its products
        groups = [[_groups(row, col) for col in cols] for row in self.grid]
        bound = max((sum(_l1(x.num) * _l1(y.num) for x, y in pairs)
                     for entry in chain.from_iterable(groups) for pairs in entry
                     if len(pairs) > 1), default=0)
        packs, memo = Packs(bound.bit_length() + 1), {}
        grid = tuple(tuple(_dot(entry, packs, memo) for entry in row) for row in groups)
        return RfMatrix._of(self.rows, other.cols, grid)

    def minus_outer(self, u, v):
        """self - u*v for a column u and a row v, without forming u*v: entry
        x - a*b is (x.num*abq - a.num*b.num*xq)/(x.den*abq), xq and abq being
        the cofactors of gcd(x.den, a.den*b.den), found once per triple of
        denominators, whose entries share one ``RatFun.over`` hint.

        Every numerator is formed as one integer, its value at s = 2**k, and
        unpacked at most once.  Each coefficient of x.num*abq - a.num*b.num*xq is at
        most |x.num|_1*|abq|_1 + |a.num|_1*|b.num|_1*|xq|_1 in the l1 norm of
        coefficients, and k is one more than the bit length of the largest
        such bound, so 2**(k-1) exceeds every coefficient and the balanced
        digits are the coefficients.  Each x.num, a.num and b.num, and each
        triple's xq and abq, is packed once per call.  The numerator goes
        to ``RatFun.over`` packed, with the call's ``Packs``: the triple's
        hint g is tried on packs[g.coeffs] at the same k, and the numerator
        is unpacked only where that finds no quotient."""
        u, v = RfMatrix.expect(u), RfMatrix.expect(v)
        if (u.rows, u.cols, v.rows, v.cols) != (self.rows, 1, 1, self.cols):
            raise ValueError(f"cannot subtract the product of {u.rows}x{u.cols} and "
                             f"{v.rows}x{v.cols} from {self.rows}x{self.cols}")
        col, row = [a for (a,) in u.grid], v.grid[0]
        cells, triples, bound = [], {}, 0
        for xs, a in zip(self.grid, col):
            cells.append([])
            for x, b in zip(xs, row):
                t = None
                if a and b:
                    key = x.den.coeffs, a.den.coeffs, b.den.coeffs
                    if key not in triples:
                        _, xq, abq = gcd_cofactors(x.den, a.den * b.den)
                        triples[key] = x.den * abq, xq, abq, []
                    _, xq, abq, _ = t = triples[key]
                    bound = max(bound, _l1(x.num) * _l1(abq)
                                + _l1(a.num) * _l1(b.num) * _l1(xq))
                cells[-1].append((x, a, b, t))
        packs = Packs(bound.bit_length() + 1)

        def entry(x, a, b, t):
            if t is None:
                return x
            den, xq, abq, hint = t
            num = (packs[x.num.coeffs] * packs[abq.coeffs]
                   - packs[a.num.coeffs] * packs[b.num.coeffs] * packs[xq.coeffs])
            return RatFun.over(num, den, hint, packs)

        grid = tuple(tuple(entry(*cell) for cell in line) for line in cells)
        return RfMatrix._of(self.rows, self.cols, grid)

    def scale(self, f):
        f, memo = _want_entry(f), {}
        return self._map(lambda a: f.times(a, memo))

    def eval_at(self, x):
        """Entrywise value at x as a tuple of tuples of Fractions.

        PoleError (with the 1-based entry position) when any denominator
        vanishes at x.
        """
        x = Fraction(x)
        out = []
        for r, row in enumerate(self.grid):
            line = []
            for c, f in enumerate(row):
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
        dens = {f.den.coeffs: f.den for row in self.grid for f in row}
        L = ONE_POLY
        for den in dens.values():
            if den.coeffs != (1,):
                g = poly_gcd(L, den)
                L = L.exact_div(g) * den if g.degree > 0 else L * den
        quotients = {key: L.exact_div(den) for key, den in dens.items()}
        grid = [[f.num * quotients[f.den.coeffs] for f in row] for row in self.grid]
        return grid, L

    def rank(self):
        """Rank over the rational-function field: the number of pivots of
        the forward fraction-free elimination (``_ff_eliminate``) of P,
        where self = P/L (``clear_denominators``)."""
        work, _ = self.clear_denominators()
        return sum(1 for _ in _ff_eliminate(work, self.cols))

    def ff_inverse(self):
        """Exact inverse by fraction-free Gauss-Jordan elimination of
        [P | I], where self = P/L (``clear_denominators``): each step of
        ``_ff_eliminate`` is run on the rows above its pivot as well.  The
        last pivot is det P, and the right half is det P times the inverse
        of P.  A singular matrix raises, naming the first column without a
        pivot."""
        if not self.is_square:
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        grid, L = self.clear_denominators()
        work = [
            grid[r] + [ONE_POLY if c == r else ZERO_POLY for c in range(n)]
            for r in range(n)
        ]
        pivots = []
        for k, col, prev in _ff_eliminate(work, n):
            _ff_step(work[:k], work[k], col, prev)
            pivots.append(col)
        if len(pivots) < n:
            k = next(k for k, c in enumerate(pivots + [n]) if c != k)
            raise SingularMatrixError(
                f"matrix is symbolically singular (column {k + 1})"
            )
        scale = RatFun(L, work[n - 1][n - 1])
        return RfMatrix.from_rows([scale * RatFun(p) for p in row[n:]] for row in work)


def _ff_eliminate(work, cols):
    """Fraction-free elimination (Bareiss, Math. Comp. 22, 1968), in place,
    on the rows ``work`` of integer polynomials, pivoting in the first
    ``cols`` columns only.  Each column's pivot is the first nonzero entry
    at or below the next pivot row, so intermediate values are
    deterministic; a column with none is skipped.  For each pivot it runs
    ``_ff_step`` on the rows below, then yields (k, col, prev): the pivot's
    row and column and the previous pivot (1 for the first).  A caller that
    runs the same step on the rows above before resuming gets Gauss-Jordan
    elimination with the same pivots, since no pivot search reads those
    rows.  Every entry stays a minor of the input, so each division by the
    previous pivot is an ``exact_div``."""
    k, prev = 0, ONE_POLY
    for col in range(cols):
        found = next((r for r in range(k, len(work)) if work[r][col]), None)
        if found is None:
            continue
        work[k], work[found] = work[found], work[k]
        _ff_step(work[k + 1:], work[k], col, prev)
        yield k, col, prev
        prev = work[k][col]
        k += 1


def _ff_step(rows, top, col, prev):
    """One Bareiss step on ``rows`` by the pivot row ``top``, whose pivot is
    in column ``col``: each row becomes (pivot*row - row[col]*top)/prev."""
    pivot = top[col]
    for row in rows:
        lead = row[col]
        for c in range(col, len(top)):
            row[c] = (pivot * row[c] - lead * top[c]).exact_div(prev)
