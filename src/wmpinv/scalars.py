"""Exact scalar arithmetic: univariate integer polynomials and canonical
rational functions.

A polynomial is a tuple of int coefficients; ``coeffs[j]`` holds the
coefficient of s**j.  The zero polynomial is the empty tuple, otherwise the
last coefficient is nonzero.  Rational constants enter only through
`RatFun.const`, and evaluation returns `fractions.Fraction` values.

A rational function is a reduced pair of polynomials in a canonical form
chosen so that equality is structural: the pair has integer coefficients,
the joint content of numerator and denominator is 1, gcd(num, den) = 1 as
polynomials, and the denominator's leading coefficient is positive.  Zero
is 0/1.  Canonical form makes golden-fixture comparisons bit-exact.  Each
gcd's division work is done once: ``gcd_cofactors(p, q)``, the one
function that runs a gcd algorithm, returns (g, p/g, q/g), reusing the
quotients of GCDHEU's divisibility proof.  The field operations cancel
with those cofactors instead of dividing by g again; so does
``joint_reduce`` (also the coefficient path's stage reduction), which
tries each numerator after its first gcd step by one trial division by
the running gcd and takes a gcd step only where that fails.
``RatFun.plus`` and ``RatFun.times`` also take a memo, one dict per matrix
operation, so a pair of nonconstant operands met again in that operation
reuses its gcd; nothing is cached across operations.  ``RatFun.over``
reduces numerators over one shared denominator (a grouped rank-one update):
the first nonconstant gcd found is a hint, tried on each later numerator by
one trial division and never assumed to be the whole gcd.  ``_long_divmod``
is the one long division.  A reduction after a packed kernel divides on
the packed values instead (``packed_quotient``, through the ``Packs`` of
the kernel's k): ``RatFun.over`` and ``joint_reduce`` take the numerators
packed, unpack only a quotient that a bound proves exact, send a proven
non-divisor to its gcd step, and fall back to ``_long_divmod`` only where
the packed values do not decide or k is past the cost rule.

The module also owns the integer-sequence format that the coefficient path
and the Penrose checker compute in.  A scalar sequence is a tuple of ints,
lowest degree first as in ``Poly.coeffs``; a matrix polynomial is a grid
(a tuple of rows) of such per-entry tuples.  Zero-length sequences
represent zero, so a zero matrix is a grid of empty entries and keeps its
shape; when two sequences of different lengths are combined the shorter
is implicitly padded with zeros.  ``pack`` and ``digits`` convert a
sequence to and from its value at s = 2**k, splitting in halves above
``_LEAF`` terms or digits: the one codec of GCDHEU, of the kernel
``conv``, of the Penrose checker, which shares ``packed`` and ``pmul``
with it, and of the rational path's matrix kernels (``matrices``), which
pack their operands once per operation in a ``Packs`` and never call
``conv``; scalar ``Poly`` products stay schoolbook.  Every entry ``conv``
returns is canonical, as in ``Poly.coeffs`` (trimmed, () for zero), so
canonical entries are equal exactly when their values are; a degree
capacity, when given, is checked (``check_capacity``) on the operands'
untrimmed length and on the result's, a packed result's by its caller.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd as _int_gcd
from operator import mul

from .errors import CapacityError, PoleError


def trim(coeffs):
    n = len(coeffs)
    while n and not coeffs[n - 1]:
        n -= 1
    return tuple(coeffs[:n])


def coerce_coeff(c):
    """c as a plain int: an int (a bool too), or a Fraction with denominator
    1.  Any other Fraction is a ValueError, any other type a TypeError."""
    if isinstance(c, int):
        return int(c)
    if isinstance(c, Fraction):
        if c.denominator == 1:
            return c.numerator
        raise ValueError(f"coefficient is not integral: {c}")
    raise TypeError(f"exact coefficient expected, got {type(c).__name__}")


class Poly:
    """Dense univariate polynomial with int coefficients.

    Construction normalizes: coefficients are coerced to int (a non-integral
    one is rejected) and trailing zeros are dropped, so an all-zero input
    yields the zero polynomial (empty coefficient tuple).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        self.coeffs = trim([coerce_coeff(c) for c in coeffs])

    @classmethod
    def _raw(cls, coeffs):
        # trusted: already coerced and trimmed
        p = object.__new__(cls)
        p.coeffs = coeffs
        return p

    @classmethod
    def const(cls, c):
        c = coerce_coeff(c)
        return cls._raw((c,)) if c else ZERO_POLY

    @property
    def degree(self):
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __iter__(self):
        return iter(self.coeffs)

    def __getitem__(self, j):
        """Coefficient of s**j, 0 for j beyond the degree."""
        if isinstance(j, slice):
            raise TypeError("polynomials do not support slicing")
        return self.coeffs[j] if 0 <= j < len(self.coeffs) else 0

    def __eq__(self, other):
        q = Poly._want(other)
        if q is None:
            return NotImplemented
        return self.coeffs == q.coeffs

    def __hash__(self):
        # equal values hash equal: a constant hashes as the int it equals
        return hash(self[0]) if self.degree < 1 else hash(self.coeffs)

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"

    def __str__(self):
        return format_poly(self)

    @staticmethod
    def _want(other):
        if isinstance(other, Poly):
            return other
        try:
            return Poly.const(other)
        except (TypeError, ValueError):
            return None

    def __add__(self, other):
        q = Poly._want(other)
        if q is None:
            return NotImplemented
        a, b = self.coeffs, q.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for j, c in enumerate(b):
            out[j] += c
        return Poly._raw(trim(out))

    __radd__ = __add__

    def __neg__(self):
        return Poly._raw(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        q = Poly._want(other)
        if q is None:
            return NotImplemented
        return self + (-q)

    def __rsub__(self, other):
        q = Poly._want(other)
        if q is None:
            return NotImplemented
        return q + (-self)

    def __mul__(self, other):
        q = Poly._want(other)
        if q is None:
            return NotImplemented
        a, b = self.coeffs, q.coeffs
        if not a or not b:
            return ZERO_POLY
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
        return Poly._raw(trim(out))

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        a = self.coeffs
        if a and a.count(0) == len(a) - 1:
            # a monomial c*s^k: its power is c^n*s^(k*n)
            return Poly._raw((0,) * ((len(a) - 1) * n) + (a[-1] ** n,))
        result = ONE_POLY
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other):
        """Long division in Z[s]: (quo, rem) with self == quo*other + rem and
        deg rem < deg other.  Raises ArithmeticError exactly when the
        quotient over the rationals is not integral; it is integral for a
        divisor whose leading coefficient is 1 or -1."""
        q = Poly._want(other)
        if q is None:
            return NotImplemented
        if q.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        quo, rem = _long_divmod(self.coeffs, q.coeffs)
        return Poly._raw(trim(quo)), Poly._raw(trim(rem))

    def exact_div(self, other):
        """Quotient of an exact division; raises when there is a remainder."""
        quo, rem = divmod(self, other)
        if rem:
            raise ArithmeticError("polynomial division is not exact")
        return quo

    def __call__(self, x):
        """Evaluate at x by Horner's rule; exact Fraction result."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def primitive(self):
        """Split into (content, primitive part).

        The content is a positive int, the primitive part has coprime
        coefficients and carries the sign, and ``content * primitive ==
        self``; a polynomial with content 1 is its own primitive part.  The
        zero polynomial splits into (0, zero).
        """
        g = _int_gcd(*self.coeffs)
        if g in (0, 1):
            return g, self
        return g, Poly._raw(tuple(c // g for c in self.coeffs))


ZERO_POLY = Poly._raw(())
ONE_POLY = Poly._raw((1,))
S_POLY = Poly._raw((0, 1))


def _long_divmod(a, b):
    """Long division of integer coefficient lists, b with a nonzero leading
    coefficient: the untrimmed quotient and remainder lists.  Raises
    ArithmeticError exactly when the quotient over the rationals is not
    integral."""
    rem = list(a)
    db, lb = len(b) - 1, b[-1]
    quo = [0] * max(len(rem) - db, 0)
    for k in range(len(rem) - db - 1, -1, -1):
        f, r = divmod(rem[k + db], lb)
        if r:
            raise ArithmeticError("polynomial quotient is not integral")
        if f:
            quo[k] = f
            for j, bj in enumerate(b):
                rem[k + j] -= f * bj
    return quo, rem


def _primitive_ints(ints):
    g = _int_gcd(*ints)
    if g in (0, 1):
        return list(ints)
    return [c // g for c in ints]


def _quotient(a, d):
    """a/d when the primitive polynomial d divides a in Z[x], else None.

    By Gauss's lemma an exact quotient by a primitive d has integer
    coefficients, so integer long division decides it."""
    try:
        quo, rem = divmod(a, d)
    except ArithmeticError:
        return None
    return None if rem else quo


def _unpacked(p, packs):
    # a numerator as a Poly: p itself, or p unpacked by ``packs`` while packed
    return packs.poly(p) if isinstance(p, int) else p


def _trial_quotient(num, g, packs):
    """(num/g, None) when g divides num in Z[s], else (None, num) with num
    as a Poly: ``_quotient``, or with ``packs`` (num packed at packs.k)
    ``packed_quotient`` first, so that num is unpacked only when that does
    not find the quotient, and long-divided only when it does not decide.
    A g of None tries nothing."""
    if g is not None and packs is not None:
        q = packed_quotient(num, packs.k, g.coeffs, packs[g.coeffs])
        if q is False:
            return None, packs.poly(num)
        if q is not None:
            return Poly._raw(q), None
    num = _unpacked(num, packs)
    return (None if g is None else _quotient(num, g)), num


# above this many terms or digits, ``pack`` and ``digits`` split in halves
_LEAF = 32


def pack(seq, k):
    """The integer sequence's value at s = 2**k: shift-Horner on at most
    ``_LEAF`` terms, else the low half's value plus the high half's shifted
    by k bits a term, so n terms cost O(k*n*log n) bit operations, not
    shift-Horner's O(k*n**2)."""
    n = len(seq)
    if n > _LEAF:
        h = n // 2
        return pack(seq[:h], k) + (pack(seq[h:], k) << (h * k))
    v = 0
    for c in reversed(seq):
        v = (v << k) + c
    return v


def digits(v, k):
    """Balanced base-2**k digits of v (k >= 2), each in (-2**(k-1), 2**(k-1)],
    lowest first up to the top nonzero one: the inverse of ``pack`` on
    sequences in that range, up to trailing zeros.

    Above ``_LEAF`` digits v splits as lo + hi*2**(h*k), 0 <= lo < 2**(h*k)
    for h half its digits.  Balanced digits are a complete residue system
    mod 2**(h*k), so lo's digits are v's h lowest, but for a top digit 1 at
    position h, which is carried into hi; v's digits are lo's h, padded with
    zeros, then those of hi plus the carry, which are not all zero because
    |v| >= 2**(2*h*k - 1) exceeds every value of h digits."""
    n = v.bit_length() // k
    if n > _LEAF:
        h = n // 2
        low = digits(v & ((1 << (h * k)) - 1), k)
        carry = low.pop() if len(low) > h else 0
        return low + [0] * (h - len(low)) + digits((v >> (h * k)) + carry, k)
    mask, half = (1 << k) - 1, 1 << (k - 1)
    out = []
    while v:
        d = v & mask
        v >>= k
        if d > half:
            d -= mask + 1
            v += 1
        out.append(d)
    return out


class Packs(dict):
    """Each coefficient tuple's value at s = 2**k (``pack``), packed once
    while the dict lives, which is one matrix operation or one reduction."""

    def __init__(self, k):
        super().__init__()
        self.k = k

    def __missing__(self, coeffs):
        v = self[coeffs] = pack(coeffs, self.k)
        return v

    def poly(self, v):
        """The polynomial whose value at s = 2**k is v, by ``digits``; its
        coefficients must be below 2**(k-1) in magnitude."""
        return Poly._raw(tuple(digits(v, self.k)))


# a packed division is tried only up to this k (see ``packed_quotient``)
_PACKED_DIVISION_BITS = 128


def packed_quotient(v, k, g, gv):
    """The quotient a/g in Z[s], read from packed values: v = a(2**k) for
    a polynomial a whose coefficients are below 2**(k-1) in magnitude, and
    gv = g(2**k) for a nonzero coefficient tuple g.  Returns the quotient's
    coefficient tuple, False when g divides a in no way in Z[s], or None
    when the packed values do not decide, and the caller long-divides the
    unpacked a (``_long_divmod``).  It never returns a wrong quotient:

    * gv != 0 and gv not dividing v prove that g does not divide a in Z[s],
      since a = q*g gives v = q(2**k)*gv (for a primitive g, by Gauss's
      lemma, not in Q[s] either);
    * otherwise let q be the balanced base-2**k digits of v // gv, so that
      q(2**k)*gv = v.  If |q|_inf*|g|_1 < 2**(k-1), every coefficient of
      q*g is below 2**(k-1) in magnitude, as a's are, and their values at
      2**k agree; balanced digits are unique, so q*g = a;
    * every other case is None: gv = 0 (g = s - 2**k, say), or an exact
      integer quotient whose digits break the bound.

    Cost rule: the big-int division grows as k**2 times the two lengths,
    the long division as the two lengths times the coefficient size, so
    their ratio is read from k alone.  Measured on CPython 3.11, x86-64
    Xeon, for quotients of 3 to 300 terms by divisors of 2 to 300 terms,
    the packed division (with its quotient's digits and the bound) costs
    0.12-0.84 of ``_long_divmod`` up to k = 129 bits, 0.35-0.87 at 160 to
    193 bits, 0.57-1.13 at 250 to 310 bits and 2.1-2.4 at 600 bits: the
    crossover is near 300 bits.  It is tried for 2 <= k <= 128, where it
    costs about half the long division, so that it pays even where half
    the attempts end undecided (an exact quotient over a divisor of large
    l1 norm can break the bound); a larger k returns None at once."""
    if not 2 <= k <= _PACKED_DIVISION_BITS or not gv:
        return None
    quo, rem = divmod(v, gv)
    if rem:
        return False
    q = digits(quo, k)
    if max(map(abs, q), default=0) * sum(map(abs, g)) >= 1 << (k - 1):
        return None
    return tuple(q)


# ---------------------------------------------------------------------------
# coefficient sequences (scalar: a tuple of ints; matrix: a grid of them)


def _is_grid(seq):
    return bool(seq) and not isinstance(seq[0], int)


def transpose(grid):
    return tuple(zip(*grid))


def seq_len(seq):
    """Length as stored, of a grid's longest entry (0 when the grid has no
    entries): an operand may end in zeros, a ``conv`` result never does."""
    if _is_grid(seq):
        return max(map(len, chain.from_iterable(seq)), default=0)
    return len(seq)


def _magnitude(seq):
    # largest coefficient magnitude; 0 for an all-zero or empty sequence
    if _is_grid(seq):
        seq = chain.from_iterable(chain.from_iterable(seq))
    return max(map(abs, seq), default=0)


def packed(seq, k):
    """Each entry's sequence as its value at s = 2**k; an empty one is 0."""
    if _is_grid(seq):
        return [[pack(e, k) if e else 0 for e in row] for row in seq]
    return pack(seq, k)


def pmul(x, y):
    # product of packed values: ints, an int scaling a matrix, or matrices
    if isinstance(x, int):
        return x * y if isinstance(y, int) else pmul(y, x)
    if isinstance(y, int):
        return tuple(tuple(v * y for v in row) for row in x)
    return tuple(tuple(sum(map(mul, row, col)) for col in zip(*y)) for row in x)


def _product_shape(a, b):
    """Shape of a*b (None for a scalar), or ValueError naming both shapes
    when the matrix product does not conform."""
    sa, sb = ((len(x), len(x[0])) if _is_grid(x) else None for x in (a, b))
    if sa and sb and sa[1] != sb[0]:
        raise ValueError(
            f"nonconformable product: {sa[0]}x{sa[1]} times {sb[0]}x{sb[1]}"
        )
    return (sa[0], sb[1]) if sa and sb else sa or sb


def check_capacity(n, cap, label):
    # a sequence of untrimmed length n has degree at most cap (None: any)
    if cap is not None and n > max(cap + 1, 0):
        raise CapacityError(
            f"{label}: coefficient sequence of length {n} exceeds "
            f"its degree capacity {cap}",
            label,
        )


def conv(*terms, cap=None, label=None, unpack=True):
    """Sum of c*a*b over the terms (c, a, b): c an int, a and b scalar or
    matrix coefficient sequences, each product a Cauchy product with a
    matrix product per term.  Products that do not conform, or that differ
    in shape, raise ValueError.

    Kronecker substitution: every entry's sequence is packed into its value
    at s = 2**k, the whole sum is evaluated in integer arithmetic, and the
    balanced base-2**k digits are unpacked once.  Each operand is scanned
    once for its untrimmed length, len (a matrix's being that of its
    longest entry), and, in a term whose operands both have nonzero length,
    once for its largest coefficient magnitude; both scans are C-level
    passes over the entries that build no copy.  A term with a zero-length
    operand adds nothing.  2**(k-2) exceeds the sum over the other terms of
    |c| * max|a| * max|b| * min(len a, len b) * inner, which bounds every
    output coefficient, so the digits are the coefficients.  Every result
    entry is canonical, as in ``Poly.coeffs``: its digits, whose last is
    nonzero, or () for zero.  A degree capacity ``cap`` adds two checks
    (CapacityError under ``label``): the untrimmed length n of the longest
    product, len a + len b - 1, read from the operands before anything is
    packed, and then every unpacked entry's length must fit cap + 1.  The
    format has no 0xk grid: its grid, (), is read as the zero scalar, so a
    caller rejects matrices with no rows first.

    With ``unpack=False`` nothing is unpacked: the result is (values, k),
    each entry's value at s = 2**k in place of its sequence, every
    coefficient below 2**(k-2) in magnitude, for a reduction that divides
    on packed values (``joint_reduce`` with a ``Packs(k)``).  Only the
    operand-length check runs then; the caller checks the result's length
    on what its reduction returns (``check_capacity``).
    """
    shapes = {_product_shape(a, b) for _, a, b in terms}
    if len(shapes) > 1:
        named = sorted("scalar" if s is None else f"{s[0]}x{s[1]}" for s in shapes)
        raise ValueError(f"terms of different shapes: {' and '.join(named)}")
    shape = shapes.pop() if shapes else None
    live, bound, n = [], 0, 0
    for c, a, b in terms:
        len_a, len_b = seq_len(a), seq_len(b)
        if len_a and len_b:
            inner = len(b) if _is_grid(a) and _is_grid(b) else 1
            bound += abs(c) * _magnitude(a) * _magnitude(b) * min(len_a, len_b) * inner
            n = max(n, len_a + len_b - 1)
            live.append((c, a, b))
    check_capacity(n, cap, label)
    k = bound.bit_length() + 2
    if not live:
        zero = () if unpack else 0
        out = (((zero,) * shape[1],) * shape[0]) if shape else zero
        return out if unpack else (out, k)
    prods = [pmul(packed(a, k), pmul(c, packed(b, k))) for c, a, b in live]
    vals = sum(prods) if shape is None else tuple(
        tuple(map(sum, zip(*rows))) for rows in zip(*prods))
    if not unpack:
        return vals, k

    def entry(v):
        return tuple(digits(v, k)) if v else ()

    out = entry(vals) if shape is None else tuple(tuple(map(entry, row)) for row in vals)
    if cap is not None:
        check_capacity(seq_len(out), cap, label)
    return out


def _heu_gcd(a, b):
    """One GCDHEU step (see gcd_cofactors) on primitive polynomials of degree
    >= 1: (g, a/g, b/g) with g's leading coefficient positive, the
    quotients being those of the divisibility check, or None when the
    reconstructed candidate fails that check."""
    ac, bc = a.coeffs, b.coeffs
    k = (2 * min(max(map(abs, ac)), max(map(abs, bc))) + 1).bit_length()
    g = _primitive_ints(digits(_int_gcd(pack(ac, k), pack(bc, k)), k))
    if len(g) == 1:
        return ONE_POLY, a, b
    g = Poly._raw(tuple(g))
    qa = _quotient(a, g)
    qb = None if qa is None else _quotient(b, g)
    return None if qb is None else (g, qa, qb)


def _prs_gcd(a, b):
    """Primitive pseudo-remainder sequence gcd of nonzero primitive integer
    coefficient lists, with a positive leading coefficient."""
    if len(a) < len(b):
        a, b = b, a
    while b:
        # the pseudo-remainder: lc(b)**(deg a - deg b + 1)*a divides exactly
        scale = b[-1] ** (len(a) - len(b) + 1)
        r = _long_divmod([scale * c for c in a], b)[1]
        a, b = b, _primitive_ints(trim(r))
    if a[-1] < 0:
        a = [-c for c in a]
    return a


def poly_gcd(p, q):
    """Greatest common divisor, normalized to coprime integer coefficients
    with a positive leading coefficient.  gcd(p, 0) is the normalization of
    p; both arguments zero is an error.

    This is ``gcd_cofactors(p, q)[0]``, kept for
    ``RfMatrix.clear_denominators`` and the bench tracer, which counts its
    calls.
    """
    return gcd_cofactors(p, q)[0]


def _scaled(p, c):
    return p if c == 1 else Poly._raw(tuple(c * x for x in p.coeffs))


def gcd_cofactors(p, q):
    """(g, p/g, q/g) with g = poly_gcd(p, q); the one function that runs a
    gcd algorithm.

    Two nonconstant operands take one step of the heuristic gcd GCDHEU
    (Char, Geddes and Gonnet, J. Symb. Comp. 7, 1989; Liao and Fateman,
    ISSAC 1995) on their primitive integer parts a and b:

    * evaluation: h = gcd(a(xi), b(xi)) over the integers, at the least
      power of two xi >= 2*min(|a|_inf, |b|_inf) + 2, so that evaluation
      and reconstruction are the shifts of ``pack`` and ``digits``;
    * reconstruction: G is the primitive part, with positive leading
      coefficient, of the polynomial whose coefficients are the balanced
      base-xi digits of h, each in (-xi/2, xi/2];
    * proof: if trial division shows that G divides a and b in Z[x], G is
      the gcd.  The true gcd is g = G*k, and g(xi) divides h, so k(xi)
      divides the content of the digits, which is at most xi/2.  A
      nonconstant k divides a and b, so its roots lie strictly inside the
      Cauchy bound 1 + min(|a|_inf, |b|_inf), and then
      |k(xi)| > xi - 1 - min(|a|_inf, |b|_inf) >= xi/2.  So k is constant.
      The proof needs only xi >= 2*min(|a|_inf, |b|_inf) + 2.

    Coprime operands are certified by that one evaluation, since h = 1
    reconstructs to G = 1.  When the divisibility check fails, the
    primitive pseudo-remainder sequence computes the gcd instead.

    A gcd found by GCDHEU comes with the quotients of its trial divisions,
    which times each operand's integer content are the cofactors; a
    nonconstant gcd found by the pseudo-remainder sequence fallback is
    divided out here, by two exact divisions.  A gcd of 1 returns the
    operands themselves.
    """
    p, q = Poly._want(p), Poly._want(q)
    if p.is_zero and q.is_zero:
        raise ValueError("gcd of two zero polynomials is undefined")
    if q.is_zero or p.is_zero:
        c, g = (p if q.is_zero else q).primitive()
        if g.coeffs[-1] < 0:
            c, g = -c, -g
        c = Poly.const(c)
        return (g, c, ZERO_POLY) if q.is_zero else (g, ZERO_POLY, c)
    if p.degree == 0 or q.degree == 0:
        return ONE_POLY, p, q  # a nonzero constant is coprime to everything
    (cp, a), (cq, b) = p.primitive(), q.primitive()
    found = _heu_gcd(a, b)
    if found is None:
        g = Poly._raw(tuple(_prs_gcd(list(a.coeffs), list(b.coeffs))))
        found = (g, a, b) if g.degree == 0 else (g, a.exact_div(g), b.exact_div(g))
    g, qa, qb = found
    if g.degree == 0:
        return g, p, q
    return g, _scaled(qa, cp), _scaled(qb, cq)


def _cofactors(p, q, memo):
    """gcd_cofactors(p, q), run once per pair of nonconstant operands while
    ``memo`` lives: the dict maps their coefficient tuples to the result.
    A memo of None runs it every time."""
    if memo is None or p.degree < 1 or q.degree < 1:
        return gcd_cofactors(p, q)
    key = p.coeffs, q.coeffs
    found = memo.get(key)
    if found is None:
        found = memo[key] = gcd_cofactors(p, q)
    return found


def _normalize(nums, den):
    """Divide a family of numerators over one polynomial-coprime denominator
    by their joint integer content, signed so that the leading denominator
    coefficient is positive (no polynomial gcd).  Returns the inputs
    themselves when that divisor is 1."""
    content = _int_gcd(*den.coeffs)
    for p in nums:
        if content == 1:
            break
        content = _int_gcd(content, *p.coeffs)
    if den.coeffs[-1] < 0:
        content = -content
    if content == 1:
        return nums, den
    return (
        [Poly._raw(tuple(c // content for c in p.coeffs)) for p in nums],
        Poly._raw(tuple(c // content for c in den.coeffs)),
    )


def joint_reduce(nums, den, packs=None):
    """Reduce a family of numerator polynomials over one denominator.

    Divides gcd(den, all numerators) out, then the joint integer content,
    and makes the leading denominator coefficient positive; an all-zero
    family becomes zeros over 1.  The family's values num[k]/den are
    unchanged.  Returns (new_nums, new_den).  The result is the canonical
    form of those values, so it does not depend on the order in which the
    numerators are met.

    A constant den has no polynomial gcd with the family: only the integer
    content is divided out.  Otherwise one pass over the nonzero numerators,
    shortest first, with a running gcd g starting at den.  The first one
    meets den in ``gcd_cofactors``, which leaves its quotient by the new g;
    g is then primitive with a positive leading coefficient, and divides
    that short numerator, so it is small.  Each later numerator is first
    tried by one trial division by g: when g divides it, g is the gcd, and
    the exact quotient is the one a gcd step would leave.  Only a numerator
    that g does not divide meets g in ``gcd_cofactors``; when g shrinks by
    a cofactor c, the quotients already taken and den/g are multiplied by
    c.  The pass stops once g is constant.

    With ``packs`` (a ``Packs``), each numerator is given as its value at
    s = 2**packs.k, every coefficient below 2**(k-1) in magnitude, as
    ``conv(..., unpack=False)`` returns them, and the order is by that
    value's bit length.  The first numerator is unpacked for its gcd step;
    each later one is divided on packed values first (``packed_quotient``),
    so that only its quotient is unpacked, and a proven non-divisor goes to
    its gcd step with no long division.  Numerators left once g is constant
    are unpacked at the end.
    """
    if den.is_zero:
        raise ZeroDivisionError("zero denominator")
    nums = list(nums)
    if den.degree == 0:
        return _normalize([_unpacked(p, packs) for p in nums], den)
    size = int.bit_length if packs is not None else lambda p: len(p.coeffs)
    order = sorted((k for k, p in enumerate(nums) if p), key=lambda k: size(nums[k]))
    g, den = den, ONE_POLY
    for n, k in enumerate(order):
        quo, num = _trial_quotient(nums[k], g if n else None, packs)
        if quo is not None:
            nums[k] = quo
            continue
        g, c, nums[k] = gcd_cofactors(g, num)
        if c.coeffs != (1,):
            den = c if den is ONE_POLY else den * c  # den/g is 1 until g shrinks
            for j in order[:n]:
                nums[j] *= c
        if g.degree == 0:
            break
    return _normalize([_unpacked(p, packs) for p in nums], den)


class RatFun:
    """Rational function in canonical reduced form (see module docstring).

    The constructor takes integer polynomials or ints and canonicalizes; a
    rational constant enters through `RatFun.const`.  All field operations
    return canonical values, so `==` is exact value equality.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        if not isinstance(num, (Poly, int)) or not isinstance(den, (Poly, int)):
            raise TypeError("polynomial or integer expected")
        (self.num,), self.den = joint_reduce([Poly._want(num)], Poly._want(den))

    @classmethod
    def _of(cls, num, den):
        # trusted: (num, den) already canonical
        f = object.__new__(cls)
        f.num, f.den = num, den
        return f

    @classmethod
    def _reduced(cls, num, den):
        # trusted: num, den already polynomial-coprime; only integer
        # normalization is needed
        if num.is_zero:
            return ZERO
        (num,), den = _normalize([num], den)
        return cls._of(num, den)

    @classmethod
    def over(cls, num, den, hint, packs):
        """num/den reduced, num given as its value at s = 2**packs.k (a
        ``Packs``), every coefficient below 2**(k-1) in magnitude.
        ``hint``, a list shared by the calls over one den, is empty or
        [g, den/g] for the first nonconstant gcd g found: a numerator that
        g divides meets only den/g in ``gcd_cofactors``.  The hint's trial
        division runs on packed values first (``packed_quotient``), num is
        unpacked only when that finds no quotient, and ``_long_divmod``
        runs only when it does not decide."""
        if not num:
            return ZERO
        quo, num = _trial_quotient(num, hint[0] if hint else None, packs)
        if quo is not None:
            return cls._reduced(*gcd_cofactors(quo, hint[1])[1:])
        g, num, den = gcd_cofactors(num, den)
        if g.degree > 0 and not hint:
            hint[:] = g, den
        return cls._reduced(num, den)

    @classmethod
    def const(cls, c):
        if isinstance(c, float):
            raise TypeError("exact value expected, got float")
        c = Fraction(c)
        return cls._of(Poly.const(c.numerator), Poly.const(c.denominator))

    @property
    def is_zero(self):
        return self.num.is_zero

    def __bool__(self):
        return not self.num.is_zero

    def __eq__(self, other):
        other = RatFun._want(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # equal values hash equal: as the Fraction or Poly it may equal
        if self.den.degree:
            return hash((self.num.coeffs, self.den.coeffs))
        if self.num.degree < 1:
            return hash(Fraction(self.num[0], self.den[0]))
        return hash(self.num)

    def __repr__(self):
        return f"RatFun({self.num!r}, {self.den!r})"

    def __str__(self):
        return format_ratfun(self)

    @staticmethod
    def _want(x):
        if isinstance(x, RatFun):
            return x
        if isinstance(x, (int, Fraction)):
            return RatFun.const(x)
        if isinstance(x, Poly):
            return RatFun._reduced(x, ONE_POLY)  # p/1 is already coprime
        return None

    def __add__(self, other):
        g = RatFun._want(other)
        if g is None:
            return NotImplemented
        return self.plus(g)

    def plus(self, g, memo=None):
        """self + g for a RatFun g.  ``memo``, a dict that lives for one
        matrix operation, keeps the gcds of nonconstant operands found so
        far (see ``_cofactors``)."""
        f = self
        if f.is_zero:
            return g
        if g.is_zero:
            return f
        if f.den == g.den:
            num = f.num + g.num
            if num.is_zero:
                return ZERO
            if f.den.degree == 0:
                return RatFun._reduced(num, f.den)
            return RatFun(num, f.den)
        # Knuth 4.5.1: with both operands reduced, cancellation can only
        # come from d1 = gcd of the denominators, and then only from
        # d2 = gcd(t, d1); the cofactors fb, gb, t/d2 and d1/d2 come with
        # the gcds
        d1, fb, gb = _cofactors(f.den, g.den, memo)
        if d1.degree == 0:
            return RatFun._reduced(f.num * g.den + g.num * f.den, f.den * g.den)
        t = f.num * gb + g.num * fb
        d2, t, d1 = _cofactors(t, d1, memo)
        den = fb * g.den if d2.degree == 0 else fb * gb * d1
        return RatFun._reduced(t, den)

    __radd__ = __add__

    def __neg__(self):
        return RatFun._of(-self.num, self.den)

    def __sub__(self, other):
        g = RatFun._want(other)
        if g is None:
            return NotImplemented
        return self + (-g)

    def __rsub__(self, other):
        g = RatFun._want(other)
        if g is None:
            return NotImplemented
        return g + (-self)

    def __mul__(self, other):
        g = RatFun._want(other)
        if g is None:
            return NotImplemented
        return self.times(g)

    def times(self, g, memo=None):
        """self * g for a RatFun g; ``memo`` as in ``plus``."""
        f = self
        if f.is_zero or g.is_zero:
            return ZERO
        # cross-cancellation keeps the gcd calls on small operands and
        # yields a reduced product directly
        _, fn, gd = _cofactors(f.num, g.den, memo)
        _, gn, fd = _cofactors(g.num, f.den, memo)
        return RatFun._reduced(fn * gn, fd * gd)

    __rmul__ = __mul__

    def reciprocal(self):
        if self.is_zero:
            raise ZeroDivisionError("reciprocal of the zero rational function")
        if self.num.coeffs[-1] < 0:
            return RatFun._of(-self.den, -self.num)
        return RatFun._of(self.den, self.num)

    def __truediv__(self, other):
        g = RatFun._want(other)
        if g is None:
            return NotImplemented
        return self * g.reciprocal()

    def __rtruediv__(self, other):
        g = RatFun._want(other)
        if g is None:
            return NotImplemented
        return g * self.reciprocal()

    def __pow__(self, n):
        if not isinstance(n, int):
            raise ValueError("exponent must be an integer")
        if n < 0:
            return self.reciprocal() ** (-n)
        # powers of a coprime pair stay coprime
        return RatFun._reduced(self.num ** n, self.den ** n)

    def eval(self, x):
        """Exact value at x; PoleError when the denominator vanishes."""
        x = Fraction(x)
        d = self.den(x)
        if not d:
            raise PoleError(f"pole at s = {x}")
        return self.num(x) / d


ZERO = RatFun._of(ZERO_POLY, ONE_POLY)
ONE = RatFun._of(ONE_POLY, ONE_POLY)


def format_poly(p):
    """Ascending-power expression string, e.g. ``12+32*s+33*s^2+14*s^3``.

    The output re-parses under the entry grammar to the same polynomial.
    """
    if p.is_zero:
        return "0"
    parts = []
    for j, c in enumerate(p.coeffs):
        if not c:
            continue
        if j == 0:
            term = str(c)
        else:
            base = "s" if j == 1 else f"s^{j}"
            if c == 1:
                term = base
            elif c == -1:
                term = "-" + base
            else:
                term = f"{c}*{base}"
        parts.append(term)
    out = parts[0]
    for term in parts[1:]:
        out += term if term.startswith("-") else "+" + term
    return out


def _term_count(p):
    return sum(1 for c in p.coeffs if c)


def _is_atom(p):
    # a bare token under the grammar: an unsigned integer or s / s^k
    if _term_count(p) != 1:
        return False
    if p.degree == 0:
        return p.coeffs[0] > 0
    return p.coeffs[-1] == 1


def format_ratfun(f):
    """Canonical expression string that re-parses to the same value."""
    if f.den == ONE_POLY:
        return format_poly(f.num)
    num_s = format_poly(f.num)
    if _term_count(f.num) > 1:
        num_s = f"({num_s})"
    den_s = format_poly(f.den)
    if not _is_atom(f.den):
        den_s = f"({den_s})"
    return f"{num_s}/{den_s}"
