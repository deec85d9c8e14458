"""The coefficient path's Kronecker-substitution kernel against schoolbook
Cauchy products.

The reference below is the termwise arithmetic the coefficient path used
before the kernel: scalar, scalar-matrix and matrix-matrix convolutions
that multiply constant matrices coefficient pair by coefficient pair, and
a termwise sum that pads the shorter sequence with zeros.  The reference
keeps that degree-major layout (a list of constant matrices), while the
kernel takes and returns grids of per-entry coefficient tuples; the tests
convert at the boundary.  Every entry the kernel returns is canonical, its
coefficients without trailing zeros and () for zero, so it must equal the
reference's result with every entry trimmed, whether or not it is
checked.

Given a capacity, the kernel checks it against the untrimmed length of the
longest product, read from the operands; ``fit`` below is that check
ahead of the schoolbook result, the reference for the checked call.
"""

import random

import pytest

from wmpinv import scalars
from wmpinv.errors import CapacityError
from wmpinv.scalars import conv, seq_len, trim


def _mzero(rows, cols):
    return tuple((0,) * cols for _ in range(rows))


def _madd(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _mscale(a, c):
    return tuple(tuple(c * x for x in row) for row in a)


def _mmul(a, b):
    cols = range(len(b[0]))
    return tuple(
        tuple(sum(ra[t] * b[t][c] for t in range(len(b))) for c in cols) for ra in a
    )


def _sconv(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def _smconv(s, m):
    if not s or not m:
        return []
    out = [None] * (len(s) + len(m) - 1)
    for i, si in enumerate(s):
        for j, mj in enumerate(m):
            p = _mscale(mj, si)
            out[i + j] = p if out[i + j] is None else _madd(out[i + j], p)
    return out


def _mmconv(a, b):
    if not a or not b:
        return []
    out = [None] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            p = _mmul(ai, bj)
            out[i + j] = p if out[i + j] is None else _madd(out[i + j], p)
    return out


def _mseq_op(op, a, b, rows, cols):
    n = max(len(a), len(b))
    zero = _mzero(rows, cols)
    return [
        op(a[j] if j < len(a) else zero, b[j] if j < len(b) else zero)
        for j in range(n)
    ]


def _sadd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for j, c in enumerate(b):
        out[j] += c
    return out


def reference(*terms):
    """Schoolbook sum of c*a*b over the terms."""
    out = []
    for c, a, b in terms:
        a_mat = bool(a) and isinstance(a[0], tuple)
        b_mat = bool(b) and isinstance(b[0], tuple)
        if a_mat and b_mat:
            p = _mmconv(a, b)
        elif a_mat or b_mat:
            p = _smconv(b, a) if a_mat else _smconv(a, b)
        else:
            p = _sconv(a, b)
        if not p:
            continue
        if isinstance(p[0], tuple):
            p = [_mscale(m, c) for m in p]
            out = _mseq_op(_madd, out, p, len(p[0]), len(p[0][0])) if out else p
        else:
            out = _sadd(out, [c * x for x in p])
    return out


def to_grid(seq, rows, cols):
    """Grid of per-entry sequences of a degree-major rows x cols sequence."""
    return tuple(
        tuple(tuple(m[r][c] for m in seq) for c in range(cols)) for r in range(rows)
    )


def to_degree_major(seq):
    """Degree-major list of a grid, its entries padded with zeros to the
    longest one's length; a scalar sequence as a list."""
    if not seq or isinstance(seq[0], int):
        return list(seq)
    n = max((len(e) for row in seq for e in row), default=0)
    return [
        tuple(tuple(e[j] if j < len(e) else 0 for e in row) for row in seq)
        for j in range(n)
    ]


def shape_of(terms):
    """rows x cols of the products of grid terms, None for scalar ones or
    no terms; the first term decides."""
    for _, a, b in terms:
        a_grid, b_grid = (bool(x) and not isinstance(x[0], int) for x in (a, b))
        if not (a_grid or b_grid):
            return None
        return len(a if a_grid else b), len(b[0] if b_grid else a[0])
    return None


def ref(*terms):
    """``reference`` on grid terms, as the kernel returns it: a grid (or a
    scalar sequence) of trimmed entries."""
    want = reference(*((c, to_degree_major(a), to_degree_major(b)) for c, a, b in terms))
    shape = shape_of(terms)
    if shape is None:
        return trim(want)
    return tuple(tuple(map(trim, row)) for row in to_grid(want, *shape))


def scalar_seq(rng, bits, length=None):
    length = rng.randint(0, 4) if length is None else length
    seq = [rng.randint(-(2**bits), 2**bits) for _ in range(length)]
    if seq and rng.random() < 0.3:
        seq += [0] * rng.randint(1, 2)  # untrimmed
    if rng.random() < 0.1:
        seq = [0] * len(seq)
    return seq


def matrix_seq(rng, rows, cols, bits):
    seq = [
        tuple(
            tuple(rng.randint(-(2**bits), 2**bits) for _ in range(cols))
            for _ in range(rows)
        )
        for _ in range(rng.randint(0, 4))
    ]
    if seq and rng.random() < 0.3:
        seq += [_mzero(rows, cols)] * rng.randint(1, 2)  # untrimmed
    if rng.random() < 0.1:
        seq = [_mzero(rows, cols)] * len(seq)
    return to_grid(seq, rows, cols)


def as_lists(seq):
    """seq with every tuple, at every level, turned into a list."""
    return [as_lists(x) for x in seq] if isinstance(seq, (tuple, list)) else seq


def random_terms(rng, bits):
    """1-3 terms whose products all have one shape: scalar, or rows x cols
    from scalar x matrix, matrix x scalar or matrix x matrix operands
    (including the 1 x k by k x 1 and k x 1 by 1 x m shapes)."""
    k = rng.randint(1, 4)
    shape = rng.choice(
        [None, (1, 1), (k, 1), (1, k), (rng.randint(1, 3), rng.randint(1, 3))]
    )
    terms = []
    for _ in range(rng.randint(1, 3)):
        c = rng.choice((-2, -1, 1, 2))
        if shape is None:
            terms.append((c, scalar_seq(rng, bits), scalar_seq(rng, bits)))
            continue
        rows, cols = shape
        kind = rng.choice(("sm", "ms", "mm"))
        if kind == "sm":
            a, b = scalar_seq(rng, bits), matrix_seq(rng, rows, cols, bits)
        elif kind == "ms":
            a, b = matrix_seq(rng, rows, cols, bits), scalar_seq(rng, bits)
        else:
            inner = rng.choice((1, k, rng.randint(1, 4)))
            a = matrix_seq(rng, rows, inner, bits)
            b = matrix_seq(rng, inner, cols, bits)
        terms.append((c, a, b))
    return terms


class TestReference:
    """The reference itself, on hand-computed cases."""

    def test_scalar_sum_pads_to_the_longest_product(self):
        assert reference((1, [1, 1], [1, 1]), (-1, [1], [1])) == [0, 2, 1]
        assert reference((1, [1], [1]), (1, [0, 0, 1], [1])) == [1, 0, 1]

    def test_matrix_product(self):
        a = [((1, 2),)]
        b = [((3,), (4,)), ((0,), (1,))]
        assert reference((1, a, b)) == [((11,),), ((2,),)]


class TestKernelAgainstSchoolbook:
    @pytest.mark.parametrize("bits", [2, 64, 1000])
    def test_random_sums(self, bits):
        rng = random.Random(71 + bits)
        for _ in range(400):
            terms = random_terms(rng, bits)
            assert conv(*terms) == ref(*terms), terms

    def test_empty_operands_add_nothing(self):
        # a zero matrix is a grid of empty entries and keeps its shape
        m = to_grid([((1, 2), (3, 4))], 2, 2)
        zero = (((), ()), ((), ()))
        assert conv((1, [], [1, 2])) == ()
        assert conv((1, [1, 2], [])) == ()
        assert conv((1, [], m)) == zero
        assert conv((1, m, [])) == zero
        assert conv() == ()
        assert conv((1, [], [5]), (2, [1, 1], [3])) == (6, 6)

    def test_operands_without_entries_add_nothing(self):
        # a 2x0 grid has no entries: the product keeps its shape, 2x0
        assert conv((1, ((), ()), ())) == ((), ())
        assert conv((1, ((), ()), [1, 2])) == ((), ())

    def test_all_zero_operands_give_zero(self):
        zero = to_grid([_mzero(2, 2)] * 3, 2, 2)
        assert conv((1, [0, 0], [0, 0, 0])) == ()
        assert conv((1, zero, zero)) == to_grid([], 2, 2)
        assert conv((2, [0], zero)) == to_grid([], 2, 2)

    def test_untrimmed_operands_give_trimmed_entries(self):
        a = to_grid([((1,), (2,)), ((0,), (0,))], 2, 1)  # trailing zero matrix
        b = to_grid([((3, -1),), ((0, 0),), ((0, 0),)], 1, 2)  # two of them
        got = conv((1, a, b))
        assert got == ref((1, a, b))
        assert got == (((3,), (-1,)), ((6,), (-2,)))

    def test_sums_that_cancel_are_zero(self):
        rng = random.Random(73)
        for bits in (3, 1000):
            s, t = scalar_seq(rng, bits, 3), scalar_seq(rng, bits, 2)
            a, b = matrix_seq(rng, 2, 3, bits), matrix_seq(rng, 3, 1, bits)
            assert conv((1, s, t), (-1, t, s)) == ()
            assert conv((2, s, t), (-1, s, t), (-1, t, s)) == ()
            assert conv((1, a, b), (-1, a, b)) == to_grid([], 2, 1)
            assert conv((2, s, a), (-1, a, s), (-1, s, a)) == ref(
                (2, s, a), (-1, a, s), (-1, s, a)
            )

    def test_coefficients_at_the_digit_bound(self):
        # equal-sign extreme coefficients make the middle output coefficient
        # as large as the packing bound allows
        for top in (1, 3, 2**1000 - 1):
            for sign in (1, -1):
                a = to_grid([((top,) * 6,) * 2] * 5, 2, 6)
                b = to_grid([((sign * top,),) * 6] * 5, 6, 1)
                c = to_grid([((top,),) * 2] * 3, 2, 1)
                s = [sign * top] * 5
                for terms in (
                    [(2, a, b), (-2, c, s)],
                    [(-2, s, s), (-2, s, s)],
                    [(2, s, a)],
                ):
                    assert conv(*terms) == ref(*terms)

    def test_outer_and_inner_products(self):
        rng = random.Random(79)
        for k in (1, 3, 6):
            col = matrix_seq(rng, k, 1, 1000)
            row = matrix_seq(rng, 1, k, 1000)
            for a, b in ((row, col), (col, row)):
                assert conv((-1, a, b)) == ref((-1, a, b))

    def test_list_operands(self):
        # lists in place of tuples at every level give the same tuples
        rng = random.Random(83)
        for _ in range(200):
            terms = random_terms(rng, 64)
            got = conv(*((c, as_lists(a), as_lists(b)) for c, a, b in terms))
            assert got == ref(*terms), terms

    def test_longest_entry_all_zeros(self):
        # the result is trimmed, but the capacity check reads the untrimmed
        # length n, the longest entry's, zeros or not
        a = (((1, 2), (0, 0, 0, 0)), ((3,), ()))
        b = (((5,), (-1, 1)), ((0, 0, 0), (2,)))
        cases = ((5, [(1, a, [1, -1])]), (6, [(-2, a, b)]), (6, [(1, b, a), (1, a, b)]))
        for n, terms in cases:
            got = conv(*terms)
            assert got == ref(*terms)
            assert seq_len(got) == 3
            with pytest.raises(CapacityError, match=f"length {n} exceeds .* capacity {n - 2}$"):
                conv(*terms, cap=n - 2, label="probe")

    def test_largest_magnitude_in_a_short_entry(self):
        # the digit bound must see the large coefficient of the short entry
        top = 2**200 + 1
        a = (((1, 1, 1, 1), (top,)),)
        b = (((top,), (-top, 0, 1)), ((1, -1, 1), (top,)))
        for terms in ([(1, a, b)], [(3, a, [top, top])], [(-1, [top], b), (1, b, [1, 1])]):
            assert conv(*terms) == ref(*terms)

    def test_ragged_grids(self):
        # entries of one grid of different lengths and magnitudes
        rng = random.Random(89)

        def ragged(rows, cols):
            return tuple(
                tuple(scalar_seq(rng, rng.choice((2, 300))) for _ in range(cols))
                for _ in range(rows)
            )

        for _ in range(200):
            rows, inner, cols = (rng.randint(1, 3) for _ in range(3))
            s = scalar_seq(rng, 64)
            terms = [
                (1, ragged(rows, inner), ragged(inner, cols)),
                (-2, s, ragged(rows, cols)),
            ]
            assert conv(*terms) == ref(*terms), terms

    def test_scalar_matrix_and_coefficients(self):
        m = to_grid([((1, -2), (0, 3)), ((4, 0), (0, -1))], 2, 2)
        s = [2, -1]
        for c in (-2, -1, 1, 2):
            assert conv((c, s, m)) == ref((c, s, m))
            assert conv((c, m, s)) == ref((c, s, m))
            assert conv((c, s, s)) == (4 * c, -4 * c, c)


def identity_grid(n):
    return tuple(tuple((1,) if r == c else () for c in range(n)) for r in range(n))


class TestConformity:
    """Grids carry their shape, zero ones included, so a product that does
    not conform raises instead of being truncated."""

    def test_inner_dimensions_must_agree(self):
        with pytest.raises(ValueError, match="3x3 times 2x2"):
            conv((1, identity_grid(3), identity_grid(2)))
        row, col = to_grid([((1, 2, 3),)], 1, 3), to_grid([((1,), (2,))], 2, 1)
        with pytest.raises(ValueError, match="1x3 times 2x1"):
            conv((1, row, col))

    def test_terms_must_share_one_shape(self):
        i2, i3 = identity_grid(2), identity_grid(3)
        with pytest.raises(ValueError, match="2x2 and 3x3"):
            conv((1, i2, i2), (-1, i3, i3))
        with pytest.raises(ValueError, match="2x2 and scalar"):
            conv((1, [1], [1]), (1, i2, [1]))

    def test_zero_operands_are_checked_too(self):
        zero3 = to_grid([], 3, 3)
        with pytest.raises(ValueError, match="3x3 times 2x2"):
            conv((1, zero3, identity_grid(2)))
        with pytest.raises(ValueError, match="2x2 and 3x3"):
            conv((1, zero3, []), (1, identity_grid(2), [1]))


def untrimmed_length(terms):
    """Length n of the longest product, len a + len b - 1 over the terms
    whose operands both have nonzero length, read from the operands as
    stored (a grid's length being its longest entry's); 0 for none."""
    lengths = [(seq_len(a), seq_len(b)) for _, a, b in terms]
    return max((la + lb - 1 for la, lb in lengths if la and lb), default=0)


def fit(terms, cap, label):
    """The schoolbook result of the terms, once the untrimmed length n has
    been checked against the degree capacity ``cap``."""
    n = untrimmed_length(terms)
    if n and n > cap + 1:
        raise CapacityError(
            f"{label}: coefficient sequence of length {n} exceeds "
            f"its degree capacity {cap}",
            label,
        )
    return ref(*terms)


def outcome(fn, *args, **kwargs):
    """fn's result, or the label and message of the CapacityError it raised."""
    try:
        return fn(*args, **kwargs)
    except CapacityError as exc:
        return exc.label, str(exc)


class TestCheckedKernel:
    """``conv(..., cap=c, label=l)`` against ``fit(terms, c, l)`` for c at,
    one below and two below the untrimmed length n's degree n - 1."""

    @staticmethod
    def assert_checked_as_fit(terms):
        n = untrimmed_length(terms)
        for cap in (n - 2, n - 1, n):
            want = outcome(fit, terms, cap, "probe")
            assert outcome(conv, *terms, cap=cap, label="probe") == want, (terms, cap)

    @pytest.mark.parametrize("bits", [2, 64, 1000])
    def test_random_sums(self, bits):
        rng = random.Random(97 + bits)
        for _ in range(300):
            self.assert_checked_as_fit(random_terms(rng, bits))

    def test_edge_cases(self):
        rng = random.Random(101)
        s, t = scalar_seq(rng, 64, 3), scalar_seq(rng, 64, 2)
        a, b = matrix_seq(rng, 2, 3, 64), matrix_seq(rng, 3, 1, 64)
        m = to_grid([((1, 2), (3, 4))], 2, 2)
        longest_zero = (((1, 2), (0, 0, 0, 0)), ((3,), ()))
        cases = (
            [(1, s, t), (-1, t, s)],  # cancels everywhere
            [(1, [1, 1], [1, 1]), (-1, [1, 1], [0, 1])],  # cancels at the top
            [(1, a, b), (-1, a, b)],
            [(1, [0, 0], [0, 0, 0])],  # all-zero entries
            [(2, [0], to_grid([_mzero(2, 2)] * 3, 2, 2))],
            [(1, [], [1, 2])],  # zero-length operands
            [(1, [], m)],
            [(1, ((), ()), [1, 2])],
            [(1, [], [5]), (2, [1, 1], [3])],
            [],
            [(1, longest_zero, [1, -1])],  # the longest entry is all zeros
            [(-2, longest_zero, (((5,), (-1, 1)), ((0, 0, 0), (2,))))],
        )
        for terms in cases:
            self.assert_checked_as_fit(terms)

    def test_over_capacity_packs_nothing(self, monkeypatch):
        def pack(seq, k):
            raise AssertionError("packed")

        monkeypatch.setattr(scalars, "pack", pack)
        with pytest.raises(CapacityError, match="^probe: .* length 4 exceeds .* capacity 2$"):
            conv((1, [1, 2], [3, 4, 5]), cap=2, label="probe")

    def test_an_unpacked_entry_too_long_trips_the_check(self, monkeypatch):
        # a slip in digit extraction that adds one coefficient to a result
        # entry of the full untrimmed length n must raise at the capacity
        # n - 1 that the length n fits, naming the length n + 1
        m = to_grid([((1, 2), (3, 4)), ((0, 0), (0, 1))], 2, 2)
        cases = ([(1, [1, 2], [3, 4])], [(1, m, m)], [(2, [1, -1], m)])
        for terms in cases:
            n = untrimmed_length(terms)
            assert seq_len(conv(*terms)) == n
        real = scalars.digits
        monkeypatch.setattr(scalars, "digits", lambda v, k: real(v, k) + [0])
        for terms in cases:
            n = untrimmed_length(terms)
            assert outcome(conv, *terms, cap=n - 1, label="probe") == (
                "probe", f"probe: coefficient sequence of length {n + 1} "
                f"exceeds its degree capacity {n - 1}"
            )
