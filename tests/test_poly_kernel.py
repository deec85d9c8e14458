"""The coefficient path's Kronecker-substitution kernel against schoolbook
Cauchy products.

The reference below is the termwise arithmetic the coefficient path used
before the kernel: scalar, scalar-matrix and matrix-matrix convolutions
that multiply constant matrices coefficient pair by coefficient pair, and
a termwise sum that pads the shorter sequence with zeros.  The kernel must
reproduce its values and its untrimmed lengths exactly, since every
capacity check reads the length before trimming.
"""

import random

import pytest

from wmpinv.poly_greville import _conv


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
    return seq


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
            want = reference(*terms)
            got = _conv(*terms)
            assert len(got) == len(want), terms
            assert list(got) == list(want), terms

    def test_empty_operands_add_nothing(self):
        m = [((1, 2), (3, 4))]
        assert _conv((1, [], [1, 2])) == []
        assert _conv((1, [1, 2], [])) == []
        assert _conv((1, [], m)) == []
        assert _conv((1, m, [])) == []
        assert _conv() == []
        assert _conv((1, [], [5]), (2, [1, 1], [3])) == [6, 6]

    def test_all_zero_operands_keep_their_length(self):
        zero = [_mzero(2, 2)] * 3
        assert _conv((1, [0, 0], [0, 0, 0])) == [0, 0, 0, 0]
        assert _conv((1, zero, zero)) == [_mzero(2, 2)] * 5
        assert _conv((2, [0], zero)) == [_mzero(2, 2)] * 3

    def test_untrimmed_operands_keep_their_length(self):
        a = [((1,), (2,)), ((0,), (0,))]  # 2x1, trailing zero matrix
        b = [((3, -1),), ((0, 0),), ((0, 0),)]  # 1x2, two trailing zeros
        got = _conv((1, a, b))
        assert got == reference((1, a, b))
        assert len(got) == 4

    def test_sums_that_cancel_keep_their_length(self):
        rng = random.Random(73)
        for bits in (3, 1000):
            s, t = scalar_seq(rng, bits, 3), scalar_seq(rng, bits, 2)
            a, b = matrix_seq(rng, 2, 3, bits), matrix_seq(rng, 3, 1, bits)
            n = len(s) + len(t) - 1
            assert _conv((1, s, t), (-1, t, s)) == [0] * n
            assert _conv((2, s, t), (-1, s, t), (-1, t, s)) == [0] * n
            if a and b:
                n = len(a) + len(b) - 1
                assert _conv((1, a, b), (-1, a, b)) == [_mzero(2, 1)] * n
                assert _conv((2, s, a), (-1, a, s), (-1, s, a)) == reference(
                    (2, s, a), (-1, a, s), (-1, s, a)
                )

    def test_coefficients_at_the_digit_bound(self):
        # equal-sign extreme coefficients make the middle output coefficient
        # as large as the packing bound allows
        for top in (1, 3, 2**1000 - 1):
            for sign in (1, -1):
                a = [((top,) * 6,) * 2] * 5
                b = [((sign * top,),) * 6] * 5
                s = [sign * top] * 5
                for terms in (
                    [(2, a, b), (-2, [((top,),) * 2] * 3, s)],
                    [(-2, s, s), (-2, s, s)],
                    [(2, s, a)],
                ):
                    assert _conv(*terms) == reference(*terms)

    def test_outer_and_inner_products(self):
        rng = random.Random(79)
        for k in (1, 3, 6):
            col = matrix_seq(rng, k, 1, 1000)
            row = matrix_seq(rng, 1, k, 1000)
            for a, b in ((row, col), (col, row)):
                assert _conv((-1, a, b)) == reference((-1, a, b))

    def test_scalar_matrix_and_coefficients(self):
        m = [((1, -2), (0, 3)), ((4, 0), (0, -1))]
        s = [2, -1]
        for c in (-2, -1, 1, 2):
            assert _conv((c, s, m)) == reference((c, s, m))
            assert _conv((c, m, s)) == reference((c, s, m))
            assert _conv((c, s, s)) == [4 * c, -4 * c, c]
