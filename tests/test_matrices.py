"""Rational-function matrices: structure operations, evaluation, and the
fraction-free elimination inverse used as the independent oracle."""

import random
from fractions import Fraction
from operator import add, sub

import pytest

from helpers import load, rand_matrix, rand_poly, rand_weight
from wmpinv import matrices
from wmpinv.errors import PoleError, SingularMatrixError
from wmpinv.matrices import RfMatrix
from wmpinv.matrixio import parse_entry
from wmpinv.poly_greville import PolyMatrix
from wmpinv.scalars import Packs, Poly, RatFun, pack


def e(text):
    return parse_entry(text)


def fraction_rank(values):
    """Rank of a grid of Fractions by Gaussian elimination over Q."""
    work = [list(row) for row in values]
    rank = 0
    for c in range(len(work[0]) if work else 0):
        pivot = next((r for r in range(rank, len(work)) if work[r][c]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for r in range(rank + 1, len(work)):
            factor = work[r][c] / work[rank][c]
            work[r] = [x - factor * y for x, y in zip(work[r], work[rank])]
        rank += 1
    return rank


class TestArithmetic:
    def test_identity_product(self):
        b = RfMatrix.from_rows([[e("s"), e("1")], [e("1/s"), e("s+1")]])
        assert RfMatrix.identity(2) * b == b

    def test_scalar_inverse_pair(self):
        a = RfMatrix.from_rows([[e("s")]])
        b = RfMatrix.from_rows([[e("1/s")]])
        assert a * b == RfMatrix.identity(1)

    def test_additive_inverse(self):
        a = rand_matrix(random.Random(2), 3, 2)
        assert (a + (-a)).is_zero

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            RfMatrix.identity(2) * RfMatrix.identity(3)
        with pytest.raises(ValueError):
            RfMatrix.identity(2) + RfMatrix.zeros(2, 3)


def matrix(rows, cols):
    """RfMatrix.from_rows(rows); a list without rows is zeros(0, cols)."""
    return RfMatrix.from_rows(rows) if rows else RfMatrix.zeros(0, cols)


def fold_product(a, b):
    # reference: every entry as the left fold acc + a*b, one reduction per
    # partial sum
    out = []
    for r in range(a.rows):
        out.append([])
        for c in range(b.cols):
            acc = RatFun(0)
            for t in range(a.cols):
                acc = acc + a[r, t] * b[t, c]
            out[r].append(acc)
    return matrix(out, b.cols)


# a few shared denominators, some constant and some not primitive
DENS = [e(d) for d in ("1", "2", "s+1", "s-1", "s^2-1", "2*s+2")]


def shared_den_matrix(rng, rows, cols, dens):
    entries = [
        [
            RatFun(0) if rng.random() < 0.2
            else RatFun(rand_poly(rng, 1, -1, 1)) / rng.choice(dens)
            for _ in range(cols)
        ]
        for _ in range(rows)
    ]
    return matrix(entries, cols)


class TestProduct:
    """RfMatrix.__mul__ sums each entry's products by the pair of operand
    denominators."""

    def test_scalar_operand_is_a_type_error(self):
        # a scalar product is spelled RfMatrix.scale
        a = RfMatrix.identity(2)
        for scalar in (2, RatFun(1, 3)):
            with pytest.raises(TypeError):
                a * scalar
            with pytest.raises(TypeError):
                scalar * a

    def test_matches_the_left_fold(self):
        rng = random.Random(47)
        for _ in range(300):
            m, k, n = rng.randint(0, 4), rng.randint(0, 6), rng.randint(0, 4)
            # few denominators on each side make groups of several products
            a = shared_den_matrix(rng, m, k, rng.choice([DENS, DENS[2:4]]))
            # polynomial or constant-denominator entries keep a's denominators
            b = shared_den_matrix(rng, k, n, rng.choice([DENS, DENS[:2]]))
            if k and rng.random() < 0.3:  # a zero row of a, a zero column of b
                a = RfMatrix.from_rows([[0] * k, *a.grid])
                b = RfMatrix.from_rows(row + (0,) for row in b.grid)
            assert a * b == fold_product(a, b)

    def test_group_sum_cancels_to_zero(self):
        a = RfMatrix.from_rows([[e("1/(s+1)"), e("1/(s+1)"), e("1/2")]])
        b = RfMatrix.from_rows(
            [[e("s"), e("1")], [e("-s"), e("1")], [e("0"), e("-4/(s+1)")]]
        )
        assert a * b == fold_product(a, b) == RfMatrix.from_rows([[e("0"), e("0")]])

    def test_group_sum_is_reduced(self):
        # 1/(s^2-1) + s/(s^2-1) = 1/(s-1), and 1/2 + 1/2 over a constant
        a = RfMatrix.from_rows([[e("1/(s^2-1)"), e("s/(s^2-1)"), e("1/2"), e("1/2")]])
        b = RfMatrix.from_rows([[1], [1], [0], [0]])
        assert a * b == fold_product(a, b) == RfMatrix.from_rows([[e("1/(s-1)")]])
        b = RfMatrix.from_rows([[0], [0], [1], [1]])
        assert a * b == RfMatrix.identity(1)

    def test_operand_group_cancels_to_zero(self):
        # s/((s+1)(s-1)) - s/((s+1)(s-1)) in one group, next to a lone product
        a = RfMatrix.from_rows([[e("1/(s+1)"), e("1/(s+1)"), e("s")]])
        b = RfMatrix.from_rows([[e("s/(s-1)")], [e("-s/(s-1)")], [e("1/s")]])
        assert a * b == fold_product(a, b) == RfMatrix.identity(1)

    def test_operand_group_shares_a_factor_with_one_denominator(self):
        # (1 + s)/((s+1)(s-1)) = 1/(s-1): the sum cancels a.den only
        a = RfMatrix.from_rows([[e("1/(s+1)"), e("s/(s+1)")]])
        b = RfMatrix.from_rows([[e("1/(s-1)")], [e("1/(s-1)")]])
        assert a * b == fold_product(a, b) == RfMatrix.from_rows([[e("1/(s-1)")]])

    def test_constant_next_to_polynomial_denominators(self):
        # group (2, s+1) sums to 1/2, group (s+1, 1) to 3/(s+1)
        a = RfMatrix.from_rows([[e("1/2"), e("1/2"), e("1/(s+1)")]])
        b = RfMatrix.from_rows([[e("1/(s+1)")], [e("s/(s+1)")], [e("3")]])
        assert a * b == fold_product(a, b) == RfMatrix.from_rows([[e("(7+s)/(2+2*s)")]])

    def test_empty_inner_dimension(self):
        assert RfMatrix.zeros(2, 0) * RfMatrix.zeros(0, 3) == RfMatrix.zeros(2, 3)
        assert RfMatrix.zeros(0, 2) * RfMatrix.identity(2) == RfMatrix.zeros(0, 2)


class TestEntrywise:
    """Entrywise +, - and scale give the per-entry RatFun operators."""

    def test_match_the_scalar_operators(self):
        rng = random.Random(59)
        for _ in range(100):
            rows, cols = rng.randint(0, 4), rng.randint(0, 4)
            a = shared_den_matrix(rng, rows, cols, DENS)
            b = shared_den_matrix(rng, rows, cols, rng.choice([DENS, DENS[2:4]]))
            f = RatFun(rand_poly(rng, 1, -2, 2)) / rng.choice(DENS)
            for got, op in ((a + b, add), (a - b, sub)):
                assert got == matrix(
                    [[op(a[r, c], b[r, c]) for c in range(cols)] for r in range(rows)], cols
                )
            assert a.scale(f) == matrix(
                [[f * a[r, c] for c in range(cols)] for r in range(rows)], cols
            )


class TestMinusOuter:
    """x.minus_outer(u, v) is x - u*v for a column u and a row v, each
    entry reduced by its own gcd."""

    def test_hint_hit_miss_and_a_shared_factor_after_a_hit(self):
        # every entry is over (s+1)(s+2) before reduction: 3s+3 leaves the
        # hint s+1, s+2 misses it, and (s+1)(s+2) hits it with a quotient
        # s+2 that still shares a factor with (s+1)(s+2)/(s+1)
        x = RfMatrix.from_rows(
            [[e("(3*s+4)/(s^2+3*s+2)"), e("(s+3)/(s^2+3*s+2)"), e("(s^2+3*s+3)/(s^2+3*s+2)")]]
        )
        u = RfMatrix.from_rows([[e("1/(s+1)")]])
        v = RfMatrix.from_rows([[e("1/(s+2)")] * 3])
        expected = RfMatrix.from_rows([[e("3/(s+2)"), e("1/(s+1)"), e("1")]])
        assert x.minus_outer(u, v) == x - u * v == expected

    def test_over_keeps_the_first_nonconstant_gcd_as_its_hint(self):
        # each numerator is given packed at k = 5, as ``minus_outer`` gives it
        packs = Packs(5)

        def over(coeffs, den, hint):
            return RatFun.over(pack(coeffs, 5), den, hint, packs)

        den, hint = Poly([2, 3, 1]), []
        assert over([2], den, hint) == RatFun(2, den)
        assert hint == []
        assert over([3, 3], den, hint) == e("3/(s+2)")
        assert hint == [Poly([1, 1]), Poly([2, 1])]
        assert over([2, 1], den, hint) == e("1/(s+1)")
        assert over([-4, -6, -2], den, hint) == RatFun(-2)
        assert over([], den, hint) == RatFun(0)
        assert hint == [Poly([1, 1]), Poly([2, 1])]

    def test_zero_factors_leave_the_entry(self):
        x = RfMatrix.from_rows([[e("1/(s+1)"), e("s")], [e("2"), e("0")]])
        u = RfMatrix.from_rows([[e("0")], [e("1/s")]])
        v = RfMatrix.from_rows([[e("s"), e("0")]])
        assert x.minus_outer(u, v) == RfMatrix.from_rows(
            [[e("1/(s+1)"), e("s")], [e("1"), e("0")]]
        )

    def test_empty_shapes(self):
        assert RfMatrix.zeros(0, 3).minus_outer(
            RfMatrix.zeros(0, 1), RfMatrix.zeros(1, 3)
        ) == RfMatrix.zeros(0, 3)
        assert RfMatrix.zeros(2, 0).minus_outer(
            RfMatrix.zeros(2, 1), RfMatrix.zeros(1, 0)
        ) == RfMatrix.zeros(2, 0)

    @pytest.mark.parametrize(
        "u, v",
        [((3, 1), (1, 3)), ((2, 2), (2, 3)), ((2, 1), (1, 2)), ((2, 1), (2, 3))],
    )
    def test_nonconformable_shapes(self, u, v):
        x = RfMatrix.zeros(2, 3)
        message = (
            rf"^cannot subtract the product of {u[0]}x{u[1]} and "
            rf"{v[0]}x{v[1]} from 2x3$"
        )
        with pytest.raises(ValueError, match=message):
            x.minus_outer(RfMatrix.zeros(*u), RfMatrix.zeros(*v))

    def test_non_matrix_operand(self):
        with pytest.raises(TypeError, match=r"^RfMatrix expected, got list$"):
            RfMatrix.zeros(1, 1).minus_outer([[1]], RfMatrix.zeros(1, 1))


def big_entry(rng, dens):
    """Zero, a signed constant or a polynomial with coefficients up to
    +-2^64, over one of ``dens``."""
    kind = rng.random()
    if kind < 0.2:
        return RatFun(0)
    terms = 1 if kind < 0.4 else rng.randint(2, 5)
    num = Poly([rng.choice((-1, 1)) * rng.randint(0, 2**64) for _ in range(terms)])
    return RatFun(num or 1) / rng.choice(dens)


class TestPackedKernels:
    """``minus_outer`` and the grouped sums of ``__mul__`` form each entry's
    numerator as one packed integer and unpack it once; at coefficients up
    to +-2^64, with zero, constant and negative entries, they give what
    entrywise RatFun arithmetic gives."""

    @staticmethod
    def big_matrix(rng, rows, cols):
        dens = rng.choice([DENS, DENS[:2], DENS[2:4]])
        return matrix([[big_entry(rng, dens) for _ in range(cols)] for _ in range(rows)], cols)

    def test_minus_outer_is_the_entrywise_difference(self):
        rng = random.Random(64)
        for _ in range(120):
            rows, cols = rng.randint(1, 4), rng.randint(1, 4)
            x, u, v = (self.big_matrix(rng, *shape) for shape in ((rows, cols), (rows, 1), (1, cols)))
            expected = matrix(
                [[x[r, c] - u[r, 0] * v[0, c] for c in range(cols)] for r in range(rows)], cols
            )
            assert x.minus_outer(u, v) == expected

    def test_product_is_the_left_fold(self):
        rng = random.Random(65)
        for _ in range(80):
            m, k, n = rng.randint(1, 3), rng.randint(1, 5), rng.randint(1, 3)
            a, b = self.big_matrix(rng, m, k), self.big_matrix(rng, k, n)
            assert a * b == fold_product(a, b)

    def test_extreme_signed_coefficients(self):
        # every numerator coefficient is a product of two or three factors
        # of magnitude 2^64, so it is far above every operand coefficient
        big = 2**64
        x = RfMatrix.from_rows([[RatFun(Poly([big, -big])), RatFun(-big)]])
        u = RfMatrix.from_rows([[RatFun(Poly([-big, big]), 3)]])
        v = RfMatrix.from_rows([[RatFun(Poly([big, big])), RatFun(big, Poly([0, 1]))]])
        expected = matrix([[x[0, c] - u[0, 0] * v[0, c] for c in range(2)]], 2)
        assert x.minus_outer(u, v) == expected
        assert expected[0, 0] == RatFun(Poly([3 * big + big**2, -3 * big, -big**2]), 3)
        a = RfMatrix.from_rows([[RatFun(Poly([big, -big])), RatFun(Poly([-big, -big]))]])
        b = RfMatrix.from_rows([[RatFun(Poly([-big, big]))], [RatFun(Poly([big, -big]))]])
        assert a * b == fold_product(a, b) == matrix([[RatFun(Poly([-2 * big**2, 2 * big**2]))]], 1)


class TestTranspose:
    def test_row_to_column(self):
        a = RfMatrix.from_rows([[e("1"), e("s")]])
        assert a.transpose() == RfMatrix.from_rows([[e("1")], [e("s")]])

    def test_symmetric_fixed_point(self):
        s = RfMatrix.from_rows([[e("1"), e("s")], [e("s"), e("s^2")]])
        assert s.transpose() == s
        assert s.is_symmetric

    def test_involution(self):
        a = rand_matrix(random.Random(4), 3, 4)
        assert a.transpose().transpose() == a


def _same(a):
    return a


class TestColumnsAndPartitions:
    """The ``Grid`` accessors, on RfMatrix and on the PolyMatrix of the
    same polynomial input (``kind`` converts an RfMatrix to either)."""

    @pytest.fixture(params=[_same, PolyMatrix.from_rf_matrix], ids=["rational", "poly"])
    def kind(self, request):
        return request.param

    @staticmethod
    def entry(kind, text):
        return kind(RfMatrix.from_rows([[e(text)]]))[0, 0]

    def test_fixture_first_column(self, kind):
        x = kind(load("wmp_rank2_a.mat"))
        column = RfMatrix.from_rows([[e("s+1")], [e("s")], [e("s+1")]])
        assert x.column(1) == kind(column)

    def test_identity_column(self, kind):
        assert kind(RfMatrix.identity(3)).column(2) == kind(
            RfMatrix.from_rows([[e("0")], [e("1")], [e("0")]])
        )

    def test_column_out_of_range(self, kind):
        with pytest.raises(IndexError):
            kind(RfMatrix.identity(3)).column(4)

    def test_leading_columns_full_prefix(self, kind):
        a = kind(rand_matrix(random.Random(8), 3, 3))
        assert a.leading_columns(a.cols) == a

    def test_leading_columns_single(self, kind):
        a = kind(rand_matrix(random.Random(9), 3, 3))
        assert a.leading_columns(1) == a.column(1)

    def test_fixture_two_leading_columns(self, kind):
        x = kind(load("wmp_rank2_a.mat"))
        two = x.leading_columns(2)
        assert two.cols == 2
        assert two.column(1) == x.column(1)
        assert two.column(2) == x.column(2)

    def test_fixture_partition(self, kind):
        n1 = kind(load("wmp_rank2_n.mat"))
        prev, border, corner = n1.principal_partition(3)
        assert prev == kind(
            RfMatrix.from_rows([[e("s+1"), e("s+1")], [e("s+1"), e("s+2")]])
        )
        assert border == kind(RfMatrix.from_rows([[e("s+1")], [e("s")]]))
        assert corner == self.entry(kind, "s+3")

    def test_identity_partition(self, kind):
        prev, border, corner = kind(RfMatrix.identity(3)).principal_partition(2)
        assert prev == kind(RfMatrix.identity(1))
        assert border.is_zero
        assert corner == self.entry(kind, "1")

    def test_diagonal_partition(self, kind):
        d = kind(RfMatrix.from_rows([[e("s"), e("0")], [e("0"), e("s+2")]]))
        prev, border, corner = d.principal_partition(2)
        assert prev == kind(RfMatrix.from_rows([[e("s")]]))
        assert border.is_zero
        assert corner == self.entry(kind, "s+2")

    def test_partition_out_of_range(self, kind):
        with pytest.raises(IndexError):
            kind(RfMatrix.identity(3)).principal_partition(4)

    def test_non_square_block_and_partition(self, kind):
        a = kind(rand_matrix(random.Random(10), 2, 3))
        with pytest.raises(ValueError, match="non-square"):
            a.leading_block(1)
        with pytest.raises(ValueError, match="non-square"):
            a.principal_partition(2)

    def test_reassembly_roundtrip(self, kind):
        # the partition shape ([[prev, l], [l^T, corner]]) presumes symmetry,
        # which is what the weight matrices guarantee
        rng = random.Random(12)
        n = kind(rand_weight(rng, 4, max_deg=2))
        for i in range(2, 5):
            prev, border, corner = n.principal_partition(i)
            upper = tuple(p + b for p, b in zip(prev.grid, border.grid))
            block = upper + (border.transpose().row(0) + (corner,),)
            assert block == n.leading_block(i).grid

    def test_leading_columns_recursion(self, kind):
        rng = random.Random(13)
        a = kind(rand_matrix(rng, 3, 4))
        for i in range(2, 5):
            prev = a.leading_columns(i - 1)
            joined = tuple(p + c for p, c in zip(prev.grid, a.column(i).grid))
            assert a.leading_columns(i).grid == joined


class TestFfInverse:
    def test_identity(self):
        assert RfMatrix.identity(3).ff_inverse() == RfMatrix.identity(3)

    def test_scalar(self):
        a = RfMatrix.from_rows([[e("s")]])
        assert a.ff_inverse() == RfMatrix.from_rows([[e("1/s")]])

    def test_constant_2x2_adjugate(self):
        # adjugate oracle: inv = adj / det with det = 3
        a = RfMatrix.from_rows([[2, 1], [1, 2]])
        expected = RfMatrix.from_rows(
            [[Fraction(2, 3), Fraction(-1, 3)], [Fraction(-1, 3), Fraction(2, 3)]]
        )
        assert a.ff_inverse() == expected

    def test_non_square_raises(self):
        with pytest.raises(ValueError, match="^inverse of a non-square matrix$"):
            RfMatrix.from_rows([[1, 0, 0], [0, 1, 0]]).ff_inverse()

    def test_singular_raises(self):
        a = RfMatrix.from_rows([[e("s"), e("s")], [e("s"), e("s")]])
        with pytest.raises(SingularMatrixError):
            a.ff_inverse()

    def test_singular_names_the_first_column_without_a_pivot(self):
        a = RfMatrix.from_rows([[1, 1, 0], [1, 1, 0], [0, 0, 1]])
        with pytest.raises(SingularMatrixError, match=r"singular \(column 2\)$"):
            a.ff_inverse()

    def test_pivot_search_past_zero(self):
        a = RfMatrix.from_rows([[e("0"), e("1")], [e("s"), e("0")]])
        inv = a.ff_inverse()
        assert a * inv == RfMatrix.identity(2)

    def test_random_inverses_up_to_5x5(self):
        rng = random.Random(31)
        done = 0
        while done < 20:
            k = rng.randint(1, 5)
            a = rand_weight(rng, k)  # nonsingular by construction
            inv = a.ff_inverse()
            assert a * inv == RfMatrix.identity(k)
            assert inv * a == RfMatrix.identity(k)
            done += 1

    def test_rational_entries(self):
        a = RfMatrix.from_rows([[e("1/s"), e("1")], [e("0"), e("s+1")]])
        inv = a.ff_inverse()
        assert a * inv == RfMatrix.identity(2)


class TestClearDenominators:
    def test_non_primitive_denominator_gives_integer_coefficients(self):
        a = RfMatrix.from_rows([[e("1/(2*s+2)"), e("s/3")], [e("(1-s)/(4*s)"), e("7")]])
        grid, den = a.clear_denominators()
        coeffs = [c for row in grid for p in row for c in p.coeffs] + list(den.coeffs)
        assert all(type(c) is int for c in coeffs)
        for r in range(2):
            for c in range(2):
                assert RatFun(grid[r][c], den) == a[r, c]

    @pytest.mark.parametrize("den", ["1+s^2", "2*s+2"])
    def test_one_gcd_per_distinct_denominator(self, monkeypatch, den):
        calls = []

        def counted(p, q):
            calls.append((p, q))
            return real(p, q)

        real = matrices.poly_gcd
        monkeypatch.setattr(matrices, "poly_gcd", counted)
        a = RfMatrix.from_rows(
            [[e(f"({2 * r + 1}+{2 * c}*s)/({den})") for c in range(3)] for r in range(3)]
        )
        grid, l_den = a.clear_denominators()
        assert len(calls) == 1
        assert RfMatrix.from_rows(
            [[RatFun(p, l_den) for p in row] for row in grid]
        ) == a


class TestEval:
    def test_substitution(self):
        a = RfMatrix.from_rows([[e("s"), e("1/(s-1)")]])
        assert a.eval_at(2) == ((Fraction(2), Fraction(1)),)

    def test_pole_position_reported(self):
        a = RfMatrix.from_rows([[e("1"), e("1/s")]])
        with pytest.raises(PoleError) as err:
            a.eval_at(0)
        assert err.value.position == (1, 2)

    def test_constant_matrix_fixed(self):
        c = RfMatrix.from_rows([[1, 2], [3, 4]])
        assert c.eval_at(Fraction(5, 7)) == ((1, 2), (3, 4))

    def test_eval_commutes_with_arithmetic(self):
        rng = random.Random(19)
        for _ in range(20):
            a = rand_matrix(rng, 2, 3)
            b = rand_matrix(rng, 3, 2)
            x = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
            try:
                prod = (a * b).eval_at(x)
            except PoleError:
                continue
            av, bv = a.eval_at(x), b.eval_at(x)
            manual = tuple(
                tuple(sum(av[r][t] * bv[t][c] for t in range(3)) for c in range(2))
                for r in range(2)
            )
            assert prod == manual


class TestRank:
    def test_full_rank_identity(self):
        assert RfMatrix.identity(4).rank() == 4

    def test_rank_deficient_fixture(self):
        assert load("wmp_rank2_a.mat").rank() == 2

    def test_hessenberg_rank(self):
        assert load("wmp_hessenberg_a.mat").rank() == 4

    def test_wide_matrix_with_a_zero_leading_column(self):
        a = RfMatrix.from_rows(
            [[e("0"), e("s"), e("1"), e("0")], [e("0"), e("2*s"), e("2"), e("1/s")]]
        )
        assert a.rank() == 2
        assert a.leading_columns(3).rank() == 1
        assert RfMatrix.zeros(2, 3).rank() == 0

    def test_random_rectangular_matches_pointwise_rank(self):
        # rank over Q(s) is the largest rank of A(s0) over the points s0
        # where A has no pole; a handful of points reach it except by a
        # coincidence that a fixed seed rules out
        rng = random.Random(41)
        deficient = 0
        for _ in range(40):
            rows, cols = rng.randint(1, 4), rng.randint(1, 4)
            a = rand_matrix(rng, rows, cols, max_deg=2)
            if rng.random() < 0.5 and cols > 1:  # a dependent last column
                first = a.column(1).scale(RatFun(rand_poly(rng, 1)))
                a = RfMatrix.from_rows(r[:-1] + f for r, f in zip(a.grid, first.grid))
            expected = max(fraction_rank(a.eval_at(s0)) for s0 in (2, 5, -7, 11, 13))
            assert a.rank() == expected
            deficient += expected < min(rows, cols)
        assert deficient > 5


class TestGuards:
    """The argument checks of the matrix types, each with its message."""

    def test_entry_index_out_of_range(self):
        with pytest.raises(IndexError, match=r"^entry \(2, 0\) out of range$"):
            RfMatrix.identity(2)[2, 0]

    def test_leading_column_count_out_of_range(self):
        with pytest.raises(IndexError, match=r"^column count 3 out of range 1\.\.2$"):
            RfMatrix.identity(2).leading_columns(3)

    def test_inexact_entry_rejected(self):
        with pytest.raises(TypeError, match="^matrix entry must be exact, got float$"):
            RfMatrix.from_rows([[0.5]])

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError, match="^ragged rows$"):
            RfMatrix.from_rows([[1, 2], [3]])

    def test_poly_matrix_grid_must_match_the_shape(self):
        with pytest.raises(ValueError, match="^coefficient grid is not 2x2$"):
            PolyMatrix(2, 2, [[(1,), (1,)]])

    def test_equal_matrices_hash_equal(self):
        assert hash(RfMatrix.identity(2)) == hash(RfMatrix.identity(2))

    def test_repr_names_shape_and_entries(self):
        assert repr(RfMatrix.from_rows([[RatFun(1, Poly([0, 1]))]])) == "RfMatrix(1x1: 1/s)"
