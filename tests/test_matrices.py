"""Rational-function matrices: structure operations, evaluation, and the
fraction-free elimination inverse used as the independent oracle."""

import random
from fractions import Fraction

import pytest

from helpers import load, rand_matrix, rand_weight
from wmpinv import matrices
from wmpinv.errors import PoleError, SingularMatrixError
from wmpinv.matrices import RfMatrix, constant_matrix
from wmpinv.matrixio import parse_entry
from wmpinv.scalars import RatFun


def e(text):
    return parse_entry(text)


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


class TestColumnsAndPartitions:
    def test_fixture_first_column(self):
        x = load("wmp_rank2_a.mat")
        assert x.column(1) == RfMatrix.from_rows([[e("s+1")], [e("s")], [e("s+1")]])

    def test_identity_column(self):
        assert RfMatrix.identity(3).column(2) == RfMatrix.from_rows(
            [[e("0")], [e("1")], [e("0")]]
        )

    def test_column_out_of_range(self):
        with pytest.raises(IndexError):
            RfMatrix.identity(3).column(4)

    def test_leading_columns_full_prefix(self):
        a = rand_matrix(random.Random(8), 3, 3)
        assert a.leading_columns(a.cols) == a

    def test_leading_columns_single(self):
        a = rand_matrix(random.Random(9), 3, 3)
        assert a.leading_columns(1) == a.column(1)

    def test_fixture_two_leading_columns(self):
        x = load("wmp_rank2_a.mat")
        two = x.leading_columns(2)
        assert two.cols == 2
        assert two.column(1) == x.column(1)
        assert two.column(2) == x.column(2)

    def test_fixture_partition(self):
        n1 = load("wmp_rank2_n.mat")
        part = n1.principal_partition(3)
        assert part.n_prev == RfMatrix.from_rows(
            [[e("s+1"), e("s+1")], [e("s+1"), e("s+2")]]
        )
        assert part.l == RfMatrix.from_rows([[e("s+1")], [e("s")]])
        assert part.n_ii == e("s+3")

    def test_identity_partition(self):
        part = RfMatrix.identity(3).principal_partition(2)
        assert part.n_prev == RfMatrix.identity(1)
        assert part.l.is_zero
        assert part.n_ii == RatFun(1)

    def test_diagonal_partition(self):
        d = RfMatrix.from_rows([[e("s"), e("0")], [e("0"), e("s+2")]])
        part = d.principal_partition(2)
        assert part.n_prev == RfMatrix.from_rows([[e("s")]])
        assert part.l.is_zero
        assert part.n_ii == e("s+2")

    def test_partition_out_of_range(self):
        with pytest.raises(IndexError):
            RfMatrix.identity(3).principal_partition(4)

    def test_reassembly_roundtrip(self):
        # the partition shape ([[prev, l], [l^T, corner]]) presumes symmetry,
        # which is what the weight matrices guarantee
        rng = random.Random(12)
        n = rand_weight(rng, 4, max_deg=2)
        for i in range(2, 5):
            part = n.principal_partition(i)
            corner = RfMatrix(1, 1, [part.n_ii])
            block = RfMatrix.block([[part.n_prev, part.l], [part.l.transpose(), corner]])
            assert block == n.leading_block(i)

    def test_leading_columns_recursion(self):
        rng = random.Random(13)
        a = rand_matrix(rng, 3, 4)
        for i in range(2, 5):
            prev = a.leading_columns(i - 1)
            joined = RfMatrix.from_rows(
                [list(prev.row(r)) + [a.column(i)[r, 0]] for r in range(a.rows)]
            )
            assert a.leading_columns(i) == joined


class TestFfInverse:
    def test_identity(self):
        assert RfMatrix.identity(3).ff_inverse() == RfMatrix.identity(3)

    def test_scalar(self):
        a = RfMatrix.from_rows([[e("s")]])
        assert a.ff_inverse() == RfMatrix.from_rows([[e("1/s")]])

    def test_constant_2x2_adjugate(self):
        # adjugate oracle: inv = adj / det with det = 3
        a = constant_matrix([[2, 1], [1, 2]])
        expected = constant_matrix(
            [[Fraction(2, 3), Fraction(-1, 3)], [Fraction(-1, 3), Fraction(2, 3)]]
        )
        assert a.ff_inverse() == expected

    def test_singular_raises(self):
        a = RfMatrix.from_rows([[e("s"), e("s")], [e("s"), e("s")]])
        with pytest.raises(SingularMatrixError):
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
        c = constant_matrix([[1, 2], [3, 4]])
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
