"""Verification oracles: Penrose identities, path agreement, pointwise
evaluation consistency."""

import random
from fractions import Fraction

import pytest

from helpers import load, rand_problem_matrix, rand_weight
from wmpinv.greville import WeightedProblem, weighted_pinv
from wmpinv.matrices import RfMatrix, constant_matrix
from wmpinv.matrixio import parse_entry
from wmpinv.scalars import RatFun
from wmpinv.verify import cross_path_check, eval_consistency_check, penrose_check


def e(text):
    return parse_entry(text)


class TestPenroseCheck:
    def test_identity_case(self):
        eye = RfMatrix.identity(3)
        rep = penrose_check(eye, eye, eye, eye)
        assert rep.all_hold
        assert rep.first_failure is None

    def test_fixture_printed_output_holds(self):
        rep = penrose_check(
            load("wmp_rank2_a.mat"),
            load("wmp_rank2_m.mat"),
            load("wmp_rank2_n.mat"),
            load("wmp_rank2_x.mat"),
        )
        assert rep.all_hold

    def test_corrupted_entry_fails_equation_one(self):
        x = load("wmp_rank2_x.mat")
        rows = [list(x.row(r)) for r in range(x.rows)]
        rows[0][0] = rows[0][0] + RatFun(1)
        corrupted = RfMatrix.from_rows(rows)
        rep = penrose_check(
            load("wmp_rank2_a.mat"),
            load("wmp_rank2_m.mat"),
            load("wmp_rank2_n.mat"),
            corrupted,
        )
        assert not rep.eq1_holds
        tag, r, c, residual = rep.first_failure
        assert tag == "(1)"
        assert (r, c) == (1, 1)
        assert not residual.is_zero

    def test_failure_reports_are_consistent(self):
        rng = random.Random(67)
        for _ in range(10):
            a = rand_problem_matrix(rng, max_dim=3)
            m, n = rand_weight(rng, a.rows), rand_weight(rng, a.cols)
            x = weighted_pinv(WeightedProblem(a, m, n))
            rep = penrose_check(a, m, n, x)
            assert rep.all_hold
            assert rep.first_failure is None

    def test_unweighted_reduction_to_classical_penrose(self):
        # with identity weights the four identities are the classical ones
        a = load("wmp_hessenberg_a.mat")
        x = weighted_pinv(WeightedProblem(a))
        eye = RfMatrix.identity(5)
        assert penrose_check(a, eye, eye, x).all_hold
        assert (a * x * a) == a
        assert (x * a * x) == x
        assert (a * x).transpose() == a * x
        assert (x * a).transpose() == x * a

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            penrose_check(
                RfMatrix.identity(2),
                RfMatrix.identity(2),
                RfMatrix.identity(2),
                RfMatrix.zeros(3, 2),
            )


class TestCrossPathCheck:
    def test_identity_triple(self):
        eye = RfMatrix.identity(3)
        assert cross_path_check(eye, eye, eye)

    def test_polynomial_fixture(self):
        w = load("wmp_poly3_w.mat")
        assert cross_path_check(load("wmp_poly3_a.mat"), w, w)

    def test_hessenberg_fixture(self):
        m = RfMatrix.identity(5)
        assert cross_path_check(load("wmp_hessenberg_a.mat"), m, m)

    def test_rational_fixture(self):
        m, n = load("wmp_rank2_m.mat"), load("wmp_rank2_n.mat")
        assert cross_path_check(load("wmp_rational_a.mat"), m, n)


class TestEvalConsistency:
    def test_hessenberg_at_generic_points(self):
        a = load("wmp_hessenberg_a.mat")
        eye = RfMatrix.identity(5)
        x = weighted_pinv(WeightedProblem(a))
        rep = eval_consistency_check(a, eye, eye, x, [1, 2, Fraction(1, 2)])
        assert rep.generic_rank == 4
        assert all(p.status == "pass" for p in rep.points)

    def test_constant_matrix_trivially_agrees(self):
        a = constant_matrix([[1, 2], [2, 4]])
        eye = RfMatrix.identity(2)
        x = weighted_pinv(WeightedProblem(a))
        rep = eval_consistency_check(a, eye, eye, x, [0, 5, Fraction(-3, 7)])
        assert all(p.status == "pass" for p in rep.points)

    def test_pole_point_skipped_with_reason(self):
        a = load("wmp_rational_a.mat")
        m, n = load("wmp_rank2_m.mat"), load("wmp_rank2_n.mat")
        x = weighted_pinv(WeightedProblem(a, m, n))
        rep = eval_consistency_check(a, m, n, x, [0, 1])
        assert rep.points[0].status == "skip"
        assert "pole" in rep.points[0].reason
        assert rep.points[1].status == "pass"
        assert rep.all_checked_pass

    def test_random_problems_consistent_at_rational_points(self):
        # the weights are positive definite at every real point, so any
        # non-pole, full-generic-rank point must check out exactly
        rng = random.Random(79)
        for _ in range(5):
            a = rand_problem_matrix(rng, max_dim=3)
            m, n = rand_weight(rng, a.rows), rand_weight(rng, a.cols)
            x = weighted_pinv(WeightedProblem(a, m, n))
            rep = eval_consistency_check(
                a, m, n, x, [1, Fraction(-2, 3), Fraction(5, 7)]
            )
            assert rep.all_checked_pass, rep.points

    def test_rank_drop_point_skipped(self):
        # the evaluated input loses its generic rank at s = 0, so the point
        # is skipped no matter what the candidate looks like there
        a = RfMatrix.from_rows([[e("s")]])
        eye = RfMatrix.identity(1)
        finite_candidate = RfMatrix.from_rows([[e("0")]])
        rep = eval_consistency_check(a, eye, eye, finite_candidate, [0, 2])
        assert rep.points[0].status == "skip"
        assert "rank" in rep.points[0].reason
        # away from the drop the wrong candidate is caught as a failure
        assert rep.points[1].status == "fail"
        assert not rep.all_checked_pass
