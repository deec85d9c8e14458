"""Verification oracles: Penrose identities and path agreement, and the
test-only pointwise evaluation-consistency oracle of ``helpers``."""

import random
from fractions import Fraction

import pytest

from helpers import eval_consistency_check, load, rand_problem_matrix, rand_weight
from wmpinv.greville import weighted_pinv
from wmpinv.matrices import RfMatrix, WeightedProblem
from wmpinv.matrixio import parse_entry
from wmpinv.poly_greville import cleared
from wmpinv.scalars import Poly, RatFun
from wmpinv.verify import PATHS, PenroseReport, cross_path_check, penrose_check


def e(text):
    return parse_entry(text)


def _reference_first_nonzero(mat):
    for r in range(mat.rows):
        for c in range(mat.cols):
            if not mat[r, c].is_zero:
                return r + 1, c + 1, mat[r, c]
    return None


def reference_penrose_check(a, m_weight, n_weight, x):
    """The four residuals as products of rational-function matrices, the
    way the checker computed them before it cleared denominators; kept as
    an independent reference for the cleared integer form."""
    ax = a * x
    xa = x * a
    m_ax = m_weight * ax
    n_xa = n_weight * xa
    residuals = (
        ("(1)", ax * a - a),
        ("(2)", xa * x - x),
        ("(3M)", m_ax.transpose() - m_ax),
        ("(4N)", n_xa.transpose() - n_xa),
    )
    flags = []
    first_failure = None
    for tag, res in residuals:
        hit = _reference_first_nonzero(res)
        flags.append(hit is None)
        if hit is not None and first_failure is None:
            first_failure = (tag, *hit)
    return PenroseReport(*flags, first_failure=first_failure)


def _perturbed(x, r, c, by=RatFun(1)):
    rows = [list(x.row(i)) for i in range(x.rows)]
    rows[r][c] = rows[r][c] + by
    return RfMatrix.from_rows(rows)


def _unequal_pair(s):
    """Whether some entries S[r][c] and S[c][r] of the square matrix S
    differ in degree, so that over one common denominator their
    coefficient sequences differ in length."""
    def degree(f):
        return None if f.is_zero else f.num.degree - f.den.degree

    return any(
        degree(s[r, c]) != degree(s[c, r]) for r in range(s.rows) for c in range(r)
    )


def _fixture_triples():
    rank2 = [load(f"wmp_rank2_{k}.mat") for k in ("a", "m", "n")]
    poly3_a, poly3_w = load("wmp_poly3_a.mat"), load("wmp_poly3_w.mat")
    hess_a, eye5 = load("wmp_hessenberg_a.mat"), RfMatrix.identity(5)
    return [
        (*rank2, load("wmp_rank2_x.mat")),
        (*rank2, load("wmp_rank2_x_canonical.mat")),
        (load("wmp_rational_a.mat"), *rank2[1:], load("wmp_rational_x.mat")),
        (poly3_a, poly3_w, poly3_w, load("wmp_poly3_x.mat")),
        (poly3_a, poly3_w, poly3_w, load("wmp_poly3_x_canonical.mat")),
        (hess_a, eye5, eye5, load("wmp_hessenberg_x_true.mat")),
        (hess_a, eye5, eye5, load("wmp_hessenberg_x_printed.mat")),
    ]


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

    def test_wrong_row_weight_shape(self):
        eye2 = RfMatrix.identity(2)
        with pytest.raises(ValueError, match="weight M must be 2x2, got 3x3"):
            penrose_check(eye2, RfMatrix.identity(3), eye2, eye2)

    def test_wrong_column_weight_shape(self):
        a = RfMatrix.from_rows([[e("s"), e("1")]])
        x = weighted_pinv(WeightedProblem(a))
        with pytest.raises(ValueError, match="weight N must be 2x2, got 1x1"):
            penrose_check(a, RfMatrix.identity(1), RfMatrix.identity(1), x)


class TestPenroseReference:
    """The cleared integer checker reports exactly what the rational-function
    products report, residual entry included."""

    def assert_same(self, a, m, n, x):
        assert penrose_check(a, m, n, x) == reference_penrose_check(a, m, n, x)

    def test_fixture_triples(self):
        for a, m, n, x in _fixture_triples():
            self.assert_same(a, m, n, x)

    def test_random_problems_and_perturbed_candidates(self):
        rng = random.Random(12)
        for _ in range(40):
            a = rand_problem_matrix(rng)
            m, n = rand_weight(rng, a.rows), rand_weight(rng, a.cols)
            x = weighted_pinv(WeightedProblem(a, m, n))
            self.assert_same(a, m, n, x)
            self.assert_same(a, m, n, _perturbed(x, 0, 0))
            self.assert_same(a, m, n, _perturbed(x, x.rows - 1, x.cols - 1))

    def test_fixture_candidates_perturbed_at_first_and_last_entry(self):
        for a, m, n, x in _fixture_triples():
            for r, c in ((0, 0), (x.rows - 1, x.cols - 1)):
                self.assert_same(a, m, n, _perturbed(x, r, c))

    def test_zero_candidate_and_one_by_one(self):
        for a, m, n, _ in _fixture_triples():
            self.assert_same(a, m, n, RfMatrix.zeros(a.cols, a.rows))
        a = RfMatrix.from_rows([[e("(1+s)/(2-s^2)")]])
        w = RfMatrix.from_rows([[e("3+s^2")]])
        x = weighted_pinv(WeightedProblem(a, w, w))
        self.assert_same(a, w, w, x)
        self.assert_same(a, w, w, _perturbed(x, 0, 0))

    def test_inverse_under_another_weight_fails_three_or_four(self):
        a, m, n = (load(f"wmp_rank2_{k}.mat") for k in ("a", "m", "n"))
        eye = RfMatrix.identity(3)
        for x, tag in (
            (weighted_pinv(WeightedProblem(a, eye, n)), "(3M)"),
            (weighted_pinv(WeightedProblem(a, m, eye)), "(4N)"),
        ):
            rep = penrose_check(a, m, n, x)
            assert rep.eq1_holds and rep.eq2_holds
            assert rep.first_failure[0] == tag
            self.assert_same(a, m, n, x)

    def test_asymmetric_pairs_of_unequal_length(self):
        # X perturbed by s^20 in one off-diagonal entry, under non-identity
        # weights, makes S = MAX asymmetric in entries of unequal length.
        # X + (I - XA) W AX and X + XA W (I - AX), W = s^20 in that entry,
        # still satisfy (1) and (2), so there T = NXA, resp. S, is the first
        # failure, again with pairs of unequal length.
        a, m, n = (load(f"wmp_rank2_{k}.mat") for k in ("a", "m", "n"))
        x = weighted_pinv(WeightedProblem(a, m, n))
        eye = RfMatrix.identity(3)
        for r, c in ((0, 1), (2, 1)):
            w = _perturbed(RfMatrix.zeros(3, 3), r, c, e("s^20"))
            cases = (
                (x + w, "(1)", lambda x: m * a * x),
                (x + (eye - x * a) * w * (a * x), "(4N)", lambda x: n * x * a),
                (x + x * a * w * (eye - a * x), "(3M)", lambda x: m * a * x),
            )
            for candidate, tag, product in cases:
                rep = penrose_check(a, m, n, candidate)
                assert rep.first_failure[0] == tag, (r, c)
                assert not (rep.eq3m_holds and rep.eq4n_holds), (r, c)
                assert _unequal_pair(product(candidate)), (r, c, tag)
                self.assert_same(a, m, n, candidate)

    def test_candidate_satisfying_one_but_not_two(self):
        # X + (I - XA) W (I - AX) still satisfies (1), as A (I - XA) = 0,
        # but not (2), for W = s^20 in one entry
        a, m, n = (load(f"wmp_rank2_{k}.mat") for k in ("a", "m", "n"))
        x = weighted_pinv(WeightedProblem(a, m, n))
        eye = RfMatrix.identity(3)
        w = _perturbed(RfMatrix.zeros(3, 3), 0, 1, e("s^20"))
        candidate = x + (eye - x * a) * w * (eye - a * x)
        rep = penrose_check(a, m, n, candidate)
        assert rep.eq1_holds and not rep.eq2_holds
        assert rep.first_failure[0] == "(2)"
        self.assert_same(a, m, n, candidate)

    def test_residual_coefficients_beyond_every_operand_coefficient(self):
        # X + 2^64 s^3 in one entry: over its denominator L^2 d the first
        # failing residual has a coefficient larger than any of P, Xn, Mn,
        # Nn and L d, so the packing width must bound the residuals
        a, m, n = (load(f"wmp_rank2_{k}.mat") for k in ("a", "m", "n"))
        x = weighted_pinv(WeightedProblem(a, m, n))
        x = _perturbed(x, 1, 0, RatFun(Poly([0, 0, 0, 2**64])))
        (p, l_den), (xn, d), (mn, _), (nn, _) = map(cleared, (a, x, m, n))
        ld = Poly(l_den) * Poly(d)
        operands = [
            v for g in (p, xn, mn, nn) for row in g.coeffs for f in row for v in f
        ]
        rep = penrose_check(a, m, n, x)
        tag, _, _, residual = rep.first_failure
        assert tag == "(1)"
        residual = residual * RatFun(Poly(l_den) * ld)
        assert residual.den == Poly([1])
        largest = max(map(abs, operands + list(ld.coeffs)))
        assert max(map(abs, residual.num.coeffs)) > largest
        self.assert_same(a, m, n, x)

    @pytest.mark.parametrize("tag", ["(3M)", "(4N)"])
    def test_weight_coefficients_set_the_packing_width(self, tag):
        # A = [1; 1] and X = [s, 1 - s] satisfy (1) and (2), as XA = 1.
        # Under M = diag(W, 1), W = 2^100, entry (1, 2) of S^T - S, S = MAX,
        # is s - W*(1 - s): its coefficients are bounded only through the
        # weight term 2|P||Xn|max(|Mn|, |Nn|) of the packing width, as P, Xn
        # and L d have coefficients of at most 1.  (4N) is the transpose.
        w = 2**100
        a, x = RfMatrix.from_rows([[1], [1]]), RfMatrix.from_rows([[e("s"), e("1-s")]])
        big, one = RfMatrix.from_rows([[w, 0], [0, 1]]), RfMatrix.identity(1)
        if tag == "(3M)":
            args, residual = (a, big, one, x), Poly([-w, w + 1])
        else:
            args, residual = (a.transpose(), one, big, x.transpose()), Poly([1, -w - 1])
        rep = penrose_check(*args)
        assert rep == PenroseReport(
            True, True, tag == "(4N)", tag == "(3M)", (tag, 1, 2, RatFun(residual))
        )
        self.assert_same(*args)


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

    def test_a_wrong_path_is_caught(self, monkeypatch):
        # the coefficient path patched to twice the true inverse
        pinv, inverse = PATHS["poly"]
        monkeypatch.setitem(PATHS, "poly", (lambda p: pinv(p).scale(RatFun(2)), inverse))
        a = load("wmp_rational_a.mat")
        assert not cross_path_check(a, None, None)
        assert not cross_path_check(a, load("wmp_rank2_m.mat"), load("wmp_rank2_n.mat"))


class TestEvalConsistency:
    def test_hessenberg_at_generic_points(self):
        a = load("wmp_hessenberg_a.mat")
        eye = RfMatrix.identity(5)
        x = weighted_pinv(WeightedProblem(a))
        rep = eval_consistency_check(a, eye, eye, x, [1, 2, Fraction(1, 2)])
        assert rep.generic_rank == 4
        assert all(p.status == "pass" for p in rep.points)

    def test_constant_matrix_trivially_agrees(self):
        a = RfMatrix.from_rows([[1, 2], [2, 4]])
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

    def test_degenerate_constant_recursion_skipped_with_reason(self):
        # M = diag(s, 1) gives column 1 a zero weighted length at s = 0
        eye = RfMatrix.identity(2)
        m = RfMatrix.from_rows([[e("s"), e("0")], [e("0"), e("1")]])
        rep = eval_consistency_check(eye, m, eye, eye, [0, 1])
        assert [p.status for p in rep.points] == ["skip", "pass"]
        assert rep.points[0].reason.startswith("constant recursion: ")
        assert rep.all_checked_pass

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
