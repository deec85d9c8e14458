"""Rational-path recursion: stage formulas, the bordering inverse, and the
full weighted pseudoinverse."""

import random
from dataclasses import FrozenInstanceError, asdict

import pytest

from helpers import (
    count_calls,
    load,
    packed_divisions,
    rand_problem_matrix,
    rand_rational_problem,
    rand_weight,
)
from wmpinv import matrices, scalars
from wmpinv.errors import DegenerateWeightError, SingularMatrixError
from wmpinv.greville import (
    bordering_inverse,
    bordering_step,
    column_pinv_init,
    partition_stages,
    weighted_pinv,
)
from wmpinv.matrices import RfMatrix, WeightedProblem
from wmpinv.matrixio import parse_entry
from wmpinv.poly_greville import PolyMatrix
from wmpinv.poly_greville import bordering_inverse as poly_bordering_inverse
from wmpinv.poly_greville import weighted_pinv as poly_weighted_pinv
from wmpinv.scalars import Poly, RatFun
from wmpinv.verify import penrose_check


def e(text):
    return parse_entry(text)


def ones_1x2():
    return RfMatrix.from_rows([[e("1"), e("1")]])


class TestColumnPinvInit:
    def test_zero_column(self):
        col = RfMatrix.zeros(3, 1)
        assert column_pinv_init(col, RfMatrix.identity(3)) == RfMatrix.zeros(1, 3)

    def test_scalar_one(self):
        col = RfMatrix.from_rows([[e("1")]])
        assert column_pinv_init(col, RfMatrix.identity(1)) == col

    def test_ones_column_penrose_oracle(self):
        col = RfMatrix.from_rows([[e("1")], [e("1")]])
        x = column_pinv_init(col, RfMatrix.identity(2))
        assert x == RfMatrix.from_rows([[e("1/2"), e("1/2")]])
        rep = penrose_check(col, RfMatrix.identity(2), RfMatrix.identity(1), x)
        assert rep.all_hold

    def test_degenerate_weight(self):
        col = RfMatrix.from_rows([[e("1")], [e("0")]])
        m = RfMatrix.from_rows([[0, 1], [1, 0]])  # col^T M col == 0
        with pytest.raises(DegenerateWeightError):
            column_pinv_init(col, m)


def _stage1(problem):
    gen = partition_stages(problem)
    return gen, next(gen)


class TestStageFormulas:
    def test_orthogonal_columns(self):
        problem = WeightedProblem(RfMatrix.identity(2))
        states = list(partition_stages(problem))
        st = states[1]
        assert st.stage.proj.is_zero
        assert st.stage.resid == RfMatrix.from_rows([[e("0")], [e("1")]])
        assert st.stage.row == RfMatrix.from_rows([[e("0"), e("1")]])
        assert st.x == RfMatrix.identity(2)

    def test_dependent_column_by_hand(self):
        # two equal columns of a 1x2 matrix: proj = 1, resid = 0,
        # Schur factor = corner + proj^2 = 2, bottom row = 1/2
        problem = WeightedProblem(ones_1x2())
        states = list(partition_stages(problem))
        st = states[1]
        assert st.stage.proj == RfMatrix.from_rows([[e("1")]])
        assert st.stage.resid.is_zero
        assert st.stage.schur == RatFun(2)
        assert st.stage.row == RfMatrix.from_rows([[e("1/2")]])
        assert st.x == RfMatrix.from_rows([[e("1/2")], [e("1/2")]])

    def test_schur_factor_with_diagonal_weight(self):
        # same input, column weight diag(1, 4): factor = 4 + 1 = 5
        n = RfMatrix.from_rows([[1, 0], [0, 4]])
        problem = WeightedProblem(ones_1x2(), n_weight=n)
        states = list(partition_stages(problem))
        assert states[1].stage.schur == RatFun(5)

    def test_identity_weight_schur_is_one_when_all_couplings_vanish(self):
        # zero column appended: proj = 0, coupling = 0, factor = corner = 1
        a = RfMatrix.from_rows([[e("1"), e("0")], [e("0"), e("0")]])
        problem = WeightedProblem(a)
        states = list(partition_stages(problem))
        assert states[1].stage.schur == RatFun(1)

    def test_rank2_fixture_selects_branches(self):
        # full-rank step at stage 2, dependent step at stage 3
        problem = WeightedProblem(
            load("wmp_rank2_a.mat"), load("wmp_rank2_m.mat"), load("wmp_rank2_n.mat")
        )
        states = list(partition_stages(problem))
        assert not states[1].stage.resid.is_zero
        assert states[2].stage.resid.is_zero

    def test_stage_consistency(self):
        # after every stage, the partial pseudoinverse solves the
        # subproblem of the leading columns and the leading weight block
        rng = random.Random(23)
        for _ in range(10):
            a = rand_problem_matrix(rng, max_dim=4)
            m = rand_weight(rng, a.rows)
            n = rand_weight(rng, a.cols)
            problem = WeightedProblem(a, m, n)
            for st in partition_stages(problem):
                rep = penrose_check(
                    a.leading_columns(st.i), m, n.leading_block(st.i), st.x
                )
                assert rep.all_hold, (st.i, rep.first_failure)


class TestWeightedPinv:
    def test_identity(self):
        for k in (1, 2, 4):
            assert weighted_pinv(WeightedProblem(RfMatrix.identity(k))) == RfMatrix.identity(k)

    def test_rank2_fixture_entry(self):
        x = weighted_pinv(
            WeightedProblem(
                load("wmp_rank2_a.mat"), load("wmp_rank2_m.mat"), load("wmp_rank2_n.mat")
            )
        )
        assert x[0, 0] == e("2*s^2*(2+s)/(12+32*s+33*s^2+14*s^3)")

    def test_hessenberg_first_row(self):
        x = weighted_pinv(WeightedProblem(load("wmp_hessenberg_a.mat")))
        assert list(x.row(0)) == [e("s/(1+s^2)"), e("0"), e("0"), e("0"), e("0")]

    def test_hessenberg_division_count(self, monkeypatch):
        # Each gcd's trial-division quotients serve as the cofactors, each
        # matrix-product entry is reduced once per pair of operand
        # denominators, and one matrix operation runs each gcd of two
        # nonconstant operands once; a count does not depend on the host.
        # Dividing again by every gcd and reducing every partial sum took
        # 308 divisions here, grouping by the product's denominator without
        # reusing gcds 132, and forming each residual's squared length as
        # r^T M r rather than (r^T M)*a_i 88, and forming each stage's
        # rank-one updates as a matrix product and a difference 82, and
        # long-dividing each rank-one update's numerator by its hint 80.
        # Those hint divisions now run on packed values, and all 4 find
        # their quotient, so none falls back to long division.
        a = load("wmp_hessenberg_a.mat")
        calls = count_calls(monkeypatch, Poly, "__divmod__")
        packed = packed_divisions(monkeypatch)
        x = weighted_pinv(WeightedProblem(a))
        monkeypatch.undo()
        assert x == load("wmp_hessenberg_x_true.mat")
        assert len(calls) <= 76
        assert packed == [True] * 4

    def test_hessenberg_gcd_count(self, monkeypatch):
        # 294 gcds before one matrix operation reused its gcds, 178 before
        # each stage's rank-one updates reused one gcd per denominator triple
        # and tried each entry's first gcd as a hint; the count includes
        # the triples' gcds, which ``matrices`` calls by its own name; 152
        # before the dependent branch formed proj^T*Nprev once
        a = load("wmp_hessenberg_a.mat")
        calls = count_calls(monkeypatch, scalars, "gcd_cofactors")
        monkeypatch.setattr(matrices, "gcd_cofactors", scalars.gcd_cofactors)
        x = weighted_pinv(WeightedProblem(a))
        monkeypatch.undo()
        assert x == load("wmp_hessenberg_x_true.mat")
        assert len(calls) <= 150

    @pytest.mark.parametrize("seed", [None, 11, 38])
    def test_result_does_not_rest_on_a_trial_division(self, monkeypatch, seed):
        # every trial division missing (so every hint fails and every gcd
        # takes its fallback) leaves each entry reduced by its own gcd; the
        # 4x4 weighted problems of seeds 11 and 38 meet a hint 15 and 12 times
        if seed is None:
            problem = WeightedProblem(load("wmp_hessenberg_a.mat"))
        else:
            problem = rand_rational_problem(random.Random(seed), 4)
        expected = weighted_pinv(problem)
        monkeypatch.setattr(scalars, "_quotient", lambda a, d: None)
        assert weighted_pinv(problem) == expected

    def test_output_shape(self):
        rng = random.Random(29)
        a = rand_problem_matrix(rng)
        x = weighted_pinv(WeightedProblem(a, rand_weight(rng, a.rows), rand_weight(rng, a.cols)))
        assert (x.rows, x.cols) == (a.cols, a.rows)

    def test_all_zero_matrix(self):
        a = RfMatrix.zeros(3, 2)
        assert weighted_pinv(WeightedProblem(a)) == RfMatrix.zeros(2, 3)

    def test_asymmetric_weight_rejected(self):
        # one validation serves both paths: same ValueError, same message
        a = RfMatrix.identity(2)
        bad = RfMatrix.from_rows([[e("1"), e("s")], [e("0"), e("1")]])
        wide = RfMatrix.from_rows([[1, 0, 0], [0, 1, 0]])
        cases = (
            (bad, None, "row weight must be symmetric"),
            (None, bad, "column weight must be symmetric"),
            (wide, None, "row weight must be square of order = row count"),
            (None, RfMatrix.identity(3),
             "column weight must be square of order = column count"),
        )

        def to_poly(w):
            return None if w is None else PolyMatrix.from_rf_matrix(w)

        for m_weight, n_weight, message in cases:
            with pytest.raises(ValueError) as rational:
                WeightedProblem(a, m_weight=m_weight, n_weight=n_weight)
            with pytest.raises(ValueError) as coefficient:
                poly_weighted_pinv(to_poly(a), to_poly(m_weight), to_poly(n_weight))
            assert str(rational.value) == str(coefficient.value) == message

    @pytest.mark.parametrize("rows, cols", [(0, 3), (3, 0)])
    def test_zero_dimensions_rejected(self, rows, cols):
        # one validation serves both paths: same ValueError, same message
        message = rf"^matrix dimensions must be positive, got {rows}x{cols}$"
        with pytest.raises(ValueError, match=message):
            weighted_pinv(WeightedProblem(RfMatrix.zeros(rows, cols)))
        with pytest.raises(ValueError, match=message):
            poly_weighted_pinv(PolyMatrix.zeros(rows, cols))

    def test_weight_of_the_other_matrix_type_rejected(self):
        rf = RfMatrix.identity(2)
        poly = PolyMatrix.identity(2)
        message = r"row weight is a PolyMatrix, but the matrix is a RfMatrix"
        with pytest.raises(TypeError, match=message):
            WeightedProblem(rf, poly)
        with pytest.raises(TypeError, match=message):
            weighted_pinv(WeightedProblem(rf, poly))
        with pytest.raises(TypeError, match="column weight is a RfMatrix, but the "
                           "matrix is a PolyMatrix"):
            poly_weighted_pinv(poly, None, rf)

    def test_singular_column_weight_reports_stage(self):
        a = ones_1x2()
        n = RfMatrix.from_rows([[0, 0], [0, 1]])
        with pytest.raises(SingularMatrixError) as err:
            weighted_pinv(WeightedProblem(a, n_weight=n))
        assert err.value.stage == 1

    def test_degenerate_residual_form_reports_stage(self):
        # row weight diag(1, 0) kills the residual's quadratic form at
        # stage 2 while leaving stage 1 fine
        a = RfMatrix.identity(2)
        m = RfMatrix.from_rows([[1, 0], [0, 0]])
        with pytest.raises(DegenerateWeightError) as err:
            weighted_pinv(WeightedProblem(a, m_weight=m))
        assert err.value.stage == 2

    def test_degenerate_schur_factor_reports_stage(self):
        # equal columns with the all-ones column weight: corner + d^T N d
        # - 2 d^T l collapses to 1 + 1 - 2 = 0
        n = RfMatrix.from_rows([[1, 1], [1, 1]])
        with pytest.raises(DegenerateWeightError) as err:
            weighted_pinv(WeightedProblem(ones_1x2(), n_weight=n))
        assert err.value.stage == 2


class TestFrozenStages:
    def test_yielded_states_stay_intact_and_frozen(self):
        # stage 2 takes the independent branch, stage 3 the dependent one
        problem = WeightedProblem(
            load("wmp_rank2_a.mat"), load("wmp_rank2_m.mat"), load("wmp_rank2_n.mat")
        )
        states, snapshots = [], []
        for st in partition_stages(problem):
            states.append(st)
            snapshots.append(asdict(st))
        # the three shapes: no stage record at stage 1, and a Schur factor
        # exactly when the residual is zero
        assert [st.stage is None for st in states] == [True, False, False]
        for st in states[1:]:
            assert (st.stage.schur is None) == (not st.stage.resid.is_zero)
        assert [st.stage.schur is None for st in states[1:]] == [True, False]
        for st, snapshot in zip(states, snapshots):
            assert asdict(st) == snapshot, f"stage {st.i}"
            with pytest.raises(FrozenInstanceError):
                st.x = None
            if st.stage is not None:
                with pytest.raises(FrozenInstanceError):
                    st.stage.proj = None


class TestConcurrency:
    def test_independent_computations_share_no_state(self):
        # values are immutable and there are no global caches, so distinct
        # computations must give identical results under a thread pool
        from concurrent.futures import ThreadPoolExecutor

        rng = random.Random(83)
        problems = []
        for _ in range(8):
            a = rand_problem_matrix(rng, max_dim=3)
            problems.append(
                WeightedProblem(a, rand_weight(rng, a.rows), rand_weight(rng, a.cols))
            )
        serial = [weighted_pinv(p) for p in problems]
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(weighted_pinv, problems))
        assert serial == threaded


def _blocks(inv):
    """(core, border, corner) of an enlarged inverse: its leading block,
    the last column above the corner, and the corner scalar."""
    k = inv.rows - 1
    assert [inv[k, c] for c in range(k)] == [inv[r, k] for r in range(k)]
    core = RfMatrix.from_rows([[inv[r, c] for c in range(k)] for r in range(k)])
    border = RfMatrix.from_rows([[inv[r, k]] for r in range(k)])
    return core, border, inv[k, k]


class TestBordering:
    def test_2x2_adjugate_values(self):
        n = RfMatrix.from_rows([[2, 1], [1, 2]])
        part = n.principal_partition(2)
        prev_inv = RfMatrix.from_rows([[e("1/2")]])
        core, border, corner = _blocks(bordering_step(prev_inv, part))
        assert corner == RatFun.const(2) / 3
        assert border == RfMatrix.from_rows([[e("-1/3")]])
        assert core == RfMatrix.from_rows([[e("2/3")]])

    def test_diagonal(self):
        n = RfMatrix.from_rows([[e("s"), e("0")], [e("0"), e("s+1")]])
        part = n.principal_partition(2)
        inv = bordering_step(n.leading_block(1).ff_inverse(), part)
        core, border, corner = _blocks(inv)
        assert corner == e("1/(s+1)")
        assert border.is_zero
        assert core == RfMatrix.from_rows([[e("1/s")]])

    def test_identity(self):
        part = RfMatrix.identity(2).principal_partition(2)
        core, border, corner = _blocks(bordering_step(RfMatrix.identity(1), part))
        assert (core, border.is_zero, corner) == (RfMatrix.identity(1), True, RatFun(1))

    def test_singular_block_names_its_order(self):
        # called directly, outside any recursion, the step still names the
        # order of the singular block it would have built
        part = RfMatrix.from_rows([[1, 1], [1, 1]]).principal_partition(2)
        with pytest.raises(SingularMatrixError) as err:
            bordering_step(RfMatrix.identity(1), part)
        assert err.value.stage == 2
        assert str(err.value) == "leading principal block is symbolically singular"

    def test_scalar_inverse(self):
        n = RfMatrix.from_rows([[e("s+2")]])
        assert bordering_inverse(n) == RfMatrix.from_rows([[e("1/(s+2)")]])

    def test_identity_inverse(self):
        assert bordering_inverse(RfMatrix.identity(4)) == RfMatrix.identity(4)

    def test_fixture_matches_elimination_oracle(self):
        n1 = load("wmp_rank2_n.mat")
        assert bordering_inverse(n1) == n1.ff_inverse()

    def test_random_matches_elimination_oracle(self):
        rng = random.Random(37)
        for _ in range(15):
            n = rand_weight(rng, rng.randint(1, 5))
            inv = bordering_inverse(n)
            assert inv == n.ff_inverse()
            assert n * inv == RfMatrix.identity(n.rows)

    def test_coefficient_path_matches_both_oracles(self):
        rng = random.Random(61)
        for k in range(1, 7):
            n = rand_weight(rng, k)
            inv = poly_bordering_inverse(PolyMatrix.from_rf_matrix(n)).to_rf_matrix()
            assert inv == bordering_inverse(n) == n.ff_inverse(), f"order {k}"

    def test_singular_leading_block_stage_index(self):
        n = RfMatrix.from_rows([[1, 1, 0], [1, 1, 0], [0, 0, 1]])
        messages = []
        for invert in (
            bordering_inverse,
            lambda m: poly_bordering_inverse(PolyMatrix.from_rf_matrix(m)),
        ):
            with pytest.raises(SingularMatrixError) as err:
                invert(n)
            assert err.value.stage == 2
            messages.append(str(err.value))
        assert messages[0] == messages[1]
