"""The weight-coupling column after a full-column-rank prefix.

Each stage of both paths adds the coupling column (I - X*prefix)*N^-1*l.
When the first i-1 columns have full column rank, A*X*A = A gives
X*prefix = I, so the column is zero; both paths then skip it, and the
coefficient path carries no factor of the weight inverse's denominator.
These tests run the full formula where it is skipped, pin what the skip
saves, and pin the errors that the weight inverse still raises.
"""

import random
from collections import Counter
from dataclasses import fields, replace

import pytest

from helpers import (
    count_calls,
    doubled_identity,
    load,
    rand_problem_matrix,
    rand_rational_problem,
    rand_singular_weight,
    rand_weight,
)
from wmpinv import greville, matrices, poly_greville, scalars
from wmpinv.errors import SingularMatrixError
from wmpinv.matrices import RfMatrix, WeightedProblem
from wmpinv.matrixio import parse_matrix_file
from wmpinv.poly_greville import PolyMatrix
from wmpinv.scalars import Poly


def over_poly(problem):
    """The same problem with polynomial A and weights, for the
    coefficient path."""
    return WeightedProblem(
        *(PolyMatrix.from_rf_matrix(m) for m in (problem.a, problem.m_weight, problem.n_weight))
    )


def states_until_error(stages):
    """The states a stage generator yields before it stops, by an
    arithmetic error or at its end."""
    states = []
    try:
        for st in stages:
            states.append(st)
    except ArithmeticError:
        pass
    return states


def rational_couplings(problem):
    """(whether the prefix has full column rank, whether the full coupling
    formula gives zero, the new state) for each stage after the first that
    the rational path completes."""
    a = problem.a
    states = states_until_error(greville.partition_stages(problem))
    for prev, cur in zip(states, states[1:]):
        _, border, _ = problem.n_weight.principal_partition(cur.i)
        prefix = a.leading_columns(prev.i)
        t = prev.ninv * border
        yield prev.rank == prev.i, (t - prev.x * (prefix * t)).is_zero, cur


def poly_couplings(problem):
    """As ``rational_couplings``, with ``step_coupling`` forced down its
    formula branch by a state whose rank falls short."""
    a = problem.a
    states = states_until_error(poly_greville.partition_stages(problem))
    for prev, cur in zip(states, states[1:]):
        _, border, _ = problem.n_weight.principal_partition(cur.i)
        prefix = a.leading_columns(prev.i)
        num, _ = poly_greville.step_coupling(replace(prev, rank=-1), prefix, border)
        # the column the stage recorded is zero wherever it was skipped
        assert prev.rank < prev.i or not any(map(any, cur.stage.coupling_num))
        yield prev.rank == prev.i, not any(map(any, num)), cur


@pytest.mark.parametrize("weight", [rand_weight, rand_singular_weight])
def test_coupling_formula_is_zero_after_a_full_rank_prefix(weight):
    # seeded: 300 problems of up to 4x4, degree 1, some with zeroed or
    # duplicated columns, each weight SPD or singular PSD
    rng = random.Random(25)
    tally = Counter()
    for _ in range(300):
        a = rand_problem_matrix(rng, 4, 1)
        problem = WeightedProblem(a, weight(rng, a.rows), weight(rng, a.cols))
        for path, stages in (
            ("rational", rational_couplings(problem)),
            ("poly", poly_couplings(over_poly(problem))),
        ):
            for full, zero, cur in stages:
                assert cur.rank == a.leading_columns(cur.i).rank()
                if full:
                    assert zero, f"{path} stage {cur.i}"
                key = (path, "skipped" if full else "zero" if zero else "nonzero")
                tally[key] += 1
    for path in ("rational", "poly"):
        assert tally[path, "skipped"] > 0
        assert tally[path, "nonzero"] > 0


# full-column-rank A; each N has a singular leading block: the 1x1 corner,
# a 2x2 block with a nonzero border, and a zero border over a zero corner
SINGULAR_N = [
    ("matrix 2 2\n1; 0\n0; 1\n", "matrix 2 2\n0; 1\n1; 0\n",
     1, "leading 1x1 block is symbolically singular"),
    ("matrix 3 3\n1+s; s; 0\n0; 1; s\n1; 0; 1\n", "matrix 3 3\n1; 1; 0\n1; 1; 0\n0; 0; 1\n",
     2, "leading principal block is symbolically singular"),
    ("matrix 3 3\n1+s; s; 0\n0; 1; s\n1; 0; 1\n", "matrix 3 3\n1; 0; 0\n0; 0; 0\n0; 0; 1\n",
     2, "leading principal block is symbolically singular"),
]


@pytest.mark.parametrize("a_text, n_text, stage, message", SINGULAR_N)
def test_singular_weight_block_raises_on_a_full_rank_input(a_text, n_text, stage, message):
    # the weight inverse is still grown at every stage, so a full-rank A,
    # whose coupling column is never formed, still meets the singular block
    a, n = parse_matrix_file(a_text), parse_matrix_file(n_text)
    assert a.rank() == a.cols
    problem = WeightedProblem(a, RfMatrix.identity(a.rows), n)
    for path, problem in (
        (greville.partition_stages, problem),
        (poly_greville.partition_stages, over_poly(problem)),
    ):
        with pytest.raises(SingularMatrixError) as info:
            list(path(problem))
        assert (info.value.stage, str(info.value)) == (stage, message)


class TestFullRankCounts:
    """Count guards on the full-column-rank weighted fixture; a count
    does not depend on the host."""

    @staticmethod
    def problem():
        a, w = load("wmp_poly3_a.mat"), load("wmp_poly3_w.mat")
        return WeightedProblem(a, w, w)

    def test_rank_of_every_prefix(self):
        problem = self.problem()
        assert [st.rank for st in greville.partition_stages(problem)] == [1, 2, 3]
        assert [st.rank for st in poly_greville.partition_stages(over_poly(problem))] == [1, 2, 3]

    def test_rational_products(self, monkeypatch):
        # 18 products when the coupling column was formed at every stage
        calls = count_calls(monkeypatch, RfMatrix, "__mul__")
        states = list(greville.partition_stages(self.problem()))
        monkeypatch.undo()
        assert len(calls) == 12
        assert states[-1].x == load("wmp_poly3_x.mat")

    def test_rational_divisions_and_gcds(self, monkeypatch):
        # 49 divisions and 81 gcds when the coupling column was formed at
        # every stage, 39 divisions before the rank-one updates' hint
        # divisions ran on packed values; ``matrices`` calls the gcd by its
        # own name
        divisions = count_calls(monkeypatch, Poly, "__divmod__")
        gcds = count_calls(monkeypatch, scalars, "gcd_cofactors")
        monkeypatch.setattr(matrices, "gcd_cofactors", scalars.gcd_cofactors)
        x = greville.weighted_pinv(self.problem())
        monkeypatch.undo()
        assert x == load("wmp_poly3_x.mat")
        assert len(divisions) <= 32
        assert len(gcds) <= 63

    def test_no_convolution_in_the_coupling_step(self, monkeypatch):
        problem = self.problem()
        convs = count_calls(monkeypatch, poly_greville, "conv")
        inside = []
        step = poly_greville.step_coupling

        def counted(*args):
            before = len(convs)
            out = step(*args)
            inside.append(len(convs) - before)
            return out

        monkeypatch.setattr(poly_greville, "step_coupling", counted)
        *_, last = poly_greville.partition_stages(over_poly(problem))
        monkeypatch.undo()
        assert inside == [0, 0]
        # 36 convolutions when the coupling column was formed at every stage
        assert len(convs) == 24
        assert last.x.to_rf_matrix() == load("wmp_poly3_x.mat")


class TestZeroBorderCounts:
    """On the Hessenberg fixture N = I, so every border l is zero and so
    is t = N^-1*l: no stage forms the coupling column, although the first
    two columns have rank 1, so that the rank test alone would form it at
    stages 3 to 5."""

    @staticmethod
    def problem():
        return WeightedProblem(load("wmp_hessenberg_a.mat"))

    def test_rational_products(self, monkeypatch):
        # 36 products when the coupling column was formed after every
        # rank shortfall, 26 when the zero border still formed N^-1*l, 20
        # when the identity weights were multiplied by, 15 when the
        # dependent stage 2 formed proj^T*l
        calls = count_calls(monkeypatch, RfMatrix, "__mul__")
        states = list(greville.partition_stages(self.problem()))
        monkeypatch.undo()
        assert [st.rank for st in states] == [1, 1, 2, 3, 4]
        assert len(calls) == 14
        assert states[-1].x == load("wmp_hessenberg_x_true.mat")

    def test_no_convolution_in_the_coupling_step(self, monkeypatch):
        convs = count_calls(monkeypatch, poly_greville, "conv")
        inside = []
        step = poly_greville.step_coupling

        def counted(*args):
            before = len(convs)
            out = step(*args)
            inside.append(len(convs) - before)
            return out

        monkeypatch.setattr(poly_greville, "step_coupling", counted)
        *_, last = poly_greville.partition_stages(over_poly(self.problem()))
        monkeypatch.undo()
        # 4 convolutions in each of the last three steps when the formula ran
        assert inside == [0, 0, 0, 0]
        # 40 when the identity weights were convolved with and each zero
        # border step formed its core as 1*nbar, 32 when the dependent
        # stage 2 formed proj^T*l and lhs = dn - y*l^T
        assert len(convs) == 30
        assert last.x.to_rf_matrix() == load("wmp_hessenberg_x_true.mat")



class TestIdentityWeights:
    """``WeightedProblem`` records once, by value, whether each weight is
    the identity; omitted and explicit identity weights then skip every
    product by I on both paths, while 2*I, which gives the same
    pseudoinverse, is multiplied by."""

    @staticmethod
    def problems(a):
        rows, cols = a.rows, a.cols
        return (
            WeightedProblem(a),
            WeightedProblem(a, RfMatrix.identity(rows), RfMatrix.identity(cols)),
            WeightedProblem(a, doubled_identity(rows), doubled_identity(cols)),
        )

    def test_derived_flags(self):
        a = load("wmp_rank2_a.mat")
        omitted, explicit, doubled = self.problems(a)
        flags = [(p.m_is_identity, p.n_is_identity) for p in (omitted, explicit, doubled)]
        assert flags == [(True, True), (True, True), (False, False)]
        mixed = WeightedProblem(a, n_weight=load("wmp_rank2_n.mat"))
        assert (mixed.m_is_identity, mixed.n_is_identity) == (True, False)
        assert over_poly(explicit).m_is_identity and not over_poly(doubled).n_is_identity
        # derived: not constructor parameters, and no part of equality or repr
        for f in fields(WeightedProblem):
            assert (f.init, f.compare) == ((False, False) if f.name.endswith("_is_identity")
                                           else (True, True))
        with pytest.raises(TypeError):
            WeightedProblem(a, m_is_identity=False)
        assert omitted == explicit and "is_identity" not in repr(omitted)

    @pytest.mark.parametrize("name", ["wmp_hessenberg_a.mat", "wmp_rank2_a.mat"])
    def test_omitted_explicit_and_doubled_identity_give_equal_states(self, name):
        # both fixtures have a dependent column, so both branches run
        omitted, explicit, doubled = self.problems(load(name))
        for stages, over in (
            (greville.partition_stages, lambda p: p),
            (poly_greville.partition_stages, over_poly),
        ):
            base, same, scaled = (list(stages(over(p))) for p in (omitted, explicit, doubled))
            assert same == base
            # 2*I scales N^-1 and the Schur factor, not the pseudoinverse
            key = [(st.i, st.rank, st.x) for st in base]
            assert [(st.i, st.rank, st.x) for st in scaled] == key
            assert len({st.rank for st in base}) < len(base)

    def test_only_identity_weights_take_the_shortcut(self, monkeypatch):
        # on Hessenberg, 2*I costs one product by M at stage 1 and at each
        # of the three independent stages, and one by the previous block of
        # N on the dependent stage 2; each zero-border step of N = 2*I
        # reduces 2 over 2, so its core is nbar as for N = I; no zero
        # border forms a term in l
        problems = self.problems(load("wmp_hessenberg_a.mat"))
        counts = []
        for cls, name, stages, over in (
            (RfMatrix, "__mul__", greville.partition_stages, lambda p: p),
            (poly_greville, "conv", poly_greville.partition_stages, over_poly),
        ):
            for problem in problems:
                problem = over(problem)
                calls = count_calls(monkeypatch, cls, name)
                list(stages(problem))
                monkeypatch.undo()
                counts.append(len(calls))
        assert counts == [14, 14, 19, 30, 30, 35]


def test_zero_coupling_column_is_over_the_previous_denominator():
    # ``step_extend`` takes the coupling pair as given, so a zero column,
    # whether skipped or formed, must be over y and a nonzero one over
    # y*ndd; seeded as the cross-path agreement test, whose stream holds
    # formed zero columns (trials 133 and 285)
    rng = random.Random(8080)
    tally = Counter()
    for _ in range(400):
        problem = rand_rational_problem(rng)
        problem = WeightedProblem(
            *(poly_greville.cleared(m)[0] for m in (problem.a, problem.m_weight, problem.n_weight))
        )
        states = states_until_error(poly_greville.partition_stages(problem))
        for prev, cur in zip(states, states[1:]):
            stage, y = cur.stage, prev.x.den
            if any(map(any, stage.coupling_num)):
                assert stage.coupling_den == (Poly(y) * Poly(prev.ninv.den)).coeffs
                tally["nonzero"] += 1
            else:
                assert stage.coupling_den == y, f"stage {cur.i}"
                _, border, _ = problem.n_weight.principal_partition(cur.i)
                # a formed zero column, where y*ndd differs from y
                formed = prev.rank < prev.i and not border.is_zero
                tally["formed zero"] += formed and prev.ninv.den != (1,)
    assert tally["nonzero"] > 20
    assert tally["formed zero"] == 2
