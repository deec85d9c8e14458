"""Property tests over small random problems: the two paths take the same
branch at every stage and stop with the same error, and their common
result is the weighted pseudoinverse, of the rank of the input; the
rational path's residual identity holds at every stage."""

import random
from math import prod

import pytest

from helpers import (
    rand_den,
    rand_indefinite_weight,
    rand_singular_weight,
    rand_weight,
    run_stages,
)
from wmpinv import RatFun, RfMatrix, WeightedProblem
from wmpinv.greville import partition_stages as rational_stages
from wmpinv.poly_greville import PolyMatrix, fraction_simplify
from wmpinv.poly_greville import partition_stages as poly_stages
from wmpinv.scalars import Poly
from wmpinv.verify import cross_path_check, penrose_check

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


def identity_weight(rng, k):
    return RfMatrix.identity(k)


DEFINITE = (identity_weight, rand_weight)
WEIGHTS = DEFINITE + (rand_singular_weight, rand_indefinite_weight)


@st.composite
def problems(draw, weights=WEIGHTS, bound=3):
    """A tall, wide or square matrix of order at most 3 with entries of
    degree at most 2 and coefficients in -bound..bound, at times with a
    zero and a duplicated column, under weights drawn from ``weights``: by
    default identity, positive definite, singular positive semidefinite or
    indefinite ones."""
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    entry = st.lists(st.integers(-bound, bound), max_size=3).map(Poly)
    columns = [draw(st.lists(entry, min_size=rows, max_size=rows)) for _ in range(cols)]
    if cols >= 2 and draw(st.booleans()):
        columns[draw(st.integers(0, cols - 1))] = [Poly()] * rows
    if cols >= 2 and draw(st.booleans()):
        source, target = draw(st.permutations(range(cols)))[:2]
        columns[target] = columns[source]
    a = RfMatrix.from_rows(
        [[RatFun(columns[c][r]) for c in range(cols)] for r in range(rows)]
    )
    rng = draw(st.randoms(use_true_random=False))

    def weight(k):
        return draw(st.sampled_from(weights))(rng, k)

    return WeightedProblem(a, weight(rows), weight(cols))


def assert_canonical(mat):
    # every entry is a RatFun in the form RatFun(num, den) gives it; matrix
    # == coerces a Poly or an int entry, so it would not see a raw one
    for f in (f for row in mat.grid for f in row):
        assert type(f) is RatFun
        g = RatFun(f.num, f.den)
        assert (f.num.coeffs, f.den.coeffs) == (g.num.coeffs, g.den.coeffs)


def assert_paths_agree(problem):
    # a singular or indefinite weight can stop both paths: then with the
    # same error type, stage and message, after the same stages
    a, m, n = problem.a, problem.m_weight, problem.n_weight
    rat, rat_err = run_stages(rational_stages(problem))
    pol, pol_err = run_stages(
        poly_stages(WeightedProblem(*map(PolyMatrix.from_rf_matrix, (a, m, n))))
    )
    assert pol_err == rat_err
    assert [s.i for s in rat] == [s.i for s in pol]
    for s_rat, s_pol in zip(rat, pol):
        assert (s_rat.stage is None) == (s_pol.stage is None) == (s_rat.i == 1)
        if s_rat.i > 1:
            resid_is_zero = not any(e for row in s_pol.stage.resid for e in row)
            assert s_rat.stage.resid.is_zero == resid_is_zero
            assert (s_rat.stage.schur is None) == (s_pol.stage.schur_den is None)
    for s_rat in rat:
        assert_canonical(s_rat.x)
        if s_rat.ninv is not None:
            assert_canonical(s_rat.ninv)
    # every coefficient-path pair is the one fraction_simplify makes of it
    for s_pol in pol:
        for frac in (s_pol.x, s_pol.ninv):
            if frac is not None:
                assert frac == fraction_simplify(frac.num, frac.den), f"stage {s_pol.i}"
    # stage i's X is the weighted inverse of the first i columns under M and
    # N's order-i leading block, on both paths, so a wrong stage fails here
    for s_rat, s_pol in zip(rat, pol):
        a_i, n_i = a.leading_columns(s_rat.i), n.leading_block(s_rat.i)
        for path, x_i in (("rational", s_rat.x), ("coefficient", s_pol.x.to_rf_matrix())):
            assert penrose_check(a_i, m, n_i, x_i).all_hold, f"{path} stage {s_rat.i}"
    if rat_err is not None:
        return
    assert [s.i for s in rat] == list(range(1, a.cols + 1))
    x = rat[-1].x
    assert_canonical(pol[-1].x.to_rf_matrix())
    assert penrose_check(a, m, n, x).all_hold
    assert cross_path_check(a, m, n)
    assert x.rank() == a.rank()


@hypothesis.settings(max_examples=100, deadline=None, database=None)
@hypothesis.given(problems())
def test_paths_agree_on_every_branch_and_result(problem):
    assert_paths_agree(problem)


@hypothesis.settings(max_examples=100, deadline=None, database=None)
@hypothesis.given(problems(bound=2**64))
def test_paths_agree_at_large_coefficients(problem):
    assert_paths_agree(problem)


@hypothesis.settings(max_examples=100, deadline=None, database=None)
@hypothesis.given(problems(DEFINITE), st.integers(0, 2**32))
def test_residual_squared_length_is_its_form_on_the_new_column(problem, seed):
    # the residual r of column i is M-orthogonal to the earlier columns, so
    # r^T M r = (r^T M) a_i (Greville 1960), the form the rational path
    # uses; here over rational entries (row r divided by d_r) and an SPD M
    a, rng = problem.a, random.Random(seed)
    d = [rand_den(rng) for _ in range(a.rows)]
    a = RfMatrix.from_rows(
        [[a[r, c] / RatFun(d[r]) for c in range(a.cols)] for r in range(a.rows)]
    )
    m = rand_weight(rng, a.rows)
    for state in rational_stages(WeightedProblem(a, m, problem.n_weight)):
        if state.stage is None or state.stage.resid.is_zero:
            continue
        resid = state.stage.resid
        form = resid.transpose() * m
        assert (form * resid)[0, 0] == (form * a.column(state.i))[0, 0]


# products of a few linear factors, over contents that make some
# denominators constant, non-primitive or negative-leading
FACTORS = [Poly(c) for c in ((0, 1), (1, 1), (-1, 1), (1, 2))]


@st.composite
def outer_updates(draw):
    """(x, u, v) for a rank-one update x - u*v of order at most 3.  The
    nonzero entries of u share one denominator, and those of v another,
    over numerators with no rational root.  x_rc is u_r*v_c (they cancel)
    or u_r*v_c + r, r an entry over a divisor of the product D of the two
    denominators: then x_rc is over D, and the update's entries, which
    share their triple of denominators, cancel against D in varied ways."""
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    factors = st.lists(st.sampled_from(FACTORS), min_size=1, max_size=3)
    unit = st.sampled_from([Poly(c) for c in ((), (1,), (-1,), (1, 0, 1), (2, 0, -1))])
    # a coefficient 1 keeps a denominator's content through reduction
    num = st.lists(st.integers(-3, 3), max_size=2).map(lambda cs: Poly(cs + [1]))

    def den(fs):
        return prod(fs, start=Poly.const(draw(st.sampled_from((1, -2, 3)))))

    fu, fv = draw(factors), draw(factors)
    du, dv = den(fu), den(fv)
    u = [RatFun(draw(unit), du) for _ in range(rows)]
    v = [RatFun(draw(unit), dv) for _ in range(cols)]

    def cell(a, b):
        if draw(st.booleans()):
            return a * b
        return a * b + RatFun(draw(num), den([f for f in fu + fv if draw(st.booleans())]))

    x = [[cell(a, b) for b in v] for a in u]
    return RfMatrix.from_rows(x), RfMatrix.from_rows([f] for f in u), RfMatrix.from_rows([v])


@hypothesis.settings(max_examples=300, deadline=None, database=None)
@hypothesis.given(outer_updates())
def test_minus_outer_is_the_difference_with_the_outer_product(update):
    x, u, v = update
    assert x.minus_outer(u, v) == x - u * v

