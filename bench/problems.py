"""Seeded problem sets for the benchmark workloads.

This generator is the benchmark's own and does not import the test helpers,
so editing a test helper cannot change what the benchmark measures.

Each workload is a fixed base family.  For the random workloads the base
family is drawn once from a pinned stream, and ``--seed`` picks the signs
of its rows and columns: with diagonal sign matrices D and E,

    A' = D A E,   M' = D M D,   N' = E N E   give   X' = E X D,

so every seed has its own input and output bytes but the same algebra and
the same amount of work.  Presentations that change the work did not keep
the run time steady enough for the benchmark's bounds: random problems
drawn afresh per seed varied by about 20% each, s -> -s moved the verify
time of dense_weighted by about 17%, and a row permutation, which reorders
every dot product, moved times by a few percent.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from wmpinv.matrices import RfMatrix
from wmpinv.poly_greville import PolyMatrix
from wmpinv.scalars import Poly, RatFun


class Problem(NamedTuple):
    a: RfMatrix
    m: RfMatrix
    n: RfMatrix


def _require(ok, message):
    if not ok:
        raise ValueError(message)


def _poly(rng, max_deg, lo, hi):
    return Poly([rng.randint(lo, hi) for _ in range(rng.randint(0, max_deg) + 1)])


def _matrix(rng, rows, cols, max_deg=2, lo=-3, hi=3):
    return RfMatrix.from_rows(
        [[RatFun(_poly(rng, max_deg, lo, hi)) for _ in range(cols)] for _ in range(rows)]
    )


def _spd_weight(rng, k):
    """B^T B + I with B of degree 1: symmetric, positive definite at every
    real s."""
    b = _matrix(rng, k, k, max_deg=1, lo=-2, hi=2)
    return b.transpose() * b + RfMatrix.identity(k)


def _signed(rng, problem):
    """``problem`` with random row and column signs (see module docstring)."""
    a, m, n = problem
    d = [rng.choice((1, -1)) for _ in range(a.rows)]
    e = [rng.choice((1, -1)) for _ in range(a.cols)]

    def scaled(mat, left, right):  # diag(left) * mat * diag(right)
        return RfMatrix.from_rows(
            [
                [mat[i, j] * (left[i] * right[j]) for j in range(mat.cols)]
                for i in range(mat.rows)
            ]
        )

    return Problem(scaled(a, d, e), scaled(m, d, d), scaled(n, e, e))


def _hessenberg(n):
    # entry (r, c) = s^(r-c+1) for c <= r+1, 1-based: the paper's 5x5 fixture
    # extended to order n; generic rank n-1
    s_pow = [RatFun(Poly([0] * k + [1])) for k in range(n + 1)]
    return RfMatrix.from_rows(
        [
            [s_pow[r - c + 1] if c <= r + 1 else RatFun(0) for c in range(1, n + 1)]
            for r in range(1, n + 1)
        ]
    )


def hessenberg(seed):
    """Orders 5..11, identity weights.  The family is fixed; the seed does
    not change it."""
    return [
        Problem(_hessenberg(n), RfMatrix.identity(n), RfMatrix.identity(n))
        for n in range(5, 12)
    ]


def dense_weighted(seed):
    """Dense square matrices of degree 2, orders 4..6, SPD weights; every
    problem has full rank."""
    base = random.Random("dense_weighted/base")
    problems = [
        Problem(_matrix(base, k, k), _spd_weight(base, k), _spd_weight(base, k))
        for k in (4, 5, 6)
    ]
    rng = random.Random(f"dense_weighted/{seed}")
    problems = [_signed(rng, p) for p in problems]
    for p in problems:
        _require(p.a.rank() == p.a.cols, "dense_weighted problem is rank-deficient")
    return problems


def rank_deficient(seed):
    """Tall and wide matrices of degree 2 with one zero column and one
    duplicated column, both after the first column, so every problem takes
    the dependent (Schur-factor) branch on both paths."""
    base = random.Random("rank_deficient/base")
    problems = []
    for rows, cols in ((5, 4), (4, 6), (6, 5), (6, 6)):
        grid = [list(_matrix(base, rows, cols).row(r)) for r in range(rows)]
        zero, src, dup = base.sample(range(1, cols), 3)
        src, dup = min(src, dup), max(src, dup)
        for line in grid:
            line[zero] = RatFun(0)
            line[dup] = line[src]
        problems.append(
            Problem(RfMatrix.from_rows(grid), _spd_weight(base, rows), _spd_weight(base, cols))
        )
    rng = random.Random(f"rank_deficient/{seed}")
    problems = [_signed(rng, p) for p in problems]
    for p in problems:
        _require(p.a.rank() < p.a.cols, "rank_deficient problem has full column rank")
    return problems


WORKLOADS = {
    "hessenberg": hessenberg,
    "dense_weighted": dense_weighted,
    "rank_deficient": rank_deficient,
}


def generate(workload, seed):
    """The workload's problem set for ``seed``, checked to be polynomial
    (the coefficient path's input contract) by converting every matrix."""
    problems = WORKLOADS[workload](seed)
    for p in problems:
        for mat in p:
            PolyMatrix.from_rf_matrix(mat)
    return problems
