"""Shared fixture loading, random problem generators and the pointwise
evaluation-consistency oracle for the tests."""

import os
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from wmpinv import RatFun, RfMatrix, WeightedProblem, scalars
from wmpinv.errors import PoleError, StageError
from wmpinv.greville import weighted_pinv
from wmpinv.matrixio import parse_matrix_file
from wmpinv.scalars import Poly

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parent.parent / "src"


def load(name):
    return parse_matrix_file((DATA / name).read_text())


def src_env():
    """The environment with the repository's src directory first on
    PYTHONPATH, so that a child interpreter imports this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def count_calls(monkeypatch, cls, name):
    """A list that gains one entry per call of ``cls.name`` from now on."""
    calls = []
    method = getattr(cls, name)
    monkeypatch.setattr(
        cls, name, lambda *args, **kwargs: calls.append(args) or method(*args, **kwargs)
    )
    return calls


def packed_divisions(monkeypatch):
    """A list that gains, per ``scalars.packed_quotient`` call from now on,
    whether it found the quotient: True, or its False or None."""
    results = []
    real = scalars.packed_quotient

    def spy(*args):
        q = real(*args)
        results.append(q if q is None or q is False else True)
        return q

    monkeypatch.setattr(scalars, "packed_quotient", spy)
    return results


def grid_result(terms, check):
    """Whether a kernel call on ``terms`` gives a grid: some operand is one."""
    return any(scalars._is_grid(x) for _, a, b in terms for x in (a, b))


def longer_digits(conv, pick):
    """``conv`` with one extra zero digit on every entry it unpacks in a
    call for which ``pick(terms, check)`` holds, ``check`` being the call's
    keyword arguments, so that such a result of full untrimmed length n
    comes out of length n + 1, where a capacity check on it must see it.
    A call that returns a grid of packed values (``unpack=False``)
    unpacks nothing; there each value gets one low zero digit instead
    (times 2**k), so that the entry it packs is s times its own."""
    def wrapped(*terms, **check):
        if not pick(terms, check):
            return conv(*terms, **check)
        if not check.get("unpack", True):
            vals, k = conv(*terms, **check)
            return tuple(tuple(v << k for v in row) for row in vals), k
        real = scalars.digits
        scalars.digits = lambda v, k: real(v, k) + [0]
        try:
            return conv(*terms, **check)
        finally:
            scalars.digits = real
    return wrapped


def rand_poly(rng, max_deg, lo=-3, hi=3):
    return Poly([rng.randint(lo, hi) for _ in range(rng.randint(0, max_deg) + 1)])


def rand_matrix(rng, rows, cols, max_deg=2, lo=-3, hi=3):
    return RfMatrix.from_rows(
        [[RatFun(rand_poly(rng, max_deg, lo, hi)) for _ in range(cols)] for _ in range(rows)]
    )


def doubled_identity(k):
    """2*I of order k: not the identity, and the same pseudoinverse."""
    return RfMatrix.identity(k).scale(RatFun(2))


def rand_weight(rng, k, max_deg=1):
    """Symmetric weight B^T B + I; positive definite at every real point."""
    b = rand_matrix(rng, k, k, max_deg, -2, 2)
    return b.transpose() * b + RfMatrix.identity(k)


def rand_singular_weight(rng, k, max_deg=1):
    """Symmetric weight B^T B with a zero row in B; singular, positive
    semidefinite at every real point."""
    b = rand_matrix(rng, k, k, max_deg, -2, 2)
    zero = rng.randrange(k)
    rows = [[RatFun(0) if r == zero else b[r, c] for c in range(k)] for r in range(k)]
    b = RfMatrix.from_rows(rows)
    return b.transpose() * b


def rand_problem_matrix(rng, max_dim=4, max_deg=2):
    """Random input matrix; about a quarter get a zeroed column and a
    quarter a duplicated column, so both recursion branches are hit."""
    m, n = rng.randint(1, max_dim), rng.randint(1, max_dim)
    a = rand_matrix(rng, m, n, max_deg)
    rows = [list(a.row(r)) for r in range(m)]
    if n >= 2 and rng.random() < 0.25:
        c = rng.randrange(n)
        for r in range(m):
            rows[r][c] = RatFun(0)
    if n >= 2 and rng.random() < 0.25:
        c1, c2 = rng.sample(range(n), 2)
        for r in range(m):
            rows[r][c2] = rows[r][c1]
    return RfMatrix.from_rows(rows)


def rand_den(rng):
    """Nonzero denominator of degree at most 1 times an integer content of
    1 to 3, so that some are not primitive (such as 2s+2)."""
    den = Poly([])
    while den.is_zero:
        den = rand_poly(rng, 1, -2, 2)
    return den * rng.randint(1, 3)


def rand_rational_weight(rng, k):
    """Identity, SPD or singular symmetric weight, over a random scalar
    denominator half of the time."""
    kind = rng.randrange(3)
    if kind == 0:
        w = RfMatrix.identity(k)
    else:
        w = (rand_weight if kind == 1 else rand_singular_weight)(rng, k)
    return w.scale(RatFun(1, rand_den(rng))) if rng.random() < 0.5 else w


def rand_indefinite_weight(rng, k, max_deg=1):
    """Symmetric weight B^T D B with D = diag(1, -1, 1, ...): indefinite
    at almost every real point for k >= 2, negative definite for k = 1."""
    b = rand_matrix(rng, k, k, max_deg, -2, 2) + RfMatrix.identity(k)
    d = RfMatrix.from_rows(
        [[RatFun((-1) ** (r + (k == 1)) if r == c else 0) for c in range(k)] for r in range(k)]
    )
    return b.transpose() * d * b


def rand_rational_problem(rng, max_dim=3):
    """Random problem over rational functions: a ``rand_problem_matrix``
    (zero and duplicated columns included) with row r divided by d_r and
    column c by e_c, which keeps its rank, and ``rand_rational_weight``
    weights."""
    a = rand_problem_matrix(rng, max_dim, 1)
    d = [rand_den(rng) for _ in range(a.rows)]
    e = [rand_den(rng) for _ in range(a.cols)]
    a = RfMatrix.from_rows(
        [[a[r, c] / RatFun(d[r] * e[c]) for c in range(a.cols)] for r in range(a.rows)]
    )
    return WeightedProblem(
        a, rand_rational_weight(rng, a.rows), rand_rational_weight(rng, a.cols)
    )


def rand_ratfun(rng, max_deg=3, lo=-5, hi=5):
    num = rand_poly(rng, max_deg, lo, hi)
    den = Poly([])
    while den.is_zero:
        den = rand_poly(rng, max_deg, lo, hi)
    return RatFun(num, den)


def run_stages(stages):
    """The states a stage generator yields, then the (class, stage, message)
    of the error that stopped it, or None."""
    states = []
    try:
        for st in stages:
            states.append(st)
    except ArithmeticError as exc:
        return states, (type(exc), exc.stage, str(exc))
    return states, None


@dataclass(frozen=True)
class EvalPoint:
    point: Fraction
    status: str  # "pass" | "skip" | "fail"
    reason: str = None


@dataclass(frozen=True)
class EvalConsistencyReport:
    generic_rank: int
    points: tuple

    @property
    def all_checked_pass(self):
        return all(p.status != "fail" for p in self.points)

    @property
    def passed(self):
        return tuple(p for p in self.points if p.status == "pass")


def eval_consistency_check(a, m_weight, n_weight, x, sample_points):
    """Compare X evaluated at sample points against the constant-matrix
    recursion run on the evaluated inputs.

    A point is skipped (never failed) when any input or X has a pole
    there, when the evaluated matrix loses the generic rank (the symbolic
    pseudoinverse need not match the pointwise one at such points), or
    when the constant recursion itself degenerates at that point.
    """
    generic_rank = a.rank()
    points = []
    for s0 in sample_points:
        s0 = Fraction(s0)
        try:
            a0 = RfMatrix.from_rows(a.eval_at(s0))
            m0 = RfMatrix.from_rows(m_weight.eval_at(s0))
            n0 = RfMatrix.from_rows(n_weight.eval_at(s0))
            x0 = RfMatrix.from_rows(x.eval_at(s0))
        except PoleError as exc:
            points.append(EvalPoint(s0, "skip", f"pole: {exc}"))
            continue
        if a0.rank() != generic_rank:
            points.append(
                EvalPoint(s0, "skip", f"rank drops from {generic_rank} to {a0.rank()}")
            )
            continue
        try:
            recomputed = weighted_pinv(WeightedProblem(a0, m0, n0))
        except StageError as exc:
            points.append(EvalPoint(s0, "skip", f"constant recursion: {exc}"))
            continue
        if recomputed == x0:
            points.append(EvalPoint(s0, "pass"))
        else:
            points.append(EvalPoint(s0, "fail", "pointwise pseudoinverse differs"))
    return EvalConsistencyReport(generic_rank, tuple(points))
