"""Correctness oracles: the four weighted Penrose identities, agreement of
the two computation paths, and pointwise evaluation consistency.

Everything here is exact: a check passes only when a residual is the zero
matrix of rational functions, and a failure always carries a nonzero
residual entry.  There are no tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateWeightError, PoleError, SingularMatrixError
from .greville import WeightedProblem, weighted_pinv
from .matrices import constant_matrix
from .poly_greville import solve


@dataclass(frozen=True)
class PenroseReport:
    """Outcome of the four identities AXA=A, XAX=X, (MAX)^T=MAX,
    (NXA)^T=NXA.  ``first_failure`` is (tag, row, col, residual) for the
    first failing equation in that order, with 1-based positions."""

    eq1_holds: bool
    eq2_holds: bool
    eq3m_holds: bool
    eq4n_holds: bool
    first_failure: tuple = None

    @property
    def all_hold(self):
        return self.eq1_holds and self.eq2_holds and self.eq3m_holds and self.eq4n_holds


def _first_nonzero(mat):
    for r in range(mat.rows):
        for c in range(mat.cols):
            if not mat[r, c].is_zero:
                return r + 1, c + 1, mat[r, c]
    return None


def penrose_check(a, m_weight, n_weight, x):
    """Evaluate all four weighted Penrose residuals exactly."""
    if x.rows != a.cols or x.cols != a.rows:
        raise ValueError(
            f"candidate inverse must be {a.cols}x{a.rows}, got {x.rows}x{x.cols}"
        )
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
        hit = _first_nonzero(res)
        flags.append(hit is None)
        if hit is not None and first_failure is None:
            first_failure = (tag, *hit)
    return PenroseReport(*flags, first_failure=first_failure)


def cross_path_check(a, m_weight, n_weight):
    """True iff the rational path and the coefficient path produce the same
    canonical matrix (the weighted pseudoinverse is unique, so they must)."""
    problem = WeightedProblem(a, m_weight, n_weight)
    return weighted_pinv(problem) == solve(problem).to_rf_matrix()


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

    @property
    def skipped(self):
        return tuple(p for p in self.points if p.status == "skip")


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
            a0 = constant_matrix(a.eval_at(s0))
            m0 = constant_matrix(m_weight.eval_at(s0))
            n0 = constant_matrix(n_weight.eval_at(s0))
            x0 = constant_matrix(x.eval_at(s0))
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
        except (DegenerateWeightError, SingularMatrixError) as exc:
            points.append(EvalPoint(s0, "skip", f"constant recursion: {exc}"))
            continue
        if recomputed == x0:
            points.append(EvalPoint(s0, "pass"))
        else:
            points.append(EvalPoint(s0, "fail", "pointwise pseudoinverse differs"))
    return EvalConsistencyReport(generic_rank, tuple(points))
