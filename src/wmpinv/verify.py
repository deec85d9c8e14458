"""Correctness oracles: the four weighted Penrose identities and agreement
of the computation paths.

``PATHS`` is the one table of computation paths, in order: each name maps
to (weighted pseudoinverse of a rational ``WeightedProblem``, inverse of a
symmetric ``RfMatrix``), both returning an ``RfMatrix``.  The CLI's
``--path`` choices and ``cross_path_check`` read it, and the CLI names the
first entry where two paths differ with ``first_difference``.

Everything here is exact; there are no tolerances.  The Penrose checker
clears denominators and decides each identity on integers packed by
``scalars.pack``, unpacking only a failing residual with
``scalars.digits``.  Both computation paths use the same codec, but they
share no formula, so the cross-path equality still compares two
independent algorithms; the codec itself is checked in the tests against
shift-Horner and against entrywise ``RatFun`` arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .greville import bordering_inverse, weighted_pinv
from .matrices import WeightedProblem
from .poly_greville import cleared, invert, solve
from .scalars import Poly, RatFun, digits, pack, packed, pmul, transpose

PATHS = {
    "rational": (weighted_pinv, bordering_inverse),
    "poly": (lambda p: solve(p).to_rf_matrix(), lambda n: invert(n).to_rf_matrix()),
}


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


def first_difference(lhs, rhs):
    """(row, col, lhs - rhs) at the first unequal entry of two grids of the
    same shape, in row-major order and 1-based; None when they are equal."""
    for r, (lrow, rrow) in enumerate(zip(lhs, rhs)):
        for c, (u, v) in enumerate(zip(lrow, rrow)):
            if u != v:
                return r + 1, c + 1, u - v
    return None


def penrose_check(a, m_weight, n_weight, x):
    """Evaluate all four weighted Penrose residuals exactly.

    With A = P/L, X = Xn/d, M = Mn/Lm and N = Nn/Ln the residuals are,
    over the denominators L^2 d, d^2 L, Lm L d and Ln L d:
    (1) P Xn P - L d P, (2) Xn P Xn - L d Xn, (3M) S^T - S with
    S = Mn P Xn, and (4N) T^T - T with T = Nn Xn P.  Each is decided on
    values at s = 2**k, a ring homomorphism that is injective on sequences
    of coefficients below 2**(k-1) in magnitude.  With |.| the l1 norm (the
    sum of all coefficient magnitudes, so |AB| <= |A| |B|), every residual
    coefficient is at most B = max((|P||Xn| + |L||d|) max(|P|, |Xn|),
    2 |P||Xn| max(|Mn|, |Nn|)), and k = B.bit_length() + 2.
    """
    if x.rows != a.cols or x.cols != a.rows:
        raise ValueError(
            f"candidate inverse must be {a.cols}x{a.rows}, got {x.rows}x{x.cols}"
        )
    for name, w, k in (("M", m_weight, a.rows), ("N", n_weight, a.cols)):
        if w.rows != k or w.cols != k:
            raise ValueError(f"weight {name} must be {k}x{k}, got {w.rows}x{w.cols}")
    (p, l_den), (xn, d), (mn, lm), (nn, ln) = (
        (mat.coeffs, den) for mat, den in map(cleared, (a, x, m_weight, n_weight))
    )
    p1, x1, m1, n1 = (sum(map(abs, chain(*chain(*g)))) for g in (p, xn, mn, nn))
    ld1 = sum(map(abs, l_den)) * sum(map(abs, d))
    k = max((p1 * x1 + ld1) * max(p1, x1), 2 * p1 * x1 * max(m1, n1)).bit_length() + 2
    p, xn, mn, nn = (packed(grid, k) for grid in (p, xn, mn, nn))
    ld = pack(l_den, k) * pack(d, k)
    px, xp = pmul(p, xn), pmul(xn, p)
    s, t = pmul(mn, px), pmul(nn, xp)
    sides = (
        ("(1)", pmul(px, p), pmul(ld, p), l_den),
        ("(2)", pmul(xp, xn), pmul(ld, xn), d),
        ("(3M)", transpose(s), s, lm),
        ("(4N)", transpose(t), t, ln),
    )
    hits = [first_difference(lhs, rhs) for _, lhs, rhs, _ in sides]
    first_failure = None
    for (tag, _, _, factor), hit in zip(sides, hits):
        if hit:
            r, c, v = hit
            den = Poly(factor) * Poly(l_den) * Poly(d)
            first_failure = (tag, r, c, RatFun(Poly(digits(v, k)), den))
            break
    return PenroseReport(*(hit is None for hit in hits), first_failure=first_failure)


def cross_path_check(a, m_weight, n_weight):
    """True iff every path in ``PATHS`` produces the same canonical matrix
    (the weighted pseudoinverse is unique, so they must)."""
    problem = WeightedProblem(a, m_weight, n_weight)
    first, *rest = (pinv(problem) for pinv, _ in PATHS.values())
    return all(x == first for x in rest)
