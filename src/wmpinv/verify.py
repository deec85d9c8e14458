"""Correctness oracles: the four weighted Penrose identities and agreement
of the computation paths.

``PATHS`` is the one table of computation paths, in order: each name maps
to (weighted pseudoinverse of a rational ``WeightedProblem``, inverse of a
symmetric ``RfMatrix``), both returning an ``RfMatrix``.  The CLI's
``--path`` choices and ``cross_path_check`` read it.

Everything here is exact; there are no tolerances.  The Penrose checker
clears A, X and the weights to integer matrix polynomials over scalar
denominators, so each identity holds exactly when an integer
matrix-polynomial sum, evaluated by the integer-sequence kernel
``scalars.conv`` with no gcd, is zero.  The kernel's entries are
canonical, so a zero entry is () and the symmetry identities compare
tuples, subtracting only an unequal pair.  The rational path and the
cross-path equality stay the independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from .greville import bordering_inverse, weighted_pinv
from .matrices import WeightedProblem
from .poly_greville import cleared, invert, solve
from .scalars import Poly, RatFun, conv, transpose

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


def _asymmetry(grid):
    """S^T - S for a square matrix polynomial S of canonical entries, which
    are equal exactly when their values are: only unequal pairs are
    subtracted."""
    return [
        [() if t == s else (Poly(t) - Poly(s)).coeffs for t, s in zip(trow, row)]
        for trow, row in zip(transpose(grid), grid)
    ]


def _first_nonzero(res):
    """(row, col, coefficients) of the first nonzero entry of a matrix
    polynomial, in row-major order and 1-based; None for the zero matrix."""
    for r, row in enumerate(res):
        for c, seq in enumerate(row):
            if seq:
                return r + 1, c + 1, seq
    return None


def penrose_check(a, m_weight, n_weight, x):
    """Evaluate all four weighted Penrose residuals exactly.

    With A = P/L, X = Xn/d, M = Mn/Lm and N = Nn/Ln the residuals are,
    over the denominators L^2 d, d^2 L, Lm L d and Ln L d:
    (1) P Xn P - L d P, (2) Xn P Xn - L d Xn, (3M) S^T - S with
    S = Mn P Xn, and (4N) T^T - T with T = Nn Xn P.
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
    ld = conv((1, l_den, d))
    px = conv((1, p, xn))
    xp = conv((1, xn, p))
    residuals = (
        ("(1)", conv((1, px, p), (-1, ld, p)), l_den),
        ("(2)", conv((1, xp, xn), (-1, ld, xn)), d),
        ("(3M)", _asymmetry(conv((1, mn, px))), lm),
        ("(4N)", _asymmetry(conv((1, nn, xp))), ln),
    )
    flags = []
    first_failure = None
    for tag, res, factor in residuals:
        hit = _first_nonzero(res)
        flags.append(hit is None)
        if hit is not None and first_failure is None:
            r, c, seq = hit
            first_failure = (tag, r, c, RatFun(Poly(seq), Poly(factor) * Poly(ld)))
    return PenroseReport(*flags, first_failure=first_failure)


def cross_path_check(a, m_weight, n_weight):
    """True iff every path in ``PATHS`` produces the same canonical matrix
    (the weighted pseudoinverse is unique, so they must)."""
    problem = WeightedProblem(a, m_weight, n_weight)
    first, *rest = (pinv(problem) for pinv, _ in PATHS.values())
    return all(x == first for x in rest)
