"""Full-matrix golden comparisons for the bundled fixtures.

The Hessenberg golden is the independently verified inverse
(wmp_hessenberg_x_true.mat): it passes the exact Penrose identities and
both computation paths produce it.  Acceptance criterion 4 also checks it
at rational points with plain Fractions, and pins the transcribed variant
(wmp_hessenberg_x_printed.mat) to differ from it in exactly four entries,
(1+s)^2 where the inverse has 1+s^2.
"""

from helpers import load
from wmpinv.greville import weighted_pinv
from wmpinv.matrices import WeightedProblem
from wmpinv.poly_greville import PolyMatrix
from wmpinv.poly_greville import weighted_pinv as poly_weighted_pinv
from wmpinv.verify import penrose_check


def test_rank2_weighted_golden():
    a, m, n = load("wmp_rank2_a.mat"), load("wmp_rank2_m.mat"), load("wmp_rank2_n.mat")
    x = weighted_pinv(WeightedProblem(a, m, n))
    assert x == load("wmp_rank2_x.mat")
    assert penrose_check(a, m, n, x).all_hold


def test_rational_entries_golden():
    a = load("wmp_rational_a.mat")
    m, n = load("wmp_rank2_m.mat"), load("wmp_rank2_n.mat")
    x = weighted_pinv(WeightedProblem(a, m, n))
    assert x == load("wmp_rational_x.mat")
    assert penrose_check(a, m, n, x).all_hold


def test_polynomial_path_golden():
    a = PolyMatrix.from_rf_matrix(load("wmp_poly3_a.mat"))
    w = PolyMatrix.from_rf_matrix(load("wmp_poly3_w.mat"))
    x = poly_weighted_pinv(a, w, w).to_rf_matrix()
    assert x == load("wmp_poly3_x.mat")


def test_hessenberg_true_golden_both_paths():
    a = load("wmp_hessenberg_a.mat")
    expected = load("wmp_hessenberg_x_true.mat")
    x_rational = weighted_pinv(WeightedProblem(a))
    x_poly = poly_weighted_pinv(PolyMatrix.from_rf_matrix(a)).to_rf_matrix()
    assert x_rational == expected
    assert x_poly == expected
