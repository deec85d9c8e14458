"""Acceptance suite: one test per criterion, one printed verdict line each
(run pytest with -s or check captured output to see them).

All comparisons are exact; there are no numeric tolerances anywhere.
Criterion 4 checks the Hessenberg example against the verified inverse
(wmp_hessenberg_x_true.mat) and pins the transcription error in the
printed fixture (wmp_hessenberg_x_printed.mat) entry by entry: 21 of its
25 entries equal the inverse, and the other four carry (1+s)^2 where the
inverse has 1+s^2.  The printed matrix fails A*X*A = A symbolically, and
an exact check at rational points that uses plain Fractions rather than
the library's arithmetic shows the verified matrix satisfying all four
Penrose identities there and the printed one failing the first.
"""

import random
import time
from fractions import Fraction

from helpers import (
    eval_consistency_check,
    load,
    rand_problem_matrix,
    rand_ratfun,
    rand_weight,
)
from wmpinv.cli import run_command
from wmpinv.greville import bordering_inverse, weighted_pinv
from wmpinv.matrices import RfMatrix, WeightedProblem
from wmpinv.matrixio import format_matrix, parse_matrix_file
from wmpinv.poly_greville import PolyMatrix
from wmpinv.poly_greville import bordering_inverse as poly_bordering_inverse
from wmpinv.poly_greville import weighted_pinv as poly_weighted_pinv
from wmpinv.scalars import Poly, RatFun
from wmpinv.verify import cross_path_check, penrose_check

SAMPLE_POINTS = (1, 2, Fraction(1, 2), 3, Fraction(1, 3))


def _verdict(number, description, ok, elapsed=None):
    timing = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"ACCEPTANCE {number} ({description}): {'PASS' if ok else 'FAIL'}{timing}")


def test_criterion_1_weighted_rational_golden():
    a, m, n = load("wmp_rank2_a.mat"), load("wmp_rank2_m.mat"), load("wmp_rank2_n.mat")
    t0 = time.perf_counter()
    x = weighted_pinv(WeightedProblem(a, m, n))
    elapsed = time.perf_counter() - t0
    ok = x == load("wmp_rank2_x.mat") and elapsed < 10.0
    _verdict(1, "weighted 3x3 golden, rational path", ok, elapsed)
    assert x == load("wmp_rank2_x.mat")
    assert elapsed < 10.0


def test_criterion_2_rational_entries_golden():
    a = load("wmp_rational_a.mat")
    m, n = load("wmp_rank2_m.mat"), load("wmp_rank2_n.mat")
    t0 = time.perf_counter()
    x = weighted_pinv(WeightedProblem(a, m, n))
    elapsed = time.perf_counter() - t0
    ok = x == load("wmp_rational_x.mat") and elapsed < 30.0
    _verdict(2, "rational-entry 3x3 golden, rational path", ok, elapsed)
    assert x == load("wmp_rational_x.mat")
    assert elapsed < 30.0


def test_criterion_3_polynomial_path_golden():
    a = PolyMatrix.from_rf_matrix(load("wmp_poly3_a.mat"))
    w = PolyMatrix.from_rf_matrix(load("wmp_poly3_w.mat"))
    t0 = time.perf_counter()
    x = poly_weighted_pinv(a, w, w).to_rf_matrix()
    elapsed = time.perf_counter() - t0
    ok = x == load("wmp_poly3_x.mat") and elapsed < 30.0
    _verdict(3, "polynomial 3x3 golden, coefficient path", ok, elapsed)
    assert x == load("wmp_poly3_x.mat")
    assert elapsed < 30.0


# Entries (0-based) where the printed Hessenberg fixture has (1+s)^2 in
# the denominator and the inverse has 1+s^2.
HESSENBERG_TYPOS = ((0, 0), (1, 0), (4, 3), (4, 4))
HESSENBERG_POINTS = (2, Fraction(1, 3), Fraction(-3, 2))


def _horner(coeffs, s0):
    value = Fraction(0)
    for c in reversed(coeffs):
        value = value * s0 + c
    return value


def _values_at(mat, s0):
    """Plain Fraction lists of mat at s0, from the coefficient tuples
    alone: no RatFun or RfMatrix arithmetic."""
    return [
        [_horner(mat[r, c].num.coeffs, s0) / _horner(mat[r, c].den.coeffs, s0)
         for c in range(mat.cols)]
        for r in range(mat.rows)
    ]


def _mul(p, q):
    return [[sum(p[r][k] * q[k][c] for k in range(len(q))) for c in range(len(q[0]))]
            for r in range(len(p))]


def _transpose(p):
    return [list(col) for col in zip(*p)]


def _penrose_at(a, x):
    """The four identities with identity weights, on Fraction lists."""
    ax, xa = _mul(a, x), _mul(x, a)
    return (
        _mul(ax, a) == a,
        _mul(xa, x) == x,
        _transpose(ax) == ax,
        _transpose(xa) == xa,
    )


def test_criterion_4_hessenberg_golden_as_transcribed():
    a = load("wmp_hessenberg_a.mat")
    expected = load("wmp_hessenberg_x_true.mat")
    printed = load("wmp_hessenberg_x_printed.mat")
    eye = RfMatrix.identity(5)

    t0 = time.perf_counter()
    x_rational = weighted_pinv(WeightedProblem(a))
    t_rational = time.perf_counter() - t0
    t0 = time.perf_counter()
    x_poly = poly_weighted_pinv(PolyMatrix.from_rf_matrix(a)).to_rf_matrix()
    t_poly = time.perf_counter() - t0

    assert t_rational < 60.0 and t_poly < 60.0
    assert x_rational == x_poly
    assert penrose_check(a, eye, eye, x_rational).all_hold
    assert x_rational == expected

    # 21 of the 25 printed entries equal the inverse; the other four differ
    # only by (1+s)^2 in place of 1+s^2
    differ = tuple((r, c) for r in range(5) for c in range(5)
                   if printed[r, c] != x_rational[r, c])
    assert differ == HESSENBERG_TYPOS
    one_plus_s_sq = Poly([1, 0, 1])
    one_plus_s_all_sq = Poly([1, 2, 1])
    for r, c in HESSENBERG_TYPOS:
        computed, transcribed = x_rational[r, c], printed[r, c]
        assert computed.num == transcribed.num, (r, c)
        assert computed.den == one_plus_s_sq, (r, c)
        assert transcribed.den == one_plus_s_all_sq, (r, c)

    # the printed matrix fails A*X*A = A first at (1,1), by -2*s^2/(1+s)^2
    report = penrose_check(a, eye, eye, printed)
    assert not report.eq1_holds
    assert report.first_failure == (
        "(1)", 1, 1, RatFun(Poly([0, 0, -2]), one_plus_s_all_sq)
    )

    # exact check at rational points, outside the library's arithmetic
    for s0 in HESSENBERG_POINTS:
        a0 = _values_at(a, s0)
        assert _penrose_at(a0, _values_at(expected, s0)) == (True,) * 4, s0
        assert _mul(_mul(a0, _values_at(printed, s0)), a0) != a0, s0

    _verdict(4, "Hessenberg 5x5 golden, both paths, transcription error pinned",
             True, t_rational + t_poly)


def _random_problem(rng):
    a = rand_problem_matrix(rng, max_dim=4, max_deg=2)
    m = rand_weight(rng, a.rows)
    n = rand_weight(rng, a.cols)
    return a, m, n


def test_criterion_5_penrose_property_suite():
    rng = random.Random(20260)
    t0 = time.perf_counter()
    dependent_branch_hits = 0
    for trial in range(200):
        a, m, n = _random_problem(rng)
        x = weighted_pinv(WeightedProblem(a, m, n))
        report = penrose_check(a, m, n, x)
        assert report.all_hold, (trial, report.first_failure)
        if a.rank() < a.cols:
            dependent_branch_hits += 1
    elapsed = time.perf_counter() - t0
    ok = elapsed < 300.0 and dependent_branch_hits > 0
    _verdict(5, "200 random problems, exact Penrose", ok, elapsed)
    assert dependent_branch_hits > 0  # both recursion branches exercised
    assert elapsed < 300.0


def test_criterion_6_cross_path_equivalence():
    rng = random.Random(20261)
    t0 = time.perf_counter()
    for trial in range(100):
        a, m, n = _random_problem(rng)
        assert cross_path_check(a, m, n), trial
    elapsed = time.perf_counter() - t0
    _verdict(6, "100 random problems, path agreement", True, elapsed)


def test_criterion_7_inverse_oracle():
    rng = random.Random(20262)
    t0 = time.perf_counter()
    for trial in range(100):
        n = rand_weight(rng, rng.randint(1, 5), max_deg=1)
        by_bordering = bordering_inverse(n)
        by_elimination = n.ff_inverse()
        by_coefficients = poly_bordering_inverse(
            PolyMatrix.from_rf_matrix(n)
        ).to_rf_matrix()
        assert by_bordering == by_elimination == by_coefficients, trial
    elapsed = time.perf_counter() - t0
    _verdict(7, "100 random symmetric inverses, three-way agreement", True, elapsed)


def test_criterion_8_evaluation_consistency():
    eye3 = RfMatrix.identity(3)
    eye5 = RfMatrix.identity(5)
    m, n = load("wmp_rank2_m.mat"), load("wmp_rank2_n.mat")
    w = load("wmp_poly3_w.mat")
    fixtures = (
        ("weighted 3x3", load("wmp_rank2_a.mat"), m, n),
        ("rational 3x3", load("wmp_rational_a.mat"), m, n),
        ("polynomial 3x3", load("wmp_poly3_a.mat"), w, w),
        ("Hessenberg 5x5", load("wmp_hessenberg_a.mat"), eye5, eye5),
    )
    t0 = time.perf_counter()
    for name, a, mw, nw in fixtures:
        x = weighted_pinv(WeightedProblem(a, mw, nw))
        report = eval_consistency_check(a, mw, nw, x, SAMPLE_POINTS)
        assert report.all_checked_pass, (name, report.points)
        assert report.passed, name  # at least one point actually checked
    elapsed = time.perf_counter() - t0
    _verdict(8, "golden fixtures at 5 rational points", True, elapsed)


def test_criterion_9_parser_roundtrip_and_diagnostics(tmp_path, capsys):
    rng = random.Random(20263)
    t0 = time.perf_counter()
    for trial in range(200):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = RfMatrix.from_rows(
            [[rand_ratfun(rng) for _ in range(cols)] for _ in range(rows)]
        )
        assert parse_matrix_file(format_matrix(m)) == m, trial

    # the three grammar error cases, each through the CLI: exit code 2
    # and a diagnostic that carries the position
    cases = (
        ("dangling operator", "matrix 1 1\ns+\n", "offset 2"),
        ("non-integer exponent", "matrix 1 1\ns^s\n", "offset 2"),
        ("row arity", "matrix 1 3\n1; 2\n", "row 1"),
    )
    for name, text, needle in cases:
        bad = tmp_path / f"{name.replace(' ', '_')}.mat"
        bad.write_text(text)
        code = run_command(["compute", "--a", str(bad)])
        err = capsys.readouterr().err
        assert code == 2, name
        assert needle in err, (name, err)
    elapsed = time.perf_counter() - t0
    _verdict(9, "200 round trips + positioned diagnostics", True, elapsed)
