"""Coefficient-path recursion: representation, stage formulas, per-stage
reduction, bordering inverse, and bit-exact agreement with the rational
path (which is the reference semantics)."""

import random
from collections import Counter
from dataclasses import FrozenInstanceError, asdict
from fractions import Fraction
from math import gcd

import pytest

from helpers import (
    count_calls,
    doubled_identity,
    grid_result,
    load,
    longer_digits,
    packed_divisions,
    rand_den,
    rand_indefinite_weight,
    rand_matrix,
    rand_problem_matrix,
    rand_rational_problem,
    rand_singular_weight,
    rand_weight,
    run_stages,
)
from wmpinv.errors import CapacityError, DegenerateWeightError, SingularMatrixError
from wmpinv.greville import bordering_inverse as rational_bordering_inverse
from wmpinv.greville import partition_stages as rational_stages
from wmpinv.greville import weighted_pinv as rational_pinv
from wmpinv.matrices import RfMatrix, WeightedProblem
from wmpinv.matrixio import parse_entry, parse_matrix_file
from wmpinv.poly_greville import (
    PolyMatrix,
    bordering_inverse,
    fraction_simplify,
    init_fraction,
    invert,
    partition_stages,
    solve,
    weighted_pinv,
)
from wmpinv import poly_greville, scalars
from wmpinv.scalars import Poly, RatFun, conv
from wmpinv.verify import PATHS, penrose_check


def e(text):
    return parse_entry(text)


def seq_value(grid, den_seq, rows, cols):
    """Independent decoder: a (matrix grid, scalar seq) pair as an RfMatrix."""
    den = Poly(den_seq)
    out = []
    for r in range(rows):
        out.append([RatFun(Poly(grid[r][c]), den) for c in range(cols)])
    return RfMatrix.from_rows(out)


def is_zero_grid(grid):
    return not any(entry for row in grid for entry in row)


class TestPolyMatrix:
    def test_coefficient_extraction(self):
        a = parse_matrix_file("matrix 2 2\ns; 1\n0; s^2")
        p = PolyMatrix.from_rf_matrix(a)
        assert p.coeffs == (
            ((0, 1), (1,)),
            ((), (0, 0, 1)),
        )

    def test_constant_matrix_single_coefficient(self):
        a = parse_matrix_file("matrix 2 2\n3; 1\n-2; 0")
        p = PolyMatrix.from_rf_matrix(a)
        assert p.coeffs == (((3,), (1,)), ((-2,), ()))

    def test_rational_entry_rejected_with_position(self):
        a = parse_matrix_file("matrix 1 1\n1/s")
        with pytest.raises(ValueError, match=r"\(1, 1\)"):
            PolyMatrix.from_rf_matrix(a)

    def test_non_integral_coefficient_rejected_with_position(self):
        with pytest.raises(ValueError, match=r"entry \(2, 1\) is not integral: 1/2"):
            PolyMatrix(2, 2, [[(1, 0), (0, 0)], [(0, Fraction(1, 2)), (1, 0)]])
        with pytest.raises(ValueError, match=r"not integral: -1/3"):
            Poly([0, Fraction(-1, 3)])
        with pytest.raises(ValueError, match=r"\(1, 2\)"):
            PolyMatrix.from_rf_matrix(parse_matrix_file("matrix 1 2\n1; s/2"))

    def test_inexact_coefficient_rejected_with_position(self):
        inexact = r"^entry \(1, 1\): exact coefficient expected, got float$"
        with pytest.raises(TypeError, match=inexact):
            PolyMatrix(1, 1, [[(1, 0.5)]])
        with pytest.raises(TypeError, match=r"^entry \(2, 1\): .* got str$"):
            PolyMatrix(2, 1, [[(1,)], [(0, "1")]])

    def test_non_sequence_entry_rejected_with_position(self):
        not_a_sequence = r"entry \(1, 1\) is not a coefficient sequence: 5$"
        with pytest.raises(TypeError, match=not_a_sequence):
            PolyMatrix(1, 1, [[5]])
        with pytest.raises(TypeError, match=r"entry \(2, 2\) .* sequence: '12'"):
            PolyMatrix(2, 2, [[(1,), ()], [(), "12"]])
        with pytest.raises(TypeError, match=r"entry \(1, 1\) .* sequence: Poly\(\[1, 2\]\)$"):
            PolyMatrix(1, 1, [[Poly([1, 2])]])

    def test_integral_fraction_taken_as_int(self):
        p = PolyMatrix(1, 2, [[(Fraction(3, 1),), (Fraction(-4, 2),)]])
        assert p.coeffs == (((3,), (-2,)),)
        assert all(type(x) is int for entry in p.coeffs[0] for x in entry)
        q = RfMatrix.from_rows([[Poly([Fraction(6, 3)]), Fraction(5, 1)]])
        q = PolyMatrix.from_rf_matrix(q)
        assert q.coeffs == (((2,), (5,)),)

    def test_degree_of_matrices_without_entries(self):
        # a matrix with no entries is zero, of degree -1, whichever side is empty
        assert PolyMatrix.zeros(2, 0).degree == -1
        assert PolyMatrix.zeros(0, 2).degree == -1
        assert PolyMatrix.zeros(2, 2).degree == -1

    def test_roundtrip_through_rf_matrix(self):
        rng = random.Random(41)
        for _ in range(20):
            a = rand_problem_matrix(rng, max_dim=3)
            p = PolyMatrix.from_rf_matrix(a)
            assert p.to_rf_matrix() == a

    def test_leading_block_checks_its_index(self):
        a = PolyMatrix.from_rf_matrix(parse_matrix_file("matrix 2 2\ns; 1\n0; s^2"))
        assert a.leading_block(1).coeffs == (((0, 1),),)
        assert a.leading_block(2) == a
        for i in (0, 3, 5):
            with pytest.raises(IndexError, match=r"out of range 1\.\.2"):
                a.leading_block(i)
        with pytest.raises(IndexError):
            PolyMatrix.identity(2).leading_block(5)
        with pytest.raises(ValueError, match="non-square"):
            PolyMatrix.zeros(2, 3).leading_block(1)

    def test_principal_partition(self):
        n = PolyMatrix.from_rf_matrix(load("wmp_rank2_n.mat"))
        prev, border, corner = n.principal_partition(3)
        assert prev.to_rf_matrix() == load("wmp_rank2_n.mat").leading_block(2)
        assert Poly(border[0, 0]) == Poly([1, 1])
        assert Poly(border[1, 0]) == Poly([0, 1])
        assert corner == (3, 1)


class TestInitFraction:
    def test_zero_column(self):
        z, y = init_fraction(PolyMatrix.zeros(3, 1), PolyMatrix.identity(3))
        assert z.is_zero
        assert y == (1,)

    def test_monomial_column_left_unreduced(self):
        # single entry s, unit weight: numerator {0,1}, denominator {0,0,1};
        # reduction to 1/s happens only in the driver
        z, y = init_fraction(
            PolyMatrix(1, 1, [[(0, 1)]]), PolyMatrix.identity(1)
        )
        assert z.coeffs == (((0, 1),),)
        assert y == (0, 0, 1)

    def test_matches_rational_path_after_reduction(self):
        a = PolyMatrix.from_rf_matrix(load("wmp_poly3_a.mat"))
        w = PolyMatrix.from_rf_matrix(load("wmp_poly3_w.mat"))
        z, y = init_fraction(a.column(1), w)
        got = seq_value(z.coeffs, y, 1, 3)
        states = list(
            rational_stages(
                WeightedProblem(
                    load("wmp_poly3_a.mat"),
                    load("wmp_poly3_w.mat"),
                    load("wmp_poly3_w.mat"),
                )
            )
        )
        assert got == states[0].x


class TestStageSequences:
    def test_orthogonal_columns(self):
        states = list(partition_stages(WeightedProblem(PolyMatrix.identity(2))))
        st, sg = states[1], states[1].stage
        assert sg.proj == (((),),)  # zero projection: one empty entry
        assert seq_value(sg.resid, st.x.den and [1], 2, 1) == RfMatrix.from_rows(
            [[e("0")], [e("1")]]
        )
        assert sg.row_num == (((), (1,)),)
        assert sg.row_den == (1,)
        assert st.x.num.coeffs == (((1,), ()), ((), (1,)))
        assert st.x.den == (1,)
        # identity weight: the coupling column vanishes and its scalar
        # denominator collapses to the previous one
        assert sg.coupling_num == (((),),)
        assert sg.coupling_den == (1,)

    def test_dependent_column_value(self):
        a = PolyMatrix(1, 2, [[(1,), (1,)]])
        states = list(partition_stages(WeightedProblem(a)))
        st, sg = states[1], states[1].stage
        assert sg.resid == (((),),)
        # Schur factor 2 (its numerator is the row denominator here, where
        # the row has no common factor to reduce), bottom row value 1/2
        assert RatFun(Poly(sg.row_den), Poly(sg.schur_den)) == RatFun(2)
        assert RatFun(
            Poly(sg.row_num[0][0]), Poly(sg.row_den)
        ) == RatFun.const(Fraction(1, 2))
        assert Poly(st.x.num[0, 0]) == Poly([1])
        assert st.x.den == (2,)

    def test_independent_row_is_over_the_weighted_form_with_the_new_column(self, monkeypatch):
        # stage 2 is independent and the stage-1 denominator y is not
        # constant: the row must be resid^T M over (resid^T M) a_2, with no
        # factor y on either side, before ``_reduced_row``; the stage keeps
        # the reduced pair
        a, w = load("wmp_poly3_a.mat"), load("wmp_poly3_w.mat")
        ap, wp = PolyMatrix.from_rf_matrix(a), PolyMatrix.from_rf_matrix(w)
        unreduced = []
        real = poly_greville._reduced_row
        monkeypatch.setattr(
            poly_greville, "_reduced_row", lambda v, w: unreduced.append((v, w)) or real(v, w)
        )
        st1, st2 = list(partition_stages(WeightedProblem(ap, wp, wp)))[:2]
        monkeypatch.undo()
        st = st2.stage
        assert len(st1.x.den) > 1 and not is_zero_grid(st.resid)
        rows = ap.rows
        resid = [Poly(st.resid[r][0]) for r in range(rows)]
        form = [
            sum((resid[r] * Poly(wp[r, c]) for r in range(rows)), Poly([]))
            for c in range(rows)
        ]
        den = sum((form[c] * Poly(ap[c, 1]) for c in range(rows)), Poly([]))
        # stage 1 comes from ``init_fraction``, so stage 2's row is the
        # first one reduced
        v, w_row = unreduced[0]
        assert [Poly(v[0][c]) for c in range(rows)] == form
        assert w_row == den.coeffs
        row = PolyMatrix(1, rows, [[p.coeffs for p in form]])
        row = fraction_simplify(row, den.coeffs)
        assert (st.row_num, st.row_den) == (row.num.coeffs, row.den)
        rat = list(rational_stages(WeightedProblem(a, w, w)))[1]
        assert seq_value(st.row_num, st.row_den, 1, rows) == rat.stage.row

    def test_branch_and_value_agreement_with_rational_path(self):
        # the rational path is the reference semantics: branch choice, every
        # stage value and bottom row, and (under singular weights, where the
        # M-orthogonality of the residual matters most) the failing stage
        # must match exactly
        for draw_weight in (rand_weight, rand_singular_weight):
            rng = random.Random(47)
            for _ in range(24):
                a = rand_problem_matrix(rng, max_dim=4)
                m, n = draw_weight(rng, a.rows), draw_weight(rng, a.cols)
                ap, mp, np_ = (PolyMatrix.from_rf_matrix(x) for x in (a, m, n))
                problem = WeightedProblem(a, m, n)
                rat, rat_err = run_stages(rational_stages(problem))
                pol, pol_err = run_stages(partition_stages(WeightedProblem(ap, mp, np_)))
                assert pol_err == rat_err
                assert len(pol) == len(rat)
                for st_rat, st_pol in zip(rat, pol):
                    assert st_rat.i == st_pol.i
                    got = st_pol.x.to_rf_matrix()
                    assert got == st_rat.x, f"stage {st_rat.i}"
                    if st_rat.i > 1:
                        sg_pol, sg_rat = st_pol.stage, st_rat.stage
                        assert is_zero_grid(sg_pol.resid) == sg_rat.resid.is_zero
                        row = seq_value(sg_pol.row_num, sg_pol.row_den, 1, a.rows)
                        assert row == sg_rat.row, f"stage {st_rat.i}"
                    if st_pol.ninv is not None:
                        assert st_pol.ninv.to_rf_matrix() == st_rat.ninv


SEQUENCE_FIELDS = (
    "proj", "resid", "coupling_num", "coupling_den",
    "row_num", "row_den", "schur_den",
)


class TestStageReduction:
    """``step_bottom_row`` reduces the row v/w, and ``step_extend`` reduces
    only the upper block over the coupling denominator c, stacking the row
    on it with no gcd over the stacked pair.  That must give, sequence for
    sequence, the pair that reducing the whole stacked pair of the
    unreduced row gives."""

    @staticmethod
    def stacked_pair(prev, stage, v, w):
        """``fraction_simplify`` of [scale*num - shift*v; c*v] over c*w for
        the unreduced row v/w, in ``Poly`` arithmetic."""
        num = [[Poly(e) for e in row] for row in prev.x.num.coeffs]
        v, w, c = [Poly(e) for e in v[0]], Poly(w), Poly(stage.coupling_den)
        scale, shift = w, [Poly(row[0]) for row in stage.proj]
        if not is_zero_grid(stage.coupling_num):
            ndd = Poly(prev.ninv.den)
            scale = ndd * w
            phi = [Poly(row[0]) for row in stage.coupling_num]
            shift = [ndd * p + f for p, f in zip(shift, phi)]
        upper = [[scale * n - t * vj for n, vj in zip(row, v)] for row, t in zip(num, shift)]
        grid = [[p.coeffs for p in row] for row in upper + [[c * vj for vj in v]]]
        return fraction_simplify(PolyMatrix(len(grid), len(v), grid), (c * w).coeffs)

    def test_matches_the_reduced_stacked_pair_of_the_unreduced_row(self, monkeypatch):
        # seeded: 300 problems of up to 4x4, some with zeroed or duplicated
        # columns, each weight the identity, SPD, singular PSD or indefinite
        rows = []
        real = poly_greville._reduced_row
        monkeypatch.setattr(
            poly_greville, "_reduced_row", lambda v, w: rows.append((v, w)) or real(v, w)
        )
        weights = (
            lambda rng, k: RfMatrix.identity(k),
            rand_weight, rand_singular_weight, rand_indefinite_weight,
        )
        rng = random.Random(2929)
        tally = Counter()
        for _ in range(300):
            a = rand_problem_matrix(rng, 4, rng.randint(1, 2))
            m, n = (rng.choice(weights)(rng, k) for k in (a.rows, a.cols))
            problem = WeightedProblem(*map(PolyMatrix.from_rf_matrix, (a, m, n)))
            rows.clear()
            states, _ = run_stages(partition_stages(problem))
            for prev, cur, (v, w) in zip(states, states[1:], rows):
                sg = cur.stage
                assert cur.x == self.stacked_pair(prev, sg, v, w), f"stage {cur.i}"
                tally["dependent" if is_zero_grid(sg.resid) else "independent"] += 1
                tally["coupled"] += not is_zero_grid(sg.coupling_num)
                tally["zero row"] += is_zero_grid(v)
                tally["row reduced"] += sg.row_den != w
                tally["block reduced"] += len(cur.x.den) < len(sg.coupling_den) + len(w) - 1
        for kind in (
            "independent", "dependent", "coupled", "zero row", "row reduced", "block reduced"
        ):
            assert tally[kind] > 0, kind


class TestFrozenStages:
    def test_yielded_states_stay_intact_and_frozen(self):
        # stage 2 takes the independent branch, stage 3 the dependent one
        a, m, n = (
            PolyMatrix.from_rf_matrix(load(f"wmp_rank2_{name}.mat"))
            for name in "amn"
        )
        states, snapshots = [], []
        for st in partition_stages(WeightedProblem(a, m, n)):
            states.append(st)
            snapshots.append(asdict(st))
        # the three shapes: no stage record at stage 1, and a Schur
        # denominator exactly when the residual is zero
        assert [st.stage is None for st in states] == [True, False, False]
        for st in states[1:]:
            assert (st.stage.schur_den is None) != is_zero_grid(st.stage.resid)
        assert [st.stage.schur_den is None for st in states[1:]] == [True, False]
        for st, snapshot in zip(states, snapshots):
            assert asdict(st) == snapshot, f"stage {st.i}"
            with pytest.raises(FrozenInstanceError):
                st.x = None
            # the sequences themselves cannot be changed in place either
            assert isinstance(st.x.den, tuple), f"stage {st.i}: den"
            if st.stage is None:
                continue
            with pytest.raises(FrozenInstanceError):
                st.stage.row_num = None
            for name in SEQUENCE_FIELDS:
                value = getattr(st.stage, name)
                assert value is None or isinstance(value, tuple), f"stage {st.i}: {name}"


class TestExtend:
    def test_identity(self):
        x = weighted_pinv(PolyMatrix.identity(2))
        assert x.num.coeffs == (((1,), ()), ((), (1,)))
        assert x.den == (1,)

    def test_pair_of_equal_columns_penrose_oracle(self):
        a = PolyMatrix(1, 2, [[(1,), (1,)]])
        x = weighted_pinv(a).to_rf_matrix()
        rep = penrose_check(
            a.to_rf_matrix(), RfMatrix.identity(1), RfMatrix.identity(2), x
        )
        assert rep.all_hold
        assert x == RfMatrix.from_rows([[e("1/2")], [e("1/2")]])

    def test_polynomial_fixture_corner_entry(self):
        a = PolyMatrix.from_rf_matrix(load("wmp_poly3_a.mat"))
        w = PolyMatrix.from_rf_matrix(load("wmp_poly3_w.mat"))
        x = weighted_pinv(a, w, w).to_rf_matrix()
        assert x[1, 1] == e("(1+2*s)/(-1+s+s^2-s^5)")
        assert x[0, 0] == e("1/(1-s-s^2+s^5)")

    def test_hessenberg_bottom_row(self):
        a = PolyMatrix.from_rf_matrix(load("wmp_hessenberg_a.mat"))
        x = weighted_pinv(a).to_rf_matrix()
        assert list(x.row(4)) == [
            e("0"), e("0"), e("-s"), e("1/(1+s^2)"), e("s/(1+s^2)"),
        ]

    def test_hessenberg_division_count(self, monkeypatch):
        # Each stage's reduction tries every entry after the first gcd by
        # one trial division, and cancels with the cofactors of its gcd
        # steps otherwise; a count does not depend on the host.  A gcd
        # step on every entry took 78 divisions here, and a gcd over the
        # whole family followed by dividing every entry again took 122.
        # Reducing the stacked pair of the unreduced row took 48, and
        # long-dividing the upper block's entries 43.  Those trial divisions
        # now run on packed values, and all 13 find their quotient, so none
        # falls back to long division.
        a = PolyMatrix.from_rf_matrix(load("wmp_hessenberg_a.mat"))
        calls = count_calls(monkeypatch, Poly, "__divmod__")
        packed = packed_divisions(monkeypatch)
        x = weighted_pinv(a)
        monkeypatch.undo()
        assert x.to_rf_matrix() == load("wmp_hessenberg_x_true.mat")
        assert len(calls) <= 30
        assert packed == [True] * 13

    def test_hessenberg_gcd_count(self, monkeypatch):
        # a gcd step runs only where the running gcd does not divide the
        # entry, and a constant denominator takes none: 43 gcd steps when
        # every nonzero entry took one, 11 when the stacked pair of the
        # unreduced row was reduced
        a = PolyMatrix.from_rf_matrix(load("wmp_hessenberg_a.mat"))
        calls = count_calls(monkeypatch, scalars, "gcd_cofactors")
        x = weighted_pinv(a)
        monkeypatch.undo()
        assert x.to_rf_matrix() == load("wmp_hessenberg_x_true.mat")
        assert len(calls) <= 9


class TestFractionSimplify:
    def test_common_factor_divided_out(self):
        ee = ((1, 2), (3, 4))
        num = PolyMatrix(2, 2, [[(0, 2 * x) for x in r] for r in ee])
        out = fraction_simplify(num, (0, 2))
        assert out.num.coeffs == tuple(tuple((x,) for x in r) for r in ee)
        assert out.den == (1,)

    def test_idempotent(self):
        rng = random.Random(53)
        for _ in range(20):
            n = rand_weight(rng, 2)
            frac = bordering_inverse(PolyMatrix.from_rf_matrix(n))
            assert fraction_simplify(frac.num, frac.den) == frac

    def test_value_preserved_at_sample_points(self):
        num = PolyMatrix(1, 2, [[(0, 2, 2), (2, 2)]])
        den = (0, 4, 4)
        simplified = fraction_simplify(num, den)
        orig_den = Poly(den)
        for x in (1, 2, Fraction(1, 3), -3):
            expected = tuple(
                tuple(
                    Poly(num[r, c])(x) / orig_den(x)
                    for c in range(num.cols)
                )
                for r in range(num.rows)
            )
            assert simplified.to_rf_matrix().eval_at(x) == expected

    def test_zero_numerator(self):
        out = fraction_simplify(PolyMatrix.zeros(1, 2), (3, 3))
        assert out.num.is_zero and out.den == (1,)

    def test_empty_numerator_keeps_its_shape(self):
        out = fraction_simplify(PolyMatrix.zeros(2, 0), (3, 3))
        assert (out.num.rows, out.num.cols, out.num.coeffs, out.den) == (2, 0, ((), ()), (1,))

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            fraction_simplify(PolyMatrix.identity(2), ())


# the dependent branch's checks, on every product of its three chains
DEPENDENT_LABELS = (
    "Schur factor denominator", "Schur factor numerator",
    "bottom row numerator (dependent)",
)
CAPACITY_LABELS = DEPENDENT_LABELS + (
    "single-column numerator", "single-column denominator",
    "projection", "residual",
    "weighted coupling column", "coupling numerator", "coupling denominator",
    "bottom row numerator (independent)", "bottom row denominator (independent)",
    "extended numerator (upper block)", "extended numerator (bottom row)",
    "extended denominator",
    "border numerator", "corner scalar product", "corner coupling form",
    "corner denominator", "block numerator (border)", "block numerator (corner)",
    "block numerator (core)", "block denominator",
)


class TestCapacityChecks:
    def test_violation_raises(self):
        # the untrimmed length counts: trimmed, [1, 2, 0] would fit degree 1
        with pytest.raises(CapacityError) as info:
            conv((1, [1, 2, 0], [1]), cap=1, label="probe")
        assert info.value.label == "probe"
        assert str(info.value).startswith("probe: ")

    def test_empty_always_fits(self):
        assert conv((1, [], [1]), cap=-2, label="probe") == ()

    def test_int_sequence_fits_then_trims(self):
        # the untrimmed length is checked: 3 coefficients fit degree 2
        assert conv((1, [4, -1, 0], [1]), cap=2, label="probe") == (4, -1)

    def test_matrix_sequence_fits_then_trims(self):
        # s times ((1, 0), (0, 2)), every entry untrimmed to length 4
        grid = (((0, 1, 0, 0), (0, 0, 0, 0)), ((0, 0, 0, 0), (0, 2, 0, 0)))
        assert conv((1, grid, [1]), cap=3, label="probe") == (((0, 1), ()), ((), (0, 2)))

    def test_all_zero_sequence_fits_as_empty(self):
        assert conv((1, [0, 0], [1]), cap=1, label="probe") == ()
        assert conv((1, (((0,),),), [1]), cap=0, label="probe") == (((),),)

    def test_padded_grid_result_raises_at_the_first_grid_label(self, monkeypatch):
        # one extra zero digit on every entry of every grid result of the
        # kernel: the check reads a grid's untrimmed length as that of its
        # longest entry, so the first grid it checks, the stage-1 numerator
        # z = a_1^T M, overflows (column 1 of degree 1, constant weight 2*I,
        # which is convolved with: capacity 1)
        a = PolyMatrix.from_rf_matrix(load("wmp_poly3_a.mat"))
        monkeypatch.setattr(poly_greville, "conv", longer_digits(poly_greville.conv, grid_result))
        with pytest.raises(CapacityError) as info:
            weighted_pinv(a, PolyMatrix.from_rf_matrix(doubled_identity(a.rows)))
        assert info.value.label == "single-column numerator"
        assert str(info.value) == (
            "single-column numerator: coefficient sequence of length 3 "
            "exceeds its degree capacity 1"
        )

    def test_padded_grid_result_with_identity_weights(self, monkeypatch):
        # with M = I the stage-1 numerator is a_1^T, not convolved, so the
        # first grid checked is z*a_1 (degree 1 + 1: capacity 2)
        monkeypatch.setattr(poly_greville, "conv", longer_digits(poly_greville.conv, grid_result))
        with pytest.raises(CapacityError) as info:
            weighted_pinv(PolyMatrix.from_rf_matrix(load("wmp_poly3_a.mat")))
        assert info.value.label == "single-column denominator"
        assert str(info.value) == (
            "single-column denominator: coefficient sequence of length 4 "
            "exceeds its degree capacity 2"
        )

    @pytest.mark.parametrize(
        "name, weights, length, cap", [("poly3", "", 13, 11), ("rank2", "mn", 7, 5)]
    )
    def test_upper_block_error_reports_its_packed_values(
        self, monkeypatch, name, weights, length, cap
    ):
        # the upper block leaves the kernel packed and is checked on its
        # reduction; one low zero digit on its values (times 2**k) makes
        # the first stage's block overflow, and the error must report that
        # call's cap and the digit count of its longest injected value
        label = "extended numerator (upper block)"
        def picked(terms, check):
            return check.get("label") == label

        faulty = longer_digits(poly_greville.conv, picked)
        calls = []

        def spy(*terms, **check):
            out = faulty(*terms, **check)
            if picked(terms, check):
                calls.append((out, check["cap"]))
            return out

        monkeypatch.setattr(poly_greville, "conv", spy)
        mats = [PolyMatrix.from_rf_matrix(load(f"wmp_{name}_{x}.mat")) for x in "a" + weights]
        with pytest.raises(CapacityError) as info:
            weighted_pinv(*mats)
        [((vals, k), call_cap)] = calls
        assert call_cap == cap
        assert max(len(scalars.digits(v, k)) for row in vals for v in row) == length
        assert info.value.label == label
        assert str(info.value) == (
            f"{label}: coefficient sequence of length {length} "
            f"exceeds its degree capacity {cap}"
        )

    def test_every_check_runs_under_its_own_label(self, monkeypatch):
        # one extra zero digit on every entry of the kernel calls checked
        # under one label must raise under that label; the two problems take
        # every branch, and a check that has slack on one trips on the other.
        # A dependent-branch label is injected only into its chain's product
        # by ndd, on a stage with a coupling column: the product before it is
        # checked under the same label and would otherwise raise first
        rng = random.Random(29)
        problems = []
        for _ in range(2):
            a = rand_problem_matrix(rng, max_dim=4)
            m, n = rand_weight(rng, a.rows), rand_weight(rng, a.cols)
            problems.append(WeightedProblem(*map(PolyMatrix.from_rf_matrix, (a, m, n))))
        ndd = [None]  # the stage's ndd when it has a coupling column
        step = poly_greville.step_bottom_row

        def spy(state, col, proj, resid, coupling_num, *rest):
            ndd[0] = None if is_zero_grid(coupling_num) else state.ninv.den
            return step(state, col, proj, resid, coupling_num, *rest)

        monkeypatch.setattr(poly_greville, "step_bottom_row", spy)
        real = poly_greville.conv
        for label in CAPACITY_LABELS:
            only_coupled = label in DEPENDENT_LABELS

            def pick(terms, check, label=label, only_coupled=only_coupled):
                by_ndd = any(ndd[0] is x for _, a, b in terms for x in (a, b))
                return check.get("label") == label and (by_ndd or not only_coupled)

            monkeypatch.setattr(poly_greville, "conv", longer_digits(real, pick))
            raised = []
            for problem in problems:
                try:
                    list(partition_stages(problem))
                except CapacityError as exc:
                    raised.append(exc.label)
                except ArithmeticError:
                    pass  # a check with slack let the zero digit through
            assert label in raised, label

    def test_random_runs_stay_within_bounds(self):
        # every step asserts its pre-trim length against the formula bound,
        # so a clean run is the property
        rng = random.Random(59)
        for _ in range(15):
            a = rand_problem_matrix(rng, max_dim=4)
            m, n = rand_weight(rng, a.rows), rand_weight(rng, a.cols)
            weighted_pinv(
                PolyMatrix.from_rf_matrix(a),
                PolyMatrix.from_rf_matrix(m),
                PolyMatrix.from_rf_matrix(n),
            )


class TestPolyBordering:
    def test_scalar(self):
        frac = bordering_inverse(PolyMatrix(1, 1, [[(2, 1)]]))
        assert frac.num.coeffs == (((1,),),)
        assert frac.den == (2, 1)

    def test_identity(self):
        frac = bordering_inverse(PolyMatrix.identity(4))
        assert frac.to_rf_matrix() == RfMatrix.identity(4)

    def test_fixture_matches_elimination_oracle(self):
        n1 = load("wmp_poly3_w.mat")
        frac = bordering_inverse(PolyMatrix.from_rf_matrix(n1))
        assert frac.to_rf_matrix() == n1.ff_inverse()

    def test_product_is_identity(self):
        rng = random.Random(61)
        for _ in range(10):
            n = rand_weight(rng, rng.randint(1, 5))
            frac = bordering_inverse(PolyMatrix.from_rf_matrix(n))
            assert n * frac.to_rf_matrix() == RfMatrix.identity(n.rows)

    def test_zero_border_grows_a_block_diagonal_inverse(self):
        # orders 3 and 4 have a zero border over a nonidentity block
        n = parse_matrix_file(
            "matrix 4 4\n1+s; 1; 0; 0\n1; 2; 0; 0\n0; 0; s; 0\n0; 0; 0; 3\n"
        )
        frac = bordering_inverse(PolyMatrix.from_rf_matrix(n))
        assert frac.to_rf_matrix() == n.ff_inverse()
        assert frac == fraction_simplify(frac.num, frac.den)

    def test_singular_stage_reported(self):
        n = PolyMatrix(2, 2, [[(), ()], [(), (1,)]])
        with pytest.raises(SingularMatrixError) as err:
            bordering_inverse(n)
        assert err.value.stage == 1
        # a zero border over a zero corner
        with pytest.raises(SingularMatrixError) as err:
            bordering_inverse(PolyMatrix(2, 2, [[(1,), ()], [(), ()]]))
        assert err.value.stage == 2


def zero_border_reference(inv, corner):
    """The unreduced stacked pair [[g*nbar, 0], [0, ndd]] over ndd*g of a
    zero-border step, reduced by ``fraction_simplify``; products by
    schoolbook ``Poly`` multiplication."""
    k, g, ndd = inv.num.rows, Poly(corner), Poly(inv.den)
    grid = [[(g * Poly(x)).coeffs for x in row] + [()] for row in inv.num.coeffs]
    grid.append([()] * k + [ndd.coeffs])
    return fraction_simplify(PolyMatrix(k + 1, k + 1, grid), (ndd * g).coeffs)


def rand_poly(rng, max_deg=2, bound=4):
    """A nonzero integer polynomial of degree at most ``max_deg``."""
    while True:
        p = Poly([rng.randint(-bound, bound) for _ in range(rng.randint(1, max_deg + 1))])
        if p:
            return p


class TestZeroBorderStep:
    def test_matches_the_reduced_stacked_pair(self):
        # 2400 seeded canonical nbar/ndd of orders 1 to 3, ndd given an
        # integer content of 1, 2, 3 or 6 before reduction, and a nonzero
        # corner g; every fourth g has a negative leading coefficient,
        # shares a factor of ndd's integer content, or is a multiple of ndd
        rng = random.Random(4242)
        tally = Counter()
        for trial in range(2400):
            k = rng.randint(1, 3)
            nbar = PolyMatrix(k, k, [[rand_poly(rng).coeffs for _ in range(k)] for _ in range(k)])
            ndd = rand_poly(rng) * rng.choice((1, 2, 3, 6))
            if ndd.coeffs[-1] < 0:
                ndd = -ndd
            inv = fraction_simplify(nbar, ndd.coeffs)
            content = gcd(*inv.den)
            kind = trial % 4
            g = rand_poly(rng)
            if kind == 1:
                g = g if g.coeffs[-1] < 0 else -g
            elif kind == 2:
                g = g * rng.choice([d for d in (2, 3, 6) if content % d == 0] or [1])
            elif kind == 3:
                g = g * Poly(inv.den)
            tally["negative"] += g.coeffs[-1] < 0
            tally["content"] += gcd(content, *g.coeffs) > 1
            tally["multiple"] += kind == 3
            out = poly_greville.poly_bordering_step(
                inv, PolyMatrix.zeros(k, 1), g.coeffs, g.degree
            )
            assert out == zero_border_reference(inv, g.coeffs), trial
        assert tally["negative"] > 1000
        assert tally["content"] > 300 and tally["multiple"] == 600

    def test_identity_block_takes_no_core_product(self, monkeypatch):
        # g/D = 1: the core is nbar itself, and only ndd*g is convolved
        inv = fraction_simplify(PolyMatrix.identity(2), (2, 1))
        convs = count_calls(monkeypatch, poly_greville, "conv")
        out = poly_greville.poly_bordering_step(inv, PolyMatrix.zeros(2, 1), (2, 1), 1)
        monkeypatch.undo()
        assert len(convs) == 1
        assert out == zero_border_reference(inv, (2, 1))
        assert out.num == PolyMatrix.identity(3) and out.den == (2, 1)

    def test_zero_corner_raises_at_its_order(self):
        inv = fraction_simplify(PolyMatrix.identity(2), (3,))
        with pytest.raises(SingularMatrixError) as err:
            poly_greville.poly_bordering_step(inv, PolyMatrix.zeros(2, 1), (), 0)
        assert err.value.stage == 3


def _outcome(compute, problem):
    try:
        return compute(problem)
    except (DegenerateWeightError, SingularMatrixError) as exc:
        return type(exc), exc.stage, str(exc)


class TestRationalInput:
    def test_solve_agrees_with_the_rational_path(self):
        # A = P/L enters as L*P^+ and each weight as its cleared numerator:
        # every path gives the same result, or the same error class, stage
        # and message
        rng = random.Random(8080)
        results = errors = 0
        for trial in range(400):
            p = rand_rational_problem(rng)
            expected = _outcome(rational_pinv, p)
            for name, (pinv, _) in PATHS.items():
                assert _outcome(pinv, p) == expected, (name, trial)
            if isinstance(expected, RfMatrix):
                results += 1
            else:
                errors += 1
        assert results > 200 and errors > 20

    def test_solve_returns_the_reduced_pair(self):
        # L*P^+ is reduced once more after the product by L
        fixtures = (
            (load("wmp_rational_a.mat"), None, None),
            tuple(load(f"wmp_rank2_{name}.mat") for name in "amn"),
        )
        for a, m, n in fixtures:
            x = solve(WeightedProblem(a, m, n))
            assert x == fraction_simplify(x.num, x.den)

    def test_invert_agrees_with_both_inverse_oracles(self):
        rng = random.Random(8081)
        for trial in range(40):
            k = rng.randint(1, 4)
            w = rand_weight(rng, k)
            if trial % 2:
                # congruence by diag(1/d): entry (r, c) over d_r*d_c
                d = [RatFun(rand_den(rng)) for _ in range(k)]
                n = RfMatrix.from_rows(
                    [[w[r, c] / (d[r] * d[c]) for c in range(k)] for r in range(k)]
                )
            else:
                n = w.scale(RatFun(1, rand_den(rng)))
            inv = invert(n).to_rf_matrix()
            assert inv == rational_bordering_inverse(n) == n.ff_inverse(), trial


class TestDegenerateWeights:
    def test_degenerate_residual_form_reports_stage(self):
        from wmpinv.errors import DegenerateWeightError

        a = PolyMatrix.identity(2)
        m = PolyMatrix(2, 2, [[(1,), ()], [(), ()]])
        with pytest.raises(DegenerateWeightError) as err:
            weighted_pinv(a, m, PolyMatrix.identity(2))
        assert err.value.stage == 2

    def test_degenerate_schur_factor_reports_stage(self):
        from wmpinv.errors import DegenerateWeightError

        a = PolyMatrix(1, 2, [[(1,), (1,)]])
        n = PolyMatrix(2, 2, [[(1,), (1,)], [(1,), (1,)]])
        with pytest.raises(DegenerateWeightError) as err:
            weighted_pinv(a, PolyMatrix.identity(1), n)
        assert err.value.stage == 2


RF_2X2 = RfMatrix.identity(2)
POLY_2X2 = PolyMatrix.identity(2)


@pytest.mark.parametrize(
    "compute, arg, expected, got",
    [
        (weighted_pinv, RF_2X2, "PolyMatrix", "RfMatrix"),
        (rational_pinv, WeightedProblem(POLY_2X2), "RfMatrix", "PolyMatrix"),
        (rational_bordering_inverse, POLY_2X2, "RfMatrix", "PolyMatrix"),
        (bordering_inverse, RF_2X2, "PolyMatrix", "RfMatrix"),
        (solve, WeightedProblem(POLY_2X2), "RfMatrix", "PolyMatrix"),
        (invert, POLY_2X2, "RfMatrix", "PolyMatrix"),
        (lambda x: penrose_check(x, x, x, x), POLY_2X2, "RfMatrix", "PolyMatrix"),
    ],
    ids=[
        "poly-pinv", "rational-pinv", "rational-bordering", "poly-bordering",
        "solve", "invert", "penrose-check",
    ],
)
def test_each_path_rejects_the_other_paths_matrix_type(compute, arg, expected, got):
    with pytest.raises(TypeError, match=rf"^{expected} expected, got {got}$"):
        compute(arg)


@pytest.mark.parametrize(
    "stages, arg, got",
    [(rational_stages, RF_2X2, "RfMatrix"), (partition_stages, POLY_2X2, "PolyMatrix")],
    ids=["rational", "poly"],
)
def test_partition_stages_rejects_a_bare_matrix(stages, arg, got):
    # the coefficient path's old form passed the matrix itself
    with pytest.raises(TypeError, match=rf"^WeightedProblem expected, got {got}$"):
        next(stages(arg))


@pytest.mark.parametrize(
    "a, got",
    [(WeightedProblem(POLY_2X2), "WeightedProblem"), ([[1]], "list")],
    ids=["problem", "list"],
)
def test_weighted_problem_rejects_a_non_matrix(a, got):
    # the coefficient path's weighted_pinv takes the matrix, not a problem
    with pytest.raises(TypeError, match=rf"^RfMatrix or PolyMatrix expected, got {got}$"):
        weighted_pinv(a)
    with pytest.raises(TypeError, match=rf"^RfMatrix or PolyMatrix expected, got {got}$"):
        WeightedProblem(a)
