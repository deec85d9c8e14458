"""Polynomial and rational-function arithmetic.

Derived expectations are produced by independent brute force inside the
tests (schoolbook convolution, divisibility by long division) and frozen.
"""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from helpers import count_calls, rand_poly, rand_ratfun
from wmpinv import scalars
from wmpinv.errors import PoleError
from wmpinv.scalars import (
    Poly,
    RatFun,
    _heu_gcd,
    _prs_gcd,
    digits,
    gcd_cofactors,
    joint_reduce,
    pack,
    poly_gcd,
)


def schoolbook_mul(a, b):
    # independent oracle for products: plain double loop, then trim
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def rational_divmod(p, q):
    # independent oracle for division: long division over Q in Fractions
    rem = [Fraction(c) for c in p.coeffs]
    dq = q.degree
    quo = [Fraction(0)] * max(len(rem) - dq, 0)
    for k in range(len(rem) - dq - 1, -1, -1):
        quo[k] = rem[k + dq] / q.coeffs[-1]
        for j, cj in enumerate(q.coeffs):
            rem[k + j] -= quo[k] * cj
    return quo, rem[:dq]


def assert_canonical(f, num, den):
    # f = RatFun(num, den): canonical form, same value
    assert f.num * den == f.den * num
    if f.is_zero:
        assert f.den.coeffs == (1,)
        return
    # integer coefficients, joint content 1, positive leading den
    coeffs = list(f.num.coeffs) + list(f.den.coeffs)
    assert all(isinstance(c, int) for c in coeffs)
    joint = 0
    for c in coeffs:
        joint = gcd(joint, c)
    assert joint == 1
    assert f.den.coeffs[-1] > 0
    assert poly_gcd(f.num, f.den).degree == 0
    # re-normalizing is a fixed point
    assert RatFun(f.num, f.den) == f


class TestPolyNormalization:
    def test_trailing_zeros_removed(self):
        assert Poly([1, 2, 0, 0]).coeffs == (1, 2)

    def test_all_zero_becomes_empty(self):
        assert Poly([0, 0]).coeffs == ()
        assert Poly([0, 0]).is_zero

    def test_already_normalized_unchanged(self):
        assert Poly([0, 1]).coeffs == (0, 1)

    def test_iteration_stops_at_the_last_coefficient(self):
        # bounded, so that an iteration that never stops fails instead of hangs
        import itertools

        assert list(itertools.islice(iter(Poly([1, 2])), 5)) == [1, 2]
        assert list(itertools.islice(iter(Poly()), 5)) == []

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            Poly([0.5])
        with pytest.raises(TypeError):
            Poly.const(0.5)
        with pytest.raises(TypeError):
            RatFun.const(0.5)

    def test_slicing_rejected(self):
        with pytest.raises(TypeError, match="^polynomials do not support slicing$"):
            Poly([1, 2])[0:1]

    def test_exponent_guards(self):
        with pytest.raises(ValueError, match="^exponent must be a nonnegative integer$"):
            Poly([1, 1]) ** -1
        with pytest.raises(ValueError, match="^exponent must be an integer$"):
            RatFun(Poly([1, 1])) ** 1.5

    def test_equal_fractions_hash_equal(self):
        # (1+s)/s and (2+2s)/(2s) are one value
        f, g = RatFun(Poly([1, 1]), Poly([0, 1])), RatFun(Poly([2, 2]), Poly([0, 2]))
        assert f == g and hash(f) == hash(g)


class TestIntegerContract:
    """A Poly holds ints only; rational constants enter through RatFun."""

    def test_fraction_coefficients(self):
        with pytest.raises(ValueError, match="not integral: 1/2"):
            Poly([Fraction(1, 2)])
        with pytest.raises(ValueError, match="not integral: -1/3"):
            Poly.const(Fraction(-1, 3))
        p = Poly([Fraction(4, 2)])
        assert p.coeffs == (2,) and type(p.coeffs[0]) is int
        with pytest.raises(TypeError):
            Poly([1, 1]) + Fraction(1, 2)
        assert Poly([1]) != Fraction(1, 2)
        assert Poly([2]) == Fraction(4, 2)
        with pytest.raises(TypeError, match="polynomial or integer expected"):
            RatFun(Fraction(1, 2))
        assert RatFun.const(Fraction(1, 2)) == RatFun(1, 2)

    def test_non_integral_quotient_raises(self):
        with pytest.raises(ArithmeticError):
            divmod(Poly([0, 0, 1]), Poly([1, 2]))
        with pytest.raises(ArithmeticError):
            Poly([1, 2]).exact_div(Poly([2]))

    def test_inexact_division_raises(self):
        # 1 + s^2 = (s - 1)(s + 1) + 2: the quotient is integral, with a remainder
        with pytest.raises(ArithmeticError, match="^polynomial division is not exact$"):
            Poly([1, 0, 1]).exact_div(Poly([1, 1]))

    def test_division_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            divmod(Poly([1]), Poly())

    def test_primitive_content_is_int(self):
        content, part = Poly([4, 6]).primitive()
        assert (content, part) == (2, Poly([2, 3]))
        assert type(content) is int
        p = Poly([-3, 5])
        assert p.primitive() == (1, p) and p.primitive()[1] is p
        assert Poly().primitive() == (0, Poly())

    def test_canonical_and_divmod_hypothesis(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        coeffs = st.lists(st.integers(-(2**40), 2**40), max_size=6)
        nonzero = st.integers(-(2**40), 2**40).filter(bool)

        @hypothesis.settings(max_examples=300, deadline=None, database=None)
        @hypothesis.given(coeffs, coeffs, nonzero, st.sampled_from([1, -1]))
        def check(u, v, lead, unit):
            p, q = Poly(u), Poly(v + [lead])
            assert_canonical(RatFun(p, q), p, q)
            ref_quo, _ = rational_divmod(p, q)
            if any(c.denominator != 1 for c in ref_quo):
                with pytest.raises(ArithmeticError):
                    divmod(p, q)
                q = Poly(v + [unit])  # the quotient by q is always integral
            quo, rem = divmod(p, q)
            assert quo * q + rem == p
            assert rem.degree < q.degree

        check()


class TestPolyArithmetic:
    def test_difference_of_squares(self):
        assert (Poly([1, 1]) * Poly([1, -1])).coeffs == (1, 0, -1)

    def test_multiplicative_identity(self):
        p = Poly([1, 1])
        assert (p * Poly([1])).coeffs == (1, 1)

    def test_square_matches_schoolbook(self):
        p = Poly([1, 1])
        assert (p * p).coeffs == schoolbook_mul((1, 1), (1, 1)) == (1, 2, 1)

    def test_random_products_match_schoolbook(self):
        rng = random.Random(11)
        for _ in range(50):
            a = [rng.randint(-5, 5) for _ in range(rng.randint(0, 5))]
            b = [rng.randint(-5, 5) for _ in range(rng.randint(0, 5))]
            assert (Poly(a) * Poly(b)).coeffs == schoolbook_mul(
                tuple(Poly(a).coeffs), tuple(Poly(b).coeffs)
            )

    def test_degree_adds_under_product(self):
        rng = random.Random(5)
        for _ in range(40):
            p = Poly([rng.randint(-3, 3) for _ in range(rng.randint(1, 5))] + [1])
            q = Poly([rng.randint(-3, 3) for _ in range(rng.randint(1, 5))] + [1])
            assert (p * q).degree == p.degree + q.degree

    def test_divmod_roundtrip(self):
        # divmod raises exactly when the quotient over Q is not integral
        rng = random.Random(6)
        outcomes = set()
        for _ in range(30):
            p = Poly([rng.randint(-4, 4) for _ in range(rng.randint(0, 6))])
            q = Poly([rng.randint(-4, 4) for _ in range(rng.randint(1, 4))] + [rng.randint(1, 3)])
            ref_quo, ref_rem = rational_divmod(p, q)
            integral = all(c.denominator == 1 for c in ref_quo)
            outcomes.add(integral)
            if not integral:
                with pytest.raises(ArithmeticError):
                    divmod(p, q)
                continue
            quo, rem = divmod(p, q)
            assert (quo, rem) == (Poly(ref_quo), Poly(ref_rem))
            assert quo * q + rem == p
            assert rem.degree < q.degree
        assert outcomes == {True, False}

    def test_reflected_subtraction(self):
        assert 3 - Poly([1, 2]) == Poly([2, -2])

    def test_pow(self):
        assert (Poly([1, 1]) ** 3).coeffs == (1, 3, 3, 1)
        assert (Poly([0, 1]) ** 0).coeffs == (1,)

    def test_monomial_pow_matches_repeated_product(self):
        for c in (1, -1, 3, -3):
            for k in range(4):
                mono = Poly([0] * k + [c])
                for n in range(6):
                    expected = (1,)
                    for _ in range(n):
                        expected = schoolbook_mul(expected, mono.coeffs)
                    assert (mono ** n).coeffs == expected, (c, k, n)
        assert Poly() ** 0 == 1
        assert Poly() ** 3 == 0


class TestPolyGcd:
    def test_euclid_case(self):
        # (s^2 - 1, s - 1): long division leaves remainder 0, so s - 1
        g = poly_gcd(Poly([-1, 0, 1]), Poly([-1, 1]))
        assert g.coeffs == (-1, 1)

    def test_unit_gcd(self):
        assert poly_gcd(Poly([3, 1, 2]), Poly([1])).coeffs == (1,)

    def test_content_removed(self):
        assert poly_gcd(Poly([2, 2]), Poly([4, 4])).coeffs == (1, 1)

    def test_gcd_with_zero(self):
        assert poly_gcd(Poly([2, 4]), Poly([])).coeffs == (1, 2)

    def test_both_zero_rejected(self):
        with pytest.raises(ValueError):
            poly_gcd(Poly([]), Poly([]))

    def test_gcd_divides_both_exactly(self):
        rng = random.Random(3)
        for _ in range(60):
            common = Poly([rng.randint(-3, 3) for _ in range(rng.randint(0, 3))] + [1])
            p = common * Poly([rng.randint(-3, 3) for _ in range(rng.randint(1, 4))])
            q = common * Poly([rng.randint(-3, 3) for _ in range(rng.randint(1, 4))])
            if p.is_zero and q.is_zero:
                continue
            g = poly_gcd(p, q)
            if p:
                assert divmod(p, g)[1].is_zero
            if q:
                assert divmod(q, g)[1].is_zero
            # the planted common factor must divide the gcd
            if not common.degree == 0:
                assert divmod(g, poly_gcd(common, common))[1].is_zero


def prs_reference(p, q):
    # the pseudo-remainder sequence alone, on the primitive integer parts
    return tuple(
        _prs_gcd(list(p.primitive()[1].coeffs), list(q.primitive()[1].coeffs))
    )


def rand_nonconstant(rng, deg, bits):
    top = rng.choice([-1, 1]) * rng.randint(1, 2**bits)
    return Poly([rng.randint(-(2**bits), 2**bits) for _ in range(deg)] + [top])


class TestGcdCofactors:
    """gcd_cofactors(p, q) = (g, p/g, q/g) with g = poly_gcd(p, q)."""

    @staticmethod
    def check(p, q):
        g, cp, cq = gcd_cofactors(p, q)
        assert g == poly_gcd(p, q)
        assert g * cp == p and g * cq == q
        return g, cp, cq

    def test_random_operands(self):
        rng = random.Random(43)
        for _ in range(300):
            bits = rng.choice([1, 2, 8, 70])
            common = rand_nonconstant(rng, rng.randint(0, 4), bits)
            p = common * rand_nonconstant(rng, rng.randint(0, 5), bits)
            q = common * rand_nonconstant(rng, rng.randint(0, 5), bits)
            p, q = p * rng.choice([1, -1, 6, -10]), q * rng.choice([1, -1, 4, -9])
            self.check(p, q)
            self.check(q, p)

    def test_coprime_operands_are_their_own_cofactors(self):
        # s^2+s and s^2+s+2 are even at every integer point; GCDHEU
        # certifies their gcd 1 from the content of the digits
        p, q = Poly([0, 1, 1]), Poly([2, 1, 1])
        g, cp, cq = self.check(p, q)
        assert g == 1 and cp is p and cq is q

    def test_prs_fallback(self):
        # GCDHEU's candidate (s+1)(s-3) fails the divisibility check (see
        # TestHeuristicGcd), so the cofactors come from exact division
        p, q = Poly([-1, -2, 0, 1]) * 3, Poly([-1, 1, 2]) * -2
        g, cp, cq = self.check(p, q)
        assert g.coeffs == (1, 1)
        assert cp.coeffs == (-3, -3, 3) and cq.coeffs == (2, -4)

    def test_zero_operand(self):
        p = Poly([4, -6, -2])  # -2 * (s^2 + 3s - 2)
        assert self.check(p, Poly([])) == (Poly([-2, 3, 1]), Poly([-2]), Poly([]))
        assert self.check(Poly([]), p) == (Poly([-2, 3, 1]), Poly([]), Poly([-2]))
        assert self.check(Poly([-5]), Poly([])) == (Poly([1]), Poly([-5]), Poly([]))
        with pytest.raises(ValueError):
            gcd_cofactors(Poly([]), Poly([]))

    def test_constant_operands(self):
        for p, q in (
            (Poly([6]), Poly([4])), (Poly([-3]), Poly([1, 2])), (Poly([0, 2]), Poly([7]))
        ):
            g, cp, cq = self.check(p, q)
            assert g == 1 and cp is p and cq is q

    def test_non_primitive_negative_leading_operands(self):
        common = Poly([1, -2, 3])
        p = common * Poly([5, 0, -1]) * -6
        q = common * Poly([1, -4]) * 10
        g, cp, cq = self.check(p, q)
        assert g == common and cp == Poly([5, 0, -1]) * -6 and cq == Poly([1, -4]) * 10
        g, cp, cq = self.check(-p, -q)
        assert g == common and cp == Poly([5, 0, -1]) * 6

    def test_heuristic_gcd_costs_only_its_trial_divisions(self, monkeypatch):
        common = Poly([-3, -1, 2])
        p, q = common * Poly([1, 1]) * 4, common * Poly([-2, 0, 5])
        calls = count_calls(monkeypatch, Poly, "__divmod__")
        g, cp, cq = gcd_cofactors(p, q)
        assert len(calls) == 2
        assert g == common and cp == Poly([1, 1]) * 4 and cq == Poly([-2, 0, 5])


class TestSequenceCodec:
    """pack and digits, shared by GCDHEU and the coefficient-path kernel."""

    def test_digits_invert_pack(self):
        rng = random.Random(31)
        for _ in range(300):
            k = rng.choice([2, 3, 5, 8, 64, 200])
            half = 1 << (k - 1)
            ends = [half, -(half - 1), 0]
            seq = [
                rng.choice(ends) if rng.random() < 0.3 else rng.randint(1 - half, half)
                for _ in range(rng.randint(0, 12))
            ]
            if seq and rng.random() < 0.5:
                seq[-1] = -rng.randint(1, half - 1)  # negative leading coefficient
            trimmed = list(seq)
            while trimmed and not trimmed[-1]:
                trimmed.pop()
            assert digits(pack(seq, k), k) == trimmed, (k, seq)

    def test_digit_range_ends(self):
        # digits lie in (-2**(k-1), 2**(k-1)]: 2**(k-1) stays a digit, and
        # -(2**(k-1)) is carried into the next one
        assert digits(pack([4, -3, 4], 3), 3) == [4, -3, 4]
        assert digits(pack([-3, 1], 3), 3) == [-3, 1]
        assert digits(-4, 3) == [4, -1]
        assert digits(pack([0, 0, -1], 3), 3) == [0, 0, -1]
        assert digits(0, 3) == [] and pack([], 3) == 0

    def test_gcd_of_high_powers(self):
        # the evaluation point is 2**197 here, and a(xi) has about 59000 bits
        base = Poly([1, 1])
        assert poly_gcd(base**300, base**200) == base**200


class TestHeuristicGcd:
    """poly_gcd (one GCDHEU step, PRS fallback) against the PRS alone."""

    def test_spurious_integer_factor(self):
        # s^2+s and s^2+s+2 are even at every integer point, yet coprime
        p, q = Poly([0, 1, 1]), Poly([2, 1, 1])
        assert all(p(x) % 2 == 0 and q(x) % 2 == 0 for x in range(-20, 21))
        # the common factor 2 of the values is the content of the digits
        # of h, so GCDHEU itself certifies the gcd 1, with the operands as
        # their own cofactors
        assert _heu_gcd(p, q) == (Poly([1]), p, q)
        assert poly_gcd(p, q).coeffs == prs_reference(p, q) == (1,)

    def test_planted_common_factors(self):
        rng = random.Random(17)
        for _ in range(150):
            bits = rng.choice([1, 2, 4, 16])
            common = rand_nonconstant(rng, rng.randint(1, 5), bits)
            p = common * rand_nonconstant(rng, rng.randint(0, 6), bits)
            q = common * rand_nonconstant(rng, rng.randint(0, 6), bits)
            g = poly_gcd(p, q)
            assert g.coeffs == prs_reference(p, q)
            # g is primitive, so this is divisibility over Q
            assert divmod(g, common.primitive()[1])[1].is_zero

    def test_negative_leading_and_content_inputs(self):
        # rational factors cleared to integers by the lcm of their
        # denominators; a gcd ignores scalar factors
        def cleared(coeffs):
            scale = lcm(*(c.denominator for c in coeffs))
            return Poly([c * scale for c in coeffs])

        rng = random.Random(23)
        for _ in range(100):
            common = cleared(
                [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(2)]
                + [Fraction(-rng.randint(1, 9), rng.randint(1, 7))]
            )
            p = common * cleared([Fraction(rng.randint(-9, 9), rng.randint(1, 5)), -1])
            q = common * Poly([rng.randint(-9, 9), rng.randint(-9, 9), -3])
            g = poly_gcd(p, q)
            assert g.coeffs == prs_reference(p, q)
            assert g.coeffs[-1] > 0 and g.degree >= 2

    def test_large_coefficients_and_degrees(self):
        rng = random.Random(29)
        coprime = (rand_nonconstant(rng, 60, 200), rand_nonconstant(rng, 50, 200))
        common = rand_nonconstant(rng, 10, 200)
        planted = (
            common * rand_nonconstant(rng, 30, 200),
            common * rand_nonconstant(rng, 25, 200),
        )
        for p, q in (coprime, planted):
            assert poly_gcd(p, q).coeffs == prs_reference(p, q)
        assert poly_gcd(*coprime).coeffs == (1,)
        assert poly_gcd(*planted).degree == 10

    def test_failed_divisibility_check_falls_back_to_prs(self):
        # xi = 8: gcd(a(8), b(8)) = 45 reconstructs to s^2-2s-3 = (s+1)(s-3),
        # which divides neither a = s^3-2s-1 nor b = 2s^2+s-1; the gcd s+1
        # comes from the PRS
        a, b = [-1, -2, 0, 1], [-1, 1, 2]
        assert _heu_gcd(Poly(a), Poly(b)) is None
        assert _prs_gcd(a, b) == [1, 1]
        assert poly_gcd(Poly(a), Poly(b)).coeffs == (1, 1)

    def test_prs_divides_without_polynomial_objects(self, monkeypatch):
        # each pseudo-remainder is the remainder of lc(b)^(deg a - deg b + 1)*a,
        # divided on coefficient lists; it is not a ``Poly`` division
        calls = count_calls(monkeypatch, Poly, "__divmod__")
        assert _prs_gcd([-1, -2, 0, 1], [-1, 1, 2]) == [1, 1]
        # (2s+1)(s-1) and (2s+1)(3s+2): leading coefficients other than 1
        assert _prs_gcd([-1, -1, 2], [2, 7, 6]) == [1, 2]
        assert calls == []

    def test_matches_prs_hypothesis(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        coeffs = st.lists(st.integers(-(2**70), 2**70), min_size=1, max_size=8)

        @hypothesis.settings(max_examples=300, deadline=None, database=None)
        @hypothesis.given(coeffs, coeffs, coeffs)
        def check(c, u, v):
            common, p, q = Poly(c + [1]), Poly(u + [1]), Poly(v + [-1])
            p, q = common * p, common * q
            g = poly_gcd(p, q)
            assert g.coeffs == prs_reference(p, q)
            assert divmod(g, common)[1].is_zero

        check()


def packed_pair(a, g, k):
    """packed_quotient on the coefficient lists a and g at k."""
    return scalars.packed_quotient(pack(a, k), k, tuple(g), pack(g, k))


class TestPackedQuotient:
    """packed_quotient: a quotient, False or None, never a wrong quotient,
    against long division on the unpacked coefficients."""

    @staticmethod
    def long_quotient(a, g):
        # the oracle: the quotient's coefficients, or None without one in Z[s]
        quo = scalars._quotient(Poly(a), Poly(g))
        return None if quo is None else quo.coeffs

    def test_agrees_with_long_division_hypothesis(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        signed = st.lists(st.integers(-(2**30), 2**30), min_size=1, max_size=7)

        @hypothesis.settings(max_examples=400, deadline=None, database=None)
        @hypothesis.given(signed, signed, signed, st.booleans(), st.integers(0, 6))
        def check(q, g, r, exact, spare):
            q, g = Poly(q + [1]), Poly(g + [-1])
            a = q * g if exact else q * g + Poly(r)
            if a.is_zero:
                return
            k = max(map(abs, a.coeffs)).bit_length() + 1 + spare
            got = packed_pair(a.coeffs, g.coeffs, k)
            want = self.long_quotient(a.coeffs, g.coeffs)
            if got is False:
                assert want is None
            elif got is not None:
                assert got == want
            bounded = max(map(abs, q.coeffs)) * sum(map(abs, g.coeffs)) < 1 << (k - 1)
            if exact and bounded:  # the bound holds: the packed values decide
                assert got == q.coeffs
            gv = pack(g.coeffs, k)
            if gv and pack(a.coeffs, k) % gv:
                assert got is False  # a remainder proves that there is no quotient

        check()

    def test_signed_and_non_monic_pairs(self):
        # exact pairs and off-by-one perturbations of them, at the k of
        # ``conv``; each is decided unless an exact quotient breaks the bound
        rng = random.Random(43)
        for _ in range(300):
            q, g = rand_nonconstant(rng, 3, 8), rand_nonconstant(rng, 2, 8)
            for a in (q * g, q * g + Poly([1]), q * g - Poly([0, 1])):
                a = a.coeffs
                k = max(map(abs, a)).bit_length() + 2
                got, want = packed_pair(a, g.coeffs, k), self.long_quotient(a, g.coeffs)
                bounded = max(map(abs, q.coeffs)) * sum(map(abs, g.coeffs)) < 1 << (k - 1)
                assert got == (want or False) if want is None or bounded else got is None

    def test_an_exact_quotient_that_breaks_the_bound_is_left_open(self):
        # (s+1)*7 at k = 4: the quotient 7 is exact, but 7*|s+1|_1 = 14 is
        # not below 2**3, so the packed values do not decide
        assert packed_pair([7, 7], [1, 1], 4) is None

    def test_a_wrong_integer_quotient_is_caught_by_the_bound(self):
        # a = 7 - 7s + 3s^2 and g = s + 1 at k = 4: a(16) = 663 = 17*39, yet
        # a(-1) = 17, so g does not divide a.  The digits of 39 are 7 + 2s,
        # below 2**3; only the factor |g|_1 = 2 shows that 7 + 2s is no
        # quotient ((7 + 2s)(s + 1) = 7 + 9s + 2s^2)
        a, g = [7, -7, 3], [1, 1]
        assert pack(a, 4) % pack(g, 4) == 0 and digits(pack(a, 4) // 17, 4) == [7, 2]
        assert self.long_quotient(a, g) is None
        assert packed_pair(a, g, 4) is None

    def test_a_divisor_that_vanishes_at_the_point_is_left_open(self):
        # g = s - 2**k has g(2**k) = 0: no division by zero
        for k in (2, 4, 9):
            g = [-(1 << k), 1]
            assert pack(g, k) == 0
            assert packed_pair([1, -1, 1], g, k) is None
            assert packed_pair([], g, k) is None

    def test_a_non_integral_quotient_by_a_non_primitive_divisor(self):
        # (s+1)/(2s+2) = 1/2 and (3 + 3s)/(2 + 2s) = 3/2: long division raises,
        # and the packed values prove that no quotient exists in Z[s]
        for a in ([1, 1], [3, 3], [-5, -5]):
            with pytest.raises(ArithmeticError):
                scalars._long_divmod(a, [2, 2])
            assert packed_pair(a, [2, 2], 6) is False
        assert packed_pair([4, 4], [2, 2], 6) == (2,)

    def test_beyond_the_cost_rule_nothing_is_divided(self, monkeypatch):
        # a k above the rule's limit returns at once, without a big-int
        # division; k = 1 has no balanced digits
        big = scalars._PACKED_DIVISION_BITS + 1
        assert packed_pair([1, 2, 1], [1, 1], big) is None
        assert packed_pair([1, 2, 1], [1, 1], scalars._PACKED_DIVISION_BITS) == (1, 1)
        assert scalars.packed_quotient(3, 1, (1, 1), 3) is None

    def test_a_proven_non_divisor_takes_no_long_division(self, monkeypatch):
        # s + 3 over (s+1)(s+2), with the hint s + 1, and the same pair in a
        # reduction: the packed division proves that s + 1 does not divide
        # s + 3, so no Poly division of that pair runs
        g, num = Poly([1, 1]), Poly([3, 1])
        den = g * Poly([2, 1])
        calls = count_calls(monkeypatch, Poly, "__divmod__")
        packs = scalars.Packs(8)
        assert RatFun.over(pack(num.coeffs, 8), den, [g, Poly([2, 1])], packs) == RatFun(num, den)
        nums = [pack(c, 8) for c in ((1, 1), (3, 1))]
        assert joint_reduce(nums, den, scalars.Packs(8)) == ([g, num], den)
        monkeypatch.undo()
        assert not [pair for pair in calls if pair[1] == g and pair[0] == num]


class TestRatFunCanonical:
    def test_equal_values_hash_equal(self):
        pairs = (
            (Poly([2]), 2),
            (RatFun(2), 2),
            (Poly([0, 1]), RatFun(Poly([0, 1]))),
            (RatFun.const(Fraction(1, 2)), Fraction(1, 2)),
            (Poly(), 0),
        )
        for x, y in pairs:
            assert x == y, (x, y)
            assert hash(x) == hash(y), (x, y)
        assert len({2, Poly([2])}) == 1

    def test_factor_cancellation(self):
        f = RatFun(Poly([-1, 0, 1]), Poly([-1, 1]))
        assert (f.num.coeffs, f.den.coeffs) == ((1, 1), (1,))

    def test_zero_numerator(self):
        f = RatFun(Poly([]), Poly([2, 1]))
        assert (f.num.coeffs, f.den.coeffs) == ((), (1,))
        assert f.is_zero

    def test_content_normalization(self):
        f = RatFun(Poly([2, 2]), Poly([4]))
        assert (f.num.coeffs, f.den.coeffs) == ((1, 1), (2,))

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RatFun(Poly([1]), Poly([]))

    def test_negative_leading_denominator_flipped(self):
        f = RatFun(Poly([0, 1]), Poly([2, 1, -1, -1]))
        assert f.den.coeffs[-1] > 0
        assert f.num.coeffs == (0, -1)

    def test_canonical_invariants_random(self):
        rng = random.Random(9)
        for _ in range(80):
            num = Poly([rng.randint(-6, 6) for _ in range(rng.randint(0, 4))])
            den = Poly([])
            while den.is_zero:
                den = Poly([rng.randint(-6, 6) for _ in range(rng.randint(1, 4))])
            assert_canonical(RatFun(num, den), num, den)


class TestRepr:
    """``repr`` of a ``Poly`` or a ``RatFun`` evaluates back to an equal
    value with the same coefficients."""

    @staticmethod
    def assert_round_trips(x):
        back = eval(repr(x), {"RatFun": RatFun, "Poly": Poly})
        assert type(back) is type(x) and back == x, repr(x)
        assert repr(back) == repr(x)

    def test_ratfun(self):
        rng = random.Random(71)
        values = [
            RatFun(0), RatFun(1), RatFun(-4), RatFun.const(Fraction(-3, 7)),
            RatFun(Poly([1, 1]), Poly([-3, 2])),
        ]
        for f in values + [rand_ratfun(rng) for _ in range(100)]:
            self.assert_round_trips(f)
        assert repr(values[-1]) == "RatFun(Poly([1, 1]), Poly([-3, 2]))"

    def test_poly(self):
        rng = random.Random(73)
        values = [Poly(), Poly([1]), Poly([-2, 0, 5])]
        for p in values + [rand_poly(rng, 4, -9, 9) for _ in range(100)]:
            self.assert_round_trips(p)


class TestRatFunArithmetic:
    def test_common_denominator_sum(self):
        one = RatFun(Poly([1]), Poly([1, 1])) + RatFun(Poly([0, 1]), Poly([1, 1]))
        assert one == RatFun(1)

    def test_reciprocal(self):
        f = RatFun(Poly([0, 1])).reciprocal()
        assert (f.num.coeffs, f.den.coeffs) == ((1,), (0, 1))

    def test_inverse_pair_product(self):
        f = RatFun(Poly([1, 1]), Poly([0, 1]))
        g = RatFun(Poly([0, 1]), Poly([1, 1]))
        assert f * g == RatFun(1)

    def test_reflected_division(self):
        assert 2 / RatFun(Poly([1, 1])) == RatFun(Poly([2]), Poly([1, 1]))

    def test_reciprocal_of_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RatFun(0).reciprocal()

    def test_pow_matches_repeated_product(self):
        rng = random.Random(53)
        for _ in range(60):
            f, n = rand_ratfun(rng), rng.randint(-4, 6)
            if f.is_zero and n < 0:
                continue
            product = RatFun(1)
            for _ in range(abs(n)):
                product = product * f
            assert f ** n == (product if n >= 0 else product.reciprocal())

    def test_pow_of_zero(self):
        assert RatFun(0) ** 0 == RatFun(1)
        assert RatFun(0) ** 3 == RatFun(0)
        with pytest.raises(ZeroDivisionError):
            RatFun(0) ** -1

    def test_reduced_arithmetic_matches_definitional_construction(self):
        # the add/mul fast paths must agree with building the raw
        # cross-multiplied fraction and canonicalizing it
        rng = random.Random(27)
        for _ in range(80):
            def rand():
                num = Poly([rng.randint(-5, 5) for _ in range(rng.randint(0, 4))])
                den = Poly([])
                while den.is_zero:
                    den = Poly([rng.randint(-5, 5) for _ in range(rng.randint(1, 4))])
                return RatFun(num, den)

            f, g = rand(), rand()
            assert f + g == RatFun(f.num * g.den + g.num * f.den, f.den * g.den)
            assert f * g == RatFun(f.num * g.num, f.den * g.den)
            if not g.is_zero:
                assert f / g == RatFun(f.num * g.den, f.den * g.num)

    def test_memo_taking_methods_equal_the_operators(self):
        # one memo across three rounds over the same pairs, so the later
        # rounds take every gcd of nonconstant operands from the memo
        rng = random.Random(61)
        values = [rand_ratfun(rng, 2, -3, 3) for _ in range(8)]
        values += [RatFun(0), RatFun(3), RatFun(1, 2)]
        memo = {}
        for _ in range(3):
            for f in values:
                for g in values:
                    total = RatFun(f.num * g.den + g.num * f.den, f.den * g.den)
                    assert f.plus(g, memo) == f + g == total
                    assert f.times(g, memo) == f * g == RatFun(f.num * g.num, f.den * g.den)
        assert memo

    def test_field_axioms_random(self):
        rng = random.Random(14)
        for _ in range(60):
            def rand():
                num = Poly([rng.randint(-4, 4) for _ in range(rng.randint(0, 3))])
                den = Poly([])
                while den.is_zero:
                    den = Poly([rng.randint(-4, 4) for _ in range(rng.randint(1, 3))])
                return RatFun(num, den)

            f, g, h = rand(), rand(), rand()
            assert f + g == g + f
            assert (f + g) + h == f + (g + h)
            assert f * (g + h) == f * g + f * h
            if not g.is_zero:
                assert (f / g) * g == f
            # every op output is a canonicalization fixed point
            for val in (f + g, f - g, f * g):
                assert RatFun(val.num, val.den) == val


class TestRatFunEval:
    def test_direct_substitution(self):
        f = RatFun(Poly([1, 1]), Poly([-1, 1]))
        assert f.eval(2) == 3

    def test_zero_function(self):
        assert RatFun(0).eval(Fraction(7, 3)) == 0

    def test_pole_raises(self):
        with pytest.raises(PoleError):
            RatFun(Poly([1]), Poly([0, 1])).eval(0)

    def test_evaluation_is_a_homomorphism(self):
        rng = random.Random(17)
        for _ in range(40):
            def rand():
                num = Poly([rng.randint(-4, 4) for _ in range(rng.randint(0, 3))])
                den = Poly([])
                while den.is_zero:
                    den = Poly([rng.randint(-4, 4) for _ in range(rng.randint(1, 3))])
                return RatFun(num, den)

            f, g = rand(), rand()
            x = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
            try:
                fx, gx = f.eval(x), g.eval(x)
                assert (f * g).eval(x) == fx * gx
                assert (f + g).eval(x) == fx + gx
            except PoleError:
                continue


class TestJointReduce:
    def test_common_factor_and_content(self):
        nums = [Poly([0, 2]), Poly([0, 0, 4])]
        den = Poly([0, 2])
        reduced, new_den = joint_reduce(nums, den)
        assert new_den.coeffs == (1,)
        assert [p.coeffs for p in reduced] == [(1,), (0, 2)]

    def test_all_zero_numerators(self):
        reduced, new_den = joint_reduce([Poly([]), Poly([])], Poly([3, 1]))
        assert new_den.coeffs == (1,)
        assert all(p.is_zero for p in reduced)

    @staticmethod
    def two_pass(nums, den):
        # reference: the gcd of the whole family by the PRS alone, exact
        # division by it, then the joint content and the denominator's sign
        if not any(nums):
            return [Poly([])] * len(nums), Poly([1])
        g = den
        for p in nums:
            if p:
                g = Poly(prs_reference(g, p))
        nums, den = [p.exact_div(g) for p in nums], den.exact_div(g)
        content = gcd(*den.coeffs, *(c for p in nums for c in p.coeffs))
        content *= 1 if den.coeffs[-1] > 0 else -1
        return [Poly([c // content for c in p]) for p in nums], Poly(
            [c // content for c in den]
        )

    def check(self, nums, den):
        # the same family given packed (``conv(..., unpack=False)``) gives
        # the same result
        want = self.two_pass(nums, den)
        assert joint_reduce(nums, den) == want, (nums, den)
        k = max((abs(c).bit_length() for p in nums for c in p.coeffs), default=0) + 2
        packed = [pack(p.coeffs, k) for p in nums]
        assert joint_reduce(packed, den, scalars.Packs(k)) == want, (nums, den)

    def test_matches_two_pass_reference(self):
        # products of random subsets of a few factors, so that the running
        # gcd shrinks at different positions of the family; zero entries
        # between the others, and constant, negative and non-primitive
        # denominators
        factors = [Poly([1, 1]), Poly([-2, 1]), Poly([3, 2]), Poly([1, 0, 1]), Poly([0, 1])]
        rng = random.Random(61)

        def product():
            p = Poly([rng.choice([1, -1, 2, -3, 6])])
            for f in factors:
                if rng.random() < 0.5:
                    p = p * f ** rng.randint(1, 2)
            return p

        for _ in range(1500):
            size = rng.choice([1, 1, 2, 3, 5])
            nums = [Poly([]) if rng.random() < 0.2 else product() for _ in range(size)]
            self.check(nums, product())

    def test_any_order_matches_reference(self):
        # the numerators are met shortest first, yet the canonical result
        # must not depend on the family's order: random families in random
        # orders, with zero entries, constant denominators and negative
        # leading coefficients
        factors = [Poly([1, 1]), Poly([-2, 1]), Poly([3, -2]), Poly([1, 0, -1]), Poly([0, 1])]
        rng = random.Random(29)

        def product(terms):
            p = Poly([rng.choice([1, -1, 2, -3, 6, -4])])
            for f in rng.sample(factors, terms):
                p = p * f ** rng.randint(1, 2)
            return p

        for _ in range(400):
            nums = [
                Poly([]) if rng.random() < 0.2 else product(rng.randint(0, 3))
                for _ in range(rng.randint(1, 6))
            ]
            den = product(0 if rng.random() < 0.25 else rng.randint(1, 3))
            want_nums, want_den = self.two_pass(nums, den)
            for _ in range(3):
                order = rng.sample(range(len(nums)), len(nums))
                got_nums, got_den = joint_reduce([nums[k] for k in order], den)
                assert got_den == want_den, (nums, den, order)
                assert got_nums == [want_nums[k] for k in order], (nums, den, order)

    def test_quotient_branch_matches_reference(self):
        # after the first gcd step every nonzero numerator is tried by one
        # trial division by the running gcd g before a gcd step
        f, h = Poly([1, 1]), Poly([-2, 1])
        g = f * h
        # the first gcd is the family gcd: every later entry divides
        self.check([g * 3, g * Poly([0, 1]), g * -2, g * g], g * Poly([3, 2]) * 4)
        # a later entry does not divide: g shrinks after quotients were kept
        self.check([g * 3, g * Poly([0, 1]), f * 5, g * 7, h], g * -6)
        self.check([g * g, g * h, h * h * 2, f], g * g * 3)
        # zeros first, over a non-primitive, negative-leading denominator
        self.check([Poly([]), Poly([]), g * 2, Poly([]), g * Poly([1, 0, 1])], g * -4)
        # constant entries, before and after the first gcd step
        self.check([Poly([6]), g, Poly([-3])], g * 2)
        self.check([g * 5, Poly([]), Poly([-3]), g], g * -2)
        self.check([g * 5, g, Poly([4])], Poly([6]))

    def test_one_gcd_step_when_the_first_gcd_divides_the_family(self, monkeypatch):
        g = Poly([1, 1]) * Poly([3, 2])
        for k in (1, 2, 7):
            nums = [g * Poly([c, 1]) for c in range(-3, k - 3)]
            den = g * Poly([0, 0, 1]) * -2
            calls = count_calls(monkeypatch, scalars, "gcd_cofactors")
            reduced = joint_reduce(nums, den)
            monkeypatch.undo()
            assert len(calls) == 1
            assert reduced == self.two_pass(nums, den)

    def test_gcd_shrinks_late(self):
        common = Poly([1, 1]) * Poly([-2, 1])
        nums = [common * 5, Poly([]), common * Poly([0, 1]), Poly([1, 1]) * 3, Poly([-2, 1])]
        self.check(nums, common * -4)
        self.check(nums[:4], common * -4)

    def test_constant_denominators(self, monkeypatch):
        # a constant denominator takes no gcd step, only the integer content
        calls = count_calls(monkeypatch, scalars, "gcd_cofactors")
        for den in (Poly([1]), Poly([-1]), Poly([6]), Poly([-4])):
            self.check([Poly([2, 4]), Poly([]), Poly([0, 0, 8])], den)
            self.check([Poly([3, 6, 9])], den)
            self.check([Poly([]), Poly([])], den)
        assert calls == []

    def test_prs_fallback_divides_inside_the_gcd_step(self):
        # GCDHEU's candidate fails its divisibility check on this pair (see
        # TestHeuristicGcd), so the gcd s+1 is divided out by gcd_cofactors
        a, b = Poly([-1, -2, 0, 1]), Poly([-1, 1, 2])
        assert _heu_gcd(a, b) is None
        assert joint_reduce([b], a) == ([Poly([-1, 2])], Poly([-1, -1, 1]))
        for nums in ([b], [Poly([]), b * 3], [a * b, b, Poly([])], [b * Poly([0, 1]), a]):
            self.check(nums, a * -2)
