"""Entry grammar, matrix file format, and the parse/format round trip."""

import random
import re
import sys

import pytest

from helpers import count_calls, load, rand_matrix, rand_ratfun
from wmpinv import WeightedProblem
from wmpinv.errors import CapacityError, MatrixParseError
from wmpinv.greville import weighted_pinv
from wmpinv.matrices import RfMatrix
from wmpinv.matrixio import (
    _EntryParser,
    digit_count,
    format_matrix,
    parse_entry,
    parse_matrix_file,
)
from wmpinv.poly_greville import PolyMatrix
from wmpinv.scalars import Poly, RatFun


class TestParseEntry:
    def test_fraction_of_polynomials(self):
        f = parse_entry("(s+1)/(s^2)")
        assert (f.num.coeffs, f.den.coeffs) == ((1, 1), (0, 0, 1))

    def test_polynomial_with_unary_minus(self):
        f = parse_entry("-2+s^4")
        assert (f.num.coeffs, f.den.coeffs) == ((-2, 0, 0, 0, 1), (1,))

    def test_dangling_operator_position(self):
        with pytest.raises(MatrixParseError) as err:
            parse_entry("s+")
        assert err.value.offset == 2

    def test_nonconstant_exponent_rejected(self):
        with pytest.raises(MatrixParseError) as err:
            parse_entry("s^s")
        assert err.value.offset == 2
        assert "exponent" in str(err.value)

    def test_whitespace_insignificant(self):
        assert parse_entry(" s + 1 ") == parse_entry("s+1")

    def test_no_juxtaposition(self):
        with pytest.raises(MatrixParseError):
            parse_entry("2s")

    def test_unary_minus_binds_factor(self):
        # -s^2 reads as -(s^2); binary minus then applies term-wise
        assert parse_entry("-s^2+1") == parse_entry("1-s^2")

    def test_division_chain_left_associative(self):
        assert parse_entry("8/2/2") == RatFun(2)

    def test_parenthesized_subexpressions(self):
        f = parse_entry("((s+1)*(s-1))/((s+2)*s)")
        assert f == RatFun(Poly([-1, 0, 1]), Poly([0, 2, 1]))

    def test_division_by_zero_function(self):
        with pytest.raises(MatrixParseError):
            parse_entry("1/(s-s)")

    def test_integer_fraction_constant(self):
        from fractions import Fraction

        assert parse_entry("3/4") == RatFun.const(Fraction(3, 4))


EM = "\u2003"  # em space: whitespace to str.isspace, as is "\x1c"
LIMIT = sys.get_int_max_str_digits()


ERROR_CONTRACT = [
    (" s^", "exponent must be an unsigned integer", 3),
    ("s ^" + EM + "x", "exponent must be an unsigned integer", 4),
    ("\x1c2^ -1", "exponent must be an unsigned integer", 4),
    (" 1+" + "9" * (LIMIT + 1), f"integer literal longer than {LIMIT} digits", 3),
    ("s^" + EM + "9" * (LIMIT + 1), f"integer literal longer than {LIMIT} digits", 3),
    (" s" + EM + "* s^1000 * s^1000", "product exceeds the size bound 2000", 12),
    ("\x1cs^1000 / (s*s^999)", "quotient exceeds the size bound 2000", 8),
    (" (1+s) ^ 1001", "power exceeds the size bound 2000", 13),
    (EM + "s^2001 ", "power exceeds the size bound 2000", 7),
    ("s ^ 2000" + EM, "power exceeds the size bound 2000", 8),
    ("1 /\x1c(s - s)", "division by zero", 2),
    (EM + "(s + 1" + EM, "expected ')'", 8),
    (" ( s + 1 ]", "expected ')'", 9),
    ("s + 1 " + EM + " 2", "unexpected trailing input", 8),
    (" s)", "unexpected trailing input", 2),
    ("2s", "unexpected trailing input", 1),
    ("\x1c" + "(" * 101 + "s" + ")" * 101, "nesting of '(' and '-' deeper than 100", 102),
    (" " + "- " * 101 + "s", "nesting of '(' and '-' deeper than 100", 202),
    ((" ( " + EM) * 100 + "- s" + ")" * 100, "nesting of '(' and '-' deeper than 100", 401),
    ("s +" + EM + "x", "expected 's', an integer, '(' or '-'", 4),
    ("s * ²", "expected 's', an integer, '(' or '-'", 4),
    ("", "expected 's', an integer, '(' or '-'", 0),
    (" \x1c ", "expected 's', an integer, '(' or '-'", 3),
]


class TestErrorContract:
    """The exact message and offset of every entry parse error, with leading
    and inner whitespace of several kinds."""

    @pytest.mark.parametrize("text, message, offset", ERROR_CONTRACT)
    def test_message_and_offset(self, text, message, offset):
        with pytest.raises(MatrixParseError) as err:
            parse_entry(text)
        assert str(err.value) == f"{message} at offset {offset}"
        assert err.value.offset == offset

    def test_regex_whitespace_is_str_isspace(self):
        space = re.compile(r"\s")
        for code in range(sys.maxunicode + 1):
            ch = chr(code)
            assert bool(space.match(ch)) == ch.isspace(), hex(code)


class TestRobustness:
    TOKENS = ["s", "0", "1", "2", "7", "12", "+", "-", "*", "/", "^", "(", ")",
              " ", "\t", EM, "\x1c", "²", "x"]

    def test_random_token_strings_parse_or_fail_located(self):
        # every string either round-trips or is one located MatrixParseError;
        # any other exception fails the test
        rng = random.Random(97)
        parsed = 0
        for _ in range(20000):
            text = "".join(rng.choices(self.TOKENS, k=rng.randint(1, 12)))
            try:
                f = parse_entry(text)
            except MatrixParseError as exc:
                assert 0 <= exc.offset <= len(text), text
                continue
            assert parse_entry(str(f)) == f, text
            parsed += 1
        assert parsed > 1000


def _outcome(text):
    try:
        f = parse_entry(text)
    except MatrixParseError as exc:
        return str(exc), exc.offset
    return f.num.coeffs, f.den.coeffs


class TestMonomialLane:
    """The monomial lane of expr() reads c, s, s^e, c*s and c*s^e terms
    without the general grammar; with it declining every term, every
    value, message and offset must be the same."""

    TOKENS = TestRobustness.TOKENS + ["1000", "999", "1001", "500"]
    EDGES = [
        "0*s^1000",
        "9" * LIMIT + "*s",
        "9" * (LIMIT + 1) + "*s",
        "-2^3",
        "s^0",
        "3*s^2/5",
        "s - -s",
        "2*s^999+7*s^1000-s^1001",
        "9" * 998 + "*s^1000",
        "9" * 300 + "*s^1000",
        "(" * 99 + "-s" + ")" * 99,
        "(" * 99 + "-3*s^2+1" + ")" * 99,
        "(" * 100 + "-s" + ")" * 100,
        "(" * 100 + "s-2*s" + ")" * 100,
    ]

    def _texts(self):
        rng = random.Random(101)
        texts = ["".join(rng.choices(self.TOKENS, k=rng.randint(1, 12))) for _ in range(5000)]
        return texts + [text for text, _, _ in ERROR_CONTRACT] + self.EDGES

    def test_lane_agrees_with_the_grammar(self, monkeypatch):
        texts = self._texts()
        with_lane = [_outcome(text) for text in texts]
        monkeypatch.setattr(_EntryParser, "monomial", lambda self, coeffs, negate: False)
        for text, expected in zip(texts, with_lane):
            assert _outcome(text) == expected, text

    def test_edges(self):
        assert _outcome("0*s^1000") == ((), (1,))
        assert _outcome("-2^3") == ((-8,), (1,))
        assert _outcome("s - -s") == ((0, 2), (1,))
        assert _outcome("(" * 99 + "-s" + ")" * 99) == ((0, -1), (1,))
        assert _outcome("(" * 100 + "-s" + ")" * 100) == (
            "nesting of '(' and '-' deeper than 100 at offset 101", 101
        )
        assert _outcome("9" * (LIMIT + 1) + "*s") == (
            f"integer literal longer than {LIMIT} digits at offset 0", 0
        )

    def test_parse_count(self, monkeypatch):
        # canonical terms cost no polynomial product or sum; a count does
        # not depend on the host (the general grammar alone made 633 and 593)
        x = weighted_pinv(WeightedProblem(rand_matrix(random.Random(3), 5, 4)))
        text = format_matrix(x)
        muls = count_calls(monkeypatch, Poly, "__mul__")
        adds = count_calls(monkeypatch, Poly, "__add__")
        parsed = parse_matrix_file(text)
        monkeypatch.undo()
        assert parsed == x
        assert len(muls) <= 40
        assert len(adds) == 0


class TestParseMatrixFile:
    def test_fixture_file(self):
        x = load("wmp_rank2_a.mat")
        assert (x.rows, x.cols) == (3, 3)
        assert x[0, 1] == parse_entry("s+2")
        assert x[1, 2] == parse_entry("s+1")

    def test_minimal_file(self):
        m = parse_matrix_file("matrix 1 1\n0")
        assert m == RfMatrix.zeros(1, 1)

    def test_arity_error_locates_row(self):
        with pytest.raises(MatrixParseError) as err:
            parse_matrix_file("matrix 1 3\n1; 2")
        assert err.value.row == 1
        assert "expected 3 entries" in str(err.value)

    def test_entry_error_locates_row_and_column(self):
        with pytest.raises(MatrixParseError) as err:
            parse_matrix_file("matrix 2 2\n1; 2\n3; s+")
        assert (err.value.row, err.value.col) == (2, 2)
        assert err.value.offset is not None

    @pytest.mark.parametrize(
        "header",
        # dimensions are ASCII digits only, as entry literals are
        [
            "m 2 2",
            "matrix 1_0 1",
            "matrix +1 1",
            "matrix \u0661 1",
            "matrix 1 \uff11",
            pytest.param("matrix " + "9" * 5000 + " 1", id="beyond-the-digit-limit"),
        ],
    )
    def test_bad_header(self, header):
        with pytest.raises(MatrixParseError, match="header must be 'matrix <rows> <cols>'"):
            parse_matrix_file(f"{header}\n1\n")

    def test_comment_only_file(self):
        with pytest.raises(
            MatrixParseError, match="^empty matrix file: missing header line$"
        ):
            parse_matrix_file("# nothing but a comment\n\n")

    def test_zero_dimension(self):
        with pytest.raises(
            MatrixParseError, match="^line 1: matrix dimensions must be positive$"
        ):
            parse_matrix_file("matrix 0 3\n")

    def test_missing_rows(self):
        with pytest.raises(MatrixParseError):
            parse_matrix_file("matrix 2 2\n1; 2")

    def test_comments_and_blank_lines_ignored(self):
        text = "# a comment\n\nmatrix 1 2\n# another\ns; 1/s\n"
        m = parse_matrix_file(text)
        assert m[0, 0] == parse_entry("s")


class TestFormatMatrix:
    def test_identity(self):
        assert format_matrix(RfMatrix.identity(2)) == "matrix 2 2\n1; 0\n0; 1\n"

    def test_bare_monomial_denominator(self):
        m = parse_matrix_file("matrix 1 1\n1/s")
        assert format_matrix(m) == "matrix 1 1\n1/s\n"

    def test_composite_denominator_parenthesized(self):
        m = parse_matrix_file("matrix 1 1\n1/(2*s)")
        assert format_matrix(m) == "matrix 1 1\n1/(2*s)\n"

    def test_bool_coefficients_are_written_as_ints(self):
        # bool is an int subclass: the validating constructors store 0 or 1
        assert str(Poly([True, 2])) == "1+2*s"
        assert type(Poly([True]).coeffs[0]) is int
        assert str(RatFun(True)) == "1"
        m = PolyMatrix(1, 1, [[(True,)]]).to_rf_matrix()
        text = format_matrix(m)
        assert text == "matrix 1 1\n1\n"
        assert parse_matrix_file(text) == m

    def test_fixture_roundtrip(self):
        x = load("wmp_rational_x.mat")
        assert parse_matrix_file(format_matrix(x)) == x

    def test_random_roundtrip(self):
        rng = random.Random(71)
        for _ in range(40):
            rows, cols = rng.randint(1, 3), rng.randint(1, 3)
            m = RfMatrix.from_rows(
                [[rand_ratfun(rng) for _ in range(cols)] for _ in range(rows)]
            )
            assert parse_matrix_file(format_matrix(m)) == m

    def test_entry_strings_reparse(self):
        rng = random.Random(73)
        for _ in range(60):
            f = rand_ratfun(rng, max_deg=4)
            assert parse_entry(str(f)) == f

    def test_coefficient_past_the_digit_limit_is_a_capacity_error(self):
        big = RatFun(10**LIMIT)  # LIMIT + 1 digits
        m = RfMatrix.from_rows([[RatFun(1), RatFun(1)], [RatFun(2), big / 3]])
        with pytest.raises(CapacityError) as err:
            format_matrix(m)
        assert str(err.value) == (
            f"cannot write entry (2, 2): a coefficient has {LIMIT + 1} digits, "
            f"more than the integer-string limit of {LIMIT}"
        )
        assert err.value.label == "entry (2, 2)"


class TestDigitCount:
    def test_small_boundaries(self):
        for n, d in ((1, 1), (9, 1), (10, 2), (99, 2), (100, 3), (-9, 1), (-10, 2)):
            assert digit_count(n) == d, n

    @pytest.mark.parametrize("k", [1, 2, 3, 15, 16, 17, 22, 100, 1000, 4000])
    def test_powers_of_ten_and_their_predecessors(self, k):
        for n in (10**k - 1, 10**k, 10**k + 1, 2 ** (k * 10 // 3)):
            for signed in (n, -n):
                assert digit_count(signed) == len(str(n)), signed
