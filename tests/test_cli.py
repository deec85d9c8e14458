"""Command-line surface: subcommands, exit codes, diagnostics."""

from pathlib import Path

import pytest

from helpers import DATA, load, src_env
from wmpinv.cli import run_command
from wmpinv.matrixio import format_matrix, parse_matrix_file
from wmpinv.matrices import RfMatrix
from wmpinv.verify import PATHS


def fixture(name):
    return str(DATA / name)


def read_matrix(path):
    return parse_matrix_file(Path(path).read_text())


class TestCompute:
    def test_golden_with_verify(self, tmp_path, capsys):
        out = tmp_path / "x.mat"
        code = run_command(
            [
                "compute",
                "--a", fixture("wmp_rank2_a.mat"),
                "--m", fixture("wmp_rank2_m.mat"),
                "--n", fixture("wmp_rank2_n.mat"),
                "--verify",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert read_matrix(out) == load("wmp_rank2_x.mat")

    def test_output_bytes_match_canonical_fixture(self, tmp_path):
        # canonical printing is deterministic, so the emitted file must
        # equal the stored canonical fixture byte for byte
        out = tmp_path / "x.mat"
        code = run_command(
            [
                "compute",
                "--a", fixture("wmp_rank2_a.mat"),
                "--m", fixture("wmp_rank2_m.mat"),
                "--n", fixture("wmp_rank2_n.mat"),
                "--out", str(out),
            ]
        )
        assert code == 0
        assert out.read_bytes() == Path(fixture("wmp_rank2_x_canonical.mat")).read_bytes()

    def test_poly_path_output_bytes_match_canonical_fixture(self, tmp_path):
        out = tmp_path / "x.mat"
        code = run_command(
            [
                "compute",
                "--a", fixture("wmp_poly3_a.mat"),
                "--m", fixture("wmp_poly3_w.mat"),
                "--n", fixture("wmp_poly3_w.mat"),
                "--path", "poly",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert out.read_bytes() == Path(fixture("wmp_poly3_x_canonical.mat")).read_bytes()

    def test_module_entry_point_subprocess(self, tmp_path):
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, "-m", "wmpinv", "eval",
             "--in", fixture("wmp_rank2_a.mat"), "--at", "1"],
            capture_output=True, text=True, env=src_env(),
        )
        assert result.returncode == 0
        assert result.stdout == "matrix 3 3\n2; 3; 1\n1; 1; 2\n2; 3; 1\n"

    def test_default_weights_are_identity(self, capsys):
        code = run_command(["compute", "--a", fixture("wmp_hessenberg_a.mat")])
        assert code == 0
        x = parse_matrix_file(capsys.readouterr().out)
        a = load("wmp_hessenberg_a.mat")
        assert (a * x * a) == a

    def test_both_paths_agree(self, capsys):
        code = run_command(
            [
                "compute",
                "--a", fixture("wmp_poly3_a.mat"),
                "--m", fixture("wmp_poly3_w.mat"),
                "--n", fixture("wmp_poly3_w.mat"),
                "--path", "both",
                "--verify",
            ]
        )
        assert code == 0
        assert parse_matrix_file(capsys.readouterr().out) == load("wmp_poly3_x.mat")

    @pytest.mark.parametrize(
        "a_text, corrupt, entry",
        [
            (None, [(1, 1)], (1, 1)),
            # 2x3 input, so X is 3x2: a transposed position would be wrong
            # or out of range
            ("matrix 2 3\ns; 1; 0\n0; s; 1\n", [(2, 1)], (2, 1)),
            ("matrix 2 3\ns; 1; 0\n0; s; 1\n", [(3, 2)], (3, 2)),
            # the first unequal entry in row-major order is named
            ("matrix 2 3\ns; 1; 0\n0; s; 1\n", [(3, 1), (1, 2)], (1, 2)),
        ],
        ids=["square", "below-diagonal", "last-entry", "row-major-first"],
    )
    def test_both_paths_disagreement_exits_one(
        self, a_text, corrupt, entry, tmp_path, capsys, monkeypatch
    ):
        # force a corrupted coefficient-path result; the cross-check must
        # catch it, name the entry, and exit 1
        from wmpinv.scalars import RatFun

        pinv, inverse = PATHS["poly"]

        def corrupted(problem):
            m = pinv(problem)
            rows = [list(m.row(r)) for r in range(m.rows)]
            for r, c in corrupt:
                rows[r - 1][c - 1] = rows[r - 1][c - 1] + RatFun(1)
            return RfMatrix.from_rows(rows)

        a = fixture("wmp_poly3_a.mat")
        if a_text:
            a = tmp_path / "a.mat"
            a.write_text(a_text)
        monkeypatch.setitem(PATHS, "poly", (corrupted, inverse))
        code = run_command(["compute", "--a", str(a), "--path", "both"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "computation paths disagree at entry (%d, %d)\n" % entry
        assert captured.out == ""

    def test_rational_input_on_every_path(self, capsys):
        # the coefficient path takes the rational matrix as P/L
        weights = ["--m", fixture("wmp_rank2_m.mat"), "--n", fixture("wmp_rank2_n.mat")]
        for extra in (["--path", "poly"], ["--path", "both", "--verify"]):
            code = run_command(
                ["compute", "--a", fixture("wmp_rational_a.mat"), *weights, *extra]
            )
            captured = capsys.readouterr()
            assert code == 0
            assert captured.err == ""
            assert parse_matrix_file(captured.out) == load("wmp_rational_x.mat")

    def test_missing_file(self, capsys):
        code = run_command(["compute", "--a", "no_such_file.mat"])
        assert code == 2
        assert "no_such_file" in capsys.readouterr().err

    def test_singular_column_weight_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "n.mat"
        bad.write_text("matrix 2 2\n0; 0\n0; 1\n")
        a = tmp_path / "a.mat"
        a.write_text("matrix 1 2\n1; 1\n")
        code = run_command(
            ["compute", "--a", str(a), "--n", str(bad)]
        )
        assert code == 3
        assert "singular" in capsys.readouterr().err

    def test_singular_order_one_column_weight_same_line_on_every_path(
        self, tmp_path, capsys
    ):
        bad = tmp_path / "n.mat"
        bad.write_text("matrix 2 2\n0; 0\n0; 1\n")
        a = tmp_path / "a.mat"
        a.write_text("matrix 1 2\n1; 1\n")
        for path in (*PATHS, "both"):
            code = run_command(["compute", "--a", str(a), "--n", str(bad), "--path", path])
            captured = capsys.readouterr()
            assert code == 3
            assert captured.out == ""
            assert captured.err == (
                "algebra error (stage 1): leading 1x1 block is symbolically singular\n"
            )

    def test_result_past_the_digit_limit_exits_three(self, tmp_path, capsys):
        # every literal of A is inside the integer-string digit limit, but
        # the inverse's denominator (the determinant) is about twice as long
        import re
        import sys

        limit = sys.get_int_max_str_digits()
        a = tmp_path / "a.mat"
        a.write_text(
            f"matrix 2 2\n{'9' * limit}; {'8' * limit}\n{'7' * limit}; {'1' * limit}\n"
        )
        for path in PATHS:
            code = run_command(["compute", "--a", str(a), "--path", path])
            captured = capsys.readouterr()
            assert code == 3
            assert captured.out == ""
            found = re.fullmatch(
                r"algebra error: cannot write entry \(1, 1\): a coefficient has "
                rf"(\d+) digits, more than the integer-string limit of {limit}\n",
                captured.err,
            )
            assert found and int(found[1]) > limit, captured.err

    def test_result_the_reader_refuses_exits_three(self, tmp_path, capsys):
        # the inverse holds -s^2000, whose power is past the size bound
        a, out = tmp_path / "a.mat", tmp_path / "x.mat"
        a.write_text("matrix 2 2\n1/s^1000; 1\n0; 1/s^1000\n")
        code = run_command(
            ["compute", "--a", str(a), "--path", "both", "--verify", "--out", str(out)]
        )
        assert code == 3
        assert capsys.readouterr().err == (
            "algebra error: cannot write entry (1, 2): it would not read back: "
            "power exceeds the size bound 2000 at offset 7\n"
        )
        assert not out.exists()


class TestVerify:
    def test_good_inverse(self, capsys):
        code = run_command(
            [
                "verify",
                "--a", fixture("wmp_rank2_a.mat"),
                "--m", fixture("wmp_rank2_m.mat"),
                "--n", fixture("wmp_rank2_n.mat"),
                "--x", fixture("wmp_rank2_x.mat"),
            ]
        )
        assert code == 0

    def test_corrupted_inverse_names_equation(self, tmp_path, capsys):
        x = load("wmp_rank2_x.mat")
        rows = [list(x.row(r)) for r in range(x.rows)]
        from wmpinv.scalars import RatFun

        rows[0][0] = rows[0][0] + RatFun(1)
        bad = tmp_path / "x.mat"
        bad.write_text(format_matrix(RfMatrix.from_rows(rows)))
        code = run_command(
            [
                "verify",
                "--a", fixture("wmp_rank2_a.mat"),
                "--m", fixture("wmp_rank2_m.mat"),
                "--n", fixture("wmp_rank2_n.mat"),
                "--x", str(bad),
            ]
        )
        assert code == 1
        assert "equation (1)" in capsys.readouterr().err

    def test_printed_hessenberg_typo_detected(self, capsys):
        # the transcribed fixture with (1+s)^2 denominators is not a
        # pseudoinverse; the verifier must say so
        eye = format_matrix(RfMatrix.identity(5))
        import tempfile, os

        with tempfile.TemporaryDirectory() as d:
            eye_path = os.path.join(d, "i.mat")
            with open(eye_path, "w") as fh:
                fh.write(eye)
            code = run_command(
                [
                    "verify",
                    "--a", fixture("wmp_hessenberg_a.mat"),
                    "--m", eye_path,
                    "--n", eye_path,
                    "--x", fixture("wmp_hessenberg_x_printed.mat"),
                ]
            )
        assert code == 1
        assert "equation (1)" in capsys.readouterr().err

    def test_residual_past_the_digit_limit_is_summarised(self, tmp_path, capsys):
        # A = 10^L - 1 is inside the digit limit L, but the residual of
        # equation (1) with X = 1, A^2 - A, has 2L digits
        import sys

        limit = sys.get_int_max_str_digits()
        a, one = tmp_path / "a.mat", tmp_path / "one.mat"
        a.write_text(f"matrix 1 1\n{'9' * limit}\n")
        one.write_text("matrix 1 1\n1\n")
        code = run_command(
            ["verify", "--a", str(a), "--m", str(one), "--n", str(one), "--x", str(one)]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            "equation (1) fails at (1, 1), residual not written (numerator "
            f"degree 0, denominator degree 0, largest coefficient {2 * limit} "
            "digits)\n"
        )

    def test_compute_verify_summarises_a_residual_past_the_digit_limit(
        self, capsys, monkeypatch
    ):
        import sys

        import wmpinv.cli as cli
        from wmpinv.scalars import Poly, RatFun
        from wmpinv.verify import PenroseReport

        limit = sys.get_int_max_str_digits()
        residual = RatFun(Poly([1, 10 ** limit]), Poly([3, 1]))
        report = PenroseReport(True, False, True, True, ("(2)", 2, 1, residual))
        monkeypatch.setattr(cli, "penrose_check", lambda *args: report)
        code = run_command(["compute", "--a", fixture("wmp_rank2_a.mat"), "--verify"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            "verification failed: equation (2) at (2, 1), residual not written "
            f"(numerator degree 1, denominator degree 1, largest coefficient "
            f"{limit + 1} digits)\n"
        )

    @pytest.mark.parametrize(
        "weight, message",
        [
            (
                "matrix 3 3\ns+1; s; s+1\n0; s+2; s\ns+1; s; s+3\n",
                "input error: row weight must be symmetric",
            ),
            (
                "matrix 2 2\n1; 0\n0; 1\n",
                "input error: row weight must be square of order = row count",
            ),
        ],
        ids=["non-symmetric", "wrong-order"],
    )
    def test_invalid_row_weight_rejected_as_in_compute(
        self, tmp_path, capsys, weight, message
    ):
        # the weights pass the same validation as `compute` before any
        # product is formed
        m = tmp_path / "m.mat"
        m.write_text(weight)
        code = run_command(
            [
                "verify",
                "--a", fixture("wmp_rank2_a.mat"),
                "--m", str(m),
                "--n", fixture("wmp_rank2_n.mat"),
                "--x", fixture("wmp_rank2_x.mat"),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err.strip() == message


class TestInvert:
    def test_rational_and_poly_paths_agree(self, capsys):
        code = run_command(["invert", "--n", fixture("wmp_rank2_n.mat")])
        assert code == 0
        inv1 = parse_matrix_file(capsys.readouterr().out)
        code = run_command(
            ["invert", "--n", fixture("wmp_rank2_n.mat"), "--path", "poly"]
        )
        assert code == 0
        inv2 = parse_matrix_file(capsys.readouterr().out)
        assert inv1 == inv2
        assert load("wmp_rank2_n.mat") * inv1 == RfMatrix.identity(3)

    def test_inverse_the_reader_refuses_exits_three(self, tmp_path, capsys):
        n = tmp_path / "n.mat"
        n.write_text("matrix 1 1\n1/s^1000/s\n")
        for path in PATHS:
            assert run_command(["invert", "--n", str(n), "--path", path]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                "algebra error: cannot write entry (1, 1): it would not read back: "
                "power exceeds the size bound 2000 at offset 6\n"
            )

    def test_singular_input(self, tmp_path, capsys):
        bad = tmp_path / "n.mat"
        bad.write_text("matrix 2 2\n1; 1\n1; 1\n")
        assert run_command(["invert", "--n", str(bad)]) == 3

    def test_non_square_input_rejected_on_both_paths(self, tmp_path, capsys):
        bad = tmp_path / "n.mat"
        bad.write_text("matrix 2 3\n1; 0; 0\n0; 1; 0\n")
        for path in PATHS:
            assert run_command(["invert", "--n", str(bad), "--path", path]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                "input error: bordering inverse of a non-square matrix\n"
            )

    def test_non_symmetric_input_rejected_on_both_paths(self, tmp_path, capsys):
        # the bordering recursion reads the coupling column and uses its
        # transpose as the new row, so it cannot invert this matrix
        bad = tmp_path / "n.mat"
        bad.write_text("matrix 2 2\n1; 2\n0; 1\n")
        for path in PATHS:
            assert run_command(["invert", "--n", str(bad), "--path", path]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                "input error: bordering inverse expects a symmetric matrix\n"
            )


class TestEval:
    def test_evaluate_at_rational_point(self, capsys):
        code = run_command(
            ["eval", "--in", fixture("wmp_rank2_a.mat"), "--at", "1/2"]
        )
        assert code == 0
        m = parse_matrix_file(capsys.readouterr().out)
        assert m[0, 0] == parse_matrix_file("matrix 1 1\n3/2")[0, 0]

    def test_pole_point_rejected(self, capsys):
        code = run_command(
            ["eval", "--in", fixture("wmp_rational_a.mat"), "--at", "0"]
        )
        assert code == 2
        assert "pole" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "point",
        ["half", "1e30000000", "1e100000", "1.5", "1_000", "+1", " 1", "1/-2",
         "\u0661", "1/0"],
    )
    def test_bad_point_syntax(self, point):
        # a subprocess, so that a point that builds 10**exp hits the timeout
        # instead of stalling the suite
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, "-m", "wmpinv", "eval",
             "--in", fixture("wmp_rank2_a.mat"), "--at", point],
            capture_output=True, text=True, timeout=10, env=src_env(),
        )
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == (
            f"invalid evaluation point {point!r}: expected <p>/<q> or an integer\n"
        )

    def test_point_too_large_for_the_degree_exits_two_quickly(self, tmp_path):
        # a subprocess, so that an unbounded evaluation hits the timeout
        # instead of stalling the suite
        import subprocess
        import sys

        a = tmp_path / "a.mat"
        a.write_text("matrix 1 1\n(1+s)^500\n")
        point = "7" * 4000 + "/1" + "0" * 3999
        result = subprocess.run(
            [sys.executable, "-m", "wmpinv", "eval", "--in", str(a), "--at", point],
            capture_output=True, text=True, timeout=10, env=src_env(),
        )
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == (
            "evaluation point too large: its size 13288 times the matrix degree 500 "
            "exceeds the size bound 2000\n"
        )

    def test_point_at_the_bound_evaluates(self, tmp_path, capsys):
        # 3/2 has size 2, and 2 * 1000 is the bound itself; the value is 0
        a = tmp_path / "a.mat"
        a.write_text("matrix 1 1\n(2*s-3)*s^999\n")
        assert run_command(["eval", "--in", str(a), "--at", "3/2"]) == 0
        assert capsys.readouterr().out == "matrix 1 1\n0\n"
        assert run_command(["eval", "--in", str(a), "--at", "4/3"]) == 2
        assert capsys.readouterr().err.startswith("evaluation point too large")

    def test_value_the_reader_refuses_exits_three(self, tmp_path, capsys):
        # 5^1000/2^1000 passes the point bound, but its operand sizes sum
        # past the size bound, so parsing it back would fail
        a, out = tmp_path / "a.mat", tmp_path / "v.mat"
        a.write_text("matrix 1 1\n(1+s)^1000\n")
        assert run_command(["eval", "--in", str(a), "--at", "3/2", "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "algebra error: cannot write entry (1, 1): it would not read back: "
            f"quotient exceeds the size bound 2000 at offset {len(str(5**1000))}\n"
        )
        assert not out.exists()


class TestArgumentErrors:
    def test_unknown_subcommand(self, capsys):
        assert run_command(["frobnicate"]) == 2

    def test_missing_required_argument(self, capsys):
        assert run_command(["compute"]) == 2


class TestHostileInput:
    def test_deep_nesting_is_a_parse_error(self, tmp_path, capsys):
        for body in ("(" * 3000 + "s" + ")" * 3000, "-" * 3000 + "s"):
            a = tmp_path / "a.mat"
            a.write_text(f"matrix 1 1\n{body}\n")
            code = run_command(["compute", "--a", str(a)])
            err = capsys.readouterr().err
            assert code == 2
            assert err.count("\n") == 1
            assert err.startswith("parse error: row 1, column 1")
            assert "nesting" in err

    def test_overlong_integer_literal_is_a_parse_error(self, tmp_path, capsys):
        import sys

        limit = sys.get_int_max_str_digits()
        for body, offset in (("9" * 5000, 0), ("s^" + "9" * 5000, 2)):
            a = tmp_path / "a.mat"
            a.write_text(f"matrix 1 1\n{body}\n")
            code = run_command(["compute", "--a", str(a)])
            err = capsys.readouterr().err
            assert code == 2
            assert err == (
                "parse error: row 1, column 1 (line 2): integer literal longer "
                f"than {limit} digits at offset {offset}\n"
            )

    def test_nesting_at_the_bound_parses(self, tmp_path, capsys):
        from wmpinv.matrixio import MAX_NESTING

        half = MAX_NESTING // 2
        a = tmp_path / "a.mat"
        a.write_text("matrix 1 1\n" + "-(" * half + "s" + ")" * half + "\n")
        assert run_command(["compute", "--a", str(a)]) == 0
        assert capsys.readouterr().out == "matrix 1 1\n1/s\n"

    def test_hostile_powers_exit_two_quickly(self, tmp_path):
        # a subprocess, so that an unbounded power hits the timeout instead
        # of stalling the suite
        import subprocess
        import sys

        for body in (
            "7^3000000",
            "s^3000000",
            "(1+s)^4000",
            "((1+s)^1000)^2",
            "(1+s)^1000*(1+s)^1000*(1+s)^1000*(1+s)^1000",
            "1/(1+s)^1000/(1+s)^1000",
        ):
            a = tmp_path / "a.mat"
            a.write_text(f"matrix 1 1\n{body}\n")
            result = subprocess.run(
                [sys.executable, "-m", "wmpinv", "compute", "--a", str(a)],
                capture_output=True, text=True, timeout=10, env=src_env(),
            )
            assert result.returncode == 2, body
            assert result.stdout == ""
            assert result.stderr.count("\n") == 1
            assert result.stderr.startswith("parse error: row 1, column 1")
            assert "exceeds the size bound" in result.stderr

    def test_power_at_the_bound_parses(self, tmp_path, capsys):
        from wmpinv.matrixio import MAX_SIZE, parse_entry

        # s and 1+s have size 2 (degree 1, one coefficient bit), 7 size 3
        half = MAX_SIZE // 2
        assert parse_entry(f"(1+s)^{half}").num.coeffs[1] == half
        third = MAX_SIZE // 3
        assert parse_entry(f"7^{third}").num.coeffs == (7**third,)
        a = tmp_path / "a.mat"
        a.write_text(f"matrix 1 1\ns^{half}\n")
        assert run_command(["compute", "--a", str(a)]) == 0
        assert capsys.readouterr().out == f"matrix 1 1\n1/s^{half}\n"
        a.write_text(f"matrix 1 1\ns^{half + 1}\n")
        assert run_command(["compute", "--a", str(a)]) == 2
        assert "exceeds the size bound" in capsys.readouterr().err

    def test_product_at_the_bound_parses(self, tmp_path, capsys):
        from wmpinv.matrixio import MAX_SIZE, parse_entry

        # s^k has size k + 1, so the operands of each '*' and '/' sum to
        # the bound exactly; one more degree is over it
        k = MAX_SIZE // 2 - 1
        assert parse_entry(f"s^{k}*s^{k}").num.coeffs == (0,) * (2 * k) + (1,)
        assert parse_entry(f"s^{k}/s^{k}*s") == parse_entry("s")
        a = tmp_path / "a.mat"
        a.write_text(f"matrix 1 1\ns^{k}*s^{k + 1}\n")
        assert run_command(["compute", "--a", str(a)]) == 2
        assert capsys.readouterr().err == (
            "parse error: row 1, column 1 (line 2): product exceeds the size "
            f"bound {MAX_SIZE} at offset {len(str(k)) + 2}\n"
        )

    def test_non_ascii_digits_are_a_located_parse_error(self, tmp_path, capsys):
        for body, message in (
            ("\u00b2", "expected 's', an integer, '(' or '-' at offset 0"),
            ("s^\u00b2", "exponent must be an unsigned integer at offset 2"),
        ):
            a = tmp_path / "a.mat"
            a.write_text(f"matrix 1 1\n{body}\n", encoding="utf-8")
            assert run_command(["compute", "--a", str(a)]) == 2
            assert capsys.readouterr().err == (
                f"parse error: row 1, column 1 (line 2): {message}\n"
            )

    def test_underscored_header_dimension_is_a_parse_error(self, tmp_path, capsys):
        a = tmp_path / "a.mat"
        a.write_text("matrix 1_0 1\n1\n")
        assert run_command(["compute", "--a", str(a), "--path", "both", "--verify"]) == 2
        assert capsys.readouterr().err == (
            "parse error: line 1: header must be 'matrix <rows> <cols>', "
            "got 'matrix 1_0 1'\n"
        )

    def test_capacity_error_exits_three_under_optimize(self):
        # an extra zero digit on every entry of every scalar result of the
        # convolution kernel must trip the capacity check even with asserts
        # stripped by -O
        import subprocess
        import sys

        script = (
            "import sys\n"
            f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
            "from helpers import grid_result, longer_digits\n"
            "from wmpinv import poly_greville\n"
            "from wmpinv.cli import run_command\n"
            "if not sys.flags.optimize:\n"
            "    sys.exit(9)\n"
            "poly_greville.conv = longer_digits(\n"
            "    poly_greville.conv, lambda terms, check: not grid_result(terms, check)\n"
            ")\n"
            "sys.exit(run_command(sys.argv[1:]))\n"
        )
        result = subprocess.run(
            [sys.executable, "-O", "-c", script,
             "compute", "--a", fixture("wmp_poly3_a.mat"), "--path", "poly"],
            capture_output=True, text=True, env=src_env(),
        )
        assert result.returncode == 3
        assert result.stderr == (
            "algebra error: extended denominator: coefficient sequence of "
            "length 12 exceeds its degree capacity 10\n"
        )
