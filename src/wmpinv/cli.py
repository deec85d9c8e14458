"""Command-line front end.

Exit codes: 0 success; 1 verification or cross-path failure; 2 input or
parse error; 3 singularity / degenerate-weight / capacity error.
Diagnostics go to stderr, one line per failure; results go to stdout or
--out.
"""

from __future__ import annotations

import argparse
import re
import sys
from fractions import Fraction

from .errors import CapacityError, MatrixParseError, PoleError, StageError
from .matrices import RfMatrix, WeightedProblem
from .matrixio import MAX_SIZE, digit_count, format_matrix, parse_matrix_file, power_fits
from .verify import PATHS, first_difference, penrose_check


def _load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_matrix_file(fh.read())


def _emit(text, out):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _diag(message):
    print(message, file=sys.stderr)


def _residual_text(f):
    """The residual written out, or, past the integer-string digit limit,
    its degrees and the digit count of its longest coefficient."""
    try:
        return str(f)
    except ValueError:
        digits = max(digit_count(c) for p in (f.num, f.den) for c in p.coeffs if c)
        return (
            f"not written (numerator degree {f.num.degree}, denominator degree "
            f"{f.den.degree}, largest coefficient {digits} digits)"
        )


def _cmd_compute(args):
    a = _load(args.a)
    m = _load(args.m) if args.m else None
    n = _load(args.n) if args.n else None
    problem = WeightedProblem(a, m, n)

    names = PATHS if args.path == "both" else (args.path,)
    x, *others = (PATHS[name][0](problem) for name in names)
    for other in others:
        hit = first_difference(other.grid, x.grid)
        if hit:
            _diag(f"computation paths disagree at entry ({hit[0]}, {hit[1]})")
            return 1

    if args.verify:
        report = penrose_check(a, problem.m_weight, problem.n_weight, x)
        if not report.all_hold:
            tag, r, c, residual = report.first_failure
            _diag(
                f"verification failed: equation {tag} at ({r}, {c}), "
                f"residual {_residual_text(residual)}"
            )
            return 1
    _emit(format_matrix(x), args.out)
    return 0


def _cmd_invert(args):
    _emit(format_matrix(PATHS[args.path][1](_load(args.n))), args.out)
    return 0


def _cmd_verify(args):
    problem = WeightedProblem(_load(args.a), _load(args.m), _load(args.n))
    x = _load(args.x)
    report = penrose_check(problem.a, problem.m_weight, problem.n_weight, x)
    if report.all_hold:
        print("all four weighted Penrose equations hold")
        return 0
    tag, r, c, residual = report.first_failure
    _diag(f"equation {tag} fails at ({r}, {c}), residual {_residual_text(residual)}")
    return 1


# the documented point forms only: Fraction alone also reads an exponent,
# and builds 10**30000000 for 1e30000000
_POINT = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _cmd_eval(args):
    mat = _load(args.infile)
    try:
        point = Fraction(args.at) if _POINT.fullmatch(args.at) else None
    except (ValueError, ZeroDivisionError):
        point = None
    if point is None:
        _diag(f"invalid evaluation point {args.at!r}: expected <p>/<q> or an integer")
        return 2
    # the bound that (p/q)^degree meets in a matrix file
    degree = max(max(f.num.degree, f.den.degree) for row in mat.grid for f in row)
    size = max(abs(point.numerator), point.denominator).bit_length()
    if not power_fits(degree, size):
        _diag(
            f"evaluation point too large: its size {size} times the matrix "
            f"degree {degree} exceeds the size bound {MAX_SIZE}"
        )
        return 2
    values = mat.eval_at(point)
    _emit(format_matrix(RfMatrix.from_rows(values)), args.out)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="wmpinv",
        description="Exact weighted pseudoinverses of univariate rational "
        "and polynomial matrices, by column partitioning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "compute", help="weighted pseudoinverse of a matrix file"
    )
    p.add_argument("--a", required=True, help="input matrix file")
    p.add_argument("--m", help="row weight file (identity when omitted)")
    p.add_argument("--n", help="column weight file (identity when omitted)")
    p.add_argument(
        "--path",
        choices=(*PATHS, "both"),
        default="rational",
        help="computation path: the rational-function recursion, the "
        "coefficient recursion, or both, failing unless they agree",
    )
    p.add_argument("--out", help="output file (stdout when omitted)")
    p.add_argument(
        "--verify",
        action="store_true",
        help="check the four weighted Penrose equations on the result",
    )
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("invert", help="inverse of a symmetric matrix file")
    p.add_argument("--n", required=True, help="input matrix file")
    p.add_argument("--path", choices=tuple(PATHS), default="rational")
    p.add_argument("--out", help="output file (stdout when omitted)")
    p.set_defaults(func=_cmd_invert)

    p = sub.add_parser(
        "verify", help="check the Penrose equations for a candidate inverse"
    )
    p.add_argument("--a", required=True)
    p.add_argument("--m", required=True)
    p.add_argument("--n", required=True)
    p.add_argument("--x", required=True, help="candidate inverse file")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("eval", help="evaluate a matrix file at a rational point")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--at", required=True, help="evaluation point, <p>/<q> or integer")
    p.add_argument("--out", help="output file (stdout when omitted)")
    p.set_defaults(func=_cmd_eval)

    return parser


def run_command(argv):
    """Dispatch a CLI invocation; returns the process exit status."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        return args.func(args)
    except MatrixParseError as exc:
        _diag(f"parse error: {exc}")
        return 2
    except OSError as exc:
        _diag(f"i/o error: {exc}")
        return 2
    except PoleError as exc:
        _diag(f"evaluation error: {exc}")
        return 2
    except (StageError, CapacityError) as exc:
        stage = getattr(exc, "stage", None)
        where = f" (stage {stage})" if stage else ""
        _diag(f"algebra error{where}: {exc}")
        return 3
    except (ValueError, TypeError) as exc:
        _diag(f"input error: {exc}")
        return 2


def main():
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
