"""Matrix files and the entry expression grammar.

Entry grammar (whitespace insignificant):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := atom ('^' unsigned-integer)?
    atom   := 's' | unsigned-integer | '(' expr ')' | '-' factor

'(' and unary '-' nest at most MAX_NESTING deep; powers, products and
quotients obey MAX_SIZE; integer literals are ASCII digits and obey the
interpreter's integer-string digit limit.

Each entry is split into tokens once, by one regular expression (a run
of ASCII digits or one non-space character); offsets are located again
only to report an error.  A sub-expression with denominator 1 stays a
`Poly` and uses polynomial arithmetic until a '/' or a rational operand
promotes it to a `RatFun`.

The monomial lane: a term of an expr that is c, s, s^e, c*s or c*s^e,
each with an optional unary '-', and that ends at '+', '-', ')' or the
end of the entry, is added straight into one coefficient list, which
becomes one `Poly` at the end of the expr.  So a canonical numerator or
denominator costs no polynomial product or sum.  The lane applies the
grammar's own bound checks (digit limit, power, product, nesting) and
takes a term only if all pass; otherwise the general grammar parses the
term, raising the same error at the same offset as without the lane.

File format: optional full-line comments starting with '#', a header line
``matrix <rows> <cols>`` (the dimensions in ASCII digits, as integer
literals are), then one line per row with entries separated by ';' (the
separator is ';' and not whitespace so expressions may contain spaces).
``format_matrix`` emits canonical entries.  Parsing its output
reproduces the matrix exactly only while each entry is inside the parse
bounds: a canonical entry past MAX_SIZE (a term s^e with 2e > MAX_SIZE,
or p/q whose sizes sum past it) is written but cannot be read back, and
a coefficient past the digit limit is not written (CapacityError).
"""

from __future__ import annotations

import re
import sys

from .errors import CapacityError, MatrixParseError
from .matrices import RfMatrix
from .scalars import ZERO_POLY, S_POLY, Poly, RatFun, format_ratfun, trim


# Bound on the nesting of '(' and unary '-'.  Each level costs a few
# interpreter frames, so deeper input would otherwise exhaust the recursion
# limit.
MAX_NESTING = 100

# Bound on exponent * size of the base of '^' and on the summed sizes of
# the operands of '*' and '/' (size: degree plus coefficient bits), so that
# a few bytes such as 's^3000000' cannot compute for minutes.
MAX_SIZE = 2000


def _size(f):
    # a Poly p measures as p/1
    if isinstance(f, Poly):
        num, den = f.coeffs, (1,)
    else:
        num, den = f.num.coeffs, f.den.coeffs
    degree = len(num if len(num) > len(den) else den) - 1
    return _size_of(degree, max(map(abs, num + den)))


def _size_of(degree, height):
    # the size of a value of this degree whose largest coefficient
    # magnitude (its denominator's included) is height
    return degree + height.bit_length()


# The bounds, each written once: the general grammar raises where one
# fails, the monomial lane of expr() leaves the term to it.
def _literal_fits(tok):
    limit = sys.get_int_max_str_digits()
    return not 0 < limit < len(tok)


def power_fits(exponent, base_size):
    return exponent * base_size <= MAX_SIZE


def _product_fits(lhs_size, rhs_size):
    return lhs_size + rhs_size <= MAX_SIZE


def _nests(depth):
    return depth < MAX_NESTING


_S_SIZE = _size(S_POLY)


# an integer literal or one non-space character; \s agrees with str.isspace
_TOKEN = re.compile(r"[0-9]+|\S")


def _is_int(tok):
    return "0" <= tok[:1] <= "9"


# the tokens that may follow a term
_TERM_ENDS = frozenset(("+", "-", ")", ""))


class _EntryParser:
    def __init__(self, text):
        self.text = text
        self.toks = _TOKEN.findall(text) + [""]
        self.k = 0
        self.depth = 0

    def error(self, message, k=None, end=False):
        """Raise at the start of token k (default: the current one), or just
        past its end; offsets are located only here, by scanning again."""
        k = self.k if k is None else k
        starts = [m.start() for m in _TOKEN.finditer(self.text)]
        starts.append(len(self.text))
        pos = starts[k] + len(self.toks[k]) if end else starts[k]
        raise MatrixParseError(f"{message} at offset {pos}", offset=pos)

    def integer(self):
        tok = self.toks[self.k]
        if not _literal_fits(tok):
            limit = sys.get_int_max_str_digits()
            self.error(f"integer literal longer than {limit} digits")
        self.k += 1
        return int(tok)

    def expr(self):
        # monomial terms go into one coefficient list, the others into
        # value; addition is exact, so the order of the sums does not matter
        coeffs, value, negate = [], None, False
        while True:
            if not self.monomial(coeffs, negate):
                rhs = self.term()
                if value is None:
                    value = -rhs if negate else rhs
                else:
                    value = value - rhs if negate else value + rhs
            op = self.toks[self.k]
            if op not in ("+", "-"):
                break
            self.k += 1
            negate = op == "-"
        if not coeffs:
            return ZERO_POLY if value is None else value
        lane = Poly._raw(trim(coeffs))
        return lane if value is None else value + lane

    def monomial(self, coeffs, negate):
        """Add the term at token k, negated if negate, to the coefficient
        list coeffs, when it is c, s, s^e, c*s or c*s^e, each with an
        optional unary '-', ends at '+', '-', ')' or the end, and passes
        every bound; return whether it did.  Otherwise k is unchanged, and
        term() parses the term or raises its error."""
        toks, k = self.toks, self.k
        tok = toks[k]
        if tok == "-":
            if not _nests(self.depth):
                return False
            negate, k = not negate, k + 1
            tok = toks[k]
        c, e, product = 1, 0, False
        if tok != "s":
            if not (_is_int(tok) and _literal_fits(tok)):
                return False
            c, k = int(tok), k + 1
            product = toks[k] == "*"
            if product:
                k += 1
                if toks[k] != "s":
                    return False
        if tok == "s" or product:
            k, e = k + 1, 1
            if toks[k] == "^":
                tok = toks[k + 1]
                if not (_is_int(tok) and _literal_fits(tok)):
                    return False
                e = int(tok)
                if not power_fits(e, _S_SIZE):
                    return False
                k += 2
            if product and not _product_fits(
                _size_of(0, max(abs(c), 1)), _size_of(e, 1)
            ):
                return False
        if toks[k] not in _TERM_ENDS:
            return False
        if c:
            if len(coeffs) <= e:
                coeffs.extend([0] * (e + 1 - len(coeffs)))
            coeffs[e] += -c if negate else c
        self.k = k
        return True

    def term(self):
        value = self.factor()
        while (op := self.toks[self.k]) in ("*", "/"):
            op_k = self.k
            self.k += 1
            rhs = self.factor()
            if not _product_fits(_size(value), _size(rhs)):
                kind = "product" if op == "*" else "quotient"
                self.error(f"{kind} exceeds the size bound {MAX_SIZE}", op_k)
            if op == "/":
                if rhs.is_zero:
                    self.error("division by zero", op_k)
                value = RatFun._want(value) / rhs
            else:
                value = value * rhs
        return value

    def factor(self):
        value = self.atom()
        if self.toks[self.k] == "^":
            self.k += 1
            if not _is_int(self.toks[self.k]):
                self.error("exponent must be an unsigned integer")
            exponent = self.integer()
            if not power_fits(exponent, _size(value)):
                message = f"power exceeds the size bound {MAX_SIZE}"
                self.error(message, self.k - 1, end=True)
            value = value ** exponent
        return value

    def nested(self, parse):
        if not _nests(self.depth):
            message = f"nesting of '(' and '-' deeper than {MAX_NESTING}"
            self.error(message, self.k - 1, end=True)
        self.depth += 1
        value = parse()
        self.depth -= 1
        return value

    def atom(self):
        tok = self.toks[self.k]
        if _is_int(tok):
            return Poly.const(self.integer())
        self.k += 1
        if tok == "s":
            return S_POLY
        if tok == "(":
            value = self.nested(self.expr)
            if self.toks[self.k] != ")":
                self.error("expected ')'")
            self.k += 1
            return value
        if tok == "-":
            return -self.nested(self.factor)
        self.error("expected 's', an integer, '(' or '-'", self.k - 1)


def parse_entry(text):
    """Parse one entry expression to a canonical rational function."""
    p = _EntryParser(text)
    value = p.expr()
    if p.toks[p.k]:
        p.error("unexpected trailing input")
    return RatFun._want(value)


def parse_matrix_file(text):
    """Parse a matrix file (see module docstring) into an RfMatrix."""
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        lines.append((lineno, stripped))
    if not lines:
        raise MatrixParseError("empty matrix file: missing header line")
    lineno, header = lines[0]
    parts = header.split()
    bad_header = MatrixParseError(
        f"line {lineno}: header must be 'matrix <rows> <cols>', got {header!r}"
    )
    if len(parts) != 3 or parts[0] != "matrix" or not all(
        re.fullmatch("[0-9]+", x) for x in parts[1:]
    ):
        raise bad_header
    try:
        rows, cols = int(parts[1]), int(parts[2])
    except ValueError:  # beyond the integer-string digit limit
        raise bad_header from None
    if rows < 1 or cols < 1:
        raise MatrixParseError(f"line {lineno}: matrix dimensions must be positive")
    body = lines[1:]
    if len(body) != rows:
        raise MatrixParseError(
            f"expected {rows} row lines after the header, found {len(body)}"
        )
    grid = []
    for r, (lineno, line) in enumerate(body, start=1):
        cells = line.split(";")
        if len(cells) != cols:
            raise MatrixParseError(
                f"row {r} (line {lineno}): expected {cols} entries, found {len(cells)}",
                row=r,
            )
        parsed = []
        for c, cell in enumerate(cells, start=1):
            try:
                parsed.append(parse_entry(cell))
            except MatrixParseError as exc:
                raise MatrixParseError(
                    f"row {r}, column {c} (line {lineno}): {exc}",
                    offset=exc.offset,
                    row=r,
                    col=c,
                ) from None
        grid.append(parsed)
    return RfMatrix.from_rows(grid)


def format_matrix(a):
    """Emit the file format with canonical entries; they re-parse to the
    same matrix only inside the parse bounds (see the module docstring).

    A coefficient longer than the interpreter's integer-string digit limit
    cannot be written (nor read back): CapacityError names its entry.
    """
    lines = [f"matrix {a.rows} {a.cols}"]
    for r in range(a.rows):
        try:
            lines.append("; ".join(format_ratfun(x) for x in a.row(r)))
        except ValueError:  # str() of an int past the digit limit
            limit = sys.get_int_max_str_digits()
            for c, f in enumerate(a.row(r), start=1):
                digits = digit_count(max(map(abs, f.num.coeffs + f.den.coeffs)))
                if digits > limit:
                    raise CapacityError(
                        f"cannot write entry ({r + 1}, {c}): a coefficient has "
                        f"{digits} digits, more than the integer-string limit "
                        f"of {limit}",
                        label=f"entry ({r + 1}, {c})",
                    ) from None
            raise
    return "\n".join(lines) + "\n"


def digit_count(n):
    """Decimal digits of |n| for a nonzero int n, without str(n)."""
    n = abs(n)
    # the estimate from the bit length is at most the count
    d = max(1, int((n.bit_length() - 1) * 0.30102999566398120))
    while 10**d <= n:
        d += 1
    return d
