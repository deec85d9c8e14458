"""Matrix files and the entry expression grammar.

Entry grammar (whitespace insignificant):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := atom ('^' unsigned-integer)?
    atom   := 's' | unsigned-integer | '(' expr ')' | '-' factor

'(' and unary '-' nest at most MAX_NESTING deep; powers, products and
quotients obey MAX_SIZE; integer literals are ASCII digits and obey the
interpreter's integer-string digit limit.

File format: optional full-line comments starting with '#', a header line
``matrix <rows> <cols>``, then one line per row with entries separated by
';' (the separator is ';' and not whitespace so expressions may contain
spaces).  ``format_matrix`` emits canonical entries and round-trips:
parsing its output reproduces the matrix exactly.
"""

from __future__ import annotations

import sys

from .errors import MatrixParseError
from .matrices import RfMatrix
from .scalars import RatFun, S, format_ratfun


# Bound on the nesting of '(' and unary '-'.  Each level costs a few
# interpreter frames, so deeper input would otherwise exhaust the recursion
# limit.
MAX_NESTING = 100

# Bound on exponent * size of the base of '^' and on the summed sizes of
# the operands of '*' and '/' (size: degree plus coefficient bits), so that
# a few bytes such as 's^3000000' cannot compute for minutes.
MAX_SIZE = 2000


def _size(f):
    num, den = f.num.coeffs, f.den.coeffs
    degree = len(num if len(num) > len(den) else den) - 1
    return degree + max(map(abs, num + den)).bit_length()


class _EntryParser:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.depth = 0

    def error(self, message, pos=None):
        pos = self.pos if pos is None else pos
        raise MatrixParseError(f"{message} at offset {pos}", offset=pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self):
        ch = self.peek()
        self.pos += 1
        return ch

    def integer(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
            self.pos += 1
        if self.pos == start:
            self.error("expected an unsigned integer")
        limit = sys.get_int_max_str_digits()
        if 0 < limit < self.pos - start:
            self.error(f"integer literal longer than {limit} digits", start)
        return int(self.text[start : self.pos])

    def expr(self):
        value = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self):
        value = self.factor()
        while self.peek() in ("*", "/"):
            op_pos = self.pos
            op = self.take()
            rhs = self.factor()
            if _size(value) + _size(rhs) > MAX_SIZE:
                kind = "product" if op == "*" else "quotient"
                self.error(f"{kind} exceeds the size bound {MAX_SIZE}", op_pos)
            if op == "/":
                if rhs.is_zero:
                    self.error("division by zero", op_pos)
                value = value / rhs
            else:
                value = value * rhs
        return value

    def factor(self):
        value = self.atom()
        if self.peek() == "^":
            self.take()
            if not "0" <= self.peek() <= "9":
                self.error("exponent must be an unsigned integer")
            exponent = self.integer()
            if exponent * _size(value) > MAX_SIZE:
                self.error(f"power exceeds the size bound {MAX_SIZE}")
            value = value ** exponent
        return value

    def nested(self, parse):
        if self.depth == MAX_NESTING:
            self.error(f"nesting of '(' and '-' deeper than {MAX_NESTING}")
        self.depth += 1
        value = parse()
        self.depth -= 1
        return value

    def atom(self):
        ch = self.peek()
        if ch == "s":
            self.pos += 1
            return S
        if "0" <= ch <= "9":
            return RatFun.const(self.integer())
        if ch == "(":
            self.pos += 1
            value = self.nested(self.expr)
            if self.peek() != ")":
                self.error("expected ')'")
            self.pos += 1
            return value
        if ch == "-":
            self.pos += 1
            return -self.nested(self.factor)
        self.error("expected 's', an integer, '(' or '-'")


def parse_entry(text):
    """Parse one entry expression to a canonical rational function."""
    p = _EntryParser(text)
    value = p.expr()
    p.skip_ws()
    if p.pos != len(text):
        p.error("unexpected trailing input")
    return value


def format_entry(f):
    """Canonical expression string for one entry (see scalars.format_ratfun)."""
    return format_ratfun(f)


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
    if len(parts) != 3 or parts[0] != "matrix":
        raise MatrixParseError(
            f"line {lineno}: header must be 'matrix <rows> <cols>', got {header!r}"
        )
    try:
        rows, cols = int(parts[1]), int(parts[2])
    except ValueError:
        raise MatrixParseError(
            f"line {lineno}: header must be 'matrix <rows> <cols>', got {header!r}"
        ) from None
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
    """Emit the file format with canonical entries; re-parsing reproduces
    the matrix exactly."""
    lines = [f"matrix {a.rows} {a.cols}"]
    for r in range(a.rows):
        lines.append("; ".join(format_entry(x) for x in a.row(r)))
    return "\n".join(lines) + "\n"
