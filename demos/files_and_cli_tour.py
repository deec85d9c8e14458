"""Tour of the matrix file format and the command-line interface.

Entries are expressions over 's' with '+', '-', '*', '/', '^' and
parentheses; rows are ';'-separated.  Formatting emits canonical entries
and parsing them back reproduces the matrix exactly.
"""

import tempfile
from pathlib import Path

from wmpinv.cli import run_command
from wmpinv.matrixio import format_matrix, parse_entry, parse_matrix_file

entry = parse_entry("(s^2-1)/(s^2+2*s+1)")
print("parsed and canonicalized:", entry)  # common factor s+1 divided out

text = """# any comment lines are ignored
matrix 2 2
s + 1; 1/s
0; (s-1)/(s+1)
"""
m = parse_matrix_file(text)
print()
print("canonical form of the file:")
print(format_matrix(m))
assert parse_matrix_file(format_matrix(m)) == m  # round trip

# the same operations through the CLI, in-process
with tempfile.TemporaryDirectory() as tmp:
    work = Path(tmp)
    (work / "a.mat").write_text("matrix 3 3\ns+1; s+2; s\ns; s; s+1\ns+1; s+2; s\n")

    print("compute with identity weights, self-verified:")
    a, x = str(work / "a.mat"), str(work / "x.mat")
    status = run_command(["compute", "--a", a, "--verify", "--out", x])
    print("exit status:", status)
    print((work / "x.mat").read_text())

    print("evaluate the result at s = 1/2:")
    status = run_command(["eval", "--in", str(work / "x.mat"), "--at", "1/2"])
    print("exit status:", status)

    print("parse errors carry positions and exit with status 2:")
    (work / "bad.mat").write_text("matrix 1 1\ns+\n")
    status = run_command(["compute", "--a", str(work / "bad.mat")])
    print("exit status:", status)
