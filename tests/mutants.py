"""Mutation check of the proven bounds and canonical rules: each mutant
must fail tier-1.

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones
    python tests/mutants.py --list

Each mutant is one exact text replacement in one file of ``src/wmpinv``.
It is applied to a temporary copy of the checkout (without ``.git`` and
the bench outputs), never to the checkout itself, and tier-1 runs there
with ``-x``.  A mutant is killed when the tests fail or run past
``TIMEOUT_S``.  A mutant that survives fails this script, unless the list
marks it value-equivalent with a one-line argument, which is printed.
The exit status is 0 when every mutant is killed or marked equivalent, 1
otherwise, and 2 when a replacement does not apply (its old text is not
found exactly once).  Stdlib only; pytest does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600
SKIP = shutil.ignore_patterns(".git", "out", "__pycache__", ".pytest_cache", ".hypothesis")


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/wmpinv
    old: str
    new: str
    equivalent: str | None = None  # why the mutant cannot change a value


MUTANTS = (
    Mutant(
        "packed_quotient without the |g|_1 factor of its bound",
        "scalars.py",
        "if max(map(abs, q), default=0) * sum(map(abs, g)) >= 1 << (k - 1):",
        "if max(map(abs, q), default=0) >= 1 << (k - 1):",
    ),
    Mutant(
        "packed_quotient without its g(2**k) != 0 guard",
        "scalars.py",
        "if not 2 <= k <= _PACKED_DIVISION_BITS or not gv:",
        "if not 2 <= k <= _PACKED_DIVISION_BITS:",
    ),
    Mutant(
        "conv's k two bits short",
        "scalars.py",
        "    k = bound.bit_length() + 2\n    if not live:",
        "    k = bound.bit_length()\n    if not live:",
    ),
    Mutant(
        "step_extend's upper-block check without its degree drop",
        "poly_greville.py",
        "check_capacity(n and n + len(coupling_den) - len(c1), cap, label)",
        "check_capacity(n, cap, label)",
    ),
    Mutant(
        "step_extend's upper-block check with its degree drop one too large",
        "poly_greville.py",
        "check_capacity(n and n + len(coupling_den) - len(c1), cap, label)",
        "check_capacity(n and n + len(coupling_den) - len(c1) + 1, cap, label)",
    ),
    Mutant(
        "minus_outer's k from the largest coefficient alone",
        "matrices.py",
        "bound = max(bound, _l1(x.num) * _l1(abq)\n"
        "                                + _l1(a.num) * _l1(b.num) * _l1(xq))",
        "bound = max(bound, *map(abs, x.num.coeffs + a.num.coeffs + b.num.coeffs))",
    ),
    Mutant(
        "__mul__'s grouped sums' k from the largest coefficient alone",
        "matrices.py",
        "sum(_l1(x.num) * _l1(y.num) for x, y in pairs)",
        "max(max(map(abs, x.num.coeffs + y.num.coeffs)) for x, y in pairs)",
    ),
    Mutant(
        "penrose_check's k without its weight term (M2)",
        "verify.py",
        "k = max((p1 * x1 + ld1) * max(p1, x1), 2 * p1 * x1 * max(m1, n1)).bit_length() + 2",
        "k = ((p1 * x1 + ld1) * max(p1, x1)).bit_length() + 2",
    ),
    Mutant(
        "digits' split without its carry",
        "scalars.py",
        "digits((v >> (h * k)) + carry, k)",
        "digits(v >> (h * k), k)",
    ),
    Mutant(
        "GCDHEU's evaluation point below its proof's bound",
        "scalars.py",
        "k = (2 * min(max(map(abs, ac)), max(map(abs, bc))) + 1).bit_length()",
        "k = (min(max(map(abs, ac)), max(map(abs, bc))) + 1).bit_length()",
    ),
    Mutant(
        "check_capacity off by one",
        "scalars.py",
        "if cap is not None and n > max(cap + 1, 0):",
        "if cap is not None and n > max(cap + 2, 0):",
    ),
    Mutant(
        "_normalize without its sign flip",
        "scalars.py",
        "    if den.coeffs[-1] < 0:\n        content = -content\n",
        "",
    ),
    Mutant(
        "_normalize without its numerators' content",
        "scalars.py",
        "        content = _int_content((content, *p.coeffs))\n",
        "        pass\n",
    ),
    Mutant(
        "RatFun.over taking its hint as the whole gcd",
        "scalars.py",
        "return cls._reduced(*gcd_cofactors(quo, hint[1])[1:])",
        "return cls._reduced(quo, hint[1])",
    ),
    Mutant(
        "joint_reduce stopping at a linear gcd",
        "scalars.py",
        "        if g.degree == 0:\n            break\n    return _normalize(",
        "        if g.degree <= 1:\n            break\n    return _normalize(",
    ),
    Mutant(
        "cross_path_check always true (M8)",
        "verify.py",
        "(the weighted pseudoinverse is unique, so they must).\"\"\"\n",
        "(the weighted pseudoinverse is unique, so they must).\"\"\"\n    return True\n",
    ),
    Mutant(
        "MAX_SIZE one above its documented value",
        "matrixio.py",
        "MAX_SIZE = 2000\n",
        "MAX_SIZE = 2001\n",
    ),
    Mutant(
        "MAX_NESTING one above its documented value",
        "matrixio.py",
        "MAX_NESTING = 100\n",
        "MAX_NESTING = 101\n",
    ),
)


def _apply(mutant, tree):
    path = tree / "src" / "wmpinv" / mutant.path
    text = path.read_text()
    if text.count(mutant.old) != 1:
        return False
    path.write_text(text.replace(mutant.old, mutant.new))
    return True


def run(mutant):
    """'killed', 'survived' or 'not applied', and the seconds taken."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "repo"
        shutil.copytree(ROOT, tree, ignore=SKIP)
        if not _apply(mutant, tree):
            return "not applied", time.perf_counter() - start
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
        try:
            result = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"],
                cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                timeout=TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return "killed", time.perf_counter() - start
    status = "survived" if result.returncode == 0 else "killed"
    return status, time.perf_counter() - start


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if args == ["--list"]:
        for m in MUTANTS:
            print(m.name)
        return 0
    chosen = [m for m in MUTANTS if not args or m.name in args]
    unknown = set(args) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    worst = 0
    for m in chosen:
        status, seconds = run(m)
        note = ""
        if status == "not applied":
            worst = 2
        elif status == "survived":
            if m.equivalent:
                note = f" (value-equivalent: {m.equivalent})"
            else:
                worst = max(worst, 1)
        print(f"{status:11s} {seconds:5.1f} s  {m.name}{note}", flush=True)
    return worst


if __name__ == "__main__":
    sys.exit(main())
