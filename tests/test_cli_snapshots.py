"""CLI byte snapshots: the sha256 of stdout, the stderr text and the exit
code of ``run_command`` for ``compute`` and ``invert`` on every fixture,
pinned in ``tests/data/cli_snapshots.json``.

After an intended output change, rewrite the snapshots with
``PYTHONPATH=src python tests/test_cli_snapshots.py``, which prints the
name of every entry it changes, added or dropped; name each one in the
change log.
"""

import contextlib
import hashlib
import io
import json
import re
import tempfile
from pathlib import Path

import pytest

from helpers import DATA
from wmpinv.cli import run_command
from wmpinv.verify import PATHS

SNAPSHOTS = DATA / "cli_snapshots.json"
# inputs that are not fixture files: a singular order-1 column-weight block
EXTRA = {
    "one_row_a.mat": "matrix 1 2\n1; 1\n",
    "singular_n.mat": "matrix 2 2\n0; 0\n0; 1\n",
}


def _cases():
    fixtures = sorted(p.name for p in DATA.glob("*.mat"))
    runs = []
    for a in (name for name in fixtures if name.endswith("_a.mat")):
        for path in (*PATHS, "both"):
            base = ["compute", "--a", a, "--path", path]
            runs += [
                base,
                base + ["--verify"],
                base + ["--m", "wmp_rank2_m.mat", "--n", "wmp_rank2_n.mat", "--verify"],
            ]
    for n in fixtures:
        for path in PATHS:
            runs.append(["invert", "--n", n, "--path", path])
    for path in (*PATHS, "both"):
        runs.append(
            ["compute", "--a", "one_row_a.mat", "--n", "singular_n.mat", "--path", path]
        )
    return {" ".join(argv): argv for argv in runs}


CASES = _cases()


def snapshot(argv, extra_dir):
    """Run one CLI invocation with its .mat arguments resolved."""
    resolved = [
        str((extra_dir if arg in EXTRA else DATA) / arg) if arg.endswith(".mat") else arg
        for arg in argv
    ]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(resolved)
    return {
        "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "stderr": err.getvalue(),
        "exit": code,
    }


@pytest.fixture(scope="module")
def extra_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("extra")
    for name, text in EXTRA.items():
        (d / name).write_text(text)
    return d


@pytest.fixture(scope="module")
def pinned():
    return json.loads(SNAPSHOTS.read_text())


def test_every_case_is_pinned(pinned):
    assert sorted(pinned) == sorted(CASES)


def test_path_never_changes_the_output(pinned):
    # every path takes the same inputs, so each --path and --path both must
    # print what --path rational prints, errors included
    def twin(name):
        return re.sub("--path [a-z]+", "--path rational", name)

    assert [name for name in sorted(pinned) if pinned[name] != pinned[twin(name)]] == []


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_snapshot(name, extra_dir, pinned):
    assert snapshot(CASES[name], extra_dir) == pinned[name]


if __name__ == "__main__":
    old = json.loads(SNAPSHOTS.read_text()) if SNAPSHOTS.exists() else {}
    with tempfile.TemporaryDirectory() as d:
        for name, text in EXTRA.items():
            (Path(d) / name).write_text(text)
        table = {name: snapshot(argv, Path(d)) for name, argv in sorted(CASES.items())}
    for name in sorted(table.keys() | old.keys()):
        if table.get(name) != old.get(name):
            print(f"changed: {name}")
    SNAPSHOTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
