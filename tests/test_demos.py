"""Every narrative script in demos/ runs to completion and prints what it
printed when its output was pinned."""

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import src_env

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout; a demo that reads a moved field must still
# print the same bytes
STDOUT_SHA256 = {
    "coefficient_path_tour.py":
        "9a73ad0c4b619fa9e5dc18aef8d06181b636f4f637d819932017292677ad5ac8",
    "exact_inverse_tour.py":
        "d7628894641bb9e8ee57ad249676e0ffa343e440703d1d802455bad25d30abbb",
    "files_and_cli_tour.py":
        "9a3aab7480a9a3e99ba59ff453643436277e0b9b580f14d688f31e61fafc72c2",
    "weighted_pinv_tour.py":
        "1fbccd882e76c29a20ad0dc8d90b792b8491e7a9d390b8a4f1f91eeaec368fe5",
}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_zero(demo):
    result = subprocess.run(
        [sys.executable, str(demo)],
        cwd=ROOT, env=src_env(), capture_output=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr.decode()
    digest = hashlib.sha256(result.stdout).hexdigest()
    assert digest == STDOUT_SHA256[demo.name], result.stdout.decode()
