"""The python code blocks of README.md run, in order, in one namespace, so
the documented API cannot go stale when a public name is removed."""

import re
import subprocess
import sys
from pathlib import Path

from helpers import src_env

ROOT = Path(__file__).resolve().parent.parent
BLOCK = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)


def test_readme_python_blocks_run():
    blocks = BLOCK.findall((ROOT / "README.md").read_text(encoding="utf-8"))
    assert len(blocks) >= 2  # the quick start and the coefficient path
    result = subprocess.run(
        [sys.executable, "-c", "\n".join(blocks)],
        cwd=ROOT, env=src_env(), capture_output=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr.decode()
