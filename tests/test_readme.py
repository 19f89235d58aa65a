"""README's library example runs as written."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_the_library_example_runs():
    """The python block under "## Library example" runs in a fresh
    interpreter with PYTHONPATH=src and prints the run, then one line per
    round."""
    section = (ROOT / "README.md").read_text().split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    done = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": "src"},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    summary, *rounds = done.stdout.splitlines()
    decision, copies, _ = summary.split()
    assert decision in ("reject", "accept", "budget_exhausted")
    assert rounds and [line.split()[0] for line in rounds] == [
        str(i) for i in range(1, len(rounds) + 1)
    ]
    assert int(copies) <= 60
