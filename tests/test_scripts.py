"""The demo scripts print the same bytes as the files in tests/data/scripts.

Both are deterministic; a reordered model, trace line or warning shows
up here.  To refresh after an intended change:

    python3 scripts/run_scenarios.py > tests/data/scripts/run_scenarios.out
    python3 scripts/evolution_demo.py > tests/data/scripts/evolution_demo.out
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", ["run_scenarios", "evolution_demo"])
def test_stdout_matches_the_pinned_file(script):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / f"{script}.py")],
        capture_output=True,
        check=True,
    )
    expected = (ROOT / "tests" / "data" / "scripts" / f"{script}.out").read_bytes()
    assert proc.stdout == expected
    assert proc.stderr == b""
