#!/usr/bin/env python3
"""Golden outputs of `dali run --trace` for every bundled scenario.

    python3 bench/golden.py write   # regenerate bench/golden/ from the code
    python3 bench/golden.py check   # compare fresh outputs byte for byte

For each `scenarios/*.system` the golden directory holds the JSONL trace
(`NAME.trace.jsonl`), the standard output (`NAME.stdout`) and the exit
code (`NAME.exit`).  They are copies of what the code printed when they
were written, kept so that a refactor can show it changes no behaviour.
A change meant to alter behaviour rewrites them with `write`, so the new
outputs show in its diff.  `check` exits 1 and names every file that
differs.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden"


def capture(system: Path, scratch: Path) -> dict[str, bytes]:
    """Run `dali run SYSTEM --trace FILE` and return the golden files."""
    trace = scratch / f"{system.stem}.trace.jsonl"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("DALI_MAX_STEPS", None)
    proc = subprocess.run(
        [sys.executable, "-m", "dali", "run",
         str(system.relative_to(ROOT)), "--trace", str(trace)],
        cwd=ROOT, env=env, capture_output=True,
    )
    return {
        f"{system.stem}.trace.jsonl": trace.read_bytes() if trace.exists() else b"",
        f"{system.stem}.stdout": proc.stdout,
        f"{system.stem}.exit": f"{proc.returncode}\n".encode(),
    }


def fresh() -> dict[str, bytes]:
    (HERE / "_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="golden-", dir=HERE / "_work") as tmp:
        out: dict[str, bytes] = {}
        for system in sorted((ROOT / "scenarios").glob("*.system")):
            out.update(capture(system, Path(tmp)))
        return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv not in (["write"], ["check"]):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    files = fresh()
    if argv == ["write"]:
        GOLDEN.mkdir(exist_ok=True)
        for old in GOLDEN.iterdir():
            if old.name not in files:
                old.unlink()
        for name, data in files.items():
            (GOLDEN / name).write_bytes(data)
        print(f"wrote {len(files)} files to {GOLDEN.relative_to(ROOT)}")
        return 0
    stored = {p.name for p in GOLDEN.iterdir()} if GOLDEN.is_dir() else set()
    differ = sorted(n for n, data in files.items()
                    if n not in stored or (GOLDEN / n).read_bytes() != data)
    for name in differ:
        print(f"differs: {name}")
    for name in sorted(stored - set(files)):
        print(f"no longer produced: {name}")
    print(f"{len(files) - len(differ)}/{len(files)} golden files identical")
    differ += sorted(stored - set(files))
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
