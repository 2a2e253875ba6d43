"""Damaged input never escapes the command line as a Python exception.

Each bundled `scenarios/*.dali`, `*.system` and `*.events` file is
damaged by `mutate` from `tests/test_parser_corpus.py`, with a seed of
its own, and run through `dali.cli.main`: an agent file through
`model`, `transform` and `query`, and every file a system config names
(the config too) through `run` and `repl` with the other files intact.
Every run must return 0, 1, 2 or 3 and raise nothing, and an exit 3
must say why on stderr.
"""

from __future__ import annotations

import io
import random
import shutil
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from dali.cli import main
from dali.runtime import load_system_config
from test_parser_corpus import mutate

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
TEXTS_PER_FILE = 16
AGENTS = sorted(SCENARIOS.glob("*.dali"))
SYSTEMS = sorted(SCENARIOS.glob("*.system"))
# The REPL session: a few steps, the state of an agent, a query, quit.
SESSION = "step 20\nstate {agent}\nquery {agent} p\nstep\nquit\n"


def damaged(path: Path) -> list[str]:
    rng = random.Random(f"damaged {path.name}")
    source = path.read_text(encoding="utf-8")
    return [mutate(source, rng) for _ in range(TEXTS_PER_FILE)]


def check(argv: list[str], text: str, stdin: str = "") -> None:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.MonkeyPatch.context() as mp:
        mp.setattr("sys.stdin", io.StringIO(stdin))
        try:
            code = main(argv)
        except (Exception, SystemExit) as exc:
            pytest.fail(f"{argv} raised {exc!r} on {text!r}")
    assert code in (0, 1, 2, 3), (argv, code, text)
    if code == 3:
        assert err.getvalue().strip(), (argv, text)


@pytest.fixture(autouse=True)
def default_budget(monkeypatch):
    monkeypatch.delenv("DALI_MAX_STEPS", raising=False)


@pytest.mark.parametrize("path", AGENTS, ids=[p.stem for p in AGENTS])
def test_a_damaged_agent_file_is_an_exit_code(tmp_path, path):
    target = tmp_path / path.name
    for text in damaged(path):
        target.write_text(text, encoding="utf-8")
        for argv in (["model", str(target)], ["transform", str(target)], ["query", str(target), "p"]):
            check(argv, text)


def named_files(system: Path) -> list[Path]:
    """The config and the files its `agent` and `script` lines name."""
    words = [line.split() for line in system.read_text(encoding="utf-8").splitlines()]
    return [system] + [
        system.parent / w[1] for w in words if len(w) == 2 and w[0] in ("agent", "script")
    ]


@pytest.mark.parametrize("system", SYSTEMS, ids=[p.stem for p in SYSTEMS])
def test_a_damaged_system_is_an_exit_code(tmp_path, system):
    copy = tmp_path / "scenarios"
    shutil.copytree(SCENARIOS, copy)
    session = SESSION.format(agent=next(iter(load_system_config(system).agents)))
    for path in named_files(system):
        target = copy / path.name
        for text in damaged(path):
            target.write_text(text, encoding="utf-8")
            check(["run", str(copy / system.name)], text)
            check(["repl", str(copy / system.name)], text, session)
        shutil.copy(path, target)


def test_every_kind_of_bundled_file_is_damaged():
    damaged_names = {p.name for s in SYSTEMS for p in named_files(s)} | {p.name for p in AGENTS}
    assert {Path(n).suffix for n in damaged_names} == {".dali", ".system", ".events"}
