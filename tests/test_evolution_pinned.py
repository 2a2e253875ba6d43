"""`evolve_system` pinned round by round on every bundled system.

Every `*.system` under `scenarios/` and `tests/data/cli/` that loads is
evolved with no init, and then once for each declared event of each
agent and once for its past event, as that agent's only init entry.
Each run's rounds (every agent's units and model), its fixpoint flag and
its drop warnings, in order, must equal the line stored for it in
`tests/data/evolution/evolutions.jsonl`.

Regenerate the file (only when a change of behaviour is intended):

    PYTHONPATH=src python tests/test_evolution_pinned.py
"""

from __future__ import annotations

import json
from pathlib import Path

from dali.errors import DaliError
from dali.model import Atom
from dali.runtime import evolve_system, load_system_config

ROOT = Path(__file__).resolve().parents[1]
PINNED = Path(__file__).resolve().parent / "data" / "evolution" / "evolutions.jsonl"


def systems() -> list[tuple[str, object]]:
    """(path from the repository root, config) of every bundled system
    that loads, in path order."""
    paths = sorted(ROOT.glob("scenarios/*.system")) + sorted(ROOT.glob("tests/data/cli/**/*.system"))
    loaded = []
    for path in paths:
        try:
            loaded.append((path.relative_to(ROOT).as_posix(), load_system_config(path)))
        except DaliError:
            continue  # a malformed fixture
    return loaded


def inits(config) -> list[dict[str, list[Atom]] | None]:
    """No init, then each declared event and each past event of each
    agent, in agent and declaration order, as the one init entry."""
    runs = [None]
    for name, program in config.agents.items():
        for e in sorted(program.event_names):
            runs += [{name: [Atom(e)]}, {name: [Atom.past(e)]}]
    return runs


def evolution_lines() -> list[str]:
    """One JSON line per run: the system, the init, each round's units
    and models (agents in config order, atoms sorted), the fixpoint flag
    and the warnings."""
    lines = []
    for path, config in systems():
        for init in inits(config):
            trace = evolve_system(config, init)
            lines.append(json.dumps({
                "system": path,
                "init": init and {n: [str(a) for a in atoms] for n, atoms in init.items()},
                "rounds": [
                    {
                        "units": {n: sorted(map(str, rnd.units[n])) for n in config.agents},
                        "models": {n: sorted(rnd.models[n]) for n in config.agents},
                    }
                    for rnd in trace.rounds
                ],
                "fixpoint": trace.reached_fixpoint,
                "warnings": list(trace.warnings),
            }, separators=(",", ":")))
    return lines


def test_every_bundled_evolution_matches_its_pinned_line():
    assert evolution_lines() == PINNED.read_text(encoding="utf-8").splitlines()


def write_pinned() -> None:
    PINNED.parent.mkdir(parents=True, exist_ok=True)
    PINNED.write_text("".join(line + "\n" for line in evolution_lines()), encoding="utf-8")


if __name__ == "__main__":
    write_pinned()
