from pathlib import Path

import pytest

from dali import load_agent_file, runtime

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


@pytest.fixture(scope="session")
def scenario_dir() -> Path:
    return SCENARIOS


@pytest.fixture(scope="session")
def scenario():
    def load(name: str):
        return load_agent_file(SCENARIOS / f"{name}.dali")

    return load


@pytest.fixture(scope="session")
def fan_system() -> Path:
    """tests/data/cli/fan/: a hub whose `kick` pings ten consumers, each
    of which answers with `log_it`, an event no agent declares: 100
    drops, each consumer's at the hub and the nine other consumers.  Its
    script kicks the hub at tick 0.  A `poke` makes the hub `shout`,
    which no agent declares either: ten more drops, one per consumer."""
    return Path(__file__).resolve().parent / "data" / "cli" / "fan" / "fan.system"


@pytest.fixture
def formatted_warnings(monkeypatch) -> list[str]:
    """Every drop warning a broadcast formats while the test runs, in the
    order it is formatted."""
    formatted = []

    class Tail(str):
        """A warning's ending, `agent; dropped`.  A warning is its
        prefix plus a Tail, and `str + Tail` calls `Tail.__radd__`, so
        this sees every warning the broadcast formats."""

        def __radd__(self, prefix):
            formatted.append(prefix + str(self))
            return formatted[-1]

    init = runtime._Broadcast.__init__

    def spied_init(self, *args):
        init(self, *args)
        self._tails = [(c, Tail(tail)) for c, tail in self._tails]

    monkeypatch.setattr(runtime._Broadcast, "__init__", spied_init)
    return formatted
