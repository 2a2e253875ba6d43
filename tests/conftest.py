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


@pytest.fixture
def fan_system(tmp_path) -> Path:
    """A hub whose `kick` pings ten consumers, each of which answers with
    `log_it`, an event no agent declares: 100 drops, each consumer's at
    the hub and the nine other consumers."""
    (tmp_path / "hub.dali").write_text(
        "agent Hub.\n@external kick.\n@action ping.\nkick :> ping.\n"
    )
    lines = ["agent hub.dali"]
    for i in range(10):
        (tmp_path / f"c{i}.dali").write_text(
            f"agent C{i}.\n@external ping.\n@action log_it.\nping :> log_it.\n"
        )
        lines.append(f"agent c{i}.dali")
    (tmp_path / "fan.system").write_text("\n".join(lines) + "\n")
    return tmp_path / "fan.system"


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
