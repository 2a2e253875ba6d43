"""Multi-agent orchestration.

Agents advance in a deterministic round-robin within discrete ticks.  An
action performed by one agent at tick t becomes an external event in
every *other* agent's inbox at tick t+1 (never its own), routed through
a channel mapping that defaults to the identity: the action atom's name
must be a declared external event of the consumer, otherwise the
delivery is dropped with a warning.

The same broadcast rule drives `evolve_system`, which iterates snapshot
models instead of the interpreter: each round rebuilds every agent's
transformed program from the previous round's derived events (actions
travel to the other agents, internal and past events stay home) until
the unit clauses stop changing.

System config files are plain text, one directive per line, paths
relative to the config file (`#` comments):

    agent <file.dali>
    script <file.events>
    map <producer>.<action> -> <consumer>.<event>
    max_ticks <N>
    budget <N>        # interpreter steps per agent per tick
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from .engine import Engine, StepRecord
from .errors import DaliConfigError, DaliSyntaxError, DaliValidationError, SourceSpan
from .model import PRESENT, AgentProgram, Atom, validate_program
from .parser import EventScript, load_agent_file, load_event_script, read_source
from .semantics import InitialSituation, least_model, transform_program

# `evolve_system` stops after this many rounds if no fixpoint is reached.
MAX_EVOLUTION_ROUNDS = 32


@dataclass(frozen=True, slots=True)
class ChannelMapping:
    """Routes (producer, action) to a per-consumer external event name.

    Unmapped pairs fall back to the identity: the event keeps the
    action's name.  When entries repeat a (producer, action, consumer)
    triple, the first one wins.
    """

    entries: tuple[tuple[str, str, str, str], ...] = ()  # producer, action, consumer, event
    _index: dict[tuple[str, str, str], str] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        index: dict[tuple[str, str, str], str] = {}
        for p, a, c, e in self.entries:
            index.setdefault((p, a, c), e)
        object.__setattr__(self, "_index", index)

    def resolve(self, producer: str, action: str, consumer: str) -> str:
        return self._index.get((producer, action, consumer), action)


@dataclass(slots=True)
class SystemConfig:
    agents: dict[str, AgentProgram]
    script: EventScript = field(default_factory=EventScript)
    mapping: ChannelMapping = field(default_factory=ChannelMapping)
    max_ticks: int = 100
    budget: int = 50

    def validate(self) -> None:
        for entry in self.script.entries:
            if entry.agent not in self.agents:
                raise DaliConfigError(f"script targets unknown agent '{entry.agent}'")
            program = self.agents[entry.agent]
            if entry.event.name not in program.external_names:
                raise DaliConfigError(
                    f"script event '{entry.event.name}' is not a declared "
                    f"external event of agent {entry.agent}"
                )
        for p, a, c, e in self.mapping.entries:
            if p not in self.agents:
                raise DaliConfigError(f"map source '{p}' is not a known agent")
            if c not in self.agents:
                raise DaliConfigError(f"map target '{c}' is not a known agent")
            if a not in self.agents[p].action_names:
                raise DaliConfigError(f"'{a}' is not a declared action of agent {p}")
            if e not in self.agents[c].external_names:
                raise DaliConfigError(
                    f"'{e}' is not a declared external event of agent {c}"
                )


_MAP_RE = re.compile(r"(\w+)\.(\w+)\s*->\s*(\w+)\.(\w+)\Z")


def _int_directive(key: str, text: str, minimum: int, span: SourceSpan) -> int:
    try:
        value = int(text)
    except ValueError:
        raise DaliSyntaxError(f"{key} must be an integer, got {text!r}", span) from None
    if value < minimum:
        raise DaliSyntaxError(f"{key} must be >= {minimum}, got {value}", span)
    return value


def load_system_config(path) -> SystemConfig:
    """Parse and validate a system config file and everything it names."""
    path = Path(path)
    base = path.parent
    agents: dict[str, AgentProgram] = {}
    script = EventScript()
    mappings: list[tuple[str, str, str, str]] = []
    max_ticks = 100
    budget = 50

    for lineno, raw in enumerate(read_source(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        span = SourceSpan(str(path), lineno, 1)
        key, _, rest = line.partition(" ")
        rest = rest.strip()
        if key in ("agent", "script") and not rest:
            raise DaliSyntaxError(f"{key} directive needs a file name", span)
        if key == "agent":
            program = load_agent_file(base / rest)
            report = validate_program(program)
            if not report.ok:
                raise DaliValidationError(program.name, report, base / rest)
            if program.name in agents:
                raise DaliSyntaxError(f"duplicate agent name '{program.name}'", span)
            agents[program.name] = program
        elif key == "script":
            script = load_event_script(base / rest)
        elif key == "map":
            m = _MAP_RE.match(rest)
            if m is None:
                raise DaliSyntaxError(
                    "expected 'map producer.action -> consumer.event'", span
                )
            mappings.append(m.groups())
        elif key == "max_ticks":
            max_ticks = _int_directive(key, rest, 0, span)
        elif key == "budget":
            budget = _int_directive(key, rest, 1, span)
        else:
            raise DaliSyntaxError(f"unknown config directive {key!r}", span)

    config = SystemConfig(
        agents,
        script,
        ChannelMapping(tuple(mappings)),
        max_ticks=max_ticks,
        budget=budget,
    )
    config.validate()
    return config


class _Broadcast:
    """The broadcast rule of the tick runtime and of `evolve_system`.

    An action performed (or derived) by a producer reaches a consumer
    as the event the channel mapping names, when the consumer declares
    that event as external; otherwise the delivery is dropped, with one
    warning per (producer, action, consumer).
    """

    def __init__(self, config: SystemConfig, kind: str):
        self.mapping = config.mapping
        self.externals = {n: p.external_names for n, p in config.agents.items()}
        self.kind = kind  # how warnings name the action
        self.warnings: dict[tuple[str, str, str], str] = {}  # in first-drop order

    def target(self, producer: str, action: str, consumer: str) -> str | None:
        """The event `consumer` receives, or None if it is dropped."""
        event = self.mapping.resolve(producer, action, consumer)
        if event in self.externals[consumer]:
            return event
        key = (producer, action, consumer)
        if key not in self.warnings:
            self.warnings[key] = (
                f"{self.kind} '{action}' by {producer} has no external "
                f"event at {consumer}; dropped"
            )
        return None


@dataclass(frozen=True, slots=True)
class SystemResult:
    quiescent: bool
    ticks: int
    trace: tuple[tuple[str, StepRecord], ...]
    warnings: tuple[str, ...]


class SystemRunner:
    """Shared tick loop for `run` and the step-granular REPL."""

    def __init__(self, config: SystemConfig):
        self.config = config
        self.tick = 0
        self.trace: list[tuple[str, StepRecord]] = []
        self._broadcast = _Broadcast(config, "action")
        self._deliveries: dict[int, list[tuple[str, Atom]]] = {}
        self._actions: list[tuple[str, Atom]] = []  # performed since last drain
        self.engines: dict[str, Engine] = {}
        for name, program in config.agents.items():
            self.engines[name] = Engine(
                program,
                on_action=lambda atom, step, producer=name: self._actions.append(
                    (producer, atom)
                ),
            )
        self._micro_order: list[str] = list(self.engines)
        self._micro_idx = 0

    # -- broadcast ---------------------------------------------------------

    def _route(self, producer: str, atom: Atom, due_tick: int, immediate: bool):
        for consumer in self.config.agents:
            if consumer == producer:
                continue
            target = self._broadcast.target(producer, atom.name, consumer)
            if target is None:
                continue
            if immediate:
                self.engines[consumer].inject(Atom(target))
            else:
                self._deliveries.setdefault(due_tick, []).append(
                    (consumer, Atom(target))
                )

    def _drain_actions(self, immediate: bool = False):
        actions, self._actions = self._actions, []
        for producer, atom in actions:
            self._route(producer, atom, self.tick + 1, immediate)

    # -- tick loop -----------------------------------------------------------

    def _inject_due(self):
        for entry in self.config.script.due(self.tick):
            self.engines[entry.agent].inject(entry.event)
        for consumer, atom in self._deliveries.pop(self.tick, ()):
            self.engines[consumer].inject(atom)

    def run_tick(self) -> None:
        """Inject everything due, give each agent its step budget, then
        queue this tick's actions for delivery at the next tick."""
        self._inject_due()
        for name, engine in self.engines.items():
            for rec in engine.run(self.config.budget):
                self.trace.append((name, rec))
        self._drain_actions(immediate=False)
        self.tick += 1

    def run(self) -> SystemResult:
        """Run ticks until the system is quiescent (every engine idle, no
        delivery or script entry to come) or `max_ticks` is reached."""
        limit = self.config.max_ticks
        while True:
            upcoming = self.config.script.after(self.tick - 1)
            idle = not self._deliveries and all(
                e.quiescent for e in self.engines.values()
            )
            quiescent = idle and not upcoming and not self._actions
            if quiescent or self.tick >= limit:
                break
            if idle and upcoming and upcoming[0].tick > self.tick:
                if upcoming[0].tick >= limit:
                    break  # unreachable within the tick budget
                self.tick = upcoming[0].tick  # fast-forward idle ticks
            self.run_tick()
        return SystemResult(
            quiescent,
            self.tick,
            tuple(self.trace),
            tuple(self._broadcast.warnings.values()),
        )

    # -- step-granular interface (REPL) ------------------------------------

    def inject(self, agent: str, event: str | Atom) -> None:
        if agent not in self.engines:
            raise DaliConfigError(f"unknown agent '{agent}'")
        self.engines[agent].inject(event)

    def micro_step(self) -> tuple[str, StepRecord] | None:
        """Advance one interpreter step of the next non-quiescent agent,
        delivering any performed action to the other agents immediately."""
        n = len(self._micro_order)
        for i in range(n):
            name = self._micro_order[(self._micro_idx + i) % n]
            rec = self.engines[name].step()
            if rec is not None:
                self._micro_idx = (self._micro_idx + i + 1) % n
                self.trace.append((name, rec))
                self._drain_actions(immediate=True)
                return name, rec
        return None


def run_system(config: SystemConfig) -> SystemResult:
    return SystemRunner(config).run()


# -- evolution over snapshot models ------------------------------------------


@dataclass(frozen=True, slots=True)
class EvolutionRound:
    units: dict[str, frozenset[Atom]]
    models: dict[str, frozenset[str]]


@dataclass(frozen=True, slots=True)
class EvolutionTrace:
    rounds: tuple[EvolutionRound, ...]
    reached_fixpoint: bool
    warnings: tuple[str, ...] = ()


def _sorted_units(units: frozenset[Atom]) -> tuple[Atom, ...]:
    return tuple(sorted(units, key=lambda a: (a.marker, a.name)))


def evolve_system(
    config: SystemConfig,
    init: dict[str, Iterable[Atom]] | None = None,
) -> EvolutionTrace:
    """Iterate per-agent snapshot models until the derived events settle.

    Each round: rebuild every transformed program from the current unit
    clauses, take least models, then extract events for the next round:
    an agent's derived actions become external-event units of every other
    agent (via the channel mapping), its internal events and past events
    become its own units.  Past units accumulate; external units are
    replaced each round.
    """
    init = init or {}
    agents = config.agents
    units: dict[str, frozenset[Atom]] = {
        name: frozenset(
            a.base if a.marker == PRESENT else a for a in init.get(name, ())
        )
        for name in agents
    }
    rounds: list[EvolutionRound] = []
    broadcast = _Broadcast(config, "derived action")
    reached_fixpoint = False

    for _ in range(MAX_EVOLUTION_ROUNDS):
        models: dict[str, frozenset[str]] = {}
        for name, program in agents.items():
            tp = transform_program(program, InitialSituation(_sorted_units(units[name])))
            models[name] = least_model(tp)
        rounds.append(EvolutionRound(dict(units), models))

        next_units: dict[str, frozenset[Atom]] = {}
        for name, program in agents.items():
            mine = models[name]
            nxt: set[Atom] = set()
            for a in program.internals:
                if a.name in mine:
                    nxt.add(Atom(a.name))
            event_names = program.event_names
            for m in mine:
                if m.startswith("past_") and m[len("past_") :] in event_names:
                    nxt.add(Atom.past(m[len("past_") :]))
            for producer, pprog in agents.items():
                if producer == name:
                    continue
                for act in pprog.actions:
                    if act.name not in models[producer]:
                        continue
                    target = broadcast.target(producer, act.name, name)
                    if target is not None:
                        nxt.add(Atom(target))
            next_units[name] = frozenset(nxt)

        if next_units == units:
            reached_fixpoint = True
            break
        units = next_units

    return EvolutionTrace(
        tuple(rounds), reached_fixpoint, tuple(broadcast.warnings.values())
    )


__all__ = [
    "ChannelMapping",
    "EvolutionRound",
    "EvolutionTrace",
    "SystemConfig",
    "SystemResult",
    "SystemRunner",
    "evolve_system",
    "load_system_config",
    "run_system",
]
