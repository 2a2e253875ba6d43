"""Multi-agent orchestration.

Agents advance in a deterministic round-robin within discrete ticks.  An
action performed by one agent at tick t becomes an external event in
every *other* agent's inbox at tick t+1 (never its own), routed through
a channel mapping that defaults to the identity: the action atom's name
must be a declared external event of the consumer, otherwise the
delivery is dropped with a warning.  Each (producer, action) pair is
routed once, on first use, from the agents that declare each external
event and the mapping's entries for the pair; after that, a delivery
visits only the consumers that receive it.  `load_system_config`
validates each agent program, and `Engine` reuses the report kept on it.

The same broadcast rule drives `evolve_system`, which iterates snapshot
models instead of the interpreter.  It compiles each agent's P' rules
once; each round feeds them the unit clauses of the previous round's
derived events (actions travel to the other agents, internal and past
events stay home) until the unit clauses stop changing.

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
from .model import AgentProgram, Atom, validate_program
from .parser import EventScript, load_agent_file, load_event_script, read_source
# `evolve_system` compiles each agent's rules once and so never calls
# `least_model`; the name stays here because bench/tracing.py wraps it.
from .semantics import (  # noqa: F401
    HornRules,
    InitialSituation,
    least_model,
    transform_program,
    unit_names,
)

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
    _index: dict[tuple[str, str], dict[str, str]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        index: dict[tuple[str, str], dict[str, str]] = {}
        for p, a, c, e in self.entries:
            index.setdefault((p, a), {}).setdefault(c, e)
        object.__setattr__(self, "_index", index)

    def targets(self, producer: str, action: str) -> dict[str, str]:
        """Consumer -> event for every entry of (producer, action)."""
        return self._index.get((producer, action), {})

    def resolve(self, producer: str, action: str, consumer: str) -> str:
        return self.targets(producer, action).get(consumer, action)


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
            if c == p:
                raise DaliConfigError(
                    f"map target '{c}' is the producer of '{a}'; "
                    f"an agent never receives its own actions"
                )
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

    An action performed (or derived) by a producer reaches every other
    agent that declares, as external, the event the channel mapping
    names for it; every other agent drops it, with one warning per
    (producer, action, consumer).  The route of a (producer, action) is
    built on its first use from the agents that declare each external
    event and the mapping's entries for the pair, so routing visits
    only the agents that receive.
    """

    def __init__(self, config: SystemConfig, kind: str):
        self.agents = config.agents
        self.mapping = config.mapping
        self.kind = kind  # how warnings name the action
        self._order = {name: i for i, name in enumerate(config.agents)}
        self._subscribers: dict[str, list[str]] = {}  # event -> agents, in order
        for name, program in config.agents.items():
            for e in program.externals:
                self._subscribers.setdefault(e.name, []).append(name)
        # (producer, action) -> (consumer, event) pairs, in first-use order
        self.routes: dict[tuple[str, str], tuple[tuple[str, Atom], ...]] = {}

    def route(self, producer: str, action: str) -> tuple[tuple[str, Atom], ...]:
        """The (consumer, event) deliveries of an action, in agent order."""
        key = (producer, action)
        route = self.routes.get(key)
        if route is None:
            mapped = self.mapping.targets(producer, action)
            hits = {
                c: action for c in self._subscribers.get(action, ()) if c not in mapped
            }
            for c, e in mapped.items():
                if e in self.agents[c].external_names:
                    hits[c] = e
            hits.pop(producer, None)
            route = self.routes[key] = tuple(
                (c, Atom(hits[c])) for c in sorted(hits, key=self._order.__getitem__)
            )
        return route

    def warnings(self, groups: Iterable[Iterable[tuple[str, str]]]) -> tuple[str, ...]:
        """One warning per dropped delivery of the routed (producer,
        action) pairs, group by group; within a group, consumer-major.
        Each warning joins its pair's prefix to its consumer's tail."""
        tails = {c: f"{c}; dropped" for c in self.agents}
        out: list[str] = []
        append = out.append
        for pairs in groups:
            drops = [
                (
                    f"{self.kind} '{a}' by {p} has no external event at ",
                    {c for c, _ in self.routes[p, a]} | {p},
                )
                for p, a in pairs
            ]
            for c, tail in tails.items():
                for prefix, skip in drops:
                    if c not in skip:
                        append(prefix + tail)
        return tuple(out)


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
        route = self._broadcast.route(producer, atom.name)
        if immediate:
            for consumer, event in route:
                self.engines[consumer].inject(event)
        elif route:
            self._deliveries.setdefault(due_tick, []).extend(route)

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
            self._broadcast.warnings([pair] for pair in self._broadcast.routes),
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


def evolve_system(
    config: SystemConfig,
    init: dict[str, Iterable[Atom]] | None = None,
) -> EvolutionTrace:
    """Iterate per-agent snapshot models until the derived events settle.

    Each agent's P' rules are compiled once; each round takes every
    agent's least model of those rules plus the current unit clauses,
    then extracts events for the next round: an agent's derived actions
    become external-event units of every other agent (via the channel
    mapping), its internal events and past events become its own units.
    Past units accumulate; external units are replaced each round.  Only
    `init` is validated: the units derived from it are declared events
    by construction.
    """
    init = init or {}
    agents = config.agents
    units: dict[str, frozenset[Atom]] = {
        name: frozenset(InitialSituation(init.get(name, ())).validated(program).events)
        for name, program in agents.items()
    }
    rules = {name: HornRules(transform_program(program)) for name, program in agents.items()}
    # The model atoms that become an agent's own units next round.
    own_units = {
        name: tuple((a.name, Atom(a.name)) for a in program.internals)
        + tuple((f"past_{e}", Atom.past(e)) for e in program.event_names)
        for name, program in agents.items()
    }
    rounds: list[EvolutionRound] = []
    broadcast = _Broadcast(config, "derived action")
    routed: list[int] = []  # len(broadcast.routes) after each round
    reached_fixpoint = False

    for _ in range(MAX_EVOLUTION_ROUNDS):
        models = {
            name: rules[name].closure(unit_names(units[name], program.external_names))
            for name, program in agents.items()
        }
        rounds.append(EvolutionRound(dict(units), models))

        nxt: dict[str, set[Atom]] = {name: set() for name in agents}
        for name, program in agents.items():
            mine = models[name]
            own = nxt[name]
            for key, atom in own_units[name]:
                if key in mine:
                    own.add(atom)
            for act in program.actions:
                if act.name in mine:
                    for consumer, atom in broadcast.route(name, act.name):
                        nxt[consumer].add(atom)
        routed.append(len(broadcast.routes))
        next_units = {name: frozenset(atoms) for name, atoms in nxt.items()}

        if next_units == units:
            reached_fixpoint = True
            break
        units = next_units

    # The pairs first routed in a round drop consumer-major, as if each
    # consumer in turn gathered the other agents' derived actions.
    pairs = list(broadcast.routes)
    groups = (pairs[i:j] for i, j in zip([0, *routed], routed))
    return EvolutionTrace(tuple(rounds), reached_fixpoint, broadcast.warnings(groups))


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
