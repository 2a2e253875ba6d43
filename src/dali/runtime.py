"""Multi-agent orchestration.

Agents advance in a deterministic round-robin within discrete ticks.
Only awake agents are stepped: a tick skips every agent whose engine is
quiescent, an O(1) test, so an idle agent costs a tick one check.  An
action performed by one agent at tick t becomes an external event in
every *other* agent's inbox at tick t+1 (never its own), routed through
a channel mapping that defaults to the identity: the action atom's name
must be a declared external event of the consumer, otherwise the
delivery is dropped with a warning.  Actions are routed from the step
records, whose `performed` names each one; an engine has no other
output.  Each (producer, action) pair is routed once, on first use,
from the agents that declare each external event and the mapping's
entries for the pair; after that, a delivery visits only the consumers
that receive it.  `run()` formats no drop warning: its `SystemResult`
formats them the first time its `warnings` is read, as `EvolutionTrace`
does, and they are fixed when the run ends.  The CLI writes each batch
of them to stderr in one call.  `load_system_config` validates each
agent program, and `Engine` reuses the report kept on it.  A
`SystemConfig` checks its script and map entries when it is built,
loaded or not, so neither the runner nor the broadcast checks them again.

The same broadcast rule drives `evolve_system`, which iterates snapshot
models instead of the interpreter.  One pass over the agents checks
their initial situations and builds one record per agent.  Agents that
differ only in name share one record of their rules and model memo, so
each distinct program up to its name is transformed and compiled once;
each agent keeps its own name and action order.  Each round is one pass
over the records: it feeds an agent's rules the unit clauses of the
previous round's derived events (actions travel to the other agents,
internal and past events stay home), collects its own units and routes
its derived actions, until the unit clauses stop changing.  An agent's
rules are closed again only for units they have not closed before, in
any round or for any agent that shares them.

System config files are plain text, one directive per line, blanks
between a directive and its argument, paths relative to the config file
(`#` comments):

    agent <file.dali>
    script <file.events>
    map <producer>.<action> -> <consumer>.<event>
    max_ticks <N>
    budget <N>        # interpreter steps per agent per tick

`script`, `max_ticks` and `budget` may each appear once, and a missing
one keeps `SystemConfig`'s default.  An error is reported at its config
line, and an error in a script entry at its line of the events file.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import field
from itertools import islice, zip_longest
from pathlib import Path
from typing import Iterable

from .engine import Engine, StepRecord
from .errors import (
    DaliConfigError, DaliError, DaliSyntaxError, DaliValidationError, SourceSpan, frozen
)
from .model import MARKER_PREFIX, PAST, AgentProgram, Atom, validate_program
from .parser import (
    EventScript, content_lines, load_agent_file, load_event_script, parse_int, read_source
)
# `evolve_system` closes compiled `HornRules` and so never calls
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


@frozen
class ChannelMapping:
    """The `map` entries of a system config, each a (producer, action,
    consumer, event) quadruple, in config order.  `spans` holds each
    entry's config line when the mapping was loaded from a file.  The
    broadcast that routes a system's actions builds its index from the
    entries (see `_Broadcast`).
    """

    entries: tuple[tuple[str, str, str, str], ...] = ()  # producer, action, consumer, event
    spans: tuple[SourceSpan, ...] = field(default=(), compare=False, repr=False)


@frozen
class SystemConfig:
    """The agents of a system, in order, with its script, its channel
    mapping and its tick and step limits.  A config is checked when it
    is built, whether loaded or built in code: a script entry or map
    entry that names an unknown agent or an undeclared event raises
    `DaliConfigError`, at the line it was loaded from, if it was."""

    agents: dict[str, AgentProgram]
    script: EventScript = field(default_factory=EventScript)
    mapping: ChannelMapping = field(default_factory=ChannelMapping)
    max_ticks: int = 100
    budget: int = 50

    def __post_init__(self):
        for entry in self.script.entries:
            if entry.agent not in self.agents:
                raise DaliConfigError(
                    f"script targets unknown agent '{entry.agent}'", entry.span
                )
            if entry.event.name not in self.agents[entry.agent].external_names:
                raise DaliConfigError(
                    f"script event '{entry.event.name}' is not a declared "
                    f"external event of agent {entry.agent}", entry.span
                )
        for (p, a, c, e), span in zip_longest(self.mapping.entries, self.mapping.spans):
            if p not in self.agents:
                raise DaliConfigError(f"map source '{p}' is not a known agent", span)
            if c not in self.agents:
                raise DaliConfigError(f"map target '{c}' is not a known agent", span)
            if c == p:
                raise DaliConfigError(
                    f"map target '{c}' is the producer of '{a}'; "
                    f"an agent never receives its own actions", span
                )
            if a not in self.agents[p].action_names:
                raise DaliConfigError(
                    f"'{a}' is not a declared action of agent {p}", span
                )
            if e not in self.agents[c].external_names:
                raise DaliConfigError(
                    f"'{e}' is not a declared external event of agent {c}", span
                )


_MAP_RE = re.compile(r"(\w+)\.(\w+)\s*->\s*(\w+)\.(\w+)\Z")


def _load_named(load, path: Path, span: SourceSpan):
    """`load(path)`, where a file that cannot be read is an error at
    `span`, the config line naming it; a syntax error keeps its own."""
    try:
        return load(path)
    except DaliSyntaxError:
        raise
    except DaliError as exc:  # from `read_source`
        raise DaliSyntaxError(str(exc), span) from None


def load_system_config(path) -> SystemConfig:
    """Parse and check a system config file and everything it names."""
    path = Path(path)
    base = path.parent
    agents: dict[str, AgentProgram] = {}
    mappings: list[tuple[str, str, str, str]] = []
    map_spans: list[SourceSpan] = []
    settings: dict[str, object] = {}  # the script, max_ticks and budget the file sets

    for span, line in content_lines(read_source(path), str(path)):
        key, *rest = line.split(maxsplit=1)
        rest = "".join(rest)
        if key in settings:
            raise DaliSyntaxError(f"duplicate {key} directive", span)
        if key in ("agent", "script") and not rest:
            raise DaliSyntaxError(f"{key} directive needs a file name", span)
        if key == "agent":
            program = _load_named(load_agent_file, base / rest, span)
            report = validate_program(program)
            if not report.ok:
                raise DaliValidationError(program.name, report, base / rest)
            if program.name in agents:
                raise DaliSyntaxError(f"duplicate agent name '{program.name}'", span)
            agents[program.name] = program
        elif key == "script":
            settings[key] = _load_named(load_event_script, base / rest, span)
        elif key == "map":
            m = _MAP_RE.match(rest)
            if m is None:
                raise DaliSyntaxError(
                    "expected 'map producer.action -> consumer.event'", span
                )
            mappings.append(m.groups())
            map_spans.append(span)
        elif key == "max_ticks":
            settings[key] = parse_int(rest, key, 0, span)
        elif key == "budget":
            settings[key] = parse_int(rest, key, 1, span)
        else:
            raise DaliSyntaxError(f"unknown config directive {key!r}", span)

    mapping = ChannelMapping(tuple(mappings), tuple(map_spans))
    return SystemConfig(agents, mapping=mapping, **settings)


class _Broadcast:
    """The broadcast rule of the tick runtime and of `evolve_system`: the
    one owner of routing and of drop warnings.

    An action performed (or derived) by a producer reaches every other
    agent that declares, as external, the event the channel mapping
    names for it: that of the first entry for the (producer, action,
    consumer) triple, else the action's own name.  Every other agent
    drops it, with one warning per (producer, action, consumer).  The
    broadcast indexes the mapping's entries once and builds the route of
    a (producer, action) on its first use, from that index and the
    agents that declare each external event, so routing visits only the
    agents that receive.  The routes, in first-use order, the agent
    order and the kind are all the warnings are formatted from;
    `warnings()` formats them only when read, and two broadcasts compare
    equal when that data is equal, formatted or not.  `dropped` counts
    the drops of the routes built so far without formatting them.
    """

    def __init__(self, config: SystemConfig, kind: str):
        self.kind = kind  # how warnings name the action
        self._order = {name: i for i, name in enumerate(config.agents)}
        self._subscribers: dict[str, list[str]] = {}  # event -> agents, in order
        for name, program in config.agents.items():
            for e in program.externals:
                self._subscribers.setdefault(e.name, []).append(name)
        # (producer, action) -> consumer -> event; the first entry wins
        self._mapped: dict[tuple[str, str], dict[str, str]] = {}
        for p, a, c, e in config.mapping.entries:
            self._mapped.setdefault((p, a), {}).setdefault(c, e)
        # (producer, action) -> (consumer, event) pairs, in first-use order
        self.routes: dict[tuple[str, str], tuple[tuple[str, Atom], ...]] = {}
        self.log: tuple[str, ...] = ()  # the drop warnings; it only grows at its end
        self._logged = 0  # the routes whose warnings are in the log
        self.dropped = 0  # the drops of the routes built so far
        self._tails = [(c, f"{c}; dropped") for c in config.agents]

    def __eq__(self, other):
        if not isinstance(other, _Broadcast):
            return NotImplemented
        return (self.kind == other.kind
                and list(self._order) == list(other._order)
                and list(self.routes.items()) == list(other.routes.items()))

    __hash__ = None  # routes grow

    def route(self, producer: str, action: str) -> tuple[tuple[str, Atom], ...]:
        """The (consumer, event) deliveries of an action, in agent order."""
        key = (producer, action)
        route = self.routes.get(key)
        if route is None:
            mapped = self._mapped.get(key, {})
            hits = {
                c: action for c in self._subscribers.get(action, ()) if c not in mapped
            }
            hits.update(mapped)
            hits.pop(producer, None)
            # Each event is a declared external of its consumer: the
            # config checked every mapped one when it was built.
            route = self.routes[key] = tuple(
                (c, Atom._unchecked(hits[c]))
                for c in sorted(hits, key=self._order.__getitem__)
            )
            self.dropped += len(self._order) - 1 - len(route)  # all but p and the route
        return route

    def warnings(self) -> tuple[str, ...]:
        """One warning per dropped delivery of the pairs routed so far:
        `log`, after appending the warnings of the pairs routed since it
        last grew, each formatted once, pair by pair in first-routed
        order and each pair's consumers in agent order.  A newly routed
        pair only appends to the log, and with none the same tuple comes
        back."""
        if self._logged < len(self.routes):
            self.log += tuple(
                prefix + tail
                for (p, a), route in islice(self.routes.items(), self._logged, None)
                for prefix, skip in [(
                    f"{self.kind} '{a}' by {p} has no external event at ",
                    {c for c, _ in route} | {p},
                )]
                for c, tail in self._tails
                if c not in skip
            )
            self._logged = len(self.routes)
        return self.log


@frozen
class SystemResult:
    """The end of `SystemRunner.run`: whether the system went quiescent,
    the tick it stopped at, the trace, and the drop warnings of the run.

    `run()` formats no warning.  `drops` is the runner's broadcast and
    `dropped` the number of drops when the run ended; as with
    `EvolutionTrace`, the broadcast formats the warnings the first time
    `warnings` is read.  They are fixed when the run ends: if the runner
    is stepped afterwards, `warnings` keeps the first `dropped` of the
    broadcast's log.  Results compare equal when their quiescence,
    ticks, trace and warnings are; `repr` leaves the broadcast out.
    """

    quiescent: bool
    ticks: int
    trace: tuple[tuple[str, StepRecord], ...]
    drops: _Broadcast = field(repr=False, compare=False)
    dropped: int = field(repr=False, compare=False)

    @property
    def warnings(self) -> tuple[str, ...]:
        log = self.drops.warnings()
        return log if len(log) == self.dropped else log[:self.dropped]

    def __eq__(self, other):
        if not isinstance(other, SystemResult):
            return NotImplemented
        return ((self.quiescent, self.ticks, self.trace)
                == (other.quiescent, other.ticks, other.trace)
                and self.warnings == other.warnings)


class SystemRunner:
    """Shared tick loop for `run` and the step-granular REPL, stepping
    only awake agents.  The script's entries wait in a queue, in tick
    order, and each tick takes those due off its front.  The routes of a
    tick's actions wait in the outbox for the next tick; `step_agent`
    delivers them at once."""

    def __init__(self, config: SystemConfig):
        self.config = config
        self.tick = 0
        self._script = deque(config.script.entries)  # the entries not yet injected
        self.trace: list[tuple[str, StepRecord]] = []
        self._broadcast = _Broadcast(config, "action")
        self._outbox: list[tuple[str, Atom]] = []  # (consumer, event) due next tick
        self.engines = {name: Engine(program) for name, program in config.agents.items()}
        self._micro_order: list[str] = list(self.engines)
        self._micro_idx = 0

    # -- tick loop -----------------------------------------------------------

    def run_tick(self) -> None:
        """Inject the script's due entries, then the previous tick's
        deliveries; give each awake (not quiescent) agent its step
        budget, queueing the routes of the actions it performs for the
        next tick."""
        engines, script = self.engines, self._script
        while script and script[0].tick <= self.tick:
            entry = script.popleft()
            engines[entry.agent].inject(entry.event)
        deliveries, self._outbox = self._outbox, []
        for consumer, event in deliveries:
            engines[consumer].inject(event)
        route, outbox, trace = self._broadcast.route, self._outbox, self.trace
        for name, engine in engines.items():
            if engine.quiescent:
                continue
            for rec in engine.run(self.config.budget):
                trace.append((name, rec))
                if rec.performed is not None:
                    outbox.extend(route(name, rec.performed))
        self.tick += 1

    def run(self) -> SystemResult:
        """Run ticks until the system is quiescent (every engine idle, no
        delivery or script entry to come) or `max_ticks` is reached."""
        limit = self.config.max_ticks
        while True:
            upcoming = self._script[0].tick if self._script else None
            idle = not self._outbox and all(e.quiescent for e in self.engines.values())
            quiescent = idle and upcoming is None
            if quiescent or self.tick >= limit:
                break
            if idle and upcoming is not None and upcoming > self.tick:
                if upcoming >= limit:
                    break  # unreachable within the tick budget
                self.tick = upcoming  # fast-forward idle ticks
            self.run_tick()
        broadcast = self._broadcast
        return SystemResult(
            quiescent, self.tick, tuple(self.trace), broadcast, broadcast.dropped
        )

    def warnings(self) -> tuple[str, ...]:
        """One warning per dropped delivery of the actions routed so far,
        formatted by the broadcast.  A newly routed action only appends
        to them, so a reader that printed the first n prints the rest
        from n on."""
        return self._broadcast.warnings()

    # -- step-granular interface (REPL) ------------------------------------

    def inject(self, agent: str, event: str | Atom) -> None:
        if agent not in self.engines:
            raise DaliConfigError(f"unknown agent '{agent}'")
        self.engines[agent].inject(event)

    def step_agent(self, name: str) -> StepRecord | None:
        """One interpreter step of agent `name`, appended to the trace; an
        action it performs reaches the other agents at once."""
        rec = self.engines[name].step()
        if rec is not None:
            self.trace.append((name, rec))
            if rec.performed is not None:
                for consumer, event in self._broadcast.route(name, rec.performed):
                    self.engines[consumer].inject(event)
        return rec

    def micro_step(self) -> tuple[str, StepRecord] | None:
        """`step_agent` on the next non-quiescent agent, round-robin."""
        n = len(self._micro_order)
        for i in range(n):
            name = self._micro_order[(self._micro_idx + i) % n]
            rec = self.step_agent(name)
            if rec is not None:
                self._micro_idx = (self._micro_idx + i + 1) % n
                return name, rec
        return None


# -- evolution over snapshot models ------------------------------------------


@frozen
class EvolutionRound:
    units: dict[str, frozenset[Atom]]
    models: dict[str, frozenset[str]]


@frozen
class EvolutionTrace:
    """The rounds of `evolve_system` and whether they reached a fixpoint.

    `drops` is the evolution's broadcast: its routes, in first-use
    order, with the agent order and the warning kind.  The drop
    warnings are formatted from it the first time `warnings` is read,
    and later reads return the same tuple.  Traces compare `drops` by
    that data, so two traces whose warnings differ compare unequal
    whether or not either was read; `repr` leaves it out.
    """

    rounds: tuple[EvolutionRound, ...]
    reached_fixpoint: bool
    drops: _Broadcast = field(repr=False)

    @property
    def warnings(self) -> tuple[str, ...]:
        return self.drops.warnings()


def _shared_record(program: AgentProgram) -> tuple:
    """What the agents equal to `program` up to their names share in an
    evolution: the closure of its P' rules, a memo from a round's units
    to the model, its external names, and the (model atom, unit) pairs
    of its own units for the next round."""
    past = MARKER_PREFIX[PAST]
    own = [(a.name, a) for a in program.internals]
    own += [(past + e, Atom._unchecked(e, PAST)) for e in program.event_names]
    closure = HornRules(transform_program(program).clauses).closure
    return closure, {}, program.external_names, own


def evolve_system(
    config: SystemConfig,
    init: dict[str, Iterable[Atom]] | None = None,
) -> EvolutionTrace:
    """Iterate per-agent snapshot models until the derived events settle.

    One setup pass builds a record per agent: its name, its action names
    in its own declaration order, and a record shared with every agent
    whose program is equal up to its name (same clauses, same external,
    internal and action name sets), which is transformed and compiled
    once and keeps the models of its rules by units.  Each round is
    then one pass over the records.  It takes an agent's least model of
    its rules plus the current unit clauses, closing the rules only for
    units its shared record has not seen in this call, and extracts that
    agent's events for the next round: its derived actions become
    external-event units of every other agent (via the channel mapping),
    its internal events and past events its own units.  Past units
    accumulate; external units are replaced each round.  The trace keeps
    the drops as the routes the broadcast built, and formats their
    warnings the first time `warnings` is read, in first-routed order:
    round by round, producers in agent order, each one's actions in its
    declaration order.  Only `init` is validated, once per agent it
    names, since the units derived from it are declared events by
    construction; a key of `init` that names no agent is a
    `DaliConfigError`.
    """
    init = init or {}
    agents = config.agents
    for name in init:
        if name not in agents:
            raise DaliConfigError(f"init names unknown agent '{name}'")
    units: dict[str, frozenset[Atom]] = {}
    shared_records: dict[tuple, tuple] = {}
    records = []
    for name, program in agents.items():
        events = init.get(name, ())  # built and checked only when given
        units[name] = frozenset(events and InitialSituation(events).validated(program).events)
        key = (
            program.external_names, program.internal_names, program.action_names, program.clauses
        )
        shared = shared_records.get(key)
        if shared is None:
            shared = shared_records[key] = _shared_record(program)
        records.append((name, tuple([a.name for a in program.actions]), *shared))
    rounds: list[EvolutionRound] = []
    broadcast = _Broadcast(config, "derived action")
    route = broadcast.route
    reached_fixpoint = False

    for _ in range(MAX_EVOLUTION_ROUNDS):
        models = {}
        nxt: dict[str, set[Atom]] = {name: set() for name in agents}
        for name, actions, closure, memo, externals, own_units in records:
            # A frozenset caches its hash, so a memo hit reads no unit.
            mine = units[name]
            model = memo.get(mine)
            if model is None:
                model = memo[mine] = closure(unit_names(mine, externals))
            models[name] = model
            own = nxt[name]
            for key, atom in own_units:
                if key in model:
                    own.add(atom)
            for act in actions:
                if act in model:
                    for consumer, atom in route(name, act):
                        nxt[consumer].add(atom)
        rounds.append(EvolutionRound(units, models))
        next_units = {name: frozenset(atoms) for name, atoms in nxt.items()}

        if next_units == units:
            reached_fixpoint = True
            break
        units = next_units

    return EvolutionTrace(tuple(rounds), reached_fixpoint, broadcast)


__all__ = [
    "ChannelMapping",
    "EvolutionRound",
    "EvolutionTrace",
    "SystemConfig",
    "SystemResult",
    "SystemRunner",
    "evolve_system",
    "load_system_config",
]
