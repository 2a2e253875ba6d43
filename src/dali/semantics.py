"""Snapshot semantics: compile an agent into a plain Horn program.

Reactive and action rules are not ordinary implications, so the agent's
declarative meaning is given through a transformed program P' over an
extended alphabet {base atoms} + {past_E} + {now_E}:

  * a reactive rule `E :> R1,..,Rq` becomes the guarded pair
        E :- E, R1, .., Rq.
        past_E :- E, R1, .., Rq.
    so E can only fire if the event is true (from a unit clause), and
    firing records the corresponding past event;

  * for every action A and every clause `B :- D1,..,Dh, ..A..` that
    performs it, a clause
        A :- B, D1, .., Dh, C1, .., Cs.
    is added, where C1..Cs are the preconditions from A's action rule
    (empty if A has none) and D1..Dh are the non-action body atoms.  The
    action rule itself is removed: A becomes derivable exactly when some
    rule actually performs it and its preconditions hold;

  * events true at the start contribute unit clauses (`E.` plus `now_E.`
    for externals, `E.` for internals, `past_E.` for past events).

The least Herbrand model of P' is the "snapshot" of the agent's behavior
for that initial situation.  Only the unit clauses depend on it, so a
caller that needs many snapshots of one agent (`evolve_system`) compiles
the rule part once into `HornRules` and feeds each situation's
`unit_names` to it as seeds.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .errors import DaliConfigError
from .model import ACTION, PAST, PRESENT, REACTIVE, AgentProgram, Atom

# Provenance labels for transformed clauses.
RULE_ORDINARY = "ordinary"
RULE_REACTIVE = "reactive-transform"
RULE_PAST = "past-transform"
RULE_ACTION = "action-transform"
RULE_INIT = "initial-event"


def mangle(atom: Atom) -> str:
    """Name of an atom in the extended alphabet of P'."""
    if atom.marker == PAST:
        return f"past_{atom.name}"
    if atom.marker == PRESENT:
        return f"now_{atom.name}"
    return atom.name


@dataclass(frozen=True, slots=True)
class TransformedClause:
    """A plain Horn clause of P' with its provenance."""

    head: str
    body: tuple[str, ...] = ()
    rule: str = RULE_ORDINARY
    source: int | None = None  # index of the originating clause, if any

    def __str__(self) -> str:
        if not self.body:
            return f"{self.head}."
        return f"{self.head} :- {', '.join(self.body)}."


@dataclass(frozen=True, slots=True)
class TransformedProgram:
    agent: str
    clauses: tuple[TransformedClause, ...] = ()

    def pairs(self) -> tuple[tuple[str, tuple[str, ...]], ...]:
        return tuple((c.head, c.body) for c in self.clauses)


@dataclass(frozen=True, slots=True)
class InitialSituation:
    """Events assumed true at the beginning of the snapshot.

    Entries are plain external/internal event atoms, or past-marked
    event atoms for things remembered from before.
    """

    events: tuple[Atom, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(self.events))

    def validated(self, program: AgentProgram) -> "InitialSituation":
        events = program.event_names
        for a in self.events:
            if a.marker == PRESENT:
                raise DaliConfigError(
                    f"init entry now({a.name}) is redundant: present markers "
                    f"are implied for initial external events"
                )
            if a.name not in events:
                kind = "past event" if a.marker == PAST else "event"
                raise DaliConfigError(
                    f"init {kind} '{a.name}' is not a declared event of "
                    f"agent {program.name}"
                )
        return self


def _dedupe_names(names: Iterable[str]) -> tuple[str, ...]:
    seen: dict[str, None] = {}
    for n in names:
        seen.setdefault(n)
    return tuple(seen)


def transform_program(
    p: AgentProgram, init: InitialSituation | Iterable[Atom] = ()
) -> TransformedProgram:
    """Build P' from a validated agent program and an initial situation."""
    if not isinstance(init, InitialSituation):
        init = InitialSituation(tuple(init))
    init.validated(p)
    action_names = p.action_names

    # Action rules yield no clause of their own: their bodies become the
    # preconditions of the derivation clauses below.
    preconditions: dict[str, tuple[str, ...]] = {}
    for name in action_names:
        rule = p.action_clause(name)
        if rule is not None:
            preconditions[name] = tuple(mangle(a) for a in rule.body)

    # Reactive rules become guarded pairs and ordinary clauses pass
    # through with markers renamed.  Right after them come the derivation
    # clauses, one per action atom in the body of the ordinary clause or
    # of the pair's first half; the past half is not scanned, since
    # anything it could generate is subsumed by the first half's.
    out: list[TransformedClause] = []
    for idx, c in enumerate(p.clauses):
        if c.kind == ACTION:
            continue
        head = c.head.name
        if c.kind == REACTIVE:
            body = (head,) + tuple(mangle(a) for a in c.body)
            out.append(TransformedClause(head, body, RULE_REACTIVE, idx))
            out.append(TransformedClause(f"past_{head}", body, RULE_PAST, idx))
        else:
            body = tuple(mangle(a) for a in c.body)
            out.append(TransformedClause(head, body, RULE_ORDINARY, idx))
        non_actions = tuple(a for a in body if a not in action_names)
        for a in body:
            if a in action_names:
                derived = _dedupe_names((head,) + non_actions + preconditions.get(a, ()))
                out.append(TransformedClause(a, derived, RULE_ACTION, idx))

    for name in unit_names(init.events, p.external_names):
        out.append(TransformedClause(name, (), RULE_INIT))
    return TransformedProgram(p.name, tuple(out))


def unit_names(events: Iterable[Atom], externals: frozenset[str]) -> Iterator[str]:
    """Heads of the unit clauses of P' for events true at the start, in
    order: `past_E` for `past(E)`; `E`, then `now_E` if E is external."""
    for a in events:
        if a.marker == PAST:
            yield f"past_{a.name}"
        else:
            yield a.name
            if a.name in externals:
                yield f"now_{a.name}"


HornClauses = Iterable[tuple[str, Sequence[str]]]


class HornRules:
    """A plain propositional Horn program compiled for counting
    (Dowling & Gallier, 1984): the clauses, the number of distinct body
    atoms of each, the clauses that watch each atom, and the heads of
    bodyless clauses.  Compiled once, it gives the least model of itself
    plus any set of seed facts, in time linear in the program and seeds."""

    __slots__ = ("_clauses", "_counts", "_watchers", "_facts")

    def __init__(self, clauses: TransformedProgram | HornClauses):
        if isinstance(clauses, TransformedProgram):
            clauses = clauses.pairs()
        else:
            clauses = tuple(clauses)
        counts: list[int] = []
        watchers: dict[str, list[int]] = defaultdict(list)
        facts: list[str] = []
        for i, (head, body) in enumerate(clauses):
            unsat = set(body)
            counts.append(len(unsat))
            if not unsat:
                facts.append(head)
            for b in unsat:
                watchers[b].append(i)
        self._clauses = clauses
        self._counts = counts
        self._watchers = watchers
        self._facts = facts

    def closure(self, seeds: Iterable[str] = ()) -> frozenset[str]:
        """Least model of the rules plus a unit clause per seed: each
        clause fires when its count of unsatisfied body atoms reaches 0."""
        clauses, watchers = self._clauses, self._watchers
        remaining = self._counts.copy()
        model: set[str] = set()
        queue = [*self._facts, *seeds]
        while queue:
            atom = queue.pop()
            if atom in model:
                continue
            model.add(atom)
            for i in watchers.get(atom, ()):
                remaining[i] -= 1
                if remaining[i] == 0:
                    head = clauses[i][0]
                    if head not in model:
                        queue.append(head)
        return frozenset(model)


def least_model(program: TransformedProgram | HornClauses) -> frozenset[str]:
    """Least Herbrand model of a plain propositional Horn program."""
    return HornRules(program).closure()


def restrict_by_strategy(
    tp: TransformedProgram, keep: Callable[[TransformedClause], bool]
) -> TransformedProgram:
    """Drop the clauses a resolution strategy would never select."""
    return TransformedProgram(tp.agent, tuple(c for c in tp.clauses if keep(c)))


def snapshot(
    p: AgentProgram, init: InitialSituation | Iterable[Atom] = ()
) -> frozenset[str]:
    """Least model of the transformed program.  To restrict it, take
    `least_model(restrict_by_strategy(transform_program(p, init), keep))`."""
    return least_model(transform_program(p, init))


def render_transformed(tp: TransformedProgram) -> str:
    """P' as `.dali`-compatible ordinary clauses with provenance comments."""
    width = max((len(str(c)) for c in tp.clauses), default=0)
    lines = [f"agent {tp.agent}."]
    for c in tp.clauses:
        lines.append(f"{str(c):<{width}}  % {c.rule}")
    return "\n".join(lines) + "\n"
