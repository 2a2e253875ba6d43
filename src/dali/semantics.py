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
    performs it (`B :> ..` for a reactive rule), one clause
        A :- B, D1, .., Dh, C1, .., Cs.
    is added, where C1..Cs are the preconditions from A's action rule
    (empty if A has none) and D1..Dh are the non-action body atoms; it
    is left out when A is among them or is B, since it could never
    derive A.  The action rule itself is removed: A becomes derivable
    exactly when some rule actually performs it and its preconditions
    hold;

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
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import DaliConfigError, frozen
from .model import ACTION, MARKER_PREFIX, PAST, PRESENT, REACTIVE, AgentProgram, Atom

# Provenance labels for transformed clauses.
RULE_ORDINARY = "ordinary"
RULE_REACTIVE = "reactive-transform"
RULE_PAST = "past-transform"
RULE_ACTION = "action-transform"
RULE_INIT = "initial-event"


class TransformedClause(NamedTuple):
    """A plain Horn clause of P' with its provenance (an immutable named
    tuple, built once per clause of every transform)."""

    head: str
    body: tuple[str, ...] = ()
    rule: str = RULE_ORDINARY
    source: int | None = None  # index of the originating clause, if any

    def __str__(self) -> str:
        if not self.body:
            return f"{self.head}."
        return f"{self.head} :- {', '.join(self.body)}."


@frozen
class TransformedProgram:
    agent: str
    clauses: tuple[TransformedClause, ...] = ()


@frozen
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


def transform_program(
    p: AgentProgram, init: InitialSituation | Iterable[Atom] = ()
) -> TransformedProgram:
    """Build P' from a validated agent program and an initial situation.

    One pass over the clauses builds each clause of P' once, in program
    order: body atoms take their marker's prefix as they are read, and
    only a body that holds an action is scanned for derivation clauses.
    Validation keeps the prefixed names apart from the program's own: no
    atom is named `past_E` for a declared event E, nor `now_E` for a
    declared external event E."""
    if not isinstance(init, InitialSituation):
        init = InitialSituation(tuple(init))
    init.validated(p)
    action_names = p.action_names
    prefix = MARKER_PREFIX
    past = prefix[PAST]

    # Action rules yield no clause of their own: their bodies become the
    # preconditions of the derivation clauses below.
    preconditions: dict[str, tuple[str, ...]] = {}
    for name in action_names:
        rule = p.action_clause(name)
        if rule is not None:
            preconditions[name] = tuple([prefix[a.marker] + a.name for a in rule.body])

    # Reactive rules become guarded pairs and ordinary clauses pass
    # through with markers renamed.  Right after them come the derivation
    # clauses, one per distinct action atom of the clause's own body (not
    # of a reactive guard), left out when its head is in its body.
    # `tuple.__new__` skips the named tuple's Python-level constructor.
    new, cls = tuple.__new__, TransformedClause
    out: list[TransformedClause] = []
    append = out.append
    for idx, c in enumerate(p.clauses):
        kind = c.kind
        if kind == ACTION:
            continue
        head = c.head.name
        body = tuple([prefix[a.marker] + a.name for a in c.body]) if c.body else ()
        if kind == REACTIVE:
            guarded = (head, *body)
            append(new(cls, (head, guarded, RULE_REACTIVE, idx)))
            append(new(cls, (past + head, guarded, RULE_PAST, idx)))
        else:
            append(new(cls, (head, body, RULE_ORDINARY, idx)))
        if action_names.isdisjoint(body):
            continue
        non_actions = [a for a in body if a not in action_names]
        # A body that performs one action needs no dict to drop repeats.
        once = len(non_actions) == len(body) - 1
        for a in body if once else dict.fromkeys(body):
            if a in action_names:
                derived = dict.fromkeys([head, *non_actions, *preconditions.get(a, ())])
                if a not in derived:
                    append(new(cls, (a, tuple(derived), RULE_ACTION, idx)))

    for name in unit_names(init.events, p.external_names):
        append(new(cls, (name, (), RULE_INIT, None)))
    return TransformedProgram(p.name, tuple(out))


def unit_names(events: Iterable[Atom], externals: frozenset[str]) -> Iterator[str]:
    """Heads of the unit clauses of P' for events true at the start, in
    order: `past_E` for `past(E)`; `E`, then `now_E` if E is external."""
    past, now = MARKER_PREFIX[PAST], MARKER_PREFIX[PRESENT]
    for a in events:
        if a.marker == PAST:
            yield past + a.name
        else:
            yield a.name
            if a.name in externals:
                yield now + a.name


HornClauses = Iterable[tuple[str, Sequence[str]]]


class HornRules:
    """A plain propositional Horn program compiled for counting
    (Dowling & Gallier, 1984): the clauses, the number of distinct body
    atoms of each, the clauses that watch each atom, and the heads of
    bodyless clauses.  Compiled once, it gives the least model of itself
    plus any set of seed facts, in time linear in the program and seeds.

    The clauses are `(head, body, ...)` sequences read by position, so
    the clauses of a `TransformedProgram` are compiled as they are; any
    other iterable of `(head, body)` pairs is read once.  Only a body of
    two or more atoms goes through a set, to count its distinct atoms."""

    __slots__ = ("_clauses", "_counts", "_watchers", "_facts")

    def __init__(self, clauses: TransformedProgram | HornClauses):
        if isinstance(clauses, TransformedProgram):
            clauses = clauses.clauses
        else:
            clauses = tuple(clauses)
        counts: list[int] = []
        watchers: dict[str, list[int]] = defaultdict(list)
        facts: list[str] = []
        for i, clause in enumerate(clauses):
            body = clause[1]
            if len(body) > 1:
                unsat = set(body)
                counts.append(len(unsat))
                for b in unsat:
                    watchers[b].append(i)
            elif body:
                counts.append(1)
                watchers[body[0]].append(i)
            else:
                counts.append(0)
                facts.append(clause[0])
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


def snapshot(
    p: AgentProgram, init: InitialSituation | Iterable[Atom] = ()
) -> frozenset[str]:
    """Least model of the transformed program."""
    return least_model(transform_program(p, init))


def render_transformed(tp: TransformedProgram) -> str:
    """P' as `.dali`-compatible ordinary clauses with provenance comments."""
    width = max((len(str(c)) for c in tp.clauses), default=0)
    lines = [f"agent {tp.agent}."]
    for c in tp.clauses:
        lines.append(f"{str(c):<{width}}  % {c.rule}")
    return "\n".join(lines) + "\n"
