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
for that initial situation.  `HornRules` computes it by a watched-atom
closure: a clause is looked at only once its first body atom holds, so
the cost follows the clauses that come near firing, and a clause guarded
by an event that never happens costs nothing.  Only the unit clauses
depend on the situation, so a caller that needs many snapshots
(`evolve_system`) transforms and compiles each distinct agent program
up to its name once into `HornRules`, shared by the agents that differ
only in name, and feeds each situation's `unit_names` to it as seeds.
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
    event atoms for things remembered from before.  A repeated entry is
    dropped and the first occurrences keep their order.
    """

    events: tuple[Atom, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(dict.fromkeys(self.events)))

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


# What `transform_program` uses when given no initial situation: one
# frozen instance that every call shares.
NO_EVENTS = InitialSituation()


def transform_program(
    p: AgentProgram, init: InitialSituation | Iterable[Atom] = NO_EVENTS
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
    """A plain propositional Horn program compiled for a watched-atom
    closure, as with watched literals in SAT solvers (Moskewicz et al.,
    "Chaff", 2001): a clause of two or more body atoms is kept as it is,
    under its first body atom; a one-atom clause keeps its head under its
    atom; a bodyless head is a fact.  Clauses are `(head, body, ...)`
    sequences, read once.  Never written after compilation, one object
    gives the least model of itself plus any seeds, closure after
    closure, in time linear in the seeds and the clauses it fires or
    whose watched atoms come true."""

    __slots__ = ("_first", "_units", "_facts")

    def __init__(self, clauses: TransformedProgram | HornClauses):
        if isinstance(clauses, TransformedProgram):
            clauses = clauses.clauses
        first: dict[str, list] = defaultdict(list)
        units: dict[str, list[str]] = defaultdict(list)
        facts: list[str] = []
        for clause in clauses:
            body = clause[1]
            if len(body) > 1:
                first[body[0]].append(clause)
            elif body:
                units[body[0]].append(clause[0])
            else:
                facts.append(clause[0])
        self._first = first
        self._units = units
        self._facts = facts

    def closure(self, seeds: Iterable[str] = ()) -> frozenset[str]:
        """Least model of the rules plus a unit clause per seed.  A derived
        atom joins the model at once and is queued; when it is taken from
        the queue its one-atom clauses fire first, so longer bodies often
        find their heads true.  A longer clause is scanned from its second
        atom and waits at the position k of an atom not in the model, to
        resume at k + 1 when that atom is taken: each body atom is read
        once.  The two scans are written out because a shared helper made
        snapshots of many small agents a few percent slower."""
        first, units = self._first, self._units
        waiting: dict[str, list] = {}
        model = {*self._facts, *seeds}
        queue = list(model)
        while queue:
            atom = queue.pop()
            for head in units.get(atom, ()):
                if head not in model:
                    model.add(head)
                    queue.append(head)
            for clause in first.get(atom, ()):
                body = clause[1]
                for k in range(1, len(body)):
                    b = body[k]
                    if b not in model:
                        waiting.setdefault(b, []).append((clause, k))
                        break
                else:
                    if clause[0] not in model:
                        model.add(clause[0])
                        queue.append(clause[0])
            for clause, k in waiting.pop(atom, ()):
                body = clause[1]
                for k in range(k + 1, len(body)):
                    b = body[k]
                    if b not in model:
                        waiting.setdefault(b, []).append((clause, k))
                        break
                else:
                    if clause[0] not in model:
                        model.add(clause[0])
                        queue.append(clause[0])
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
