"""The extended-resolution interpreter for one agent.

A running goal is a disjunction of component goals; each component is a
conjunction evaluated left to right with chronological backtracking, its
own choice points, and an ancestor check that fails circular branches
(`p :- p` must fail, matching the least-model semantics).

Besides plain clause resolution the interpreter maintains three event
sets and performs actions.  Every transition is one of six step kinds,
recorded in the trace with a case label:

  i    resolve the selected atom with a defining clause (also used for
       past(e) lemma tests, which read the PV set and change nothing);
  ii   the one effect step: perform an action (selected with no action
       rule, or at the end of its precondition subproof) or record the
       internal event a subproof just proved; a performed action that is
       also an internal event is recorded too, unless that event is
       pending in IV or already in PV (one live instance);
  iii  test now(e): succeeds while e is pending in EV, consuming nothing;
  iv   join a pending external event as a new reaction component,
       moving it from EV to PV;
  v    join a recorded internal event as a new reaction component,
       moving it from IV to PV;
  vi   join a self-triggered attempt of an internal event.

A proof of an internal event, wherever it happens, runs as a nested
subproof: when it completes, the event enters IV so the agent can react
to its own conclusion.  Likewise an action with an action rule is
performed exactly when its precondition subproof completes.  A subproof
ends at a marker placed in the goal right after the body of the clause
that opens it; only the leftmost atom is ever rewritten, so the
subproof is complete exactly when its marker reaches the front.

Scheduling is owned by a Strategy and is fully deterministic: pending
completions first, then the internal phase (reactions from IV, else one
attempt) on its period, then one step of the round-robin component, then
external event joins.  Periods shape priority only; whenever the
preferred work is absent, any applicable step fires, so the interpreter
never idles while work remains.

A step's bookkeeping depends on neither the run's history, the depth of
the proof nor the size of EV or IV.  What still grows is the copy of
the one tuple the step changes, which Python makes without a loop of
its own: a resolution copies the rest of the goal, so a step of a long
conjunction costs more the longer it is, and a join or an effect copies
an event-name tuple.  The loop check's ancestors are an int bit set: a
name gets its bit the first time it is resolved with a body, so adding
the selected atom is one `|` and the check one lookup and one `&`, on
ints no wider than the program has names, and all atoms of a body share
one set.  Finished components
leave the round-robin list and release their goal and choice points,
keeping only their outcome, and running attempts are a live set.  Once
a search for an attempt comes up empty the engine remembers it until an
arrival, a join or the end of an attempt, so `quiescent` and the step
of an idle engine cost O(1).  EV and IV are insertion-ordered sets
keyed by event name, so an arrival, a coalesced duplicate, a join of
the oldest event and a now(..) test are each one dictionary operation;
PV is the set of event names the agent reacted to, and past(..) tests
and attempt choices look names up in it.  The EV, IV and sorted PV name
tuples change only when their set does (a join slices one name off; a
burst of arrivals costs one rebuild), and every record in between
shares them.
Each component keeps its goal's text beside its goal.  A clause's body
text, the subproof it opens and its head's ancestor bit are derived the
first time any engine of the program resolves with it, and kept on the
program for all its engines, so a rewrite stringifies nothing.

Step records, component outcomes, goal atoms and choice points are
immutable named tuples (so are the P' clauses of `dali.semantics`):
each is built by one tuple allocation.  Every step builds a record and
most build goal atoms, so the engine builds them with `tuple.__new__`
(`_new`) from all their fields in field order, which skips the named
tuple's Python-level constructor and its cost per call.  A resolution
with a fact builds no goal atom and so no ancestor set.  The fields keep
their names, order and defaults: read them by name.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter
from typing import NamedTuple

from .errors import DaliValidationError, frozen
from .model import (
    ACTION,
    PAST,
    PLAIN,
    PRESENT,
    REACTIVE,
    AgentProgram,
    Atom,
    Clause,
    validate_program,
)
from .parser import as_atom

# Component origins.
QUERY = "query"
EXTERNAL_REACTION = "external-reaction"
INTERNAL_REACTION = "internal-reaction"
INTERNAL_ATTEMPT = "internal-attempt"

# Component status.
ACTIVE = "active"
SUCCEEDED = "succeeded"
FAILED = "failed"

TRACE_FIELDS = ("step", "case", "agent", "selected", "component", "ev", "iv", "pv", "performed")

# The step budget of `Engine.run` and `run_agent` when none is given.
MAX_STEPS = 10_000

_INDEX = attrgetter("index")
_new = tuple.__new__  # _new(cls, fields): see the module docstring


@frozen
class Strategy:
    """Deterministic scheduling policy.

    event_check_period (k) and internal_check_period (m) say how often
    external joins and the internal phase are given priority.  Components
    run round-robin, clauses are tried in program order and attempts
    cycle through the internal events in declaration order.  The step
    budget is an argument of `Engine.run` and `run_agent`.
    """

    event_check_period: int = 1
    internal_check_period: int = 2

    def __post_init__(self):
        if self.event_check_period < 1 or self.internal_check_period < 1:
            raise ValueError("strategy periods must be >= 1")


# What `Engine` and `run_agent` use when given no strategy: one frozen
# instance that every engine shares.
DEFAULT_STRATEGY = Strategy()


class GoalAtom(NamedTuple):
    """One pending subgoal: the atom and its proof ancestors (loop check),
    an int bit set over the names of its program (see `Engine._resolvent`)."""

    atom: Atom
    ancestors: int = 0


@dataclass(slots=True)
class _Region:
    """A nested subproof's end marker in the goal, with its completion
    effects: perform the owner action, or else record the owner internal
    event.  Backtracking can restore a marker that already fired; `done`
    keeps its effect from happening twice."""

    owner: Atom
    component: int
    perform: bool
    done: bool = False


class _ChoicePoint(NamedTuple):
    atoms: tuple[GoalAtom | _Region, ...]
    goal: tuple[str, ...]
    candidates: tuple[Clause, ...]


@dataclass(slots=True)
class Component:
    index: int
    origin: str
    origin_text: str  # the origin atom's text; an attempt's is its event's name
    atoms: tuple[GoalAtom | _Region, ...]
    goal: tuple[str, ...]  # the text of each GoalAtom in atoms, in order
    status: str = ACTIVE
    reaction_pending: bool = False
    # A list from the first real choice on.  `_finish` releases atoms,
    # goal and choice points: a finished component keeps its outcome.
    choicepoints: list[_ChoicePoint] | tuple[()] = ()
    failure: str | None = None


class ComponentOutcome(NamedTuple):
    index: int
    origin: str
    atom: str
    status: str
    failure: str | None = None


@dataclass(slots=True)
class AgentState:
    """Mutable event state of one agent.

    ev and iv are insertion-ordered sets of pending events, each an
    OrderedDict from event name to its atom: membership is one lookup and
    the oldest event (arrival/derivation order) is taken in O(1), and
    iterating one gives its names, oldest first.  pv is the set of names
    of the events reacted to, and only grows.  performed logs the actions
    in order (each record holds its step); coalesced counts event arrivals
    merged into an already pending instance.
    """

    ev: OrderedDict[str, Atom] = field(default_factory=OrderedDict)
    iv: OrderedDict[str, Atom] = field(default_factory=OrderedDict)
    pv: set[str] = field(default_factory=set)
    performed: list[Atom] = field(default_factory=list)
    coalesced: dict[str, int] = field(default_factory=dict)

    def pv_names(self) -> tuple[str, ...]:
        return tuple(sorted(self.pv))

    def performed_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.performed)


class StepRecord(NamedTuple):
    """One interpreter transition, with post-state snapshots and deltas."""

    step: int
    case: str
    selected: str
    component: int
    goal: tuple[str, ...]
    ev: tuple[str, ...]
    iv: tuple[str, ...]
    pv: tuple[str, ...]
    performed: str | None = None
    ev_added: tuple[str, ...] = ()
    ev_removed: tuple[str, ...] = ()
    iv_added: tuple[str, ...] = ()
    iv_removed: tuple[str, ...] = ()
    pv_added: tuple[str, ...] = ()

    def trace_dict(self, agent: str) -> dict:
        """The `--trace` line of this step, keyed by TRACE_FIELDS."""
        row = self._asdict()
        row.update(agent=agent, ev=list(self.ev), iv=list(self.iv), pv=list(self.pv))
        return {key: row[key] for key in TRACE_FIELDS}


class Engine:
    """Interpreter instance owning one agent's state.

    Instances never share mutable state; engines given no strategy share
    the frozen `DEFAULT_STRATEGY`.  A step performs at most one
    action, named by its record's `performed`; the step records are the
    engine's only output, and the runtime routes actions from them.
    """

    def __init__(self, program: AgentProgram, strategy: Strategy | None = None):
        report = validate_program(program)
        if not report.ok:
            raise DaliValidationError(program.name, report)
        self.program = program
        self.strategy = strategy or DEFAULT_STRATEGY
        self.state = AgentState()
        self.components: list[Component] = []
        self.records: list[StepRecord] = []
        self._active: list[Component] = []  # the ACTIVE components, by index
        self._attempting: set[str] = set()  # events with a running attempt
        # Names shared by records until a step changes the set.  An
        # arrival sets them to None and the next record rebuilds them, so
        # a burst of arrivals costs one rebuild; a join drops the first.
        self._ev_names: tuple[str, ...] | None = ()
        self._iv_names: tuple[str, ...] | None = ()
        self._pv_names: tuple[str, ...] = ()  # sorted
        self._pending: list[_Region] = []  # subproofs awaiting a completion record
        self._rr = 0
        self._attempt_cursor = 0
        # Internal events attempted since the last arrival or join: each
        # waits for new event traffic before it is attempted again.
        self._tried: set[str] = set()
        # True once `_find_attempt` found nothing, until an arrival, a
        # join or the end of an attempt can make an event attemptable.
        self._no_attempt = False
        self._int_names = program.internal_names
        self._act_names = program.action_names
        self._defining = program._defining
        # Shared by every engine of the program (see `_resolvent`): each
        # clause's resolvent info by identity (the program holds every
        # clause, so no id is reused) and each name's ancestor bit.
        self._resolvents, self._bits = program._resolution

    # -- inputs ----------------------------------------------------------

    def inject(self, event: Atom | str) -> bool:
        """Deliver an external event, given unmarked.  Returns False if it
        was coalesced into an instance already pending."""
        atom = as_atom(event)
        name = self.program.inbox_name(atom)
        self._tried.clear()
        self._no_attempt = False
        ev = self.state.ev
        if name in ev:
            self.state.coalesced[name] = self.state.coalesced.get(name, 0) + 1
            return False
        ev[name] = atom
        self._ev_names = None
        return True

    def add_query(self, atom: Atom | str) -> int:
        """Add a user query as a new component; returns its index."""
        atom = as_atom(atom)
        return self._add_component(QUERY, atom, str(atom)).index

    # -- stepping ----------------------------------------------------------

    @property
    def steps_taken(self) -> int:
        return len(self.records)

    @property
    def quiescent(self) -> bool:
        """No step kind applies: O(1) once an attempt search came up empty."""
        if self._pending or self.state.ev or self.state.iv or self._active:
            return False
        return self._find_attempt() is None

    def step(self) -> StepRecord | None:
        """Apply one transition; None means no step kind is applicable."""
        if self._pending:
            return self._completion_step()
        n = len(self.records)
        internal_due = n % self.strategy.internal_check_period == 0
        external_due = n % self.strategy.event_check_period == 0
        if internal_due:
            rec = self._internal_phase()
            if rec is not None:
                return rec
        rec = self._advance_components()
        if rec is not None:
            return rec
        # Off-schedule work still runs rather than idling; the periods
        # only decide who goes first when several step kinds apply, so a
        # due external join precedes an off-schedule internal phase.  A
        # due internal phase looks again: the components that just failed
        # may have ended the attempt that kept an event from being tried.
        ev = self.state.ev
        if not (ev and external_due):
            rec = self._internal_phase()
            if rec is not None:
                return rec
        if ev:
            return self._join(EXTERNAL_REACTION)
        return None

    def run(self, max_steps: int = MAX_STEPS) -> list[StepRecord]:
        """Step until quiescence or the budget runs out; returns the
        records produced by this call."""
        start = len(self.records)
        for _ in range(max_steps):
            if self.step() is None:
                break
        return self.records[start:]

    def component_outcomes(self) -> tuple[ComponentOutcome, ...]:
        return tuple([
            _new(ComponentOutcome, (c.index, c.origin, c.origin_text, c.status, c.failure))
            for c in self.components
        ])

    # -- the six step kinds -------------------------------------------------

    def _record(
        self, case, selected, comp: Component, performed=None,
        ev_removed=(), iv_added=(), iv_removed=(), pv_added=(),
    ) -> StepRecord:
        if self._ev_names is None:
            self._ev_names = tuple(self.state.ev)
        if self._iv_names is None:
            self._iv_names = tuple(self.state.iv)
        # Every field, in field order; no step adds to EV (`inject` does).
        rec = _new(StepRecord, (
            len(self.records) + 1, case, selected, comp.index, comp.goal,
            self._ev_names, self._iv_names, self._pv_names,
            performed, (), ev_removed, iv_added, iv_removed, pv_added,
        ))
        self.records.append(rec)
        return rec

    def _internal_phase(self) -> StepRecord | None:
        if self.state.iv:
            return self._join(INTERNAL_REACTION)
        pos = self._find_attempt()
        if pos is None:
            return None
        internals = self.program.internals
        atom = internals[pos]
        self._attempt_cursor = (pos + 1) % len(internals)
        self._tried.add(atom.name)
        comp = self._add_component(INTERNAL_ATTEMPT, atom, atom.name)
        return self._record("vi", atom.name, comp)

    def _join(self, origin) -> StepRecord:
        """Join the oldest event of EV (an external reaction, case iv) or
        IV (case v) as a new reaction component, moving it to PV."""
        st = self.state
        if origin == EXTERNAL_REACTION:
            name, event = st.ev.popitem(last=False)
            if self._ev_names is not None:
                self._ev_names = self._ev_names[1:]
            case, ev_removed, iv_removed = "iv", (name,), ()
        else:
            name, event = st.iv.popitem(last=False)
            if self._iv_names is not None:
                self._iv_names = self._iv_names[1:]
            case, ev_removed, iv_removed = "v", (), (name,)
        pv_added = ()
        if name not in st.pv:
            st.pv.add(name)
            pv_added = (name,)
            names = list(self._pv_names)
            insort(names, name)
            self._pv_names = tuple(names)
        self._tried.clear()
        self._no_attempt = False
        comp = self._add_component(origin, event, name)
        comp.reaction_pending = True
        return self._record(
            case, name, comp,
            ev_removed=ev_removed, iv_removed=iv_removed, pv_added=pv_added,
        )

    def _find_attempt(self) -> int | None:
        """Position in `program.internals` of the next internal event
        worth attempting, in declaration order from the cursor.

        Pure internal events only: attempting a dual action/internal atom
        would perform the action unprompted.  An event is skipped while
        pending or already reacted to, while an attempt of it is running,
        and when no event arrived or joined since its last attempt.
        Changes to IV and PV only remove candidates, so once a search
        finds none, none is found until `_no_attempt` is cleared.
        """
        if self._no_attempt:
            return None
        internals = self.program.internals
        iv, pv = self.state.iv, self.state.pv
        for offset in range(len(internals)):
            pos = (self._attempt_cursor + offset) % len(internals)
            name = internals[pos].name
            if name in self._act_names or name in iv or name in pv:
                continue
            if name in self._attempting or name in self._tried:
                continue
            return pos
        self._no_attempt = True
        return None

    def _advance_components(self) -> StepRecord | None:
        """One step of the first active component whose index is at
        least `_rr`, wrapping around; `_rr` then moves past it."""
        active = self._active
        i = bisect_left(active, self._rr, key=_INDEX)
        for _ in range(len(active)):
            if i == len(active):
                i = 0
            comp = active[i]
            rec = self._advance(comp)
            if rec is not None:
                self._rr = (comp.index + 1) % len(self.components)
                return rec
            # The component failed and left the list, so position i now
            # holds the next one; keep looking for other work.
        return None

    def _advance(self, comp: Component) -> StepRecord | None:
        """One transition inside a component; on a failed branch, resume
        at the newest choice point.  None means the component just failed
        for good (choice points exhausted)."""
        ga = comp.atoms[0]
        atom = ga.atom
        if atom.marker != PLAIN:
            # A lemma test, which changes no event set: now(e) succeeds
            # while e is pending in EV (case iii), past(e) once e is in PV.
            present = atom.marker == PRESENT
            if atom.name in (self.state.ev if present else self.state.pv):
                selected = comp.goal[0]
                self._replace_leftmost(comp, ())
                return self._record("iii" if present else "i", selected, comp)
            reason = (f"now({atom.name}) unsatisfied: event not pending" if present
                      else f"past({atom.name}) unsatisfied: event never reacted to")
        elif comp.reaction_pending:
            comp.reaction_pending = False
            clause = self.program.reactive_clause(atom.name)
            if clause is not None:
                return self._resolve(comp, (clause,))
            reason = f"event '{atom.name}' has no reactive rule"
        elif ga.ancestors & self._bits.get(atom.name, 0):
            reason = f"loop detected on '{atom.name}'"
        else:
            candidates = self._defining.get(atom.name, ())
            if candidates:
                return self._resolve(comp, candidates)
            if atom.name in self._act_names:
                # An action without an action rule always succeeds.
                self._replace_leftmost(comp, ())
                return self._effect(comp, atom, True)
            reason = f"no clause for '{atom.name}'"

        # Chronological backtracking: restore the goal as it was and try
        # the selected atom's next clause; that retry is the transition.
        if not comp.choicepoints:
            self._finish(comp, FAILED, reason)
            return None
        cp = comp.choicepoints.pop()
        comp.atoms, comp.goal = cp.atoms, cp.goal
        return self._resolve(comp, cp.candidates)

    def _resolve(self, comp: Component, candidates: tuple[Clause, ...]) -> StepRecord:
        """SLD step: replace the selected atom with the body of the first
        of `candidates`, after pushing a choice point that retries the
        others, in order, on backtracking.  A fresh resolution passes the
        selected atom's defining clauses, a reaction its one reactive
        rule and a retry the choice point's remaining clauses."""
        if len(candidates) > 1:
            cp = _new(_ChoicePoint, (comp.atoms, comp.goal, candidates[1:]))
            if comp.choicepoints:
                comp.choicepoints.append(cp)
            else:
                comp.choicepoints = [cp]
        clause = candidates[0]
        ga = comp.atoms[0]
        selected = comp.goal[0]
        text, perform, bit = self._resolvents.get(id(clause)) or self._resolvent(clause)
        children = []
        if clause.body:  # a fact opens no ancestor set
            ancestors = ga.ancestors | bit
            children = [_new(GoalAtom, (b, ancestors)) for b in clause.body]
        if perform is not None:
            children.append(_Region(ga.atom, comp.index, perform))
        self._replace_leftmost(comp, tuple(children), text)
        return self._record("i", selected, comp)

    def _resolvent(self, clause: Clause) -> tuple[tuple[str, ...], bool | None, int]:
        """Derive and keep a clause's resolvent info: its body text;
        whether resolving with it opens a subproof that performs its head
        (True), records it (False) or neither (None); and its head's
        ancestor bit, which a name gets the first time it is resolved
        with a body (0 for a fact).  The selected atom is always the
        clause's head."""
        head, body = clause.head.name, clause.body
        text = tuple([a.name if a.marker == PLAIN else str(a) for a in body])
        perform = None
        if clause.kind == ACTION:
            perform = True
        elif clause.kind != REACTIVE and head in self._int_names:
            # A proved internal event must be recorded; nest its subproof.
            # Resolving with the reactive rule is the reaction itself, so
            # it must not re-record the event.
            perform = False
        bit = self._bits.setdefault(head, 1 << len(self._bits)) if body else 0
        info = self._resolvents[id(clause)] = (text, perform, bit)
        return info

    def _replace_leftmost(self, comp: Component, children, text=()) -> None:
        """Replace the selected atom with children, whose goal atoms read
        `text`, then pop the markers that reach the front: each ends a
        nested subproof (innermost first) and is queued for its completion
        step.  The component succeeds when its goal is empty."""
        atoms = children + comp.atoms[1:]
        while atoms and type(atoms[0]) is _Region:
            if not atoms[0].done:
                atoms[0].done = True
                self._pending.append(atoms[0])
            atoms = atoms[1:]
        comp.atoms = atoms
        comp.goal = text + comp.goal[1:]
        if not atoms:
            self._finish(comp, SUCCEEDED)

    # -- component lifecycle -----------------------------------------------

    def _add_component(self, origin, atom: Atom, text: str) -> Component:
        """A new active component whose goal is `atom`, which reads `text`."""
        comp = Component(
            len(self.components), origin, text, (_new(GoalAtom, (atom, 0)),), (text,)
        )
        self.components.append(comp)
        self._active.append(comp)
        if origin == INTERNAL_ATTEMPT:
            self._attempting.add(atom.name)
        return comp

    def _finish(self, comp: Component, status: str, failure: str | None = None) -> None:
        """The only change of a component's status: it leaves the active
        list and, for an attempt, the running attempts, and releases its
        goal and choice points."""
        comp.status = status
        comp.failure = failure
        comp.atoms = comp.goal = comp.choicepoints = ()
        del self._active[bisect_left(self._active, comp.index, key=_INDEX)]
        if comp.origin == INTERNAL_ATTEMPT:
            self._attempting.discard(comp.origin_text)
            self._no_attempt = False

    # -- nested subproofs --------------------------------------------------

    def _completion_step(self) -> StepRecord:
        region = self._pending.pop(0)
        comp = self.components[region.component]
        return self._effect(comp, region.owner, region.perform)

    def _effect(self, comp: Component, atom: Atom, perform: bool) -> StepRecord:
        """The case-ii step: perform the action `atom` if `perform`, and
        record it in IV if it is an internal event.  One live instance
        per conclusion: an event still pending in IV, or one the agent
        already reacted to, does not queue another reaction."""
        name = atom.name
        if perform:
            self.state.performed.append(atom)
        iv_added = ()
        iv = self.state.iv
        if name in self._int_names and name not in iv and name not in self.state.pv:
            iv[name] = atom
            self._iv_names = None
            iv_added = (name,)
        return self._record(
            "ii", name, comp, performed=name if perform else None, iv_added=iv_added
        )


@frozen
class RunResult:
    state: AgentState
    records: tuple[StepRecord, ...]
    outcomes: tuple[ComponentOutcome, ...]
    truncated: bool
    query_succeeded: bool | None = None


def run_agent(
    program: AgentProgram,
    query: Atom | str | None = None,
    inbox=(),
    strategy: Strategy | None = None,
    max_steps: int = MAX_STEPS,
) -> RunResult:
    """Run one agent to quiescence (or the step budget).

    The inbox holds (tick, event) pairs.  An entry at tick t is delivered
    once t interpreter steps have run; if a step finds nothing to do
    before the next entry is due, that entry comes forward at once,
    together with every entry up to its tick.  Entries due by the budget
    are delivered before the run counts as truncated.  An internal event
    is not attempted again until an event arrives or joins.
    """
    engine = Engine(program, strategy)
    query_index = None if query is None else engine.add_query(query)
    pending = deque(sorted([(int(t), as_atom(e)) for t, e in inbox], key=itemgetter(0)))
    truncated = False
    due = 0  # deliver the pending entries up to `due`
    while True:
        while pending and pending[0][0] <= due:
            engine.inject(pending.popleft()[1])
        steps = engine.steps_taken
        if steps >= max_steps:
            truncated = not engine.quiescent or bool(pending)
            break
        stop = min(pending[0][0], max_steps) if pending else max_steps
        if len(engine.run(stop - steps)) == stop - steps:
            due = stop
        elif pending:
            due = pending[0][0]  # idle early: the next entry comes forward
        else:
            break
    outcomes = engine.component_outcomes()
    query_ok = None if query_index is None else outcomes[query_index].status == SUCCEEDED
    return RunResult(engine.state, tuple(engine.records), outcomes, truncated, query_ok)
