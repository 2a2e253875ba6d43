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
  ii   perform an action without preconditions, or record a completed
       subproof (a performed action and/or a proved internal event);
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

A step's bookkeeping depends on neither the run's history nor the size
of EV, IV or the goal, apart from copying the one tuple the step changes
(a goal, or an event-name tuple), which Python does without a loop of
its own.  Finished components leave the round-robin list and running
attempts are a live set.  EV and IV are insertion-ordered sets keyed by
event name, so an arrival, a coalesced duplicate, a join of the oldest
event and a now(..) test are each one dictionary operation; past(..)
tests and attempt choices look names up in a set of PV names.  The EV,
IV and sorted PV name tuples change only when their set does (a join
slices one name off; a burst of arrivals costs one rebuild), and every
record in between shares them.  Each component keeps its goal's text
beside its goal, so a rewrite stringifies only the clause body that
replaces the selected atom.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import OrderedDict
from dataclasses import dataclass, field
from operator import attrgetter

from .errors import DaliConfigError, DaliValidationError
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
from .parser import ScriptEntry, parse_atom_text

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

_INDEX = attrgetter("index")


@dataclass(frozen=True, slots=True)
class Strategy:
    """Deterministic scheduling policy.

    event_check_period (k) and internal_check_period (m) say how often
    external joins and the internal phase are given priority; max_steps
    is the default step budget of `Engine.run` and `run_agent`.
    Components run round-robin, clauses are tried in program order and
    attempts cycle through the internal events in declaration order.
    """

    event_check_period: int = 1
    internal_check_period: int = 2
    max_steps: int = 10_000

    def __post_init__(self):
        if self.event_check_period < 1 or self.internal_check_period < 1:
            raise ValueError("strategy periods must be >= 1")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")


@dataclass(frozen=True, slots=True)
class GoalAtom:
    """One pending subgoal: the atom and its proof ancestors (loop check)."""

    atom: Atom
    ancestors: frozenset[str] = frozenset()


@dataclass(slots=True)
class _Region:
    """A nested subproof's end marker in the goal, with its completion
    effects.  Backtracking can restore a marker that already fired;
    `done` keeps its effect from happening twice."""

    owner: Atom
    component: int
    perform: bool
    record_iv: bool
    done: bool = False


@dataclass(frozen=True, slots=True)
class _ChoicePoint:
    atoms: tuple[GoalAtom | _Region, ...]
    goal: tuple[str, ...]
    candidates: tuple[Clause, ...]


@dataclass(slots=True)
class Component:
    index: int
    origin: str
    origin_atom: Atom | None
    atoms: tuple[GoalAtom | _Region, ...]
    goal: tuple[str, ...]  # the text of each GoalAtom in atoms, in order
    status: str = ACTIVE
    reaction_pending: bool = False
    choicepoints: list[_ChoicePoint] = field(default_factory=list)
    failure: str | None = None


@dataclass(frozen=True, slots=True)
class ComponentOutcome:
    index: int
    origin: str
    atom: str | None
    status: str
    failure: str | None = None


@dataclass(slots=True)
class AgentState:
    """Mutable event state of one agent.

    ev and iv are insertion-ordered sets of pending events, each an
    OrderedDict from event name to its atom: membership is one lookup and
    the oldest event (arrival/derivation order) is taken in O(1).  pv
    only grows.  performed logs (action, step) pairs; coalesced counts
    event arrivals merged into an already pending instance.
    """

    ev: OrderedDict[str, Atom] = field(default_factory=OrderedDict)
    iv: OrderedDict[str, Atom] = field(default_factory=OrderedDict)
    pv: set[Atom] = field(default_factory=set)
    performed: list[tuple[Atom, int]] = field(default_factory=list)
    coalesced: dict[str, int] = field(default_factory=dict)

    def ev_names(self) -> tuple[str, ...]:
        return tuple(self.ev)

    def iv_names(self) -> tuple[str, ...]:
        return tuple(self.iv)

    def pv_names(self) -> tuple[str, ...]:
        return tuple(sorted(a.name for a in self.pv))

    def performed_names(self) -> tuple[str, ...]:
        return tuple(a.name for a, _ in self.performed)


@dataclass(frozen=True, slots=True)
class StepRecord:
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
        return {
            "step": self.step,
            "case": self.case,
            "agent": agent,
            "selected": self.selected,
            "component": self.component,
            "ev": list(self.ev),
            "iv": list(self.iv),
            "pv": list(self.pv),
            "performed": self.performed,
        }


class Engine:
    """Interpreter instance owning one agent's state.

    Instances never share mutable state; inter-agent effects flow through
    the on_action callback, which fires once per performed action.
    """

    def __init__(
        self,
        program: AgentProgram,
        strategy: Strategy | None = None,
        on_action=None,
    ):
        report = validate_program(program)
        if not report.ok:
            raise DaliValidationError(program.name, report)
        self.program = program
        self.strategy = strategy or Strategy()
        self.on_action = on_action
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
        self._pv_set: set[str] = set()  # the names in PV
        self._pending: list[_Region] = []  # subproofs awaiting a completion record
        self._rr = 0
        self._attempt_cursor = 0
        self._last_attempt: dict[str, int] = {}
        self._version = 0  # bumped on event traffic; gates re-attempts
        self._ext_names = program.external_names
        self._int_names = program.internal_names
        self._act_names = program.action_names

    # -- inputs ----------------------------------------------------------

    def inject(self, event: Atom | str) -> bool:
        """Deliver an external event, given unmarked.  Returns False if it
        was coalesced into an instance already pending."""
        atom = parse_atom_text(event) if isinstance(event, str) else event
        if atom.marker != PLAIN:
            raise DaliConfigError(f"inbox event {atom} is marked; give the event name")
        if atom.name not in self._ext_names:
            raise DaliConfigError(
                f"'{atom.name}' is not a declared external event of "
                f"agent {self.program.name}"
            )
        self._version += 1
        ev = self.state.ev
        name = atom.name
        if name in ev:
            self.state.coalesced[name] = self.state.coalesced.get(name, 0) + 1
            return False
        ev[name] = atom
        self._ev_names = None
        return True

    def add_query(self, atom: Atom | str) -> int:
        """Add a user query as a new component; returns its index."""
        a = parse_atom_text(atom) if isinstance(atom, str) else atom
        return self._add_component(QUERY, a).index

    # -- stepping ----------------------------------------------------------

    @property
    def steps_taken(self) -> int:
        return len(self.records)

    @property
    def quiescent(self) -> bool:
        if self._pending or self.state.ev or self.state.iv:
            return False
        if self._active:
            return False
        return self._find_attempt() is None

    def step(self) -> StepRecord | None:
        """Apply one transition; None means no step kind is applicable."""
        if self._pending:
            return self._completion_step()
        n = len(self.records) + 1
        internal_due = (n - 1) % self.strategy.internal_check_period == 0
        external_due = (n - 1) % self.strategy.event_check_period == 0
        if internal_due:
            rec = self._internal_phase(n)
            if rec is not None:
                return rec
        rec = self._advance_components(n)
        if rec is not None:
            return rec
        # Off-schedule work still runs rather than idling; the periods
        # only decide who goes first when several step kinds apply, so a
        # due external join precedes an off-schedule internal phase.
        ev = self.state.ev
        if not internal_due and not (ev and external_due):
            rec = self._internal_phase(n)
            if rec is not None:
                return rec
        if ev:
            return self._join(n, EXTERNAL_REACTION, "iv")
        return None

    def run(self, max_steps: int | None = None) -> list[StepRecord]:
        """Step until quiescence or the budget runs out; returns the
        records produced by this call."""
        budget = self.strategy.max_steps if max_steps is None else max_steps
        out: list[StepRecord] = []
        while len(out) < budget:
            rec = self.step()
            if rec is None:
                break
            out.append(rec)
        return out

    def component_outcomes(self) -> tuple[ComponentOutcome, ...]:
        return tuple(
            ComponentOutcome(
                c.index,
                c.origin,
                str(c.origin_atom) if c.origin_atom else None,
                c.status,
                c.failure,
            )
            for c in self.components
        )

    # -- the six step kinds -------------------------------------------------

    def _record(self, n, case, selected, comp: Component, **deltas) -> StepRecord:
        if self._ev_names is None:
            self._ev_names = tuple(self.state.ev)
        if self._iv_names is None:
            self._iv_names = tuple(self.state.iv)
        rec = StepRecord(
            step=n,
            case=case,
            selected=selected,
            component=comp.index,
            goal=comp.goal,
            ev=self._ev_names,
            iv=self._iv_names,
            pv=self._pv_names,
            **deltas,
        )
        self.records.append(rec)
        return rec

    def _internal_phase(self, n) -> StepRecord | None:
        if self.state.iv:
            return self._join(n, INTERNAL_REACTION, "v")
        pos = self._find_attempt()
        if pos is None:
            return None
        internals = self.program.internals
        atom = internals[pos]
        self._attempt_cursor = (pos + 1) % len(internals)
        self._last_attempt[atom.name] = self._version
        comp = self._add_component(INTERNAL_ATTEMPT, atom)
        return self._record(n, "vi", atom.name, comp)

    def _join(self, n, origin, case) -> StepRecord:
        """Join the oldest event of EV (an external reaction) or IV as a
        new reaction component, moving it to PV."""
        st = self.state
        if origin == EXTERNAL_REACTION:
            name, event = st.ev.popitem(last=False)
            if self._ev_names is not None:
                self._ev_names = self._ev_names[1:]
            removed = {"ev_removed": (name,)}
        else:
            name, event = st.iv.popitem(last=False)
            if self._iv_names is not None:
                self._iv_names = self._iv_names[1:]
            removed = {"iv_removed": (name,)}
        pv_added = ()
        if name not in self._pv_set:
            st.pv.add(event)
            self._pv_set.add(name)
            pv_added = (name,)
            names = list(self._pv_names)
            insort(names, name)
            self._pv_names = tuple(names)
        self._version += 1
        comp = self._add_component(origin, event, reaction_pending=True)
        return self._record(n, case, name, comp, pv_added=pv_added, **removed)

    def _find_attempt(self) -> int | None:
        """Position in `program.internals` of the next internal event
        worth attempting, in declaration order from the cursor.

        Pure internal events only: attempting a dual action/internal atom
        would perform the action unprompted.  An event is skipped while
        pending or already reacted to, while an attempt of it is running,
        and when nothing changed since its last attempt.
        """
        internals = self.program.internals
        iv, pv = self.state.iv, self._pv_set
        for offset in range(len(internals)):
            pos = (self._attempt_cursor + offset) % len(internals)
            name = internals[pos].name
            if name in self._act_names or name in iv or name in pv:
                continue
            if name in self._attempting or self._last_attempt.get(name) == self._version:
                continue
            return pos
        return None

    def _advance_components(self, n) -> StepRecord | None:
        """One step of the first active component whose index is at
        least `_rr`, wrapping around; `_rr` then moves past it."""
        active = self._active
        i = bisect_left(active, self._rr, key=_INDEX)
        for _ in range(len(active)):
            if i == len(active):
                i = 0
            comp = active[i]
            rec = self._advance(comp, n)
            if rec is not None:
                self._rr = (comp.index + 1) % len(self.components)
                return rec
            # The component failed and left the list, so position i now
            # holds the next one; keep looking for other work.
        return None

    def _advance(self, comp: Component, n) -> StepRecord | None:
        """One transition inside a component; on a failed branch, resume
        at the newest choice point.  None means the component just failed
        for good (choice points exhausted)."""
        ga = comp.atoms[0]
        atom = ga.atom
        if atom.marker == PRESENT:
            if atom.name in self.state.ev:
                selected = comp.goal[0]
                self._replace_leftmost(comp, ())
                return self._record(n, "iii", selected, comp)
            reason = f"now({atom.name}) unsatisfied: event not pending"
        elif atom.marker == PAST:
            if atom.name in self._pv_set:
                selected = comp.goal[0]
                self._replace_leftmost(comp, ())
                return self._record(n, "i", selected, comp)
            reason = f"past({atom.name}) unsatisfied: event never reacted to"
        elif comp.reaction_pending:
            comp.reaction_pending = False
            clause = self.program.reactive_clause(atom.name)
            if clause is not None:
                return self._resolve(comp, clause, n)
            reason = f"event '{atom.name}' has no reactive rule"
        elif atom.name in ga.ancestors:
            reason = f"loop detected on '{atom.name}'"
        else:
            candidates = self.program.defining_clauses(atom.name)
            if candidates:
                if len(candidates) > 1:
                    comp.choicepoints.append(
                        _ChoicePoint(comp.atoms, comp.goal, candidates[1:])
                    )
                return self._resolve(comp, candidates[0], n)
            if atom.name in self._act_names:
                # An action without an action rule always succeeds.
                self._replace_leftmost(comp, ())
                iv_added = self._perform(atom, n)
                return self._record(
                    n, "ii", atom.name, comp, performed=atom.name, iv_added=iv_added
                )
            reason = f"no clause for '{atom.name}'"

        # Chronological backtracking: restore the goal as it was and try
        # the selected atom's next clause; that retry is the transition.
        cp = comp.choicepoints.pop() if comp.choicepoints else None
        if cp is None:
            self._finish(comp, FAILED, reason)
            return None
        comp.atoms, comp.goal = cp.atoms, cp.goal
        if len(cp.candidates) > 1:
            comp.choicepoints.append(_ChoicePoint(cp.atoms, cp.goal, cp.candidates[1:]))
        return self._resolve(comp, cp.candidates[0], n)

    def _resolve(self, comp: Component, clause: Clause, n) -> StepRecord:
        """SLD step: replace the selected atom with the clause body."""
        ga = comp.atoms[0]
        atom = ga.atom
        selected = comp.goal[0]
        ancestors = ga.ancestors | {atom.name}
        children = tuple(GoalAtom(b, ancestors) for b in clause.body)
        internal = atom.name in self._int_names
        if clause.kind == ACTION:
            children += (_Region(atom, comp.index, True, internal),)
        elif clause.kind != REACTIVE and internal:
            # A proved internal event must be recorded; nest its subproof.
            # Resolving with the reactive rule is the reaction itself, so
            # it must not re-record the event.
            children += (_Region(atom, comp.index, False, True),)
        self._replace_leftmost(comp, children, tuple(map(str, clause.body)))
        return self._record(n, "i", selected, comp)

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

    def _add_component(self, origin, atom: Atom, reaction_pending=False) -> Component:
        comp = Component(
            len(self.components), origin, atom, (GoalAtom(atom),), (str(atom),),
            reaction_pending=reaction_pending,
        )
        self.components.append(comp)
        self._active.append(comp)
        if origin == INTERNAL_ATTEMPT:
            self._attempting.add(atom.name)
        return comp

    def _finish(self, comp: Component, status: str, failure: str | None = None) -> None:
        """The only change of a component's status: it leaves the active
        list and, for an attempt, the running attempts."""
        comp.status = status
        comp.failure = failure
        del self._active[bisect_left(self._active, comp.index, key=_INDEX)]
        if comp.origin == INTERNAL_ATTEMPT:
            self._attempting.discard(comp.origin_atom.name)

    # -- nested subproofs --------------------------------------------------

    def _completion_step(self) -> StepRecord:
        region = self._pending.pop(0)
        n = len(self.records) + 1
        performed = None
        iv_added: tuple[str, ...] = ()
        if region.perform:
            performed = region.owner.name
            iv_added = self._perform(region.owner, n)
        elif region.record_iv:
            iv_added = self._record_internal(region.owner)
        return self._record(
            n,
            "ii",
            region.owner.name,
            self.components[region.component],
            performed=performed,
            iv_added=iv_added,
        )

    def _perform(self, atom: Atom, step: int) -> tuple[str, ...]:
        self.state.performed.append((atom, step))
        if self.on_action is not None:
            self.on_action(atom, step)
        if atom.name in self._int_names:
            return self._record_internal(atom)
        return ()

    def _record_internal(self, atom: Atom) -> tuple[str, ...]:
        # One live instance per conclusion: re-deriving an event that is
        # still pending, or that the agent already reacted to, does not
        # queue another reaction.
        name = atom.name
        iv = self.state.iv
        if name in iv or name in self._pv_set:
            return ()
        iv[name] = atom
        self._iv_names = None
        return (name,)


@dataclass(frozen=True, slots=True)
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
    max_steps: int | None = None,
) -> RunResult:
    """Run one agent to quiescence (or the step budget).

    The inbox holds (tick, event) pairs; an entry at tick t is delivered
    once t interpreter steps have run, or immediately at quiescence if
    the agent got there early.
    """
    engine = Engine(program, strategy)
    query_index = None
    if query is not None:
        query_index = engine.add_query(query)
    pending = sorted(
        (ScriptEntry(int(t), "", parse_atom_text(e) if isinstance(e, str) else e)
         for t, e in inbox),
        key=lambda entry: entry.tick,
    )
    budget = max_steps if max_steps is not None else engine.strategy.max_steps
    truncated = False
    i = 0  # pending[i:] are still to be delivered

    def deliver(up_to: int) -> None:
        nonlocal i
        while i < len(pending) and pending[i].tick <= up_to:
            engine.inject(pending[i].event)
            i += 1

    while True:
        deliver(engine.steps_taken)
        if engine.steps_taken >= budget:
            truncated = not engine.quiescent or i < len(pending)
            break
        if engine.step() is None:
            if i == len(pending):
                break
            deliver(pending[i].tick)
    outcomes = engine.component_outcomes()
    query_ok = None
    if query_index is not None:
        query_ok = outcomes[query_index].status == SUCCEEDED
    return RunResult(
        engine.state, tuple(engine.records), outcomes, truncated, query_ok
    )
