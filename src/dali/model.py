"""Core data model for DALI agents: atoms, clauses, role sets, validation.

A DALI agent is a propositional Horn-clause program plus three role sets:
external events (made true by the outside world), internal events (own
conclusions the agent reacts to) and actions (atoms whose success is an
effect on the environment).  Past and present markers wrap event atoms in
rule bodies so the agent can reason about what has happened already and
what is pending.
"""

from __future__ import annotations

import re
from dataclasses import field

from .errors import DaliConfigError, frozen

# Atom markers.
PLAIN = "plain"
PAST = "past"
PRESENT = "present"
MARKERS = (PLAIN, PAST, PRESENT)
# How the plain program P' of `dali.semantics` names a marked atom:
# `past(e)` is `past_e` and `now(e)` is `now_e`.
MARKER_PREFIX = {PLAIN: "", PAST: "past_", PRESENT: "now_"}

# Clause kinds.
ORDINARY = "ordinary"
REACTIVE = "reactive"
ACTION = "action"
KINDS = (ORDINARY, REACTIVE, ACTION)

ARROWS = {ORDINARY: ":-", REACTIVE: ":>", ACTION: ":<"}

_IDENT = re.compile(r"[A-Za-z_]\w*\Z")


def is_identifier(name: str) -> bool:
    return bool(_IDENT.match(name))


@frozen
class Atom:
    """A propositional atom, optionally wrapped in a past/present marker."""

    name: str
    marker: str = PLAIN

    def __post_init__(self):
        if not is_identifier(self.name):
            raise ValueError(f"bad atom name: {self.name!r}")
        if self.marker not in MARKERS:
            raise ValueError(f"bad marker: {self.marker!r}")

    @classmethod
    def _unchecked(cls, name: str, marker: str = PLAIN) -> "Atom":
        """An atom whose name is an identifier and whose marker is one
        of MARKERS by construction, as the parser's are; it skips
        `__post_init__` and is otherwise the atom `Atom(name, marker)`."""
        atom = _new(cls)
        _set_name(atom, name)
        _set_marker(atom, marker)
        return atom

    @classmethod
    def past(cls, name: str) -> "Atom":
        return cls(name, PAST)

    @classmethod
    def now(cls, name: str) -> "Atom":
        return cls(name, PRESENT)

    def __str__(self) -> str:
        if self.marker == PAST:
            return f"past({self.name})"
        if self.marker == PRESENT:
            return f"now({self.name})"
        return self.name


@frozen
class Clause:
    """One rule.  A fact is an ordinary clause with an empty body.

    Body order is significant and preserved: responses in a reactive body
    run left to right.
    """

    head: Atom
    body: tuple[Atom, ...] = ()
    kind: str = ORDINARY

    def __post_init__(self):
        object.__setattr__(self, "body", tuple(self.body))
        if self.kind not in KINDS:
            raise ValueError(f"bad clause kind: {self.kind!r}")

    @classmethod
    def _unchecked(cls, head: Atom, body: tuple[Atom, ...], kind: str) -> "Clause":
        """A clause whose body is a tuple and whose kind is one of KINDS
        by construction, as the parser's are; see `Atom._unchecked`."""
        clause = _new(cls)
        _set_head(clause, head)
        _set_body(clause, body)
        _set_kind(clause, kind)
        return clause

    def __str__(self) -> str:
        if not self.body:
            return f"{self.head}."
        body = ", ".join(str(a) for a in self.body)
        return f"{self.head} {ARROWS[self.kind]} {body}."


# Slot setters for the `_unchecked` constructors: they write a field of
# a frozen instance directly, as `object.__setattr__` would, without
# looking the slot up again on every call.
_new = object.__new__
_set_name = Atom.name.__set__
_set_marker = Atom.marker.__set__
_set_head = Clause.head.__set__
_set_body = Clause.body.__set__
_set_kind = Clause.kind.__set__


def _role(atoms) -> tuple[tuple[Atom, ...], frozenset[str]]:
    """A role's atoms in declaration order without repeats, and its name
    set.  Atoms with distinct names are distinct, so the atoms are
    compared only when a name repeats."""
    atoms = tuple(atoms)
    names = frozenset([a.name for a in atoms])
    if len(names) < len(atoms):
        atoms = tuple(dict.fromkeys(atoms))
    return atoms, names


@frozen
class AgentProgram:
    """A named agent: ordered clauses plus declared role sets.

    Role sets keep declaration order (it drives the interpreter's
    round-robin over internal events) but behave as sets: duplicates are
    dropped on construction (see `_role`).  The program is immutable, so
    the name sets and the head-name clause indexes are built once, here,
    the validation report on the first `validate_program` call and what
    resolution with each clause needs on its first use by an engine;
    none of them is part of equality, hashing or repr.
    """

    name: str
    clauses: tuple[Clause, ...] = ()
    externals: tuple[Atom, ...] = ()
    internals: tuple[Atom, ...] = ()
    actions: tuple[Atom, ...] = ()
    external_names: frozenset[str] = field(init=False, repr=False, compare=False)
    internal_names: frozenset[str] = field(init=False, repr=False, compare=False)
    action_names: frozenset[str] = field(init=False, repr=False, compare=False)
    event_names: frozenset[str] = field(init=False, repr=False, compare=False)
    _reactive: dict[str, Clause] = field(init=False, repr=False, compare=False)
    _action: dict[str, Clause] = field(init=False, repr=False, compare=False)
    _defining: dict[str, tuple[Clause, ...]] = field(
        init=False, repr=False, compare=False
    )
    _report: ValidationReport | None = field(init=False, repr=False, compare=False)
    _resolution: tuple[dict, dict] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        setattr_ = object.__setattr__
        setattr_(self, "clauses", tuple(self.clauses))
        externals, ext = _role(self.externals)
        internals, internal = _role(self.internals)
        actions, act = _role(self.actions)
        setattr_(self, "externals", externals)
        setattr_(self, "internals", internals)
        setattr_(self, "actions", actions)
        setattr_(self, "external_names", ext)
        setattr_(self, "internal_names", internal)
        setattr_(self, "action_names", act)
        setattr_(self, "event_names", ext | internal)
        # The first reactive or action rule per head wins, in program
        # order; validation reports any later one.
        reactive: dict[str, Clause] = {}
        action: dict[str, Clause] = {}
        defining: dict[str, list[Clause]] = {}
        for c in self.clauses:
            if c.kind == REACTIVE:
                reactive.setdefault(c.head.name, c)
                continue
            if c.kind == ACTION:
                action.setdefault(c.head.name, c)
            defining.setdefault(c.head.name, []).append(c)
        setattr_(self, "_reactive", reactive)
        setattr_(self, "_action", action)
        setattr_(self, "_defining", {h: tuple(cs) for h, cs in defining.items()})
        setattr_(self, "_report", None)
        # Filled by `dali.engine` as its engines resolve with the clauses.
        setattr_(self, "_resolution", ({}, {}))

    # -- clause lookup ----------------------------------------------------

    def reactive_clause(self, name: str) -> Clause | None:
        return self._reactive.get(name)

    def action_clause(self, name: str) -> Clause | None:
        return self._action.get(name)

    def defining_clauses(self, name: str) -> tuple[Clause, ...]:
        """Clauses usable to prove `name`: ordinary rules and the action
        rule, in program order.  Reactive clauses never prove their head."""
        return self._defining.get(name, ())

    # -- inbox ----------------------------------------------------------

    def inbox_name(self, atom: Atom) -> str:
        """The name of an event delivered to this agent's inbox, which
        must be unmarked and a declared external event."""
        if atom.marker != PLAIN:
            raise DaliConfigError(f"inbox event {atom} is marked; give the event name")
        if atom.name not in self.external_names:
            raise DaliConfigError(
                f"'{atom.name}' is not a declared external event of agent {self.name}"
            )
        return atom.name


@frozen
class ValidationIssue:
    clause_index: int | None
    rule: str
    message: str


@frozen
class ValidationReport:
    errors: tuple[ValidationIssue, ...] = ()
    warnings: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.errors


def validate_program(p: AgentProgram) -> ValidationReport:
    """Check every structural restriction on an agent program.

    Pure and deterministic; violations are reported as data, never raised.
    Programs with an empty error list are accepted by the engine.  The
    report is computed once per program and kept on it.
    """
    report = p._report
    if report is None:
        report = _validate(p)
        object.__setattr__(p, "_report", report)
    return report


def _validate(p: AgentProgram) -> ValidationReport:
    errors: list[ValidationIssue] = []
    warnings: list[str] = []
    ext = p.external_names
    internal = p.internal_names
    act = p.action_names
    events = ext | internal

    def err(idx, rule, msg):
        errors.append(ValidationIssue(idx, rule, msg))

    # A declaration names an event or action: it carries no marker.
    for role, atoms in (("external", p.externals), ("internal", p.internals),
                        ("action", p.actions)):
        for a in atoms:
            if a.marker != PLAIN:
                err(None, "marked-declaration", f"declaration @{role} {a} carries a marker")

    # Role sets: an external event comes from outside, so it can be
    # neither an own conclusion nor an own action.  Internal+action is
    # fine (the agent reacts to its own actions).
    for name in sorted(ext & internal):
        err(None, "role-conflict", f"'{name}' declared both external and internal")
    for name in sorted(ext & act):
        err(None, "role-conflict", f"'{name}' declared both external and action")

    # P' names past(E) and now(E) by MARKER_PREFIX, so no atom may take
    # either name.  A reactive or action head, or a marked atom, with
    # such a name must be declared to pass the other rules, and is
    # reported with its declaration; ordinary heads and plain body atoms
    # are checked clause by clause below.  A reserved name maps to the
    # (name, marker) of its atom.
    reserved = {
        MARKER_PREFIX[marker] + e: (e, marker)
        for marker, names in ((PAST, events), (PRESENT, ext))
        for e in names
    }

    def reserved_name(idx, name):
        marked = Atom(*reserved[name])
        err(idx, "reserved-name", f"atom name '{name}' is reserved for {marked}")

    for name in sorted(reserved.keys() & (events | act)):
        reserved_name(None, name)

    # A reactive (action) rule needs a declared event (action) as its
    # head, a body, and no earlier rule of its kind for that head.  Kind
    # -> (what its head must be, the declared names, the heads seen).
    single_rules = {REACTIVE: ("event", events, set()), ACTION: ("action", act, set())}

    for i, c in enumerate(p.clauses):
        if c.head.marker != PLAIN:
            err(i, "marked-head", f"clause head {c.head} carries a marker")
            continue
        h = c.head.name

        if c.kind in single_rules:
            kind = c.kind
            role, declared, seen = single_rules[kind]
            if h not in declared:
                err(
                    i,
                    f"undeclared-{kind}-head",
                    f"{kind} rule for '{h}', which is not a declared {role}",
                )
            if not c.body:
                err(i, f"empty-{kind}-body", f"{kind} rule for '{h}' has no body")
            if h in seen:
                err(i, f"multiple-{kind}", f"second {kind} rule for '{h}'; only one is allowed")
            seen.add(h)
        else:
            # Ordinary rules may not define externally-driven atoms or
            # actions: externals become true only from outside, actions
            # only through their single action rule.
            if h in ext:
                err(
                    i,
                    "external-ordinary-head",
                    f"ordinary rule defines external event '{h}'",
                )
            if h in act:
                err(
                    i,
                    "action-ordinary-head",
                    f"ordinary rule defines action '{h}'; use an action rule",
                )
            if h in reserved:
                reserved_name(i, h)

        for a in c.body:
            if a.marker == PLAIN and a.name in ext:
                err(
                    i,
                    "external-in-body",
                    f"external event '{a.name}' used plain in a body; "
                    f"wrap it in past(..) or now(..)",
                )
            elif a.marker == PRESENT and a.name not in ext:
                err(
                    i,
                    "bad-now-marker",
                    f"now({a.name}) requires '{a.name}' to be a declared "
                    f"external event",
                )
            elif a.marker == PAST and a.name not in events:
                err(
                    i,
                    "bad-past-marker",
                    f"past({a.name}) requires '{a.name}' to be a declared event",
                )
            elif a.marker == PLAIN and a.name in reserved:
                reserved_name(i, a.name)

    for e in p.externals:
        if p.reactive_clause(e.name) is None:
            warnings.append(
                f"external event '{e.name}' has no reactive rule; "
                f"it will be consumed without a reaction"
            )
    for e in p.internals:
        if p.reactive_clause(e.name) is None:
            warnings.append(f"internal event '{e.name}' has no reactive rule")

    return ValidationReport(tuple(errors), tuple(warnings))
