"""Brute-force reference implementations used to check the real ones.

Deliberately slow and structure-free: the fixpoint rescans every clause
each round, and the interleaving search enumerates every choice the
resolution rules permit (which component, which atom, which clause,
which event) breadth-first, so bugs here are unlikely to correlate with
bugs in the engine or the semantics module.
"""

from __future__ import annotations

from collections import deque

from .errors import frozen
from .model import ACTION, PAST, PRESENT, AgentProgram, Atom
from .parser import as_atom
from .semantics import TransformedProgram


def naive_fixpoint(clauses) -> frozenset[str]:
    """Least model of `(head, body, ...)` sequences or a `TransformedProgram`,
    by iterating the immediate-consequence step from {}."""
    if isinstance(clauses, TransformedProgram):
        clauses = clauses.clauses
    rules = [(c[0], tuple(c[1])) for c in clauses]
    model: set[str] = set()
    changed = True
    while changed:
        changed = False
        for head, body in rules:
            if head not in model and all(b in model for b in body):
                model.add(head)
                changed = True
    return frozenset(model)


# A state whose component goal grows past this many atoms is not
# expanded, and the search counts as truncated.
MAX_GOAL_ATOMS = 64


@frozen
class ReachabilityResult:
    """Everything the search reached before quiescing or giving up."""

    outcomes: frozenset[tuple[tuple[str, ...], frozenset[str]]]
    explored: int
    truncated: bool

    @property
    def action_multisets(self) -> frozenset[tuple[str, ...]]:
        return frozenset(performed for performed, _ in self.outcomes)

    @property
    def pv_sets(self) -> frozenset[frozenset[str]]:
        return frozenset(pv for _, pv in self.outcomes)

    def contains(self, performed, pv) -> bool:
        """Is (performed multiset, final PV) a reachable outcome?"""
        key = (tuple(sorted(performed)), frozenset(pv))
        return key in self.outcomes


# Search states are nested tuples for hashability: a goal atom is
# (atom, ancestors, region-ids), a component is (reaction_pending, atoms),
# a region is (owner name, perform, record_iv).
@frozen
class _State:
    comps: tuple
    regions: tuple  # regions[rid] = (owner name, perform, record_iv)
    ev: frozenset
    iv: frozenset
    pv: frozenset
    performed: tuple  # sorted multiset of action names
    attempted: frozenset


def _canon(state: _State) -> _State:
    """Relabel region ids in first-appearance order so equivalent states
    from different paths collide in the visited set."""
    order: dict[int, int] = {}
    for _, atoms in state.comps:
        for _, _, rids in atoms:
            for r in rids:
                if r not in order:
                    order[r] = len(order)
    comps = tuple(
        (rp, tuple((a, anc, tuple(order[r] for r in rids)) for a, anc, rids in atoms))
        for rp, atoms in state.comps
    )
    regions = [None] * len(order)
    for old, new in order.items():
        regions[new] = state.regions[old]
    return _State(
        comps,
        tuple(regions),
        state.ev,
        state.iv,
        state.pv,
        state.performed,
        state.attempted,
    )


def exhaustive_interleavings(
    program: AgentProgram,
    inbox=(),
    query: Atom | str | None = None,
    max_states: int = 100_000,
) -> ReachabilityResult:
    """Enumerate every outcome reachable under some interleaving.

    All inbox events are pending from the start.  An outcome (performed
    multiset, final past-event set) is recorded wherever the only
    applicable moves, if any, are self-triggered attempts, since a
    strategy may schedule those never; attempt branches are explored as
    well.  Only intended for tiny instances; the search truncates at
    max_states.  Text is parsed as `x`, `past(x)` or `now(x)`; an inbox
    event that is marked or not a declared external event of the agent
    is a `DaliConfigError`, as in `Engine.inject`.
    """
    internal_names = program.internal_names
    action_names = program.action_names

    ev = frozenset(program.inbox_name(as_atom(e)) for e in inbox)
    comps: tuple = ()
    if query is not None:
        comps = ((False, ((as_atom(query), frozenset(), ()),)),)
    start = _State(comps, (), ev, frozenset(), frozenset(), (), frozenset())

    def perform(performed, iv, pv, name):
        performed = tuple(sorted(performed + (name,)))
        # One live instance per conclusion, as in the engine: no re-entry
        # into IV while pending or once reacted to.
        if name in internal_names and name not in pv:
            iv = iv | {name}
        return performed, iv

    def after_removal(state, ci, new_atoms, opened=None):
        """Rebuild a state after component ci's atoms changed, applying
        the completion effects of any region that just emptied."""
        old_atoms = state.comps[ci][1]
        before = {r for _, _, rids in old_atoms for r in rids}
        if opened is not None:
            before.add(opened)
        present = {r for _, _, rids in new_atoms for r in rids}
        performed, iv, pv = state.performed, state.iv, state.pv
        for rid in before - present:
            owner, do_perform, record_iv = state.regions[rid]
            if do_perform:
                performed, iv = perform(performed, iv, pv, owner)
            elif record_iv and owner not in pv:
                iv = iv | {owner}
        comps = list(state.comps)
        comps[ci] = (False, new_atoms)
        return _State(
            tuple(comps), state.regions, state.ev, iv, state.pv, performed,
            state.attempted,
        )

    def attempt_successors(state: _State):
        out = []
        for a in program.internals:
            if a.name in state.attempted:
                continue
            comps = state.comps + ((False, ((a, frozenset(), ()),)),)
            out.append(
                _State(
                    comps, state.regions, state.ev, state.iv, state.pv,
                    state.performed, state.attempted | {a.name},
                )
            )
        return out

    def successors(state: _State):
        out = []
        for ci, (reaction_pending, atoms) in enumerate(state.comps):
            if not atoms:
                continue
            if reaction_pending:
                (head, anc, rids), rest = atoms[0], atoms[1:]
                clause = program.reactive_clause(head.name)
                if clause is not None:
                    anc2 = anc | {head.name}
                    children = tuple((b, anc2, rids) for b in clause.body)
                    out.append(after_removal(state, ci, children + rest))
                continue
            for j, (atom, anc, rids) in enumerate(atoms):
                rest = atoms[:j] + atoms[j + 1 :]
                if atom.marker == PRESENT:
                    if atom.name in state.ev:
                        out.append(after_removal(state, ci, rest))
                    continue
                if atom.marker == PAST:
                    if atom.name in state.pv:
                        out.append(after_removal(state, ci, rest))
                    continue
                if atom.name in anc:
                    continue
                clauses = program.defining_clauses(atom.name)
                if not clauses and atom.name in action_names:
                    performed, iv = perform(
                        state.performed, state.iv, state.pv, atom.name
                    )
                    base = _State(
                        state.comps, state.regions, state.ev, iv, state.pv,
                        performed, state.attempted,
                    )
                    out.append(after_removal(base, ci, rest))
                    continue
                for clause in clauses:
                    anc2 = anc | {atom.name}
                    rids2, regions, opened = rids, state.regions, None
                    if clause.kind == ACTION or atom.name in internal_names:
                        opened = len(regions)
                        regions = regions + (
                            (
                                atom.name,
                                clause.kind == ACTION,
                                atom.name in internal_names,
                            ),
                        )
                        rids2 = rids + (opened,)
                    children = tuple((b, anc2, rids2) for b in clause.body)
                    with_region = _State(
                        state.comps, regions, state.ev, state.iv, state.pv,
                        state.performed, state.attempted,
                    )
                    out.append(
                        after_removal(
                            with_region, ci, atoms[:j] + children + atoms[j + 1 :],
                            opened,
                        )
                    )
        for e in state.ev:
            comps = state.comps + ((True, ((Atom(e), frozenset(), ()),)),)
            out.append(
                _State(
                    comps, state.regions, state.ev - {e}, state.iv,
                    state.pv | {e}, state.performed, state.attempted,
                )
            )
        for e in state.iv:
            comps = state.comps + ((True, ((Atom(e), frozenset(), ()),)),)
            out.append(
                _State(
                    comps, state.regions, state.ev, state.iv - {e},
                    state.pv | {e}, state.performed, state.attempted,
                )
            )
        return out

    seen: set[_State] = set()
    queue: deque[_State] = deque([_canon(start)])
    seen.add(queue[0])
    outcomes: set[tuple] = set()
    truncated = False

    while queue:
        state = queue.popleft()
        if any(len(atoms) > MAX_GOAL_ATOMS for _, atoms in state.comps):
            truncated = True
            continue
        succ = successors(state)
        if not succ:
            # Quiescent except possibly for self-triggered attempts, which
            # a strategy is free to schedule never: record the outcome,
            # then keep exploring the attempt branches too.
            outcomes.add((state.performed, state.pv))
        succ += attempt_successors(state)
        for nxt in succ:
            nxt = _canon(nxt)
            if nxt in seen:
                continue
            if len(seen) >= max_states:
                truncated = True
                break
            seen.add(nxt)
            queue.append(nxt)

    return ReachabilityResult(frozenset(outcomes), len(seen), truncated)
