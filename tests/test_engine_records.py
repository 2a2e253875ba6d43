"""Single-agent step records pinned byte for byte, and the engine's
live scheduling state checked against a recomputation.

Every single-agent scenario runs through `run_agent` with its `.events`
inbox where it has one, plus a few queries and a 30-event chain built
here.  Each run's step records, every field included, and its component
outcomes must match the JSONL file stored under `tests/data/engine/`.
After every step of the same runs, the engine's live state must equal
what a scan of the whole run gives: quiescence, the active list, the
running attempts, the EV, IV and PV name tuples the records share, the
set of PV names, the performed actions the records name, and the goal
text of every component and of every choice point, including right
after a backtrack.  A finished component holds no goal and no choice
points, and every goal atom's ancestor set holds only bits that its
program gave a name.  On these runs a step returns None exactly when the
engine is quiescent.
`run_agent` must also give, on random inboxes and budgets, what a loop
of single steps under the same delivery rule gives.
The engine builds its named tuples positionally, with `tuple.__new__`,
which checks neither the number nor the order of the fields: on the same
runs and on every bundled system, each one it builds must be whole, and
each field must hold what its name says.

Regenerate the files (only when a change of behaviour is intended):

    PYTHONPATH=src python tests/test_engine_records.py
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dali.engine
from dali.engine import (
    ACTIVE,
    FAILED,
    INTERNAL_ATTEMPT,
    SUCCEEDED,
    ComponentOutcome,
    Engine,
    GoalAtom,
    StepRecord,
    Strategy,
    _ChoicePoint,
    _Region,
    run_agent,
)
from dali.model import PLAIN, Atom, Clause
from dali.parser import as_atom, load_agent_file, load_event_script, parse_agent_file
from dali.runtime import SystemRunner, load_system_config

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "scenarios"
DATA = Path(__file__).resolve().parent / "data" / "engine"

QUERIES = [
    ("action1", "p"),
    ("action2", "p"),
    ("snapshot1", "p"),
    ("snapshot2", "p"),
    ("george", "happy"),
    ("anne", "go_out"),
]


def chain_source(n: int = 30) -> str:
    """n internal events, each enabled by the previous one's reaction,
    declared out of chain order so that most attempts fail, plus an
    external event that arrives in bursts while the chain runs."""
    lines = ["agent Chain.", "@external ping."]
    lines += [f"@internal e_{(7 * i) % n}." for i in range(n)]
    lines += [f"@action a_{k}." for k in range(n)] + ["@action pong."]
    lines.append("e_0.")
    for k in range(n):
        if k:
            lines.append(f"e_{k} :- past(e_{k - 1}).")
        lines.append(f"e_{k} :> a_{k}.")
    lines.append("ping :> pong.")
    return "\n".join(lines) + "\n"


CHAIN_INBOX = [(0, "ping"), (7, "ping"), (7, "ping"), (60, "ping"),
               (100_000, "ping"), (100_000, "ping")]


def runs():
    """(name, program, query, inbox) of every pinned run."""
    out = []
    for path in sorted(SCENARIOS.glob("*.dali")):
        events = path.with_suffix(".events")
        inbox = []
        if events.exists():
            inbox = [(e.tick, e.event) for e in load_event_script(events).entries]
        out.append((path.stem, load_agent_file(path), None, inbox))
    for stem, query in QUERIES:
        out.append((f"{stem}-query-{query}",
                    load_agent_file(SCENARIOS / f"{stem}.dali"), query, []))
    out.append(("chain30", parse_agent_file(chain_source()), None, CHAIN_INBOX))
    return out


RUNS = runs()


def record_lines(program, query, inbox) -> list[str]:
    result = run_agent(program, query=query, inbox=inbox)
    lines = [{"record": r._asdict()} for r in result.records]
    lines += [{"outcome": o._asdict()} for o in result.outcomes]
    lines.append({"truncated": result.truncated,
                  "query_succeeded": result.query_succeeded})
    return [json.dumps(line) for line in lines]


@pytest.mark.parametrize("name,program,query,inbox", RUNS, ids=[r[0] for r in RUNS])
def test_records_match_golden(name, program, query, inbox):
    golden = (DATA / f"{name}.jsonl").read_text(encoding="utf-8").splitlines()
    assert record_lines(program, query, inbox) == golden


def test_chain_run_is_long_and_busy():
    """The chain must exercise what a short scenario does not: many
    failed attempts, late inbox entries and coalesced arrivals."""
    result = run_agent(parse_agent_file(chain_source()), inbox=CHAIN_INBOX)
    assert len(result.records) > 500
    assert sum(o.status == FAILED for o in result.outcomes) > 100
    assert result.state.coalesced
    assert not result.truncated


def goal_text(atoms) -> tuple[str, ...]:
    return tuple(str(g.atom) for g in atoms if type(g) is GoalAtom)


def check_live_state(engine: Engine) -> None:
    st = engine.state
    active = [c for c in engine.components if c.status == ACTIVE]
    assert [c.index for c in engine._active] == [c.index for c in active]
    assert all(a is b for a, b in zip(engine._active, active))
    assert engine._attempting == {
        c.origin_text for c in active if c.origin == INTERNAL_ATTEMPT
    }
    for queue in (st.ev, st.iv):
        assert all(k == a.name and a.marker == PLAIN for k, a in queue.items())
    assert engine._ev_names == tuple(a.name for a in st.ev.values())
    assert engine._iv_names == tuple(a.name for a in st.iv.values())
    assert engine._pv_names == tuple(sorted(st.pv))
    # The runtime routes actions from the records, so they must name
    # every performed action, in order.
    performed = [r.performed for r in engine.records if r.performed is not None]
    assert performed == list(st.performed_names())
    if engine.records:
        last = engine.records[-1]
        assert last.ev is engine._ev_names
        assert last.iv is engine._iv_names
        assert last.pv is engine._pv_names
    # The bits of a program with k named ancestors are 1, 2, .., 2**(k-1).
    named = sorted(engine._bits.values())
    assert named == [1 << i for i in range(len(named))]
    for c in engine.components:
        assert c.goal == goal_text(c.atoms)
        assert all(cp.goal == goal_text(cp.atoms) for cp in c.choicepoints)
        for atoms in [c.atoms] + [cp.atoms for cp in c.choicepoints]:
            assert all(g.ancestors >> len(named) == 0 for g in atoms if type(g) is GoalAtom)
        if c.status != ACTIVE:  # a finished component keeps its outcome only
            assert c.atoms == c.goal == c.choicepoints == ()
    assert engine.quiescent == scanned_quiescent(engine)


def scanned_quiescent(engine) -> bool:
    """`Engine.quiescent` from scratch: nothing pending or active, and
    no pure internal event left to attempt."""
    st = engine.state
    if engine._pending or st.ev or st.iv or engine._active:
        return False
    blocked = engine._act_names | st.pv | engine._attempting | engine._tried
    return all(a.name in blocked for a in engine.program.internals)


@dataclasses.dataclass
class StepCounts:
    steps: int = 0
    backtracks: int = 0


def check_every_step(monkeypatch) -> StepCounts:
    """From now on, check the live state after every engine step and
    count the steps and those of them that backtracked.  A step of a
    quiescent engine returns None, and on these runs a step that returns
    None leaves the engine quiescent."""
    step = Engine.step
    counts = StepCounts()

    def checked_step(self):
        idle = self.quiescent
        assert idle == scanned_quiescent(self)
        before = [(c, set(map(id, c.choicepoints))) for c in self._active]
        rec = step(self)
        assert rec is None or not idle
        assert rec is not None or self.quiescent
        check_live_state(self)
        counts.steps += 1
        # A choice point leaves an active component only when it
        # backtracks; a finished one releases all of them.
        counts.backtracks += any(
            cps - set(map(id, c.choicepoints)) for c, cps in before if c.status == ACTIVE
        )
        return rec

    monkeypatch.setattr(Engine, "step", checked_step)
    return counts


@pytest.mark.parametrize("name,program,query,inbox", RUNS, ids=[r[0] for r in RUNS])
def test_live_state_matches_recomputation(monkeypatch, name, program, query, inbox):
    counts = check_every_step(monkeypatch)
    result = run_agent(program, query=query, inbox=inbox)
    assert counts.steps >= len(result.records)


def test_live_state_holds_across_backtracks(monkeypatch):
    counts = check_every_step(monkeypatch)
    engine = Engine(parse_agent_file(
        "agent B. @external e. @action x.\n"
        "p :- a, now(e), missing. p :- a, past(e), x, q. p :- b.\n"
        "a. b. q :- c. q :- b.\n"
    ))
    engine.inject("e")
    engine.run()
    q = engine.add_query("p")
    engine.run()
    assert engine.components[q].status == SUCCEEDED
    assert counts.backtracks == 2
    assert [(r.selected, r.goal) for r in engine.records if r.component == q] == [
        ("p", ("a", "now(e)", "missing")),
        ("a", ("now(e)", "missing")),
        ("p", ("a", "past(e)", "x", "q")),  # now(e) failed: the second clause
        ("a", ("past(e)", "x", "q")),
        ("past(e)", ("x", "q")),
        ("x", ("q",)),
        ("q", ("c",)),
        ("q", ("b",)),  # no clause for c: q's second clause
        ("b", ()),
    ]


def test_round_robin_skips_a_failed_middle_component():
    engine = Engine(parse_agent_file("agent RR. p :- x, x, x. x."))
    for query in ("p", "missing", "p"):
        engine.add_query(query)
    records = engine.run()
    assert [r.component for r in records] == [0, 2, 0, 2, 0, 2, 0, 2]
    assert [c.status for c in engine.components] == [SUCCEEDED, FAILED, SUCCEEDED]
    assert engine.components[1].failure == "no clause for 'missing'"
    assert engine._active == [] and engine.quiescent


def reference_run(program, inbox, strategy, max_steps):
    """`run_agent`'s delivery rule as a loop of single steps: before each
    step, deliver the entries due by the steps taken; at quiescence,
    bring the next entry forward with every entry up to its tick."""
    engine = Engine(program, strategy)
    pending = sorted([(t, as_atom(e)) for t, e in inbox], key=lambda entry: entry[0])
    i = 0

    def deliver(up_to):
        nonlocal i
        while i < len(pending) and pending[i][0] <= up_to:
            engine.inject(pending[i][1])
            i += 1

    while True:
        deliver(engine.steps_taken)
        if engine.steps_taken >= max_steps:
            return engine, not engine.quiescent or i < len(pending)
        if engine.step() is None:
            if i == len(pending):
                return engine, False
            deliver(pending[i][0])


REFERENCE_PROGRAMS = {
    "chain30": parse_agent_file(chain_source()),
    "consumer": load_agent_file(SCENARIOS / "consumer.dali"),  # idle until an event
    "mary": load_agent_file(SCENARIOS / "mary.dali"),
}


@st.composite
def timed_runs(draw):
    """A program, a budget (often a tiny one), strategy periods and an
    inbox whose ticks come from a small pool: some equal, some at the
    budget, some past it."""
    program = REFERENCE_PROGRAMS[draw(st.sampled_from(sorted(REFERENCE_PROGRAMS)))]
    max_steps = draw(st.integers(0, 8) | st.integers(0, 700))
    tick = st.integers(0, max_steps) | st.just(max_steps) | st.integers(max_steps, 800)
    pool = draw(st.lists(tick, min_size=1, max_size=4))
    event = st.sampled_from([e.name for e in program.externals])
    inbox = draw(st.lists(st.tuples(st.sampled_from(pool), event), max_size=8))
    strategy = Strategy(draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    return program, inbox, strategy, max_steps


@settings(max_examples=100, deadline=None)
@given(timed_runs())
def test_run_agent_matches_the_single_step_loop(run):
    program, inbox, strategy, max_steps = run
    result = run_agent(program, inbox=inbox, strategy=strategy, max_steps=max_steps)
    engine, truncated = reference_run(program, inbox, strategy, max_steps)
    assert result.records == tuple(engine.records)
    assert result.outcomes == engine.component_outcomes()
    assert result.state == engine.state
    assert result.truncated == truncated


def of(t):
    return lambda v: type(v) is t


def tuple_of(*types):
    return lambda v: type(v) is tuple and all(type(x) in types for x in v)


def optional_name(v) -> bool:
    return v is None or type(v) is str


# What each field of each named tuple the engine builds must hold.
names = tuple_of(str)
FIELD_CHECKS = {
    StepRecord: (of(int), of(str), of(str), of(int), names, names, names, names,
                 optional_name, names, names, names, names, names),
    # An ancestor bit set; `check_live_state` checks its bits against the
    # names its program gave bits to.
    GoalAtom: (of(Atom), lambda v: type(v) is int and v >= 0),
    _ChoicePoint: (tuple_of(GoalAtom, _Region), names, lambda v: bool(v) and tuple_of(Clause)(v)),
    ComponentOutcome: (of(int), of(str), of(str), of(str), optional_name),
}


def check_whole(value) -> None:
    cls = type(value)
    assert len(value) == len(cls._fields), value
    assert value == cls(*value), value
    assert len(FIELD_CHECKS[cls]) == len(cls._fields)
    for name, check, field_value in zip(cls._fields, FIELD_CHECKS[cls], value):
        assert check(field_value), (cls.__name__, name, field_value)


def check_record_fields(engine: Engine, rec: StepRecord, before) -> None:
    """The fields of a step's record against the engine right after the
    step, and its deltas against the event sets right before it."""
    st = engine.state
    ev, iv, pv, performed = before
    assert rec.step == len(engine.records) and rec is engine.records[-1]
    assert rec.goal == engine.components[rec.component].goal
    assert (rec.ev, rec.iv, rec.pv) == (tuple(st.ev), tuple(st.iv), tuple(sorted(st.pv)))
    assert rec.ev_added == ()
    assert rec.ev_removed == tuple(n for n in ev if n not in st.ev)
    assert rec.iv_added == tuple(n for n in st.iv if n not in iv)
    assert rec.iv_removed == tuple(n for n in iv if n not in st.iv)
    assert rec.pv_added == tuple(sorted(st.pv - pv))
    assert (rec.performed,) == (st.performed_names()[len(performed):] or (None,))


def check_every_build(monkeypatch) -> list:
    """From now on, keep every tuple the engine builds with `_new`, and
    check each step's record against the engine's state."""
    built = []
    new, step = dali.engine._new, Engine.step

    def kept(cls, fields):
        value = new(cls, fields)
        built.append(value)
        return value

    def checked_step(self):
        st = self.state
        before = (tuple(st.ev), tuple(st.iv), set(st.pv), st.performed_names())
        rec = step(self)
        if rec is not None:
            check_whole(rec)
            check_record_fields(self, rec, before)
        return rec

    monkeypatch.setattr(dali.engine, "_new", kept)
    monkeypatch.setattr(Engine, "step", checked_step)
    return built


SYSTEMS = sorted(SCENARIOS.glob("*.system"))


def test_every_positionally_built_tuple_is_whole(monkeypatch):
    """Every run above, every bundled system run to quiescence, and the
    component outcomes of each; between them the runs build all four
    named tuples, choice points included."""
    built = check_every_build(monkeypatch)
    outputs = []
    for _, program, query, inbox in RUNS:
        result = run_agent(program, query=query, inbox=inbox)
        outputs += result.records + result.outcomes
    for path in SYSTEMS:
        runner = SystemRunner(load_system_config(path))
        result = runner.run()
        outputs += [rec for _, rec in result.trace]
        for engine in runner.engines.values():
            outputs += engine.component_outcomes()
    assert {type(v) for v in built} == set(FIELD_CHECKS)
    ids = {id(v) for v in built}
    assert all(id(v) in ids for v in outputs)
    for value in built:
        check_whole(value)


def write() -> None:
    DATA.mkdir(parents=True, exist_ok=True)
    for name, program, query, inbox in RUNS:
        text = "\n".join(record_lines(program, query, inbox)) + "\n"
        (DATA / f"{name}.jsonl").write_text(text, encoding="utf-8")


if __name__ == "__main__":
    write()
