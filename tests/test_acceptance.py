"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import random
import time

from dali.cli import main
from dali.engine import run_agent
from dali.model import AgentProgram, Atom, Clause
from dali.oracle import exhaustive_interleavings, naive_fixpoint
from dali.runtime import SystemRunner, evolve_system, load_system_config
from dali.semantics import snapshot, transform_program

SCENARIO_RUNS = [
    ("danger", ["danger"]),
    ("henry", []),
    ("anne", ["invitation"]),
    ("mary", ["alarm_clock_rings"]),
]


def report(n, name):
    print(f"ACCEPTANCE {n} ({name}): PASS")


def run_scenarios(scenario):
    results = {}
    for name, inbox in SCENARIO_RUNS:
        results[name] = run_agent(scenario(name), inbox=[(0, e) for e in inbox])
    return results


def test_criterion_1_snapshot_fidelity(capsys, scenario_dir):
    start = time.perf_counter()
    for name in ("snapshot1", "snapshot2"):
        assert main(["model", str(scenario_dir / f"{name}.dali")]) == 0
        assert capsys.readouterr().out == "p\nq\n"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    with capsys.disabled():
        report(1, "snapshot fidelity")


def test_criterion_2_action_transform_fidelity(scenario):
    start = time.perf_counter()
    program = scenario("action1")  # {p. ; p :- b, a. ; b.} with action a
    tp = transform_program(program)
    assert "a :- p, b." in [str(c) for c in tp.clauses]
    model = snapshot(program)
    assert {"p", "b", "a"} <= model
    assert model == {"p", "b", "a"}
    assert time.perf_counter() - start < 1.0
    report(2, "action-transform fidelity")


def test_criterion_3_scenario_reproduction(scenario):
    start = time.perf_counter()
    results = run_scenarios(scenario)

    danger = results["danger"]
    assert "call_police" in danger.state.performed_names()
    assert danger.state.pv_names() == ("danger",)

    henry = results["henry"]
    assert "sing_a_song" in henry.state.performed_names()

    anne = results["anne"]
    assert "go_by_car" in anne.state.performed_names()
    assert "ask_susan_to_join" in anne.state.performed_names()

    mary = results["mary"]
    assert {"switch_it_off", "stand_up"} <= set(mary.state.performed_names())
    assert "my_god_its_late" in mary.state.pv_names()
    now_tests = [rec for rec in mary.records if rec.case == "iii"]
    assert now_tests and now_tests[0].selected == "now(alarm_clock_rings)"

    for name, inbox in SCENARIO_RUNS:
        reachable = exhaustive_interleavings(scenario(name), inbox=inbox)
        assert not reachable.truncated
        result = results[name]
        assert reachable.contains(
            result.state.performed_names(), result.state.pv
        ), f"{name}: default outcome not reachable"

    assert time.perf_counter() - start < 5.0
    report(3, "scenario reproduction")


def test_criterion_4_pure_fragment_equivalence():
    start = time.perf_counter()
    rng = random.Random(20260810)
    mismatches = 0
    for _ in range(1000):
        atoms = [f"a{i}" for i in range(rng.randint(1, 10))]
        clauses = tuple(
            Clause(
                Atom(rng.choice(atoms)),
                tuple(Atom(rng.choice(atoms)) for _ in range(rng.randint(0, 3))),
            )
            for _ in range(rng.randint(1, 15))
        )
        program = AgentProgram("Rand", clauses)
        model = naive_fixpoint(
            (c.head.name, tuple(a.name for a in c.body)) for c in clauses
        )
        for atom in atoms:
            if run_agent(program, query=atom).query_succeeded != (atom in model):
                mismatches += 1
    assert mismatches == 0
    assert time.perf_counter() - start < 30.0
    report(4, "pure-fragment equivalence")


def test_criterion_5_state_delta_invariants(scenario):
    contracts = {
        "i": ((), (), ()),
        "iii": ((), (), ()),
        "vi": ((), (), ()),
    }
    violations = 0
    for name, inbox in SCENARIO_RUNS:
        result = run_agent(scenario(name), inbox=[(0, e) for e in inbox])
        ev, iv, pv = list(inbox), [], set()
        for rec in result.records:
            if rec.case in contracts:
                if (rec.ev_added, rec.iv_added, rec.pv_added) != contracts[rec.case]:
                    violations += 1
                if rec.ev_removed or rec.iv_removed or rec.performed:
                    violations += 1
            elif rec.case == "ii":
                if rec.ev_added or rec.ev_removed or rec.pv_added or rec.iv_removed:
                    violations += 1
                if len(rec.iv_added) > 1:
                    violations += 1
            elif rec.case == "iv":
                if rec.ev_removed != (rec.selected,) or rec.ev_added:
                    violations += 1
                if rec.iv_added or rec.iv_removed or len(rec.pv_added) > 1:
                    violations += 1
            elif rec.case == "v":
                if rec.iv_removed != (rec.selected,) or rec.iv_added:
                    violations += 1
                if rec.ev_added or rec.ev_removed or len(rec.pv_added) > 1:
                    violations += 1
            # deltas must also replay to the recorded snapshots
            for gone in rec.ev_removed:
                ev.remove(gone)
            ev.extend(rec.ev_added)
            for gone in rec.iv_removed:
                iv.remove(gone)
            iv.extend(rec.iv_added)
            pv.update(rec.pv_added)
            if (
                tuple(ev) != rec.ev
                or tuple(iv) != rec.iv
                or tuple(sorted(pv)) != rec.pv
            ):
                violations += 1
    assert violations == 0
    report(5, "state-delta invariants")


def test_criterion_6_broadcast_semantics(scenario_dir):
    start = time.perf_counter()
    config = load_system_config(scenario_dir / "ping.system")
    runner = SystemRunner(config)
    runner.run_tick()  # tick 0: ping performed, not yet visible
    consumer = runner.engines["Consumer"]
    producer = runner.engines["Producer"]
    assert tuple(consumer.state.ev) == ()
    runner.run_tick()  # tick 1: delivered
    assert consumer.state.pv_names() == ("ping",)
    assert consumer.state.performed_names() == ("log_it",)
    runner.run()
    assert "ping" not in tuple(producer.state.ev)
    assert "ping" not in producer.state.pv

    trace = evolve_system(load_system_config(scenario_dir / "ping.system"))
    assert trace.reached_fixpoint
    assert {"log_it", "past_ping"} <= trace.rounds[1].models["Consumer"]
    assert time.perf_counter() - start < 1.0
    report(6, "broadcast semantics")


def test_criterion_7_determinism(capsys, scenario_dir, tmp_path):
    for name, _ in SCENARIO_RUNS:
        blobs = []
        for attempt in (1, 2):
            trace = tmp_path / f"{name}-{attempt}.jsonl"
            code = main(
                ["run", str(scenario_dir / f"{name}.system"), "--trace", str(trace)]
            )
            capsys.readouterr()
            assert code == 0
            blobs.append(trace.read_bytes())
        assert blobs[0] == blobs[1], f"{name}: trace files differ"
        for line in blobs[0].decode().splitlines():
            json.loads(line)  # every line is valid JSON
    with capsys.disabled():
        report(7, "determinism")
