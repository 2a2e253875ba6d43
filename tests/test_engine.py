import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dali.engine import (
    EXTERNAL_REACTION,
    FAILED,
    INTERNAL_ATTEMPT,
    INTERNAL_REACTION,
    QUERY,
    SUCCEEDED,
    Engine,
    Strategy,
    run_agent,
)
from dali.errors import DaliConfigError, DaliValidationError
from dali.model import AgentProgram, Atom, Clause, REACTIVE
from dali.oracle import naive_fixpoint
from dali.parser import parse_agent_file


def program(text: str) -> AgentProgram:
    return parse_agent_file(text)


def replay_deltas(records, initial_ev=()):
    """Re-derive every EV/IV/PV snapshot from the recorded deltas and
    check it against the snapshot stored in the record."""
    ev, iv, pv = list(initial_ev), [], set()
    for rec in records:
        for name in rec.ev_removed:
            ev.remove(name)
        ev.extend(rec.ev_added)
        for name in rec.iv_removed:
            iv.remove(name)
        iv.extend(rec.iv_added)
        pv.update(rec.pv_added)
        assert tuple(ev) == rec.ev, f"step {rec.step}: EV drifted"
        assert tuple(iv) == rec.iv, f"step {rec.step}: IV drifted"
        assert tuple(sorted(pv)) == rec.pv, f"step {rec.step}: PV drifted"


CASE_CONTRACTS = {
    "i": dict(ev=False, iv=False, pv=False),
    "ii": dict(ev=False, iv="grow", pv=False),
    "iii": dict(ev=False, iv=False, pv=False),
    "iv": dict(ev="shrink", iv=False, pv="grow"),
    "v": dict(ev=False, iv="shrink", pv="grow"),
    "vi": dict(ev=False, iv=False, pv=False),
}


def check_case_contracts(records):
    for rec in records:
        contract = CASE_CONTRACTS[rec.case]
        if contract["ev"] is False:
            assert rec.ev_added == rec.ev_removed == ()
        elif contract["ev"] == "shrink":
            assert rec.ev_added == () and len(rec.ev_removed) == 1
        if contract["iv"] is False:
            assert rec.iv_added == rec.iv_removed == ()
        elif contract["iv"] == "grow":
            assert rec.iv_removed == () and len(rec.iv_added) <= 1
        elif contract["iv"] == "shrink":
            assert rec.iv_added == () and len(rec.iv_removed) == 1
        if contract["pv"] is False:
            assert rec.pv_added == ()
        else:
            assert len(rec.pv_added) <= 1
        if rec.case not in ("ii",):
            assert rec.performed is None


class TestPlainResolution:
    def test_fact_resolves_to_success(self):
        r = run_agent(program("agent A. p."), query="p")
        assert r.query_succeeded
        assert r.records[-1].goal == ()

    def test_clause_body_replaces_selected_atom(self):
        r = run_agent(
            program("agent A. ask_for_help :- call_police. call_police :- phone. phone."),
            query="ask_for_help",
        )
        assert r.query_succeeded
        goals = [rec.goal for rec in r.records]
        assert ("call_police",) in goals

    def test_self_recursion_fails_by_loop_check(self):
        # oracle agrees: p is not in the least model of {p :- p}
        assert "p" not in naive_fixpoint([("p", ("p",))])
        r = run_agent(program("agent A. p :- p."), query="p")
        assert r.query_succeeded is False
        assert r.outcomes[0].status == FAILED
        assert "loop" in r.outcomes[0].failure

    def test_empty_program_query_fails_without_steps(self):
        r = run_agent(program("agent A."), query="p")
        assert r.query_succeeded is False
        assert r.records == ()

    def test_backtracking_tries_clauses_in_program_order(self):
        r = run_agent(
            program("agent A. p :- q. p :- r. r."),
            query="p",
        )
        assert r.query_succeeded
        # first clause fails on q, second succeeds through r
        assert ("q",) in [rec.goal for rec in r.records]
        assert ("r",) in [rec.goal for rec in r.records]


class TestActions:
    def test_preconditionless_action_always_succeeds(self):
        r = run_agent(
            program("agent A. @action scream. shout :- scream."), query="shout"
        )
        assert r.query_succeeded
        assert r.state.performed_names() == ("scream",)

    def test_action_removed_from_sequence(self):
        r = run_agent(
            program("agent A. @action a. p :- a, b. b."), query="p"
        )
        assert r.query_succeeded
        assert ("b",) in [rec.goal for rec in r.records]
        assert r.state.performed_names() == ("a",)

    def test_action_rule_guards_performance(self):
        r = run_agent(
            program("agent A. @action a. p :- a. a :< c."), query="p"
        )
        assert r.query_succeeded is False
        assert r.state.performed_names() == ()

    def test_action_rule_performs_on_subproof_completion(self):
        r = run_agent(
            program("agent A. @action a. p :- a. a :< c. c."), query="p"
        )
        assert r.query_succeeded
        assert r.state.performed_names() == ("a",)
        completion = [rec for rec in r.records if rec.performed == "a"]
        assert len(completion) == 1
        assert completion[0].case == "ii"

    def test_failed_branch_keeps_performed_actions(self):
        # the action in the first clause is performed, then the branch
        # fails and the second clause wins; the log keeps both worlds
        r = run_agent(
            program("agent A. @action a. @action b. p :- a, impossible. p :- b."),
            query="p",
        )
        assert r.query_succeeded
        assert r.state.performed_names() == ("a", "b")

    def test_backtracking_into_a_completed_subproof_does_not_redo_it(self):
        # a's precondition subproof completes through c :- d, then
        # `impossible` fails and the retry c :- e brings a's end marker
        # back to the front of the goal; a must not be performed again
        r = run_agent(
            program(
                "agent A. @action a. p :- a, impossible. "
                "a :< c. c :- d. c :- e. d. e."
            ),
            query="p",
        )
        assert r.query_succeeded is False
        assert r.state.performed_names() == ("a",)
        completion = [rec for rec in r.records if rec.performed == "a"]
        assert len(completion) == 1
        assert completion[0].case == "ii"


class TestEvents:
    def test_external_reaction_consumes_event(self, scenario):
        r = run_agent(scenario("danger"), inbox=[(0, "danger")])
        assert r.state.performed_names() == ("call_police",)
        assert r.state.pv_names() == ("danger",)
        assert r.state.ev_names() == ()
        joins = [rec for rec in r.records if rec.case == "iv"]
        assert len(joins) == 1 and joins[0].selected == "danger"

    def test_fifo_consumption_order(self):
        p = program(
            "agent A. @external a. @external b. @action x. @action y. "
            "a :> x. b :> y."
        )
        r = run_agent(p, inbox=[(0, "a"), (0, "b")])
        joins = [rec.selected for rec in r.records if rec.case == "iv"]
        assert joins == ["a", "b"]
        assert r.state.performed_names() == ("x", "y")

    def test_event_without_reactive_rule_is_consumed_and_logged(self, scenario):
        r = run_agent(scenario("george"), inbox=[(0, "girlfriend_call")])
        assert r.state.pv_names() == ("girlfriend_call",)
        reaction = [o for o in r.outcomes if o.origin == EXTERNAL_REACTION]
        assert len(reaction) == 1
        assert reaction[0].status == FAILED
        assert "no reactive rule" in reaction[0].failure

    def test_failed_reaction_body_keeps_event_consumed(self):
        p = program("agent A. @external e. e :> unprovable.")
        r = run_agent(p, inbox=[(0, "e")])
        assert r.state.ev_names() == ()
        assert r.state.pv_names() == ("e",)
        assert r.outcomes[0].status == FAILED

    def test_reactive_clause_applied_once_per_consumption(self, scenario):
        r = run_agent(scenario("danger"), inbox=[(0, "danger")])
        reactive_uses = [
            rec
            for rec in r.records
            if rec.case == "i" and rec.selected == "danger"
        ]
        assert len(reactive_uses) == 1

    def test_reactive_body_order_drives_response_order(self):
        p = program(
            "agent A. @external rains. @action open_umbrella. "
            "@action decide_what_to_do. "
            "rains :> open_umbrella, decide_what_to_do."
        )
        r = run_agent(p, inbox=[(0, "rains")])
        assert r.state.performed_names() == ("open_umbrella", "decide_what_to_do")

    def test_recurring_event_reacted_twice(self):
        p = program("agent A. @external e. @action x. e :> x.")
        r = run_agent(p, inbox=[(0, "e"), (30, "e")])
        assert r.state.performed_names() == ("x", "x")
        assert len([rec for rec in r.records if rec.case == "iv"]) == 2

    def test_coalescing_counts_arrivals_while_pending(self):
        p = program("agent A. @external e. e :> r. r.")
        engine = Engine(p)
        assert engine.inject("e") is True
        assert engine.inject("e") is False
        assert engine.state.coalesced == {"e": 1}
        assert engine.state.ev_names() == ("e",)

    def test_event_conservation(self):
        p = program("agent A. @external e. @external f. e :> r. r.")
        engine = Engine(p)
        injected = 0
        for name in ("e", "f", "e"):
            engine.inject(name)
            injected += 1
        engine.run()
        consumed = len([rec for rec in engine.records if rec.case == "iv"])
        pending = len(engine.state.ev)
        coalesced = sum(engine.state.coalesced.values())
        assert injected == consumed + pending + coalesced

    def test_inject_requires_declared_external(self):
        engine = Engine(program("agent A."))
        with pytest.raises(DaliConfigError):
            engine.inject("mystery")

    @pytest.mark.parametrize("event", ["past(e)", "now(e)", Atom.past("e"), Atom.now("e")])
    def test_inject_rejects_a_marked_event(self, event):
        engine = Engine(program("agent A. @external e. e :> r. r."))
        with pytest.raises(DaliConfigError, match=r"inbox event \w+\(e\) is marked"):
            engine.inject(event)
        assert engine.state.ev_names() == ()
        assert engine.quiescent

    def test_run_agent_parses_inbox_text(self, scenario):
        mary = scenario("mary")
        with pytest.raises(DaliConfigError, match=r"now\(alarm_clock_rings\) is marked"):
            run_agent(mary, inbox=[(0, "now(alarm_clock_rings)")])
        r = run_agent(mary, inbox=[(0, "alarm_clock_rings")])
        assert r.state.pv_names() == ("alarm_clock_rings", "my_god_its_late")


class TestBacklog:
    """2,000 external events pending at once: EV stays a FIFO set, and
    the records between two EV changes share one name tuple."""

    N = 2_000

    def test_fifo_joins_coalescing_and_shared_tuples(self):
        names = [f"e_{k}" for k in random.Random(3).sample(range(self.N), self.N)]
        first, last = names[0], names[-1]
        lines = ["agent Backlog."]
        lines += [f"@external {e}. @action a_{e}." for e in names]
        lines += [f"{e} :> a_{e}." for e in names]
        lines += [f"pending :- now({first}).", f"pending_last :- now({last})."]
        engine = Engine(program("\n".join(lines)))
        assert all(engine.inject(e) for e in names)
        assert engine.inject(names[10]) is False  # pending: coalesced
        assert engine.state.coalesced == {names[10]: 1}
        assert engine.state.ev_names() == tuple(names)

        engine.run(max_steps=3)  # join `first` and react to it
        assert [r.case for r in engine.records] == ["iv", "i", "ii"]
        assert engine.records[0].selected == first
        assert engine.records[0].ev == tuple(names[1:])
        q_first = engine.add_query("pending")
        q_last = engine.add_query("pending_last")
        engine.run(max_steps=4)
        assert engine.components[q_first].status == FAILED
        assert engine.components[q_first].failure == (
            f"now({first}) unsatisfied: event not pending"
        )
        assert engine.components[q_last].status == SUCCEEDED
        assert engine.inject(first) is True  # joined already: to the back
        assert engine.state.ev_names()[-1] == first

        engine.run()
        assert engine.quiescent
        joins = [r.selected for r in engine.records if r.case == "iv"]
        assert joins == names + [first]
        consumed, pending = len(joins), len(engine.state.ev)
        assert self.N + 2 == consumed + pending + sum(engine.state.coalesced.values())

        shared = 0
        for a, b in zip(engine.records, engine.records[1:]):
            if a.ev == b.ev:
                assert a.ev is b.ev, f"steps {a.step}-{b.step}: EV tuple rebuilt"
                shared += 1
        assert shared >= 2 * self.N


class TestPresentAndPast:
    def test_now_succeeds_while_pending(self):
        p = program(
            "agent A. @external e. late :- now(e). e :> r. r."
        )
        engine = Engine(p)
        engine.inject("e")
        q = engine.add_query("late")
        engine.run()
        assert engine.components[q].status == SUCCEEDED
        # the test did not consume the event: a reaction still ran
        assert engine.state.pv_names() == ("e",)

    def test_now_fails_on_empty_ev(self):
        p = program("agent A. @external e. late :- now(e). e :> r. r.")
        r = run_agent(p, query="late")
        assert r.query_succeeded is False

    def test_now_step_changes_nothing(self, scenario):
        r = run_agent(scenario("mary"), inbox=[(0, "alarm_clock_rings")])
        tests = [rec for rec in r.records if rec.case == "iii"]
        assert len(tests) == 1
        check_case_contracts(tests)

    def test_past_reads_pv_without_changing_it(self, scenario):
        george = scenario("george")
        engine = Engine(george)
        engine.inject("girlfriend_call")
        engine.run()
        q = engine.add_query("happy")
        engine.run()
        assert engine.components[q].status == SUCCEEDED
        assert engine.state.pv_names() == ("girlfriend_call",)

    def test_query_by_marker_text(self, scenario):
        engine = Engine(scenario("george"))
        engine.inject("girlfriend_call")
        engine.run()
        q = engine.add_query("past(girlfriend_call)")
        engine.run()
        assert engine.components[q].status == SUCCEEDED


class TestInternalEvents:
    def test_henry_sings_once(self, scenario):
        r = run_agent(scenario("henry"))
        assert r.state.performed_names() == ("sing_a_song",)
        assert r.state.pv_names() == ("happy",)
        assert not r.truncated

    def test_attempt_join_has_no_deltas(self, scenario):
        r = run_agent(scenario("henry"))
        attempts = [rec for rec in r.records if rec.case == "vi"]
        assert len(attempts) == 1
        check_case_contracts(attempts)

    def test_attempt_failure_is_silent(self):
        p = program("agent A. @internal happy. happy :- sunny_day. happy :> r. r.")
        r = run_agent(p)
        assert r.state.iv_names() == ()
        assert r.state.performed_names() == ()
        attempt = [o for o in r.outcomes if o.origin == INTERNAL_ATTEMPT]
        assert attempt and attempt[0].status == FAILED

    def test_attempt_count_bounded_by_budget_over_period(self, scenario):
        m = 2
        budget = 9
        r = run_agent(
            scenario("henry"),
            strategy=Strategy(internal_check_period=m, max_steps=budget),
        )
        attempts = [rec for rec in r.records if rec.case == "vi"]
        assert len(attempts) <= -(-budget // m)  # ceil

    def test_internal_subgoal_inside_query_is_recorded(self):
        p = program(
            "agent A. @internal happy. @action r. "
            "day :- happy. happy :- sun. happy :> r. sun."
        )
        r = run_agent(p, query="day")
        assert r.query_succeeded
        # proving happy for the query put it into IV; the reaction ran
        assert r.state.performed_names() == ("r",)
        assert r.state.pv_names() == ("happy",)

    def test_anne_reacts_to_her_own_action(self, scenario):
        r = run_agent(scenario("anne"), inbox=[(0, "invitation")])
        assert r.state.performed_names() == ("go_by_car", "ask_susan_to_join")
        assert r.state.pv_names() == ("go_by_car", "invitation")
        origins = [o.origin for o in r.outcomes]
        assert INTERNAL_REACTION in origins

    def test_dual_action_internal_not_proactively_attempted(self, scenario):
        r = run_agent(scenario("anne"))  # no invitation
        assert r.state.performed_names() == ()
        assert r.records == ()

    def test_mary_reasons_then_reacts(self, scenario):
        r = run_agent(scenario("mary"), inbox=[(0, "alarm_clock_rings")])
        assert set(r.state.performed_names()) == {"stand_up", "switch_it_off"}
        assert r.state.pv_names() == ("alarm_clock_rings", "my_god_its_late")
        assert not r.truncated


class TestRunDriver:
    def test_danger_run(self, scenario):
        r = run_agent(scenario("danger"), inbox=[(0, "danger")])
        assert "call_police" in r.state.performed_names()
        assert r.state.pv_names() == ("danger",)

    def test_budget_exhaustion_flags_truncation(self):
        p = program("agent A. @internal tick. @action beep. tick :> beep. tick.")
        # tick is a fact: every reaction leaves state unchanged, but the
        # attempt gate stops re-proving after quiescence, so use a tiny
        # budget to force truncation instead.
        r = run_agent(p, max_steps=2)
        assert r.truncated

    def test_late_inbox_events_reached_by_time_jump(self):
        p = program("agent A. @external e. @action x. e :> x.")
        r = run_agent(p, inbox=[(50, "e")])
        assert r.state.performed_names() == ("x",)
        assert not r.truncated

    def test_query_and_reactions_interleave(self, scenario):
        engine = Engine(scenario("mary"))
        engine.inject("alarm_clock_rings")
        q = engine.add_query("my_god_its_late")
        engine.run()
        assert engine.components[q].status == SUCCEEDED
        assert set(engine.state.performed_names()) == {"stand_up", "switch_it_off"}

    def test_rejects_invalid_program(self):
        bad = AgentProgram("A", (Clause(Atom("e"), (Atom("x"),), REACTIVE),))
        with pytest.raises(DaliValidationError):
            Engine(bad)

    def test_outcome_listing(self, scenario):
        r = run_agent(scenario("henry"), query="sunny_day")
        assert r.outcomes[0].origin == QUERY
        assert r.outcomes[0].status == SUCCEEDED
        assert {o.origin for o in r.outcomes[1:]} <= {
            INTERNAL_ATTEMPT,
            INTERNAL_REACTION,
        }


class TestDeterminismAndInvariants:
    def scenario_records(self, scenario, name, inbox):
        return run_agent(scenario(name), inbox=inbox).records

    def test_identical_runs_produce_identical_records(self, scenario):
        for name, inbox in [
            ("danger", [(0, "danger")]),
            ("henry", []),
            ("anne", [(0, "invitation")]),
            ("mary", [(0, "alarm_clock_rings")]),
        ]:
            first = self.scenario_records(scenario, name, inbox)
            second = self.scenario_records(scenario, name, inbox)
            assert first == second

    def test_pv_monotone_and_deltas_replay(self, scenario):
        for name, inbox in [
            ("danger", ["danger"]),
            ("henry", []),
            ("anne", ["invitation"]),
            ("mary", ["alarm_clock_rings"]),
        ]:
            records = run_agent(
                scenario(name), inbox=[(0, e) for e in inbox]
            ).records
            replay_deltas(records, initial_ev=inbox)
            pv_sizes = [len(rec.pv) for rec in records]
            assert pv_sizes == sorted(pv_sizes)

    def test_case_contracts_on_all_scenarios(self, scenario):
        for name, inbox in [
            ("danger", [(0, "danger")]),
            ("henry", []),
            ("anne", [(0, "invitation")]),
            ("mary", [(0, "alarm_clock_rings")]),
        ]:
            check_case_contracts(run_agent(scenario(name), inbox=inbox).records)


# -- pure-fragment equivalence property --------------------------------------

names = st.sampled_from([f"a{i}" for i in range(6)])


@st.composite
def pure_programs(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    clauses = []
    for _ in range(n):
        head = draw(names)
        body = tuple(Atom(b) for b in draw(st.lists(names, max_size=3)))
        clauses.append(Clause(Atom(head), body))
    return AgentProgram("Rand", tuple(clauses))


@settings(max_examples=120, deadline=None)
@given(pure_programs(), names)
def test_pure_fragment_matches_least_model(program, atom):
    model = naive_fixpoint(
        (c.head.name, tuple(a.name for a in c.body)) for c in program.clauses
    )
    result = run_agent(program, query=atom)
    assert result.query_succeeded == (atom in model)


def test_strategy_validation():
    with pytest.raises(ValueError):
        Strategy(event_check_period=0)
    with pytest.raises(ValueError):
        Strategy(internal_check_period=-1)
