import dataclasses
import importlib
import random
from pathlib import Path

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
    TRACE_FIELDS,
    ComponentOutcome,
    Engine,
    GoalAtom,
    StepRecord,
    Strategy,
    run_agent,
)
from dali.errors import DaliConfigError, DaliValidationError
from dali.model import AgentProgram, Atom, Clause, REACTIVE
from dali.oracle import naive_fixpoint
from dali.parser import parse_agent_file
from dali.semantics import RULE_ACTION, TransformedClause


BENCH = Path(__file__).resolve().parents[1] / "bench"


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


def steps_and_choicepoints(engine):
    """Step to quiescence; per step, its case, selected atom and goal,
    and the clauses left in each choice point of its component."""
    out = []
    while (rec := engine.step()) is not None:
        comp = engine.components[rec.component]
        cps = [len(cp.candidates) for cp in comp.choicepoints]
        out.append((rec.case, rec.selected, rec.goal, cps))
    return out


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

    # A loop check that forgot all but the nearest ancestor would run the
    # loops below until the step budget, so each test asserts the outcome
    # of a run that the budget does not cut.

    def test_mutual_recursion_fails_by_loop_check(self):
        r = run_agent(program("agent A. p :- q. q :- p."), query="p")
        assert not r.truncated
        assert r.outcomes[0].failure == "loop detected on 'p'"
        assert [rec.selected for rec in r.records] == ["p", "q"]

    @pytest.mark.parametrize("text,selected", [
        ("agent A. p :- q, q. q.", ["p", "q", "q"]),
        # Each q first loops back through r; the second q's ancestors
        # are p's, not those of the first q's finished subproof.
        ("agent A. p :- q, q. q :- r. q :- s. r :- q. s.",
         ["p", "q", "r", "q", "s", "q", "r", "q", "s"]),
    ])
    def test_siblings_are_not_ancestors(self, text, selected):
        r = run_agent(program(text), query="p")
        assert not r.truncated
        assert r.query_succeeded
        assert [rec.selected for rec in r.records] == selected

    def test_a_loop_branch_backtracks_to_the_next_clause(self):
        r = run_agent(program("agent A. p :- q. q :- p. q."), query="p")
        assert not r.truncated
        assert r.query_succeeded
        assert [(rec.selected, rec.goal) for rec in r.records] == [
            ("p", ("q",)), ("q", ("p",)), ("q", ()),  # p looped: q's second clause
        ]

    def test_a_loop_through_a_nested_internal_event_subproof(self):
        """p's proof needs the internal event e, whose subproof needs p:
        the query and e's own attempt each fail on their loop, and e is
        never recorded."""
        r = run_agent(program("agent A. @internal e. p :- e. e :- p."), query="p")
        assert not r.truncated
        assert [(o.origin, o.atom, o.failure) for o in r.outcomes] == [
            (QUERY, "p", "loop detected on 'p'"),
            (INTERNAL_ATTEMPT, "e", "loop detected on 'e'"),
        ]
        assert "ii" not in [rec.case for rec in r.records]
        assert r.state.iv_names() == r.state.pv_names() == ()

    def test_a_loop_deeper_than_64_ancestors_is_detected(self):
        """q_0 :- q_1 .. q_99 :- q_100, closed by q_100 :- q_0: the query
        fails at q_0 once 101 names are its ancestors."""
        text = "agent A. " + " ".join(f"q_{i} :- q_{i + 1}." for i in range(100))
        engine = Engine(program(text + " q_100 :- q_0."))
        q = engine.add_query("q_0")
        records = engine.run()
        assert engine.components[q].failure == "loop detected on 'q_0'"
        assert [rec.selected for rec in records] == [f"q_{i}" for i in range(101)]
        assert len(engine._bits) == 101  # one ancestor bit per name

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

    def test_a_retry_keeps_the_clauses_still_untried(self):
        """p's first clause fails at its own subgoal, its second one level
        deeper; each retry restores the goal `p` and keeps the clauses
        still untried as a choice point, so the third clause is reached."""
        engine = Engine(program("agent A. p :- a. p :- b. p :- d. b :- c. d."))
        q = engine.add_query("p")
        assert steps_and_choicepoints(engine) == [
            ("i", "p", ("a",), [2]),  # clauses 2 and 3 wait
            ("i", "p", ("b",), [1]),  # no clause for a: retry with clause 2
            ("i", "b", ("c",), [1]),
            ("i", "p", ("d",), []),  # no clause for c: retry with clause 3
            ("i", "d", (), []),
        ]
        assert engine.components[q].status == SUCCEEDED


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

    def test_a_reaction_opens_no_choice_point(self):
        """The reaction to i resolves with its one reactive rule, not with
        i's two defining clauses, so when its body fails the reaction
        fails with no retry."""
        engine = Engine(program(
            "agent A. @internal i. @action go. i :- t. i :- u. t. u. i :> go, missing."
        ))
        assert steps_and_choicepoints(engine) == [
            ("vi", "i", ("i",), []),
            ("i", "i", ("t",), [1]),  # the attempt proves i by its first clause
            ("i", "t", (), []),
            ("ii", "i", (), []),
            ("v", "i", ("i",), []),
            ("i", "i", ("go", "missing"), []),
            ("ii", "go", ("missing",), []),
        ]
        assert [(o.origin, o.status, o.failure) for o in engine.component_outcomes()] == [
            (INTERNAL_ATTEMPT, SUCCEEDED, None),
            (INTERNAL_REACTION, FAILED, "no clause for 'missing'"),
        ]

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

    def test_an_arrival_reopens_a_failed_attempt(self):
        # w fails while e is not pending, and nothing but event traffic
        # could change that, so w waits for the next arrival or join.
        engine = Engine(program(
            "agent A. @external e. @internal w. @action x. w :- now(e). w :> x."
        ))
        engine.run()
        assert [r.case for r in engine.records] == ["vi", "i"]
        assert engine.quiescent
        engine.inject("e")
        engine.run()
        assert engine.state.performed_names() == ("x",)
        assert engine.state.pv_names() == ("e", "w")

    def test_a_join_reopens_an_attempt_found_exhausted(self):
        # Off its period, the join of e comes after an internal phase
        # that found tired already tried; the join must reopen it.
        engine = Engine(program(
            "agent T. @external e. @internal tired. tired :- past(e). tired :> rest. rest."
        ), Strategy(3, 1))
        engine.inject("e")
        engine.run()
        assert [(r.case, r.selected) for r in engine.records[:4]] == [
            ("vi", "tired"), ("i", "tired"), ("iv", "e"), ("vi", "tired"),
        ]
        assert engine.state.pv_names() == ("e", "tired")

    def test_a_due_internal_phase_looks_again_after_components_fail(self):
        # At step 6 the internal phase is due and finds tired's attempt
        # still running; then the reaction to go and that attempt both
        # fail, and the join of go has reopened tired.  The step must
        # attempt tired again rather than return None with work left.
        engine = Engine(
            program("agent A0. @internal go. @internal tired. go."), Strategy(1, 1)
        )
        engine.run()
        assert [(r.case, r.selected) for r in engine.records] == [
            ("vi", "go"), ("vi", "tired"), ("i", "go"), ("ii", "go"),
            ("v", "go"), ("vi", "tired"),
        ]
        assert engine.quiescent
        assert engine.step() is None

    def test_a_coalesced_arrival_also_reopens_attempts(self):
        engine = Engine(program("agent A. @external e. @internal w. w :- now(e)."))
        assert engine.inject("e")
        engine._tried.add("w")
        assert not engine.inject("e")  # coalesced into the pending e
        assert not engine._tried

    def test_attempt_count_bounded_by_budget_over_period(self, scenario):
        m = 2
        budget = 9
        r = run_agent(
            scenario("henry"),
            strategy=Strategy(internal_check_period=m),
            max_steps=budget,
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

    @pytest.mark.parametrize(
        "text, effects",
        [
            (  # an action that is also an internal event, proved twice
                "agent A. @internal t. @action t. q :- t, t. t :> r. r.",
                [("t", "t", ("t",)), ("t", "t", ())],
            ),
            (  # a pure internal event, proved by the query twice and an attempt
                "agent A. @internal t. q :- t, t. t :- r. r. t :> s. s.",
                [("t", None, ("t",)), ("t", None, ()), ("t", None, ())],
            ),
        ],
        ids=["performed", "subproof"],
    )
    def test_a_conclusion_pending_in_iv_is_not_queued_again(self, text, effects):
        r = run_agent(program(text), query="q", strategy=Strategy(1, 1000))
        assert r.query_succeeded
        ii = [rec for rec in r.records if rec.case == "ii"]
        assert [(rec.selected, rec.performed, rec.iv_added) for rec in ii] == effects
        assert [rec.selected for rec in r.records if rec.case == "v"] == ["t"]
        replay_deltas(r.records)

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

    def test_budget_counts_entries_not_yet_delivered(self):
        p = program("agent A. @external e. @action x. e :> x.")
        due = run_agent(p, inbox=[(0, "e")], max_steps=0)
        late = run_agent(p, inbox=[(1, "e")], max_steps=0)
        assert (due.state.ev_names(), due.truncated) == (("e",), True)
        assert (late.state.ev_names(), late.truncated) == ((), True)

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

    def test_resolvent_info_is_derived_once_per_program(self, monkeypatch):
        """Every engine of a program shares its clauses' resolvent info:
        50 runs of the benchmark's `wide_program` (seed 1) derive it for
        each of the 589 clauses they resolve with, once.  A replaced
        program has its own, since its role sets may differ."""
        monkeypatch.syspath_prepend(BENCH)
        w = importlib.import_module("workloads").wide_program(1)
        wide = program(w.files[w.agent_file])
        derived = []
        resolvent = Engine._resolvent

        def counted(self, clause):
            derived.append(id(clause))
            return resolvent(self, clause)

        monkeypatch.setattr(Engine, "_resolvent", counted)
        inbox = [(0, e) for e in w.inbox]
        for _ in range(50):
            assert run_agent(wide, query=w.query, inbox=inbox).query_succeeded
        assert len(derived) == len(set(derived)) == 589
        assert run_agent(dataclasses.replace(wide), query=w.query, inbox=inbox).query_succeeded
        assert len(derived) == 2 * 589

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


@st.composite
def deep_pure_queries(draw):
    """A program over a pool of 80 names and a query near the start of
    its chain.  The chain runs through all 80 names in a drawn order,
    each name's chain clause at a drawn place among its clauses; back
    edges (a body that starts with a name before its head in the chain)
    each close a loop, and a few facts end some proofs early.  A proof
    along the chain has more than 64 ancestors before it reaches a fact
    or a loop."""
    order = draw(st.permutations([f"d{i}" for i in range(80)]))
    clauses = [(a, (b,)) for a, b in zip(order, order[1:])]
    place = st.integers(0, len(order) - 1)
    for _ in range(draw(st.integers(0, 6))):
        i, j = sorted(draw(st.tuples(place, place)))
        body = (order[i],) + tuple(draw(st.lists(st.sampled_from(order), max_size=1)))
        clauses.append((order[j], body))
    clauses += [(a, ()) for a in draw(st.lists(st.sampled_from(order), max_size=3))]
    clauses = draw(st.permutations(clauses))
    program = AgentProgram("Deep", tuple(
        Clause(Atom(head), tuple(map(Atom, body))) for head, body in clauses
    ))
    return program, order[draw(st.integers(0, 7))]


@settings(max_examples=60, deadline=None)
@given(deep_pure_queries())
def test_pure_fragment_with_deep_ancestor_sets_matches_least_model(drawn):
    program, atom = drawn
    model = naive_fixpoint(
        (c.head.name, tuple(a.name for a in c.body)) for c in program.clauses
    )
    result = run_agent(program, query=atom, max_steps=200_000)
    assert not result.truncated
    assert result.query_succeeded == (atom in model)


def test_strategy_validation():
    with pytest.raises(ValueError):
        Strategy(event_check_period=0)
    with pytest.raises(ValueError):
        Strategy(internal_check_period=-1)


class TestValueTypes:
    """Step records, component outcomes, goal atoms and P' clauses are
    immutable, hashable values whose fields keep their names and order."""

    RESULT = run_agent(program("agent A. @external e. @action x. e :> x."),
                       inbox=[(0, "e")])

    @pytest.mark.parametrize("value", [
        RESULT.records[0],
        RESULT.outcomes[0],
        GoalAtom(Atom("a"), 0b101),
        TransformedClause("h", ("b",), RULE_ACTION, 0),
    ], ids=["record", "outcome", "goal atom", "P' clause"])
    def test_immutable_and_hashable(self, value):
        for name in type(value)._fields:
            with pytest.raises(AttributeError):
                setattr(value, name, getattr(value, name))
        assert hash(value) == hash(type(value)(*value))

    def test_field_names_and_order(self):
        assert StepRecord._fields == (
            "step", "case", "selected", "component", "goal", "ev", "iv", "pv",
            "performed", "ev_added", "ev_removed", "iv_added", "iv_removed",
            "pv_added",
        )
        assert ComponentOutcome._fields == ("index", "origin", "atom", "status", "failure")

    def test_trace_dict(self):
        join, _, perform = self.RESULT.records
        assert join.trace_dict("A") == {
            "step": 1, "case": "iv", "agent": "A", "selected": "e",
            "component": 0, "ev": [], "iv": [], "pv": ["e"], "performed": None,
        }
        assert perform.trace_dict("A") == {
            "step": 3, "case": "ii", "agent": "A", "selected": "x",
            "component": 0, "ev": [], "iv": [], "pv": ["e"], "performed": "x",
        }
        assert tuple(join.trace_dict("A")) == TRACE_FIELDS
