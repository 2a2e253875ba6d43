import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dali.engine import Engine, run_agent
from dali.errors import DaliConfigError, DaliSyntaxError
from dali.model import Atom
from dali.oracle import exhaustive_interleavings, naive_fixpoint
from dali.parser import parse_agent_file
from dali.semantics import least_model


class TestNaiveFixpoint:
    def test_basic(self):
        assert naive_fixpoint([("p", ()), ("p", ("q",)), ("q", ())]) == {"p", "q"}

    def test_no_facts(self):
        assert naive_fixpoint([("p", ("q",))]) == frozenset()

    def test_agrees_with_least_model_on_random_programs(self):
        rng = random.Random(7)
        atoms = [f"a{i}" for i in range(10)]
        for _ in range(1000):
            clauses = [
                (
                    rng.choice(atoms),
                    tuple(rng.choice(atoms) for _ in range(rng.randint(0, 3))),
                )
                for _ in range(rng.randint(0, 15))
            ]
            assert naive_fixpoint(clauses) == least_model(clauses)


names = st.sampled_from([f"x{i}" for i in range(7)])
horn = st.lists(st.tuples(names, st.lists(names, max_size=3).map(tuple)), max_size=14)


@settings(max_examples=200)
@given(horn)
def test_fixpoint_differential_property(clauses):
    assert naive_fixpoint(clauses) == least_model(clauses)


class TestExhaustiveInterleavings:
    def test_danger_reachable_sets(self, scenario):
        # Two clauses for ask_for_help: the interleaving (clause choice)
        # decides which action happens; each derivation performs one.
        r = exhaustive_interleavings(scenario("danger"), inbox=["danger"])
        assert not r.truncated
        assert r.action_multisets == {("call_police",), ("scream",)}
        assert r.pv_sets == {frozenset({"danger"})}

    def test_trivial_query_program(self):
        p = parse_agent_file("agent A. p.")
        r = exhaustive_interleavings(p, query="p")
        assert r.action_multisets == {()}
        assert r.pv_sets == {frozenset()}

    def test_mary_includes_both_actions_and_the_missed_wakeup(self, scenario):
        r = exhaustive_interleavings(scenario("mary"), inbox=["alarm_clock_rings"])
        assert not r.truncated
        assert ("stand_up", "switch_it_off") in r.action_multisets
        # consuming the alarm before the now() test loses stand_up
        assert ("switch_it_off",) in r.action_multisets
        assert r.action_multisets == {
            ("stand_up", "switch_it_off"),
            ("switch_it_off",),
        }

    def test_anne_reachable_sets(self, scenario):
        r = exhaustive_interleavings(scenario("anne"), inbox=["invitation"])
        assert not r.truncated
        assert r.action_multisets == {
            ("ask_susan_to_join", "go_by_car"),
            ("ask_susan_to_join", "go_by_car", "go_by_car"),
            ("ask_susan_to_join", "go_by_car", "take_the_bus"),
            ("take_the_bus",),
        }

    def test_henry_lazy_strategy_outcome_included(self, scenario):
        r = exhaustive_interleavings(scenario("henry"))
        assert r.action_multisets == {(), ("sing_a_song",)}

    def test_a_goal_already_being_proved_is_a_dead_branch(self):
        # Expanding p by `p :- p` leaves p under its own ancestor, which
        # the search may not expand again: that branch ends with nothing
        # performed, the other performs a.
        p = parse_agent_file("agent A. @action a. p :- p. p :- a.")
        r = exhaustive_interleavings(p, query="p")
        assert not r.truncated
        assert r.action_multisets == {(), ("a",)}

    def test_an_event_proved_again_after_its_reaction_stays_out_of_iv(self):
        # q proves e again once e has been reacted to: e is in PV, so the
        # second proof does not put e back in IV, and a reacts only once.
        p = parse_agent_file(
            "agent A. @internal e. @action a. e. e :> a. q :- past(e), e."
        )
        r = exhaustive_interleavings(p, query="q")
        assert not r.truncated
        assert r.action_multisets == {("a",)}
        assert run_agent(p, query="q").state.performed_names() == ("a",)

    @pytest.mark.parametrize("size, truncated", [(64, False), (65, True)])
    def test_goal_size_bound_truncates(self, size, truncated):
        p = parse_agent_file(f"agent A. p :- {', '.join(['q'] * size)}. q.")
        r = exhaustive_interleavings(p, query="p")
        assert r.truncated == truncated
        assert r.action_multisets == (set() if truncated else {()})

    def test_state_bound_truncates(self, scenario):
        r = exhaustive_interleavings(
            scenario("anne"), inbox=["invitation"], max_states=5
        )
        assert r.truncated
        assert r.explored <= 5

    def test_query_text_is_parsed(self, scenario):
        george = scenario("george")
        r = exhaustive_interleavings(
            george, inbox=["girlfriend_call"], query="past(girlfriend_call)"
        )
        assert not r.truncated
        as_atom = exhaustive_interleavings(
            george, inbox=["girlfriend_call"], query=Atom.past("girlfriend_call")
        )
        assert r == as_atom
        with pytest.raises(DaliSyntaxError):
            exhaustive_interleavings(george, query="go out")

    @pytest.mark.parametrize(
        "event",
        ["zzz", "happy", "past(girlfriend_call)", Atom.now("girlfriend_call"), Atom("zzz")],
    )
    def test_inbox_takes_only_declared_external_events(self, scenario, event):
        # The engine and the oracle share one inbox rule, messages included.
        if "(" in str(event):
            message = f"inbox event {event} is marked; give the event name"
        else:
            message = f"'{event}' is not a declared external event of agent George"
        george = scenario("george")
        with pytest.raises(DaliConfigError) as exc:
            exhaustive_interleavings(george, inbox=["girlfriend_call", event])
        assert str(exc.value) == message
        with pytest.raises(DaliConfigError) as exc:
            Engine(george).inject(event)
        assert str(exc.value) == message

    def test_inbox_event_as_text_or_atom(self, scenario):
        george = scenario("george")
        assert exhaustive_interleavings(george, inbox=["girlfriend_call"]) == (
            exhaustive_interleavings(george, inbox=[Atom("girlfriend_call")])
        )


class TestDefaultStrategyMembership:
    def test_default_outcome_is_reachable_everywhere(self, scenario):
        cases = [
            ("danger", ["danger"]),
            ("henry", []),
            ("anne", ["invitation"]),
            ("mary", ["alarm_clock_rings"]),
            ("george", ["girlfriend_call"]),
        ]
        for name, inbox in cases:
            program = scenario(name)
            result = run_agent(program, inbox=[(0, e) for e in inbox])
            reachable = exhaustive_interleavings(program, inbox=inbox)
            assert reachable.contains(
                result.state.performed_names(),
                result.state.pv,
            ), name
