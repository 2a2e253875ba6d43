from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dali import load_agent_file
from dali.errors import DaliConfigError
from dali.model import (
    ACTION,
    ORDINARY,
    REACTIVE,
    AgentProgram,
    Atom,
    Clause,
    validate_program,
)
from dali.oracle import naive_fixpoint
from dali.parser import parse_agent_file
from dali.semantics import (
    RULE_ACTION,
    RULE_INIT,
    RULE_ORDINARY,
    RULE_PAST,
    RULE_REACTIVE,
    HornRules,
    InitialSituation,
    TransformedProgram,
    least_model,
    render_transformed,
    snapshot,
    transform_program,
)


DATA = Path(__file__).resolve().parent / "data" / "semantics"


def clause_strings(tp):
    return [str(c) for c in tp.clauses]


class TestLeastModel:
    def test_two_clause_example(self):
        assert least_model([("p", ()), ("p", ("q",)), ("q", ())]) == {"p", "q"}

    def test_self_guarded_variant(self):
        assert least_model([("p", ()), ("p", ("p", "q")), ("q", ())]) == {"p", "q"}

    def test_empty_program(self):
        assert least_model([]) == frozenset()

    def test_no_facts_no_model(self):
        assert least_model([("p", ("q",))]) == frozenset()

    def test_fixpoint_is_stable(self):
        clauses = [("p", ("q", "r")), ("q", ()), ("r", ("q",)), ("s", ("t",))]
        model = least_model(clauses)
        again = {h for h, b in clauses if all(x in model for x in b)} | set(model)
        assert again == model


class TestTransform:
    def test_action_without_rule_gets_performing_clause(self, scenario):
        tp = transform_program(scenario("action1"))
        assert "a :- p, b." in clause_strings(tp)
        assert least_model(tp) >= {"p", "b", "a"}
        assert least_model(tp) == {"p", "b", "a"}

    def test_action_with_rule_appends_preconditions(self, scenario):
        tp = transform_program(scenario("action2"))
        assert "a :- p, b, c." in clause_strings(tp)
        # the action rule itself is gone: nothing else derives a
        assert [c for c in tp.clauses if c.head == "a"] == [
            c for c in tp.clauses if c.rule == RULE_ACTION
        ]
        # retained fact c makes the model one atom larger than the
        # guarded transform alone would suggest
        assert least_model(tp) == {"p", "b", "c", "a"}

    def test_reactive_rule_becomes_guarded_pair(self):
        p = parse_agent_file("agent A. @external e. @action r. e :> r.")
        tp = transform_program(p, [Atom("e")])
        texts = clause_strings(tp)
        assert "e :- e, r." in texts
        assert "past_e :- e, r." in texts
        assert "e." in texts
        assert "now_e." in texts

    def test_henry_exact_program_and_model(self, scenario):
        tp = transform_program(scenario("henry"))
        assert clause_strings(tp) == [
            "happy :- sunny_day.",
            "happy :- happy, sing_a_song.",
            "past_happy :- happy, sing_a_song.",
            "sing_a_song :- happy.",
            "sunny_day.",
        ]
        assert least_model(tp) == {"sunny_day", "happy", "sing_a_song", "past_happy"}

    def test_output_contains_only_plain_horn_clauses(self, scenario):
        for name in ("henry", "danger", "anne", "mary", "george"):
            tp = transform_program(scenario(name))
            for c in tp.clauses:
                assert isinstance(c.head, str)
                assert all(isinstance(b, str) for b in c.body)
                assert c.rule in (
                    RULE_ORDINARY,
                    RULE_REACTIVE,
                    RULE_PAST,
                    RULE_ACTION,
                    RULE_INIT,
                )

    def test_marker_atoms_are_renamed(self, scenario):
        tp = transform_program(scenario("george"))
        assert "happy :- past_girlfriend_call." in clause_strings(tp)
        tp = transform_program(scenario("mary"))
        assert "my_god_its_late :- now_alarm_clock_rings." in clause_strings(tp)

    def test_init_entries_must_be_declared(self, scenario):
        with pytest.raises(DaliConfigError):
            transform_program(scenario("henry"), [Atom("not_declared")])
        with pytest.raises(DaliConfigError):
            transform_program(scenario("henry"), [Atom.past("sunny_day")])

    def test_init_past_event_unit_clause(self, scenario):
        tp = transform_program(scenario("george"), [Atom.past("girlfriend_call")])
        assert "past_girlfriend_call." in clause_strings(tp)

    def test_internal_init_event_gets_no_now_clause(self, scenario):
        tp = transform_program(scenario("henry"), [Atom("happy")])
        texts = clause_strings(tp)
        assert "happy." in texts
        assert "now_happy." not in texts

    def test_render_is_dali_compatible(self, scenario):
        text = render_transformed(transform_program(scenario("henry")))
        reparsed = parse_agent_file(text)
        assert len(reparsed.clauses) == 5

    def test_every_branch_matches_the_pinned_program(self):
        # branches.dali holds every kind of clause the transform treats
        # differently.  Regenerate the pinned P' only when a change of it
        # is intended: dali transform tests/data/semantics/branches.dali
        # --init 'e1,i1,past(e2)'
        program = load_agent_file(DATA / "branches.dali")
        init = [Atom("e1"), Atom("i1"), Atom.past("e2")]
        expected = (DATA / "branches.transform.out").read_text(encoding="utf-8")
        assert render_transformed(transform_program(program, init)) == expected


class TestRestrict:
    def test_dropping_a_derivation_clause_changes_the_model(self, scenario):
        tp = transform_program(scenario("mary"), [Atom("alarm_clock_rings")])
        full = least_model(tp)
        assert {"stand_up", "switch_it_off"} <= full
        lazy = TransformedProgram(
            tp.agent,
            tuple(
                c for c in tp.clauses
                if not (c.rule == RULE_ACTION and c.head == "switch_it_off")
            ),
        )
        model = least_model(lazy)
        assert "stand_up" in model
        assert "switch_it_off" not in model

    def test_action_behind_ordinary_indirection_is_not_derivable(self, scenario):
        # The guarded derivation clause conditions the action on its
        # performing clause's head; when that head is itself only provable
        # through the action, the two clauses deadlock and the snapshot
        # stays silent about the action.  Only actions appearing directly
        # in reactive bodies (or under independently true heads) derive.
        model = least_model(transform_program(scenario("danger"), [Atom("danger")]))
        assert model == {"danger", "now_danger", "have_a_phone"}


class TestSnapshot:
    def test_henry_snapshot_contains_the_song(self, scenario):
        assert "sing_a_song" in snapshot(scenario("henry"))

    def test_george_happy_iff_past_call(self, scenario):
        george = scenario("george")
        assert "happy" in snapshot(george, [Atom.past("girlfriend_call")])
        assert "happy" not in snapshot(george)

    def test_pure_program_snapshot_is_plain_least_model(self, scenario):
        p = scenario("snapshot1")
        assert snapshot(p) == least_model(
            (c.head.name, tuple(a.name for a in c.body)) for c in p.clauses
        )


# -- monotonicity property -------------------------------------------------

names = st.sampled_from([f"a{i}" for i in range(8)])
horn = st.lists(
    st.tuples(names, st.lists(names, max_size=3).map(tuple)), max_size=12
)


@settings(max_examples=150)
@given(horn, st.sets(st.integers(min_value=0, max_value=11)))
def test_least_model_monotone_in_clause_set(clauses, kept_indices):
    subset = [c for i, c in enumerate(clauses) if i in kept_indices]
    assert least_model(subset) <= least_model(clauses)


@settings(max_examples=100)
@given(horn)
def test_least_model_is_a_fixpoint(clauses):
    model = least_model(clauses)
    step = {h for h, body in clauses if all(b in model for b in body)}
    assert step <= model


# -- shape of P' on generated agents -----------------------------------------


@st.composite
def agent_programs(draw):
    """Valid agents whose roles overlap: `a` is an internal event and an
    action, so a reactive guard can name an action; bodies may repeat
    atoms and perform an action more than once."""
    externals = sorted(draw(st.sets(st.sampled_from(["e", "f"]))))
    events = externals + ["i", "a"]
    atoms = (
        [Atom(n) for n in ("i", "a", "b", "p", "q")]
        + [Atom.past(e) for e in events]
        + [Atom.now(e) for e in externals]
    )

    def bodies(min_size):
        return st.lists(st.sampled_from(atoms), min_size=min_size, max_size=4).map(tuple)

    reactive = draw(st.dictionaries(st.sampled_from(events), bodies(1)))
    action = draw(st.dictionaries(st.sampled_from(["a", "b"]), bodies(1)))
    ordinary = draw(
        st.lists(st.tuples(st.sampled_from(["i", "p", "q"]), bodies(0)), max_size=4)
    )
    clauses = [
        *(Clause(Atom(h), b, REACTIVE) for h, b in reactive.items()),
        *(Clause(Atom(h), b, ACTION) for h, b in action.items()),
        *(Clause(Atom(h), b, ORDINARY) for h, b in ordinary),
    ]
    order = draw(st.permutations(range(len(clauses))))
    program = AgentProgram(
        "Gen",
        tuple(clauses[i] for i in order),
        externals=tuple(map(Atom, externals)),
        internals=(Atom("i"), Atom("a")),
        actions=(Atom("a"), Atom("b")),
    )
    assert validate_program(program).ok
    return program


@settings(max_examples=150)
@given(agent_programs())
def test_transform_repeats_no_clause_and_derives_no_action_from_itself(program):
    # A clause of P' is one (head, body, rule, source) tuple, so two equal
    # ones came from the same source clause.
    clauses = transform_program(program).clauses
    assert len(set(clauses)) == len(clauses)
    for c in clauses:
        if c.rule == RULE_ACTION:
            assert c.head not in c.body, c


# -- compiled rules against the brute-force fixpoint -----------------------


@st.composite
def horn_with_seed_sets(draw):
    """Clauses with bodies of up to 12 atoms over a small alphabet, so
    bodies repeat atoms and a head often sits in its own body, and seed
    sets drawn mostly from the atoms the clauses use."""
    alphabet = [f"a{i}" for i in range(10)]
    clauses = []
    for head, body in draw(
        st.lists(
            st.tuples(st.sampled_from(alphabet), st.lists(st.sampled_from(alphabet), max_size=12)),
            max_size=16,
        )
    ):
        if body and draw(st.booleans()):
            body.insert(draw(st.integers(0, len(body))), head)
        clauses.append((head, tuple(body)))
    used = sorted({a for h, b in clauses for a in (h, *b)}) or alphabet
    seeds = st.lists(st.sampled_from(used) | st.sampled_from(alphabet), max_size=6)
    return clauses, draw(st.lists(seeds, min_size=5, max_size=8))


@settings(max_examples=200)
@given(horn_with_seed_sets(), st.randoms(use_true_random=False))
def test_compiled_rules_match_naive_fixpoint_for_each_seed_set(drawn, rnd):
    # One compilation serves every seed set, as in evolve_system, and no
    # state carries from one closure to the next: each seed set, taken in
    # a shuffled order and then again in reverse, gets its own model.
    clauses, seed_sets = drawn
    rules = HornRules(clauses)
    expected = [naive_fixpoint(clauses + [(s, ()) for s in seeds]) for seeds in seed_sets]
    order = list(range(len(seed_sets)))
    rnd.shuffle(order)
    for i in order + order[::-1]:
        assert rules.closure(seed_sets[i]) == expected[i]


class TestHornRules:
    def test_duplicate_body_atoms_count_once(self):
        rules = HornRules([("p", ("q", "q"))])
        assert rules.closure() == frozenset()
        assert rules.closure(["q"]) == {"p", "q"}

    def test_head_in_its_own_body(self):
        rules = HornRules([("p", ("p", "q")), ("r", ("r",))])
        assert rules.closure(["q"]) == {"q"}
        assert rules.closure(["p", "q"]) == {"p", "q"}
        assert rules.closure(["r"]) == {"r"}

    def test_one_shot_generator_input(self):
        pairs = [("p", ()), ("q", ("p",)), ("r", ("q", "s"))]
        rules = HornRules(pair for pair in pairs)
        assert rules.closure() == {"p", "q"}
        # compiled once: a second closure sees the same clauses
        assert rules.closure(["s"]) == {"p", "q", "r", "s"}

    def test_seed_that_is_also_a_fact(self):
        rules = HornRules([("p", ()), ("q", ("p",))])
        assert rules.closure(["p"]) == {"p", "q"}
        assert rules.closure(["p", "p"]) == {"p", "q"}

    def test_transformed_program_and_its_pairs_compile_alike(self, scenario):
        tp = transform_program(scenario("mary"), [Atom("alarm_clock_rings")])
        seeds = ["past_my_god_its_late"]
        pairs = [(c.head, c.body) for c in tp.clauses]
        assert HornRules(tp).closure(seeds) == HornRules(pairs).closure(seeds)
        assert HornRules(tp).closure() == naive_fixpoint(tp)

    def test_a_resumed_scan_reads_on_to_the_last_atom(self):
        # h waits on b, which a chain derives only after a is taken from
        # the queue; when b comes true, c still is not.
        rules = HornRules(
            [("a", ()), ("p", ("a",)), ("q", ("p",)), ("b", ("q",)), ("h", ("a", "b", "c"))]
        )
        assert rules.closure() == {"a", "p", "q", "b"}
        assert rules.closure(["c"]) == {"a", "p", "q", "b", "c", "h"}

    def test_closure_reads_each_body_atom_at_most_once(self):
        # `h :- b_0, .., b_{n-1}` plus the chain `b_{i+1} :- b_i`, seeded
        # with b_0: the long clause waits again each time the chain gets
        # one or two atoms further, about n / 2 times.  A scan that
        # restarted each body from its first atom would read about
        # n * n / 4 atoms.
        reads = 0

        class CountedBody(tuple):
            def __getitem__(self, index):
                nonlocal reads
                item = super().__getitem__(index)
                reads += len(item) if isinstance(index, slice) else 1
                return item

            def __iter__(self):
                nonlocal reads
                for atom in super().__iter__():
                    reads += 1
                    yield atom

            def __contains__(self, atom):
                return atom in iter(self)

        n = 2000
        atoms = [f"b_{i}" for i in range(n)]
        clauses = [("h", CountedBody(atoms))]
        clauses += [(atoms[i + 1], CountedBody(atoms[i : i + 1])) for i in range(n - 1)]
        assert HornRules(clauses).closure([atoms[0]]) == {"h", *atoms}
        assert reads < 3 * n


def test_initial_situation_rejects_present_markers(scenario):
    with pytest.raises(DaliConfigError):
        InitialSituation((Atom.now("alarm_clock_rings"),)).validated(scenario("mary"))


class TestEngineCoherence:
    """Interpreter runs and snapshot models agree where the transform's
    guarded derivation clauses can fire: performed actions appear in the
    model and reacted events appear as past_ atoms.  danger and anne put
    their actions behind an ordinary indirection, which the transform
    cannot bootstrap (see the deadlock test above), so the two sides are
    compared only on the scenarios in the transform's reach.
    """

    @pytest.mark.parametrize(
        "name,inbox", [("henry", []), ("mary", ["alarm_clock_rings"])]
    )
    def test_run_outcome_contained_in_snapshot(self, scenario, name, inbox):
        from dali.engine import run_agent

        program = scenario(name)
        result = run_agent(program, inbox=[(0, e) for e in inbox])
        model = snapshot(program, [Atom(e) for e in inbox])
        for action in result.state.performed_names():
            assert action in model
        for past in result.state.pv_names():
            assert f"past_{past}" in model


def test_reactive_transform_guard_blocks_unfired_events():
    p = AgentProgram(
        "A",
        (Clause(Atom("e"), (Atom("r"),), REACTIVE), Clause(Atom("r"))),
        externals=(Atom("e"),),
    )
    # without the initial event, neither e nor past_e is derivable
    model = snapshot(p)
    assert model == {"r"}
    model = snapshot(p, [Atom("e")])
    assert model == {"e", "now_e", "r", "past_e"}
