import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dali import model, runtime
from dali.errors import DaliConfigError, DaliSyntaxError, DaliValidationError
from dali.model import ACTION, ORDINARY, REACTIVE, AgentProgram, Atom, Clause
from dali.runtime import (
    ChannelMapping,
    SystemConfig,
    SystemRunner,
    evolve_system,
    load_system_config,
    run_system,
)
from dali.semantics import InitialSituation, least_model, transform_program


@pytest.fixture
def ping_config(scenario_dir):
    return load_system_config(scenario_dir / "ping.system")


class TestConfigLoading:
    def test_ping_system_loads(self, ping_config):
        assert list(ping_config.agents) == ["Producer", "Consumer"]
        assert ping_config.max_ticks == 10

    def test_unknown_directive(self, tmp_path):
        cfg = tmp_path / "bad.system"
        cfg.write_text("frobnicate 3\n")
        with pytest.raises(DaliSyntaxError, match="unknown config directive"):
            load_system_config(cfg)

    def test_script_must_target_known_agent(self, tmp_path, scenario_dir):
        (tmp_path / "a.dali").write_text("agent A. @external e. e :> r. r.\n")
        (tmp_path / "s.events").write_text("0 Nobody e\n")
        cfg = tmp_path / "sys.system"
        cfg.write_text("agent a.dali\nscript s.events\n")
        with pytest.raises(DaliConfigError, match="unknown agent"):
            load_system_config(cfg)

    def test_script_event_must_be_declared_external(self, tmp_path):
        (tmp_path / "a.dali").write_text("agent A. @external e. e :> r. r.\n")
        (tmp_path / "s.events").write_text("0 A mystery\n")
        cfg = tmp_path / "sys.system"
        cfg.write_text("agent a.dali\nscript s.events\n")
        with pytest.raises(DaliConfigError, match="not a declared external"):
            load_system_config(cfg)

    def test_invalid_agent_rejected_at_load(self, tmp_path):
        (tmp_path / "a.dali").write_text("agent A. e :> r.\n")
        cfg = tmp_path / "sys.system"
        cfg.write_text("agent a.dali\n")
        with pytest.raises(DaliValidationError):
            load_system_config(cfg)

    def test_each_agent_is_validated_once(self, scenario_dir, monkeypatch):
        calls = []
        validate = model._validate
        monkeypatch.setattr(model, "_validate", lambda p: calls.append(p.name) or validate(p))
        config = load_system_config(scenario_dir / "ping.system")
        SystemRunner(config).run()
        evolve_system(config)
        assert calls == ["Producer", "Consumer"]

    def test_map_lines_are_checked(self, tmp_path):
        (tmp_path / "a.dali").write_text("agent A. @action ping. @internal go. go. go :> ping.\n")
        (tmp_path / "b.dali").write_text("agent B. @external pong. pong :> noted. noted.\n")
        good = tmp_path / "good.system"
        good.write_text("agent a.dali\nagent b.dali\nmap A.ping -> B.pong\n")
        cfg = load_system_config(good)
        assert cfg.mapping.resolve("A", "ping", "B") == "pong"
        assert cfg.mapping.resolve("A", "other", "B") == "other"  # identity
        bad = tmp_path / "bad.system"
        bad.write_text("agent a.dali\nagent b.dali\nmap A.nope -> B.pong\n")
        with pytest.raises(DaliConfigError, match="not a declared action"):
            load_system_config(bad)


class TestChannelMapping:
    def test_first_entry_wins_for_a_repeated_triple(self):
        mapping = ChannelMapping(
            (
                ("A", "ping", "B", "pong"),
                ("A", "ping", "C", "knock"),
                ("A", "ping", "B", "later"),
            )
        )
        assert mapping.resolve("A", "ping", "B") == "pong"
        assert mapping.resolve("A", "ping", "C") == "knock"
        assert mapping.resolve("B", "ping", "A") == "ping"  # identity
        assert mapping.resolve("A", "other", "B") == "other"

    def test_repeated_map_lines_in_a_config(self, tmp_path):
        (tmp_path / "a.dali").write_text("agent A. @action ping. @internal go. go. go :> ping.\n")
        (tmp_path / "b.dali").write_text(
            "agent B. @external pong. @external bell. pong :> noted. bell :> noted. noted.\n"
        )
        cfg = tmp_path / "dup.system"
        cfg.write_text(
            "agent a.dali\nagent b.dali\nmap A.ping -> B.pong\nmap A.ping -> B.bell\n"
        )
        assert load_system_config(cfg).mapping.resolve("A", "ping", "B") == "pong"

    def test_equal_entries_give_equal_mappings(self):
        entries = (("A", "ping", "B", "pong"),)
        assert ChannelMapping(entries) == ChannelMapping(entries)
        assert hash(ChannelMapping(entries)) == hash(ChannelMapping(entries))
        assert repr(ChannelMapping(entries)) == repr(ChannelMapping(entries))


class TestTickLoop:
    def test_broadcast_arrives_next_tick_and_never_self(self, ping_config):
        runner = SystemRunner(ping_config)
        runner.run_tick()  # tick 0: producer performs ping
        producer = runner.engines["Producer"]
        consumer = runner.engines["Consumer"]
        assert producer.state.performed_names() == ("ping",)
        assert consumer.state.ev_names() == ()  # not yet delivered
        runner.run_tick()  # tick 1: delivery, reaction
        assert consumer.state.pv_names() == ("ping",)
        assert consumer.state.performed_names() == ("log_it",)
        # the producer never receives its own ping, at any tick
        assert "ping" not in producer.state.ev_names()
        assert all(a.name != "ping" for a in producer.state.pv)

    def test_unmapped_action_warns_and_drops(self, ping_config):
        result = SystemRunner(ping_config).run()
        assert any("log_it" in w and "dropped" in w for w in result.warnings)
        producer = {name for name, _ in result.trace}
        assert producer == {"Producer", "Consumer"}

    def test_system_reaches_quiescence(self, ping_config):
        result = run_system(ping_config)
        assert result.quiescent
        assert result.ticks <= ping_config.max_ticks

    def test_quiet_system_tick_is_identity(self, scenario_dir):
        config = load_system_config(scenario_dir / "henry.system")
        runner = SystemRunner(config)
        runner.run()
        state_before = {
            name: (e.state.performed_names(), e.state.pv_names(), e.steps_taken)
            for name, e in runner.engines.items()
        }
        runner.run_tick()
        state_after = {
            name: (e.state.performed_names(), e.state.pv_names(), e.steps_taken)
            for name, e in runner.engines.items()
        }
        assert state_before == state_after

    def test_script_injection_at_its_tick(self, scenario_dir):
        config = load_system_config(scenario_dir / "mary.system")
        runner = SystemRunner(config)
        runner.run_tick()
        mary = runner.engines["Mary"]
        assert set(mary.state.performed_names()) == {"stand_up", "switch_it_off"}

    def test_late_script_entries_fast_forward(self, tmp_path, scenario_dir):
        (tmp_path / "a.dali").write_text("agent A. @external e. @action x. e :> x.\n")
        (tmp_path / "s.events").write_text("0 A e\n7 A e\n")
        cfg = tmp_path / "sys.system"
        cfg.write_text("agent a.dali\nscript s.events\nmax_ticks 20\n")
        result = run_system(load_system_config(cfg))
        assert result.quiescent
        engine_steps = [rec for _, rec in result.trace if rec.case == "iv"]
        assert len(engine_steps) == 2

    def test_deterministic_replay(self, ping_config, scenario_dir):
        a = SystemRunner(load_system_config(scenario_dir / "ping.system")).run()
        b = SystemRunner(load_system_config(scenario_dir / "ping.system")).run()
        assert a.trace == b.trace
        assert a.warnings == b.warnings

    def test_micro_step_delivers_immediately(self, ping_config):
        runner = SystemRunner(ping_config)
        consumer = runner.engines["Consumer"]
        saw_ping = False
        for _ in range(100):
            if runner.micro_step() is None:
                break
            if "ping" in consumer.state.ev_names():
                saw_ping = True
        assert saw_ping
        assert consumer.state.performed_names() == ("log_it",)

    def test_inject_validates_agent(self, ping_config):
        runner = SystemRunner(ping_config)
        with pytest.raises(DaliConfigError):
            runner.inject("Nobody", "ping")


DROPPED = re.compile(
    r"(?:derived )?action '(\w+)' by (\w+) has no external event at (\w+); dropped"
)


def dropped(warnings):
    """The (producer, action, consumer) triple of each drop warning."""
    out = []
    for w in warnings:
        action, producer, consumer = DROPPED.fullmatch(w).groups()
        out.append((producer, action, consumer))
    return out


class TestBroadcastRule:
    def test_runner_and_evolution_drop_the_same_triples_once(self, tmp_path):
        (tmp_path / "p.dali").write_text("agent P. @external go. @action ping. go :> ping.\n")
        (tmp_path / "a.dali").write_text("agent A. @external pong. pong :> noted. noted.\n")
        (tmp_path / "b.dali").write_text("agent B. @external other. other :> noted. noted.\n")
        (tmp_path / "s.events").write_text("0 P go\n3 P go\n")
        cfg = tmp_path / "sys.system"
        cfg.write_text(
            "agent p.dali\nagent a.dali\nagent b.dali\nscript s.events\n"
            "map P.ping -> A.pong\n"
        )
        config = load_system_config(cfg)
        runner = SystemRunner(config)
        result = runner.run()
        assert result.quiescent
        # ping is performed twice; the mapped consumer hears it, the
        # unmapped one drops it
        assert runner.engines["P"].state.performed_names() == ("ping", "ping")
        assert runner.engines["A"].state.pv_names() == ("pong",)
        assert runner.engines["B"].state.pv_names() == ()
        trace = evolve_system(config, {"P": [Atom("go")]})
        assert "ping" in trace.rounds[0].models["P"]
        assert any(Atom("pong") in rnd.units["A"] for rnd in trace.rounds)
        assert dropped(result.warnings) == [("P", "ping", "B")]
        assert dropped(trace.warnings) == [("P", "ping", "B")]

    def test_first_drop_order_of_two_producers(self, tmp_path):
        # The tick loop drops in the order actions are performed, each at
        # the consumers in agent order; evolution drops round by round,
        # consumer-major within a round.
        (tmp_path / "p.dali").write_text("agent P. @external go. @action ping. go :> ping.\n")
        (tmp_path / "q.dali").write_text("agent Q. @external go. @action bell. go :> bell.\n")
        (tmp_path / "x.dali").write_text(
            "agent X. @external pong. @action shout. pong :> shout.\n"
        )
        (tmp_path / "y.dali").write_text("agent Y. @external knock. knock :> noted. noted.\n")
        (tmp_path / "s.events").write_text("0 P go\n0 Q go\n")
        cfg = tmp_path / "sys.system"
        cfg.write_text(
            "agent p.dali\nagent q.dali\nagent x.dali\nagent y.dali\n"
            "script s.events\nmap Q.bell -> X.pong\n"
        )
        config = load_system_config(cfg)
        result = SystemRunner(config).run()
        trace = evolve_system(config, {"P": [Atom("go")], "Q": [Atom("go")]})
        assert result.quiescent and trace.reached_fixpoint
        assert dropped(result.warnings) == [
            ("P", "ping", "Q"),
            ("P", "ping", "X"),
            ("P", "ping", "Y"),
            ("Q", "bell", "P"),
            ("Q", "bell", "Y"),
            ("X", "shout", "P"),
            ("X", "shout", "Q"),
            ("X", "shout", "Y"),
        ]
        assert dropped(trace.warnings) == [
            ("Q", "bell", "P"),
            ("P", "ping", "Q"),
            ("P", "ping", "X"),
            ("P", "ping", "Y"),
            ("Q", "bell", "Y"),
            ("X", "shout", "P"),
            ("X", "shout", "Q"),
            ("X", "shout", "Y"),
        ]
        assert all(w.startswith("derived action ") for w in trace.warnings)


POOL = ("ping", "pong", "bell", "knock", "ring")
INTERNAL_POOL = ("go", "tired")
PLAIN_POOL = ("p", "q")


@st.composite
def agent_clauses(draw, externals, internals, actions):
    """Up to 4 rules: reactive ones for declared events, ordinary ones
    for internal and plain heads, action rules; bodies use externals
    only under past(..) or now(..)."""
    ext = [a.name for a in externals]
    events = ext + [a.name for a in internals]
    heads = {
        ORDINARY: [Atom(n) for n in PLAIN_POOL] + list(internals),
        REACTIVE: [Atom(e) for e in events],
        ACTION: list(actions),
    }
    body_atoms = (
        heads[ORDINARY]
        + list(actions)
        + [Atom.past(e) for e in events]
        + [Atom.now(e) for e in ext]
    )
    kinds = [k for k in (ORDINARY, REACTIVE, ACTION) if heads[k]]
    clauses = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(kinds))
        head = draw(st.sampled_from(heads[kind]))
        min_size = 0 if kind == ORDINARY else 1
        body = draw(st.lists(st.sampled_from(body_atoms), min_size=min_size, max_size=3))
        clauses.append(Clause(head, tuple(body), kind))
    return tuple(clauses)


@st.composite
def routed_systems(draw):
    """2-5 agents, listed out of name order, drawing externals and
    actions from one name pool, internals from another, and reactive,
    ordinary and action rules over them; and map entries that
    `SystemConfig.validate` accepts.  An agent may declare one of its
    actions as external too: routing must still never feed it back."""
    agents = {}
    for i in draw(st.permutations(range(draw(st.integers(2, 5))))):
        name = f"A{i}"
        externals = tuple(map(Atom, draw(st.lists(st.sampled_from(POOL), max_size=3))))
        internals = tuple(map(Atom, draw(st.lists(st.sampled_from(INTERNAL_POOL), max_size=2))))
        actions = tuple(map(Atom, draw(st.lists(st.sampled_from(POOL), max_size=3))))
        agents[name] = AgentProgram(
            name,
            clauses=draw(agent_clauses(externals, internals, actions)),
            externals=externals,
            internals=internals,
            actions=actions,
        )
    valid = [
        (p, a.name, c, e.name)
        for p, prog in agents.items()
        for a in prog.actions
        for c, cprog in agents.items()
        if c != p
        for e in cprog.externals
    ]
    entries = draw(st.lists(st.sampled_from(valid), max_size=6)) if valid else []
    config = SystemConfig(agents, mapping=ChannelMapping(tuple(entries)))
    config.validate()
    return config


@settings(max_examples=150, deadline=None)
@given(routed_systems())
def test_routes_match_the_brute_force_rule(config):
    broadcast = runtime._Broadcast(config, "action")
    agents = config.agents
    for p, prog in agents.items():
        for a in prog.actions:
            received, expected_drops = [], []
            for c, cprog in agents.items():
                if c == p:
                    continue
                event = config.mapping.resolve(p, a.name, c)
                if event in cprog.external_names:
                    received.append((c, Atom(event)))
                else:
                    expected_drops.append((p, a.name, c))
            assert broadcast.route(p, a.name) == tuple(received)
            assert dropped(broadcast.warnings([[(p, a.name)]])) == expected_drops


def next_units(config, models):
    """The units the broadcast rule derives from one round's models."""
    out = {name: set() for name in config.agents}
    for name, program in config.agents.items():
        mine = models[name]
        out[name] |= {Atom(a.name) for a in program.internals if a.name in mine}
        out[name] |= {Atom.past(e) for e in program.event_names if f"past_{e}" in mine}
        for act in program.actions:
            if act.name not in mine:
                continue
            for c, cprog in config.agents.items():
                event = config.mapping.resolve(name, act.name, c)
                if c != name and event in cprog.external_names:
                    out[c].add(Atom(event))
    return {name: frozenset(atoms) for name, atoms in out.items()}


@settings(max_examples=150, deadline=None)
@given(routed_systems(), st.data())
def test_evolution_rounds_match_a_rebuilt_transform(config, data):
    """Each round's model is the least model of the agent's whole P'
    rebuilt from that round's units, and each round's units follow from
    the previous round's models by the broadcast rule."""
    init = {}
    for name, program in config.agents.items():
        events = sorted(program.event_names)
        choices = [Atom(e) for e in events] + [Atom.past(e) for e in events]
        init[name] = data.draw(st.lists(st.sampled_from(choices), max_size=3)) if choices else []
    trace = evolve_system(config, init)
    assert trace.rounds[0].units == {n: frozenset(init[n]) for n in config.agents}
    for rnd in trace.rounds:
        for name, program in config.agents.items():
            tp = transform_program(program, InitialSituation(tuple(rnd.units[name])))
            assert rnd.models[name] == least_model(tp)
    for earlier, later in zip(trace.rounds, trace.rounds[1:]):
        assert later.units == next_units(config, earlier.models)
    last = trace.rounds[-1]
    if trace.reached_fixpoint:
        assert next_units(config, last.models) == last.units
    else:
        assert len(trace.rounds) == runtime.MAX_EVOLUTION_ROUNDS


class TestEvolution:
    @pytest.mark.parametrize(
        "event,message",
        [
            (
                Atom.now("alarm_clock_rings"),
                "init entry now(alarm_clock_rings) is redundant: present "
                "markers are implied for initial external events",
            ),
            (Atom("nosuch"), "init event 'nosuch' is not a declared event of agent Mary"),
            (
                Atom.past("nosuch"),
                "init past event 'nosuch' is not a declared event of agent Mary",
            ),
        ],
    )
    def test_init_is_validated(self, scenario_dir, event, message):
        config = load_system_config(scenario_dir / "mary.system")
        with pytest.raises(DaliConfigError) as exc:
            evolve_system(config, {"Mary": [Atom("alarm_clock_rings"), event]})
        assert str(exc.value) == message

    def test_no_events_fixpoint_immediately(self, scenario):
        config = SystemConfig({"S": scenario("snapshot1")})
        trace = evolve_system(config)
        assert trace.reached_fixpoint
        assert len(trace.rounds) == 1
        assert trace.rounds[0].models["S"] == {"p", "q"}

    def test_ping_consumer_derives_by_round_two(self, ping_config):
        trace = evolve_system(ping_config)
        assert trace.reached_fixpoint
        round2 = trace.rounds[1]
        assert {"log_it", "past_ping"} <= round2.models["Consumer"]
        assert Atom("ping") in round2.units["Consumer"]
        # producers never feed themselves
        for rnd in trace.rounds:
            assert Atom("ping") not in rnd.units["Producer"]

    def test_henry_past_unit_appears_in_round_two(self, scenario):
        config = SystemConfig({"Henry": scenario("henry")})
        trace = evolve_system(config)
        assert trace.reached_fixpoint
        assert len(trace.rounds) == 2
        assert "sing_a_song" in trace.rounds[0].models["Henry"]
        assert Atom.past("happy") in trace.rounds[1].units["Henry"]

    def test_round_limit_flags_truncation(self, ping_config, monkeypatch):
        monkeypatch.setattr(runtime, "MAX_EVOLUTION_ROUNDS", 1)
        trace = evolve_system(ping_config)
        assert not trace.reached_fixpoint

    def test_units_follow_previous_models(self, ping_config):
        trace = evolve_system(ping_config)
        for earlier, later in zip(trace.rounds, trace.rounds[1:]):
            for name, units in later.units.items():
                for atom in units:
                    if atom.marker == "past":
                        assert f"past_{atom.name}" in earlier.models[name]

    def test_channel_mapping_renames_events(self, tmp_path):
        (tmp_path / "p.dali").write_text(
            "agent P. @internal go. @action ring. go. go :> ring.\n"
        )
        (tmp_path / "c.dali").write_text(
            "agent C. @external phone_call. @action answer. phone_call :> answer.\n"
        )
        cfg = tmp_path / "sys.system"
        cfg.write_text(
            "agent p.dali\nagent c.dali\nmap P.ring -> C.phone_call\n"
        )
        config = load_system_config(cfg)
        trace = evolve_system(config)
        assert any(
            Atom("phone_call") in rnd.units["C"] for rnd in trace.rounds
        )
        result = run_system(config)
        consumer = [rec for name, rec in result.trace if name == "C"]
        assert any(rec.case == "iv" and rec.selected == "phone_call" for rec in consumer)
