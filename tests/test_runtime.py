import dataclasses
import importlib
import re
from collections import Counter
from operator import itemgetter
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dali import model, runtime, semantics
from dali.engine import ACTIVE, Engine, Strategy
from dali.errors import DaliConfigError, DaliSyntaxError, DaliValidationError, SourceSpan
from dali.model import ACTION, ORDINARY, REACTIVE, AgentProgram, Atom, Clause
from dali.parser import EventScript, ScriptEntry, parse_agent_file
from dali.runtime import (
    ChannelMapping,
    SystemConfig,
    SystemRunner,
    evolve_system,
    load_system_config,
)
from dali.semantics import RULE_INIT, InitialSituation, least_model, snapshot, transform_program

BENCH = Path(__file__).resolve().parents[1] / "bench"


def resolve(mapping, producer, action, consumer):
    """The event a consumer receives for (producer, action): that of the
    first entry for the triple, else the action's own name.  A scan of
    the entries, so it shares no code with the broadcast's index."""
    for entry in mapping.entries:
        if entry[:3] == (producer, action, consumer):
            return entry[3]
    return action


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
        assert resolve(cfg.mapping, "A", "ping", "B") == "pong"
        assert resolve(cfg.mapping, "A", "other", "B") == "other"  # identity
        bad = tmp_path / "bad.system"
        bad.write_text("agent a.dali\nagent b.dali\nmap A.nope -> B.pong\n")
        with pytest.raises(DaliConfigError, match="not a declared action"):
            load_system_config(bad)

    def test_loaded_entries_keep_their_lines(self, tmp_path):
        (tmp_path / "a.dali").write_text("agent A. @external e. @action x. e :> x.\n")
        (tmp_path / "b.dali").write_text("agent B. @external f. f :> r. r.\n")
        (tmp_path / "s.events").write_text("# start\n0 A e\n")
        cfg = tmp_path / "sys.system"
        cfg.write_text("agent a.dali\nagent b.dali\nscript s.events\n\nmap A.x -> B.f\n")
        config = load_system_config(cfg)
        [entry] = config.script.entries
        assert entry.span == SourceSpan(str(tmp_path / "s.events"), 2, 1)
        assert entry == ScriptEntry(0, "A", Atom("e"))  # the span is not compared
        assert config.mapping.spans == (SourceSpan(str(cfg), 5, 1),)
        assert config.mapping == ChannelMapping((("A", "x", "B", "f"),))

    def test_validate_of_a_config_built_in_code_has_no_position(self):
        """A config built in code is checked when built, as a loaded one
        is, with no position.  Unchecked, an unknown agent was a
        `KeyError` when the config ran, and an undeclared mapped event
        dropped every delivery on it with a warning."""
        agents = {
            "A": AgentProgram("A", externals=(Atom("e"),), actions=(Atom("x"),)),
            "C": AgentProgram("C", externals=(Atom("e"),)),
        }
        script = EventScript((ScriptEntry(0, "B", Atom("e")),))
        for kwargs, message in [
            ({"script": script}, "script targets unknown agent 'B'"),
            (
                {"mapping": ChannelMapping((("A", "x", "B", "e"),))},
                "map target 'B' is not a known agent",
            ),
            (
                {"mapping": ChannelMapping((("A", "x", "C", "bell"),))},
                "'bell' is not a declared external event of agent C",
            ),
        ]:
            with pytest.raises(DaliConfigError) as exc:
                SystemConfig(agents, **kwargs)
            assert (str(exc.value), exc.value.span) == (message, None)


class TestChannelMapping:
    def test_first_entry_wins_for_a_repeated_triple(self):
        agents = {
            "A": AgentProgram("A", actions=(Atom("ping"), Atom("other"))),
            "B": AgentProgram(
                "B", externals=(Atom("pong"), Atom("later"), Atom("other")),
                actions=(Atom("ping"),),
            ),
            "C": AgentProgram("C", externals=(Atom("knock"), Atom("ping"))),
        }
        mapping = ChannelMapping(
            (
                ("A", "ping", "B", "pong"),
                ("A", "ping", "C", "knock"),
                ("A", "ping", "B", "later"),
            )
        )
        broadcast = runtime._Broadcast(SystemConfig(agents, mapping=mapping), "action")
        assert broadcast.route("A", "ping") == (("B", Atom("pong")), ("C", Atom("knock")))
        assert broadcast.route("B", "ping") == (("C", Atom("ping")),)  # identity
        assert broadcast.route("A", "other") == (("B", Atom("other")),)

    def test_repeated_map_lines_in_a_config(self, tmp_path):
        (tmp_path / "a.dali").write_text("agent A. @action ping. @internal go. go. go :> ping.\n")
        (tmp_path / "b.dali").write_text(
            "agent B. @external pong. @external bell. pong :> noted. bell :> noted. noted.\n"
        )
        cfg = tmp_path / "dup.system"
        cfg.write_text(
            "agent a.dali\nagent b.dali\nmap A.ping -> B.pong\nmap A.ping -> B.bell\n"
        )
        broadcast = runtime._Broadcast(load_system_config(cfg), "action")
        assert broadcast.route("A", "ping") == (("B", Atom("pong")),)

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
        assert tuple(consumer.state.ev) == ()  # not yet delivered
        runner.run_tick()  # tick 1: delivery, reaction
        assert consumer.state.pv_names() == ("ping",)
        assert consumer.state.performed_names() == ("log_it",)
        # the producer never receives its own ping, at any tick
        assert "ping" not in tuple(producer.state.ev)
        assert "ping" not in producer.state.pv

    def test_unmapped_action_warns_and_drops(self, ping_config):
        result = SystemRunner(ping_config).run()
        assert any("log_it" in w and "dropped" in w for w in result.warnings)
        producer = {name for name, _ in result.trace}
        assert producer == {"Producer", "Consumer"}

    def test_system_reaches_quiescence(self, ping_config):
        result = SystemRunner(ping_config).run()
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
        result = SystemRunner(load_system_config(cfg)).run()
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
            if "ping" in tuple(consumer.state.ev):
                saw_ping = True
        assert saw_ping
        assert consumer.state.performed_names() == ("log_it",)

    def test_inject_validates_agent(self, ping_config):
        runner = SystemRunner(ping_config)
        with pytest.raises(DaliConfigError):
            runner.inject("Nobody", "ping")

    def test_reaction_that_uses_the_whole_budget_ends_quiescent(self, tmp_path):
        # join, resolve, perform: exactly the budget, and then idle
        (tmp_path / "a.dali").write_text("agent A. @external go. @action a. go :> a.\n")
        (tmp_path / "s.events").write_text("0 A go\n")
        cfg = tmp_path / "sys.system"
        cfg.write_text("agent a.dali\nscript s.events\nbudget 3\n")
        result = SystemRunner(load_system_config(cfg)).run()
        assert [rec.case for _, rec in result.trace] == ["iv", "i", "ii"]
        assert result.ticks == 1
        assert result.quiescent

    def test_idle_agents_are_not_run_after_tick_0(self, tmp_path, monkeypatch):
        (tmp_path / "busy.dali").write_text("agent Busy. @external go. @action a. go :> a.\n")
        names = ["busy.dali"]
        for i in range(50):
            # An attempt of `tired` at tick 0 fails; nothing wakes them after.
            (tmp_path / f"idle{i}.dali").write_text(
                f"agent Idle{i}. @external ping. @internal tired.\n"
                "ping :> noted. noted. tired :- missing.\n"
            )
            names.append(f"idle{i}.dali")
        (tmp_path / "s.events").write_text("0 Busy go\n1 Busy go\n2 Busy go\n6 Busy go\n")
        cfg = tmp_path / "sys.system"
        cfg.write_text("".join(f"agent {n}\n" for n in names) + "script s.events\n")
        runner = SystemRunner(load_system_config(cfg))
        runs = []
        engine_run = Engine.run

        def spy(engine, *args):
            runs.append((runner.tick, engine.program.name))
            return engine_run(engine, *args)

        monkeypatch.setattr(Engine, "run", spy)
        result = runner.run()
        assert result.quiescent and result.ticks == 7
        assert [tick for tick, name in runs if name == "Busy"] == [0, 1, 2, 6]
        assert sorted(name for tick, name in runs if tick == 0) == sorted(
            ["Busy"] + [f"Idle{i}" for i in range(50)]
        )
        assert {name for tick, name in runs if tick > 0} == {"Busy"}
        assert len(dropped(result.warnings)) == 50  # Busy's `a`, once per pair


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
        # Both views drop pair by pair in first-routed order, each pair at
        # the consumers in agent order: the tick loop routes actions as
        # they are performed, evolution round by round, producers in
        # agent order.
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
            ("P", "ping", "Q"),
            ("P", "ping", "X"),
            ("P", "ping", "Y"),
            ("Q", "bell", "P"),
            ("Q", "bell", "Y"),
            ("X", "shout", "P"),
            ("X", "shout", "Q"),
            ("X", "shout", "Y"),
        ]
        assert all(w.startswith("derived action ") for w in trace.warnings)


class TestSystemResult:
    def test_warnings_are_formatted_on_first_read(self, fan_system, formatted_warnings):
        """A run formats no drop warning; the first read of the result's
        `warnings` formats each of the fan system's 100 drops once, and
        a second read formats none and returns the same tuple."""
        runner = SystemRunner(load_system_config(fan_system))
        result = runner.run()
        assert result.quiescent
        assert formatted_warnings == []
        first = result.warnings
        assert len(first) == 100
        assert list(first) == formatted_warnings
        assert first == runner.warnings()
        formatted_warnings.clear()
        assert result.warnings is first
        assert formatted_warnings == []

    @pytest.mark.parametrize("read_first", [True, False], ids=["read", "unread"])
    @pytest.mark.parametrize("step", ["run_tick", "step_agent"])
    def test_warnings_are_fixed_when_the_run_ends(
        self, fan_system, formatted_warnings, step, read_first
    ):
        """After the run, a poke makes the hub shout, a new pair dropped
        at the ten consumers: the runner's warnings grow, the result's
        stay those of its run, read before the poke or not, and each
        warning is formatted once."""
        config = load_system_config(fan_system)
        runner = SystemRunner(config)
        result = runner.run()
        before = result.warnings if read_first else None
        runner.inject("Hub", "poke")
        if step == "run_tick":
            runner.run_tick()
        else:
            while runner.step_agent("Hub") is not None:
                pass
        grown = runner.warnings()
        assert len(grown) == 110
        assert dropped(grown[100:]) == [("Hub", "shout", f"C{i}") for i in range(10)]
        assert result.warnings == grown[:100]
        if read_first:
            assert before == result.warnings
        assert formatted_warnings == list(grown)
        assert result == SystemRunner(config).run()

    def test_results_compare_their_warnings(self, tmp_path):
        """P's `ping` is dropped at its one idle peer, A in one system and
        B in the other: the runs differ only in their warnings."""
        (tmp_path / "p.dali").write_text("agent P. @external go. @action ping. go :> ping.\n")
        (tmp_path / "s.events").write_text("0 P go\n")
        results = []
        for peer in "A", "B":
            (tmp_path / f"{peer}.dali").write_text(
                f"agent {peer}. @external knock. knock :> noted. noted.\n"
            )
            cfg = tmp_path / f"{peer}.system"
            cfg.write_text(f"agent p.dali\nagent {peer}.dali\nscript s.events\n")
            results.append(SystemRunner(load_system_config(cfg)).run())
        a, b = results
        assert (a.quiescent, a.ticks, a.trace) == (b.quiescent, b.ticks, b.trace)
        assert a != b
        assert dropped(a.warnings) == [("P", "ping", "A")]
        assert dropped(b.warnings) == [("P", "ping", "B")]
        rerun = SystemRunner(load_system_config(tmp_path / "A.system")).run()
        assert rerun == a  # one read, one not
        assert a.__eq__(object()) is NotImplemented


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


def roles(pool):
    """Lists of up to three names from `pool`, drawn non-empty half the
    time, so that more agents both hear an event and act."""
    names = st.sampled_from(pool)
    return st.lists(names, min_size=1, max_size=3) | st.lists(names, max_size=3)


@st.composite
def routed_systems(draw):
    """2-5 agents, listed out of name order, drawing externals and
    actions from one name pool (the actions, half the time, from the
    names the agent does not hear), internals from another, and reactive,
    ordinary and action rules over them; then up to two twins, each a
    copy of an agent's clauses and roles under a fresh name, all listed
    in a new order: an exact twin shares the agent's record in
    `evolve_system`, and one that also declares one more external event
    is a near-twin that must keep its own record and `now_` seeds; and map
    entries that `SystemConfig` accepts.  An agent may declare
    one of its actions as external too: routing must still never feed it
    back."""
    agents = {}
    for i in draw(st.permutations(range(draw(st.integers(2, 5))))):
        name = f"A{i}"
        externals = draw(roles(POOL))
        internals = tuple(map(Atom, draw(st.lists(st.sampled_from(INTERNAL_POOL), max_size=2))))
        # An agent that declares a name both ways is invalid, and
        # `scripted_systems` leaves it out.
        apart = [n for n in POOL if n not in externals]
        actions = tuple(map(Atom, draw(roles(apart) | roles(POOL))))
        externals = tuple(map(Atom, externals))
        agents[name] = AgentProgram(
            name,
            clauses=draw(agent_clauses(externals, internals, actions)),
            externals=externals,
            internals=internals,
            actions=actions,
        )
    for k, original in enumerate(draw(st.lists(st.sampled_from(sorted(agents)), max_size=2))):
        p = agents[original]
        externals = p.externals
        extra = [e for e in POOL if e not in p.external_names]
        if extra and draw(st.booleans()):
            externals += (Atom(draw(st.sampled_from(extra))),)
        agents[f"T{k}"] = AgentProgram(f"T{k}", p.clauses, externals, p.internals, p.actions)
    if "T0" in agents:
        agents = dict(draw(st.permutations(list(agents.items()))))
    valid = [
        (p, a.name, c, e.name)
        for p, prog in agents.items()
        for a in prog.actions
        for c, cprog in agents.items()
        if c != p
        for e in cprog.externals
    ]
    entries = draw(st.lists(st.sampled_from(valid), max_size=6)) if valid else []
    return SystemConfig(agents, mapping=ChannelMapping(tuple(entries)))


@settings(max_examples=150, deadline=None)
@given(routed_systems())
def test_routes_match_the_brute_force_rule(config):
    broadcast = runtime._Broadcast(config, "action")
    agents = config.agents
    expected_drops = []
    for p, prog in agents.items():
        for a in prog.actions:
            received, drops = [], []
            for c, cprog in agents.items():
                if c == p:
                    continue
                event = resolve(config.mapping, p, a.name, c)
                if event in cprog.external_names:
                    received.append((c, Atom(event)))
                else:
                    drops.append((p, a.name, c))
            seen = len(broadcast.log)
            assert broadcast.route(p, a.name) == tuple(received)
            assert broadcast.dropped == len(expected_drops) + len(drops)
            log = broadcast.warnings()
            assert dropped(log[seen:]) == drops
            expected_drops += drops
            assert log is broadcast.log and dropped(log) == expected_drops
            assert broadcast.dropped == len(expected_drops)


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
                event = resolve(config.mapping, name, act.name, c)
                if c != name and event in cprog.external_names:
                    out[c].add(Atom(event))
    return {name: frozenset(atoms) for name, atoms in out.items()}


def draw_init(config, data):
    """Initial events and past events of each agent, any number of them."""
    init = {}
    for name, program in config.agents.items():
        events = sorted(program.event_names)
        choices = [Atom(e) for e in events] + [Atom.past(e) for e in events]
        init[name] = data.draw(st.lists(st.sampled_from(choices))) if choices else []
    return init


@settings(max_examples=150, deadline=None)
@given(routed_systems(), st.data())
def test_evolution_rounds_match_a_rebuilt_transform(config, data):
    """Each round's model is the least model of the agent's whole P'
    rebuilt from that round's units, and each round's units follow from
    the previous round's models by the broadcast rule."""
    init = draw_init(config, data)
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


@settings(max_examples=300, deadline=None)
@given(routed_systems(), st.data())
def test_evolution_drops_in_first_derived_order(config, data):
    """Evolution's warnings, by brute force from the rounds' models:
    round by round, producers in agent order, derived actions in
    declaration order, each (producer, action) only when first derived,
    at the consumers in agent order.  An init of any size lets a round
    derive several new actions, whose drops must not interleave."""
    trace = evolve_system(config, draw_init(config, data))
    expected, seen = [], set()
    for rnd in trace.rounds:
        for p, program in config.agents.items():
            for a in program.actions:
                if a.name not in rnd.models[p] or (p, a.name) in seen:
                    continue
                seen.add((p, a.name))
                expected += [
                    (p, a.name, c)
                    for c, cprog in config.agents.items()
                    if c != p
                    and resolve(config.mapping, p, a.name, c) not in cprog.external_names
                ]
    assert dropped(trace.warnings) == expected
    assert all(w.startswith("derived action ") for w in trace.warnings)


@settings(max_examples=300, deadline=None)
@given(routed_systems(), st.integers(1, 3), st.integers(1, 3))
def test_a_step_returns_none_only_at_quiescence(config, k, m):
    """Every agent, given each of its external events, steps until a
    step returns None, and is then quiescent: no step kind was left
    applicable (a quiescent engine's step returns None, as
    `tests/test_engine_records.py` checks)."""
    for program in config.agents.values():
        if not model.validate_program(program).ok:
            continue
        engine = Engine(program, Strategy(k, m))
        for event in program.externals:
            engine.inject(event)
        engine.run()
        assert engine.quiescent, [(r.case, r.selected) for r in engine.records]


class EveryAgentRunner:
    """`SystemRunner` as a loop over every agent: each tick gives every
    agent its budget, `micro_step` tries every agent round-robin until
    one steps, and the drop warnings are formatted here from the routes.
    A scan of the script's entries finds those due at a tick and the
    next tick that has one."""

    def __init__(self, config):
        self.config = config
        self.tick = 0
        self.trace = []
        self.engines = {name: Engine(program) for name, program in config.agents.items()}
        self.broadcast = runtime._Broadcast(config, "action")
        self.outbox = []
        self.micro_idx = 0

    def run_tick(self):
        for entry in self.config.script.entries:
            if entry.tick == self.tick:
                self.engines[entry.agent].inject(entry.event)
        deliveries, self.outbox = self.outbox, []
        for consumer, event in deliveries:
            self.engines[consumer].inject(event)
        for name, engine in self.engines.items():
            for rec in engine.run(self.config.budget):
                self.trace.append((name, rec))
                if rec.performed is not None:
                    self.outbox.extend(self.broadcast.route(name, rec.performed))
        self.tick += 1

    def run(self) -> bool:
        """Ticks as `SystemRunner.run` takes them; True if quiescent."""
        limit = self.config.max_ticks
        while True:
            upcoming = min(
                (e.tick for e in self.config.script.entries if e.tick >= self.tick),
                default=None,
            )
            idle = not self.outbox and all(e.quiescent for e in self.engines.values())
            if (idle and upcoming is None) or self.tick >= limit:
                return idle and upcoming is None
            if idle and upcoming > self.tick:
                if upcoming >= limit:
                    return False
                self.tick = upcoming
            self.run_tick()

    def warnings(self):
        return tuple(
            f"action '{a}' by {p} has no external event at {c}; dropped"
            for (p, a), route in self.broadcast.routes.items()
            for c in self.config.agents
            if c != p and c not in dict(route)
        )

    def step_agent(self, name):
        rec = self.engines[name].step()
        if rec is not None:
            self.trace.append((name, rec))
            if rec.performed is not None:
                for consumer, event in self.broadcast.route(name, rec.performed):
                    self.engines[consumer].inject(event)
        return rec

    def micro_step(self):
        names = list(self.engines)
        for i in range(len(names)):
            name = names[(self.micro_idx + i) % len(names)]
            rec = self.step_agent(name)
            if rec is not None:
                self.micro_idx = (self.micro_idx + i + 1) % len(names)
                return name, rec
        return None


@st.composite
def scripted_systems(draw):
    """A `routed_systems` config whose agents react to every external
    event they declare with one of their actions, when they have one
    (the first reactive rule of an event is its reaction), cut down to
    its valid agents; with a script over their externals, a budget of
    1-4 and a tick limit of 0-12.  Each of these choices is drawn half
    the time from the part of its range that makes an action happen and
    half the time from the whole range, so the bias narrows nothing: a
    reaction performs an action with no action rule, a script entry
    cues such a reaction, the budget is 4 and the tick limit 8-12."""
    config = draw(routed_systems())
    agents, cues = {}, []
    for name, p in config.agents.items():
        free = [a for a in p.actions if p.action_clause(a.name) is None]
        action = st.sampled_from(p.actions)
        if free:
            action = st.sampled_from(free) | action
        first = tuple(Clause(e, (draw(action),), REACTIVE) for e in p.externals if p.actions)
        p = AgentProgram(name, first + p.clauses, p.externals, p.internals, p.actions)
        if model.validate_program(p).ok:
            agents[name] = p
            cues += [(name, c.head) for c in first if c.body[0] in free]
    assume(agents)
    entries = [e for e in config.mapping.entries if e[0] in agents and e[2] in agents]
    targets = [(n, e) for n, p in agents.items() for e in p.externals]
    script = []
    if targets:
        entry = st.tuples(st.integers(0, 8), st.sampled_from(targets))
        if cues:
            entry = st.tuples(st.integers(0, 8), st.sampled_from(cues)) | entry
        script = draw(st.lists(entry, min_size=1, max_size=6))
    script.sort(key=itemgetter(0))
    return SystemConfig(
        agents,
        EventScript(tuple(ScriptEntry(t, a, e) for t, (a, e) in script)),
        ChannelMapping(tuple(entries)),
        max_ticks=draw(st.integers(8, 12) | st.integers(0, 12)),
        budget=draw(st.just(4) | st.integers(1, 4)),
    )


@st.composite
def delivering_systems(draw):
    """A `scripted_systems` config in which some action is delivered: a
    producer gets the external `cue`, scripted at tick 0, whose reaction
    performs an action with no action rule (`emit`, or one it declares),
    and a map entry sends that action to an external of another agent
    (a new agent `Sink` when there is none), which gets a reactive rule
    if it has none: the first of its actions, or `p`.  The tick limit
    leaves the reaction time to run."""
    config = draw(scripted_systems())
    agents = dict(config.agents)
    producer = draw(st.sampled_from(sorted(agents)))
    p = agents[producer]
    free = [a for a in p.actions if p.action_clause(a.name) is None]
    action = draw(st.sampled_from([Atom("emit"), *free]))
    cue = Atom("cue")
    agents[producer] = AgentProgram(
        producer,
        (Clause(cue, (action,), REACTIVE), *p.clauses),
        (cue, *p.externals),
        p.internals,
        p.actions if action in p.actions else (*p.actions, action),
    )
    others = sorted(n for n in agents if n != producer)
    consumer = draw(st.sampled_from(others)) if others else "Sink"
    c = agents.get(consumer, AgentProgram(consumer))
    event = draw(st.sampled_from([*c.externals, Atom("heard")]))
    clauses = c.clauses
    if c.reactive_clause(event.name) is None:
        clauses += (Clause(event, (c.actions[0] if c.actions else Atom("p"),), REACTIVE),)
    externals = c.externals if event in c.externals else (*c.externals, event)
    agents[consumer] = AgentProgram(consumer, clauses, externals, c.internals, c.actions)
    assert all(model.validate_program(agents[n]).ok for n in (producer, consumer))
    entry = (producer, action.name, consumer, event.name)
    return SystemConfig(
        agents,
        EventScript((ScriptEntry(0, producer, cue), *config.script.entries)),
        ChannelMapping((entry, *config.mapping.entries)),
        max_ticks=draw(st.integers(8, 16)),
        budget=config.budget,
    )


def assert_same_system(runner, ref):
    assert runner.trace == ref.trace
    assert runner.warnings() == ref.warnings()
    assert all(runner.engines[n].state == e.state for n, e in ref.engines.items())


def check_run_matches_stepping_every_agent(config):
    runner, ref = SystemRunner(config), EveryAgentRunner(config)
    result = runner.run()
    assert result.quiescent == ref.run()
    assert result.ticks == ref.tick
    assert result.trace == tuple(ref.trace)
    assert result.warnings == ref.warnings()
    assert_same_system(runner, ref)


@settings(max_examples=200, deadline=None)
@given(scripted_systems())
def test_run_matches_stepping_every_agent_every_tick(config):
    check_run_matches_stepping_every_agent(config)


@settings(max_examples=100, deadline=None)
@given(delivering_systems())
def test_run_matches_stepping_every_agent_every_tick_with_a_delivery(config):
    check_run_matches_stepping_every_agent(config)


def repl_query(runner, name, atom, steps=3):
    """The REPL's `query`: a component added past the runner, then
    stepped through `step_agent` (here at most `steps` times)."""
    engine = runner.engines[name]
    index = engine.add_query(atom)
    for _ in range(steps):
        if engine.components[index].status != ACTIVE or runner.step_agent(name) is None:
            break


def test_a_query_left_running_wakes_its_agent():
    program = AgentProgram(
        "Q",
        clauses=(Clause(Atom("p"), (Atom("a"), Atom("b"))), Clause(Atom("a")), Clause(Atom("b"))),
    )
    runner = SystemRunner(SystemConfig({"Q": program}))
    assert runner.micro_step() is None
    repl_query(runner, "Q", Atom("p"), steps=1)
    assert [rec.selected for _, rec in runner.trace] == ["p"]
    assert runner.micro_step()[1].selected == "a"
    result = runner.run()
    assert result.quiescent and result.ticks == 1
    assert [rec.selected for _, rec in result.trace] == ["p", "a", "b"]


def check_step_calls_match_stepping_every_agent(config, data, cue=None):
    """inject / micro_step / step_agent / query calls in any order, then
    a run, give what a runner that tries every agent gives.  A `cue`, an
    (agent, event) pair, is injected first and then drawn as often as
    any other injection, and so is a run of 1-8 `step_agent` calls on
    its agent, which a reaction needs to perform an action.  (`st.one_of`
    draws each distinct strategy equally often.)"""
    names = st.sampled_from(list(config.agents))
    events = [(n, e) for n, p in config.agents.items() for e in p.externals]
    calls = [st.just(("micro",)), st.tuples(st.just("step"), names, st.just(1))]
    calls.append(st.tuples(st.just("query"), names, st.sampled_from(["p", "go"])))
    if events:
        calls.append(st.sampled_from(events).map(lambda ne: ("inject", *ne)))
    first = []
    if cue is not None:
        first = [("inject", *cue)]
        calls.append(st.just(first[0]))
        calls.append(st.tuples(st.just("step"), st.just(cue[0]), st.integers(1, 8)))
    runner, ref = SystemRunner(config), EveryAgentRunner(config)
    for call in first + data.draw(st.lists(st.one_of(calls), min_size=5, max_size=40)):
        if call[0] == "micro":
            assert runner.micro_step() == ref.micro_step()
        elif call[0] == "step":
            for _ in range(call[2]):
                assert runner.step_agent(call[1]) == ref.step_agent(call[1])
        elif call[0] == "inject":
            runner.inject(call[1], call[2])
            ref.engines[call[1]].inject(call[2])
        else:
            repl_query(runner, call[1], Atom(call[2]))
            repl_query(ref, call[1], Atom(call[2]))
        assert_same_system(runner, ref)
    result = runner.run()
    assert result.quiescent == ref.run()
    assert result.ticks == ref.tick
    assert_same_system(runner, ref)


@settings(max_examples=200, deadline=None)
@given(scripted_systems(), st.data())
def test_step_calls_match_stepping_every_agent(config, data):
    check_step_calls_match_stepping_every_agent(config, data)


@settings(max_examples=100, deadline=None)
@given(delivering_systems(), st.data())
def test_step_calls_match_stepping_every_agent_with_a_delivery(config, data):
    producer = config.script.entries[0].agent  # whose `cue` starts the delivery
    check_step_calls_match_stepping_every_agent(config, data, (producer, Atom("cue")))


@st.composite
def with_a_quiet_agent(draw, config):
    """`config` with one more agent, last in the agent order, that
    declares no event and no action: only ordinary rules over plain
    heads, if any."""
    quiet = AgentProgram("Quiet", draw(agent_clauses((), (), ())))
    return dataclasses.replace(config, agents={**config.agents, "Quiet": quiet})


def with_drops_at_the_quiet_agent(warnings, routes, kind):
    """`warnings` plus one drop at the agent `Quiet` for each routed
    (producer, action) pair, at the end of that pair's block."""
    blocks = {pair: [] for pair in routes}
    for w, (p, a, _) in zip(warnings, dropped(warnings)):
        blocks[p, a].append(w)
    return tuple(
        w
        for (p, a), block in blocks.items()
        for w in [*block, f"{kind} '{a}' by {p} has no external event at Quiet; dropped"]
    )


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_a_quiet_agent_changes_only_the_drops_of_an_evolution(data):
    """Metamorphic: an agent that declares no event and no action leaves
    every other agent's rounds and the fixpoint flag as they were, and
    adds one drop per routed (producer, action) pair."""
    config = data.draw(routed_systems())
    init = draw_init(config, data)
    trace = evolve_system(config, init)
    quiet = evolve_system(data.draw(with_a_quiet_agent(config)), init)
    assert [
        ({n: r.units[n] for n in config.agents}, {n: r.models[n] for n in config.agents})
        for r in quiet.rounds
    ] == [(r.units, r.models) for r in trace.rounds]
    assert quiet.reached_fixpoint == trace.reached_fixpoint
    expected = with_drops_at_the_quiet_agent(
        trace.warnings, trace.drops.routes, "derived action"
    )
    assert quiet.warnings == expected


@settings(max_examples=150, deadline=None)
@given(st.one_of(scripted_systems(), delivering_systems()), st.data())
def test_a_quiet_agent_changes_only_the_drops_of_a_run(config, data):
    """Metamorphic: an agent that declares no event and no action leaves
    every other agent's trace, the quiescence and the ticks of a run as
    they were, and adds one drop per routed (producer, action) pair.
    Half the configs are drawn with a delivery, which every one of them
    routes."""
    runner = SystemRunner(config)
    result = runner.run()
    quiet = SystemRunner(data.draw(with_a_quiet_agent(config))).run()
    assert tuple(e for e in quiet.trace if e[0] != "Quiet") == result.trace
    assert (quiet.quiescent, quiet.ticks) == (result.quiescent, result.ticks)
    routes = runner._broadcast.routes
    assert quiet.warnings == with_drops_at_the_quiet_agent(result.warnings, routes, "action")


@settings(max_examples=150, deadline=None)
@given(routed_systems(), st.data())
def test_renamed_agents_give_a_renamed_evolution(config, data):
    """Metamorphic: a bijection on agent names that keeps the agent
    order gives the same rounds, fixpoint flag and routes, each under
    the bijection, so what twin agents share carries no name.  The
    bijection permutes the config's own names, so an agent may take the
    name of its twin."""
    names = list(config.agents)
    rename = dict(zip(names, data.draw(st.permutations(names))))
    renamed = SystemConfig(
        {rename[n]: dataclasses.replace(p, name=rename[n]) for n, p in config.agents.items()},
        mapping=ChannelMapping(
            tuple((rename[p], a, rename[c], e) for p, a, c, e in config.mapping.entries)
        ),
    )
    init = draw_init(config, data)
    trace = evolve_system(config, init)
    image = evolve_system(renamed, {rename[n]: events for n, events in init.items()})

    def renamed_keys(per_agent):
        return {rename[n]: value for n, value in per_agent.items()}

    assert [(r.units, r.models) for r in image.rounds] == [
        (renamed_keys(r.units), renamed_keys(r.models)) for r in trace.rounds
    ]
    assert image.reached_fixpoint == trace.reached_fixpoint
    assert list(image.drops.routes.items()) == [
        ((rename[p], a), tuple((rename[c], atom) for c, atom in route))
        for (p, a), route in trace.drops.routes.items()
    ]


@pytest.fixture
def horn_calls(monkeypatch) -> Counter:
    """The `HornRules` compilations and closures made while the test
    runs, counted under "compilations" and "closures"."""
    calls = Counter()
    cls = semantics.HornRules
    init, closure = cls.__init__, cls.closure

    def spied_init(self, clauses):
        calls["compilations"] += 1
        init(self, clauses)

    def spied_closure(self, seeds=()):
        calls["closures"] += 1
        return closure(self, seeds)

    monkeypatch.setattr(cls, "__init__", spied_init)
    monkeypatch.setattr(cls, "closure", spied_closure)
    return calls


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

    def test_init_names_unknown_agent(self, scenario_dir):
        config = load_system_config(scenario_dir / "mary.system")
        with pytest.raises(DaliConfigError) as exc:
            evolve_system(config, {"Marry": [Atom("alarm_clock_rings")]})
        assert str(exc.value) == "init names unknown agent 'Marry'"

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

    @pytest.mark.parametrize("agents, fixpoint", [(31, True), (32, False)])
    def test_a_relay_stops_at_the_round_bound(self, agents, fixpoint):
        """Agent R_i passes go_i on as go_{i+1}, one agent a round, so a
        relay of n agents settles in round n + 1: 31 agents are the
        longest relay that reaches a fixpoint within the 32 rounds."""
        config = SystemConfig({
            f"R{i}": parse_agent_file(
                f"agent R{i}. @external go_{i}. @action go_{i + 1}. go_{i} :> go_{i + 1}."
            )
            for i in range(agents)
        })
        trace = evolve_system(config, {"R0": [Atom("go_0")]})
        assert runtime.MAX_EVOLUTION_ROUNDS == 32
        assert len(trace.rounds) == 32
        assert trace.reached_fixpoint is fixpoint
        for i in range(agents):
            assert f"go_{i + 1}" in trace.rounds[i].models[f"R{i}"]

    def test_twins_share_rules_and_closures(self, fan_system, horn_calls):
        """The fan system's ten consumers differ only in their names, so
        its eleven agents take two compilations.  Its three rounds close
        the hub under {kick, now_kick}, then twice under {past_kick}, and
        every consumer under {}, then {ping, now_ping}, then {past_ping}:
        five distinct seed sets, so five closures where there are 33
        models."""
        trace = evolve_system(load_system_config(fan_system), {"Hub": [Atom("kick")]})
        assert len(trace.rounds) == 3 and trace.reached_fixpoint
        assert horn_calls == {"compilations": 2, "closures": 5}

    def test_twins_are_transformed_once(self, fan_system, monkeypatch):
        """The fan system's ten consumers differ only in their names, so
        its eleven agents take two transforms, as the benchmark's tracer
        counts them through `dali.runtime`'s binding of the transform."""
        monkeypatch.syspath_prepend(BENCH)
        tracer = importlib.import_module("tracing").Tracer()
        config = load_system_config(fan_system)
        with tracer.installed():
            evolve_system(config, {"Hub": [Atom("kick")]})
        assert len(tracer.notes("semantics.transform")) == 2

    def test_near_twins_keep_their_own_record(self):
        """Agents with equal clauses share a record only when they declare
        the same names.  `e` is external at H and R and internal at I, so
        the unit `e` gives `now_e` at H and R only; R declares H's
        actions in the other order, and drops them in its own order.
        Every round's model is the agent's own snapshot of its units."""
        declared = {
            "H": "@external e. @action x. @action y.",
            "I": "@internal e. @action x. @action y.",
            "R": "@external e. @action y. @action x.",
        }
        config = SystemConfig(
            {n: parse_agent_file(f"agent {n}. {r} e :> x, y.") for n, r in declared.items()}
        )
        trace = evolve_system(config, {n: [Atom("e")] for n in declared})
        assert trace.reached_fixpoint
        for rnd in trace.rounds:
            for name, program in config.agents.items():
                assert rnd.models[name] == snapshot(program, rnd.units[name])
        first = trace.rounds[0].models
        assert "now_e" in first["H"] and "now_e" in first["R"]
        assert "now_e" not in first["I"]
        assert dropped(trace.warnings) == [
            (p, a, c)
            for p, actions in [("H", "xy"), ("I", "xy"), ("R", "yx")]
            for a in actions
            for c in declared
            if c != p
        ]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize(
        "consumers, mapped", [(1, 0), (1, 1), (9, 0), (9, 4), (9, 9), (120, 24)]
    )
    def test_broadcast_fanout_evolves_as_its_closed_form(
        self, tmp_path, monkeypatch, seed, consumers, mapped
    ):
        """The benchmark's hub and consumers, none of them mapped, some
        or all: every round's models and the fixpoint are those its
        generator works out without running the interpreter, and every
        consumer's `log_it` is dropped at every other agent."""
        monkeypatch.syspath_prepend(BENCH)
        workloads = importlib.import_module("workloads")
        w = workloads.broadcast_fanout(seed, consumers=consumers, mapped=mapped)
        for name, text in w.files.items():
            (tmp_path / name).write_text(text)
        config = load_system_config(tmp_path / w.system_file)
        trace = evolve_system(config, {a: [Atom(e) for e in es] for a, es in w.init.items()})
        assert trace.reached_fixpoint
        assert [r.models for r in trace.rounds] == list(w.rounds)
        assert len(trace.warnings) == w.warnings

    def test_each_init_is_built_once(self, fan_system, monkeypatch):
        """Of the fan system's eleven agents only the hub has an init,
        and one evolution builds one `InitialSituation`: none for the
        agents with no init, and none for a P' built with no init."""
        built = []
        post_init = semantics.InitialSituation.__post_init__
        monkeypatch.setattr(
            semantics.InitialSituation, "__post_init__", lambda s: built.append(s) or post_init(s)
        )
        evolve_system(load_system_config(fan_system), {"Hub": [Atom("kick")]})
        assert [s.events for s in built] == [(Atom("kick"),)]

    def test_one_closure_per_distinct_rules_and_seeds(self, horn_calls):
        """A relay of ten agents, each of which also derives an internal
        event from its past `go`, so that most agents see the same seeds
        round after round.  Brute force over the trace's rounds: each
        agent's P' rebuilt from that round's units splits into its rules
        and its unit clauses, and one evolution compiles once per
        distinct rules (no two agents here differ only in name) and
        closes once per distinct (rules, units) pair."""
        config = SystemConfig({
            f"R{i}": parse_agent_file(
                f"agent R{i}. @external go_{i}. @internal rest_{i}. @action go_{i + 1}. "
                f"go_{i} :> go_{i + 1}. rest_{i} :- past(go_{i}). rest_{i} :> noted. noted."
            )
            for i in range(10)
        })
        trace = evolve_system(config, {"R0": [Atom("go_0")]})
        calls = dict(horn_calls)
        assert trace.reached_fixpoint
        pairs = set()
        for rnd in trace.rounds:
            for name, program in config.agents.items():
                tp = transform_program(program, InitialSituation(tuple(rnd.units[name])))
                rules = tuple(c for c in tp.clauses if c.rule != RULE_INIT)
                pairs.add((rules, frozenset(c.head for c in tp.clauses if c.rule == RULE_INIT)))
        assert calls == {
            "compilations": len({rules for rules, _ in pairs}),
            "closures": len(pairs),
        }
        assert len(pairs) < len(trace.rounds) * len(config.agents)

    def test_units_follow_previous_models(self, ping_config):
        trace = evolve_system(ping_config)
        for earlier, later in zip(trace.rounds, trace.rounds[1:]):
            for name, units in later.units.items():
                for atom in units:
                    if atom.marker == "past":
                        assert f"past_{atom.name}" in earlier.models[name]

    def test_warnings_are_formatted_on_first_read(self, fan_system, formatted_warnings):
        """Evolution formats no drop warning; the first read of the
        trace's `warnings` formats each of the fan system's 100 drops
        once, and a second read formats none and returns the same tuple."""
        trace = evolve_system(load_system_config(fan_system), {"Hub": [Atom("kick")]})
        assert trace.reached_fixpoint
        assert formatted_warnings == []
        first = trace.warnings
        assert len(first) == 100
        assert list(first) == formatted_warnings
        formatted_warnings.clear()
        assert trace.warnings is first
        assert formatted_warnings == []

    def test_traces_whose_warnings_differ_compare_unequal(self, tmp_path):
        """Two configs list the same agents in a different order, so
        their rounds compare equal, as dicts, and their one route is the
        same, but their warnings name the droppers in a different order."""
        (tmp_path / "p.dali").write_text("agent P. @internal go. @action ping. go. go :> ping.\n")
        (tmp_path / "a.dali").write_text("agent A. @external knock. knock :> noted. noted.\n")
        (tmp_path / "b.dali").write_text("agent B. @external knock. knock :> noted. noted.\n")
        traces = []
        for order in ("a", "b"), ("b", "a"):
            cfg = tmp_path / f"{''.join(order)}.system"
            cfg.write_text("".join(f"agent {n}.dali\n" for n in ("p", *order)))
            traces.append(evolve_system(load_system_config(cfg)))
        ab, ba = traces
        assert ab.rounds == ba.rounds
        assert ab != ba
        assert dropped(ab.warnings) == [("P", "ping", "A"), ("P", "ping", "B")]
        assert dropped(ba.warnings) == [("P", "ping", "B"), ("P", "ping", "A")]
        assert ab != ba
        # Reading the warnings does not change what a trace equals.
        assert ab == evolve_system(load_system_config(tmp_path / "ab.system"))

    def test_drops_compare_unequal_to_other_types(self, ping_config):
        drops = evolve_system(ping_config).drops
        assert drops.__eq__(object()) is NotImplemented
        assert drops != object()

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
        result = SystemRunner(config).run()
        consumer = [rec for name, rec in result.trace if name == "C"]
        assert any(rec.case == "iv" and rec.selected == "phone_call" for rec in consumer)
