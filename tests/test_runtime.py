import re
from operator import itemgetter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dali import model, runtime
from dali.engine import ACTIVE, Engine, Strategy
from dali.errors import DaliConfigError, DaliSyntaxError, DaliValidationError, SourceSpan
from dali.model import ACTION, ORDINARY, REACTIVE, AgentProgram, Atom, Clause
from dali.parser import EventScript, ScriptEntry
from dali.runtime import (
    ChannelMapping,
    SystemConfig,
    SystemRunner,
    evolve_system,
    load_system_config,
)
from dali.semantics import InitialSituation, least_model, transform_program


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
        agents = {"A": AgentProgram("A", externals=(Atom("e"),), actions=(Atom("x"),))}
        script = EventScript((ScriptEntry(0, "B", Atom("e")),))
        mapping = ChannelMapping((("A", "x", "B", "e"),))
        for config, message in [
            (SystemConfig(agents, script), "script targets unknown agent 'B'"),
            (SystemConfig(agents, mapping=mapping), "map target 'B' is not a known agent"),
        ]:
            with pytest.raises(DaliConfigError) as exc:
                config.validate()
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
        config = SystemConfig(agents, mapping=mapping)
        config.validate()
        broadcast = runtime._Broadcast(config, "action")
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
            log = broadcast.warnings()
            assert dropped(log[seen:]) == drops
            expected_drops += drops
            assert log is broadcast.log and dropped(log) == expected_drops


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
    1-4 and a tick limit."""
    config = draw(routed_systems())
    agents = {}
    for name, p in config.agents.items():
        first = tuple(
            Clause(e, (draw(st.sampled_from(p.actions)),), REACTIVE)
            for e in p.externals
            if p.actions
        )
        p = AgentProgram(name, first + p.clauses, p.externals, p.internals, p.actions)
        if model.validate_program(p).ok:
            agents[name] = p
    assume(agents)
    entries = [e for e in config.mapping.entries if e[0] in agents and e[2] in agents]
    targets = [(n, e) for n, p in agents.items() for e in p.externals]
    script = []
    if targets:
        entry = st.tuples(st.integers(0, 8), st.sampled_from(targets))
        script = draw(st.lists(entry, min_size=1, max_size=6))
    script.sort(key=itemgetter(0))
    return SystemConfig(
        agents,
        EventScript(tuple(ScriptEntry(t, a, e) for t, (a, e) in script)),
        ChannelMapping(tuple(entries)),
        max_ticks=draw(st.integers(0, 12)),
        budget=draw(st.integers(1, 4)),
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
    config = SystemConfig(
        agents,
        EventScript((ScriptEntry(0, producer, cue), *config.script.entries)),
        ChannelMapping((entry, *config.mapping.entries)),
        max_ticks=draw(st.integers(8, 16)),
        budget=config.budget,
    )
    config.validate()
    return config


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
