import dataclasses
import importlib
import pkgutil

import pytest

import dali
from dali import load_agent_file, model, parse_agent_file
from dali.engine import Engine, Strategy
from dali.errors import DaliValidationError
from dali.model import (
    ACTION,
    ORDINARY,
    REACTIVE,
    AgentProgram,
    Atom,
    Clause,
    validate_program,
)


def ids(issues):
    return [i.rule for i in issues]


class TestAtom:
    def test_markers_render(self):
        assert str(Atom("x")) == "x"
        assert str(Atom.past("x")) == "past(x)"
        assert str(Atom.now("x")) == "now(x)"

    @pytest.mark.parametrize("bad", ["", "1x", "a-b", "a b", "a."])
    def test_bad_names_rejected(self, bad):
        with pytest.raises(ValueError):
            Atom(bad)

    def test_bad_marker_rejected(self):
        with pytest.raises(ValueError):
            Atom("x", "future")


class TestClause:
    def test_fact(self):
        c = Clause(Atom("p"))
        assert str(c) == "p."

    def test_body_order_preserved(self):
        c = Clause(Atom("e"), (Atom("a"), Atom("b")), REACTIVE)
        assert str(c) == "e :> a, b."
        assert c.body == (Atom("a"), Atom("b"))


class TestParsedValues:
    """The parser builds atoms and clauses without the constructor's
    checks; they must be the very values the checked constructor gives."""

    TEXT = (
        "agent A. @external e. @internal i. @action x.\n"
        "p. q :- p, past(e), now(e). e :> x, q. x :< past(i). i :- q.\n"
    )

    def parsed(self):
        program = parse_agent_file(self.TEXT)
        atoms = {a for c in program.clauses for a in (c.head, *c.body)}
        atoms |= {*program.externals, *program.internals, *program.actions}
        return program.clauses, sorted(atoms, key=str)

    def test_equal_to_checked_values(self):
        clauses, atoms = self.parsed()
        assert {a.marker for a in atoms} == set(model.MARKERS)
        assert {c.kind for c in clauses} == set(model.KINDS)
        for a in atoms:
            b = Atom(a.name, a.marker)
            assert type(a) is Atom
            assert (a == b, hash(a) == hash(b)) == (True, True)
            assert (repr(a), str(a)) == (repr(b), str(b))
        for c in clauses:
            body = tuple(Atom(b.name, b.marker) for b in c.body)
            d = Clause(Atom(c.head.name), body, c.kind)
            assert type(c) is Clause and type(c.body) is tuple
            assert (c == d, hash(c) == hash(d)) == (True, True)
            assert (repr(c), str(c)) == (repr(d), str(d))

    def test_immutable(self):
        clauses, atoms = self.parsed()
        atom, clause = atoms[0], clauses[1]
        for value, field_name in [
            (atom, "name"), (atom, "marker"),
            (clause, "head"), (clause, "body"), (clause, "kind"),
        ]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, field_name, "x")

    def test_replace_still_validates(self):
        clauses, atoms = self.parsed()
        atom = atoms[0]
        with pytest.raises(ValueError, match="bad atom name: '1x'"):
            dataclasses.replace(atom, name="1x")
        with pytest.raises(ValueError, match="bad marker"):
            dataclasses.replace(atom, marker="future")
        with pytest.raises(ValueError, match="bad clause kind"):
            dataclasses.replace(clauses[0], kind="bogus")
        assert dataclasses.replace(clauses[1], body=[atom]).body == (atom,)


FROZEN = [
    cls
    for info in pkgutil.iter_modules(dali.__path__)
    for cls in vars(importlib.import_module(f"dali.{info.name}")).values()
    if isinstance(cls, type)  # is_dataclass is also true of an instance
    and dataclasses.is_dataclass(cls)
    and cls.__module__ == f"dali.{info.name}"
    and cls.__dataclass_params__.frozen
]


def test_the_frozen_dataclasses_are_found():
    assert {Atom, Clause, AgentProgram, Strategy} <= set(FROZEN)


@pytest.mark.parametrize("cls", FROZEN, ids=lambda cls: f"{cls.__module__}.{cls.__name__}")
def test_a_frozen_dataclass_refuses_every_write(cls):
    # Not only its fields: a name that is not a field raised TypeError
    # from the generated method's `super()` call.
    instance = object.__new__(cls)
    for name in (dataclasses.fields(cls)[0].name, "not_a_field"):
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"assign to field '{name}'"):
            setattr(instance, name, 1)
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"delete field '{name}'"):
            delattr(instance, name)


def henry() -> AgentProgram:
    return AgentProgram(
        "Henry",
        (
            Clause(Atom("happy"), (Atom("sunny_day"),)),
            Clause(Atom("happy"), (Atom("sing_a_song"),), REACTIVE),
            Clause(Atom("sunny_day")),
        ),
        internals=(Atom("happy"),),
        actions=(Atom("sing_a_song"),),
    )


class TestValidation:
    def test_henry_is_clean(self):
        report = validate_program(henry())
        assert report.ok
        assert report.errors == ()

    def test_validation_is_deterministic(self):
        assert validate_program(henry()) == validate_program(henry())

    def test_two_reactive_rules_for_one_event(self):
        p = AgentProgram(
            "A",
            (
                Clause(Atom("e"), (Atom("x"),), REACTIVE),
                Clause(Atom("e"), (Atom("y"),), REACTIVE),
            ),
            externals=(Atom("e"),),
        )
        report = validate_program(p)
        assert "multiple-reactive" in ids(report.errors)
        assert len([r for r in ids(report.errors) if r == "multiple-reactive"]) == 1

    def test_two_action_rules_for_one_action(self):
        p = AgentProgram(
            "A",
            (
                Clause(Atom("a"), (Atom("x"),), ACTION),
                Clause(Atom("a"), (Atom("y"),), ACTION),
            ),
            actions=(Atom("a"),),
        )
        assert "multiple-action" in ids(validate_program(p).errors)

    def test_reactive_and_action_rule_errors_in_clause_order(self):
        # Clauses built in code, with marked heads and empty bodies that
        # the parser cannot produce; reactive and action rules keep
        # separate counts, so `i` may have one of each.
        p = AgentProgram(
            "A",
            (
                Clause(Atom.past("e"), (Atom("x"),), REACTIVE),
                Clause(Atom("e"), (), REACTIVE),
                Clause(Atom("e"), (), REACTIVE),
                Clause(Atom("z"), (), REACTIVE),
                Clause(Atom("a"), (), ACTION),
                Clause(Atom("a"), (Atom("x"),), ACTION),
                Clause(Atom("b"), (), ACTION),
                Clause(Atom.now("q"), ()),
                Clause(Atom("i"), (Atom("a"),), REACTIVE),
                Clause(Atom("i"), (Atom("x"),), ACTION),
                Clause(Atom("e"), (Atom("e"),), ACTION),
            ),
            externals=(Atom("e"),),
            internals=(Atom("i"),),
            actions=(Atom("a"), Atom("i")),
        )
        errors = validate_program(p).errors
        assert [(e.clause_index, e.rule, e.message) for e in errors] == [
            (0, "marked-head", "clause head past(e) carries a marker"),
            (1, "empty-reactive-body", "reactive rule for 'e' has no body"),
            (2, "empty-reactive-body", "reactive rule for 'e' has no body"),
            (2, "multiple-reactive", "second reactive rule for 'e'; only one is allowed"),
            (3, "undeclared-reactive-head",
             "reactive rule for 'z', which is not a declared event"),
            (3, "empty-reactive-body", "reactive rule for 'z' has no body"),
            (4, "empty-action-body", "action rule for 'a' has no body"),
            (5, "multiple-action", "second action rule for 'a'; only one is allowed"),
            (6, "undeclared-action-head",
             "action rule for 'b', which is not a declared action"),
            (6, "empty-action-body", "action rule for 'b' has no body"),
            (7, "marked-head", "clause head now(q) carries a marker"),
            (10, "undeclared-action-head",
             "action rule for 'e', which is not a declared action"),
            (10, "external-in-body",
             "external event 'e' used plain in a body; wrap it in past(..) or now(..)"),
        ]

    def test_external_event_plain_in_body(self):
        p = AgentProgram(
            "A",
            (
                Clause(Atom("rains"), (Atom("open_umbrella"),), REACTIVE),
                Clause(Atom("wet"), (Atom("rains"),)),
            ),
            externals=(Atom("rains"),),
        )
        assert "external-in-body" in ids(validate_program(p).errors)

    def test_external_event_marked_in_body_is_fine(self):
        p = AgentProgram(
            "A",
            (Clause(Atom("wet"), (Atom.past("rains"),)),),
            externals=(Atom("rains"),),
        )
        report = validate_program(p)
        assert report.ok  # only a no-reactive-rule warning
        assert report.warnings

    def test_reactive_head_must_be_declared_event(self):
        p = AgentProgram("A", (Clause(Atom("e"), (Atom("x"),), REACTIVE),))
        assert "undeclared-reactive-head" in ids(validate_program(p).errors)

    def test_action_rule_head_must_be_declared_action(self):
        p = AgentProgram("A", (Clause(Atom("a"), (Atom("x"),), ACTION),))
        assert "undeclared-action-head" in ids(validate_program(p).errors)

    def test_ordinary_rule_may_not_define_action(self):
        p = AgentProgram(
            "A",
            (Clause(Atom("a"), (Atom("x"),)),),
            actions=(Atom("a"),),
        )
        assert "action-ordinary-head" in ids(validate_program(p).errors)

    def test_now_marker_needs_external(self):
        p = AgentProgram(
            "A",
            (Clause(Atom("p"), (Atom.now("q"),)),),
            internals=(Atom("q"),),
        )
        assert "bad-now-marker" in ids(validate_program(p).errors)

    def test_past_marker_needs_event(self):
        p = AgentProgram("A", (Clause(Atom("p"), (Atom.past("q"),)),))
        assert "bad-past-marker" in ids(validate_program(p).errors)

    def test_external_cannot_be_internal_or_action(self):
        p = AgentProgram(
            "A",
            externals=(Atom("e"), Atom("f")),
            internals=(Atom("e"),),
            actions=(Atom("f"),),
        )
        assert ids(validate_program(p).errors).count("role-conflict") == 2

    def test_marked_declarations_are_rejected(self):
        # The parser cannot declare a marked atom; a program built in code
        # can, and an engine would attempt `past(x)` as a lemma test.
        clauses = (Clause(Atom("x")), Clause(Atom("x"), (Atom("go"),), REACTIVE))
        p = AgentProgram(
            "A",
            clauses,
            externals=(Atom.now("y"),),
            internals=(Atom.past("x"),),
            actions=(Atom("go"), Atom.past("z")),
        )
        errors = validate_program(p).errors
        assert [(e.clause_index, e.rule, e.message) for e in errors] == [
            (None, "marked-declaration", "declaration @external now(y) carries a marker"),
            (None, "marked-declaration", "declaration @internal past(x) carries a marker"),
            (None, "marked-declaration", "declaration @action past(z) carries a marker"),
        ]
        plain = AgentProgram(
            "A", clauses, externals=(Atom("y"),), internals=(Atom("x"),),
            actions=(Atom("go"), Atom("z")),
        )
        assert validate_program(plain).ok

    def test_reserved_names_are_rejected(self):
        # `past_x` and `now_x` are the names P' gives past(x) and now(x).
        p = AgentProgram(
            "A",
            (
                Clause(Atom("past_x")),
                Clause(Atom("y"), (Atom("now_x"), Atom.past("x"))),
                Clause(Atom("x"), (Atom("go"),), REACTIVE),
            ),
            externals=(Atom("x"),),
            internals=(Atom("past_i"), Atom("i")),
            actions=(Atom("go"), Atom("now_x")),
        )
        errors = [e for e in validate_program(p).errors if e.rule == "reserved-name"]
        assert [(e.clause_index, e.message) for e in errors] == [
            (None, "atom name 'now_x' is reserved for now(x)"),
            (None, "atom name 'past_i' is reserved for past(i)"),
            (0, "atom name 'past_x' is reserved for past(x)"),
            (1, "atom name 'now_x' is reserved for now(x)"),
        ]

    def test_prefixed_names_of_other_atoms_are_allowed(self):
        # past_y names no event, and now_i no external event.
        p = AgentProgram(
            "A",
            (Clause(Atom("past_y")), Clause(Atom("now_i"), (Atom("past_y"),))),
            internals=(Atom("i"),),
        )
        assert validate_program(p).ok

    def test_action_internal_dual_membership_allowed(self, scenario):
        assert validate_program(scenario("anne")).ok

    def test_duplicate_declarations_are_idempotent(self):
        p = AgentProgram("A", externals=(Atom("e"), Atom("e")))
        assert p.externals == (Atom("e"),)

    def test_a_name_repeated_with_another_marker_keeps_both_atoms(self):
        # The one case in which the atoms of a role are compared: the
        # repeat goes, the marked atom stays, in declaration order.
        p = AgentProgram("A", externals=(Atom("e"), Atom.past("e"), Atom("e")))
        assert p.externals == (Atom("e"), Atom.past("e"))
        assert p.external_names == {"e"}
        errors = validate_program(p).errors
        assert [(e.clause_index, e.rule, e.message) for e in errors] == [
            (None, "marked-declaration", "declaration @external past(e) carries a marker"),
        ]

    def test_accepted_program_has_one_reactive_clause_per_event(self, scenario):
        for name in ("henry", "danger", "anne", "mary"):
            p = scenario(name)
            assert validate_program(p).ok
            for e in p.externals + p.internals:
                count = sum(
                    1
                    for c in p.clauses
                    if c.kind == REACTIVE and c.head.name == e.name
                )
                assert count <= 1


class TestDerivedSets:
    def test_defining_clauses_exclude_reactive(self):
        p = henry()
        heads = [c.kind for c in p.defining_clauses("happy")]
        assert heads == [ORDINARY]
        assert p.reactive_clause("happy") is not None
        assert p.reactive_clause("sunny_day") is None


# Reference lookups: linear scans written independently of the indexes
# that AgentProgram builds, which the engine and the oracle both use.


def scan_reactive(p, name):
    return next(
        (c for c in p.clauses if c.kind == REACTIVE and c.head.name == name), None
    )


def scan_action(p, name):
    return next(
        (c for c in p.clauses if c.kind == ACTION and c.head.name == name), None
    )


def scan_defining(p, name):
    return tuple(
        c for c in p.clauses if c.head.name == name and c.kind in (ORDINARY, ACTION)
    )


def assert_lookups_match_scans(p, names):
    for name in names:
        assert p.reactive_clause(name) is scan_reactive(p, name), name
        assert p.action_clause(name) is scan_action(p, name), name
        defining = p.defining_clauses(name)
        expected = scan_defining(p, name)
        assert len(defining) == len(expected), name
        assert all(a is b for a, b in zip(defining, expected)), name


def duplicated() -> AgentProgram:
    """Repeats a reactive and an action rule (invalid, but constructible),
    and gives `a` both an ordinary and an action clause."""
    return AgentProgram(
        "Dup",
        (
            Clause(Atom("a"), (Atom("x"),)),
            Clause(Atom("e"), (Atom("first"),), REACTIVE),
            Clause(Atom("a"), (Atom("pre1"),), ACTION),
            Clause(Atom("x")),
            Clause(Atom("e"), (Atom("second"),), REACTIVE),
            Clause(Atom("a"), (Atom("pre2"),), ACTION),
            Clause(Atom("a"), (Atom("y"),)),
        ),
        externals=(Atom("e"),),
        actions=(Atom("a"),),
    )


class TestIndexes:
    def test_scenarios_match_linear_scans(self, scenario_dir):
        files = sorted(scenario_dir.glob("*.dali"))
        assert files
        for path in files:
            p = load_agent_file(path)
            names = {"no_such_atom"}
            names.update(a.name for a in p.externals + p.internals + p.actions)
            for c in p.clauses:
                names.add(c.head.name)
                names.update(a.name for a in c.body)
            assert_lookups_match_scans(p, sorted(names))

    def test_role_name_sets(self, scenario):
        for name in ("anne", "mary", "danger", "henry"):
            p = scenario(name)
            assert p.external_names == {a.name for a in p.externals}
            assert p.internal_names == {a.name for a in p.internals}
            assert p.action_names == {a.name for a in p.actions}
            assert p.event_names == p.external_names | p.internal_names
            assert p.external_names is p.external_names  # built once

    def test_first_rule_in_program_order_wins(self):
        p = duplicated()
        assert p.reactive_clause("e").body == (Atom("first"),)
        assert p.action_clause("a").body == (Atom("pre1"),)
        assert_lookups_match_scans(p, ["a", "e", "x", "first", "pre1"])

    def test_ordinary_and_action_clauses_keep_program_order(self):
        bodies = [c.body for c in duplicated().defining_clauses("a")]
        assert bodies == [
            (Atom("x"),),
            (Atom("pre1"),),
            (Atom("pre2"),),
            (Atom("y"),),
        ]

    def test_unknown_name(self):
        p = duplicated()
        assert p.reactive_clause("nope") is None
        assert p.action_clause("nope") is None
        assert p.defining_clauses("nope") == ()
        assert AgentProgram("Empty").defining_clauses("a") == ()

    def test_equal_inputs_give_equal_programs(self):
        p, q = duplicated(), duplicated()
        assert p == q
        assert hash(p) == hash(q)
        assert repr(p) == repr(q)
        assert "_reactive" not in repr(p) and "external_names" not in repr(p)
        assert p != dataclasses.replace(p, name="Other")

    def test_replace_rebuilds_indexes(self):
        p = duplicated()
        q = dataclasses.replace(p, clauses=tuple(reversed(p.clauses)))
        assert q.reactive_clause("e").body == (Atom("second"),)
        assert q.action_clause("a").body == (Atom("pre2"),)
        assert [c.body for c in q.defining_clauses("a")][0] == (Atom("y"),)
        assert_lookups_match_scans(q, ["a", "e", "x"])
        r = dataclasses.replace(p, externals=(Atom("f"),), actions=())
        assert r.external_names == {"f"}
        assert r.action_names == frozenset()
        assert r.event_names == {"f"}


class TestValidateOnce:
    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        validate = model._validate

        def counted(p):
            seen.append(p.name)
            return validate(p)

        monkeypatch.setattr(model, "_validate", counted)
        return seen

    def test_engine_reuses_the_report(self, calls):
        p = henry()
        report = validate_program(p)
        Engine(p)
        Engine(p)
        assert validate_program(p) is report
        assert calls == ["Henry"]

    def test_invalid_program_still_raises_from_engine(self, calls):
        bad = AgentProgram("A", (Clause(Atom("e"), (Atom("x"),), REACTIVE),))
        assert ids(validate_program(bad).errors) == ["undeclared-reactive-head"]
        for _ in range(2):
            with pytest.raises(DaliValidationError) as exc:
                Engine(bad)
            assert ids(exc.value.report.errors) == ["undeclared-reactive-head"]
        assert calls == ["A"]

    def test_replace_gets_its_own_report(self, calls):
        p = henry()
        assert validate_program(p).ok
        q = dataclasses.replace(p, internals=())  # 'happy' is no longer an event
        assert ids(validate_program(q).errors) == ["undeclared-reactive-head"]
        assert validate_program(p).ok
        assert calls == ["Henry", "Henry"]

    def test_report_is_not_part_of_equality_hash_or_repr(self):
        p, q = henry(), henry()
        validate_program(p)
        assert p == q
        assert hash(p) == hash(q)
        assert repr(p) == repr(q)
        assert "_report" not in repr(p)
