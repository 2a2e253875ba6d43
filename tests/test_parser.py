import re
from itertools import islice
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dali import parser
from dali.errors import DaliSyntaxError, SourceSpan
from dali.model import (
    ACTION,
    ORDINARY,
    REACTIVE,
    AgentProgram,
    Atom,
    Clause,
    is_identifier,
)
from dali.parser import (
    EventScript,
    parse_agent_file,
    parse_atom_text,
    parse_event_script,
    parse_init_atoms,
    pretty,
)


class TestAgentFiles:
    def test_henry_two_clauses(self):
        p = parse_agent_file(
            "agent Henry. @internal happy. @action sing_a_song. "
            "happy :- sunny_day. happy :> sing_a_song."
        )
        assert p.name == "Henry"
        assert len(p.clauses) == 2
        assert p.internals == (Atom("happy"),)
        assert p.actions == (Atom("sing_a_song"),)
        assert p.clauses[0].kind == ORDINARY
        assert p.clauses[1].kind == REACTIVE

    def test_empty_agent(self):
        p = parse_agent_file("agent A.")
        assert p.name == "A"
        assert p.clauses == ()
        assert p.externals == p.internals == p.actions == ()

    def test_present_marker_parses(self):
        p = parse_agent_file(
            "agent Mary. @external alarm_clock_rings. "
            "my_god_its_late :- now(alarm_clock_rings)."
        )
        body = p.clauses[0].body
        assert body == (Atom("alarm_clock_rings", "present"),)

    def test_action_rule_token(self):
        p = parse_agent_file("agent A. @action a. a :< c.")
        assert p.clauses[0].kind == ACTION

    def test_comments_and_whitespace(self):
        p = parse_agent_file(
            "agent A.  % a comment\n"
            "% full-line comment\n"
            "p :- q, r.   % trailing\n"
        )
        assert p.clauses == (Clause(Atom("p"), (Atom("q"), Atom("r"))),)

    def test_past_and_now_as_plain_atoms(self):
        # Only the "(" makes them markers.
        p = parse_agent_file("agent A. p :- past, now.")
        assert p.clauses[0].body == (Atom("past"), Atom("now"))

    def test_syntax_error_has_position(self):
        with pytest.raises(DaliSyntaxError) as exc:
            parse_agent_file("agent A.\np :- q,,r.", "f.dali")
        assert exc.value.span is not None
        assert exc.value.span.file == "f.dali"
        assert exc.value.span.line == 2

    def test_unknown_directive(self):
        with pytest.raises(DaliSyntaxError, match="unknown directive"):
            parse_agent_file("agent A. @wibble x.")

    def test_nested_marker_rejected(self):
        with pytest.raises(DaliSyntaxError):
            parse_agent_file("agent A. p :- past(now(x)).")

    def test_missing_header(self):
        with pytest.raises(DaliSyntaxError, match="agent"):
            parse_agent_file("p :- q.")

    def test_directive_after_clause_rejected(self):
        with pytest.raises(DaliSyntaxError):
            parse_agent_file("agent A. p. @external e.")


class TestIdentifiers:
    @pytest.mark.parametrize(
        "text,where",
        [
            ("agent \u00c9mile.\n", "1:7"),
            ("agent A.\n@external \u00e9v.\n", "2:11"),
            ("agent A.\n\u00e9v.\n", "2:1"),
            ("agent A.\np :- q, \u00e9v.\n", "2:9"),
            ("agent A.\np :- past(\u00e9v).\n", "2:11"),
        ],
        ids=["agent name", "directive", "clause head", "body atom", "marker argument"],
    )
    def test_non_ascii_first_letter_is_unexpected_character(self, text, where):
        char = next(c for c in text if not c.isascii())
        with pytest.raises(DaliSyntaxError) as exc:
            parse_agent_file(text, "f.dali")
        assert str(exc.value) == f"f.dali:{where}: unexpected character {char!r}"

    def test_bad_character_is_reported_before_a_grammar_error(self):
        with pytest.raises(DaliSyntaxError) as exc:
            parse_agent_file("agent A.\np :- ,q.\nr :- $.\n", "f.dali")
        assert str(exc.value) == "f.dali:3:6: unexpected character '$'"

    @settings(max_examples=200)
    @given(st.text(alphabet="aZ_09\u00e9\u00c9\u00b2\u00fc", min_size=1, max_size=6))
    def test_a_name_parses_exactly_when_is_identifier_accepts_it(self, name):
        text = f"agent A.\n{name}.\n"
        if is_identifier(name):
            assert parse_agent_file(text).clauses == (Clause(Atom(name)),)
        else:
            with pytest.raises(DaliSyntaxError, match="^f.dali:2:"):
                parse_agent_file(text, "f.dali")


class TestEndOfFile:
    @pytest.mark.parametrize(
        "text,message",
        [
            (
                "agent A.\np :- q   % trailing comment",
                "f.dali:2:28: expected '.' at the end of the clause, found 'end of file'",
            ),
            ("agent A.\np :- q,", "f.dali:2:8: expected an atom, found 'end of file'"),
            ("agent A.\np :- q,\n", "f.dali:3:1: expected an atom, found 'end of file'"),
            ("agent A.\np :- q\t\r", "f.dali:2:9: expected '.' at the end of the clause, found 'end of file'"),
        ],
    )
    def test_error_at_end_of_file_is_at_its_true_end(self, text, message):
        with pytest.raises(DaliSyntaxError) as exc:
            parse_agent_file(text, "f.dali")
        assert str(exc.value) == message


class TestEventScripts:
    def test_single_line(self):
        s = parse_event_script("0 Mary alarm_clock_rings")
        assert len(s.entries) == 1
        e = s.entries[0]
        assert (e.tick, e.agent, e.event) == (0, "Mary", Atom("alarm_clock_rings"))

    def test_repetition_allowed(self):
        s = parse_event_script("0 A danger\n3 A danger\n")
        assert [e.tick for e in s.entries] == [0, 3]
        assert s.entries[0].event == s.entries[1].event

    def test_decreasing_tick_rejected(self):
        with pytest.raises(DaliSyntaxError, match="decreases"):
            parse_event_script("5 A x\n2 A y\n")

    def test_non_integer_tick(self):
        with pytest.raises(DaliSyntaxError, match="not an integer"):
            parse_event_script("one A x")

    def test_malformed_line(self):
        with pytest.raises(DaliSyntaxError):
            parse_event_script("0 A")

    def test_comments_and_blanks(self):
        s = parse_event_script("# header\n\n0 A x  # same line\n")
        assert len(s.entries) == 1

    def test_entries_must_be_ordered_by_tick(self):
        s = parse_event_script("0 A x\n4 A z\n")
        with pytest.raises(ValueError, match="ordered by tick"):
            EventScript(s.entries[::-1])


class TestInitAtoms:
    def test_mixed_markers(self):
        atoms = parse_init_atoms("e1, past(e2),now(e3)")
        assert atoms == (Atom("e1"), Atom.past("e2"), Atom.now("e3"))

    def test_empty_parts_are_skipped(self):
        assert parse_init_atoms("e1,,past(e2)") == parse_init_atoms("e1,past(e2)")

    def test_single_atom_helper(self):
        assert parse_atom_text("past(x)") == Atom.past("x")
        with pytest.raises(DaliSyntaxError):
            parse_atom_text("not an atom")


# -- round-trip property -------------------------------------------------

idents = st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True)
markers = st.sampled_from(["plain", "past", "present"])
atoms = st.builds(Atom, idents, markers)
plain_atoms = st.builds(Atom, idents)
kinds = st.sampled_from([ORDINARY, REACTIVE, ACTION])


@st.composite
def clauses(draw):
    kind = draw(kinds)
    min_body = 0 if kind == ORDINARY else 1
    body = tuple(draw(st.lists(atoms, min_size=min_body, max_size=4)))
    return Clause(draw(plain_atoms), body, kind)


programs = st.builds(
    AgentProgram,
    st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,8}", fullmatch=True),
    st.lists(clauses(), max_size=8).map(tuple),
    st.lists(plain_atoms, max_size=3).map(tuple),
    st.lists(plain_atoms, max_size=3).map(tuple),
    st.lists(plain_atoms, max_size=3).map(tuple),
)


@settings(max_examples=150)
@given(programs)
def test_pretty_parse_round_trip(program):
    assert parse_agent_file(pretty(program)) == program


@settings(max_examples=150)
@given(programs)
def test_round_trip_preserves_clause_and_body_order(program):
    again = parse_agent_file(pretty(program))
    assert again.clauses == program.clauses
    for mine, theirs in zip(program.clauses, again.clauses):
        assert mine.body == theirs.body


# -- tokenizer differential ------------------------------------------------

# The tokenizer as it was before the flat expression: blanks and comments
# skipped by a repeated group in front of every token, and "" (possibly
# twice) at the end.  It is the reference the current one must agree with.
REFERENCE_TOKEN = re.compile(
    r"(?:[ \t\r\n]+|%[^\n]*)*([A-Za-z_]\w*|:[-><]|.|\Z)", re.DOTALL
)


def reference_tokens(text: str) -> list[str]:
    return REFERENCE_TOKEN.findall(text)


def reference_span(text: str, filename: str, index: int) -> SourceSpan:
    offset = next(islice(REFERENCE_TOKEN.finditer(text), index, None)).start(1)
    line_start = text.rfind("\n", 0, offset) + 1
    return SourceSpan(filename, text.count("\n", 0, offset) + 1, offset - line_start + 1)


def outcome(text: str):
    try:
        return parse_agent_file(text, "f.dali")
    except DaliSyntaxError as exc:
        return str(exc)


# Pieces of agent files, and characters the grammar does not have: form
# feed, vertical tab, NUL, a non-ASCII letter, a no-break space.
TOKEN_PIECES = (
    "agent", "A", "p", "q", "e", "x", "_", "9", "$", ".", ",", ":-", ":>", ":<",
    ":", "-", ">", "(", ")", "@", "external", "internal", "action", "past(",
    "now(", "%", "% c", " ", "\t", "\n", "\r", "\r\n", "\f", "\v", "\x00",
    "\u00e9", "\u00a0",
)
pieces = st.lists(st.sampled_from(TOKEN_PIECES), max_size=30).map("".join)


@st.composite
def edited_programs(draw):
    """A printed program with a few pieces inserted at one place."""
    text = pretty(draw(programs))
    i = draw(st.integers(0, len(text)))
    inserted = "".join(draw(st.lists(st.sampled_from(TOKEN_PIECES), max_size=3)))
    return text[:i] + inserted + text[i:]


token_texts = st.one_of(pieces, edited_programs())


class TestTokenizer:
    """The flat token expression against the reference above."""

    @settings(max_examples=400)
    @given(token_texts)
    def test_same_tokens_offsets_and_outcomes(self, text):
        toks = parser._tokens(text)
        ref = reference_tokens(text)
        assert toks[-1] == ""
        assert toks[:-1] == [t for t in ref if t]
        for i in range(len(toks)):
            assert parser._span(text, "f.dali", i) == reference_span(text, "f.dali", i)
        got = outcome(text)
        with mock.patch.object(parser, "_tokens", reference_tokens), mock.patch.object(
            parser, "_span", reference_span
        ):
            assert got == outcome(text)

    @pytest.mark.parametrize("text", ["", "% only a comment", "agent A.\r\n% c"])
    def test_end_of_file_is_one_empty_token_at_the_end(self, text):
        toks = parser._tokens(text)
        assert toks.count("") == 1 and toks[-1] == ""
        span = parser._span(text, "f.dali", len(toks) - 1)
        assert span == reference_span(text, "f.dali", len(toks) - 1)
