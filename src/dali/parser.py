"""Parse `.dali` agent files and event-injection scripts.

Agent file grammar (one agent per file, `%` comments to end of line):

    file      := header directive* clause*
    header    := "agent" IDENT "."
    directive := "@" ("external" | "internal" | "action") IDENT "."
    clause    := IDENT ((":-" | ":>" | ":<") body)? "."
    body      := batom ("," batom)*
    batom     := IDENT | ("past" | "now") "(" IDENT ")"

`:-` introduces an ordinary rule, `:>` a reactive rule, `:<` an action
rule.  `past(p)` and `now(p)` are the event markers allowed in bodies.
IDENT is `[A-Za-z_]\\w*`, an ASCII letter or `_` then word characters:
the rule `is_identifier` applies to every other name.  Blanks are
space, tab, `\\r` and newline.  Outside a comment, a character that
starts no token (`é`, `9`, a lone `:`) is a syntax error at its line
and column.

The whole file is scanned into tokens by one flat regular expression
before parsing starts, so an unexpected character anywhere is reported
ahead of a grammar error.  A token is an identifier, an arrow, a `%`
comment, or any other single character that is not a blank; blanks
match nothing.  Comment tokens are then dropped (only when the text has
a `%` at all) and one "" token marks the end of the file.  Tokens are
plain strings; the line and column of a diagnostic are worked out from
the token's offset, and only then, by scanning again with the same
expression and skipping comments the same way; the end of the file is
at `len(text)`.

A name token has matched `[A-Za-z_]\\w*`, the very rule `is_identifier`
applies, and clause kinds and markers come from the tables below, so
the parser builds its atoms and clauses with `Atom._unchecked` and
`Clause._unchecked`, which skip the checks that `Atom(...)` and
`Clause(...)` would repeat.  The values are the same either way.

Event scripts are line oriented, `#` comments:

    TICK AGENT EVENT

with nonnegative, nondecreasing ticks.
"""

from __future__ import annotations

import re
from dataclasses import field
from itertools import islice
from string import ascii_letters
from typing import Iterator, NoReturn

from .errors import DaliError, DaliSyntaxError, SourceSpan, frozen
from .model import (
    ACTION,
    ORDINARY,
    PAST,
    PRESENT,
    REACTIVE,
    AgentProgram,
    Atom,
    Clause,
    is_identifier,
)

# One token: an identifier, a two-character arrow, a comment, or any
# other single character that is not a blank.  Blanks match nothing.
_TOKEN = re.compile(r"[A-Za-z_]\w*|:[-><]|%[^\n]*|[^ \t\r\n]")
# Tokens that are not names; "" is the end of the file.
_PUNCT = frozenset((":-", ":>", ":<", ".", ",", "(", ")", "@", ""))
_ARROWS = {":-": ORDINARY, ":>": REACTIVE, ":<": ACTION}
_MARKERS = {"past": PAST, "now": PRESENT}
_IDENT_START = frozenset(ascii_letters + "_")


def _tokens(text: str) -> list[str]:
    """The tokens of `text` without its comments, then "" for the end."""
    toks = _TOKEN.findall(text)
    if "%" in text:
        toks = [tok for tok in toks if tok[0] != "%"]
    toks.append("")
    return toks


def _span(text: str, filename: str, index: int) -> SourceSpan:
    """The position of token `index` of `_tokens(text)`, found by
    scanning again; the end of the file is at `len(text)`."""
    starts = (m.start() for m in _TOKEN.finditer(text) if m[0][0] != "%")
    offset = next(islice(starts, index, None), len(text))
    line_start = text.rfind("\n", 0, offset) + 1
    return SourceSpan(filename, text.count("\n", 0, offset) + 1, offset - line_start + 1)


def parse_agent_file(text: str, filename: str = "<string>") -> AgentProgram:
    """Parse agent source text into an AgentProgram.

    Clause order and body order are preserved exactly.  Raises
    DaliSyntaxError with a 1-based source position on malformed input;
    structural restrictions are left to `validate_program`.
    """
    toks = _tokens(text)

    def fail(index: int, message: str) -> NoReturn:
        raise DaliSyntaxError(message, _span(text, filename, index))

    def expected(index: int, what: str) -> NoReturn:
        fail(index, f"expected {what}, found {toks[index] or 'end of file'!r}")

    # One unmarked Atom per distinct identifier, in order of first
    # appearance; a token that is neither punctuation nor an identifier
    # is a character the grammar does not have.
    plain = dict.fromkeys(toks)
    for tok in plain:
        if tok not in _PUNCT:
            if tok[0] not in _IDENT_START:
                fail(toks.index(tok), f"unexpected character {tok!r}")
            plain[tok] = Atom._unchecked(tok)
    marked: dict[tuple[str, str], Atom] = {}

    # Every token but the last is followed by another, so once toks[i]
    # is known not to be "" (end of file), toks[i + 1] exists.
    if plain[toks[0]] is None:
        expected(0, "'agent'")
    if toks[0] != "agent":
        fail(0, "agent file must start with 'agent Name.'")
    name = toks[1]
    if plain[name] is None:
        expected(1, "an agent name")
    if toks[2] != ".":
        expected(2, "'.' after the agent name")
    i = 3

    roles: dict[str, list[Atom]] = {"external": [], "internal": [], "action": []}
    while toks[i] == "@":
        kind = toks[i + 1]
        if plain[kind] is None:
            expected(i + 1, "a directive name")
        if kind not in roles:
            fail(
                i,
                f"unknown directive '@{kind}' "
                f"(expected @external, @internal or @action)",
            )
        atom = plain[toks[i + 2]]
        if atom is None:
            expected(i + 2, "an atom name")
        if toks[i + 3] != ".":
            expected(i + 3, "'.' after the directive")
        roles[kind].append(atom)
        i += 4

    clauses: list[Clause] = []
    while (tok := toks[i]) != "":
        head = plain[tok]
        if head is None:
            if tok == "@":
                fail(i, "directives must come before the first clause")
            expected(i, "a clause head")
        tok = toks[i + 1]
        if tok == ".":
            clauses.append(Clause._unchecked(head, (), ORDINARY))
            i += 2
            continue
        kind = _ARROWS.get(tok)
        if kind is None:
            fail(
                i + 1,
                f"expected '.', ':-', ':>' or ':<' after clause head, "
                f"found {tok!r}",
            )
        body: list[Atom] = []
        while True:
            i += 2  # past the arrow or comma, to the next body atom
            tok = toks[i]
            atom = plain[tok]
            if atom is None:
                expected(i, "an atom")
            if tok in _MARKERS and toks[i + 1] == "(":
                inner = toks[i + 2]
                if plain[inner] is None:
                    expected(i + 2, "an identifier inside the marker")
                if toks[i + 3] != ")":
                    expected(i + 3, "')'")
                key = (inner, _MARKERS[tok])
                atom = marked.get(key)
                if atom is None:
                    atom = marked[key] = Atom._unchecked(*key)
                i += 3
            body.append(atom)
            if toks[i + 1] != ",":
                break
        i += 1
        if toks[i] != ".":
            expected(i, "'.' at the end of the clause")
        clauses.append(Clause._unchecked(head, tuple(body), kind))
        i += 1

    return AgentProgram(
        name,
        tuple(clauses),
        tuple(roles["external"]),
        tuple(roles["internal"]),
        tuple(roles["action"]),
    )


def pretty(program: AgentProgram) -> str:
    """Render a program back to `.dali` source.

    Inverse of parse_agent_file up to whitespace: reparsing the output
    yields a structurally identical AgentProgram.
    """
    out = [f"agent {program.name}."]
    for kind, atoms in (
        ("external", program.externals),
        ("internal", program.internals),
        ("action", program.actions),
    ):
        for a in atoms:
            out.append(f"@{kind} {a.name}.")
    for c in program.clauses:
        out.append(str(c))
    return "\n".join(out) + "\n"


@frozen
class ScriptEntry:
    tick: int
    agent: str
    event: Atom
    # The script line of the entry, when it was parsed from one.
    span: SourceSpan | None = field(default=None, compare=False, repr=False)


@frozen
class EventScript:
    """Timed external-event injections, ordered by tick: the order in
    which `SystemRunner` takes them off the front."""

    entries: tuple[ScriptEntry, ...] = ()

    def __post_init__(self):
        if any(a.tick > b.tick for a, b in zip(self.entries, self.entries[1:])):
            raise ValueError("event script entries must be ordered by tick")


def content_lines(text: str, filename: str) -> Iterator[tuple[SourceSpan, str]]:
    """Each line of an event script or a system config that has content:
    its first column's span, and its text without `#` comment or blanks."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield SourceSpan(filename, lineno, 1), line


def parse_int(text: str, what: str, minimum: int, span: SourceSpan | None) -> int:
    """`text` as an integer of at least `minimum`; `what` names it in
    the error, which is at `span` if that is given."""
    try:
        value = int(text)
    except ValueError:
        raise DaliSyntaxError(f"{what} must be an integer, got {text!r}", span) from None
    if value < minimum:
        raise DaliSyntaxError(f"{what} must be >= {minimum}, got {value}", span)
    return value


def parse_event_script(text: str, filename: str = "<string>") -> EventScript:
    """Parse a `TICK AGENT EVENT` script; `#` starts a comment."""
    entries: list[ScriptEntry] = []
    prev = -1
    for span, line in content_lines(text, filename):
        parts = line.split()
        if len(parts) != 3:
            raise DaliSyntaxError(
                f"expected 'TICK AGENT EVENT', found {len(parts)} field(s)", span
            )
        tick_s, agent, event = parts
        try:
            tick = int(tick_s)
        except ValueError:
            raise DaliSyntaxError(f"tick {tick_s!r} is not an integer", span) from None
        if tick < 0:
            raise DaliSyntaxError(f"tick {tick} is negative", span)
        if tick < prev:
            raise DaliSyntaxError(
                f"tick {tick} decreases (previous entry was at {prev})", span
            )
        if not is_identifier(agent) or not is_identifier(event):
            raise DaliSyntaxError("agent and event must be identifiers", span)
        entries.append(ScriptEntry(tick, agent, Atom._unchecked(event), span))
        prev = tick
    return EventScript(tuple(entries))


def parse_init_atoms(spec: str) -> tuple[Atom, ...]:
    """Parse a comma-separated initial-event list like `e1,past(e2)`."""
    atoms: list[Atom] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        for word, marker in _MARKERS.items():
            if part.startswith(word + "(") and part.endswith(")"):
                inner = part[len(word) + 1 : -1].strip()
                if not is_identifier(inner):
                    raise DaliSyntaxError(f"bad event name {inner!r} in init list")
                atoms.append(Atom._unchecked(inner, marker))
                break
        else:
            if not is_identifier(part):
                raise DaliSyntaxError(f"bad event name {part!r} in init list")
            atoms.append(Atom._unchecked(part))
    return tuple(atoms)


# Convenience wrappers over the file system.


def parse_atom_text(text: str) -> Atom:
    """Parse a single body-atom form: `x`, `past(x)` or `now(x)`."""
    try:
        atoms = parse_init_atoms(text)
    except DaliSyntaxError:
        atoms = ()
    if len(atoms) != 1:
        raise DaliSyntaxError(f"bad atom {text!r}: expected x, past(x) or now(x)")
    return atoms[0]


def as_atom(atom: Atom | str) -> Atom:
    """An atom as given, or parsed from its text by `parse_atom_text`."""
    return parse_atom_text(atom) if isinstance(atom, str) else atom


def _universal_newlines(text: str) -> str:
    return text.replace("\r\n", "\n").replace("\r", "\n")


def read_source(path) -> str:
    """The text of a UTF-8 input file, newlines translated as text-mode
    `open` does.  A byte that is not UTF-8 is a syntax error at its line
    and column.  A file that cannot be read (missing, a directory, no
    permission, a NUL byte in its name) is a `DaliError` naming the path."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise DaliError(str(exc)) from None
    except ValueError as exc:  # "embedded null byte", which names no path
        raise DaliError(f"{exc}: {str(path)!r}") from None
    try:
        return _universal_newlines(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        lines = _universal_newlines(data[: exc.start].decode("utf-8")).split("\n")
        span = SourceSpan(str(path), len(lines), len(lines[-1]) + 1)
        raise DaliSyntaxError(
            f"not valid UTF-8: {exc.reason} (byte 0x{data[exc.start]:02x})", span
        ) from None


def load_agent_file(path) -> AgentProgram:
    return parse_agent_file(read_source(path), str(path))


def load_event_script(path) -> EventScript:
    return parse_event_script(read_source(path), str(path))


# Re-export: spans live in errors.py to avoid an import cycle.
__all__ = [
    "EventScript",
    "ScriptEntry",
    "SourceSpan",
    "as_atom",
    "content_lines",
    "load_agent_file",
    "load_event_script",
    "parse_agent_file",
    "parse_atom_text",
    "parse_event_script",
    "parse_init_atoms",
    "parse_int",
    "pretty",
    "read_source",
]
