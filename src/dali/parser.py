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

Event scripts are line oriented, `#` comments:

    TICK AGENT EVENT

with nonnegative, nondecreasing ticks.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import attrgetter

from .errors import DaliError, DaliSyntaxError, SourceSpan
from .model import (
    ACTION,
    ORDINARY,
    REACTIVE,
    AgentProgram,
    Atom,
    Clause,
    is_identifier,
)

_PUNCT = {
    ":-": "ARROW_ORD",
    ":>": "ARROW_REACT",
    ":<": "ARROW_ACT",
    ".": "DOT",
    ",": "COMMA",
    "(": "LPAREN",
    ")": "RPAREN",
    "@": "AT",
}

_DIRECTIVES = {"external", "internal", "action"}


@dataclass(frozen=True, slots=True)
class Token:
    kind: str  # IDENT or a _PUNCT value or EOF
    value: str
    span: SourceSpan


def _tokenize(text: str, filename: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i, line, col = i + 1, line + 1, 1
            continue
        if ch in " \t\r":
            i, col = i + 1, col + 1
            continue
        if ch == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        span = SourceSpan(filename, line, col)
        two = text[i : i + 2]
        if two in _PUNCT:
            tokens.append(Token(_PUNCT[two], two, span))
            i, col = i + 2, col + 2
            continue
        if ch in _PUNCT:
            tokens.append(Token(_PUNCT[ch], ch, span))
            i, col = i + 1, col + 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("IDENT", text[i:j], span))
            col += j - i
            i = j
            continue
        raise DaliSyntaxError(f"unexpected character {ch!r}", span)
    tokens.append(Token("EOF", "", SourceSpan(filename, line, col)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    @property
    def cur(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.cur
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> Token:
        if self.cur.kind != kind:
            raise DaliSyntaxError(
                f"expected {what}, found {self.cur.value or 'end of file'!r}",
                self.cur.span,
            )
        return self.advance()

    def body_atom(self) -> Atom:
        tok = self.expect("IDENT", "an atom")
        if tok.value in ("past", "now") and self.cur.kind == "LPAREN":
            self.advance()
            inner = self.expect("IDENT", "an identifier inside the marker")
            self.expect("RPAREN", "')'")
            return Atom(inner.value, "past" if tok.value == "past" else "present")
        return Atom(tok.value)

    def body(self) -> tuple[Atom, ...]:
        atoms = [self.body_atom()]
        while self.cur.kind == "COMMA":
            self.advance()
            atoms.append(self.body_atom())
        return tuple(atoms)


def parse_agent_file(text: str, filename: str = "<string>") -> AgentProgram:
    """Parse agent source text into an AgentProgram.

    Clause order and body order are preserved exactly.  Raises
    DaliSyntaxError with a 1-based source position on malformed input;
    structural restrictions are left to `validate_program`.
    """
    p = _Parser(_tokenize(text, filename))

    header = p.expect("IDENT", "'agent'")
    if header.value != "agent":
        raise DaliSyntaxError("agent file must start with 'agent Name.'", header.span)
    name = p.expect("IDENT", "an agent name").value
    p.expect("DOT", "'.' after the agent name")

    externals: list[Atom] = []
    internals: list[Atom] = []
    actions: list[Atom] = []
    roles = {"external": externals, "internal": internals, "action": actions}

    while p.cur.kind == "AT":
        at = p.advance()
        kind = p.expect("IDENT", "a directive name")
        if kind.value not in _DIRECTIVES:
            raise DaliSyntaxError(
                f"unknown directive '@{kind.value}' "
                f"(expected @external, @internal or @action)",
                at.span,
            )
        atom = p.expect("IDENT", "an atom name")
        p.expect("DOT", "'.' after the directive")
        roles[kind.value].append(Atom(atom.value))

    clauses: list[Clause] = []
    while p.cur.kind != "EOF":
        if p.cur.kind == "AT":
            raise DaliSyntaxError(
                "directives must come before the first clause", p.cur.span
            )
        head = p.expect("IDENT", "a clause head")
        if p.cur.kind == "DOT":
            p.advance()
            clauses.append(Clause(Atom(head.value)))
            continue
        kind_map = {
            "ARROW_ORD": ORDINARY,
            "ARROW_REACT": REACTIVE,
            "ARROW_ACT": ACTION,
        }
        if p.cur.kind not in kind_map:
            raise DaliSyntaxError(
                f"expected '.', ':-', ':>' or ':<' after clause head, "
                f"found {p.cur.value!r}",
                p.cur.span,
            )
        kind = kind_map[p.advance().kind]
        body = p.body()
        p.expect("DOT", "'.' at the end of the clause")
        clauses.append(Clause(Atom(head.value), body, kind))

    return AgentProgram(name, tuple(clauses), tuple(externals), tuple(internals), tuple(actions))


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


@dataclass(frozen=True, slots=True)
class ScriptEntry:
    tick: int
    agent: str
    event: Atom


_TICK = attrgetter("tick")


@dataclass(frozen=True, slots=True)
class EventScript:
    """Timed external-event injections, ordered by tick.

    The order lets `due` and `after` find their entries by bisection,
    so a lookup costs O(log n) plus the entries it returns.
    """

    entries: tuple[ScriptEntry, ...] = ()

    def __post_init__(self):
        if any(a.tick > b.tick for a, b in zip(self.entries, self.entries[1:])):
            raise ValueError("event script entries must be ordered by tick")

    def due(self, tick: int) -> tuple[ScriptEntry, ...]:
        entries = self.entries
        start = bisect_left(entries, tick, key=_TICK)
        return entries[start : bisect_right(entries, tick, lo=start, key=_TICK)]

    def after(self, tick: int) -> tuple[ScriptEntry, ...]:
        return self.entries[bisect_right(self.entries, tick, key=_TICK) :]


def parse_event_script(text: str, filename: str = "<string>") -> EventScript:
    """Parse a `TICK AGENT EVENT` script; `#` starts a comment."""
    entries: list[ScriptEntry] = []
    prev = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        span = SourceSpan(filename, lineno, 1)
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
        entries.append(ScriptEntry(tick, agent, Atom(event)))
        prev = tick
    return EventScript(tuple(entries))


def parse_init_atoms(spec: str) -> tuple[Atom, ...]:
    """Parse a comma-separated initial-event list like `e1,past(e2)`."""
    atoms: list[Atom] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        for marker, prefix in (("past", "past("), ("present", "now(")):
            if part.startswith(prefix) and part.endswith(")"):
                inner = part[len(prefix) : -1].strip()
                if not is_identifier(inner):
                    raise DaliSyntaxError(f"bad event name {inner!r} in init list")
                atoms.append(Atom(inner, marker))
                break
        else:
            if not is_identifier(part):
                raise DaliSyntaxError(f"bad event name {part!r} in init list")
            atoms.append(Atom(part))
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


def _universal_newlines(text: str) -> str:
    return text.replace("\r\n", "\n").replace("\r", "\n")


def read_source(path) -> str:
    """The text of a UTF-8 input file, newlines translated as text-mode
    `open` does.  A byte that is not UTF-8 is a syntax error at its line
    and column.  A file that cannot be read (missing, a directory, no
    permission) is a `DaliError` naming the path."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise DaliError(str(exc)) from None
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
    "Token",
    "load_agent_file",
    "load_event_script",
    "parse_agent_file",
    "parse_atom_text",
    "parse_event_script",
    "parse_init_atoms",
    "pretty",
    "read_source",
]
