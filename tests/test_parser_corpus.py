"""Parser outcomes pinned on a seeded corpus of damaged agent files.

Each text is one `scenarios/*.dali` file with one to three edits: a
deletion, an insertion or a replacement, drawn from a small ASCII
alphabet of letters, digits, the grammar's punctuation, `%`, `$`,
blanks, `\\r`, newlines and the marker openers `past(` and `now(`.
Every text ends in a newline.  For each text,
`tests/data/parser/<scenario>.jsonl` holds the text and either
`pretty(program)` or the exact message of the `DaliSyntaxError`, and
the parser must reproduce every entry.

Regenerate the files (only when a change of behaviour is intended):

    PYTHONPATH=src python tests/test_parser_corpus.py
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from dali.errors import DaliSyntaxError
from dali.parser import parse_agent_file, pretty

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "scenarios"
DATA = Path(__file__).resolve().parent / "data" / "parser"
FILENAME = "corpus.dali"
TEXTS_PER_FILE = 250
PIECES = (
    list("abpqxAZ_019")
    + list(":-><(),.@%$")
    + [" ", "\t", "\r", "\n", "past(", "now("]
)


def mutate(text: str, rng: random.Random) -> str:
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        edit = rng.choice(("delete", "insert", "replace"))
        if edit == "insert":
            text = text[:i] + rng.choice(PIECES) + text[i:]
        elif edit == "delete":
            text = text[:i] + text[i + 1 :]
        else:
            text = text[:i] + rng.choice(PIECES) + text[i + 1 :]
    return text if text.endswith("\n") else text + "\n"


def outcome(text: str) -> dict:
    try:
        return {"program": pretty(parse_agent_file(text, FILENAME))}
    except DaliSyntaxError as exc:
        return {"error": str(exc)}


def corpus(path: Path) -> list[str]:
    source = path.read_text(encoding="utf-8")
    rng = random.Random(path.stem)
    return [mutate(source, rng) for _ in range(TEXTS_PER_FILE)]


SOURCES = sorted(SCENARIOS.glob("*.dali"))


@pytest.mark.parametrize("path", SOURCES, ids=[p.stem for p in SOURCES])
def test_parser_reproduces_pinned_outcomes(path):
    lines = (DATA / f"{path.stem}.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(lines) == TEXTS_PER_FILE
    for line in lines:
        entry = json.loads(line)
        text = entry.pop("text")
        assert outcome(text) == entry, text


def test_corpus_hits_both_outcomes_and_every_error_kind():
    """The pinned texts must exercise the parser, not only its
    first check: parsed programs, every diagnostic, and positions on
    later lines."""
    errors = []
    parsed = 0
    for path in SOURCES:
        for line in (DATA / f"{path.stem}.jsonl").read_text(encoding="utf-8").splitlines():
            entry = json.loads(line)
            if "error" in entry:
                errors.append(entry["error"])
            else:
                parsed += 1
    assert parsed > 500 and len(errors) > 1000
    for message in (
        "unexpected character",
        "expected an atom",
        "expected an identifier inside the marker",
        "expected ')'",
        "after clause head",
        "at the end of the clause",
        "unknown directive",
        "directives must come before the first clause",
        "agent file must start with",
        "found 'end of file'",
    ):
        assert any(message in e for e in errors), message


def write() -> None:
    DATA.mkdir(parents=True, exist_ok=True)
    for path in SOURCES:
        lines = [json.dumps({"text": t, **outcome(t)}) for t in corpus(path)]
        (DATA / f"{path.stem}.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")


if __name__ == "__main__":
    write()
