"""The `dali` command line.

`TestPinnedOutputs` compares `dali transform` and `dali model` on every
`scenarios/*.dali` with the output stored under `tests/data/cli/`, and
`TestPinnedReplSessions` does the same for a `dali repl` session on every
`scenarios/*.system` (its input is stored beside its output).  Stderr is
compared with the `.err` file beside the output where one exists, and
must be empty where none does.  `TestReplWarningOrder` pins a session on
`tests/data/cli/relay/` whose drops are first routed at different
commands, with stdout and stderr in one transcript, and `TestLateScript`
pins `dali run` on `tests/data/cli/late/`, whose script spans several
ticks.
Regenerate those files (only when a change of behaviour is intended):

    PYTHONPATH=src python tests/test_cli.py
"""

import errno
import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from dali.cli import main
from dali.engine import TRACE_FIELDS
from dali.runtime import load_system_config

ROOT = Path(__file__).resolve().parents[1]
CLI_DATA = Path(__file__).resolve().parent / "data" / "cli"
PINNED = [
    (path.stem, command)
    for path in sorted((ROOT / "scenarios").glob("*.dali"))
    for command in ("transform", "model")
]
REPL_SESSIONS = [path.stem for path in sorted((ROOT / "scenarios").glob("*.system"))]
MALFORMED = [path.stem for path in sorted((CLI_DATA / "malformed").glob("*.dali"))]
MALFORMED_SYSTEMS = [
    path.stem for path in sorted((CLI_DATA / "malformed").glob("*.system"))
]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def pinned_run(name: str, command: str, path: str | None = None) -> tuple[int, str, str]:
    """`dali COMMAND scenarios/NAME.dali` (or PATH) run from the repository root."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main([command, path or f"scenarios/{name}.dali"])
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


def repl_session_input(name: str) -> str:
    """Inject every script event of `scenarios/NAME.system` at once, run
    200 steps, then print the state of every agent."""
    config = load_system_config(ROOT / "scenarios" / f"{name}.system")
    lines = [f"inject {e.agent} {e.event}" for e in config.script.entries]
    lines.append("step 200")
    lines += [f"state {agent}" for agent in config.agents]
    lines.append("quit")
    return "\n".join(lines) + "\n"


def pinned_repl(name: str, session: str) -> tuple[int, str, str]:
    """`dali repl scenarios/NAME.system` fed `session`, from the repository root."""
    stdin = sys.stdin
    sys.stdin = io.StringIO(session)
    try:
        return pinned_run(name, "repl", f"scenarios/{name}.system")
    finally:
        sys.stdin = stdin


class TestPinnedOutputs:
    @pytest.mark.parametrize("name,command", PINNED, ids=[f"{c}-{n}" for n, c in PINNED])
    def test_matches_the_stored_output(self, name, command):
        stem = CLI_DATA / f"{name}.{command}"
        err_file = stem.with_name(stem.name + ".err")
        err = err_file.read_text(encoding="utf-8") if err_file.exists() else ""
        out = stem.with_name(stem.name + ".out").read_text(encoding="utf-8")
        assert pinned_run(name, command) == (0, out, err)


class TestPinnedReplSessions:
    @pytest.mark.parametrize("name", REPL_SESSIONS)
    def test_matches_the_stored_session(self, name):
        session = (CLI_DATA / f"{name}.repl.in").read_text(encoding="utf-8")
        assert session == repl_session_input(name)
        out = (CLI_DATA / f"{name}.repl.out").read_text(encoding="utf-8")
        err_file = CLI_DATA / f"{name}.repl.err"
        err = err_file.read_text(encoding="utf-8") if err_file.exists() else ""
        assert pinned_repl(name, session) == (0, out, err)


RELAY = CLI_DATA / "relay"


def relay_transcript() -> tuple[int, str]:
    """`dali repl` on the relay system fed its stored session, with
    stdout and stderr written to one stream in the order printed."""
    log = io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO((RELAY / "relay.repl.in").read_text(encoding="utf-8"))
    try:
        with redirect_stdout(log), redirect_stderr(log):
            code = main(["repl", str(RELAY / "relay.system")])
    finally:
        sys.stdin = stdin
    return code, log.getvalue()


class TestReplWarningOrder:
    def test_each_warning_follows_the_command_that_first_routed_it(self):
        log = (RELAY / "relay.repl.log").read_text(encoding="utf-8")
        assert relay_transcript() == (0, log)

    def test_each_drop_is_formatted_once(self, monkeypatch, fan_system, formatted_warnings):
        """A hub pings ten consumers, and each one's `log_it` is dropped at
        the ten other agents: 100 drops over many `step 1` commands.  A
        spy on the formatting of the drop warnings must see each of them
        exactly once, as the REPL prints it; so must the relay session."""
        monkeypatch.setattr(sys, "stdin", io.StringIO("inject Hub kick\n" + "step 1\n" * 120))
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            assert main(["repl", str(fan_system)]) == 0
        printed = err.getvalue().splitlines()
        assert len(printed) == 100
        assert printed == [f"warning: {w}" for w in formatted_warnings]

        formatted_warnings.clear()
        code, log = relay_transcript()
        printed = [line for line in log.splitlines() if line.startswith("warning: ")]
        assert len(printed) == 6
        assert printed == [f"warning: {w}" for w in formatted_warnings]


LATE = CLI_DATA / "late"


def late_run(trace: Path) -> tuple[int, str, str]:
    """`dali run tests/data/cli/late/late.system --trace TRACE`."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["run", str(LATE / "late.system"), "--trace", str(trace)])
    return code, out.getvalue(), err.getvalue()


class TestLateScript:
    def test_a_script_over_several_ticks_matches_the_stored_run(self, tmp_path):
        """Two entries at tick 0 (the second coalesces), one at tick 3
        after idle ticks, and one at tick 9, past `max_ticks 8`: the run
        is truncated (exit 2) with two reactions of each agent."""
        code, out, err = late_run(tmp_path / "late.jsonl")
        assert code == 2
        assert out == (LATE / "late.run.out").read_text(encoding="utf-8")
        assert err == (LATE / "late.run.err").read_text(encoding="utf-8")
        trace = (tmp_path / "late.jsonl").read_bytes()
        assert trace == (LATE / "late.trace.jsonl").read_bytes()


class TestModel:
    def test_snapshot_model_prints_sorted_atoms(self, capsys, scenario_dir):
        code, out, _ = run_cli(capsys, "model", str(scenario_dir / "snapshot1.dali"))
        assert code == 0
        assert out == "p\nq\n"

    def test_guarded_variant_same_model(self, capsys, scenario_dir):
        code, out, _ = run_cli(capsys, "model", str(scenario_dir / "snapshot2.dali"))
        assert code == 0
        assert out == "p\nq\n"

    def test_init_events_reach_the_model(self, capsys, scenario_dir):
        code, out, _ = run_cli(
            capsys,
            "model",
            str(scenario_dir / "george.dali"),
            "--init",
            "past(girlfriend_call)",
        )
        assert code == 0
        assert out.splitlines() == ["happy", "past_girlfriend_call"]


class TestTransform:
    def test_emits_generated_clause_with_provenance(self, capsys, scenario_dir):
        code, out, _ = run_cli(capsys, "transform", str(scenario_dir / "action1.dali"))
        assert code == 0
        assert "a :- p, b." in out
        assert "% action-transform" in out

    def test_undeclared_init_event_is_exit_3(self, capsys, scenario_dir):
        code, _, err = run_cli(
            capsys,
            "transform",
            str(scenario_dir / "action1.dali"),
            "--init",
            "nonsense",
        )
        assert code == 3
        assert "nonsense" in err

    @pytest.mark.parametrize(
        "init, name", [("in vitation", "in vitation"), ("e, past(1x)", "1x")],
        ids=["plain", "marked"],
    )
    def test_bad_name_in_init_list_is_exit_3(self, capsys, scenario_dir, init, name):
        argv = ["model", str(scenario_dir / "anne.dali"), "--init", init]
        assert run_cli(capsys, *argv) == (3, "", f"bad event name {name!r} in init list\n")


class TestQuery:
    def test_provable_atom_exits_zero(self, capsys, scenario_dir):
        code, out, _ = run_cli(
            capsys, "query", str(scenario_dir / "henry.dali"), "sunny_day"
        )
        assert code == 0
        assert out == "yes.\n"

    def test_unprovable_atom_exits_one(self, capsys, scenario_dir):
        code, out, _ = run_cli(capsys, "query", str(scenario_dir / "empty.dali"), "p")
        assert code == 1
        assert out == "no.\n"

    def test_strategy_flag(self, capsys, scenario_dir):
        code, out, _ = run_cli(
            capsys,
            "query",
            str(scenario_dir / "henry.dali"),
            "happy",
            "--strategy",
            "k=2,m=3",
        )
        assert code == 0
        assert out == "yes.\n"

    def test_bad_strategy_field(self, capsys, scenario_dir):
        code, _, err = run_cli(
            capsys,
            "query",
            str(scenario_dir / "henry.dali"),
            "happy",
            "--strategy",
            "z=1",
        )
        assert code == 3
        assert "strategy" in err


class TestValidationDiagnostics:
    def test_syntax_error_exits_3_with_span(self, capsys, tmp_path):
        bad = tmp_path / "bad.dali"
        bad.write_text("agent A.\np :- ,q.\n")
        code, _, err = run_cli(capsys, "query", str(bad), "p")
        assert code == 3
        assert f"{bad}:2:" in err

    def test_validation_error_exits_3_and_lists_issues(self, capsys, tmp_path):
        bad = tmp_path / "bad.dali"
        bad.write_text("agent A. @external e. e :> x. e :> y.\n")
        code, _, err = run_cli(capsys, "model", str(bad))
        assert code == 3
        assert "reactive" in err

    @pytest.mark.parametrize("command", ["model", "query", "transform"])
    def test_reserved_name_exits_3(self, capsys, tmp_path, command):
        # Accepted, the fact past_x would stand for past(x) in the model
        # (y in `dali model`) while the interpreter answers `no.` for y.
        bad = tmp_path / "bad.dali"
        bad.write_text("agent A. @external x. @action go. past_x. y :- past(x). x :> go.\n")
        argv = [command, str(bad)] + (["y"] if command == "query" else [])
        assert run_cli(capsys, *argv) == (
            3,
            "",
            f"{bad}: atom name 'past_x' is reserved for past(x) (clause 0)\n",
        )

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "model", str(tmp_path / "nope.dali"))
        assert code == 3
        assert "nope.dali" in err

    @pytest.mark.parametrize("command", ["run", "repl"])
    def test_invalid_agent_in_a_config_lists_issues(
        self, capsys, monkeypatch, tmp_path, command
    ):
        bad = tmp_path / "bad.dali"
        bad.write_text("agent A. @external e. e :- x. e :> y. e :> z.\n")
        cfg = tmp_path / "sys.system"
        cfg.write_text("agent bad.dali\n")
        monkeypatch.setattr("sys.stdin", io.StringIO("quit\n"))
        code, out, err = run_cli(capsys, command, str(cfg))
        assert code == 3
        assert out == ""
        # the same lines `dali model` prints for the agent file itself
        assert err.splitlines() == [
            f"{bad}: ordinary rule defines external event 'e' (clause 0)",
            f"{bad}: second reactive rule for 'e'; only one is allowed (clause 2)",
        ]
        assert run_cli(capsys, "model", str(bad)) == (3, "", err)


class TestBadAtom:
    @pytest.mark.parametrize("text", ["p(", "past(p", "now(1)", "a,b"])
    @pytest.mark.parametrize("form", ["query", "repl query", "repl inject"])
    def test_names_the_atom_given(self, capsys, monkeypatch, scenario_dir, form, text):
        if form == "query":
            code, out, err = run_cli(capsys, "query", str(scenario_dir / "mary.dali"), text)
            assert (code, out) == (3, "")
        else:
            command = form.split()[1]
            monkeypatch.setattr("sys.stdin", io.StringIO(f"{command} Mary {text}\nquit\n"))
            code, out, err = run_cli(capsys, "repl", str(scenario_dir / "mary.system"))
            assert code == 0
            err = out.splitlines()[1].removeprefix("dali> ")
        assert f"bad atom {text!r}: expected x, past(x) or now(x)" in err
        assert "init list" not in err


class TestBadIdentifier:
    @pytest.mark.parametrize(
        "text,where",
        [
            ("agent \u00c9.\n", "1:7"),
            ("agent A.\n@external \u00e9v.\n", "2:11"),
            ("agent A.\n\u00e9v.\n", "2:1"),
            ("agent A.\np :- \u00e9v.\n", "2:6"),
            ("agent A.\np :- now(\u00e9v).\n", "2:10"),
        ],
        ids=["agent name", "directive", "clause head", "body atom", "marker argument"],
    )
    def test_exit_3_at_the_character(self, capsys, tmp_path, text, where):
        bad = tmp_path / "bad.dali"
        bad.write_text(text, encoding="utf-8")
        char = next(c for c in text if not c.isascii())
        code, out, err = run_cli(capsys, "model", str(bad))
        assert (code, out) == (3, "")
        assert err == f"{bad}:{where}: unexpected character {char!r}\n"


class TestMalformedInput:
    """`dali model` on a file with a form feed, a name that starts with
    `é`, or a comment that ends the file, and `dali run` and `dali repl`
    on a system config whose `map` line names an unknown agent: exit 3
    and one `file:line:column` line, pinned in `malformed/NAME.model.err`
    or `malformed/NAME.run.err`."""

    @pytest.mark.parametrize("name", MALFORMED)
    def test_exit_3_with_the_pinned_message(self, name):
        path = f"tests/data/cli/malformed/{name}.dali"
        err = (CLI_DATA / "malformed" / f"{name}.model.err").read_text(encoding="utf-8")
        assert err.startswith(f"{path}:") and err.count("\n") == 1
        assert pinned_run(name, "model", path) == (3, "", err)

    @pytest.mark.parametrize("command", ["run", "repl"])
    @pytest.mark.parametrize("name", MALFORMED_SYSTEMS)
    def test_system_exit_3_with_the_pinned_message(self, monkeypatch, name, command):
        monkeypatch.setattr("sys.stdin", io.StringIO("quit\n"))
        path = f"tests/data/cli/malformed/{name}.system"
        err = (CLI_DATA / "malformed" / f"{name}.run.err").read_text(encoding="utf-8")
        assert err.startswith(f"{path}:") and err.count("\n") == 1
        assert pinned_run(name, command, path) == (3, "", err)


class TestUnreadableInput:
    @pytest.mark.parametrize("how", ["directory", "not utf-8"])
    @pytest.mark.parametrize(
        "command, broken",
        [
            ("model", "a.dali"),
            ("run", "a.dali"),
            ("run", "s.events"),
            ("run", "sys.system"),
        ],
    )
    def test_exit_3_names_the_path(self, capsys, tmp_path, command, broken, how):
        (tmp_path / "a.dali").write_text("agent A. @external e. @action x. e :> x.\n")
        (tmp_path / "s.events").write_text("0 A e\n")
        (tmp_path / "sys.system").write_text("agent a.dali\nscript s.events\n")
        bad = tmp_path / broken
        bad.unlink()
        if how == "directory":
            bad.mkdir()
        else:
            bad.write_bytes(b"# fine\n  caf\xe9\n")
        target = "a.dali" if command == "model" else "sys.system"
        code, out, err = run_cli(capsys, command, str(tmp_path / target))
        assert code == 3
        assert out == ""
        assert str(bad) in err
        if how == "not utf-8":
            assert err == f"{bad}:2:6: not valid UTF-8: invalid continuation byte (byte 0xe9)\n"

    @pytest.mark.parametrize("how", ["missing", "directory"])
    @pytest.mark.parametrize("directive, line", [("agent", 2), ("script", 3)])
    def test_config_line_naming_an_unreadable_file_is_exit_3_at_the_line(
        self, capsys, tmp_path, directive, line, how
    ):
        (tmp_path / "a.dali").write_text("agent A. @external e. @action x. e :> x.\n")
        named = tmp_path / "named"
        if how == "directory":
            named.mkdir()
        lines = ["# a comment", "agent a.dali", "script s.events"]
        lines[line - 1] = f"  {directive} named"
        cfg = tmp_path / "sys.system"
        cfg.write_text("\n".join(lines) + "\n")
        (tmp_path / "s.events").write_text("0 A e\n")
        number = errno.ENOENT if how == "missing" else errno.EISDIR
        reason = f"[Errno {number}] {os.strerror(number)}: '{named}'"
        assert run_cli(capsys, "run", str(cfg)) == (3, "", f"{cfg}:{line}:1: {reason}\n")

    @pytest.mark.parametrize("command", ["run", "repl"])
    @pytest.mark.parametrize("directive", ["agent", "script"])
    def test_config_line_naming_a_file_with_a_nul_byte_is_exit_3_at_the_line(
        self, capsys, tmp_path, command, directive
    ):
        # `open` raises ValueError, not OSError, for such a name.
        (tmp_path / "a.dali").write_text("agent A. @external e. @action x. e :> x.\n")
        cfg = tmp_path / "t.system"
        cfg.write_text(f"agent a.dali\n{directive} x\0y.dali\n")
        named = repr(str(tmp_path / "x\0y.dali"))
        expected = f"{cfg}:2:1: embedded null byte: {named}\n"
        assert run_cli(capsys, command, str(cfg)) == (3, "", expected)

    @pytest.mark.parametrize("directive", ["agent", "script"])
    def test_syntax_error_in_a_named_file_keeps_its_own_position(
        self, capsys, tmp_path, directive
    ):
        (tmp_path / "a.dali").write_text("agent A. @external e. @action x. e :> x.\n")
        bad = tmp_path / "bad"
        bad.write_text("agent A. p :- ,q.\n" if directive == "agent" else "0 A e\nx\n")
        cfg = tmp_path / "sys.system"
        cfg.write_text(f"agent a.dali\n{directive} bad\n")
        code, out, err = run_cli(capsys, "run", str(cfg))
        assert (code, out) == (3, "")
        assert err.startswith(f"{bad}:") and err.count("\n") == 1
        assert err.startswith(f"{bad}:2:" if directive == "script" else f"{bad}:1:15:")


class TestRun:
    def test_run_writes_trace_and_exits_zero(self, capsys, scenario_dir, tmp_path):
        trace = tmp_path / "t.jsonl"
        code, out, _ = run_cli(
            capsys,
            "run",
            str(scenario_dir / "ping.system"),
            "--trace",
            str(trace),
        )
        assert code == 0
        assert "Producer" in out and "Consumer" in out
        lines = [json.loads(l) for l in trace.read_text().splitlines()]
        assert lines
        for line in lines:
            assert tuple(line.keys()) == TRACE_FIELDS
        assert any(
            l["agent"] == "Consumer" and l["case"] == "iv" and l["selected"] == "ping"
            for l in lines
        )

    @pytest.mark.parametrize(
        "target, error",
        [("", errno.EISDIR), ("missing/t.jsonl", errno.ENOENT)],
        ids=["directory", "missing parent"],
    )
    def test_unwritable_trace_is_exit_3(self, capsys, scenario_dir, tmp_path, target, error):
        trace = tmp_path / target
        code, out, err = run_cli(
            capsys, "run", str(scenario_dir / "ping.system"), "--trace", str(trace)
        )
        # The path is checked before the run: no tick runs, so no drop
        # warning is printed ahead of the error.
        assert code == 3
        assert out == ""
        assert err == f"cannot write trace file {trace}: {os.strerror(error)}\n"

    def test_truncated_run_exits_two(self, capsys, tmp_path):
        (tmp_path / "a.dali").write_text("agent A. @external e. @action x. e :> x.\n")
        (tmp_path / "s.events").write_text("0 A e\n9 A e\n")
        cfg = tmp_path / "sys.system"
        cfg.write_text("agent a.dali\nscript s.events\nmax_ticks 3\n")
        code, _, _ = run_cli(capsys, "run", str(cfg))
        assert code == 2

    def test_reaction_that_uses_the_whole_budget_ends_quiescent(self, capsys, tmp_path):
        # The reaction takes exactly `budget` steps in tick 0, after which
        # the agent is idle: one tick suffices, so the run is not cut short.
        (tmp_path / "a.dali").write_text("agent A. @external go. @action a. go :> a.\n")
        (tmp_path / "s.events").write_text("0 A go\n")
        cfg = tmp_path / "sys.system"
        cfg.write_text("agent a.dali\nscript s.events\nbudget 3\nmax_ticks 1\n")
        code, out, _ = run_cli(capsys, "run", str(cfg))
        assert code == 0
        assert out == "A: steps=3 performed=[a] pv=[go]\n"

    def test_reproducible_trace_bytes(self, capsys, scenario_dir, tmp_path):
        paths = []
        for i in (1, 2):
            trace = tmp_path / f"t{i}.jsonl"
            code, _, _ = run_cli(
                capsys,
                "run",
                str(scenario_dir / "mary.system"),
                "--trace",
                str(trace),
            )
            assert code == 0
            paths.append(trace)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_max_ticks_flag_overrides(self, capsys, scenario_dir):
        code, _, _ = run_cli(
            capsys,
            "run",
            str(scenario_dir / "ping.system"),
            "--max-ticks",
            "1",
        )
        assert code == 2  # consumer never got its tick-1 delivery

    def test_negative_max_ticks_flag_is_exit_3(self, capsys, scenario_dir):
        code, _, err = run_cli(
            capsys, "run", str(scenario_dir / "ping.system"), "--max-ticks", "-3"
        )
        assert code == 3
        assert "--max-ticks" in err


class TestSystemConfigIntegers:
    @pytest.mark.parametrize(
        "directive, message",
        [
            ("max_ticks ten", "integer"),
            ("max_ticks 2.5", "integer"),
            ("budget x", "integer"),
            ("budget", "integer"),
            ("max_ticks -1", ">= 0"),
            ("budget 0", ">= 1"),
            ("budget -4", ">= 1"),
            ("agent", "agent directive needs a file name"),
            ("script", "script directive needs a file name"),
        ],
    )
    def test_bad_value_is_exit_3_at_the_directive(
        self, capsys, tmp_path, directive, message
    ):
        (tmp_path / "a.dali").write_text("agent A. @external e. @action x. e :> x.\n")
        cfg = tmp_path / "sys.system"
        cfg.write_text(f"# config\nagent a.dali\n{directive}\n")
        code, _, err = run_cli(capsys, "run", str(cfg))
        assert code == 3
        assert f"{cfg}:3:1" in err
        assert message in err

    def test_zero_max_ticks_is_accepted(self, capsys, tmp_path):
        (tmp_path / "a.dali").write_text("agent A. @external e. @action x. e :> x.\n")
        (tmp_path / "s.events").write_text("0 A e\n")
        cfg = tmp_path / "sys.system"
        cfg.write_text("agent a.dali\nscript s.events\nmax_ticks 0\nbudget 1\n")
        code, _, _ = run_cli(capsys, "run", str(cfg))
        assert code == 2  # no tick runs, so the event stays pending


class TestConfigBlanks:
    def test_blanks_separate_a_directive_from_its_argument(self, capsys, tmp_path):
        (tmp_path / "p.dali").write_text("agent P. @external go. @action ping. go :> ping.\n")
        (tmp_path / "q.dali").write_text("agent Q. @external pong. pong :> noted. noted.\n")
        (tmp_path / "s.events").write_text("0 P go\n")
        lines = ["agent p.dali", "agent q.dali", "script s.events",
                 "map P.ping -> Q.pong", "max_ticks 5", "budget 3"]
        cfg = tmp_path / "sys.system"
        cfg.write_text("".join(line + "\n" for line in lines))
        expected = run_cli(capsys, "run", str(cfg))
        assert expected[0] == 0
        cfg.write_text("".join(line.replace(" ", "\t", 1) + " \t\n" for line in lines))
        assert run_cli(capsys, "run", str(cfg)) == expected
        cfg.write_text("".join(line.replace(" ", " \t ", 1) + "\n" for line in lines))
        assert run_cli(capsys, "run", str(cfg)) == expected


class TestConfigErrorPositions:
    """Each check of `SystemConfig.validate` is reported at the `map` line
    or the events-file line at fault; a second `script`, `max_ticks` or
    `budget` line, a second agent of one name and a malformed `map` line
    are errors at their config line, and a malformed entry at its
    events-file line."""

    # id: (config lines after the two agents, s.events, expected stderr)
    CASES = {
        "map source": (
            ["map C.x -> B.f"], "", "sys.system:4:1: map source 'C' is not a known agent"
        ),
        "map target": (
            ["map A.x -> B.f", "  map A.x -> C.f  # no C"],
            "",
            "sys.system:5:1: map target 'C' is not a known agent",
        ),
        "map to itself": (
            ["map A.x -> A.e"],
            "",
            "sys.system:4:1: map target 'A' is the producer of 'x'; "
            "an agent never receives its own actions",
        ),
        "map action": (
            ["map A.z -> B.f"], "", "sys.system:4:1: 'z' is not a declared action of agent A"
        ),
        "map event": (
            ["map A.x -> B.g"],
            "",
            "sys.system:4:1: 'g' is not a declared external event of agent B",
        ),
        "script agent": (
            ["script s.events"],
            "0 A e\n# later\n\n2 C e\n",
            "s.events:4:1: script targets unknown agent 'C'",
        ),
        "script event": (
            ["script s.events"],
            "0 A e\n1 B e\n",
            "s.events:2:1: script event 'e' is not a declared external event of agent B",
        ),
        "repeated script": (
            ["script s.events", "script s.events"],
            "0 A e\n",
            "sys.system:5:1: duplicate script directive",
        ),
        "repeated max_ticks": (
            ["max_ticks 3", "max_ticks 3"],
            "",
            "sys.system:5:1: duplicate max_ticks directive",
        ),
        "repeated budget": (
            ["budget 2", " budget 9 # more"],
            "",
            "sys.system:5:1: duplicate budget directive",
        ),
        "repeated agent": (
            ["agent a.dali"], "", "sys.system:4:1: duplicate agent name 'A'"
        ),
        "malformed map": (
            ["map A.x B.f"],
            "",
            "sys.system:4:1: expected 'map producer.action -> consumer.event'",
        ),
        "negative tick": (
            ["script s.events"], "0 A e\n-1 A e\n", "s.events:2:1: tick -1 is negative"
        ),
        "script agent name": (
            ["script s.events"],
            "0 A-1 e\n",
            "s.events:1:1: agent and event must be identifiers",
        ),
        "script event name": (
            ["script s.events"],
            "# one\n0 A past(e)\n",
            "s.events:2:1: agent and event must be identifiers",
        ),
    }

    @pytest.mark.parametrize("command", ["run", "repl"])
    @pytest.mark.parametrize("case", CASES)
    def test_exit_3_at_the_line(self, capsys, monkeypatch, tmp_path, command, case):
        lines, events, expected = self.CASES[case]
        monkeypatch.setattr("sys.stdin", io.StringIO("quit\n"))
        (tmp_path / "a.dali").write_text("agent A. @external e. @action x. e :> x.\n")
        (tmp_path / "b.dali").write_text("agent B. @external f. @action y. f :> y.\n")
        (tmp_path / "s.events").write_text(events)
        cfg = tmp_path / "sys.system"
        header = ["# two agents", "agent a.dali", "agent b.dali"]
        cfg.write_text("".join(line + "\n" for line in header + lines))
        assert run_cli(capsys, command, str(cfg)) == (3, "", f"{tmp_path}/{expected}\n")


class TestMapEntries:
    def test_self_targeted_entry_is_exit_3(self, capsys, tmp_path):
        (tmp_path / "p.dali").write_text(
            "agent P. @external back. @action ping. back :> ping.\n"
        )
        cfg = tmp_path / "sys.system"
        cfg.write_text("agent p.dali\nmap P.ping -> P.back\n")
        code, out, err = run_cli(capsys, "run", str(cfg))
        assert code == 3
        assert out == ""
        assert "never receives its own actions" in err


class TestEnvBudget:
    @pytest.mark.parametrize("value", ["abc", "0", "-3", "1.5"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("query", "henry.dali", "happy"),
            ("run", "ping.system"),
            ("repl", "mary.system"),
        ],
    )
    def test_bad_dali_max_steps_is_exit_3(
        self, capsys, monkeypatch, scenario_dir, argv, value
    ):
        monkeypatch.setenv("DALI_MAX_STEPS", value)
        monkeypatch.setattr("sys.stdin", io.StringIO("quit\n"))
        cmd, path, *rest = argv
        code, _, err = run_cli(capsys, cmd, str(scenario_dir / path), *rest)
        assert code == 3
        assert "DALI_MAX_STEPS" in err and value in err

    @pytest.mark.parametrize("spec", ["k=x", "m=", "k=1.5", "k=0", "m=-1"])
    def test_bad_strategy_value_is_exit_3(self, capsys, scenario_dir, spec):
        code, _, err = run_cli(
            capsys, "query", str(scenario_dir / "henry.dali"), "happy", "--strategy", spec
        )
        assert code == 3
        assert f"strategy {spec[0]}" in err

    def test_dali_max_steps_limits_runs(self, capsys, scenario_dir, monkeypatch):
        monkeypatch.setenv("DALI_MAX_STEPS", "1")
        code, out, _ = run_cli(
            capsys, "query", str(scenario_dir / "henry.dali"), "happy"
        )
        assert code == 1  # budget too small to finish the proof
        monkeypatch.setenv("DALI_MAX_STEPS", "500")
        code, out, _ = run_cli(
            capsys, "query", str(scenario_dir / "henry.dali"), "happy"
        )
        assert code == 0


class TestRepl:
    def drive(self, capsys, monkeypatch, scenario_dir, commands):
        monkeypatch.setattr("sys.stdin", io.StringIO(commands))
        return run_cli(capsys, "repl", str(scenario_dir / "mary.system"))

    def test_mary_session(self, capsys, monkeypatch, scenario_dir):
        code, out, _ = self.drive(
            capsys,
            monkeypatch,
            scenario_dir,
            "inject Mary alarm_clock_rings\nstep 20\nstate Mary\nquit\n",
        )
        assert code == 0
        assert "pv: [alarm_clock_rings, my_god_its_late]" in out
        performed = [l for l in out.splitlines() if l.startswith("performed:")]
        assert performed
        assert "switch_it_off" in performed[0] and "stand_up" in performed[0]

    def test_inject_takes_effect_before_next_step(self, capsys, monkeypatch, scenario_dir):
        code, out, _ = self.drive(
            capsys,
            monkeypatch,
            scenario_dir,
            "step 5\ninject Mary alarm_clock_rings\nstate Mary\nstep 20\nstate Mary\nquit\n",
        )
        assert code == 0
        assert "ev: [alarm_clock_rings]" in out

    def test_query_command(self, capsys, monkeypatch, scenario_dir):
        code, out, _ = self.drive(
            capsys,
            monkeypatch,
            scenario_dir,
            "inject Mary alarm_clock_rings\nstep 20\nquery Mary past(my_god_its_late)\nquit\n",
        )
        assert code == 0
        assert "yes." in out

    def test_query_delivers_the_actions_it_performs(
        self, capsys, monkeypatch, tmp_path, scenario_dir
    ):
        (tmp_path / "p.dali").write_text("agent P. @action ping.\n")
        (tmp_path / "consumer.dali").write_text(
            (scenario_dir / "consumer.dali").read_text(encoding="utf-8")
        )
        cfg = tmp_path / "sys.system"
        cfg.write_text("agent p.dali\nagent consumer.dali\n")
        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO("query P ping\nstate Consumer\nstep 5\nstate Consumer\nquit\n"),
        )
        code, out, err = run_cli(capsys, "repl", str(cfg))
        # P declares no external event, so the consumer's log_it is
        # dropped there, and said so once, in `dali run`'s words.
        assert (code, err) == (
            0, "warning: action 'log_it' by Consumer has no external event at P; dropped\n"
        )
        assert out.split("dali> ")[1:] == [
            "yes.\n",
            "ev: [ping]\niv: []\npv: []\nperformed: []\n",
            "advanced 3 step(s); system quiescent\n",
            "ev: []\niv: []\npv: [ping]\nperformed: [log_it]\n",
            "",
        ]

    def test_marked_inject_is_an_error_and_keeps_session_open(
        self, capsys, monkeypatch, scenario_dir
    ):
        code, out, _ = self.drive(
            capsys,
            monkeypatch,
            scenario_dir,
            "inject Mary past(alarm_clock_rings)\nstate Mary\nquit\n",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == (
            "dali> error: inbox event past(alarm_clock_rings) is marked; "
            "give the event name"
        )
        assert "injected" not in out
        assert "dali> ev: []" in lines

    def test_unknown_agent_and_blank_lines_keep_session_open(
        self, capsys, monkeypatch, scenario_dir
    ):
        code, out, err = self.drive(
            capsys, monkeypatch, scenario_dir, "state Marry\nquery Marry p\n\n \t\nquit\n"
        )
        assert (code, err) == (0, "")
        assert out.split("dali> ")[1:] == [
            "unknown agent 'Marry'\n", "unknown agent 'Marry'\n", "", "", ""
        ]

    def test_unknown_command_help(self, capsys, monkeypatch, scenario_dir):
        code, out, _ = self.drive(capsys, monkeypatch, scenario_dir, "wibble\nquit\n")
        assert code == 0
        assert "commands:" in out

    @pytest.mark.parametrize("count", ["x", "0", "-2", "1e3"])
    def test_bad_step_count_keeps_session_open(
        self, capsys, monkeypatch, scenario_dir, count
    ):
        code, out, _ = self.drive(
            capsys, monkeypatch, scenario_dir, f"step {count}\nstep 2\nquit\n"
        )
        assert code == 0
        assert "error: step count must be" in out
        assert "advanced" in out

    def test_step_and_quit_refuse_extra_words(self, capsys, monkeypatch, scenario_dir):
        # `step` takes at most a count and `quit` nothing, as `state`
        # takes one word: a longer command prints the commands line.
        code, out, err = self.drive(
            capsys, monkeypatch, scenario_dir,
            "inject Mary alarm_clock_rings\nstep 3 4\nquit extra\nstate Mary\nquit\n",
        )
        commands = ("commands: inject <agent> <event> | step [n] | "
                    "state <agent> | query <agent> <atom> | quit\n")
        assert (code, err) == (0, "")
        assert out.split("dali> ")[1:] == [
            "injected alarm_clock_rings -> Mary\n",
            commands,
            commands,
            "ev: [alarm_clock_rings]\niv: []\npv: []\nperformed: []\n",
            "",
        ]

    def test_eof_quits(self, capsys, monkeypatch, scenario_dir):
        code, _, _ = self.drive(capsys, monkeypatch, scenario_dir, "")
        assert code == 0


COMMANDS = ["run", "query", "transform", "model", "repl"]


class TestUsage:
    def test_help_and_invalid_choice_list_exactly_the_commands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: dali [-h] {run,query,transform,model,repl} ...\n")
        listed = [line.split()[0] for line in out.splitlines() if line.startswith("    ")]
        assert listed == COMMANDS
        with pytest.raises(SystemExit):
            main(["oracle"])
        err = capsys.readouterr().err
        # argparse quotes each choice on Python 3.11 but not on 3.13.
        forms = [", ".join(quote % c for c in COMMANDS) for quote in ("'%s'", "%s")]
        assert any(f"invalid choice: 'oracle' (choose from {f})\n" in err for f in forms)

    @pytest.mark.parametrize(
        "argv, message",
        [
            ([], "the following arguments are required: command"),
            (["run"], "the following arguments are required: sysconfig"),
            (["run", "X", "--max-ticks", "x"], "argument --max-ticks: invalid int value: 'x'"),
            (["foo"], "argument command: invalid choice: 'foo'"),
            (["model", "a.dali", "--bogus"], "unrecognized arguments: --bogus"),
        ],
    )
    def test_usage_error_exits_3(self, capsys, argv, message):
        # 2 is the exit code of a truncated run, so a usage error is bad input.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: dali")
        assert message in err.splitlines()[-1]
        assert "Traceback" not in err

    def test_subcommand_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: dali run ")


def write_pinned() -> None:
    CLI_DATA.mkdir(parents=True, exist_ok=True)
    for name, command in PINNED:
        code, out, err = pinned_run(name, command)
        assert code == 0, (name, command, err)
        (CLI_DATA / f"{name}.{command}.out").write_text(out, encoding="utf-8")
        if err:
            (CLI_DATA / f"{name}.{command}.err").write_text(err, encoding="utf-8")
    for name in REPL_SESSIONS:
        session = repl_session_input(name)
        code, out, err = pinned_repl(name, session)
        assert code == 0, (name, err)
        (CLI_DATA / f"{name}.repl.in").write_text(session, encoding="utf-8")
        (CLI_DATA / f"{name}.repl.out").write_text(out, encoding="utf-8")
        if err:
            (CLI_DATA / f"{name}.repl.err").write_text(err, encoding="utf-8")
    code, log = relay_transcript()
    assert code == 0, log
    code, out, err = late_run(LATE / "late.trace.jsonl")
    assert code == 2, err
    (LATE / "late.run.out").write_text(out, encoding="utf-8")
    (LATE / "late.run.err").write_text(err, encoding="utf-8")
    (RELAY / "relay.repl.log").write_text(log, encoding="utf-8")
    for name in MALFORMED:
        path = f"tests/data/cli/malformed/{name}.dali"
        code, out, err = pinned_run(name, "model", path)
        assert (code, out) == (3, ""), (name, err)
        (CLI_DATA / "malformed" / f"{name}.model.err").write_text(err, encoding="utf-8")
    for name in MALFORMED_SYSTEMS:
        path = f"tests/data/cli/malformed/{name}.system"
        code, out, err = pinned_run(name, "run", path)
        assert (code, out) == (3, ""), (name, err)
        (CLI_DATA / "malformed" / f"{name}.run.err").write_text(err, encoding="utf-8")


if __name__ == "__main__":
    write_pinned()
