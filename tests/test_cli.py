"""The `dali` command line.

`TestPinnedOutputs` compares `dali transform` and `dali model` on every
`scenarios/*.dali` with the output stored under `tests/data/cli/`.
Regenerate those files (only when a change of behaviour is intended):

    PYTHONPATH=src python tests/test_cli.py
"""

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from dali.cli import main
from dali.engine import TRACE_FIELDS

ROOT = Path(__file__).resolve().parents[1]
CLI_DATA = Path(__file__).resolve().parent / "data" / "cli"
PINNED = [
    (path.stem, command)
    for path in sorted((ROOT / "scenarios").glob("*.dali"))
    for command in ("transform", "model")
]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def pinned_run(name: str, command: str) -> tuple[int, str, str]:
    """`dali COMMAND scenarios/NAME.dali` run from the repository root."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main([command, f"scenarios/{name}.dali"])
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


class TestPinnedOutputs:
    @pytest.mark.parametrize("name,command", PINNED, ids=[f"{c}-{n}" for n, c in PINNED])
    def test_matches_the_stored_output(self, name, command):
        stem = CLI_DATA / f"{name}.{command}"
        err_file = stem.with_name(stem.name + ".err")
        err = err_file.read_text(encoding="utf-8") if err_file.exists() else ""
        out = stem.with_name(stem.name + ".out").read_text(encoding="utf-8")
        assert pinned_run(name, command) == (0, out, err)


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

    def test_truncated_run_exits_two(self, capsys, tmp_path):
        (tmp_path / "a.dali").write_text("agent A. @external e. @action x. e :> x.\n")
        (tmp_path / "s.events").write_text("0 A e\n9 A e\n")
        cfg = tmp_path / "sys.system"
        cfg.write_text("agent a.dali\nscript s.events\nmax_ticks 3\n")
        code, _, _ = run_cli(capsys, "run", str(cfg))
        assert code == 2

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

    def test_eof_quits(self, capsys, monkeypatch, scenario_dir):
        code, _, _ = self.drive(capsys, monkeypatch, scenario_dir, "")
        assert code == 0


class TestHiddenOracle:
    def test_not_in_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        assert "oracle" not in out

    def test_prints_reachable_outcomes(self, capsys, scenario_dir):
        code, out, err = run_cli(
            capsys,
            "oracle",
            str(scenario_dir / "danger.dali"),
            "--events",
            "danger",
        )
        assert code == 0
        assert "actions=[call_police] pv=[danger]" in out
        assert "actions=[scream] pv=[danger]" in out
        assert "truncated=False" in err

    def test_marked_query_is_parsed(self, capsys, scenario_dir):
        code, out, err = run_cli(
            capsys, "oracle", str(scenario_dir / "anne.dali"), "--query", "past(go_by_car)"
        )
        assert code == 0
        assert out.splitlines()[0] == "actions=[] pv=[]"
        assert "truncated=False" in err

    @pytest.mark.parametrize(
        "args,message",
        [
            (["--query", "go out"], "bad atom 'go out': expected x, past(x) or now(x)"),
            (["--query", "past(x"], "bad atom 'past(x': expected x, past(x) or now(x)"),
            (["--events", "zzz"], "'zzz' is not a declared external event of agent Anne"),
            (["--events", "go_by_car"],
             "'go_by_car' is not a declared external event of agent Anne"),
            (["--events", "past(invitation)"],
             "inbox event past(invitation) is marked; give the event name"),
            (["--events", "invitation,now(invitation)"],
             "inbox event now(invitation) is marked; give the event name"),
            (["--events", "in vitation"], "bad event name"),
            (["--max-states", "0"], "--max-states must be >= 1, got 0"),
            (["--max-states", "-3"], "--max-states must be >= 1, got -3"),
        ],
    )
    def test_bad_input_exits_3(self, capsys, scenario_dir, args, message):
        code, out, err = run_cli(capsys, "oracle", str(scenario_dir / "anne.dali"), *args)
        assert (code, out) == (3, "")
        assert message in err
        assert "Traceback" not in err

    def test_one_state_truncates(self, capsys, scenario_dir):
        code, _, err = run_cli(
            capsys, "oracle", str(scenario_dir / "anne.dali"),
            "--events", "invitation", "--max-states", "1",
        )
        assert code == 2
        assert "explored=1 truncated=True" in err


def write_pinned() -> None:
    CLI_DATA.mkdir(parents=True, exist_ok=True)
    for name, command in PINNED:
        code, out, err = pinned_run(name, command)
        assert code == 0, (name, command, err)
        (CLI_DATA / f"{name}.{command}.out").write_text(out, encoding="utf-8")
        if err:
            (CLI_DATA / f"{name}.{command}.err").write_text(err, encoding="utf-8")


if __name__ == "__main__":
    write_pinned()
