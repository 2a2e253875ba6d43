"""Command-line front end.

    dali run <sysconfig> [--trace FILE] [--max-ticks N]
    dali query <agent.dali> <atom> [--strategy k=K,m=M]
    dali transform <agent.dali> [--init e1,e2,past(e3)]
    dali model <agent.dali> [--init ...]
    dali repl <sysconfig>

Exit codes: 0 success/quiescence, 1 failed query (also when the step
budget runs out before the proof ends), 2 truncated `run`, 3 parse,
validation or usage error.  Results go to stdout, diagnostics to
stderr.  DALI_MAX_STEPS overrides the per-agent step budget.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from dataclasses import replace

from .engine import ACTIVE, MAX_STEPS, SUCCEEDED, Strategy, run_agent
from .errors import DaliError, DaliValidationError
from .model import validate_program
from .parser import load_agent_file, parse_init_atoms, parse_int
from .runtime import SystemRunner, load_system_config
from .semantics import render_transformed, snapshot, transform_program

EXIT_OK = 0
EXIT_QUERY_FAILED = 1
EXIT_TRUNCATED = 2
EXIT_BAD_INPUT = 3


def _load_validated(path):
    program = load_agent_file(path)
    report = validate_program(program)
    if not report.ok:
        raise DaliValidationError(program.name, report, path)
    for w in report.warnings:
        print(f"{path}: warning: {w}", file=sys.stderr)
    return program


def _warn(warnings) -> None:
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)


def _env_max_steps(default: int) -> int:
    """The DALI_MAX_STEPS step budget, or `default` when it is unset."""
    text = os.environ.get("DALI_MAX_STEPS")
    return parse_int(text, "DALI_MAX_STEPS", 1, None) if text else default


def _strategy(spec: str | None) -> Strategy:
    kwargs = {}
    if spec:
        for part in spec.split(","):
            key, _, value = part.partition("=")
            key = key.strip()
            if key == "k":
                kwargs["event_check_period"] = parse_int(value, "strategy k", 1, None)
            elif key == "m":
                kwargs["internal_check_period"] = parse_int(value, "strategy m", 1, None)
            else:
                raise DaliError(f"unknown strategy field {key!r} (use k=..,m=..)")
    return Strategy(**kwargs)


def _open_trace(path):
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise DaliError(f"cannot write trace file {path}: {exc.strerror}") from None


def cmd_run(args) -> int:
    config = load_system_config(args.sysconfig)
    max_ticks = config.max_ticks if args.max_ticks is None else args.max_ticks
    if max_ticks < 0:
        raise DaliError(f"--max-ticks must be >= 0, got {max_ticks}")
    runner = SystemRunner(
        replace(config, max_ticks=max_ticks, budget=_env_max_steps(config.budget))
    )
    # Open the trace file before the run, so a bad path fails at once.
    with _open_trace(args.trace) if args.trace else nullcontext() as fh:
        result = runner.run()
        _warn(result.warnings)
        if fh is not None:
            for agent, rec in result.trace:
                fh.write(json.dumps(rec.trace_dict(agent), separators=(",", ":")))
                fh.write("\n")
    for name, engine in runner.engines.items():
        st = engine.state
        print(
            f"{name}: steps={engine.steps_taken} "
            f"performed=[{', '.join(st.performed_names())}] "
            f"pv=[{', '.join(st.pv_names())}]"
        )
    return EXIT_OK if result.quiescent else EXIT_TRUNCATED


def cmd_query(args) -> int:
    program = _load_validated(args.agent)
    result = run_agent(
        program,
        query=args.atom,
        strategy=_strategy(args.strategy),
        max_steps=_env_max_steps(MAX_STEPS),
    )
    print("yes." if result.query_succeeded else "no.")
    return EXIT_OK if result.query_succeeded else EXIT_QUERY_FAILED


def cmd_transform(args) -> int:
    program = _load_validated(args.agent)
    init = parse_init_atoms(args.init) if args.init else ()
    sys.stdout.write(render_transformed(transform_program(program, init)))
    return EXIT_OK


def cmd_model(args) -> int:
    program = _load_validated(args.agent)
    init = parse_init_atoms(args.init) if args.init else ()
    for atom in sorted(snapshot(program, init)):
        print(atom)
    return EXIT_OK


def cmd_repl(args) -> int:
    config = load_system_config(args.sysconfig)
    budget = _env_max_steps(1000)
    runner = SystemRunner(config)
    warned = 0  # the warnings printed so far; the log only grows at its end
    print(f"agents: {', '.join(runner.engines)}  (inject/step/state/query/quit)")
    while True:
        try:
            sys.stdout.write("dali> ")
            sys.stdout.flush()
            line = sys.stdin.readline()
        except KeyboardInterrupt:
            print()
            return EXIT_OK
        if not line:
            return EXIT_OK
        words = line.split()
        if not words:
            continue
        cmd, rest = words[0], words[1:]
        try:
            if cmd == "quit" and not rest:
                return EXIT_OK
            elif cmd == "inject" and len(rest) == 2:
                runner.inject(rest[0], rest[1])
                print(f"injected {rest[1]} -> {rest[0]}")
            elif cmd == "step" and len(rest) <= 1:
                n = parse_int(rest[0], "step count", 1, None) if rest else 1
                done = 0
                while done < n and runner.micro_step() is not None:
                    done += 1
                suffix = "; system quiescent" if done < n else ""
                print(f"advanced {done} step(s){suffix}")
            elif ((cmd, len(rest)) in (("state", 1), ("query", 2))
                  and rest[0] not in runner.engines):
                print(f"unknown agent '{rest[0]}'")
            elif cmd == "state" and len(rest) == 1:
                st = runner.engines[rest[0]].state
                print(f"ev: [{', '.join(st.ev)}]")
                print(f"iv: [{', '.join(st.iv)}]")
                print(f"pv: [{', '.join(st.pv_names())}]")
                print(f"performed: [{', '.join(st.performed_names())}]")
            elif cmd == "query" and len(rest) == 2:
                engine = runner.engines[rest[0]]
                comp = engine.components[engine.add_query(rest[1])]
                for _ in range(budget):
                    if comp.status != ACTIVE or runner.step_agent(rest[0]) is None:
                        break
                print("yes." if comp.status == SUCCEEDED else "no.")
            else:
                print("commands: inject <agent> <event> | step [n] | "
                      "state <agent> | query <agent> <atom> | quit")
        except DaliError as exc:
            print(f"error: {exc}")
        warnings = runner.warnings()
        _warn(warnings[warned:])
        warned = len(warnings)


class _ArgumentParser(argparse.ArgumentParser):
    """Exits 3 on a usage error, where argparse exits 2 (a truncated run)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_BAD_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="dali", description="Active Horn-clause agent interpreter"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run a multi-agent system to quiescence")
    p.add_argument("sysconfig")
    p.add_argument("--trace", help="write a line-delimited JSON trace here")
    p.add_argument("--max-ticks", type=int, default=None)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("query", help="ask whether an atom is provable")
    p.add_argument("agent")
    p.add_argument("atom")
    p.add_argument("--strategy", help="k=K,m=M scheduling periods")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("transform", help="print the plain Horn program P'")
    p.add_argument("agent")
    p.add_argument("--init", help="comma-separated initial events")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("model", help="print the snapshot model, one atom per line")
    p.add_argument("agent")
    p.add_argument("--init", help="comma-separated initial events")
    p.set_defaults(func=cmd_model)

    p = sub.add_parser("repl", help="interactive session over a system config")
    p.add_argument("sysconfig")
    p.set_defaults(func=cmd_repl)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DaliValidationError as exc:
        where = exc.path or f"agent {exc.agent}"
        for issue in exc.report.errors:
            at = issue.clause_index
            clause = "" if at is None else f" (clause {at})"
            print(f"{where}: {issue.message}{clause}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except DaliError as exc:
        print(exc, file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
