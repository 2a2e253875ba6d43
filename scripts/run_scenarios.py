#!/usr/bin/env python3
"""Run the bundled narrative scenarios and show what each agent did.

For every scenario this prints the interpreter trace, the final state,
the snapshot model for the same initial events, and the outcomes the
exhaustive search considers reachable under any interleaving.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from dali import load_agent_file, run_agent, snapshot
from dali.model import Atom
from dali.oracle import exhaustive_interleavings

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

RUNS = [
    ("danger", ["danger"]),
    ("henry", []),
    ("anne", ["invitation"]),
    ("mary", ["alarm_clock_rings"]),
    ("george", ["girlfriend_call"]),
]


def main() -> int:
    for name, inbox in RUNS:
        program = load_agent_file(SCENARIOS / f"{name}.dali")
        result = run_agent(program, inbox=[(0, e) for e in inbox])
        print(f"=== {program.name} (inbox: {', '.join(inbox) or 'none'}) ===")
        for rec in result.records:
            performed = f"  performs {rec.performed}" if rec.performed else ""
            goal = " ".join(rec.goal) or "[]"
            print(f"  {rec.step:>3} case {rec.case:<3} {rec.selected:<24} -> {goal}{performed}")
        state = result.state
        print(f"  performed: {list(state.performed_names())}")
        print(f"  past events: {list(state.pv_names())}")

        model = snapshot(program, [Atom(e) for e in inbox])
        print(f"  snapshot model: {sorted(model)}")

        reach = exhaustive_interleavings(program, inbox=inbox)
        sets = sorted(reach.action_multisets)
        print(f"  reachable action multisets ({reach.explored} states): {sets}")
        member = reach.contains(state.performed_names(), state.pv)
        print(f"  default strategy outcome reachable: {member}")
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
