#!/usr/bin/env python3
"""Self-tests of the workload generators at tiny sizes.

    python3 bench/test_generators.py     (or: python3 -m pytest bench)

At full size the benchmark checks the program against the generators'
closed-form answers.  Here, on instances small enough for the
brute-force oracles, those answers are checked against
`exhaustive_interleavings` and `naive_fixpoint`, which share no code
with the engine or with `least_model`; the engine's outcome must be one
the exhaustive search reaches.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from dali.engine import run_agent  # noqa: E402
from dali.model import Atom, validate_program  # noqa: E402
from dali.oracle import exhaustive_interleavings, naive_fixpoint  # noqa: E402
from dali.parser import parse_agent_file  # noqa: E402
from dali.runtime import SystemRunner, evolve_system, load_system_config  # noqa: E402
from dali.semantics import InitialSituation, least_model, transform_program  # noqa: E402

import workloads  # noqa: E402

SEEDS = (1, 2, 3)


class AgentGenerators(unittest.TestCase):
    def check(self, w: workloads.AgentWorkload):
        (text,) = w.files.values()
        program = parse_agent_file(text)
        self.assertTrue(validate_program(program).ok)

        result = run_agent(program, query=w.query, inbox=[(0, e) for e in w.inbox])
        performed = tuple(sorted(result.state.performed_names()))
        pv = frozenset(result.state.pv_names())
        self.assertFalse(result.truncated)
        self.assertEqual(performed, w.performed)
        self.assertEqual(pv, w.pv)

        reach = exhaustive_interleavings(program, inbox=w.inbox, query=w.query)
        self.assertFalse(reach.truncated)
        self.assertTrue(reach.contains(w.performed, w.pv))

        tp = transform_program(program, [Atom(e) for e in w.inbox])
        self.assertEqual(least_model(tp), naive_fixpoint(tp))
        self.assertEqual(naive_fixpoint(tp), w.model)

    def test_event_chain(self):
        for seed in SEEDS:
            with self.subTest(seed=seed):
                self.check(workloads.event_chain(seed, n=3))

    def test_wide_program(self):
        for seed in SEEDS:
            with self.subTest(seed=seed):
                self.check(workloads.wide_program(
                    seed, externals=4, injected=1, internals=1, heads=2, failing=3))


class BroadcastGenerator(unittest.TestCase):
    def setUp(self):
        (HERE / "_work").mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="selftest-", dir=HERE / "_work"))

    def tearDown(self):
        shutil.rmtree(self.dir)

    def test_broadcast_fanout(self):
        for seed in SEEDS:
            with self.subTest(seed=seed):
                w = workloads.broadcast_fanout(seed, consumers=3, mapped=1, kicks=2, span=5)
                for name, text in w.files.items():
                    (self.dir / name).write_text(text)
                config = load_system_config(self.dir / w.system_file)

                runner = SystemRunner(config)
                result = runner.run()
                self.assertTrue(result.quiescent)
                self.assertEqual(len(result.warnings), w.warnings)
                for name, engine in runner.engines.items():
                    self.assertEqual(
                        tuple(sorted(engine.state.performed_names())), w.performed[name])
                    self.assertEqual(frozenset(engine.state.pv_names()), w.pv[name])

                init = {n: [Atom(e) for e in es] for n, es in w.init.items()}
                trace = evolve_system(config, init)
                self.assertTrue(trace.reached_fixpoint)
                self.assertEqual(tuple(r.models for r in trace.rounds), w.rounds)
                for rnd in trace.rounds:
                    for name, program in config.agents.items():
                        units = sorted(rnd.units[name], key=lambda a: (a.marker, a.name))
                        tp = transform_program(program, InitialSituation(tuple(units)))
                        self.assertEqual(naive_fixpoint(tp), rnd.models[name])

                # One kick, seen by each agent alone: the closed-form
                # reaction is one the exhaustive search reaches.
                for name, program in config.agents.items():
                    (event,) = w.pv[name]
                    reach = exhaustive_interleavings(program, inbox=[event])
                    self.assertTrue(reach.contains(w.performed[name][:1], w.pv[name]))


if __name__ == "__main__":
    unittest.main()
