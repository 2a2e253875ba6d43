#!/usr/bin/env python3
"""Benchmark dali end to end and layer by layer on one generated workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; `src/dali` is imported from
there.  The workload (see `workloads.py`) is generated from the seed into
a scratch directory under `bench/_work/`, then driven through the public
API the way `dali run`, `dali query` and `dali model` drive it, in whole
passes, until S seconds have gone by.  Every pass checks the outputs
against the generator's closed-form answers and checks the properties
listed in `CHECKS`; each check is one operation, and a violated check is
a failed one.

With `--trace 0` the last line of stdout is a JSON object with the
end-to-end metrics named in BENCHMARK.json.  With `--trace 1` passes
alternate between untraced and traced, and it carries the per-layer
metrics instead, those of the traced pass with the median `run_s`;
the spans of the last traced pass go to `bench/_out/`.  Every time and
rate is scaled to the speed of a reference host with `reference_loop`,
timed right before each sample (see REF_LOOP_S), and a run reports the
median of its scaled samples.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# Large enough that no workload is cut short; a truncated run fails the
# outputs check.
MAX_STEPS = 10_000_000
CASES = ("i", "ii", "iii", "iv", "v", "vi")
CHECKS = ("outputs", "snapshot", "agreement", "conservation", "determinism")

# The host's speed: `reference_loop` is timed right before every sample,
# and the sample is scaled by REF_LOOP_S / (that time).  REF_LOOP_S is the
# loop's fastest time on the machine of the README's figures.  The host
# slows everything by up to 2x in stretches of 0.25 s and more, so a
# sample and the loop timed next to it are mostly slowed alike.
REF_LOOP_S = 0.0022


class _Pair:
    __slots__ = ("n", "key")

    def __init__(self, n, key):
        self.n = n
        self.key = key


def reference_loop(n: int = 3_000) -> int:
    """Fixed pure-Python work that uses no dali code: objects, a dict,
    a list of tuples and a scan of it."""
    counts: dict[str, int] = {}
    pairs = []
    for i in range(n):
        key = f"k{i % 257}"
        p = _Pair(i, key)
        counts[key] = counts.get(key, 0) + p.n
        pairs.append((p.key, i & 7))
    total = 0
    for key, low in pairs:
        if low and key in counts:
            total += counts[key] & 15
    return total


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


def at_ref(seconds: float, ref: float) -> float:
    """A time taken next to a reference loop that took `ref` seconds,
    scaled to the reference host."""
    return seconds * REF_LOOP_S / ref


def _import_dali():
    if not (SRC / "dali" / "__init__.py").is_file():
        sys.exit(f"bench: no dali sources at {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))


_import_dali()

import dali.engine as engine  # noqa: E402
import dali.model as model  # noqa: E402
import dali.parser as parser  # noqa: E402
import dali.runtime as runtime  # noqa: E402
import dali.semantics as semantics  # noqa: E402
from dali.engine import INTERNAL_ATTEMPT, SUCCEEDED, FAILED  # noqa: E402
from dali.errors import DaliValidationError  # noqa: E402
from dali.model import Atom  # noqa: E402

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


@dataclass
class Pass:
    """Timings, counts and check results of one pass over a workload."""

    setup_s: float
    run_s: float
    snapshot_s: float
    steps: int
    components: int
    failed_components: int
    attempts: int
    attempts_ok: int
    coalesced: int
    records_mb: float
    warnings: int = 0
    rounds: int = 0
    violations: list[str] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)  # traced passes
    ref: float = REF_LOOP_S  # reference_loop time right before the pass

    @property
    def run_at_ref(self) -> float:
        return at_ref(self.run_s, self.ref)


def _records_mb(records) -> float:
    """Bytes held by step records: each record and the tuples it owns."""
    size = 0
    for rec in records:
        size += sys.getsizeof(rec)
        for name in ("goal", "ev", "iv", "pv", "ev_added", "ev_removed",
                     "iv_added", "iv_removed", "pv_added"):
            size += sys.getsizeof(getattr(rec, name))
    return size / 2**20


def _outcome_counts(outcomes) -> tuple[int, int, int, int]:
    """Components, failed components, self-triggered attempts, and
    attempts that succeeded."""
    failed = sum(o.status == FAILED for o in outcomes)
    attempts = [o for o in outcomes if o.origin == INTERNAL_ATTEMPT]
    ok = sum(o.status == SUCCEEDED for o in attempts)
    return len(outcomes), failed, len(attempts), ok


def setup_agent(w, workdir):
    """What `dali query` and `dali model` do before running anything."""
    program = parser.load_agent_file(workdir / w.agent_file)
    report = model.validate_program(program)
    if not report.ok:
        raise DaliValidationError(program.name, report)
    return program


def setup_system(w, workdir):
    config = runtime.load_system_config(workdir / w.system_file)
    return config, runtime.SystemRunner(config)


def snapshot_agent(w, program):
    """What `dali model --init` computes."""
    tp = semantics.transform_program(program, [Atom(e) for e in w.inbox])
    return semantics.least_model(tp)


def snapshot_system(w, loaded):
    config, _ = loaded
    init = {name: [Atom(e) for e in events] for name, events in w.init.items()}
    return runtime.evolve_system(config, init)


def agent_pass(w: workloads.AgentWorkload, workdir: Path) -> Pass:
    gc.collect()
    ref = time_reference()
    t0 = time.perf_counter()
    program = setup_agent(w, workdir)
    t1 = time.perf_counter()
    result = engine.run_agent(
        program,
        query=w.query,
        inbox=[(0, e) for e in w.inbox],
        max_steps=MAX_STEPS,
    )
    t2 = time.perf_counter()
    snap = snapshot_agent(w, program)
    t3 = time.perf_counter()

    st = result.state
    p = Pass(t1 - t0, t2 - t1, t3 - t2, len(result.records),
             *_outcome_counts(result.outcomes),
             coalesced=sum(st.coalesced.values()),
             records_mb=_records_mb(result.records), ref=ref)
    performed = tuple(sorted(st.performed_names()))
    pv = frozenset(st.pv_names())
    if (result.truncated or performed != w.performed or pv != w.pv
            or result.query_succeeded != (True if w.query else None)):
        p.violations.append("outputs")
    if snap != w.model:
        p.violations.append("snapshot")
    # The engine and the snapshot agree: an action is performed exactly
    # when the model derives it, and every event reacted to holds in it.
    if set(performed) != snap & program.action_names or not pv <= snap:
        p.violations.append("agreement")
    joined = sum(rec.case == "iv" for rec in result.records)
    if len(w.inbox) != joined + len(st.ev) + p.coalesced:
        p.violations.append("conservation")
    return p


def system_pass(w: workloads.SystemWorkload, workdir: Path) -> Pass:
    gc.collect()
    ref = time_reference()
    t0 = time.perf_counter()
    config, runner = setup_system(w, workdir)
    t1 = time.perf_counter()
    result = runner.run()
    t2 = time.perf_counter()
    evolution = snapshot_system(w, (config, runner))
    t3 = time.perf_counter()

    engines = runner.engines
    records = [rec for _, rec in result.trace]
    counts = [_outcome_counts(e.component_outcomes()) for e in engines.values()]
    p = Pass(t1 - t0, t2 - t1, t3 - t2, len(records),
             *(sum(c[i] for c in counts) for i in range(4)),
             coalesced=sum(sum(e.state.coalesced.values()) for e in engines.values()),
             records_mb=_records_mb(records),
             warnings=len(result.warnings),
             rounds=len(evolution.rounds), ref=ref)
    if (not result.quiescent or len(result.warnings) != w.warnings
            or any(tuple(sorted(e.state.performed_names())) != w.performed[n]
                   or frozenset(e.state.pv_names()) != w.pv[n]
                   for n, e in engines.items())):
        p.violations.append("outputs")
    if (not evolution.reached_fixpoint
            or tuple(r.models for r in evolution.rounds) != w.rounds):
        p.violations.append("snapshot")
    # Every action performed in the tick loop is derived by some round
    # of the evolution.
    derived = {n: frozenset().union(*(r.models[n] for r in evolution.rounds))
               for n in engines}
    if any(a not in derived[n]
           for n, e in engines.items() for a in e.state.performed_names()):
        p.violations.append("agreement")
    for name, e in engines.items():
        joined = sum(rec.case == "iv" for rec in e.records)
        pending = len(e.state.ev) + sum(e.state.coalesced.values())
        if w.injected[name] != joined + pending:
            p.violations.append("conservation")
            break
    return p


@dataclass
class Run:
    # Set-up and snapshot alone, repeated before the passes, already
    # scaled to the reference host.
    setups: list[float]
    snapshots: list[float]
    plain: list[Pass]
    traced: list[Pass]
    tracer: Tracer | None


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Run:
    w = workloads.GENERATORS[name](seed)
    if isinstance(w, workloads.SystemWorkload):
        setup, snapshot, one_pass = setup_system, snapshot_system, system_pass
    else:
        setup, snapshot, one_pass = setup_agent, snapshot_agent, agent_pass

    (HERE / "_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=HERE / "_work"))
    try:
        for fname, text in w.files.items():
            (workdir / fname).write_text(text, encoding="utf-8")

        start = time.perf_counter()
        run = Run([], [], [], [], Tracer() if trace else None)
        # Set-up and snapshot alone, repeated, so that their figures rest
        # on more samples than the passes alone give.
        while len(run.setups) < 3 or time.perf_counter() < start + 0.15 * seconds:
            gc.collect()
            ref = time_reference()
            t0 = time.perf_counter()
            loaded = setup(w, workdir)
            t1 = time.perf_counter()
            snapshot(w, loaded)
            run.setups.append(at_ref(t1 - t0, ref))
            run.snapshots.append(at_ref(time.perf_counter() - t1, ref))

        while True:
            if trace and len(run.traced) < len(run.plain):
                run.tracer.reset()
                with run.tracer.installed():
                    p = one_pass(w, workdir)
                p.layers = layer_metrics(run.tracer, p)
                run.traced.append(p)
            else:
                p = one_pass(w, workdir)
                run.plain.append(p)
            first = (run.plain[0].steps, run.plain[0].components)
            if (p.steps, p.components) != first:
                p.violations.append("determinism")
            paired = not trace or len(run.traced) == len(run.plain)
            if paired and time.perf_counter() >= start + seconds:
                return run
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def layer_metrics(t: Tracer, p: Pass) -> dict[str, float]:
    """Per-layer figures of one traced pass."""
    steps = [s for s in t.spans if s[0] == "engine.step" and s[4] is not None]
    durs = [s[2] - s[1] for s in steps]
    parse_s = t.total("parser.parse")
    m = {
        "parser.parse_s": parse_s,
        "parser.clauses_per_s": sum(t.notes("parser.parse")) / parse_s,
        "model.validate_s": t.total("model.validate"),
        "semantics.transform_s": t.total("semantics.transform"),
        "semantics.least_model_s": t.total("semantics.least_model"),
        "semantics.transformed_clauses": sum(t.notes("semantics.transform")),
        "semantics.model_atoms": sum(t.notes("semantics.least_model")),
        "semantics.evolve_rounds": p.rounds,
    }
    for case in CASES:
        m[f"engine.steps.{case}"] = sum(s[4] == case for s in steps)
    for case in CASES:
        m[f"engine.step_s.{case}"] = sum(d for s, d in zip(steps, durs) if s[4] == case)
    tenth = len(durs) // 10
    m.update({
        "engine.step_us_p50": statistics.median(durs) * 1e6,
        "engine.step_us_p99": statistics.quantiles(durs, n=100)[98] * 1e6,
        "engine.step_growth": sum(durs[-tenth:]) / sum(durs[:tenth]),
        "engine.components": p.components,
        "engine.components_failed": p.failed_components,
        "engine.coalesced": p.coalesced,
        # 1.0 where no attempt was made: none was wasted.
        "engine.attempt_yield": p.attempts_ok / p.attempts if p.attempts else 1.0,
        "engine.records_mb": p.records_mb,
        "runtime.self_s": t.self_total("runtime.tick"),
        "runtime.tick_s": t.total("runtime.tick"),
        "runtime.deliveries": t.deliveries,
        "runtime.warnings": p.warnings,
        "runtime.evolve_self_s": t.self_total("runtime.evolve"),
    })
    return m


def _scaled(value: float, unit: str, speed: float) -> float:
    """A figure at the reference host's speed: times scale with `speed`,
    rates against it, and counts, ratios and sizes not at all."""
    if unit in ("s", "us"):
        return value * speed
    if unit.endswith("/s"):
        return value / speed
    return value


def _median_pass(passes: list[Pass]) -> Pass:
    return sorted(passes, key=lambda p: p.run_at_ref)[(len(passes) - 1) // 2]


def report(name: str, seed: int, run: Run, trace: bool) -> dict:
    passes = run.plain + run.traced
    attempted = len(CHECKS) * len(passes)
    failed = sum(len(p.violations) for p in passes)
    for i, p in enumerate(passes):
        for v in p.violations:
            print(f"bench: {name} seed {seed} pass {i}: {v} check failed", file=sys.stderr)
    # Names, units and order come from BENCHMARK.json; a metric listed
    # there and not measured here is an error.
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = spec["per_layer" if trace else "end_to_end"]
    refs = [p.ref for p in passes]
    print(f"bench: {name} seed {seed}: reference loop {min(refs) * 1e3:.2f}–"
          f"{max(refs) * 1e3:.2f} ms, median {statistics.median(refs) * 1e3:.2f} ms",
          file=sys.stderr)
    if trace:
        # The same estimator as the end-to-end times: the median pass,
        # scaled by its own reference loop.
        p = _median_pass(run.traced)
        units = {m["name"]: m["unit"] for m in listed}
        metrics = {k: _scaled(v, units[k], REF_LOOP_S / p.ref) for k, v in p.layers.items()}
        overhead = (statistics.median(p.run_at_ref for p in run.traced)
                    / statistics.median(p.run_at_ref for p in run.plain) - 1) * 100
        metrics["trace.overhead_pct"] = overhead
    else:
        # A run's figure for a time is the median of its samples, each
        # scaled by the reference loop timed right before it.
        run_s = statistics.median(p.run_at_ref for p in run.plain)
        metrics = {
            "setup_s": statistics.median(
                run.setups + [at_ref(p.setup_s, p.ref) for p in run.plain]),
            "run_s": run_s,
            # Every pass takes the same number of steps (the determinism
            # check).
            "steps_per_s": run.plain[0].steps / run_s,
            "snapshot_s": statistics.median(
                run.snapshots + [at_ref(p.snapshot_s, p.ref) for p in run.plain]),
            "peak_mem_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.trace:
        out = HERE / "_out"
        out.mkdir(exist_ok=True)
        run.tracer.write(out / f"spans-{args.workload}-{args.seed}.jsonl")
    print(json.dumps(report(args.workload, args.seed, run, bool(args.trace))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
