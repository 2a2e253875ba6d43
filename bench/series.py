#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise the spread.

    python3 bench/series.py --out FILE [--workload NAME ...] [--seeds 1-10]

Each run is a fresh, untraced `bench/run.py` process of `run_seconds`
from BENCHMARK.json, one after another.  Every result is appended to
FILE as one JSON line (`workload`, `seed`, `result`); `compare.py`
reads two such files.  A seed run again replaces the earlier result of
that workload and seed.  For each workload and metric the summary gives
the median, the quartiles and the spread, the distance between the
quartiles as a share of the median, next to the metric's bound from
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(spec: str) -> list[int]:
    seeds: list[int] = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as the benchmark's
    acceptance rule takes them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def load_results(path) -> dict[str, dict[int, dict]]:
    """workload -> seed -> result, from a file of JSON lines."""
    out: dict[str, dict[int, dict]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                out.setdefault(rec["workload"], {})[rec["seed"]] = rec["result"]
    return out


def summarise(results: dict[str, dict[int, dict]], spec: dict) -> None:
    limits = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload, by_seed in results.items():
        runs = list(by_seed.values())
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"{workload}: {len(runs)} runs, {failed}/{attempted} operations failed")
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            bound = limits.get(metric)
            note = f"  bound {bound:.2f}" if bound is not None else ""
            print(f"  {metric:<32} median {med:12.5g}  q1 {q1:12.5g}  "
                  f"q3 {q3:12.5g}  spread {spread:6.3f}{note}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, help="append results here")
    ap.add_argument("--workload", action="append",
                    help="repeatable; default: every workload in BENCHMARK.json")
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = args.workload or [w["name"] for w in spec["workloads"]]
    results: dict[str, dict[int, dict]] = {}
    for name in names:
        for seed in parse_seeds(args.seeds):
            cmd = spec["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                print(f"{name} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            results.setdefault(name, {})[seed] = result
            with open(args.out, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"workload": name, "seed": seed,
                                     "result": result}) + "\n")
            print(f"{name} seed {seed}: done", file=sys.stderr)
    summarise(results, spec)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
