#!/usr/bin/env python3
"""Compare the benchmark results of two commits.

    python3 bench/compare.py BASE.jsonl CHANGE.jsonl

Both files are written by `series.py`.  Runs are paired by workload and
seed.  For each workload the report gives both sides' operations
attempted and failed, then one line per end-to-end metric: each side's
median and quartiles over its runs, the ratio of the change's median to
the base's (with the base), the seed pairs the change won, and a
verdict:

  unresolved    a side's spread (quartile distance over median) is
                wider than the metric's bound, and not every run of the
                change is better than every run of the base;
  worse         the change's median is worse by more than the bound;
  better        the change's median is better by more than the bound,
                or the change won at least 90% of the seed pairs and its
                median is better by more than the base's own spread;
  within bound  otherwise.

The host's speed drifts over minutes, so run the two series alternately
in short stretches of seeds (see README.md) rather than one after the
other; otherwise the drift counts toward the change.
"""

from __future__ import annotations

import argparse
import json

from series import ROOT, load_results, quartiles

PAIR_WINS = 0.9


def verdict(base: dict[int, float], change: dict[int, float],
            bound: float, higher: bool) -> tuple[str, str]:
    """(verdict, seed pairs won) of the change against the base."""
    sign = 1 if higher else -1
    seeds = base.keys() & change.keys()
    wins = sum(sign * (change[s] - base[s]) > 0 for s in seeds)
    won = f"{wins}/{len(seeds)}"
    b1, bm, b3 = quartiles(list(base.values()))
    c1, cm, c3 = quartiles(list(change.values()))
    base_spread = (b3 - b1) / bm
    if max(base_spread, (c3 - c1) / cm) > bound:
        all_better = min(sign * v for v in change.values()) > max(
            sign * v for v in base.values())
        return ("better" if all_better else "unresolved"), won
    gain = sign * (cm - bm) / bm
    if gain < -bound:
        return "worse", won
    if gain > bound or (seeds and wins >= PAIR_WINS * len(seeds)
                        and gain > base_spread):
        return "better", won
    return "within bound", won


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("change")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    base, change = load_results(args.base), load_results(args.change)
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in base or workload not in change:
            print(f"{workload}: missing from {'base' if workload not in base else 'change'}")
            continue
        sides = []
        for label, runs in (("base", base[workload]), ("change", change[workload])):
            attempted = sum(r["attempted"] for r in runs.values())
            failed = sum(r["failed"] for r in runs.values())
            sides.append(f"{label} {len(runs)} runs, {failed}/{attempted} failed")
        print(f"{workload}: {'; '.join(sides)}")
        for m in spec["end_to_end"]:
            name = m["name"]
            a = {s: r["metrics"][name]["value"] for s, r in base[workload].items()}
            b = {s: r["metrics"][name]["value"] for s, r in change[workload].items()}
            a1, am, a3 = quartiles(list(a.values()))
            b1, bm, b3 = quartiles(list(b.values()))
            says, won = verdict(a, b, m["bound"], m["better"] == "higher")
            print(f"  {name:<12} base {am:.4g} [{a1:.4g}, {a3:.4g}]  "
                  f"change {bm:.4g} [{b1:.4g}, {b3:.4g}] {m['unit']}  "
                  f"ratio {bm / am:.3f} of {am:.4g}  won {won}  "
                  f"{says} (bound {m['bound']})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
