#!/usr/bin/env python3
"""Run alternating parent/change pairs of the benchmark on one or more workloads.

    python3 scripts/ab_pairs.py --parent ../parent --change . \\
        --workload oracle multiplicity --seeds 2001-2010 --seconds 25 \\
        --json BENCH_name.json

Each seed is one pair: ``perfbench/run.py --trace 0`` runs once from each
checkout, each in its own process and from its own directory, so each side
times its own ``src/``.  The side that goes first alternates from pair to
pair, so a drift of the host's speed does not favour one side.  Per pair it
prints ``instances_per_s``, ``instance_ms_p50``, ``instance_ms_p90``,
``peak_rss_mb`` and ``setup_s`` of both sides; at the end of each workload,
for each metric, the pairs the change wins, the median of each side, and the
parent's quartiles and their distance.  With ``--json`` the same record is
written to a file: the seeds, run length and CPU count, and per workload the
per-pair values and the summary.  A run that exits nonzero or reports a
failed instance stops the script.  It only reads the checkouts;
``perfbench/`` is run, not imported.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

#: (metric, better) in the order printed
METRICS = (
    ("instances_per_s", "higher"),
    ("instance_ms_p50", "lower"),
    ("instance_ms_p90", "lower"),
    ("peak_rss_mb", "lower"),
    ("setup_s", "lower"),
)


def seed_range(text: str) -> list[int]:
    """``A-B`` (inclusive) or a single seed ``A``."""
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_side(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The end-to-end metrics of one benchmark run from ``checkout``."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{checkout}: seed {seed} exited {done.returncode}\n{done.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{checkout}: seed {seed}: {result['failed']} of {result['attempted']} instances failed")
    return {name: result["metrics"][name]["value"] for name, _ in METRICS}


def summarize(parent: list[dict], change: list[dict]) -> dict:
    """Per metric: the pairs the change wins, each side's median and the parent's quartiles."""
    summary = {}
    for name, better in METRICS:
        p_vals, c_vals = [r[name] for r in parent], [r[name] for r in change]
        wins = sum((c > p) if better == "higher" else (c < p) for p, c in zip(p_vals, c_vals))
        q1, _, q3 = statistics.quantiles(p_vals, n=4, method="inclusive") if len(p_vals) > 1 else p_vals * 3
        summary[name] = {
            "better": better,
            "wins": wins,
            "median_parent": statistics.median(p_vals),
            "median_change": statistics.median(c_vals),
            "parent_q1": q1,
            "parent_q3": q3,
        }
    return summary


def run_pairs(sides: dict, workload: str, seeds: list[int], seconds: float) -> dict:
    """The pairs of one workload, printed as they finish, and their summary."""
    pairs = []
    header = "  ".join(f"{name:>27s}" for name, _ in METRICS)
    print(f"{'seed':>6s} {'first':>6s}  {header}   (parent -> change)", flush=True)
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_side(sides[side], workload, seed, seconds)
        pairs.append(pair)
        cells = "  ".join(
            f"{pair['parent'][name]:>12.4g} -> {pair['change'][name]:<12.4g}" for name, _ in METRICS
        )
        print(f"{seed:>6d} {order[0]:>6s}  {cells}", flush=True)

    summary = summarize([p["parent"] for p in pairs], [p["change"] for p in pairs])
    print(f"\n{workload}, {len(pairs)} pairs, {seconds:g} s per run")
    for name, m in summary.items():
        mp, mc, q1, q3 = m["median_parent"], m["median_change"], m["parent_q1"], m["parent_q3"]
        print(
            f"  {name:16s} change wins {m['wins']}/{len(pairs)} ({m['better']} is better); "
            f"median {mp:.4g} -> {mc:.4g} ({mc / mp:.3f}x); parent quartiles "
            f"{q1:.4g}-{q3:.4g} (distance {q3 - q1:.3g}, median shift {abs(mc - mp):.3g})"
        )
    return {"pairs": pairs, "summary": summary}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", nargs="+", required=True, help="workloads of perfbench/run.py, run in turn")
    parser.add_argument("--seeds", type=seed_range, required=True, help="A-B, one pair per seed")
    parser.add_argument("--seconds", type=float, default=25.0, help="--seconds of each run")
    parser.add_argument("--json", type=Path, help="also write the pairs and summaries to this file")
    args = parser.parse_args()

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    record = {"seeds": args.seeds, "seconds": args.seconds, "cpus": os.cpu_count(), "workloads": {}}
    for workload in args.workload:
        record["workloads"][workload] = run_pairs(sides, workload, args.seeds, args.seconds)
        if args.json:  # rewritten after each workload, so a stopped run keeps what finished
            args.json.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
