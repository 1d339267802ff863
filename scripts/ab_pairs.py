#!/usr/bin/env python3
"""Run alternating parent/change pairs of the benchmark on one workload.

    python3 scripts/ab_pairs.py --parent ../parent --change . \\
        --workload multiplicity --seeds 2001-2010 --seconds 25

Each seed is one pair: ``perfbench/run.py --trace 0`` runs once from each
checkout, each in its own process and from its own directory, so each side
times its own ``src/``.  The side that goes first alternates from pair to
pair, so a drift of the host's speed does not favour one side.  Per pair it
prints ``instances_per_s``, ``instance_ms_p50``, ``instance_ms_p90``,
``peak_rss_mb`` and ``setup_s`` of both sides; at the end, for each metric,
the pairs the change wins, the median of each side, and the parent's
quartiles and their distance.  A run that exits nonzero or reports a failed instance stops the
script.  It only reads the checkouts; ``perfbench/`` is run, not imported.
"""

from __future__ import annotations

import argparse
import json
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


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True, help="a workload of perfbench/run.py")
    parser.add_argument("--seeds", type=seed_range, required=True, help="A-B, one pair per seed")
    parser.add_argument("--seconds", type=float, default=25.0, help="--seconds of each run")
    args = parser.parse_args()

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    header = "  ".join(f"{name:>27s}" for name, _ in METRICS)
    print(f"{'seed':>6s} {'first':>6s}  {header}   (parent -> change)", flush=True)
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_side(sides[side], args.workload, seed, args.seconds))
        cells = "  ".join(
            f"{runs['parent'][-1][name]:>12.4g} -> {runs['change'][-1][name]:<12.4g}"
            for name, _ in METRICS
        )
        print(f"{seed:>6d} {order[0]:>6s}  {cells}", flush=True)

    pairs = len(args.seeds)
    print(f"\n{args.workload}, {pairs} pairs, {args.seconds:g} s per run")
    for name, better in METRICS:
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        wins = sum((c > p) if better == "higher" else (c < p) for p, c in zip(parent, change))
        q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive") if pairs > 1 else parent * 3
        mp, mc = statistics.median(parent), statistics.median(change)
        print(
            f"  {name:16s} change wins {wins}/{pairs} ({better} is better); "
            f"median {mp:.4g} -> {mc:.4g} ({mc / mp:.3f}x); parent quartiles "
            f"{q1:.4g}-{q3:.4g} (distance {q3 - q1:.3g}, median shift {abs(mc - mp):.3g})"
        )


if __name__ == "__main__":
    main()
