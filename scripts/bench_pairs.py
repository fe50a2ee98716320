#!/usr/bin/env python3
"""Alternating benchmark pairs of two source checkouts.

Runs ``perfbench/run.py --workload W --trace 0`` in a parent checkout and
in a change checkout, one run each per pair, alternating which of the two
goes first. For every end-to-end metric of ``BENCHMARK.json`` it then
prints each side's median and quartiles, the difference of the medians
against the parent's interquartile range, and in how many pairs the change
was better. It also prints each side's median minor page faults and
system CPU seconds per run, taken from ``getrusage(RUSAGE_CHILDREN)``
around each run: a reading that moves with the allocator's state (memory
handed back to the kernel and faulted in again) shows there. Exits
non-zero as soon as a run is not ``correct``.

Example:
    python scripts/bench_pairs.py --parent ../base --change . --workload smooth3d --pairs 10
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path


# Kernel-side costs of a run, from the rusage of its finished processes.
RUSAGE = {"minor_faults": "ru_minflt", "sys_s": "ru_stime"}


def run_once(checkout, workload, seed, seconds):
    """End-to-end metrics of one untraced benchmark run in ``checkout``, plus RUSAGE's keys."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", "0"]
    if seconds is not None:
        cmd += ["--seconds", repr(seconds)]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if proc.returncode != 0 or result is None or not result["correct"] or result["failed"]:
        sys.stderr.write(proc.stdout + proc.stderr)
        sys.exit(f"bench_pairs: run in {checkout} is not correct (exit {proc.returncode})")
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    for key, field in RUSAGE.items():
        metrics[key] = getattr(after, field) - getattr(before, field)
    return metrics


def quartiles(values):
    """(q1, median, q3) of the values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="parent source checkout")
    ap.add_argument("--change", type=Path, required=True, help="changed source checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="seconds per run (default: BENCHMARK.json's run_seconds)")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    sides = {"parent": args.parent, "change": args.change}
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(sides[side], args.workload, args.seed, args.seconds))
        print(f"pair {i + 1}/{args.pairs} ({order[0]} first): " + ", ".join(
            f"{name} {runs['parent'][-1][name]:.6g} -> {runs['change'][-1][name]:.6g}"
            for name in [m["name"] for m in spec["end_to_end"]] + list(RUSAGE)), flush=True)

    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs: median [q1, q3]")
    for metric in spec["end_to_end"]:
        name, higher = metric["name"], metric["better"] == "higher"
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
        wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        print(f"{name} ({metric['unit']}, {metric['better']} is better): "
              f"parent {pm:.6g} [{p1:.6g}, {p3:.6g}], change {cm:.6g} [{c1:.6g}, {c3:.6g}], "
              f"ratio {cm / pm:.4f}, |median diff| {abs(cm - pm):.6g} vs parent IQR "
              f"{p3 - p1:.6g}, change better in {wins}/{args.pairs}")
    print("per run, median: " + "; ".join(
        f"{side} " + ", ".join(f"{key} {statistics.median(r[key] for r in runs[side]):.6g}"
                               for key in RUSAGE)
        for side in ("parent", "change")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
