"""Benchmark of elastowave grid sampling; see perfbench/README.md.

    python3 perfbench/run.py --workload smooth3d --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --all            # every workload, untraced

Run from the root of a source checkout. Each workload runs in a child
process (``worker.py``) on one thread, with BLAS/OpenMP thread counts set
to 1. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``. The exit code is 0 only when every output row passed the
correctness check.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
CHILD_TIMEOUT_S = 170
WORKLOADS = ("smooth3d", "shell3d", "spline3d", "inplane2d")
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_child(workload, seed, seconds, trace):
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.pop("ELASTOWAVE_THREADS", None)
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
        "--trace", str(trace), "--out", OUT,
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S,
            text=True, check=False,
        )
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {workload} did not finish within {CHILD_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"perfbench: {workload} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def describe(rec):
    env = rec["environment"]
    print(
        f"[{rec['workload']}] seed={rec['seed']} nproc={env['nproc']} "
        f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
        f"elastowave={env['elastowave']} threads={env['threads']}"
    )
    passes = rec["pass_s"]
    print(
        f"[{rec['workload']}] {rec['events_per_pass']} events/pass, "
        f"{len(passes)} timed passes (s): " + " ".join(f"{p:.3f}" for p in passes)
    )
    dev = ", ".join(f"{k}={v:.2e}" for k, v in rec["max_rel_dev"].items())
    print(
        f"[{rec['workload']}] reference={rec['reference']} rows={rec['reference_rows']} "
        f"default-seed rows={rec['anchor_rows']} "
        f"max_rel_dev: {dev} (bound {rec['max_rel_dev_bound']['u']:.0e} u)"
    )
    if rec.get("aborted"):
        print(f"[{rec['workload']}] grid aborted: {rec['aborted']}")
    print(
        f"[{rec['workload']}] wall clock: events_per_s={rec.get('events_per_s_wall', 0.0):.4f} "
        f"events/s  setup_s={rec.get('setup_s_wall', 0.0):.6f} s  (calibration ref "
        f"{rec['calibration_ref_s']:.2e} s, median in run "
        f"{statistics.median(rec['pass_calibration_s'] or [0.0]):.2e} s)"
    )
    failed_frac = rec["failed"] / max(rec["attempted"], 1)
    print(
        f"[{rec['workload']}] events_per_s={rec.get('events_per_s', 0.0):.4f} events/s  "
        f"setup_s={rec.get('setup_s', 0.0):.6f} s  peak_rss_mb={rec['peak_rss_mb']:.1f} MB  "
        f"failed_frac={failed_frac:.4g} ratio"
    )


def metrics_of(rec, trace, spec):
    if trace:
        values = rec.get("layers", {})
        return {
            m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in spec["per_layer"]
        }
    values = {
        "events_per_s": rec.get("events_per_s", 0.0),
        "setup_s": rec.get("setup_s", 0.0),
        "peak_rss_mb": rec["peak_rss_mb"],
    }
    return {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
        for m in spec["end_to_end"]
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true", help="run every workload untraced")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not args.all and not args.workload:
        ap.error("give --workload or --all")
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(ROOT, "src", "elastowave", "__init__.py")):
        sys.exit("perfbench: no elastowave sources under src/; run from a source checkout")
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    os.makedirs(OUT, exist_ok=True)

    names = WORKLOADS if args.all else (args.workload,)
    trace = 0 if args.all else args.trace
    records = []
    for name in names:
        rec = run_child(name, args.seed, seconds, trace)
        records.append(rec)
        path = os.path.join(OUT, f"run-{name}-seed{args.seed}-trace{trace}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rec, fh, indent=1)
        describe(rec)
        if trace:
            for key, value in sorted(rec.get("layers", {}).items()):
                print(f"[{name}] {key} = {value:.6g}")

    metrics = {}
    for rec in records:
        prefix = f"{rec['workload']}." if len(records) > 1 else ""
        metrics.update({prefix + k: v for k, v in metrics_of(rec, trace, spec).items()})
    ok = all(rec["correct"] for rec in records)
    result = {
        "correct": ok,
        "attempted": sum(rec["attempted"] for rec in records),
        "failed": sum(rec["failed"] for rec in records),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
