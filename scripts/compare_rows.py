#!/usr/bin/env python3
"""Same numbers? Compare sampled rows of two source checkouts.

Samples the four benchmark workloads (configs built by
``perfbench/workloads.py`` of the change checkout, which is only read) at
every given seed, and every shipped config under the change checkout's
``configs/`` (so a config the change adds is compared too), once in
each checkout, through ``parse_config`` -> ``sample_grid`` in one child
process whose import path is that checkout's ``src/``. For every grid
(a workload's label names its seed) it prints "bitwise", or the largest
column-relative deviation max |change - parent| / max |parent| over a
column (absolute where the parent's column is zero).
Exits non-zero when a grid's deviation exceeds 10 times its configured
tolerance (``quad_rel`` in 3D, ``history_rel`` in 2D), when the two grids
differ in shape or mask, or when a checkout fails to sample.

Example:
    python scripts/compare_rows.py --parent ../base --change . --seed 0 1 3 7
"""

import argparse
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

WORKLOADS = ("smooth3d", "shell3d", "spline3d", "inplane2d")
BOUND_FACTOR = 10.0

# Run in each checkout: sample every (name, config text) job read from
# stdin, and save the rows and the configured tolerance of each grid.
_SAMPLE = """
import json, sys
import numpy as np
from elastowave.cli import sample_grid
from elastowave.config import parse_config
out = {}
for name, text in json.load(sys.stdin):
    cfg = parse_config(text)
    out[name] = sample_grid(cfg).rows
    out[name + ".tol"] = cfg.history_rel if cfg.dimension.startswith("2d") else cfg.quad_rel
np.savez(sys.argv[1], **out)
"""


def workload_configs(checkout, seeds):
    """(label, config text) of the benchmark workloads at every seed of ``seeds``."""
    path = checkout / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    sys.dont_write_bytecode = True  # leave no cache file beside it
    spec.loader.exec_module(workloads)
    return [(f"{name} (seed {seed})", workloads.make(name, seed).config_text())
            for seed in seeds for name in WORKLOADS]


def sample(checkout, jobs, out):
    """Rows and tolerances of every job, sampled with ``checkout``'s program."""
    env = dict(os.environ, PYTHONPATH=str(checkout.resolve() / "src"))
    proc = subprocess.run([sys.executable, "-c", _SAMPLE, str(out)], cwd=checkout, env=env,
                          input=json.dumps(jobs), capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"compare_rows: sampling in {checkout} failed:\n{proc.stderr}")
    with np.load(out) as data:
        return {key: data[key] for key in data.files}


def deviation(change, parent):
    """Largest column-relative deviation of ``change`` from ``parent``; NaN on one side only."""
    both = np.isnan(change) & np.isnan(parent)
    diff = np.max(np.where(both, 0.0, np.abs(change - parent)), axis=0)
    scale = np.max(np.where(both, 0.0, np.abs(parent)), axis=0)
    return float(np.max(np.where(scale > 0.0, diff / np.where(scale > 0.0, scale, 1.0), diff)))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="parent source checkout")
    ap.add_argument("--change", type=Path, required=True, help="changed source checkout")
    ap.add_argument("--seed", type=int, nargs="+", default=[0],
                    help="one or more workload seeds (default 0)")
    args = ap.parse_args(argv)
    jobs = workload_configs(args.change, args.seed) + [
        (path.name, path.read_text(encoding="utf-8"))
        for path in sorted((args.change / "configs").glob("*.cfg"))]
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        for side, checkout in (("parent", args.parent), ("change", args.change)):
            results[side] = sample(checkout, jobs, Path(tmp) / f"{side}.npz")
    worst = 0
    for label, _ in jobs:
        parent, change = results["parent"][label], results["change"][label]
        tol = float(results["change"][label + ".tol"])
        if parent.shape != change.shape or not np.array_equal(parent[:, -1], change[:, -1]):
            print(f"{label}: shape or mask differs ({parent.shape} -> {change.shape})")
            worst = max(worst, 2)
        elif np.array_equal(parent, change, equal_nan=True):
            print(f"{label}: bitwise")
        else:
            dev = deviation(change, parent)
            flag = not dev <= BOUND_FACTOR * tol
            print(f"{label}: max column-relative deviation {dev:.3e} "
                  f"({'above' if flag else 'within'} {BOUND_FACTOR:g} x tolerance {tol:g})")
            worst = max(worst, int(flag))
    return worst


if __name__ == "__main__":
    sys.exit(main())
