"""Regenerate the stored reference rows for the default seed.

    python3 perfbench/make_reference.py [workload ...]

Each workload's grid is sampled through parse_config -> sample_grid at
tolerances 100x tighter than the configured defaults and written to
``perfbench/reference/<workload>.npz``. The stored files were produced by
elastowave 0.1.0 before any optimisation landed; regenerate them only when
a workload's inputs change, never to make a failing check pass.
"""

from __future__ import annotations

import os
import sys

import numpy as np

import worker
import workloads
from check import reference_path, tight_tolerances


def main(names):
    elastowave, cli, config = worker.import_program()
    os.makedirs(os.path.join(worker.HERE, "reference"), exist_ok=True)
    for name in names or sorted(workloads.SPECS):
        wl = workloads.make(name, workloads.DEFAULT_SEED)
        workloads.check_properties(wl)
        tight = tight_tolerances(config.parse_config(wl.config_text()))
        grid = cli.sample_grid(config.parse_config(wl.config_text(tight)), threads=1)
        np.savez_compressed(
            reference_path(worker.HERE, name),
            rows=grid.rows,
            seed=workloads.DEFAULT_SEED,
            version=elastowave.__version__,
            **tight,
        )
        print(f"{name}: {grid.rows.shape[0]} rows at {tight}")


if __name__ == "__main__":
    main(sys.argv[1:])
