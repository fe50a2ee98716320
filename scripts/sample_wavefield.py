#!/usr/bin/env python3
"""Sample a wavefield from a config file and print a quick summary.

Example:
    python scripts/sample_wavefield.py --config configs/default3d.cfg --out /tmp/fields.csv
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from elastowave.cli import sample_grid, write_csv
from elastowave.config import parse_config


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    cfg = parse_config(Path(args.config).read_text())
    grid = sample_grid(cfg)
    out = args.out or cfg.out_path
    write_csv(grid, out)

    u = grid.rows[:, 4:7]
    v = grid.rows[:, 16:19]
    masked = int(grid.rows[:, 19].sum())
    print(f"{grid.rows.shape[0]} events -> {out}")
    print(f"max |u| = {np.max(np.abs(u)):.6e}, max |v| = {np.max(np.abs(v)):.6e}, masked rows = {masked}")


if __name__ == "__main__":
    main()
