#!/usr/bin/env python3
"""Huygens contrast: 2D afterglow versus the clean 3D pulse passage.

A compact force pulse acts on a static source. The 3D point-force field
returns to exactly zero once the trailing transversal front has passed;
the 2D line-force field keeps a slowly decaying tail because the whole
history of the motion contributes.

Example:
    python scripts/afterglow_trace.py --radius 1.0 --t-max 12
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from elastowave import bump_force, lw_fields, make_material, static_trajectory
from elastowave.lineforce2d import antiplane_displacement


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--radius", type=float, default=1.0)
    ap.add_argument("--t-max", type=float, default=12.0)
    ap.add_argument("--samples", type=int, default=24)
    args = ap.parse_args()

    mat = make_material(rho=1.0, lam=1.0, mu=1.0)
    traj = static_trajectory([0, 0, 0])
    prof = bump_force([0, 0, 1.0], center=1.0, half_width=1.0)  # support [0, 2]
    x2 = np.array([args.radius, 0.0])
    x3 = np.array([args.radius, 0.0, 0.0])
    t_tail = prof.t_off + args.radius / mat.cT

    print(f"pulse support [0, 2]; trailing 2D/3D transversal front at t = {t_tail:g}")
    print(f"{'t':>7} {'|u| 3D point':>14} {'u3 2D line':>14}")
    for t in np.linspace(0.5, args.t_max, args.samples):
        u3d = np.max(np.abs(lw_fields(mat, traj, prof, x3, float(t)).u))
        u2d = antiplane_displacement(mat, traj, prof, x2, float(t))
        marker = "  <- afterglow only" if t > t_tail and abs(u2d) > 0 else ""
        print(f"{t:7.2f} {u3d:14.6e} {u2d:14.6e}{marker}")


if __name__ == "__main__":
    main()
