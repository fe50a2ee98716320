#!/usr/bin/env python3
"""Far-field scan of the radiation decomposition for an oscillating force.

Evaluates the acceleration-driven (radiation) and velocity-driven (near
field) parts of the distortion along one ray and fits their decay
exponents; the radiation part falls off as 1/R, the near field as 1/R^2.

Example:
    python scripts/radiation_scan.py --omega 4 --amplitude 0.1 --radii 20 40 80 160
"""

import argparse
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from elastowave import constant_force, make_material, oscillatory_trajectory
from elastowave.kinematics import motion_violations
from elastowave.pointforce3d import lw_fields


def rms_parts(mat, traj, prof, nhat, radius, omega, n_phases=16):
    period = 2.0 * math.pi / omega
    acc, vel = [], []
    for j in range(n_phases):
        s = lw_fields(
            mat, traj, prof, radius * nhat, 10.0 + period * j / n_phases, rel_tol=1e-8
        )
        acc.append(np.linalg.norm(s.beta_parts["acc"]))
        vel.append(np.linalg.norm(s.beta_parts["vel"]))
    return (
        math.sqrt(np.mean(np.square(acc))),
        math.sqrt(np.mean(np.square(vel))),
    )


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--omega", type=float, default=4.0)
    ap.add_argument("--amplitude", type=float, default=0.1)
    ap.add_argument("--radii", type=float, nargs="+", default=[20.0, 40.0, 80.0])
    args = ap.parse_args()

    mat = make_material(rho=1.0, lam=1.0, mu=1.0)
    traj = oscillatory_trajectory([0, 0, 0], [args.amplitude, 0, 0], args.omega)
    prof = constant_force([0, 0, 1.0])
    for _, message in motion_violations(traj, prof, mat.cT, line=False):
        sys.exit(message)
    nhat = np.array([0.30, 0.51, 0.81])
    nhat /= np.linalg.norm(nhat)

    print(f"vmax/cT = {traj.vmax / mat.cT:.3f}")
    print(f"{'R':>8} {'rms |acc part|':>16} {'rms |vel part|':>16}")
    data = []
    for radius in args.radii:
        a, v = rms_parts(mat, traj, prof, nhat, radius, args.omega)
        data.append((radius, a, v))
        print(f"{radius:8.1f} {a:16.6e} {v:16.6e}")

    radii = np.log([d[0] for d in data])
    p_acc = np.polyfit(radii, np.log([d[1] for d in data]), 1)[0]
    p_vel = np.polyfit(radii, np.log([d[2] for d in data]), 1)[0]
    print(f"decay exponents: acc part {p_acc:+.3f} (expect -1), vel part {p_vel:+.3f} (expect -2)")


if __name__ == "__main__":
    main()
