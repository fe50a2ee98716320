"""Plain-bisection reference for the retarded-time root, for tests to compare against.

It shares ``kinematics``' bracket and final geometry, but none of the
Halley iteration it checks.
"""

import math

import numpy as np

from elastowave import kinematics
from elastowave.kinematics import RetardedState, Trajectory


def retarded_time_bisection(
    traj: Trajectory,
    x,
    t: float,
    slowness: float,
    dim: int = 3,
) -> RetardedState:
    """The root of ``kinematics.retarded_time`` by plain bisection.

    Bisects the bracket down to 4 ulp of t'. A root outside a bounded
    domain raises as in a scalar ``retarded_time`` call.
    """
    x = np.asarray(x, dtype=float)[:dim]
    kinematics._check_slowness(traj, slowness)
    lo, hi, valid, late = kinematics._bracket(traj, x[:, None], t, np.array([slowness], dtype=float))
    if not valid[0]:
        raise kinematics._past_the_end(traj, t) if late[0] else kinematics._no_retardation(t)
    lo, hi = float(lo[0]), float(hi[0])
    for _ in range(200):
        if hi - lo <= 4.0 * kinematics._EPS * max(1.0, abs(lo), abs(hi)):
            break
        mid = 0.5 * (lo + hi)
        rvec = x - traj.eval(mid)[0][:dim]
        if t - mid - slowness * math.sqrt(float(rvec @ rvec)) > 0.0:
            lo = mid
        else:
            hi = mid
    return kinematics._finalize_state(traj, x, 0.5 * (lo + hi), slowness)
