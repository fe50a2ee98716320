"""Hadamard's method of descent: a line force is a row of point forces.

A line force along x3 is the point force spread uniformly over x3, so the
2D fields at (x1, x2, t) are the x3-integrals of the 3D fields at
(x1, x2, x3, t). The two evaluators share only ``retarded_time`` and the
quadrature engine: the 3D fields are closed-form retarded sums plus one
slowness integral, the 2D ones history integrals over the whole motion.
``verify._descent_devs`` integrates the 3D fields on a fixed rule in x3.
"""

import pytest

from elastowave.kinematics import bump_force, oscillatory_trajectory
from elastowave.material import make_material
from elastowave.verify import _descent_devs

MAT = make_material(rho=1.0, lam=2.0, mu=1.0)  # cT = 1, cL = 2
# An in-plane worldline and a bump force: Q(t_on) = 0, so no front
# carries a delta that point nodes would miss.
TRAJ = oscillatory_trajectory([0, 0, 0], [0.3, 0.15, 0.0], 1.0, 0.2)
PROF = bump_force([0.7, -0.4, 0.9], center=1.0, half_width=1.0)


@pytest.mark.parametrize("x, t", [((1.1, 0.6), 4.3), ((-0.8, 1.3), 2.6)], ids=["t4.3", "t2.6"])
def test_line_fields_are_x3_integrals_of_point_fields(x, t):
    # Causality: no signal from |x3| > cL (t - t_on) has arrived, so the
    # 3D fields vanish outside the range. Many x3 nodes see only a tail of
    # the bump, which needs the force-scale error floor to converge.
    # u, beta and v of each line-force evaluator, and the integral of
    # d_3 u_i, which is the difference of u at the ends: zero.
    dev, = _descent_devs(MAT, TRAJ, PROF, x, t)
    assert max(dev.values()) <= 1e-9, dev
