"""Hadamard's method of descent: a line force is a row of point forces.

A line force along x3 is the point force spread uniformly over x3, so the
2D fields at (x1, x2, t) are the x3-integrals of the 3D fields at
(x1, x2, x3, t). The two evaluators share only ``retarded_time`` and the
quadrature engine: the 3D fields are closed-form retarded sums plus one
slowness integral, the 2D ones history integrals over the whole motion.
"""

import numpy as np
import pytest

from elastowave.kinematics import bump_force, oscillatory_trajectory
from elastowave.lineforce2d import antiplane_fields, inplane_fields
from elastowave.material import make_material
from elastowave.pointforce3d import lw_fields_batch
from elastowave.quadrature import gauss_legendre_rule

MAT = make_material(rho=1.0, lam=2.0, mu=1.0)  # cT = 1, cL = 2
# An in-plane worldline and a bump force: Q(t_on) = 0, so no front
# carries a delta that point nodes would miss.
TRAJ = oscillatory_trajectory([0, 0, 0], [0.3, 0.15, 0.0], 1.0, 0.2)
PROF = bump_force([0.7, -0.4, 0.9], center=1.0, half_width=1.0)
PANELS = 200  # GL16 panels on x3: 3,200 nodes


@pytest.mark.parametrize("x, t", [((1.1, 0.6), 4.3), ((-0.8, 1.3), 2.6)], ids=["t4.3", "t2.6"])
def test_line_fields_are_x3_integrals_of_point_fields(x, t):
    # Causality: no signal from |x3| > cL (t - t_on) has arrived, so the
    # 3D fields vanish outside the range. Many x3 nodes see only a tail of
    # the bump, which needs the force-scale error floor to converge.
    half = MAT.cL * (t - PROF.t_on) + 1.0
    edges = np.linspace(-half, half, PANELS + 1)
    xg, wg = gauss_legendre_rule(16)
    mid, width = 0.5 * (edges[:-1] + edges[1:]), 0.5 * np.diff(edges)
    x3 = (mid[:, None] + width[:, None] * xg).ravel()
    w = (width[:, None] * wg).ravel()
    xs = np.column_stack([np.full(x3.size, x[0]), np.full(x3.size, x[1]), x3])
    fs, masked = lw_fields_batch(MAT, TRAJ, PROF, xs, np.full(x3.size, t), rel_tol=1e-10)
    assert not masked.any()
    u, beta, v = w @ fs.u, np.einsum("n,nij->ij", w, fs.beta), w @ fs.v

    inplane = inplane_fields(MAT, TRAJ, PROF, x, t, rel_tol=1e-12)
    antiplane = antiplane_fields(MAT, TRAJ, PROF, x, t, rel_tol=1e-12)
    u2 = np.append(inplane.u, antiplane.u)
    v2 = np.append(inplane.v, antiplane.v)
    beta2 = np.vstack([inplane.beta, antiplane.beta])  # beta_ik = d_k u_i, k = 1, 2

    def rel(a, b):
        return np.max(np.abs(a - b)) / np.max(np.abs(b))

    assert rel(u, u2) <= 1e-9
    assert rel(v, v2) <= 1e-9
    assert rel(beta[:, :2], beta2) <= 1e-9
    # d_3 u_i integrates to the difference of u at the ends, which is zero.
    assert np.max(np.abs(beta[:, 2])) <= 1e-9 * np.max(np.abs(beta2))
