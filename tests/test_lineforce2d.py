import math

import numpy as np
import pytest

from elastowave.errors import UnboundedHistoryError, WavefrontProximityWarning
from elastowave.kinematics import (
    bump_force,
    constant_force,
    oscillatory_trajectory,
    static_trajectory,
    step_force,
)
from elastowave.lineforce2d import (
    antiplane_displacement,
    antiplane_fields,
    inplane_displacement,
    inplane_fields,
    line_history_node,
)
from elastowave.material import make_material
from elastowave.verify import inplane_convolution_u

MAT = make_material(rho=1.3, lam=0.9, mu=1.3)  # cT = 1
Q0 = 2.0 * math.pi * MAT.rho * MAT.cT ** 2


def _static_antiplane():
    return static_trajectory([0, 0, 0]), step_force([0, 0, Q0], t_on=0.0)


# ---------------------------------------------------------------------------
# history nodes

def test_history_node_roots_and_ordering():
    traj = static_trajectory([0, 0, 0])
    x = np.array([1.0, 0.0])
    t = 3.0
    # at the transversal retarded time S_T vanishes; S_L exceeds S_T before it
    node_at_tT = line_history_node(MAT, traj, x, t, t - 1.0 / MAT.cT)
    assert node_at_tT.s_t == pytest.approx(0.0, abs=1e-12)
    assert node_at_tT.s_l > 0.0
    for tp in (-1.0, 0.0, 1.0):
        node = line_history_node(MAT, traj, x, t, tp)
        assert node.s_l >= node.s_t
    late = line_history_node(MAT, traj, x, t, t - 0.1)  # inside both cones
    assert math.isnan(late.s_t) and math.isnan(late.s_l)


# ---------------------------------------------------------------------------
# anti-plane

def test_antiplane_arccosh_value():
    traj, prof = _static_antiplane()
    t = math.cosh(1.0)  # u3 = arccosh(cT t / r) = 1 at r = 1
    u3 = antiplane_displacement(MAT, traj, prof, [1.0, 0.0], t, rel_tol=1e-11)
    assert u3 == pytest.approx(1.0, abs=1e-11)


def test_antiplane_before_arrival_and_zero_force():
    traj, prof = _static_antiplane()
    assert antiplane_displacement(MAT, traj, prof, [2.0, 0.0], 1.0) == 0.0
    zero = step_force([0, 0, 0.0], t_on=0.0)
    assert antiplane_displacement(MAT, traj, zero, [1.0, 0.0], 3.0) == 0.0


def test_antiplane_analytic_derivatives():
    traj, prof = _static_antiplane()
    t = math.sqrt(2.0)
    beta, v3 = antiplane_fields(MAT, traj, prof, [1.0, 0.0], t, rel_tol=1e-11)
    assert v3 == pytest.approx(1.0, abs=1e-9)
    assert beta[0] == pytest.approx(-math.sqrt(2.0), abs=1e-9)
    assert beta[1] == pytest.approx(0.0, abs=1e-12)


def test_antiplane_infinite_history_rejected():
    traj = static_trajectory([0, 0, 0])
    with pytest.raises(UnboundedHistoryError):
        antiplane_displacement(MAT, traj, constant_force([0, 0, 1.0]), [1.0, 0.0], 2.0)


def test_antiplane_moving_fd_crosscheck():
    traj = oscillatory_trajectory([0, 0, 0], [0.15, 0.1, 0], 1.1, 0.2)
    prof = bump_force([0, 0, 2.5], center=1.0, half_width=1.0)
    x = np.array([1.3, -0.9])
    t = 3.1
    beta, v3 = antiplane_fields(MAT, traj, prof, x, t, rel_tol=1e-11)

    def d1(g, h):
        c = lambda hh: (g(-2 * hh) - 8 * g(-hh) + 8 * g(hh) - g(2 * hh)) / (12 * hh)
        return (16 * c(h / 2) - c(h)) / 15

    u_of = lambda xx, tt: antiplane_displacement(MAT, traj, prof, xx, tt, rel_tol=1e-11)
    b_fd = np.array([d1(lambda s: u_of(x + s * np.eye(2)[k], t), 1e-3) for k in range(2)])
    v_fd = d1(lambda s: u_of(x, t + s), 1e-3)
    np.testing.assert_allclose(beta, b_fd, atol=1e-7 * np.max(np.abs(b_fd)))
    assert v3 == pytest.approx(v_fd, rel=1e-7)


def test_endpoint_quadrature_convergence_order():
    # fixed-panel refinement of the substituted history integral gains at
    # least 4 orders per halving on the arccosh benchmark
    traj, prof = _static_antiplane()
    t, r = 2.9, 1.2
    exact = math.acosh(MAT.cT * t / r)
    errs = []
    for n_panels in (1, 2, 4):
        u3 = antiplane_displacement(
            MAT, traj, prof, [r, 0.0], t, n_fixed=n_panels
        )
        errs.append(abs(u3 - exact))
    order1 = math.log2(errs[0] / max(errs[1], 1e-17))
    order2 = math.log2(errs[1] / max(errs[2], 1e-17))
    assert min(order1, order2) >= 4.0


# ---------------------------------------------------------------------------
# in-plane

def test_inplane_zero_force_and_pre_arrival():
    traj = static_trajectory([0, 0, 0])
    zero = step_force([0, 0, 0], t_on=0.0)
    assert np.all(inplane_displacement(MAT, traj, zero, [1.0, 0.5], 4.0) == 0)
    prof = step_force([1.0, 0.0, 0], t_on=0.0)
    # L-front reaches r at r/cL
    r = 2.0
    t_before = 0.9 * r / MAT.cL
    assert np.all(inplane_displacement(MAT, traj, prof, [r, 0.0], t_before) == 0)


def test_inplane_between_arrivals():
    # after the longitudinal front but before the transversal one only the
    # L-history contributes; the value must match the convolution oracle
    traj = static_trajectory([0, 0, 0])
    prof = step_force([1.0, 0.4, 0], t_on=0.0)
    r = 2.0
    t = 0.5 * (r / MAT.cL + r / MAT.cT)
    x = np.array([r, 0.0])
    u = inplane_displacement(MAT, traj, prof, x, t, rel_tol=1e-10)
    assert np.any(u != 0)
    oracle = inplane_convolution_u(MAT, traj, prof, x, t)
    np.testing.assert_allclose(u, oracle, atol=1e-8 * np.max(np.abs(oracle)))


def test_inplane_static_matches_oracle():
    traj = static_trajectory([0, 0, 0])
    prof = step_force([1.0, 0.5, 0], t_on=0.0)
    x = np.array([0.9, 0.5])
    t = 3.7
    u = inplane_displacement(MAT, traj, prof, x, t, rel_tol=1e-10)
    oracle = inplane_convolution_u(MAT, traj, prof, x, t)
    np.testing.assert_allclose(u, oracle, rtol=1e-3)


def test_inplane_moving_matches_oracle():
    traj = oscillatory_trajectory([0, 0, 0], [0.12, -0.08, 0], 0.9)
    prof = bump_force([1.0, 0.5, 0], center=1.0, half_width=1.0)
    x = np.array([1.1, 0.7])
    t = 4.2
    u = inplane_displacement(MAT, traj, prof, x, t, rel_tol=1e-10)
    oracle = inplane_convolution_u(MAT, traj, prof, x, t)
    np.testing.assert_allclose(u, oracle, rtol=1e-3)


def test_inplane_fields_richardson_consistency():
    traj = oscillatory_trajectory([0, 0, 0], [0.1, 0.06, 0], 1.0, 0.3)
    prof = bump_force([0.8, 0.5, 0], center=1.0, half_width=1.0)
    fs = inplane_fields(MAT, traj, prof, [1.2, 0.6], 4.5, rel_tol=1e-9)
    scale = max(np.max(np.abs(fs.beta)), np.max(np.abs(fs.v)))
    assert all(err <= 1e-4 * scale for err in fs.fd_error.values())


def test_inplane_wavefront_proximity_warning():
    traj = static_trajectory([0, 0, 0])
    prof = step_force([1.0, 0, 0], t_on=0.0)
    r = 2.0
    t_front = r / MAT.cT
    with pytest.warns(WavefrontProximityWarning):
        inplane_fields(MAT, traj, prof, [r, 0.0], t_front + 1e-7)


def test_inplane_velocity_afterglow_decay():
    # static line, constant strength after switch-on: |v| ~ 1/t at late times
    traj = static_trajectory([0, 0, 0])
    prof = step_force([1.0, 0.5, 0], t_on=0.0)
    x = np.array([0.9, 0.5])
    v1 = np.linalg.norm(inplane_fields(MAT, traj, prof, x, 50.0).v)
    v2 = np.linalg.norm(inplane_fields(MAT, traj, prof, x, 100.0).v)
    assert v2 / v1 == pytest.approx(0.5, rel=2e-2)


def test_afterglow_persists_2d():
    traj = static_trajectory([0, 0, 0])
    prof = bump_force([0, 0, 3.0], center=1.0, half_width=1.0)
    x = np.array([1.0, 0.0])
    # trailing transversal front passes at t_off + r/cT = 3
    for t in (3.5, 5.0, 8.0):
        assert antiplane_displacement(MAT, traj, prof, x, t) > 1e-6
