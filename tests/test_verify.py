import numpy as np
import pytest

from elastowave.errors import ConfigError, ResolutionError, SupersonicError
from elastowave.kinematics import (
    bump_force,
    oscillatory_trajectory,
    static_trajectory,
)
from elastowave.material import make_material, make_material_poisson
from elastowave.pointforce3d import kelvin_displacement, kelvin_gradient, lw_displacement
from elastowave.verify import (
    CHECKS,
    CheckReport,
    fd_consistency,
    mollified_convolution_u,
    navier_residual,
    run_check_suite,
)

MAT = make_material_poisson(1.0, 1.0, 0.25)


def test_fd_linear_stub_is_exact():
    m = np.array([[0.3, -0.1, 0.2], [0.0, 0.5, -0.4], [0.7, 0.1, 0.0]])
    c = np.array([0.1, -0.2, 0.3])

    def u_fn(x, t):
        return m @ x + c * t

    res = fd_consistency(u_fn, [0.4, -0.2, 0.9], 1.3, h=1e-2)
    np.testing.assert_allclose(res.beta_fd, m, atol=1e-13)
    np.testing.assert_allclose(res.v_fd, c, atol=1e-13)
    assert res.beta_err < 1e-13 and res.v_err < 1e-13


def test_fd_matches_kelvin_gradient():
    q = np.array([0.2, -0.5, 1.0])

    def u_fn(x, t):
        return kelvin_displacement(MAT, q, x)

    x = np.array([0.8, -0.3, 1.1])
    res = fd_consistency(u_fn, x, 0.0, h=1e-3 * np.linalg.norm(x))
    np.testing.assert_allclose(res.beta_fd, kelvin_gradient(MAT, q, x), atol=1e-8)
    np.testing.assert_allclose(res.v_fd, 0.0, atol=1e-12)


def test_navier_static_kelvin_residual_small():
    q = np.array([0.0, 0.0, 1.0])

    def u_fn(x, t):
        return kelvin_displacement(MAT, q, x)

    def v_fn(x, t):
        return np.zeros(3)

    res = navier_residual(MAT, u_fn, v_fn, np.array([0.7, 0.4, 0.9]), 0.0, h=1e-2)
    assert res.rel_residual < 1e-6


def test_navier_detects_corruption():
    q = np.array([0.0, 0.0, 1.0])

    def u_fn(x, t):
        u = kelvin_displacement(MAT, q, x).copy()
        u[0] *= 1.1
        return u

    res = navier_residual(MAT, u_fn, lambda x, t: np.zeros(3), np.array([0.7, 0.4, 0.9]), 0.0, h=1e-2)
    assert res.rel_residual > 1e-2


def test_mollified_zero_force():
    traj = static_trajectory([0, 0, 0])
    prof = bump_force([0, 0, 0.0], center=1.0, half_width=1.0)
    u = mollified_convolution_u(MAT, traj, prof, [1.0, 0, 0], 2.0, eps=1e-2)
    assert np.all(u == 0)


def test_mollified_matches_sharp_static():
    traj = static_trajectory([0, 0, 0])
    prof = bump_force([0.5, 1.0, 0.2], center=1.0, half_width=1.0)
    x = np.array([1.2, 0, 0])
    t = 1.0 + 1.2 / MAT.cT  # peak T-arrival
    u_sharp = lw_displacement(MAT, traj, prof, x, t, rel_tol=1e-12)
    u_eps = mollified_convolution_u(MAT, traj, prof, x, t, eps=1.2e-3 * 1.2 / MAT.cT)
    np.testing.assert_allclose(u_eps, u_sharp, rtol=1e-4)


def test_mollified_halving_shrinks_error_4x():
    traj = oscillatory_trajectory([0, 0, 0], [0.15, 0, 0], 1.2)
    prof = bump_force([0.4, 0.8, 0.3], center=1.0, half_width=1.0)
    x = np.array([0.9, 0.7, 0.4])
    t = 1.0 + np.linalg.norm(x - traj.eval(1.0)[0]) / MAT.cT
    u_sharp = lw_displacement(MAT, traj, prof, x, t, rel_tol=1e-12)
    errs = []
    for eps in (4e-2, 2e-2, 1e-2):
        u_eps = mollified_convolution_u(MAT, traj, prof, x, t, eps)
        errs.append(np.max(np.abs(u_eps - u_sharp)))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.25)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.25)


def test_mollified_resolution_error():
    traj = static_trajectory([0, 0, 0])
    prof = bump_force([1, 0, 0], center=1.0, half_width=1.0)
    with pytest.raises(ResolutionError):
        mollified_convolution_u(MAT, traj, prof, [1.0, 0, 0], 2.0, eps=1e-16)


def test_check_reports_are_consistent():
    reports = run_check_suite(names=["kelvin_limit", "linearity"], seed=0)
    assert [r.name for r in reports] == ["kelvin_limit", "linearity"]
    for r in reports:
        assert isinstance(r, CheckReport)
        assert r.passed == (r.max_rel_err <= r.tolerance)
        d = r.to_dict()
        assert set(d) == {"name", "max_rel_err", "tolerance", "pass", "n_samples"}


def test_check_suite_deterministic():
    a = run_check_suite(names=["stokes_limit"], seed=7)
    b = run_check_suite(names=["stokes_limit"], seed=7)
    assert a[0].max_rel_err == b[0].max_rel_err


def test_check_suite_empty_selection():
    assert run_check_suite(names=[]) == []


def test_check_suite_unknown_name():
    with pytest.raises(ConfigError):
        run_check_suite(names=["not_a_check"])


def test_check_suite_rejects_supersonic_config():
    from elastowave.config import parse_config

    text = """
material.rho = 1
material.lam = 1
material.mu = 1
trajectory.preset = uniform
trajectory.velocity = 0.5,0,0
force.preset = constant
force.q0 = 0,0,1
"""
    cfg = parse_config(text)
    # make it supersonic after parsing by pairing with a slow material
    from dataclasses import replace

    cfg = replace(cfg, material=make_material(1.0, 0.1, 0.04))
    with pytest.raises(SupersonicError):
        run_check_suite(cfg, names=["kelvin_limit"])


def test_all_registered_checks_have_unique_names():
    assert len(CHECKS) == len(set(CHECKS))
