import numpy as np
import pytest

from elastowave.errors import ConfigError, ResolutionError, SupersonicError
from elastowave.kinematics import (
    bump_force,
    oscillatory_trajectory,
    static_trajectory,
)
from elastowave.material import make_material, make_material_poisson
from elastowave.pointforce3d import kelvin_displacement, kelvin_gradient, lw_fields
from elastowave import lineforce2d, pointforce3d, verify
from elastowave.verify import (
    CHECKS,
    CheckReport,
    fd_consistency,
    mollified_convolution_u,
    navier_residual,
    run_check_suite,
)

MAT = make_material_poisson(1.0, 1.0, 0.25)


def _kelvin_u(q):
    return lambda xs, ts: np.array([kelvin_displacement(MAT, q, x) for x in xs])


def _counted(fn, calls):
    def counted(xs, ts):
        calls.append(len(ts))
        return fn(xs, ts)

    return counted


def test_fd_linear_stub_is_exact():
    m = np.array([[0.3, -0.1, 0.2], [0.0, 0.5, -0.4], [0.7, 0.1, 0.0]])
    c = np.array([0.1, -0.2, 0.3])

    def u_fn(xs, ts):
        return xs @ m.T + np.outer(ts, c)

    res = fd_consistency(u_fn, [0.4, -0.2, 0.9], 1.3, h=1e-2)
    np.testing.assert_allclose(res.beta_fd, m, atol=1e-13)
    np.testing.assert_allclose(res.v_fd, c, atol=1e-13)
    assert res.beta_err < 1e-13 and res.v_err < 1e-13


def test_fd_matches_kelvin_gradient():
    q = np.array([0.2, -0.5, 1.0])
    x = np.array([0.8, -0.3, 1.1])
    res = fd_consistency(_kelvin_u(q), x, 0.0, h=1e-3 * np.linalg.norm(x))
    np.testing.assert_allclose(res.beta_fd, kelvin_gradient(MAT, q, x), atol=1e-8)
    np.testing.assert_allclose(res.v_fd, 0.0, atol=1e-12)


@pytest.mark.parametrize("dim", [2, 3])
def test_fd_calls_the_field_once_on_its_whole_stencil(dim):
    calls = []
    u_fn = _counted(lambda xs, ts: np.sin(xs) * np.cos(ts)[:, None], calls)
    x = np.linspace(0.3, 0.9, dim)
    res = fd_consistency(u_fn, x, 0.4, h=1e-2)
    assert calls == [6 * (dim + 1)]
    np.testing.assert_allclose(res.beta_fd, np.diag(np.cos(x)) * np.cos(0.4), atol=1e-12)
    np.testing.assert_allclose(res.v_fd, -np.sin(x) * np.sin(0.4), atol=1e-12)


def test_navier_static_kelvin_residual_small():
    res = navier_residual(MAT, _kelvin_u(np.array([0.0, 0.0, 1.0])),
                          lambda xs, ts: np.zeros((len(ts), 3)),
                          np.array([0.7, 0.4, 0.9]), 0.0, h=1e-2)
    assert res.rel_residual < 1e-6


def test_navier_detects_corruption():
    def u_fn(xs, ts):
        u = _kelvin_u(np.array([0.0, 0.0, 1.0]))(xs, ts)
        u[:, 0] *= 1.1
        return u

    res = navier_residual(MAT, u_fn, lambda xs, ts: np.zeros((len(ts), 3)),
                          np.array([0.7, 0.4, 0.9]), 0.0, h=1e-2)
    assert res.rel_residual > 1e-2


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("wave", ["P", "S"])
def test_navier_plane_waves(dim, wave):
    # u = a sin(k (n.x - c t)) solves the equation of motion in any
    # dimension for a P wave (a along n, c = cL) and an S wave (a normal
    # to n, c = cT); the other speed leaves an O(1) residual.
    n = np.linspace(1.0, 2.0, dim)
    n /= np.linalg.norm(n)
    a = n if wave == "P" else np.append([-n[1], n[0]], np.zeros(dim - 2))
    c, wrong = (MAT.cL, MAT.cT) if wave == "P" else (MAT.cT, MAT.cL)
    x, k = np.linspace(0.2, 0.5, dim), 1.3

    def residual(speed):
        calls = []
        u_fn = _counted(lambda xs, ts: np.outer(np.sin(k * (xs @ n - speed * ts)), a), calls)
        v_fn = _counted(lambda xs, ts: np.outer(-k * speed * np.cos(k * (xs @ n - speed * ts)), a),
                        calls)
        res = navier_residual(MAT, u_fn, v_fn, x, 0.7, h=1e-2)
        # one u call on the centre, 4 points per axis and a 4x4 grid per plane; one v call
        assert calls == [1 + 4 * dim + 8 * dim * (dim - 1), 4]
        return res.rel_residual

    assert residual(c) < 1e-7
    assert residual(wrong) > 1e-1


def test_inplane_checks_make_one_displacement_call_per_case(monkeypatch):
    calls = []
    displacement = verify.inplane_displacement

    def counted(*args, **kwargs):
        calls.append(np.shape(args[4]))
        return displacement(*args, **kwargs)

    monkeypatch.setattr(verify, "inplane_displacement", counted)
    rep_static, rep_fd = verify.check_inplane_velocity(seed=0, n_cases=2)
    assert calls == [(18,), (18,)]  # the 6-offset stencil along x1, x2 and t
    assert rep_static.passed and rep_fd.passed
    calls.clear()
    assert verify.check_navier_residual_2d(seed=0, n_cases=2).passed
    assert calls == [(25,), (25,)]  # centre, 4 per axis, a 4x4 grid in the plane



# Defects that ``line_descent`` must catch at 1e-6, each with the part of
# its report keys that it may move: the anti-plane rate, the in-plane u
# kernel on L rows (which also enters v through the end term at t_T), and
# the acceleration (radiation) parts of the 3D distortion and velocity.
LINE_DEFECTS = {"antiplane_rate": "antiplane", "inplane_u_on_l_rows": "inplane",
                "beta_acc": "beta", "v_acc": "_v"}


def _inject_line_defect(monkeypatch, defect, eps):
    """Scale the part of the fields named by ``defect`` by 1 + eps."""
    if defect == "antiplane_rate":
        kernel = lineforce2d._antiplane_kernel

        def scaled(g, q):
            u, rate = kernel(g, q)
            return u, lambda *args: rate(*args) * (1.0 + eps)

        monkeypatch.setattr(lineforce2d, "_antiplane_kernel", scaled)
    elif defect == "inplane_u_on_l_rows":
        kernel = lineforce2d._inplane_kernel

        def scaled(g, q, kT, kL2):
            u, rate = kernel(g, q, kT, kL2)
            return np.where((g.kappa != kT)[:, None], u * (1.0 + eps), u), rate

        monkeypatch.setattr(lineforce2d, "_inplane_kernel", scaled)
    else:  # a block of the 39-column layout of the 3D field terms
        terms, cols = pointforce3d._field_terms, {"beta_acc": slice(21, 30),
                                                  "v_acc": slice(36, 39)}[defect]

        def scaled(*args):
            out = terms(*args)
            out[:, cols] *= 1.0 + eps
            return out

        monkeypatch.setattr(pointforce3d, "_field_terms", scaled)


def test_line_descent_passes_every_defect_at_zero(monkeypatch):
    for defect in LINE_DEFECTS:
        _inject_line_defect(monkeypatch, defect, 0.0)
    assert verify.check_line_descent(seed=0, n_cases=1).passed


@pytest.mark.parametrize("defect", LINE_DEFECTS)
def test_line_descent_catches_a_defect_of_1e_6(monkeypatch, defect):
    # The first case of the check is an accelerated source seen while its
    # T retarded time lies inside the bump, so the L segment carries force.
    _inject_line_defect(monkeypatch, defect, 1e-6)
    rep = verify.check_line_descent(seed=0, n_cases=1)
    assert not rep.passed
    dev, part = rep.details[0], LINE_DEFECTS[defect]
    assert all(err <= rep.tolerance for name, err in dev.items() if part not in name), dev
    assert max(err for name, err in dev.items() if part in name) > 1e-7, dev

def test_inject_corruption_fails_the_2d_navier_check():
    bad, = run_check_suite(names=["navier_residual_2d"], seed=0, corrupt=True)
    assert bad.name == "navier_residual_2d_corrupted" and bad.n_samples == 4
    assert not bad.passed and bad.max_rel_err > 1e-2


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
    u_sharp = lw_fields(MAT, traj, prof, x, t, rel_tol=1e-12).u
    u_eps = mollified_convolution_u(MAT, traj, prof, x, t, eps=1.2e-3 * 1.2 / MAT.cT)
    np.testing.assert_allclose(u_eps, u_sharp, rtol=1e-4)


def test_mollified_halving_shrinks_error_4x():
    traj = oscillatory_trajectory([0, 0, 0], [0.15, 0, 0], 1.2)
    prof = bump_force([0.4, 0.8, 0.3], center=1.0, half_width=1.0)
    x = np.array([0.9, 0.7, 0.4])
    t = 1.0 + np.linalg.norm(x - traj.eval(1.0)[0]) / MAT.cT
    u_sharp = lw_fields(MAT, traj, prof, x, t, rel_tol=1e-12).u
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
