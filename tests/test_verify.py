import numpy as np
import pytest

from elastowave.errors import ConfigError, RetardedConvergenceError, SupersonicError
from elastowave.material import make_material, make_material_poisson
from elastowave.pointforce3d import kelvin_displacement, kelvin_gradient
from elastowave import verify
from elastowave.verify import (
    CHECKS,
    CheckReport,
    fd_consistency,
    navier_residual,
    run_check_suite,
)
from test_mutants import FIELD_BLOCKS, inject

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


def test_pulse_oracle_passes_every_block_at_zero(monkeypatch):
    for block in FIELD_BLOCKS:
        inject(monkeypatch, block, 0.0)
    rep, = run_check_suite(names=["pulse_oracle"], seed=0)
    assert rep.passed, rep.details


@pytest.mark.parametrize("block", FIELD_BLOCKS)
def test_pulse_oracle_catches_a_block_scaled_by_1e_6(monkeypatch, block):
    inject(monkeypatch, block, 1e-6)
    rep, = run_check_suite(names=["pulse_oracle"], seed=0)
    assert not rep.passed and rep.max_rel_err > 1e-8, rep.details


def test_pulse_oracle_refuses_a_window_across_the_support_end(monkeypatch):
    # The static case seen when t_off lies at the middle slowness of its
    # history window [t_T, t_L], where the bump is not analytic.
    label, (mat, traj, prof, lags, force, x, _) = verify._pulse_cases(0)[0]
    t = prof.t_off + 0.5 * np.linalg.norm(x) * (1.0 / mat.cT + 1.0 / mat.cL)
    t_T, t_L = lags(x, t, np.array([1.0 / mat.cT, 1.0 / mat.cL]))[0]
    assert t_T < prof.t_off < t_L
    monkeypatch.setattr(verify, "_pulse_cases",
                        lambda seed: [(label, (mat, traj, prof, lags, force, x, t))])
    with pytest.raises(ValueError, match="support"):
        verify.check_pulse_oracle(seed=0)


def test_newton_lags_raise_when_the_budget_is_spent():
    x, t, k = np.array([1.2, -0.4, 0.3]), 2.0, np.array([1.0, 0.6])
    lags = verify._newton_lags(np.array([0.3, 0.1, 0.0]), 1.3, 0.2, max_iter=2)
    with pytest.raises(RetardedConvergenceError):
        lags(x, t, k)
    tp, s, _ = verify._newton_lags(np.array([0.3, 0.1, 0.0]), 1.3, 0.2)(x, t, k)
    np.testing.assert_allclose(t - tp, k * np.linalg.norm(x - s, axis=1), rtol=1e-14)


def test_rel_err_of_an_all_zero_reference():
    assert verify._rel_err([0.0, 2e-3], [0.0, 0.0]) == 1.0
    assert verify._rel_err(np.zeros(3), np.zeros(3)) == 0.0
    assert verify._rel_err([0.0, 2e-3], 0.0, floor=4e-3) == 0.5
    assert verify._rel_err([1.0, 3.0], [1.0, 2.0]) == 0.5


# Defects of ``test_mutants.DEFECTS`` that ``line_descent`` must catch at
# 1e-6, each with the part of its report keys that it may move: the
# anti-plane rate, the in-plane u kernel on L rows (which also enters v
# through the end term at t_T), and the acceleration (radiation) parts of
# the 3D distortion and velocity.
LINE_DEFECTS = {"antiplane_rate": "antiplane", "inplane_u_on_l_rows": "inplane",
                "beta_acc": "beta", "v_acc": "_v"}


def test_line_descent_passes_every_defect_at_zero(monkeypatch):
    for defect in LINE_DEFECTS:
        inject(monkeypatch, defect, 0.0)
    assert verify.check_line_descent(seed=0, n_cases=1).passed


@pytest.mark.parametrize("defect", LINE_DEFECTS)
def test_line_descent_catches_a_defect_of_1e_6(monkeypatch, defect):
    # The first case of the check is an accelerated source seen while its
    # T retarded time lies inside the bump, so the L segment carries force.
    inject(monkeypatch, defect, 1e-6)
    rep = verify.check_line_descent(seed=0, n_cases=1)
    assert not rep.passed
    dev, part = rep.details[0], LINE_DEFECTS[defect]
    assert all(err <= rep.tolerance for name, err in dev.items() if part not in name), dev
    assert max(err for name, err in dev.items() if part in name) > 1e-7, dev


def test_inject_corruption_fails_the_2d_navier_check(monkeypatch):
    inject(monkeypatch, "u1")  # u1 scaled by 1.1
    bad, = run_check_suite(names=["navier_residual_2d"], seed=0)
    assert bad.name == "navier_residual_2d" and bad.n_samples == 4
    assert not bad.passed and bad.max_rel_err > 1e-2


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


def test_quick_sizes_name_registered_checks():
    # ``run_check_suite`` looks its sizes up by check name, so a size left
    # under an old name would run that check at its full size.
    assert set(verify._QUICK_SIZES) <= set(CHECKS)
