import dataclasses
import inspect
import math

import numpy as np
import pytest

from elastowave import pointforce3d
from elastowave.errors import SingularPointError, SupersonicError
from elastowave.kinematics import (
    bump_force,
    constant_force,
    oscillatory_trajectory,
    ramp_force,
    retarded_time,
    sinusoid_force,
    static_trajectory,
    step_force,
    uniform_trajectory,
)
from elastowave.material import make_material_poisson
from elastowave.pointforce3d import (
    _FAR_GA,
    _FAR_GB,
    _FAR_M,
    _MID_GA,
    _MID_GB,
    _MID_M,
    _field_terms,
    kelvin_displacement,
    kelvin_gradient,
    lw_fields,
    stokes_displacement,
    stokes_gradient,
    stokes_gradient_split,
)
from elastowave.quadrature import adaptive_gauss_legendre
from elastowave.verify import check_uniform_motion_oracle, fd_consistency

MAT = make_material_poisson(rho=1.0, mu=1.0, nu=0.25)  # cT = 1, cL = sqrt(3)
TOL = 1e-12


# ---------------------------------------------------------------------------
# closed forms

def test_kelvin_axial_point():
    u = kelvin_displacement(MAT, [0, 0, 1], [0, 0, 1])
    np.testing.assert_allclose(u, [0, 0, 1 / (4 * math.pi)], rtol=1e-15)


def test_kelvin_transverse_point():
    u = kelvin_displacement(MAT, [0, 0, 1], [1, 0, 0])
    np.testing.assert_allclose(u, [0, 0, 1 / (6 * math.pi)], rtol=1e-15)


def test_kelvin_gradient_axial():
    b = kelvin_gradient(MAT, [0, 0, 1], [0, 0, 1])
    assert b[2, 2] == pytest.approx(-1 / (4 * math.pi), rel=1e-15)


def test_kelvin_zero_force():
    assert np.all(kelvin_displacement(MAT, [0, 0, 0], [1, 1, 1]) == 0)
    assert np.all(kelvin_gradient(MAT, [0, 0, 0], [1, 1, 1]) == 0)


def test_kelvin_singular_point():
    with pytest.raises(SingularPointError):
        kelvin_displacement(MAT, [0, 0, 1], [0, 0, 0])


def test_stokes_constant_equals_kelvin():
    prof = constant_force([0.3, -0.2, 1.0])
    rvec = np.array([0.7, 0.2, -1.1])
    u = stokes_displacement(MAT, prof, rvec, t=2.0)
    b = stokes_gradient(MAT, prof, rvec, t=2.0)
    np.testing.assert_allclose(u, kelvin_displacement(MAT, prof.eval(0.0)[0], rvec), rtol=1e-13)
    np.testing.assert_allclose(b, kelvin_gradient(MAT, prof.eval(0.0)[0], rvec), rtol=1e-13, atol=1e-16)


def test_stokes_causality():
    prof = step_force([0, 0, 1.0], t_on=0.0)
    rvec = np.array([0, 0, 2.0])
    # L-front arrives at R/cL = 2/sqrt(3) ~ 1.1547
    assert np.all(stokes_displacement(MAT, prof, rvec, t=1.0) == 0)
    assert np.any(stokes_displacement(MAT, prof, rvec, t=1.2) != 0)


@pytest.mark.parametrize("fraction", [0.002, 0.01, 0.5, 0.998])
def test_stokes_step_switch_on_inside_the_shell(fraction):
    # Between the fronts, a unit step along z switched on at t_on = 0 has
    # reached the slowness moment only for kappa <= kappa_on = t/r, so
    # int kappa Q dkappa = (kappa_on^2 - kL^2)/2 along z. With n along x
    # the displacement is that moment alone: u = -I/(4 pi rho r).
    kL, kT = 1.0 / MAT.cL, 1.0 / MAT.cT
    r = 2.0
    kappa_on = kL + fraction * (kT - kL)
    prof = step_force([0, 0, 1.0], t_on=0.0)
    u = stokes_displacement(MAT, prof, [r, 0, 0], kappa_on * r)
    moment = 0.5 * (kappa_on ** 2 - kL ** 2)
    np.testing.assert_allclose(u, [0, 0, -moment / (4 * math.pi * MAT.rho * r)], rtol=1e-12,
                               atol=0)


def test_stokes_gradient_qdot_far_field_scaling():
    # rate-driven part decays as 1/R: doubling R halves the RMS amplitude.
    # A transverse force keeps the longitudinal retardation out of the
    # amplitude, so the period-RMS ratio is free of L-T interference.
    nhat = np.array([0.2, 0.3, 0.933])
    nhat /= np.linalg.norm(nhat)
    q0 = np.cross(nhat, [0.0, 0.0, 1.0])
    prof = sinusoid_force(q0, omega=2.0)
    R = 1e5

    def rms_qdot(radius):
        period = math.pi
        vals = []
        for j in range(64):
            parts = stokes_gradient_split(
                MAT, prof, radius * nhat, 1.0 + period * j / 64, parts=("qdot",)
            )
            vals.append(np.linalg.norm(parts["qdot"]))
        return math.sqrt(np.mean(np.square(vals)))

    ratio = rms_qdot(2 * R) / rms_qdot(R)
    assert ratio == pytest.approx(0.5, rel=1e-3)


# ---------------------------------------------------------------------------
# slowness integration

def test_lw_third_term_static_analytic():
    # with a static source and constant force the slowness term of the
    # displacement has the closed antiderivative (kT^2 - kL^2)/2 * (3nn - I)Q/R
    traj = static_trajectory([0, 0, 0])
    prof = constant_force([0.0, 0.4, 1.0])
    x = np.array([0.3, -0.2, 1.2])
    r = np.linalg.norm(x)
    n = x / r
    q = prof.eval(0.0)[0]
    kL, kT = 1 / MAT.cL, 1 / MAT.cT
    expected = (kT ** 2 - kL ** 2) / 2 * (3 * n * (n @ q) - q) / r

    def f(kappas):
        from elastowave.kinematics import retarded_time

        st = retarded_time(traj, x, 5.0, kappas)
        gq = 3 * st.n * (st.n @ q)[:, None] - q
        return (kappas / st.pc)[:, None] * gq

    val = adaptive_gauss_legendre(f, kL, kT, rel_tol=1e-13)
    np.testing.assert_allclose(val, expected, rtol=1e-12)


# ---------------------------------------------------------------------------
# channel kernel against the row-major formulas

def _field_terms_rowmajor(st, prof, p, ga, gb, m):
    """The channel kernel written on (n, 3) rows with einsum outer products."""
    ga, gb, m = (np.reshape(c, (-1, 1)) if np.ndim(c) else c for c in (ga, gb, m))
    q, qd = prof.eval(st.t_ret)
    mask = st.valid[:, None]
    q, qd = q * mask, qd * mask
    k, rv, r, pc, v, a = st.slowness, st.rvec, st.r, st.pc, st.v, st.a
    n_rows = rv.shape[0]

    def project(vec):
        return ga * vec + gb * np.einsum("ni,ni->n", st.n, vec)[:, None] * st.n

    def outer(u1, u2):
        return np.einsum("ni,nk->nik", u1, u2)

    def dot(u1, u2):
        return np.einsum("ni,ni->n", u1, u2)

    gq, gqd = project(q), project(qd)
    rq, vq, vr, ar, vv = dot(rv, q), dot(v, q), dot(v, rv), dot(a, rv), dot(v, v)
    m, p = np.reshape(m, -1), np.reshape(p, -1)
    pc2, pc3, r2 = pc * pc, pc * pc * pc, r * r
    u = (p / pc)[:, None] * gq
    b_qdot = (p * k / pc2)[:, None, None] * outer(gqd, rv)
    b_acc = (p * k * k * ar / pc3)[:, None, None] * outer(gq, rv)
    eye = np.broadcast_to(np.eye(3), (n_rows, 3, 3))
    geom = (
        (rq / (r2 * pc))[:, None, None] * (eye + (k / pc)[:, None, None] * outer(v, rv))
        + outer(rv, q + ((k * vq / pc)[:, None] * rv)) / (r2 * pc)[:, None, None]
        - (2.0 * rq / (r2 * r * pc2))[:, None, None] * outer(rv, rv)
    )
    b_vel = (p / pc3)[:, None, None] * outer(
        gq, (1.0 - k * k * vv)[:, None] * rv - (k * pc)[:, None] * v
    ) + (p * m)[:, None, None] * geom
    v_qdot = (p * r / pc2)[:, None] * gqd
    v_acc = (p * k * r * ar / pc3)[:, None] * gq
    geom_v = (rq[:, None] * v + vq[:, None] * rv) / (r * pc2)[:, None] - (
        2.0 * vr * rq / (r2 * r * pc2)
    )[:, None] * rv
    v_vel = (p * (vr - k * r * vv) / pc3)[:, None] * gq + (p * m)[:, None] * geom_v
    return np.concatenate([u, b_qdot.reshape(n_rows, 9), b_vel.reshape(n_rows, 9),
                           b_acc.reshape(n_rows, 9), v_qdot, v_vel, v_acc], axis=1)


def _assert_kernel_matches(st, prof, p, ga, gb, m):
    got = _field_terms(st, prof, p, ga, gb, m)
    ref = _field_terms_rowmajor(st, prof, p, ga, gb, m)
    assert got.shape == ref.shape
    # Relative to each row's largest entry of each block.
    for lo, hi in ((0, 3), (3, 12), (12, 21), (21, 30), (30, 33), (33, 36), (36, 39)):
        scale = np.max(np.abs(ref[:, lo:hi]), axis=1, keepdims=True)
        assert np.all(np.abs(got[:, lo:hi] - ref[:, lo:hi]) <= 1e-14 * scale)
    return ref


def test_channel_kernel_matches_rowmajor_formulas():
    rng = np.random.default_rng(5)
    kL, kT = 1 / MAT.cL, 1 / MAT.cT
    traj = oscillatory_trajectory([0, 0, 0], [0.25, 0.1, -0.15], 1.7, 0.3)
    prof = sinusoid_force([0.4, -1.0, 0.7], omega=1.3, phase=0.2)  # Qdot != 0
    n = 64
    xs = rng.uniform(-3.0, 3.0, size=(n, 3))
    ts = rng.uniform(-1.0, 4.0, size=n)
    # intermediate rows
    kappas = rng.uniform(kL, kT, size=n)
    st = retarded_time(traj, xs, ts, kappas)
    ref = _assert_kernel_matches(st, prof, kappas, _MID_GA, _MID_GB, _MID_M)
    assert np.all(ref[:, 3:12] != 0) and np.all(ref[:, 21:30] != 0)
    # far rows: transversal and longitudinal alternate, with per-row ga, gb and m
    far = np.tile([kT, kL], n)
    st = retarded_time(traj, np.repeat(xs, 2, axis=0), np.repeat(ts, 2), far)
    _assert_kernel_matches(st, prof, far * far, np.tile(_FAR_GA, n), np.tile(_FAR_GB, n),
                           np.tile(_FAR_M, n))


def test_channel_kernel_masks_rows_before_the_worldline():
    # The slowness window of an event inside the P-S shell of the first
    # knot crosses domain[0]: those rows carry no force, although the
    # sinusoid does not vanish at domain[0].
    from elastowave.kinematics import tabulated_trajectory

    ts = np.linspace(0.0, 8.0, 41)
    tab = tabulated_trajectory(ts, np.column_stack([0.2 * np.sin(ts), 0.1 * np.cos(ts), 0 * ts]))
    prof = sinusoid_force([0.4, -1.0, 0.7], omega=1.3, phase=0.2)
    kappas = np.linspace(1 / MAT.cL, 1 / MAT.cT, 33)
    st = retarded_time(tab, [1.4, 0.6, -0.3], 1.2, kappas)
    assert 0 < st.valid.sum() < kappas.size
    ref = _assert_kernel_matches(st, prof, kappas, _MID_GA, _MID_GB, _MID_M)
    assert np.all(ref[~st.valid] == 0) and np.all(_field_terms(
        st, prof, kappas, _MID_GA, _MID_GB, _MID_M)[~st.valid] == 0)


# ---------------------------------------------------------------------------
# moving-force fields

def test_static_limit_matches_stokes():
    traj = static_trajectory([0.2, -0.1, 0.3])
    prof = sinusoid_force([0.5, 0.2, -1.0], omega=1.3, phase=0.2)
    x = np.array([1.1, 0.7, -0.4])
    t = 1.7
    rvec = x - traj.eval(0.0)[0]
    s = lw_fields(MAT, traj, prof, x, t, rel_tol=TOL)
    np.testing.assert_allclose(s.u, stokes_displacement(MAT, prof, rvec, t), rtol=1e-10)
    np.testing.assert_allclose(s.beta, stokes_gradient(MAT, prof, rvec, t), rtol=1e-10)


def test_kelvin_worked_value_through_lw():
    traj = static_trajectory([0, 0, 0])
    prof = constant_force([0, 0, 1])
    s = lw_fields(MAT, traj, prof, [0, 0, 1.0], 5.0, rel_tol=TOL)
    np.testing.assert_allclose(s.u, [0, 0, 1 / (4 * math.pi)], rtol=1e-13)
    assert s.beta[2, 2] == pytest.approx(-1 / (4 * math.pi), rel=1e-13)
    np.testing.assert_allclose(s.v, 0.0, atol=1e-16)


def test_before_arrival_is_exact_zero():
    traj = oscillatory_trajectory([0, 0, 0], [0.2, 0, 0], 1.0)
    prof = step_force([0, 0, 1.0], t_on=0.0)
    x = np.array([0, 0, 3.0])
    # L-front from switch-on arrives at |x - s(0)|/cL = 3/sqrt(3) ~ 1.73
    s = lw_fields(MAT, traj, prof, x, 1.0, rel_tol=TOL)
    assert np.all(s.u == 0) and np.all(s.beta == 0) and np.all(s.v == 0)
    assert np.any(lw_fields(MAT, traj, prof, x, 2.0, rel_tol=TOL).u != 0)


def test_fd_consistency_single_case():
    traj = oscillatory_trajectory([0, 0, 0], [0.15, 0.1, 0.05], 1.2, 0.3)
    prof = sinusoid_force([0.4, -0.2, 0.9], omega=0.8, phase=0.5)
    x = np.array([1.3, -0.6, 0.8])
    t = 2.2
    s = lw_fields(MAT, traj, prof, x, t, rel_tol=TOL)
    h = 2e-3

    def d1(g):
        def central(hh):
            return (g(-2 * hh) - 8 * g(-hh) + 8 * g(hh) - g(2 * hh)) / (12 * hh)

        return (16 * central(h / 2) - central(h)) / 15

    beta_fd = np.column_stack([
        d1(lambda e: lw_fields(MAT, traj, prof, x + e * np.eye(3)[k], t, rel_tol=TOL).u)
        for k in range(3)
    ])
    v_fd = d1(lambda e: lw_fields(MAT, traj, prof, x, t + e, rel_tol=TOL).u)
    np.testing.assert_allclose(s.beta, beta_fd, atol=1e-9 * np.max(np.abs(beta_fd)))
    np.testing.assert_allclose(s.v, v_fd, atol=1e-9 * np.max(np.abs(v_fd)))


def test_parts_sum_to_totals():
    traj = oscillatory_trajectory([0, 0, 0], [0.2, 0, 0.1], 1.4)
    prof = ramp_force([0.2, 0.1, 1.0], t_on=0.0)
    s = lw_fields(MAT, traj, prof, [1.2, 0.4, -0.6], 3.1, rel_tol=TOL)
    np.testing.assert_allclose(
        s.beta, sum(s.beta_parts.values()), rtol=0, atol=1e-15
    )
    np.testing.assert_allclose(s.v, sum(s.v_parts.values()), rtol=0, atol=1e-15)


def test_uniform_motion_has_no_acceleration_part():
    traj = uniform_trajectory([0, 0, 0], [0.3, 0.2, 0.0])
    prof = sinusoid_force([1.0, 0, 0.5], omega=1.1)
    s = lw_fields(MAT, traj, prof, [1.5, -0.5, 0.8], 2.0, rel_tol=TOL)
    assert np.all(s.beta_parts["acc"] == 0)
    assert np.all(s.v_parts["acc"] == 0)


def test_constant_force_has_no_qdot_part():
    traj = oscillatory_trajectory([0, 0, 0], [0.2, 0, 0], 1.0)
    prof = constant_force([1.0, 0.2, 0.5])
    s = lw_fields(MAT, traj, prof, [1.5, -0.5, 0.8], 2.0, rel_tol=TOL)
    assert np.all(s.beta_parts["qdot"] == 0)
    assert np.all(s.v_parts["qdot"] == 0)


def test_uniform_motion_near_field_scaling():
    # steady co-moving field: distortion is exactly degree -2 homogeneous
    traj = uniform_trajectory([0, 0, 0], [0.4, 0.0, 0.0])
    prof = constant_force([0.0, 0.0, 1.0])
    t = 0.0
    nhat = np.array([0.6, 0.64, 0.48])
    nhat /= np.linalg.norm(nhat)
    b1 = lw_fields(MAT, traj, prof, 2.0 * nhat, t, rel_tol=TOL).beta
    b2 = lw_fields(MAT, traj, prof, 4.0 * nhat, t, rel_tol=TOL).beta
    assert np.linalg.norm(b1) / np.linalg.norm(b2) == pytest.approx(4.0, rel=1e-9)


def test_velocity_of_uniform_steady_field_translates():
    # for a steady co-moving field, v = -(V . grad) u exactly
    traj = uniform_trajectory([0, 0, 0], [0.35, 0, 0])
    prof = constant_force([0.2, 0.1, 1.0])
    x = np.array([1.0, 0.8, -0.5])
    s = lw_fields(MAT, traj, prof, x, 0.0, rel_tol=TOL)
    v_expected = -s.beta @ np.array([0.35, 0, 0])
    np.testing.assert_allclose(s.v, v_expected, rtol=1e-10)


def test_supersonic_trajectory_rejected():
    traj = uniform_trajectory([0, 0, 0], [1.2, 0, 0])
    prof = constant_force([0, 0, 1])
    with pytest.raises(SupersonicError):
        lw_fields(MAT, traj, prof, [1, 1, 1], 0.0)


def test_nan_vmax_rejected():
    # NaN fails every comparison, so a check written as vmax >= cT lets
    # it through; the subsonic proof must fail on it instead.
    traj = dataclasses.replace(uniform_trajectory([0, 0, 0], [0.5, 0, 0]), vmax=math.nan)
    with pytest.raises(SupersonicError, match="supersonic trajectory"):
        lw_fields(MAT, traj, constant_force([0, 0, 1]), [1, 1, 1], 0.0)


@pytest.fixture(scope="module")
def uniform_oracle_report():
    return check_uniform_motion_oracle(seed=11)


@pytest.mark.parametrize("frac", [0.3, 0.95, 0.99, 0.999])
def test_uniform_motion_closed_form_oracle(uniform_oracle_report, frac):
    # Five observers at most 70 degrees off the line of motion, u, beta and
    # v within 1e-11 of the closed form and its complex-step derivatives;
    # the oracle's GL64 rule within 1e-14 of GL128.
    assert uniform_oracle_report.passed, uniform_oracle_report.details
    (d,) = [d for d in uniform_oracle_report.details if d["speed"] == frac]
    assert max(d["u_rel_err"], d["beta_rel_err"], d["v_rel_err"]) == d["max_rel_err"]
    assert d["max_rel_err"] <= 1e-11 and d["gl64_vs_gl128"] <= 1e-14


def test_uniform_motion_oracle_catches_a_velocity_term(monkeypatch):
    # Scale the V (x) w2 term of b_vel, which vanishes for a static source,
    # by 1 + 1e-9: u and v are untouched, and beta fails the check.
    source = inspect.getsource(pointforce3d._field_terms)
    term = "b_vel += v[:, None] * ((s * k / pc) * rv)[None]"
    assert source.count(term) == 1
    namespace = dict(vars(pointforce3d))
    exec(source.replace(term, f"b_vel += (1.0 + 1e-9) * {term[len('b_vel += '):]}"), namespace)
    monkeypatch.setattr(pointforce3d, "_field_terms", namespace["_field_terms"])
    report = check_uniform_motion_oracle(seed=11)
    assert not report.passed
    assert all(d["u_rel_err"] <= 1e-11 and d["v_rel_err"] <= 1e-11 for d in report.details)
    assert max(d["beta_rel_err"] for d in report.details) > 5e-11


def test_fd_consistency_near_sonic():
    # Analytic distortion and velocity stay consistent with the differenced
    # displacement on an oscillatory worldline at 0.999 cT.
    omega = 2.0
    traj = oscillatory_trajectory([0, 0, 0], [0.999 * MAT.cT / omega, 0, 0], omega, 0.4)
    prof = sinusoid_force([0.3, -0.5, 1.0], omega=1.5)
    x, t = np.array([0.7, 1.2, 1.9]), 1.0
    h = 0.02 / ((1.5 + 2.0 * omega) / MAT.cT + 2.0 / np.linalg.norm(x))
    s = lw_fields(MAT, traj, prof, x, t, rel_tol=TOL)
    fd = fd_consistency(lambda xx, tt: lw_fields(MAT, traj, prof, xx, tt, rel_tol=TOL).u,
                        x, t, h)
    scale = max(np.max(np.abs(fd.beta_fd)), np.max(np.abs(fd.v_fd)))
    assert traj.vmax == pytest.approx(0.999 * MAT.cT, rel=1e-15)
    assert np.max(np.abs(s.beta - fd.beta_fd)) <= 1e-8 * scale
    assert np.max(np.abs(s.v - fd.v_fd)) <= 1e-8 * scale


def test_huygens_pulse_passes_completely():
    traj = static_trajectory([0, 0, 0])
    prof = bump_force([0.5, 1.0, 0.2], center=1.0, half_width=1.0)
    x = np.array([1.0, 0, 0])
    # T tail passes at t_off + R/cT = 3
    assert np.any(lw_fields(MAT, traj, prof, x, 2.5, rel_tol=TOL).u != 0)
    assert np.all(lw_fields(MAT, traj, prof, x, 3.01, rel_tol=TOL).u == 0)


def test_tabulated_trajectory_matches_analytic():
    # a bounded worldline runs the same batched path as an analytic one; the
    # values must agree with the equivalent analytic trajectory, also for an
    # event inside the P-S shell of the switch-on, whose slowness window
    # reaches back before the first knot (a partially masked window)
    ts = np.linspace(0.0, 8.0, 161)
    amp, omega = 0.18, 1.1
    pos = np.column_stack([amp * np.sin(omega * ts), np.zeros(161), np.zeros(161)])
    from elastowave.kinematics import tabulated_trajectory

    tab = tabulated_trajectory(ts, pos)
    ana = oscillatory_trajectory([0, 0, 0], [amp, 0, 0], omega)
    prof = step_force([0.2, 0, 1.0], t_on=0.0)
    x = np.array([1.4, 0.6, -0.3])
    for t in (5.0, 1.2):  # 1.2 lies between the P (0.90) and S (1.55) arrivals
        s_tab = lw_fields(MAT, tab, prof, x, t, rel_tol=TOL)
        s_ana = lw_fields(MAT, ana, prof, x, t, rel_tol=TOL)
        assert np.any(s_tab.u != 0)
        # spline interpolation of the worldline limits the agreement, not the solver
        np.testing.assert_allclose(s_tab.u, s_ana.u, rtol=1e-6)
        np.testing.assert_allclose(s_tab.beta, s_ana.beta, rtol=1e-4)


def test_tabulated_unreachable_history_gives_zero():
    # roots before the first knot carry no force (Q = 0 there by contract),
    # so the field contribution is exactly zero rather than an error
    from elastowave.kinematics import tabulated_trajectory

    ts = np.linspace(0.0, 4.0, 41)
    tab = tabulated_trajectory(ts, np.zeros((41, 3)))
    prof = step_force([0, 0, 1.0], t_on=0.0)
    x = np.array([0, 0, 10.0])  # L-arrival at 10/sqrt(3) > 4 never observed
    s = lw_fields(MAT, tab, prof, x, 4.0, rel_tol=TOL)
    assert np.all(s.u == 0) and np.all(s.beta == 0) and np.all(s.v == 0)
