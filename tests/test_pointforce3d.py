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
    retarded_time_bisection,
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
    lw_fields_batch,
    stokes_displacement,
    stokes_gradient,
    stokes_gradient_split,
)
from elastowave.quadrature import adaptive_gauss_legendre
from elastowave.verify import _uniform_oracle_fields, check_uniform_motion_oracle, fd_consistency

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


@pytest.mark.parametrize("frac", [0.3, 0.95, 0.99, 0.999])
def test_uniform_motion_sinusoid_oracle(uniform_oracle_report, frac):
    # A force q0 sin(1.3 t' + 0.4), five observers behind the source: the
    # rate parts of beta and v against the complex-step derivatives. The
    # oracle's GL64 rule is within 2e-14 of GL128 here, so it gets its own
    # bound rather than the constant force's 1e-14.
    (d,) = [d for d in uniform_oracle_report.details if d["speed"] == frac]
    errs = [d[f"sinusoid_{name}_rel_err"] for name in ("u", "beta", "v")]
    assert max(errs) == d["sinusoid_max_rel_err"] <= 1e-11
    assert d["sinusoid_gl64_vs_gl128"] <= 1e-11


def _patch_field_terms(monkeypatch, term, replacement):
    """Patch pointforce3d._field_terms with its one ``term`` replaced."""
    source = inspect.getsource(pointforce3d._field_terms)
    assert source.count(term) == 1
    namespace = dict(vars(pointforce3d))
    exec(source.replace(term, replacement), namespace)
    monkeypatch.setattr(pointforce3d, "_field_terms", namespace["_field_terms"])


def test_uniform_motion_oracle_catches_a_velocity_term(monkeypatch):
    # Scale the V (x) w2 term of b_vel, which vanishes for a static source,
    # by 1 + 1e-9: u and v are untouched, and beta fails the check.
    term = "b_vel += v[:, None] * ((s * k / pc) * rv)[None]"
    _patch_field_terms(monkeypatch, term, f"b_vel += (1.0 + 1e-9) * {term[len('b_vel += '):]}")
    report = check_uniform_motion_oracle(seed=11)
    assert not report.passed
    assert all(d["u_rel_err"] <= 1e-11 and d["v_rel_err"] <= 1e-11 for d in report.details)
    assert max(d["beta_rel_err"] for d in report.details) > 5e-11


def test_uniform_motion_oracle_catches_a_rate_term(monkeypatch):
    # Scale b_qdot, the force-rate part of beta, by 1 + 1e-9: a constant
    # force has no rate part, so only the sinusoid's beta fails the check.
    term = "((p * k / pc2) * rv)[None], out=b_qdot"
    _patch_field_terms(monkeypatch, term, f"((1.0 + 1e-9) * {term[1:]}")
    report = check_uniform_motion_oracle(seed=11)
    assert not report.passed
    assert all(d["max_rel_err"] <= 1e-11 for d in report.details)
    assert all(d["sinusoid_u_rel_err"] <= 1e-11 and d["sinusoid_v_rel_err"] <= 1e-11
               for d in report.details)
    assert max(d["sinusoid_beta_rel_err"] for d in report.details) > 5e-11


def test_near_sonic_sinusoid_ahead_of_the_source():
    # Ahead of the source at 0.999 cT the history window spans hundreds of
    # force periods, and near 1/cT t' moves by up to ~1e6 per unit
    # slowness, so the slowness integrand is too steep to converge there.
    # In retarded time the force's periods are evenly spread: the window
    # takes about 4,200 nodes and sits 1.9e-11 (u) and 4.7e-11 (beta, v)
    # from the closed form, whose GL4000 and GL8000 rules agree to 2e-13.
    vel, q = np.array([0.999, 0.0, 0.0]), np.array([0.0, 0.0, 1.0])
    x = np.array([1.0, 0.3, 0.0])
    fs = lw_fields(MAT, uniform_trajectory([0, 0, 0], vel), sinusoid_force(q, 1.0, 0.0), x, 0.0)
    ref = _uniform_oracle_fields(MAT, vel, lambda tp: np.multiply.outer(np.sin(tp), q), x, 0.0,
                                 4000)
    for got, want in zip((fs.u, fs.beta, fs.v), ref):
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


@pytest.mark.parametrize("t", [4.497, 1.869025])
def test_bump_tail_window(t):
    # The event's history window holds only the far tail of the bump
    # (xi = 0.997-0.9985), where Q is about 1e-77 of its peak and one ulp
    # of t' changes Q by 2.5-4.4e-11 relative, above rel_tol. The error
    # floor from the force's scale (``ForceProfile.scale``) ends the
    # refinement there; a relative-only test never did.
    prof = bump_force([0.3, -0.5, 1.0], center=2.0, half_width=1.0)
    fs = lw_fields(MAT, static_trajectory([0, 0, 0]), prof, [0.0, 0.0, 1.5], t)
    assert np.all(np.isfinite(fs.u))


@pytest.mark.parametrize("traj", [static_trajectory([0, 0, 0]),
                                  oscillatory_trajectory([0, 0, 0], [0.3, 0.15, 0.0], 1.0, 0.2)],
                         ids=["static", "oscillatory"])
def test_bump_tail_scan(traj):
    # 160 events whose windows hold only a tail of the bump: 1e-4 to 0.03
    # behind the P front of its switch-on and ahead of the S front of its
    # switch-off, at two observers. Without the force-scale floor 57 of
    # the 320 events of both sources raise QuadratureError; with it the
    # batch converges, and the far tails that underflow are exact zeros.
    # The static closed forms take the same floor, so they converge on
    # every event and agree with the batch.
    prof = bump_force([0.3, -0.5, 1.0], center=2.0, half_width=1.0)
    deltas = np.geomspace(1e-4, 0.03, 40)
    xs, ts = [], []
    for x in (np.array([0.0, 0.0, 1.5]), np.array([1.1, 0.6, -0.4])):
        t_p = prof.t_on + np.linalg.norm(x - traj.eval(prof.t_on)[0]) / MAT.cL
        t_s = prof.t_off + np.linalg.norm(x - traj.eval(prof.t_off)[0]) / MAT.cT
        ts.extend(np.concatenate([t_p + deltas, t_s - deltas]))
        xs.extend([x] * 2 * deltas.size)
    xs, ts = np.array(xs), np.array(ts)
    fs, masked = lw_fields_batch(MAT, traj, prof, xs, ts)
    assert not masked.any()
    for field in (fs.u, fs.beta, fs.v):
        assert np.all(np.isfinite(field))
    assert 0 < np.count_nonzero(np.all(fs.u == 0.0, axis=1)) < len(ts)
    if traj.kind == "static":
        # Against the size scale |q0| kT^2 / (4 pi rho R) of the far T term.
        r = np.linalg.norm(xs, axis=1)
        scale = np.linalg.norm([0.3, -0.5, 1.0]) / (MAT.cT ** 2 * 4 * math.pi * MAT.rho * r)
        u = np.array([stokes_displacement(MAT, prof, x, t) for x, t in zip(xs, ts)])
        beta = np.array([stokes_gradient(MAT, prof, x, t) for x, t in zip(xs, ts)])
        assert np.all(np.max(np.abs(fs.u - u), axis=1) <= 1e-12 * scale)
        assert np.all(np.max(np.abs(fs.beta - beta), axis=(1, 2)) <= 1e-12 * scale / r)


def _fixed_rule_fields(traj, prof, x, t):
    """lw_fields of one event by a fixed rule: 200 GL16 panels in kappa on [kL, kT].

    Every node solves its own retarded time with ``retarded_time``.
    """
    kL, kT = 1 / MAT.cL, 1 / MAT.cT
    z, w = np.polynomial.legendre.leggauss(16)
    edges = np.linspace(kL, kT, 201)
    half = 0.5 * np.diff(edges)[:, None]
    kappas = (edges[:-1, None] + half * (1.0 + z)).ravel()
    far = np.array([kT, kL])
    acc = _field_terms(retarded_time(traj, x, t, far), prof, far * far, _FAR_GA, _FAR_GB,
                       _FAR_M).sum(axis=0)
    acc += (half * w).ravel() @ _field_terms(retarded_time(traj, x, t, kappas), prof, kappas,
                                             _MID_GA, _MID_GB, _MID_M)
    return pointforce3d._field_sample(acc, MAT.rho)


def _newton_rows(monkeypatch):
    """Count the rows of every slowness-node Newton solve."""
    rows = []
    newton = pointforce3d._newton

    def counted(traj, xc, t, k, *args):
        rows.append(k.size)
        return newton(traj, xc, t, k, *args)

    monkeypatch.setattr(pointforce3d, "_newton", counted)
    return rows


@pytest.mark.parametrize("prof", [constant_force([0.3, -0.5, 1.0]),
                                  sinusoid_force([0.3, -0.5, 1.0], 1.5, 0.4)],
                         ids=["constant", "sinusoid"])
@pytest.mark.parametrize("traj", [oscillatory_trajectory([0, 0, 0], [0.3, 0.15, 0.0], 1.3, 0.2),
                                  uniform_trajectory([0.1, -0.2, 0.3], [0.5, 0.2, -0.1])],
                         ids=["oscillatory", "uniform"])
def test_break_free_windows_integrate_over_retarded_time(monkeypatch, traj, prof):
    # A window that no break or knot cuts is integrated over t' in
    # [t_T, t_L], with no Newton solve per node; its fields match a fixed
    # kappa rule whose nodes are solved one by one.
    rng = np.random.default_rng(1)
    xs, ts = rng.uniform(-2.0, 2.0, size=(6, 3)), rng.uniform(0.0, 3.0, size=6)
    rows = _newton_rows(monkeypatch)
    fs, masked = lw_fields_batch(MAT, traj, prof, xs, ts)
    assert not masked.any() and not rows
    for i, (x, t) in enumerate(zip(xs, ts)):
        ref = _fixed_rule_fields(traj, prof, x, t)
        for name in ("u", "beta", "v"):
            got, want = getattr(fs, name)[i], getattr(ref, name)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_time_nodes_are_the_roots_of_their_slowness():
    # A node t' in [t_T, t_L] takes kappa = (t - t')/R(t'), whose retarded
    # time is t' again; its geometry is that of a solved row.
    traj = oscillatory_trajectory([0, 0, 0], [0.3, 0.15, 0.0], 1.3, 0.2)
    x, t = np.array([1.1, -0.6, 0.8]), 2.7
    t_T, t_L = retarded_time(traj, x, t, np.array([1 / MAT.cT, 1 / MAT.cL])).t_ret
    tp = np.linspace(t_T, t_L, 9)
    st = pointforce3d._time_node_states(traj, np.repeat(x[:, None], tp.size, axis=1),
                                        np.full(tp.size, t), tp)
    assert np.all(np.diff(st.slowness) < 0) and not st.singular.any()
    for i, k in enumerate(st.slowness):
        ref = retarded_time_bisection(traj, x, t, k)
        assert abs(ref.t_ret - tp[i]) <= 1e-13
        assert st.pc[i] == pytest.approx(ref.pc, rel=1e-12)


def test_windows_with_a_break_or_a_knot_keep_the_slowness_path(monkeypatch):
    # A switch-on inside the window (an event in the P-S shell) or a knot
    # of the worldline between t_T and t_L keeps the Newton-solved slowness
    # nodes.
    from elastowave.kinematics import tabulated_trajectory

    rows = _newton_rows(monkeypatch)
    osc = oscillatory_trajectory([0, 0, 0], [0.3, 0.15, 0.0], 1.3, 0.2)
    step = step_force([0.3, -0.5, 1.0], 0.0)
    x = np.array([1.5, -0.7, 0.4])
    t = 0.5 * np.linalg.norm(x) * (1 / MAT.cL + 1 / MAT.cT)  # inside the shell
    lw_fields(MAT, osc, step, x, t)
    assert sum(rows) > 0
    rows.clear()
    lw_fields(MAT, osc, step, x, 6.0)  # behind both fronts: no break
    assert not rows
    # The same event on a spline: t' spans about [4.3, 5.0], which holds
    # the knot 4.5.
    times = np.linspace(0.0, 8.0, 17)
    tab = tabulated_trajectory(times, np.column_stack([0.2 * np.sin(times), 0.1 * np.cos(times),
                                                       0 * times]))
    lw_fields(MAT, tab, step, x, 6.0)
    assert sum(rows) > 0


def test_fd_consistency_near_sonic():
    # Analytic distortion and velocity stay consistent with the differenced
    # displacement on an oscillatory worldline at 0.999 cT.
    omega = 2.0
    traj = oscillatory_trajectory([0, 0, 0], [0.999 * MAT.cT / omega, 0, 0], omega, 0.4)
    prof = sinusoid_force([0.3, -0.5, 1.0], omega=1.5)
    x, t = np.array([0.7, 1.2, 1.9]), 1.0
    h = 0.02 / ((1.5 + 2.0 * omega) / MAT.cT + 2.0 / np.linalg.norm(x))
    s = lw_fields(MAT, traj, prof, x, t, rel_tol=TOL)
    fd = fd_consistency(lambda xs, ts: lw_fields_batch(MAT, traj, prof, xs, ts, rel_tol=TOL)[0].u,
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
