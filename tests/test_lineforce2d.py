import dataclasses
import math

import numpy as np
import pytest

from elastowave import lineforce2d, verify
from elastowave.errors import (
    SingularPointError,
    SupersonicError,
    UnboundedHistoryError,
    WavefrontProximityWarning,
)
from elastowave.kinematics import (
    bump_force,
    constant_force,
    oscillatory_trajectory,
    retarded_time,
    static_trajectory,
    step_force,
    tabulated_trajectory,
)
from elastowave.lineforce2d import (
    antiplane_fields,
    inplane_displacement,
    inplane_fields,
)
from elastowave.material import make_material
from elastowave.pointforce3d import lw_fields_batch
from elastowave.quadrature import integrate_intervals
from elastowave.verify import _descent_devs
from reference_fields import fd_consistency, inplane_static_step

MAT = make_material(rho=1.3, lam=0.9, mu=1.3)  # cT = 1
Q0 = 2.0 * math.pi * MAT.rho * MAT.cT ** 2


def _static_antiplane():
    return static_trajectory([0, 0, 0]), step_force([0, 0, Q0], t_on=0.0)


def _antiplane_u(mat, traj, prof, rel_tol):
    """u3 as a function of events (xs, ts), the contract of ``fd_consistency``."""
    return lambda xs, ts: [antiplane_fields(mat, traj, prof, x, t, rel_tol=rel_tol).u
                           for x, t in zip(xs, ts)]


# ---------------------------------------------------------------------------
# anti-plane

def test_antiplane_arccosh_value():
    traj, prof = _static_antiplane()
    t = math.cosh(1.0)  # u3 = arccosh(cT t / r) = 1 at r = 1
    u3 = antiplane_fields(MAT, traj, prof, [1.0, 0.0], t, rel_tol=1e-11).u
    assert u3 == pytest.approx(1.0, abs=1e-11)


def test_antiplane_before_arrival_and_zero_force():
    traj, prof = _static_antiplane()
    assert antiplane_fields(MAT, traj, prof, [2.0, 0.0], 1.0).u == 0.0
    zero = step_force([0, 0, 0.0], t_on=0.0)
    assert antiplane_fields(MAT, traj, zero, [1.0, 0.0], 3.0).u == 0.0


def test_antiplane_analytic_derivatives():
    traj, prof = _static_antiplane()
    t = math.sqrt(2.0)
    fs = antiplane_fields(MAT, traj, prof, [1.0, 0.0], t, rel_tol=1e-11)
    assert fs.u == pytest.approx(math.acosh(t), abs=1e-11)
    assert fs.v == pytest.approx(1.0, abs=1e-9)
    assert fs.beta[0] == pytest.approx(-math.sqrt(2.0), abs=1e-9)
    assert fs.beta[1] == pytest.approx(0.0, abs=1e-12)


def test_antiplane_infinite_history_rejected():
    traj = static_trajectory([0, 0, 0])
    with pytest.raises(UnboundedHistoryError):
        antiplane_fields(MAT, traj, constant_force([0, 0, 1.0]), [1.0, 0.0], 2.0)


def test_antiplane_nan_vmax_rejected():
    moving = oscillatory_trajectory([0, 0, 0], [0.15, 0.1, 0], 1.1)
    traj = dataclasses.replace(moving, vmax=math.nan)
    with pytest.raises(SupersonicError, match="supersonic trajectory"):
        antiplane_fields(MAT, traj, step_force([0, 0, 1.0], t_on=0.0), [1.3, -0.9], 3.1)


@pytest.mark.parametrize("amplitude, omega, phase, x, t", [
    ((0.2151, 0.2091, 0), 5 / 3, 5.7873, (0.4246, 1.4562), 4.4542),
    ((0.2061, 0.218, 0), 8 / 3, 1.3641, (1.4487, 0.301), 3.416),
])
def test_antiplane_fields_tight_tolerance_moving(amplitude, omega, phase, x, t):
    # Near w = 0 these events need the node geometry to keep its relative
    # accuracy: differencing absolute positions at t' leaves about
    # eps*b/w^2 relative noise there, too much to converge at 1e-11.
    mat = make_material(rho=1.0, lam=1.0, mu=1.0)
    traj = oscillatory_trajectory([0, 0, 0], amplitude, omega, phase)
    prof = step_force([0, 0, 1.0], t_on=0.0)
    x = np.array(x)
    fs = antiplane_fields(mat, traj, prof, x, t, rel_tol=1e-11)
    assert fs.u == pytest.approx(antiplane_fields(mat, traj, prof, x, t, rel_tol=1e-13).u,
                                 rel=1e-10)
    fd = fd_consistency(_antiplane_u(mat, traj, prof, 1e-13), x, t, 1e-3)
    b_fd, v_fd = fd.beta_fd[0], fd.v_fd[0]
    np.testing.assert_allclose(fs.beta, b_fd, atol=1e-9 * np.max(np.abs(b_fd)))
    assert fs.v == pytest.approx(v_fd, rel=1e-9)


def test_antiplane_fields_converge_at_tight_tolerance():
    # Random moving sources at 0.05-0.8 cT: every event converges at 1e-12
    # (pytest turns a warning, such as a square root of noise, into an
    # error) and agrees with its 1e-13 value.
    mat = make_material(rho=1.0, lam=1.0, mu=1.0)
    prof = step_force([0, 0, 1.0], t_on=0.0)
    rng = np.random.default_rng(12)
    for _ in range(40):
        speed, omega = rng.uniform(0.05, 0.8), rng.uniform(1.0, 3.0)
        direction = rng.normal(size=2)
        amplitude = np.append(direction / np.linalg.norm(direction), 0.0) * speed / omega
        traj = oscillatory_trajectory([0, 0, 0], amplitude, omega, rng.uniform(0, 2 * math.pi))
        angle = rng.uniform(0, 2 * math.pi)
        x = rng.uniform(1.0, 2.0) * np.array([math.cos(angle), math.sin(angle)])
        t = rng.uniform(2.0, 5.0)
        fs = antiplane_fields(mat, traj, prof, x, t, rel_tol=1e-12)
        assert fs.u == pytest.approx(antiplane_fields(mat, traj, prof, x, t, rel_tol=1e-13).u,
                                     abs=1e-10)


def test_antiplane_fields_switch_on_at_the_first_knot():
    # t_on is the first knot, and the switch-on node b - (sqrt(b - t_on))^2
    # of this event rounds below it.
    ts = np.linspace(0.0, 6.0, 25)
    traj = tabulated_trajectory(ts, np.column_stack([0.2 * np.sin(ts), 0.1 * np.cos(ts), 0 * ts]))
    prof = step_force([0, 0, 1.0], t_on=0.0)
    x, t = np.array([0.427, 0.918]), 4.403
    st = retarded_time(traj, x, t, 1.0 / MAT.cT, dim=2)
    assert st.t_ret - math.sqrt(st.t_ret) ** 2 < 0.0
    fs = antiplane_fields(MAT, traj, prof, x, t)
    assert fs.u > 0.0 and np.isfinite(fs.beta).all() and np.isfinite(fs.v)


def test_antiplane_moving_fd_crosscheck():
    traj = oscillatory_trajectory([0, 0, 0], [0.15, 0.1, 0], 1.1, 0.2)
    prof = bump_force([0, 0, 2.5], center=1.0, half_width=1.0)
    x = np.array([1.3, -0.9])
    t = 3.1
    fs = antiplane_fields(MAT, traj, prof, x, t, rel_tol=1e-11)
    fd = fd_consistency(_antiplane_u(MAT, traj, prof, 1e-11), x, t, 1e-3)
    b_fd, v_fd = fd.beta_fd[0], fd.v_fd[0]
    np.testing.assert_allclose(fs.beta, b_fd, atol=1e-7 * np.max(np.abs(b_fd)))
    assert fs.v == pytest.approx(v_fd, rel=1e-7)
    assert fs.u == pytest.approx(antiplane_fields(MAT, traj, prof, x, t, rel_tol=1e-13).u,
                                 rel=1e-10)


def _count_engine(monkeypatch):
    """Record, per call of lineforce2d's engine, the node count of each integrand call."""
    calls = []

    def counting(f, a, b, **kw):
        calls.append([])

        def g(xs, owner):
            calls[-1].append(xs.size)
            return f(xs, owner)

        return integrate_intervals(g, a, b, **kw)

    monkeypatch.setattr(lineforce2d, "integrate_intervals", counting)
    return calls


def test_antiplane_arccosh_node_count(monkeypatch):
    # The substitution t' = t_ret - w^2 over the whole history leaves a
    # smooth integrand: the engine's first panel (Gauss-Kronrod, 21 nodes)
    # already meets 1e-11.
    calls = _count_engine(monkeypatch)
    traj, prof = _static_antiplane()
    t, r = 2.9, 1.2
    u3 = antiplane_fields(MAT, traj, prof, [r, 0.0], t, rel_tol=1e-11).u
    assert u3 == pytest.approx(math.acosh(MAT.cT * t / r), rel=1e-13)
    assert calls == [[21]]


def test_antiplane_fields_one_solve_one_engine_call(monkeypatch):
    calls = _count_engine(monkeypatch)
    solves = []

    def counting_solve(*args, **kw):
        solves.append(1)
        return retarded_time(*args, **kw)

    monkeypatch.setattr(lineforce2d, "retarded_time", counting_solve)
    traj = oscillatory_trajectory([0, 0, 0], [0.15, 0.1, 0], 1.1, 0.2)
    fs = antiplane_fields(MAT, traj, step_force([0, 0, 1.0], t_on=0.0), [1.3, -0.9], 3.1)
    assert fs.u != 0.0 and fs.v != 0.0
    assert len(solves) == 1 and len(calls) == 1


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
    # L-history contributes; the value must match the closed form
    traj = static_trajectory([0, 0, 0])
    q0 = np.array([1.0, 0.4, 0])
    r = 2.0
    t = 0.5 * (r / MAT.cL + r / MAT.cT)
    x = np.array([r, 0.0])
    u = inplane_displacement(MAT, traj, step_force(q0, t_on=0.0), x, t, rel_tol=1e-10)
    assert np.any(u != 0)
    exact = inplane_static_step(MAT, x, t)[0] @ q0[:2]
    np.testing.assert_allclose(u, exact, rtol=0, atol=1e-12 * np.max(np.abs(exact)))


def test_inplane_static_matches_oracle():
    # Behind both fronts: the closed-form time integral of the Green tensor.
    traj = static_trajectory([0, 0, 0])
    q0 = np.array([1.0, 0.5, 0])
    x = np.array([0.9, 0.5])
    t = 3.7
    u = inplane_displacement(MAT, traj, step_force(q0, t_on=0.0), x, t, rel_tol=1e-10)
    exact = inplane_static_step(MAT, x, t)[0] @ q0[:2]
    np.testing.assert_allclose(u, exact, rtol=0, atol=1e-12 * np.max(np.abs(exact)))


def test_inplane_moving_matches_oracle():
    # By descent: the x3-integrals of the point force's fields.
    traj = oscillatory_trajectory([0, 0, 0], [0.12, -0.08, 0], 0.9)
    prof = bump_force([1.0, 0.5, 0.6], center=1.0, half_width=1.0)
    dev, = _descent_devs(MAT, traj, prof, (1.1, 0.7), 4.2)
    assert max(dev.values()) <= 1e-9, dev



def test_inplane_moving_step_matches_split_descent():
    # A step's 3D u jumps at the fronts of its switch-on, so the x3 rule
    # splits at their crossings |x3| = sqrt((c (t - t_on))^2 - r_on^2),
    # r_on = |x - s(t_on)|, with 25 GL16 panels per piece. Its 3D beta and
    # v carry delta fronts there, which point nodes cannot integrate, so
    # only u is compared. The bound is the 3D evaluator's error on nodes
    # inside the P-S shell: u reads 1.5e-7 (in-plane) and 2.1e-7 here.
    traj = oscillatory_trajectory([0, 0, 0], [0.12, -0.08, 0], 0.9)
    prof = step_force([1.0, 0.5, 0.7], t_on=0.0)
    x, t = np.array([1.1, 0.7]), 4.2
    r_on = np.linalg.norm(x - traj.eval(prof.t_on)[0][:2])
    ends = np.sqrt([0.0] + [(c * (t - prof.t_on)) ** 2 - r_on ** 2 for c in (MAT.cT, MAT.cL)])
    edges = np.append(np.concatenate([np.linspace(a, b, 26)[:-1] for a, b in zip(ends, ends[1:])]),
                      ends[-1])
    z, w = np.polynomial.legendre.leggauss(16)
    mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * np.diff(edges)
    x3 = (mid[:, None] + half[:, None] * z).ravel()
    x3, w3 = np.append(x3, -x3), np.tile((half[:, None] * w).ravel(), 2)
    xs = np.column_stack([np.tile(x, (x3.size, 1)), x3])
    fs, masked = lw_fields_batch(MAT, traj, prof, xs, np.full(x3.size, t), rel_tol=1e-10)
    assert not masked.any()
    u = w3 @ fs.u
    u_in = inplane_displacement(MAT, traj, prof, x, t, rel_tol=1e-12)
    np.testing.assert_allclose(u[:2], u_in, rtol=0, atol=1e-5 * np.max(np.abs(u_in)))
    u_anti = antiplane_fields(MAT, traj, prof, x, t, rel_tol=1e-12).u
    assert abs(u[2] - u_anti) <= 1e-5 * abs(u_anti)

def test_inplane_displacement_integrand_calls(monkeypatch):
    # Behind the S front both history segments run, each substituted as a
    # whole: one engine call for both, each integrand call handed node
    # arrays of both segments; each takes one 21-node Kronrod panel.
    calls = _count_engine(monkeypatch)
    traj = oscillatory_trajectory([0, 0, 0], [0.2, 0, 0], 1.0)
    prof = step_force([1.0, 0.5, 0], t_on=0.0)
    u = inplane_displacement(MAT, traj, prof, [1.5, 0.5], 6.0)
    assert np.all(u != 0)
    assert len(calls) == 1
    assert len(calls[0]) <= 2 and sum(calls[0]) == 2 * 21


_KNOTS = np.linspace(0.0, 8.0, 9)
WORLDLINES = [
    oscillatory_trajectory([0, 0, 0], [0.15, 0.1, 0], 1.1, 0.2),
    tabulated_trajectory(_KNOTS, np.column_stack([0.1 * np.sin(_KNOTS), 0.05 * _KNOTS, 0 * _KNOTS])),
]
# Points of three kinds for a step switched on at t = 0 (cL = 1.64 cT):
# before both fronts, inside the P-S shell, and behind both fronts (two).
POINTS = [((2.0, 0.5), 0.5), ((2.0, 0.5), 1.6), ((1.2, -0.7), 3.5), ((0.4, 0.9), 5.0)]
LIVE_ROWS = [[False, False], [True, False], [True, True], [True, True]]


@pytest.mark.parametrize("traj", WORLDLINES, ids=["oscillatory", "tabulated"])
def test_inplane_displacement_batch_equals_one_point_calls(traj):
    prof = step_force([1.0, 0.5, 0], t_on=0.0)
    xs = np.array([x for x, _ in POINTS])
    ts = np.array([t for _, t in POINTS])
    _, live = lineforce2d._singular_ends(traj, prof, np.repeat(xs, 2, axis=0), np.repeat(ts, 2),
                                         np.tile([1.0 / MAT.cL, 1.0 / MAT.cT], ts.size), 1e-12)
    assert live.reshape(-1, 2).tolist() == LIVE_ROWS
    u = inplane_displacement(MAT, traj, prof, xs, ts)
    assert u.shape == (ts.size, 2)
    for i, (x, t) in enumerate(POINTS):
        one = inplane_displacement(MAT, traj, prof, x, t)
        assert one.shape == (2,) and np.array_equal(u[i], one)
    assert np.all(u[0] == 0.0) and np.all(u[1:] != 0.0)
    # The batch order does not matter either.
    assert np.array_equal(inplane_displacement(MAT, traj, prof, xs[::-1], ts[::-1]), u[::-1])


@pytest.mark.parametrize("traj", WORLDLINES, ids=["oscillatory", "tabulated"])
def test_inplane_displacement_batch_on_the_worldline(traj):
    prof = step_force([1.0, 0.5, 0], t_on=0.0)
    on = traj.eval(2.5)[0][:2]
    xs = np.array([x for x, _ in POINTS] + [on])
    ts = np.array([t for _, t in POINTS] + [2.5])
    with pytest.raises(SingularPointError):
        inplane_displacement(MAT, traj, prof, xs, ts)


@pytest.mark.parametrize("traj", WORLDLINES, ids=["oscillatory", "tabulated"])
def test_history_sums_rows_do_not_depend_on_the_other_segments(traj, monkeypatch):
    # Behind both fronts a point integrates its shared-interval and L
    # segments in one engine call; each row must equal that segment
    # integrated alone, so segments of many points can share a call.
    history_sums, seen = lineforce2d._history_sums, []

    def recording(*args):
        seen.append(args)
        return history_sums(*args)

    monkeypatch.setattr(lineforce2d, "_history_sums", recording)
    prof = step_force([1.0, 0.5, 0], t_on=0.0)
    for x, t in POINTS[2:]:
        inplane_displacement(MAT, traj, prof, x, t)
    assert len(seen) == 2
    for traj_, t, st, rows, w_hi, kernel, rel_tol in seen:
        assert rows.size == 2
        together = history_sums(traj_, t, st, rows, w_hi, kernel, rel_tol)
        for k in range(2):
            one = slice(k, k + 1)
            alone = history_sums(traj_, t, st, rows[one], w_hi[one], kernel, rel_tol)
            assert np.all(together[k] != 0.0) and np.array_equal(alone[0], together[k])


def test_inplane_displacement_one_force_eval_per_integrand_call(monkeypatch):
    # Work gate: the one in-plane kernel evaluates Q once for the nodes of
    # both segments of a behind-front point.
    step, evals = step_force([1.0, 0.5, 0], t_on=0.0), []
    x, t = POINTS[2]
    expected = inplane_displacement(MAT, WORLDLINES[0], step, x, t)

    def counting(tp):
        evals.append(np.size(tp))
        return step._fn(tp)

    calls = _count_engine(monkeypatch)
    u = inplane_displacement(MAT, WORLDLINES[0], dataclasses.replace(step, _fn=counting), x, t)
    assert np.array_equal(u, expected)
    assert len(calls) == 1 and evals == calls[0]


def test_inplane_knotted_worldline_matches_oracle():
    # A cubic spline through knots 0, 1, ..., 6: the history below crosses
    # several knots, where the spline's third derivative jumps. Descent
    # takes a bump, not a step: the 3D distortion and velocity of a step
    # carry delta fronts at its switch-on shells, which point nodes in x3
    # cannot integrate. Here u agrees to 2e-11, beta and v only to 3e-8:
    # the 3D evaluator's error on slowness windows with a knot in them.
    knots = np.arange(7.0)
    traj = tabulated_trajectory(knots, np.column_stack([0.1 * np.sin(knots), 0.05 * knots,
                                                        0 * knots]))
    prof = bump_force([1.0, 0.5, 0.7], center=1.0, half_width=1.0)
    dev, = _descent_devs(MAT, traj, prof, (1.2, -0.7), 3.5)
    assert max(dev["inplane_u"], dev["antiplane_u"]) <= 1e-9
    assert max(dev.values()) <= 1e-6


def _fields_from_one_point_calls(traj, prof, x, t):
    """inplane_fields rebuilt from one-point displacement calls, v differenced too."""
    x = np.asarray(x, dtype=float)

    def u_of(xx, tt):
        return inplane_displacement(MAT, traj, prof, xx, tt)

    h_t = lineforce2d._fd_step(MAT, traj, prof, x, t)
    h_x = MAT.cT * h_t
    cols, errs = [], {}
    for k in range(2):
        e = np.eye(2)[k]
        col, spread = lineforce2d._richardson_d1(
            np.array([u_of(x + s * e, t) for s in h_x * lineforce2d._STENCIL]), h_x)
        cols.append(col)
        errs[f"beta_d{k + 1}"] = float(np.max(spread))
    v_fd, _ = lineforce2d._richardson_d1(
        np.array([u_of(x, t + s) for s in h_t * lineforce2d._STENCIL]), h_t)
    return u_of(x, t), np.column_stack(cols), v_fd, errs


@pytest.mark.parametrize("traj", WORLDLINES, ids=["oscillatory", "tabulated"])
def test_inplane_fields_equal_one_point_differences(traj):
    # The 12 offsets of one call give the same Richardson pairs, bit for
    # bit, as one displacement call per difference term. The centre's u is
    # refined together with its velocity, so it agrees with a one-point
    # call to the history tolerance (at most 5.3e-11 of max|u| here). The
    # analytic v agrees with the differenced displacement.
    prof = bump_force([0.8, 0.5, 0], center=1.0, half_width=1.0)
    for x, t in POINTS[1:]:
        fs = inplane_fields(MAT, traj, prof, x, t)
        u, beta, v_fd, errs = _fields_from_one_point_calls(traj, prof, x, t)
        assert np.array_equal(fs.beta, beta) and fs.fd_error == errs
        np.testing.assert_allclose(fs.u, u, rtol=0,
                                   atol=lineforce2d.DEFAULT_HISTORY_TOL * np.max(np.abs(u)))
        np.testing.assert_allclose(fs.v, v_fd, rtol=0, atol=1e-6 * np.max(np.abs(v_fd)))


def test_inplane_fields_one_solve(monkeypatch):
    # Deterministic work gate: one behind-front evaluation is one
    # displacement call and one retarded solve for its 13 stencil points,
    # and one engine call per point, the centre's integrating u and v.
    engine = _count_engine(monkeypatch)
    solves, displacements = [], []

    def counting_solve(*args, **kw):
        solves.append(1)
        return retarded_time(*args, **kw)

    def counting_displacement(*args, **kw):
        displacements.append(1)
        return inplane_displacement(*args, **kw)

    monkeypatch.setattr(lineforce2d, "retarded_time", counting_solve)
    monkeypatch.setattr(lineforce2d, "inplane_displacement", counting_displacement)
    traj = WORLDLINES[0]
    fs = inplane_fields(MAT, traj, step_force([1.0, 0.5, 0], t_on=0.0), [1.2, -0.7], 3.5)
    assert np.all(fs.beta != 0.0) and np.all(fs.v != 0.0)
    assert len(displacements) == 1 and len(solves) == 1 and len(engine) == 13


def test_inplane_fields_engine_intervals(monkeypatch):
    # Work gate: a behind-front evaluation hands 13 engine calls one
    # interval per live history segment, 26 in all. The centre's velocity
    # rides as extra columns of its two u segments, not as segments of its
    # own.
    intervals = []

    def counting(f, a, b, **kw):
        intervals.append(np.size(a))
        return integrate_intervals(f, a, b, **kw)

    monkeypatch.setattr(lineforce2d, "integrate_intervals", counting)
    x, t = POINTS[2]
    fs = inplane_fields(MAT, WORLDLINES[0], step_force([1.0, 0.5, 0], t_on=0.0), x, t)
    assert np.all(fs.v != 0.0)
    assert len(intervals) == 13 and sum(intervals) == 26 and intervals[0] == 2


@pytest.mark.parametrize("traj", WORLDLINES, ids=["oscillatory", "tabulated"])
def test_dlog_s2_matches_differences_at_fixed_w(traj):
    # The one d(S^2)/S^2 of both line forces, along t, x1 and x2, at random
    # history nodes of the L root (in-plane) and the T root (both), against
    # central differences of S^2 = (t - t')^2 - kappa^2 |x - s(t')|^2 at
    # fixed w: t' = b(x, t) - w^2 with b re-solved at every shifted event.
    prof = step_force([1.0, 0.5, 0], t_on=0.0)
    (x, t), slowness = POINTS[3], [1.0 / MAT.cL, 1.0 / MAT.cT]
    x = np.array(x)

    def solve(xx, tt):
        return lineforce2d._singular_ends(traj, prof, xx, tt, slowness, 1e-14)[0]

    st = solve(x, t)
    rows = np.repeat([0, 1], 8)
    w = np.random.default_rng(5).uniform(0.1, 0.9, rows.size) * np.sqrt(st.t_ret[rows])
    db = np.column_stack([st.r, -st.slowness[:, None] * st.rvec]) / st.pc[:, None]
    g = lineforce2d._history_nodes(traj, t, st, rows, w)
    lam = lineforce2d._dlog_s2(g, st, rows, db[rows])

    def s2(xx, tt):
        tp = solve(xx, tt).t_ret[rows] - w * w
        rvec = xx - traj.eval(tp)[0][:, :2]
        return (tt - tp) ** 2 - st.slowness[rows] ** 2 * np.einsum("ni,ni->n", rvec, rvec)

    h = 1e-4
    shifts = [(np.zeros(2), h), (h * np.eye(2)[0], 0.0), (h * np.eye(2)[1], 0.0)]
    fd = np.column_stack([s2(x + dx, t + dt) - s2(x - dx, t - dt) for dx, dt in shifts])
    np.testing.assert_allclose(lam, fd / (2.0 * h * s2(x, t)[:, None]), rtol=1e-6)


@pytest.mark.parametrize("x, t", [((0.9, 0.5), 3.7), ((2.0, 0.5), 1.6), ((2.0, 0.5), 0.5)])
def test_inplane_velocity_of_a_static_step_is_the_green_tensor(x, t):
    # Behind both fronts, inside the P-S shell and before the L front: the
    # velocity of a step is the impulsive Green tensor, which the boundary
    # terms at the switch-on and at t_T carry alone (the integrands vanish).
    q0 = np.array([1.0, 0.5, 0.0])
    fs = inplane_fields(MAT, static_trajectory([0, 0, 0]), step_force(q0, t_on=0.0), x, t,
                        rel_tol=1e-10)
    exact = inplane_static_step(MAT, np.array(x), t)[1] @ q0[:2]
    np.testing.assert_allclose(fs.v, exact, rtol=0, atol=1e-13 + 1e-12 * np.max(np.abs(exact)))


@pytest.mark.parametrize("traj", WORLDLINES, ids=["oscillatory", "tabulated"])
@pytest.mark.parametrize("prof", [step_force([1.0, 0.5, 0], t_on=0.0),
                                  bump_force([0.8, 0.5, 0], center=1.0, half_width=1.0)],
                         ids=["step", "bump"])
def test_inplane_velocity_matches_differences(traj, prof):
    for x, t in POINTS[1:]:
        v = inplane_fields(MAT, traj, prof, x, t, rel_tol=1e-11).v
        v_fd = fd_consistency(
            lambda xs, ts: inplane_displacement(MAT, traj, prof, xs, ts, rel_tol=1e-12),
            np.array(x), t, 1e-3).v_fd
        np.testing.assert_allclose(v, v_fd, rtol=0, atol=1e-9 * np.max(np.abs(v_fd)))


def test_inplane_velocity_switch_on_at_the_first_knot():
    # The switch-on node b - (sqrt(b - t_on))^2 of the T segment rounds
    # below t_on = 0 here: its boundary term must still see the step on.
    ts = np.linspace(0.0, 6.0, 25)
    traj = tabulated_trajectory(ts, np.column_stack([0.2 * np.sin(ts), 0.1 * np.cos(ts), 0 * ts]))
    prof = step_force([1.0, 0.5, 0], t_on=0.0)
    x, t = np.array([0.427, 0.918]), 4.403
    st = retarded_time(traj, x, t, 1.0 / MAT.cT, dim=2)
    assert st.t_ret - math.sqrt(st.t_ret) ** 2 < 0.0
    v = inplane_fields(MAT, traj, prof, x, t, rel_tol=1e-11).v
    v_fd = fd_consistency(
        lambda xs, ts: inplane_displacement(MAT, traj, prof, xs, ts, rel_tol=1e-12), x, t, 1e-3).v_fd
    np.testing.assert_allclose(v, v_fd, rtol=0, atol=1e-8 * np.max(np.abs(v_fd)))


def test_inplane_fields_richardson_consistency():
    traj = oscillatory_trajectory([0, 0, 0], [0.1, 0.06, 0], 1.0, 0.3)
    prof = bump_force([0.8, 0.5, 0], center=1.0, half_width=1.0)
    fs = inplane_fields(MAT, traj, prof, [1.2, 0.6], 4.5, rel_tol=1e-9)
    scale = max(np.max(np.abs(fs.beta)), np.max(np.abs(fs.v)))
    assert all(err <= 1e-4 * scale for err in fs.fd_error.values())


def test_inplane_fields_switch_off_after_the_last_knot():
    # The bump switches off at t = 10, after the worldline ends at t = 8;
    # the difference step must not evaluate the worldline there.
    ts = np.linspace(0.0, 8.0, 9)
    traj = tabulated_trajectory(ts, np.column_stack([0.1 * np.sin(ts), 0.05 * ts, 0 * ts]))
    prof = bump_force([0.8, 0.5, 0], center=6.0, half_width=4.0)
    x, t = np.array([1.5, 0.3]), 5.0
    fs = inplane_fields(MAT, traj, prof, x, t)
    assert np.isfinite(fs.beta).all() and np.isfinite(fs.v).all()
    # The centre's u is refined with its velocity: 1.9e-10 of max|u| from
    # a one-point call here.
    u = inplane_displacement(MAT, traj, prof, x, t)
    np.testing.assert_allclose(fs.u, u, rtol=0,
                               atol=lineforce2d.DEFAULT_HISTORY_TOL * np.max(np.abs(u)))


def test_inplane_wavefront_proximity_warning():
    traj = static_trajectory([0, 0, 0])
    prof = step_force([1.0, 0, 0], t_on=0.0)
    r = 2.0
    t_front = r / MAT.cT
    with pytest.warns(WavefrontProximityWarning):
        inplane_fields(MAT, traj, prof, [r, 0.0], t_front + 1e-7)


def test_fd_step_keeps_clear_of_knot_fronts():
    # The moving case 1 of _inplane_cases at seed 2: a spline
    # worldline seen 9e-5 after the S front of a knot. The knot's fronts
    # floor the step, with a warning, and beta meets the Richardson
    # differences of a finer step (it read 2.5e-8 off them when the step
    # kept clear only of the switch-on fronts).
    mat, traj, prof, x, _ = list(verify._inplane_cases(np.random.default_rng(2), 2))[1]
    t = 5.6985
    with pytest.warns(WavefrontProximityWarning):
        beta = inplane_fields(mat, traj, prof, x, t, rel_tol=1e-12).beta
    ref = fd_consistency(
        lambda xs, ts: inplane_displacement(mat, traj, prof, xs, ts, rel_tol=1e-12), x, t, 1e-4,
    ).beta_fd
    assert np.max(np.abs(beta - ref)) <= 1e-9 * np.max(np.abs(ref))


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
        assert antiplane_fields(MAT, traj, prof, x, t).u > 1e-6
