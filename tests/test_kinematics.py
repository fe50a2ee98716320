import dataclasses
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.interpolate import CubicSpline

from elastowave.errors import (
    ExtrapolationError,
    NoRetardationError,
    RetardedConvergenceError,
    SingularPointError,
    SupersonicError,
)
from elastowave.kinematics import (
    bump_force,
    constant_force,
    oscillatory_trajectory,
    piecewise_polynomial_trajectory,
    polynomial_force,
    ramp_force,
    retarded_time,
    sinusoid_force,
    static_trajectory,
    step_force,
    tabulated_trajectory,
    uniform_trajectory,
)

from bisection_solver import retarded_time_bisection


# ---------------------------------------------------------------------------
# trajectories

def test_knots_of_each_worldline():
    # The breakpoints of a piecewise worldline, where a derivative of s may
    # jump; the analytic presets have none.
    times = [0.0, 0.5, 1.5, 3.0]
    assert tabulated_trajectory(times, np.ones((4, 3))).knots == tuple(times)
    assert piecewise_polynomial_trajectory([0.0, 1.0, 2.0], np.ones((2, 2, 3))).knots == (
        0.0, 1.0, 2.0)
    assert static_trajectory([0, 0, 0]).knots == ()
    assert oscillatory_trajectory([0, 0, 0], [0.1, 0, 0], 1.0).knots == ()


def test_static_eval():
    traj = static_trajectory([1.0, 2.0, 3.0])
    s, v, a = traj.eval(17.3)
    np.testing.assert_allclose(s, [1, 2, 3], atol=0)
    assert np.all(v == 0) and np.all(a == 0)
    assert traj.vmax == 0.0


def test_oscillatory_derivatives_at_zero():
    amp, omega = 0.3, 1.7
    traj = oscillatory_trajectory([0, 0, 0], [amp, 0, 0], omega)
    s, v, a = traj.eval(0.0)
    np.testing.assert_allclose(v, [amp * omega, 0, 0], rtol=1e-15)
    np.testing.assert_allclose(a, 0.0, atol=0)
    assert traj.vmax == pytest.approx(amp * omega, rel=1e-15)


@pytest.mark.parametrize(
    "make",
    [
        lambda: uniform_trajectory([0.1, 0, 0], [0.2, 0.1, 0.0]),
        lambda: oscillatory_trajectory([0, 0.1, 0], [0.2, 0, 0.1], 1.3, 0.4),
        lambda: tabulated_trajectory(
            np.linspace(0, 4, 41),
            np.column_stack([
                0.2 * np.sin(np.linspace(0, 4, 41)),
                0.1 * np.linspace(0, 4, 41),
                np.zeros(41),
            ]),
        ),
        lambda: piecewise_polynomial_trajectory(
            [0.0, 1.0, 2.0],
            np.array([
                [[0.05, 0.0, 0.0], [-0.05, 0.0, 0.0]],   # t^2 coefficient
                [[0.1, 0.2, 0.0], [0.2, 0.2, 0.0]],      # t coefficient
                [[0.0, 0.0, 0.0], [0.15, 0.2, 0.0]],     # const
            ]),
        ),
    ],
    ids=["uniform", "oscillatory", "tabulated", "ppoly"],
)
def test_velocity_acceleration_are_derivatives(make):
    traj = make()
    lo = traj.domain[0] if math.isfinite(traj.domain[0]) else -1.0
    hi = traj.domain[1] if math.isfinite(traj.domain[1]) else 3.0
    h = 1e-5 * (hi - lo)
    # sample counts chosen to keep the stencil away from polynomial breaks
    for t in np.linspace(lo + 5 * h, hi - 5 * h, 8):
        s_m, v_m, a_m = traj.eval(t)
        sp = traj.eval(t + h)[0]
        sm = traj.eval(t - h)[0]
        np.testing.assert_allclose((sp - sm) / (2 * h), v_m, rtol=0, atol=5e-8)
        vp = traj.eval(t + h)[1]
        vm = traj.eval(t - h)[1]
        np.testing.assert_allclose((vp - vm) / (2 * h), a_m, rtol=0, atol=5e-7)


def test_vmax_spot_check():
    traj = tabulated_trajectory(
        np.linspace(0, 6, 61),
        np.column_stack([np.sin(np.linspace(0, 6, 61)), np.zeros(61), np.zeros(61)]),
    )
    samples = np.linspace(0, 6, 2000)
    speeds = [np.linalg.norm(traj.eval(t)[1]) for t in samples]
    assert max(speeds) <= traj.vmax * (1 + 1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 10), tabulated=st.booleans())
def test_exact_vmax_bounds_dense_sample(seed, n, tabulated):
    rng = np.random.default_rng(seed)
    knots = np.cumsum(rng.uniform(0.2, 1.0, n))
    if tabulated:
        traj = tabulated_trajectory(knots, rng.normal(size=(n, 3)))
    else:
        traj = piecewise_polynomial_trajectory(knots, rng.normal(size=(4, n - 1, 3)))
    # V may jump at a knot, so the sample holds the left limits there too.
    ts = np.concatenate([np.linspace(*traj.domain, 20_001), np.nextafter(knots[1:], 0.0)])
    speeds = np.linalg.norm(traj.eval(ts)[1], axis=1)
    assert speeds.max() <= traj.vmax * (1 + 1e-12)
    assert traj.vmax <= speeds.max() * (1 + 1e-3)


def test_exact_vmax_interior_maximum():
    # V1 = 1 - 4 (t - 0.37)^2 peaks at 1 inside [0, 1]; the ends give 0.45
    # and 0.59, and no sample of the dense grid hits t = 0.37.
    coefs = np.zeros((4, 1, 3))
    coefs[:, 0, 0] = [-4.0 / 3.0, 1.48, 0.4524, 0.0]
    traj = piecewise_polynomial_trajectory([0.0, 1.0], coefs)
    speeds = np.linalg.norm(traj.eval(np.linspace(0.0, 1.0, 10_000))[1], axis=1)
    assert traj.vmax == pytest.approx(1.0, rel=1e-14)
    assert speeds.max() < traj.vmax


def test_tabulated_extrapolation_error():
    traj = tabulated_trajectory([0.0, 1.0, 2.0], np.zeros((3, 3)))
    with pytest.raises(ExtrapolationError):
        traj.eval(2.5)


def test_extrapolation_message_is_bounded():
    # The message counts the times outside the domain and names the first,
    # instead of formatting the whole array.
    traj = tabulated_trajectory([0.0, 1.0, 2.0], np.zeros((3, 3)))
    times = np.linspace(1.0, 3.0, 1000)
    with pytest.raises(ExtrapolationError) as info:
        traj.eval(times)
    message = str(info.value)
    assert len(message) < 200
    assert f"{np.sum(times > 2.0)} time(s)" in message
    assert f"first: {times[times > 2.0][0]:g}" in message


def test_batched_eval_matches_scalar():
    traj = oscillatory_trajectory([0.1, 0, 0], [0.2, 0.1, 0], 1.3, 0.2)
    ts = np.linspace(-1, 2, 5)
    s_b, v_b, a_b = traj.eval(ts)
    for i, t in enumerate(ts):
        s, v, a = traj.eval(float(t))
        np.testing.assert_allclose(s_b[i], s, atol=0)
        np.testing.assert_allclose(v_b[i], v, atol=0)
        np.testing.assert_allclose(a_b[i], a, atol=0)


# ---------------------------------------------------------------------------
# force profiles

@pytest.mark.parametrize(
    "prof",
    [
        step_force([1.0, -2.0, 3.0], t_on=0.5),
        ramp_force([0.3, 0.1, -0.2], t_on=-1.0),
        sinusoid_force([1.0, 0.5, 0.2], omega=2.1, phase=0.7),
        bump_force([2.0, 0, 1.0], center=1.0, half_width=0.8),
        polynomial_force([[1.0, 0, 0], [0.5, 1.0, 0], [0, 0.2, -0.1]], t_on=0.0),
    ],
    ids=["step", "ramp", "sinusoid", "bump", "polynomial"],
)
def test_qdot_is_derivative(prof):
    h = 1e-6
    for t in np.linspace(prof.t_on if math.isfinite(prof.t_on) else -2.0, 3.0, 9):
        t = t + 2 * h  # keep the stencil inside the active interval
        if math.isfinite(prof.t_off) and t + h > prof.t_off:
            continue
        q_p = prof.eval(t + h)[0]
        q_m = prof.eval(t - h)[0]
        np.testing.assert_allclose((q_p - q_m) / (2 * h), prof.eval(t)[1], atol=2e-5)


@pytest.mark.parametrize(
    "prof",
    [
        constant_force([0.3, -0.2, 1.0]),
        step_force([1.0, -2.0, 3.0], t_on=0.5),
        ramp_force([0.3, 0.1, -0.2], t_on=-1.0),
        sinusoid_force([1.0, 0.5, 0.2], omega=2.1, phase=0.7),
        bump_force([2.0, 0, 1.0], center=1.0, half_width=0.8),
        polynomial_force([[1.0, 0, 0], [0.5, 1.0, 0], [0, 0.2, -0.1], [0.3, -0.7, 0.01],
                          [-0.05, 0.02, 0.4]], t_on=-1.5),
    ],
    ids=["constant", "step", "ramp", "sinusoid", "bump", "polynomial"],
)
def test_force_rows_do_not_depend_on_the_batch(prof):
    # A time's Q and Qdot are the same bits whether it is evaluated alone
    # or with any other times.
    ts = np.random.default_rng(3).uniform(-2.0, 4.0, 2000)
    whole = prof.eval(ts)
    for size in (5, 7, 64):
        parts = [prof.eval(ts[i:i + size]) for i in range(0, ts.size, size)]
        for k in range(2):
            assert np.array_equal(np.concatenate([p[k] for p in parts]), whole[k])
    for i in range(0, ts.size, 7):
        q, qd = prof.eval(float(ts[i]))
        assert np.array_equal(q, whole[0][i]) and np.array_equal(qd, whole[1][i])


# ---------------------------------------------------------------------------
# the polynomial force family: constant, step and ramp are polynomials

_Q = [1.0, -2.0, 3.0]
_RATE = [0.3, 0.0, -0.2]


@pytest.mark.parametrize(
    "prof, same, kind",
    [
        (step_force(_Q, 0.5), polynomial_force([_Q], 0.5), "step"),
        (ramp_force(_RATE, 0.5), polynomial_force([[0.0, 0.0, 0.0], _RATE], 0.5), "ramp"),
        (constant_force(_Q), step_force(_Q, -math.inf), "constant"),
    ],
    ids=["step", "ramp", "constant"],
)
def test_polynomial_family_members_agree(prof, same, kind):
    # Each preset gives the bits of the polynomial it is, at scalar and
    # array times on both sides of its switch-on, and keeps its kind.
    assert prof.kind == kind and prof.t_on == same.t_on
    ts = np.array([-3.0, 0.0, 0.5, 0.5 + 1e-12, 1.7, 40.0])
    for t in [ts, *ts.tolist()]:
        for value, other in zip(prof.eval(t), same.eval(t)):
            assert np.array_equal(value, other)


@pytest.mark.parametrize(
    "prof", [constant_force(_Q), step_force(_Q, -math.inf)], ids=["constant", "step"]
)
def test_force_on_for_all_time_at_infinite_times(prof):
    # q0 and a zero rate at t = +-inf, without forming inf - inf.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (-math.inf, math.inf, np.array([-math.inf, 0.0, math.inf])):
            q, qd = prof.eval(t)
            assert np.array_equal(q, np.broadcast_to(_Q, q.shape)) and not qd.any()


_POLY = [[1.0, 2.0, 3.0], [0.0, -1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, -2.0]]


@pytest.mark.parametrize(
    "prof, q_inf, qd_inf",
    [
        (ramp_force([0.0, 0.0, 1.0], 0.0), [0.0, 0.0, math.inf], [0.0, 0.0, 1.0]),
        (polynomial_force(_POLY, 0.5), [1.0, -math.inf, -math.inf], [0.0, -1.0, -math.inf]),
    ],
    ids=["ramp", "polynomial"],
)
def test_polynomial_limits_at_infinite_times(prof, q_inf, qd_inf):
    # The limit at t = +inf (c0 for a constant component, else +-inf by the
    # leading coefficient's sign) and zero before the switch-on, no warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q, qd = prof.eval(math.inf)
        assert np.array_equal(q, q_inf) and np.array_equal(qd, qd_inf)
        assert not np.any(prof.eval(-math.inf))
        q, qd = prof.eval(np.array([-math.inf, 1.0, math.inf]))
        assert not q[0].any() and not qd[0].any()
        assert np.array_equal(q[2], q_inf) and np.array_equal(qd[2], qd_inf)


def test_polynomial_finite_times_are_plain_horner():
    # Finite times keep the bits of elementwise Horner in t - t_on, also
    # beside infinite times in the same call.
    c = np.array(_POLY)
    dc = c[1:] * np.arange(1, len(c))[:, None]
    prof = polynomial_force(c, 0.5)
    rng = np.random.default_rng(3)
    ts = rng.standard_normal(500) * 10.0 ** rng.integers(-3, 4, 500)

    def horner(coef, tau):
        out = np.broadcast_to(coef[-1][:, None], (3, tau.size))
        for ck in coef[-2::-1]:
            out = out * tau + ck[:, None]
        return np.where(tau >= 0.0, out, 0.0).T

    want = horner(c, ts - 0.5), horner(dc, ts - 0.5)
    mixed = np.concatenate([ts, [math.inf, -math.inf]])
    for got in (prof.eval(ts), [v[:-2] for v in prof.eval(mixed)]):
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
    for i in range(0, 500, 37):
        assert all(np.array_equal(g, w[i]) for g, w in zip(prof.eval(float(ts[i])), want))


def test_constructors_take_flat_values_and_check_sizes():
    ts = [0.0, 1.0, 2.0]
    pos = np.arange(9.0).reshape(3, 3) * 0.1
    flat = tabulated_trajectory(ts, pos.ravel().tolist())
    np.testing.assert_array_equal(flat.eval(1.5)[0], tabulated_trajectory(ts, pos).eval(1.5)[0])
    coefs = np.arange(12.0).reshape(2, 2, 3) * 0.01
    flat = piecewise_polynomial_trajectory(ts, coefs.ravel().tolist())
    ref = piecewise_polynomial_trajectory(ts, coefs)
    np.testing.assert_array_equal(flat.eval(1.5)[0], ref.eval(1.5)[0])
    rows = [[1.0, 0, 0], [0.5, 1.0, 0]]
    np.testing.assert_array_equal(
        polynomial_force(np.ravel(rows).tolist(), 0.0).eval(1.0)[0],
        polynomial_force(rows, 0.0).eval(1.0)[0],
    )
    for make in (
        lambda: tabulated_trajectory(ts, [0.0] * 8),
        lambda: tabulated_trajectory([0.0], [0.0] * 3),
        lambda: piecewise_polynomial_trajectory(ts, [0.0] * 9),
        lambda: piecewise_polynomial_trajectory([0.0], [0.0] * 3),
        lambda: polynomial_force([1.0, 0.0], 0.0),
        lambda: polynomial_force([], 0.0),
        lambda: polynomial_force(rows, -math.inf),
    ):
        with pytest.raises(ValueError):
            make()


def test_profile_vanishes_before_switch_on():
    prof = step_force([1.0, 1.0, 1.0], t_on=2.0)
    q, qd = prof.eval(1.9999)
    assert np.all(q == 0) and np.all(qd == 0)
    q, qd = prof.eval(2.0)
    np.testing.assert_allclose(q, 1.0, atol=0)


def test_bump_compact_support():
    prof = bump_force([1.0, 0, 0], center=0.0, half_width=1.0)
    assert prof.t_on == -1.0 and prof.t_off == 1.0
    for t in (-1.0, 1.0, -2.0, 5.0):
        q, qd = prof.eval(t)
        assert np.all(q == 0) and np.all(qd == 0)
    assert prof.eval(0.0)[0][0] == pytest.approx(1.0, abs=0)


def test_batched_force_masks_inactive():
    prof = bump_force([1.0, 0, 0], center=0.0, half_width=1.0)
    ts = np.array([-3.0, -0.5, 0.0, 0.5, 3.0])
    q, qd = prof.eval(ts)
    assert np.all(q[0] == 0) and np.all(q[-1] == 0)
    assert q[2, 0] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# preset function contract

def test_preset_functions_are_component_major():
    # Every preset's _fn returns (3, n) for an array time and (3,) for a
    # scalar one; eval returns the same values as (n, 3) and (3,).
    from elastowave.config import FORCE_PRESETS, TRAJECTORY_PRESETS

    knots = np.linspace(0.0, 2.0, 5)
    trajectories = [
        static_trajectory([1.0, 2.0, 3.0]),
        uniform_trajectory([0.1, 0, 0], [0.2, 0.1, -0.3]),
        oscillatory_trajectory([0, 0.1, 0], [0.2, 0, 0.1], 1.3, 0.4),
        piecewise_polynomial_trajectory(
            [0.0, 1.0, 2.0], np.arange(18.0).reshape(3, 2, 3) * 0.01),
        tabulated_trajectory(knots, np.column_stack([np.sin(knots), knots ** 2, -knots]) * 0.1),
    ]
    forces = [
        constant_force([1.0, -2.0, 3.0]),
        step_force([1.0, -2.0, 3.0], t_on=0.1),
        ramp_force([0.3, 0.1, -0.2], t_on=0.1),
        sinusoid_force([1.0, 0.5, 0.2], omega=2.1, phase=0.7),
        bump_force([2.0, 0, 1.0], center=1.0, half_width=1.5),
        polynomial_force([[1.0, 0, 0], [0.5, 1.0, 0], [0, 0.2, -0.1]], t_on=0.1),
    ]
    assert [p.kind for p in trajectories] == list(TRAJECTORY_PRESETS)
    assert [p.kind for p in forces] == list(FORCE_PRESETS)
    ts = np.linspace(0.2, 1.9, 7)  # inside every domain and active window
    for preset in trajectories + forces:
        rows = preset._fn(ts)
        values = preset.eval(ts)
        assert len(rows) == len(values)
        for row, value in zip(rows, values):
            assert row.shape == (3, ts.size) and value.shape == (ts.size, 3)
            np.testing.assert_array_equal(value, row.T)
        for i, t in enumerate(ts):
            for row, one, value in zip(rows, preset._fn(float(t)), preset.eval(float(t))):
                assert one.shape == (3,) and value.shape == (3,)
                np.testing.assert_array_equal(value, one)
                np.testing.assert_allclose(one, row[:, i], rtol=1e-15, atol=1e-300)


@pytest.mark.parametrize("n", [1, 5])
def test_row_major_preset_function_rejected(n):
    # A user function in the (n, 3) layout fails loudly, also on the
    # 1-row arrays of a scalar retarded solve, where (1, 3) would otherwise
    # broadcast against (3, 1) into wrong geometry.
    ts = np.linspace(0.2, 1.9, n)
    for preset in (oscillatory_trajectory([0, 0.1, 0], [0.2, 0, 0.1], 1.3),
                   sinusoid_force([1.0, 0.5, 0.2], omega=2.1)):
        row_major = dataclasses.replace(
            preset, _fn=lambda t, fn=preset._fn: tuple(c.T for c in fn(t)))
        with pytest.raises(ValueError, match="component-major"):
            row_major.eval(ts)


# ---------------------------------------------------------------------------
# history-difference contract

def _mp_ppoly(c, x):
    """s and V of the PPoly (c, x) at an exact (mpf) time, as 50-digit lists."""

    def at(t):
        i = min(max(int(np.searchsorted(x, float(t), side="right")) - 1, 0), len(x) - 2)
        tau, k = t - mpmath.mpf(x[i]), c.shape[0]
        s = [sum(mpmath.mpf(c[m, i, j]) * tau ** (k - 1 - m) for m in range(k)) for j in range(3)]
        v = [sum(mpmath.mpf(c[m, i, j]) * (k - 1 - m) * tau ** (k - 2 - m) for m in range(k - 1))
             for j in range(3)]
        return s, v

    return at


def _difference_presets():
    """One trajectory of every preset kind with its worldline (s, V) in mpmath."""
    mp = lambda v: [mpmath.mpf(float(c)) for c in v]
    p, x0, vel = [1.0, 2.0, 3.0], [0.1, 0, 0], [0.2, 0.1, -0.3]
    c, a, omega, phase = [0, 0.1, 0], [0.2, 0, 0.1], 1.3, 0.4
    pp_c = np.arange(18.0).reshape(3, 2, 3) * 0.01
    knots = np.linspace(0.0, 2.0, 5)
    positions = np.column_stack([np.sin(knots), knots ** 2, -knots]) * 0.1
    spline = CubicSpline(knots, positions, axis=0, bc_type="natural")
    return {
        "static": (static_trajectory(p), lambda t: (mp(p), mp([0, 0, 0]))),
        "uniform": (uniform_trajectory(x0, vel), lambda t: (
            [o + v * t for o, v in zip(mp(x0), mp(vel))], mp(vel))),
        "oscillatory": (oscillatory_trajectory(c, a, omega, phase), lambda t: (
            [m + n * mpmath.sin(omega * t + phase) for m, n in zip(mp(c), mp(a))],
            [omega * n * mpmath.cos(omega * t + phase) for n in mp(a)])),
        "piecewise-polynomial": (piecewise_polynomial_trajectory([0.0, 1.0, 2.0], pp_c),
                                 _mp_ppoly(pp_c, np.array([0.0, 1.0, 2.0]))),
        "tabulated": (tabulated_trajectory(knots, positions), _mp_ppoly(spline.c, spline.x)),
    }


DIFFERENCE_TOL = 1e-13


def _difference_error(traj, worldline, b, h):
    """Largest error of traj._diff against the 50-digit difference, per unit h and rate.

    The rates bound |s(b) - s(b - h)| / h and |V(b) - V(b - h)| / h: vmax
    and the largest sampled |A| on the worldline.
    """
    ds, dv = traj._diff(b, h)
    assert ds.shape == dv.shape == (3, b.size)
    lo, hi = max(traj.domain[0], -5.0), min(traj.domain[1], 5.0)
    a_max = np.linalg.norm(traj.eval(np.linspace(lo, hi, 2001))[2], axis=1).max()
    worst = 0.0
    with mpmath.workdps(50):
        for i in range(b.size):
            (s1, v1), (s0, v0) = worldline(mpmath.mpf(b[i])), worldline(
                mpmath.mpf(b[i]) - mpmath.mpf(h[i]))
            for got, new, old, rate in ((ds, s1, s0, traj.vmax), (dv, v1, v0, a_max)):
                exact = np.array([float(n - o) for n, o in zip(new, old)])
                err = np.max(np.abs(got[:, i] - exact))
                worst = max(worst, err / (h[i] * rate) if err else 0.0)
    return worst


def test_history_differences_match_50_digit_reference():
    # Every preset supplies (s(b) - s(b - h), V(b) - V(b - h)) to rounding
    # relative to h times its rate, from h = 1e-14 up to h = 1, which
    # crosses knots of both piecewise worldlines (b = 1.73, knots up to 1.5).
    from elastowave.config import TRAJECTORY_PRESETS

    presets = _difference_presets()
    assert list(presets) == list(TRAJECTORY_PRESETS)
    h = np.logspace(-14.0, 0.0, 29)
    b = np.full(h.size, 1.73)
    assert (b - h < 1.5).any() and (b - h > 1.5).any()
    for kind, (traj, worldline) in presets.items():
        assert traj.kind == kind
        assert _difference_error(traj, worldline, b, h) <= DIFFERENCE_TOL, kind


def test_plain_history_difference_fails_the_contract():
    # Differencing absolute positions loses eps*|s|/h relative accuracy as
    # h -> 0; the contract test must see it.
    traj, worldline = _difference_presets()["oscillatory"]

    def plain(b, h):
        (s1, v1, _), (s0, v0, _) = traj._fn(b), traj._fn(b - h)
        return s1 - s0, v1 - v0

    h = np.logspace(-14.0, 0.0, 29)
    b = np.full(h.size, 1.73)
    plain_traj = dataclasses.replace(traj, _diff=plain)
    assert _difference_error(plain_traj, worldline, b, h) > DIFFERENCE_TOL


def test_history_difference_clamped_to_the_first_knot():
    # b - h may round below the first knot at the switch-on node.
    knots = np.linspace(0.0, 2.0, 5)
    traj = tabulated_trajectory(knots, np.column_stack([np.sin(knots), knots, -knots]) * 0.1)
    b = np.array([0.3, 1.2])
    ds, dv = traj._diff(b, b + 1e-16)
    s_b, v_b, _ = traj._fn(b)
    s_0, v_0, _ = traj._fn(0.0)
    np.testing.assert_allclose(ds, s_b - s_0[:, None], rtol=1e-15, atol=0)
    np.testing.assert_allclose(dv, v_b - v_0[:, None], rtol=1e-15, atol=0)


# ---------------------------------------------------------------------------
# retarded time

def test_static_retarded_time():
    traj = static_trajectory([0, 0, 0])
    st = retarded_time(traj, [2.0, 0, 0], t=5.0, slowness=1.0)
    assert st.t_ret == pytest.approx(3.0, abs=1e-12)
    assert st.r == pytest.approx(2.0, rel=1e-15)
    assert st.pc == pytest.approx(2.0, rel=1e-15)


def test_uniform_retarded_time_closed_form():
    # s(t') = (t'/2, 0, 0), x = (1,0,0), kappa = 1, t = 0: root of
    # -t' = 1 - t'/2 (valid branch t' < 0) gives t' = -2, R = 2, Pc = 1.
    traj = uniform_trajectory([0, 0, 0], [0.5, 0, 0])
    st = retarded_time(traj, [1.0, 0, 0], t=0.0, slowness=1.0)
    assert st.t_ret == pytest.approx(-2.0, abs=1e-12)
    assert st.r == pytest.approx(2.0, rel=1e-12)
    assert st.pc == pytest.approx(1.0, rel=1e-12)
    st_b = retarded_time_bisection(traj, [1.0, 0, 0], t=0.0, slowness=1.0)
    assert st.t_ret == pytest.approx(st_b.t_ret, abs=1e-12)


def test_static_retarded_time_slow_wave():
    traj = static_trajectory([0, 0, 0])
    st = retarded_time(traj, [math.sqrt(3.0), 0, 0], t=5.0, slowness=1.0 / math.sqrt(3.0))
    assert st.t_ret == pytest.approx(4.0, abs=1e-12)


@pytest.mark.parametrize("build", [
    lambda: ramp_force([0, 0, 1.0], t_on=-math.inf),
    lambda: ramp_force([0, 0, 1.0], t_on=math.nan),
    lambda: step_force([0, 0, 1.0], t_on=math.nan),
    lambda: step_force([0, 0, math.nan], t_on=0.0),
    lambda: static_trajectory([0, math.inf, 0]),
    lambda: oscillatory_trajectory([0, 0, 0], [0.1, 0, 0], math.nan),
    lambda: oscillatory_trajectory([0, 0, 0], [0.1, 0, 0], 1.0, math.inf),
    lambda: sinusoid_force([0, 0, 1.0], omega=math.nan),
    lambda: bump_force([0, 0, 1.0], center=math.nan, half_width=1.0),
    lambda: bump_force([0, 0, 1.0], center=0.0, half_width=math.inf),
    lambda: polynomial_force([0, 0, math.nan], t_on=0.0),
    lambda: piecewise_polynomial_trajectory([0.0, math.inf], [[[0.0, 0.0, 0.0]]]),
])
def test_constructors_reject_non_finite(build):
    with pytest.raises(ValueError, match="finite"):
        build()


def test_step_force_allows_minus_infinite_switch_on():
    assert step_force([0, 0, 1.0], t_on=-math.inf).t_on == -math.inf


def test_supersonic_rejected():
    traj = uniform_trajectory([0, 0, 0], [2.0, 0, 0])
    with pytest.raises(SupersonicError):
        retarded_time(traj, [1.0, 1.0, 0], t=0.0, slowness=1.0)


def test_singular_point_rejected():
    traj = static_trajectory([0, 0, 0])
    with pytest.raises(SingularPointError):
        retarded_time(traj, [0.0, 0.0, 0.0], t=1.0, slowness=1.0)


def test_no_retardation_for_bounded_domain():
    traj = tabulated_trajectory(
        [0.0, 1.0, 2.0], np.array([[0.0, 0, 0], [0.1, 0, 0], [0.2, 0, 0]])
    )
    # root would be near t' = -8, before the first knot
    with pytest.raises(NoRetardationError):
        retarded_time(traj, [10.0, 0, 0], t=2.0, slowness=1.0)


def test_root_past_the_last_knot_raises():
    # The root would be near t' = 9, past the last knot (t = 2): a scalar
    # solve raises from the bracket instead of asking the worldline for
    # a time it does not hold.
    traj = tabulated_trajectory(
        [0.0, 1.0, 2.0], np.array([[0.0, 0, 0], [0.1, 0, 0], [0.2, 0, 0]])
    )
    with pytest.raises(ExtrapolationError, match="past the end"):
        retarded_time(traj, [1.0, 0, 0], t=10.0, slowness=1.0)
    with pytest.raises(ExtrapolationError, match="past the end"):
        retarded_time_bisection(traj, [1.0, 0, 0], t=10.0, slowness=1.0)


def test_late_rows_are_masked_and_leave_the_others_alone():
    # Rows whose root lies past the last knot come back late and masked,
    # at the domain end; the other rows are bitwise those of the call
    # without them.
    times = np.linspace(0.0, 4.0, 41)
    traj = tabulated_trajectory(times, np.column_stack([0.2 * np.sin(times), 0.1 * times,
                                                        np.zeros(41)]))
    xs = np.array([[1.5, -0.7, 0.4], [3.0, 0.0, 0.5], [0.8, 0.3, -0.2], [1.0, 1.0, 1.0],
                   [2.0, 0.5, 0.5]])
    ts = np.array([3.0, 6.5, 4.5, 9.0, 4.2])
    kappas = np.array([0.9, 0.6, 0.6, 1.0, 0.5])
    st = retarded_time(traj, xs, ts, kappas)
    late = np.array([False, True, False, True, False])
    assert np.array_equal(st.late, late) and not st.valid[late].any()
    assert np.all(st.t_ret[late] == traj.domain[1]) and st.valid[~late].all()
    ref = retarded_time(traj, xs[~late], ts[~late], kappas[~late])
    assert not ref.late.any()
    for name in ("t_ret", "rvec", "r", "pc", "v", "a", "singular"):
        assert np.array_equal(getattr(st, name)[~late], getattr(ref, name)), name


def test_retarded_time_2d():
    traj = static_trajectory([0, 0, 0])
    st = retarded_time(traj, [3.0, 4.0], t=10.0, slowness=1.0, dim=2)
    assert st.t_ret == pytest.approx(5.0, abs=1e-12)
    assert st.rvec.shape == (2,)


@settings(max_examples=60, deadline=None)
@given(
    vx=st.floats(-0.7, 0.7),
    vy=st.floats(-0.5, 0.5),
    x1=st.floats(0.5, 4.0),
    x2=st.floats(-2.0, 2.0),
    t=st.floats(-2.0, 4.0),
    kappa=st.floats(0.3, 1.0),
)
def test_solver_properties(vx, vy, x1, x2, t, kappa):
    speed = math.hypot(vx, vy)
    if speed * kappa >= 0.99:
        return
    traj = uniform_trajectory([0.05, -0.02, 0.01], [vx, vy, 0.0])
    x = np.array([x1, x2, 0.3])
    st = retarded_time(traj, x, t, kappa)
    # causality, Doppler positivity, residual at the root
    assert st.t_ret < t
    assert st.pc > 0.0
    resid = t - st.t_ret - kappa * st.r
    assert abs(resid) <= 1e-10 * max(1.0, abs(t))
    st_b = retarded_time_bisection(traj, x, t, kappa)
    assert abs(st.t_ret - st_b.t_ret) <= 1e-12 * max(1.0, abs(t))


def test_monotonicity_in_slowness():
    # One array call returns the roots of the scalar calls and of the
    # bisection oracle, row by row; rows whose root precedes a bounded
    # domain come back masked, where a scalar call raises.
    tab = tabulated_trajectory(
        np.linspace(0.0, 4.0, 41),
        np.column_stack([0.2 * np.sin(np.linspace(0, 4, 41)), np.zeros(41), np.zeros(41)]),
    )
    cases = [
        (oscillatory_trajectory([0, 0, 0], [0.2, 0.1, 0], 1.1, 0.3), [1.5, -0.7, 0.4], 2.0, 3),
        (tab, [1.5, -0.7, 0.4], 1.4, 3),  # slowness window crosses domain[0] = 0
        (oscillatory_trajectory([0, 0, 0], [0.2, 0.1, 0], 1.1, 0.3), [1.5, -0.7], 2.0, 2),
    ]
    kappas = np.linspace(0.3, 0.95, 12)
    for traj, x, t, dim in cases:
        st = retarded_time(traj, x, t, kappas, dim=dim)
        assert st.rvec.shape == (12, dim)
        for i, k in enumerate(kappas):
            if not st.valid[i]:
                with pytest.raises(NoRetardationError):
                    retarded_time(traj, x, t, k, dim=dim)
                with pytest.raises(NoRetardationError):
                    retarded_time_bisection(traj, x, t, k, dim=dim)
                continue
            assert retarded_time(traj, x, t, k, dim=dim).t_ret == st.t_ret[i]
            t_b = retarded_time_bisection(traj, x, t, k, dim=dim).t_ret
            assert abs(st.t_ret[i] - t_b) <= 1e-12 * max(1.0, abs(t))
        roots = st.t_ret[st.valid]
        assert roots.size >= 4 and np.all(np.diff(roots) < 0.0)
        if traj is tab:
            assert not st.valid.all()


def _counting(traj):
    calls = []

    def fn(t):
        calls.append(np.size(t))
        return traj._fn(t)

    return dataclasses.replace(traj, _fn=fn), calls


def test_late_event_converges():
    # At t = 1e3 the residual floor of f is ~1e-13 from the rounding of t'
    # itself; the stop rule must reach it in a few steps.
    traj, calls = _counting(oscillatory_trajectory([0, 0, 0], [0.2, 0.1, 0], 1.0))
    x = np.array([1.2, 0.8, 0.6])  # 1.6 from the orbit centre
    t = 1e3
    kappas = np.array([1.0, 0.8, 1.0 / math.sqrt(3.0)])
    st = retarded_time(traj, x, t, kappas)
    assert len(calls) <= 8
    for i, k in enumerate(kappas):
        del calls[:]
        assert retarded_time(traj, x, t, k).t_ret == st.t_ret[i]
        assert len(calls) <= 8
        t_b = retarded_time_bisection(traj, x, t, k).t_ret
        assert abs(st.t_ret[i] - t_b) <= 1e-12 * t


def test_nonconvergence_raises():
    # A declared vmax below the true speed voids the bracket; the solver
    # must say so instead of returning an unconverged root.
    liar = dataclasses.replace(uniform_trajectory([0, 0, 0], [0.5, 0, 0]), vmax=0.0)
    with pytest.raises(RetardedConvergenceError, match="t=3"):
        retarded_time(liar, [2.0, 1.0, 0], 3.0, 0.8)


def test_nonconvergence_message_is_bounded():
    # Many unconverged rows are counted, and only the first is named.
    liar = dataclasses.replace(uniform_trajectory([0, 0, 0], [0.5, 0, 0]), vmax=0.0)
    kappas = np.linspace(0.6, 0.9, 512)
    with pytest.raises(RetardedConvergenceError) as err:
        retarded_time(liar, [2.0, 1.0, 0], 3.0, kappas)
    msg = str(err.value)
    assert "512 row(s)" in msg and "t=3, slowness 0.6" in msg
    assert len(msg) < 200


def test_per_row_observers_and_times():
    # Rows with their own observer and time return the roots of the
    # one-event calls exactly; an observer on the worldline is flagged
    # (NaN geometry) instead of raising, as a scalar call does.
    traj = oscillatory_trajectory([0, 0, 0], [0.2, 0.1, 0], 1.1, 0.3)
    on = traj.eval(2.5)[0]
    xs = np.array([[1.5, -0.7, 0.4], [0.3, 2.0, -1.0], on, [1.5, -0.7, 0.4]])
    ts = np.array([2.0, 4.0, 2.5, 0.1])
    kappas = np.array([0.6, 0.9, 0.7, 1.0])
    st = retarded_time(traj, xs, ts, kappas)
    assert st.singular.tolist() == [False, False, True, False]
    assert np.isnan(st.r[2]) and np.isnan(st.pc[2])
    for i in (0, 1, 3):
        one = retarded_time(traj, xs[i], ts[i], kappas[i])
        assert one.t_ret == st.t_ret[i]
        assert one.pc == st.pc[i]
    with pytest.raises(SingularPointError):
        retarded_time(traj, xs[2], ts[2], kappas[2])
    # one observer and time per row, shared slowness
    shared = retarded_time(traj, xs[[0, 1]], ts[[0, 1]], 0.8)
    for i in (0, 1):
        assert shared.t_ret[i] == retarded_time(traj, xs[i], ts[i], 0.8).t_ret
