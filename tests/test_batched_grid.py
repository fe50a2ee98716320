"""Grid evaluation: rows equal the one-event path, whatever the batching."""

import dataclasses

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from elastowave import cli, pointforce3d, quadrature
from elastowave.config import parse_config
from elastowave.errors import ExtrapolationError, SingularPointError
from elastowave.kinematics import (
    Trajectory,
    bump_force,
    piecewise_polynomial_trajectory,
    retarded_time,
    retarded_time_bisection,
    step_force,
)
from elastowave.lineforce2d import antiplane_fields, inplane_fields

HEAD = """
material.rho = 1.0
material.lam = 1.0
material.mu = 1.0
source.dimension = 3d-point
force.preset = step
force.q0 = 0.3,0,1
force.t_on = 0.0
grid.x1 = 1:2:10
grid.x2 = 0:1:10
grid.x3 = 0.5:0.5:1
grid.t = 5:5:1
"""

OSCILLATORY = HEAD + """
trajectory.preset = oscillatory
trajectory.center = 0,0,0
trajectory.amplitude = 0.2,0.05,0
trajectory.omega = 1.0
"""

_TIMES = np.linspace(0.0, 4.0, 41)
_POSITIONS = np.column_stack([0.2 * np.sin(_TIMES), np.zeros_like(_TIMES), np.zeros_like(_TIMES)])
TABULATED = HEAD + "trajectory.preset = tabulated\n" + (
    "trajectory.times = " + ",".join(repr(float(v)) for v in _TIMES) + "\n"
    "trajectory.positions = " + ",".join(repr(float(v)) for v in _POSITIONS.ravel()) + "\n"
)


def _mixed_events(cfg, t_on_worldline):
    """Pre-arrival, P-S shell, behind-front and one on-worldline event."""
    on = cfg.trajectory.eval(t_on_worldline)[0]
    return np.array([
        [2.0, 0.5, 0.5, 0.5],  # pre-arrival: r / cL > t
        [1.5, -0.7, 0.4, 1.4],  # inside the P-S shell of the switch-on
        [1.2, 0.3, 0.5, 3.5],  # behind both fronts
        [on[0], on[1], on[2], t_on_worldline],  # on the worldline
        [2.4, 0.1, 0.5, 1.95],  # inside the shell, further out
    ])


@pytest.mark.parametrize("text", [OSCILLATORY, TABULATED], ids=["oscillatory", "tabulated"])
def test_batched_rows_equal_one_event_calls(text):
    # The tabulated worldline starts at t = 0, so the slowness windows of
    # the early events cross domain[0] and their rows are partly masked.
    cfg = parse_config(text)
    events = _mixed_events(cfg, 2.5)
    rows = cli._rows_3d(cfg, events)
    assert rows[:, cli.COLUMNS.index("mask")].tolist() == [0, 0, 0, 1, 0]
    assert np.all(rows[3, 4:19] == 0.0)
    assert np.all(rows[0, 4:19] == 0.0)  # nothing has arrived yet
    for i, (x1, x2, x3, t) in enumerate(events):
        args = (cfg.material, cfg.trajectory, cfg.force, np.array([x1, x2, x3]), t)
        kw = dict(rel_tol=cfg.quad_rel, tol_ret=cfg.retarded_rel)
        if i == 3:
            with pytest.raises(SingularPointError):
                pointforce3d.lw_fields(*args, **kw)
            continue
        fs = pointforce3d.lw_fields(*args, **kw)
        one = np.concatenate([fs.u, fs.beta.ravel(), fs.v])
        scale = max(float(np.max(np.abs(one))), 1e-300)
        assert np.max(np.abs(rows[i, 4:19] - one)) <= 1e-14 * scale
    assert np.any(rows[1:3, 4:19] != 0.0)


def test_event_after_the_last_knot():
    # The worldline ends at t = 4, but the retarded times of this event lie
    # inside its knots: its fields are those of the same spline extended by
    # one (linear) piece past t = 4.
    cfg = parse_config(TABULATED)
    spline = CubicSpline(_TIMES, _POSITIONS, axis=0, bc_type="natural")
    piece = np.zeros((spline.c.shape[0], 1, 3))
    piece[-1, 0], piece[-2, 0] = spline(4.0), spline(4.0, 1)
    extended = piecewise_polynomial_trajectory(
        np.append(spline.x, 5.0), np.concatenate([spline.c, piece], axis=1))
    x, t = np.array([3.0, 0.0, 0.5]), 4.5
    fs, ref = (pointforce3d.lw_fields(cfg.material, traj, cfg.force, x, t)
               for traj in (cfg.trajectory, extended))
    for got, want in zip((fs.u, fs.beta, fs.v), (ref.u, ref.beta, ref.v)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))


def test_grid_masks_events_past_the_last_knot():
    # The retarded times of every t = 6.5 event reach past the last knot
    # (t = 4): those rows are masked instead of aborting the grid, and the
    # other rows are those of one-event calls.
    text = TABULATED.replace("grid.x1 = 1:2:10", "grid.x1 = 1:3:3").replace(
        "grid.t = 5:5:1", "grid.t = 3:6.5:2")
    cfg = parse_config(text)
    rows = cli.sample_grid(cfg).rows
    late = rows[:, 3] == 6.5
    assert late.sum() == 30
    assert np.all(rows[late, 19] == 1.0) and np.all(rows[late, 4:19] == 0.0)
    assert not rows[~late, 19].any()
    kw = dict(rel_tol=cfg.quad_rel, tol_ret=cfg.retarded_rel)
    for row in rows[~late]:
        fs = pointforce3d.lw_fields(cfg.material, cfg.trajectory, cfg.force, row[:3], row[3], **kw)
        one = np.concatenate([fs.u, fs.beta.ravel(), fs.v])
        assert np.max(np.abs(row[4:19] - one)) <= 1e-14 * max(float(np.max(np.abs(one))), 1e-300)
    with pytest.raises(ExtrapolationError, match="past the end"):
        pointforce3d.lw_fields(cfg.material, cfg.trajectory, cfg.force, rows[late][0, :3], 6.5)


# Columns of the 2D rows, and the one-event evaluator whose values they hold.
_COLUMNS_2D = {
    "2d-inplane": (inplane_fields, [4, 5, 7, 8, 10, 11, 16, 17]),
    "2d-antiplane": (antiplane_fields, [6, 13, 14, 18]),
}


@pytest.mark.parametrize("dimension", sorted(_COLUMNS_2D))
def test_2d_grid_masks_events_past_the_last_knot(dimension):
    # The history of an event at t = 6.5 reaches past the last knot (t = 4)
    # when its latest retarded root does: the longitudinal one in plane
    # strain, the transversal one (its only one) in anti-plane shear, where
    # the root at x1 = 3 still lies inside the knots. Those rows are masked
    # instead of aborting the grid, and the one-event calls keep raising.
    text = TABULATED.replace("3d-point", dimension).replace(
        "grid.x1 = 1:2:10", "grid.x1 = 1:3:3").replace(
        "grid.x2 = 0:1:10", "grid.x2 = 0.5:0.5:1").replace("grid.t = 5:5:1", "grid.t = 3:6.5:2")
    cfg = parse_config(text)
    rows = cli.sample_grid(cfg).rows
    late = [0, 0, 0, 1, 1, 1] if dimension == "2d-inplane" else [0, 0, 0, 1, 1, 0]
    assert rows[:, 19].tolist() == late
    fields, columns = _COLUMNS_2D[dimension]
    kw = dict(rel_tol=cfg.history_rel, tol_ret=cfg.retarded_rel)
    for row in rows:
        args = (cfg.material, cfg.trajectory, cfg.force, row[:2], row[3])
        if row[19]:
            assert np.all(row[4:19] == 0.0)
            with pytest.raises(ExtrapolationError):
                fields(*args, **kw)
            continue
        fs = fields(*args, **kw)
        assert np.array_equal(row[columns], np.hstack([fs.u, np.ravel(fs.beta), fs.v]))
    assert np.any(rows[:3, 4:19] != 0.0)


def test_no_evaluator_asks_for_a_time_outside_the_domain(monkeypatch):
    # The retarded solve masks a root past the last knot from its bracket,
    # so no evaluator asks the worldline for a time it does not hold: the
    # 3D batch skips late events, and the 2D evaluators raise before they
    # integrate. Each grid holds late rows and rows that are evaluated.
    asked = []
    evaluate = Trajectory.eval

    def recording(self, t):
        asked.append(np.asarray(t, dtype=float).reshape(-1))
        return evaluate(self, t)

    monkeypatch.setattr(Trajectory, "eval", recording)
    late = TABULATED.replace("grid.x1 = 1:2:10", "grid.x1 = 1:3:3").replace(
        "grid.x2 = 0:1:10", "grid.x2 = 0.5:0.5:1").replace("grid.t = 5:5:1", "grid.t = 3:6.5:2")
    for dimension in ("3d-point", "2d-inplane", "2d-antiplane"):
        cfg = parse_config(late.replace("3d-point", dimension))
        asked.clear()
        mask = cli.sample_grid(cfg).rows[:, 19]
        assert mask.any() and not mask.all()
        times = np.concatenate(asked)
        lo, hi = cfg.trajectory.domain
        assert times.size and lo <= times.min() and times.max() <= hi, dimension


@pytest.mark.parametrize("text", [OSCILLATORY, TABULATED], ids=["oscillatory", "tabulated"])
def test_empty_batch(text):
    cfg = parse_config(text)
    assert all(c.shape == (0, 3) for c in cfg.trajectory.eval(np.array([])))
    fs, singular = pointforce3d.lw_fields_batch(
        cfg.material, cfg.trajectory, cfg.force, np.empty((0, 3)), np.empty(0)
    )
    assert fs.u.shape == (0, 3) and fs.beta.shape == (0, 3, 3) and fs.v.shape == (0, 3)
    assert singular.shape == (0,)


def test_node_budget_does_not_change_rows(monkeypatch):
    # With 7 nodes per integrand call, every 16-node panel goes to its own
    # call; every row must come out bitwise the same. On the tabulated
    # worldline the early events lack a valid transversal root: at the
    # full budget, nodes solved inside far-channel roots share calls with
    # nodes solved inside their own bracket, and with 7 they do not.
    cases = []
    for text in (OSCILLATORY, TABULATED):
        cfg = parse_config(text)
        events = _mixed_events(cfg, 2.5)
        cases.append((cfg, events, cli._rows_3d(cfg, events)))
    monkeypatch.setattr(quadrature, "NODE_BUDGET", 7)
    for cfg, events, ref in cases:
        assert np.array_equal(cli._rows_3d(cfg, events), ref)


def test_grid_makes_few_solver_calls(monkeypatch):
    # 100 smooth events are one batch: one far-channel solve plus a few
    # budget-sized slowness batches, not about four solves per event.
    calls = []
    solve = pointforce3d.retarded_time

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(pointforce3d, "retarded_time", counted)
    grid = cli.sample_grid(parse_config(OSCILLATORY))
    assert grid.rows.shape[0] == 100
    assert not grid.rows[:, -1].any()
    assert len(calls) <= 8


# Four events behind both fronts of the tabulated worldline: the kinks of
# its knots refine the slowness integrals for about 20 rounds, the largest
# holding between 1,024 and 2,048 nodes.
KNOT_GRID = TABULATED.replace("grid.x1 = 1:2:10", "grid.x1 = 1:2:4").replace(
    "grid.x2 = 0:1:10", "grid.x2 = 0:0:1").replace("grid.t = 5:5:1", "grid.t = 3.5:3.5:1")


def _counting_rounds(monkeypatch):
    """Record the nodes of each refinement round and of each integrand call."""
    rounds, calls = [], []
    panels = quadrature._panels

    def counted(f, lo, hi, owner, x, w):
        rounds.append(lo.size * x.size)

        def g(xs, own):
            calls.append(xs.size)
            return f(xs, own)

        return panels(g, lo, hi, owner, x, w)

    monkeypatch.setattr(quadrature, "_panels", counted)
    return rounds, calls


@pytest.mark.parametrize("text", [OSCILLATORY, TABULATED], ids=["oscillatory", "tabulated"])
def test_nodes_solve_inside_far_roots(text):
    # t_ret falls as kappa rises, so the far roots t_T <= t_L bracket the
    # root of every slowness node; nodes across (kL, kT), right up to both
    # ends, must land there and agree with plain bisection.
    cfg = parse_config(text)
    kL, kT = 1.0 / cfg.material.cL, 1.0 / cfg.material.cT
    behind = [[1.0, 0.5, 0.5, 3.0], [1.8, -0.4, 0.3, 3.9]]
    events = np.concatenate([np.delete(_mixed_events(cfg, 2.5), 3, axis=0), behind])
    xs, ts = events[:, :3], events[:, 3]
    n = ts.size
    far = retarded_time(cfg.trajectory, np.repeat(xs, 2, axis=0), np.repeat(ts, 2),
                        np.tile([kT, kL], n))
    roots = pointforce3d._far_roots(far, n)
    fractions = np.array([1e-12, 0.01, 0.2, 0.5, 0.77, 0.99, 1.0 - 1e-12])
    ev = np.repeat(np.arange(n), fractions.size)
    kappas = kL + (kT - kL) * np.tile(fractions, n)
    win = pointforce3d._windows(roots, kL, kT, None, None)
    st = pointforce3d._node_states(cfg.trajectory, np.ascontiguousarray(xs[ev].T), ts[ev], kappas,
                                   win[:, ev], 1e-12)
    bracketed = ~np.isnan(roots[ev, 0])
    assert bracketed.sum() >= 3 * fractions.size
    for i in np.flatnonzero(st.valid):
        t_ret = st.t_ret[i]
        if bracketed[i]:
            assert roots[ev[i], 0] <= t_ret <= roots[ev[i], 1]
        ref = retarded_time_bisection(cfg.trajectory, xs[ev[i]], ts[ev[i]], kappas[i]).t_ret
        assert abs(t_ret - ref) <= 1e-12 * max(1.0, abs(t_ret))
    assert st.valid[bracketed].all()


def test_grid_trajectory_points_per_solved_row(monkeypatch):
    # Every slowness node of a smooth event starts its Newton loop close to
    # the root, inside the event's far roots: about 4 trajectory points
    # per solved row (about 6 with a fresh bracket and a midpoint start).
    cfg = parse_config(OSCILLATORY)
    points = []
    traj = cfg.trajectory

    def fn(t):
        points.append(np.size(t))
        return traj._fn(t)

    cfg = dataclasses.replace(cfg, trajectory=dataclasses.replace(traj, _fn=fn))
    rounds, _ = _counting_rounds(monkeypatch)
    grid = cli.sample_grid(cfg)
    assert grid.rows.shape[0] == 100
    assert sum(points) <= 4.5 * (2 * 100 + sum(rounds))


def test_one_integrand_call_per_round(monkeypatch):
    rounds, calls = _counting_rounds(monkeypatch)
    grid = cli.sample_grid(parse_config(KNOT_GRID))
    assert not grid.rows[:, -1].any()
    # Rounds of more than 1,024 nodes, each handed over in one call.
    assert 1024 < max(rounds) <= quadrature.NODE_BUDGET
    assert calls == rounds


def test_rows_do_not_depend_on_the_chunk_size(monkeypatch):
    cfg = parse_config(OSCILLATORY)
    rows = cli.sample_grid(cfg).rows
    assert len(rows) > 16
    monkeypatch.setattr(cli, "EVENT_CHUNK", 16)
    assert np.array_equal(cli.sample_grid(cfg).rows, rows)
    with pytest.raises(ValueError, match="threads"):
        cli.sample_grid(cfg, threads=2)


def _window_of(cfg, prof, events):
    """Far-channel solve and slowness windows of events (n, 4) under ``prof``."""
    xs, ts = events[:, :3], events[:, 3]
    kL, kT = 1.0 / cfg.material.cL, 1.0 / cfg.material.cT
    n = ts.size
    far = retarded_time(cfg.trajectory, np.repeat(xs, 2, axis=0), np.repeat(ts, 2),
                        np.tile([kT, kL], n))
    xc = np.ascontiguousarray(xs.T)
    return xc, pointforce3d._windows(
        pointforce3d._far_roots(far, n), kL, kT,
        pointforce3d._break(cfg.trajectory, xc, ts, prof.t_on),
        pointforce3d._break(cfg.trajectory, xc, ts, prof.t_off))


@pytest.mark.parametrize("text", [OSCILLATORY, TABULATED], ids=["oscillatory", "tabulated"])
def test_nodes_outside_the_support_are_exact_zeros(text):
    # A step force seen inside the P-S shell (switch-on break inside the
    # slowness window) and a bump force whose switch-on and switch-off
    # breaks both lie inside it. Nodes past a break are exact zeros; the
    # others equal a plain solve of their own.
    cfg = parse_config(text)
    kL, kT = 1.0 / cfg.material.cL, 1.0 / cfg.material.cT
    cases = [(step_force([0.3, 0.0, 1.0], 0.0), _mixed_events(cfg, 2.5)[[1, 4]]),
             (bump_force([0.3, 0.0, 1.0], 2.0, 0.3), np.array([[2.5, 0.3, 0.5, 4.0]]))]
    fractions = np.linspace(0.0, 1.0, 203)[1:-1]
    for prof, events in cases:
        xc, win = _window_of(cfg, prof, events)
        assert np.all(win[1] < kT)
        assert np.all(kL < win[0]) == np.isfinite(prof.t_off)
        n = events.shape[0]
        ev = np.repeat(np.arange(n), fractions.size)
        kappas = kL + (kT - kL) * np.tile(fractions, n)
        terms, hit = pointforce3d._slowness_terms(cfg.trajectory, prof, xc, events[:, 3], win, ev,
                                                  kappas, 1e-12)
        assert hit.size == 0 and terms.T.flags.c_contiguous
        inside = (win[0, ev] <= kappas) & (kappas <= win[1, ev])
        assert 0 < inside.sum() < inside.size
        assert np.all(terms[~inside] == 0.0)
        st = retarded_time(cfg.trajectory, events[ev, :3], events[ev, 3], kappas)
        ref = pointforce3d._field_terms(st, prof, kappas, pointforce3d._MID_GA,
                                        pointforce3d._MID_GB, pointforce3d._MID_M)
        assert np.all(ref[~inside] == 0.0)
        assert np.max(np.abs(terms[inside] - ref[inside])) <= 1e-13 * np.max(np.abs(ref))
        # Every kept node retards into the support.
        assert np.all((st.t_ret[inside] >= prof.t_on - 1e-12)
                      & (st.t_ret[inside] <= prof.t_off + 1e-12))


def test_shell_events_solve_only_their_support(monkeypatch):
    # Deterministic work gate: inside the P-S shell about half the slowness
    # nodes retard to before the switch-on, and the rest start Newton from
    # the anchor (kappa_on, t_on), so few trajectory points are spent per
    # engine node. A smooth event is not cut and keeps its 15 nodes: one
    # Gauss-Kronrod panel, over retarded time, where no node is solved.
    rows, points = [], []
    newton = pointforce3d._newton

    def counted(traj, xc, t, k, *args):
        rows.append(k.size)
        return newton(traj, xc, t, k, *args)

    monkeypatch.setattr(pointforce3d, "_newton", counted)
    cfg = parse_config(OSCILLATORY)
    traj = cfg.trajectory

    def fn(t):
        points.append(np.size(t))
        return traj._fn(t)

    cfg = dataclasses.replace(cfg, trajectory=dataclasses.replace(traj, _fn=fn))
    rounds, _ = _counting_rounds(monkeypatch)
    events = _mixed_events(cfg, 2.5)
    cli._rows_3d(cfg, events[[1, 4]])
    nodes = sum(rounds)
    assert sum(rows) <= 0.55 * nodes
    assert sum(points) <= 1.6 * nodes
    rounds.clear()
    rows.clear()
    cli._rows_3d(cfg, events[[2]])
    assert sum(rounds) == 15 and sum(rows) == 0


def test_cut_windows_keep_the_21_node_probe(monkeypatch):
    # Shell events 1 and 4, whose windows the switch-on cuts, keep the
    # qk21 probe and its Gauss-Legendre bisection: their rows are the bits
    # of an engine that probes every window with qk21. The behind-front
    # event 2 takes the qk15 probe, in an engine call of its own.
    cfg = parse_config(OSCILLATORY)
    events = _mixed_events(cfg, 2.5)[[1, 2, 4]]
    sizes = []
    panels = quadrature._panels

    def counted(f, lo, hi, owner, x, w):
        sizes.append((lo.size, x.size))
        return panels(f, lo, hi, owner, x, w)

    monkeypatch.setattr(quadrature, "_panels", counted)
    rows = cli._rows_3d(cfg, events)
    assert sizes[:2] == [(1, 15), (2, 21)]
    assert {k for _, k in sizes[2:]} == {quadrature.NODES}
    engine = quadrature.integrate_intervals
    monkeypatch.setattr(pointforce3d, "integrate_intervals",
                        lambda *args, order, **kw: engine(*args, **kw))
    assert np.array_equal(cli._rows_3d(cfg, events)[[0, 2]], rows[[0, 2]])
