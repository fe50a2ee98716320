"""Batched 3D grid evaluation: rows equal the one-event path, whatever the batching."""

import dataclasses

import numpy as np
import pytest

from elastowave import cli, pointforce3d, quadrature
from elastowave.config import parse_config
from elastowave.errors import SingularPointError
from elastowave.kinematics import retarded_time, retarded_time_bisection

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
TABULATED = HEAD + "trajectory.preset = tabulated\n" + (
    "trajectory.times = " + ",".join(repr(float(v)) for v in _TIMES) + "\n"
    "trajectory.positions = " + ",".join(
        repr(float(v)) for v in np.column_stack(
            [0.2 * np.sin(_TIMES), np.zeros_like(_TIMES), np.zeros_like(_TIMES)]
        ).ravel()
    ) + "\n"
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
        kw = dict(rel_tol=cfg.quad_rel, tol_ret=cfg.retarded_rel, r_min=cfg.r_min)
        if i == 3:
            with pytest.raises(SingularPointError):
                pointforce3d.lw_fields(*args, **kw)
            continue
        fs = pointforce3d.lw_fields(*args, **kw)
        one = np.concatenate([fs.u, fs.beta.ravel(), fs.v])
        scale = max(float(np.max(np.abs(one))), 1e-300)
        assert np.max(np.abs(rows[i, 4:19] - one)) <= 1e-14 * scale
    assert np.any(rows[1:3, 4:19] != 0.0)


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
    st = pointforce3d._node_states(cfg.trajectory, xs[ev], ts[ev], kappas, roots[ev], kL, kT,
                                   1e-12, 1e-9)
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


def test_threads_spread_fixed_chunks(monkeypatch):
    monkeypatch.setattr(cli, "EVENT_CHUNK", 16)
    cfg = parse_config(OSCILLATORY)
    one = cli.sample_grid(cfg, threads=1).rows
    assert np.array_equal(cli.sample_grid(cfg, threads=3).rows, one)
