"""Batched 3D grid evaluation: rows equal the one-event path, whatever the batching."""

import numpy as np
import pytest

from elastowave import cli, pointforce3d, quadrature
from elastowave.config import parse_config
from elastowave.errors import SingularPointError

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
    # With 7 nodes per integrand call, panels straddle calls; every row
    # must come out bitwise the same.
    cfg = parse_config(OSCILLATORY)
    events = _mixed_events(cfg, 2.5)
    ref = cli._rows_3d(cfg, events)
    monkeypatch.setattr(quadrature, "NODE_BUDGET", 7)
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


def test_threads_spread_fixed_chunks(monkeypatch):
    monkeypatch.setattr(cli, "EVENT_CHUNK", 16)
    cfg = parse_config(OSCILLATORY)
    one = cli.sample_grid(cfg, threads=1).rows
    assert np.array_equal(cli.sample_grid(cfg, threads=3).rows, one)
