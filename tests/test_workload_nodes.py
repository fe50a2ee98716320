"""Integrand nodes and trajectory points per event of the benchmark's seed-0 grids.

``perfbench/workloads.py`` generates the benchmark's configs; it is loaded
read-only, as ``test_tracer_contract.py`` loads the tracer. Every node the
engine hands to an integrand passes through ``quadrature._panels``, so
counting there gives the engine's work on each grid. A smooth 3D event
takes one 15-node Gauss-Kronrod panel, and each smooth 2D history segment
one 21-node panel. A window the panel rejects keeps its Kronrod sum as the
depth-0 estimate and bisects into 16-node Gauss-Legendre halves, so the
spline events take the 15-node panel plus their halves, the shell events
the 21-node one plus theirs. Every trajectory point the
retarded solves and the 3D kernel evaluate passes through the
trajectory's ``_fn``.
"""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from elastowave import cli, quadrature
from elastowave.config import parse_config

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

# name: (nodes per event, exact)
LIMITS = {
    "smooth3d": (15, True),
    # 13 points, two segments each; the centre's velocity rides as extra
    # columns of its segments, which some events then bisect
    "inplane2d": (562, True),
    "shell3d": (2428, False),
    "spline3d": (1221, False),
}

# name: most trajectory points per event. A Halley step reaches the
# retarded-time stop rule in fewer evaluations than a Newton step, and a
# smooth3d event solves only its two far roots: its 15 slowness nodes are
# retarded times, one point each.
POINTS = {"smooth3d": 26.59, "shell3d": 3026, "spline3d": 3672, "inplane2d": 148}


def _load_workloads():
    # Its dataclasses look their module up in sys.modules.
    if "perfbench_workloads" not in sys.modules:
        spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
    return sys.modules["perfbench_workloads"]


@pytest.mark.parametrize("name", sorted(LIMITS))
def test_nodes_per_event_on_seed0_grids(monkeypatch, name):
    wl = _load_workloads().make(name, 0)
    cfg = parse_config(wl.config_text())
    nodes = []
    panels = quadrature._panels

    def counted(f, lo, hi, owner, x, w):
        nodes.append(lo.size * x.size)
        return panels(f, lo, hi, owner, x, w)

    monkeypatch.setattr(quadrature, "_panels", counted)
    grid = cli.sample_grid(cfg)
    events = len(wl.events())
    assert grid.rows.shape[0] == events
    per_event = sum(nodes) / events
    limit, exact = LIMITS[name]
    if exact:
        assert per_event == limit
    else:
        assert per_event <= limit


@pytest.mark.parametrize("name", sorted(POINTS))
def test_trajectory_points_per_event_on_seed0_grids(name):
    wl = _load_workloads().make(name, 0)
    cfg = parse_config(wl.config_text())
    traj, points = cfg.trajectory, []

    def fn(t):
        points.append(np.size(t))
        return traj._fn(t)

    cfg = dataclasses.replace(cfg, trajectory=dataclasses.replace(traj, _fn=fn))
    events = len(wl.events())
    assert cli.sample_grid(cfg).rows.shape[0] == events
    assert sum(points) / events <= POINTS[name]
