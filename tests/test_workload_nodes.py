"""Integrand nodes per event of the benchmark's seed-0 grids.

``perfbench/workloads.py`` generates the benchmark's configs; it is loaded
read-only, as ``test_tracer_contract.py`` loads the tracer. Every node the
engine hands to an integrand passes through ``quadrature._panels``, so
counting there gives the engine's work on each grid. A smooth 3D event
and each smooth 2D history segment take one 21-node Gauss-Kronrod panel;
the shell and spline events add that panel to their bisection.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from elastowave import cli, quadrature
from elastowave.config import parse_config

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

# name: (nodes per event, exact)
LIMITS = {
    "smooth3d": (21, True),
    "inplane2d": (798, True),  # 19 stencil points, two segments each
    "shell3d": (2444, False),
    "spline3d": (1243, False),
}


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
