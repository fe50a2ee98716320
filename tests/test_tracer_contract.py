"""The benchmark tracer wraps program functions by module attribute name.

``perfbench/tracer.py`` installs its wrappers on names such as
``lineforce2d.adaptive_gauss_legendre`` and ``cli.lw_fields``. Deleting or
renaming one of them makes every traced benchmark run fail, so this test
installs the tracer on the package, samples a small 2D grid through it
and checks that uninstalling restores every name.
"""

import importlib.util
from pathlib import Path

from elastowave import cli
from elastowave.config import parse_config

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

INPLANE = """
material.rho = 1.0
material.lam = 1.0
material.mu = 1.0
source.dimension = 2d-inplane
trajectory.preset = static
trajectory.position = 0,0,0
force.preset = step
force.q0 = 1,0.5,0
force.t_on = 0.0
grid.x1 = 0.9:0.9:1
grid.x2 = 0.5:0.5:1
grid.t = 3.7:3.7:1
"""


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores():
    tracer = _load_tracer().Tracer()
    tracer.install()
    patched = list(tracer._patched)
    try:
        assert patched
        assert all(getattr(owner, attr) is not original for owner, attr, original in patched)
        cli.sample_grid(parse_config(INPLANE))
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is original for owner, attr, original in patched)
    names = {span[0] for span in tracer.spans}
    assert {"cli.sample_grid", "lineforce2d.inplane_fields",
            "lineforce2d.inplane_displacement", "kinematics.retarded_time"} <= names
