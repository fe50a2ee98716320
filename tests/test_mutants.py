"""Injected defects and the check reports that must catch them (mutation analysis).

Each entry of ``DEFECTS`` patches one production function so that one
part of the fields moves by a relative eps (an absolute eps for the
retarded times), and names reports of the quick check suite,
``run_check_suite(seed=0)``, that must fail under it at the entry's eps.
At eps = 0 every patch leaves the fields bitwise unchanged, so the whole
suite passes with all of them in place. ``scripts/kill_matrix.py`` runs
the whole suite under every defect and prints which reports fail;
ROADMAP item 18 holds its matrix. Tests of one check's sensitivity
inject these defects too, at their own eps.
"""

import inspect
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

from elastowave import kinematics, lineforce2d, pointforce3d
from elastowave.verify import CHECKS, run_check_suite


@dataclass(frozen=True)
class Defect:
    inject: Callable  # inject(monkeypatch, eps)
    eps: float
    fails: tuple  # report names


def _wrap(monkeypatch, module, name, change):
    """Patch ``module.name`` so that it returns ``change(result, *args, **kwargs)``."""
    original = getattr(module, name)

    def wrapped(*args, **kwargs):
        return change(original(*args, **kwargs), *args, **kwargs)

    monkeypatch.setattr(module, name, wrapped)


# The blocks of the 39-column layout of ``pointforce3d._field_terms``.
FIELD_BLOCKS = {"u": slice(0, 3), "beta_qdot": slice(3, 12), "beta_vel": slice(12, 21),
                "beta_acc": slice(21, 30), "v_qdot": slice(30, 33), "v_vel": slice(33, 36),
                "v_acc": slice(36, 39)}


def _scale_columns(cols):
    """A defect that scales columns ``cols`` of ``_field_terms`` by 1 + eps."""

    def inject(monkeypatch, eps):
        def change(out, *args):
            out[:, cols] *= 1.0 + eps
            return out

        _wrap(monkeypatch, pointforce3d, "_field_terms", change)

    return inject


def _b_vel_v_term(monkeypatch, eps):
    """Scale the V (x) w2 term of b_vel, which vanishes for a static source.

    A source patch: ``_field_terms`` must still be the module's own, so
    this defect comes before the other ``_field_terms`` patches.
    """
    term = "w2 = (s * k / pc) * rv"
    source = inspect.getsource(pointforce3d._field_terms)
    assert source.count(term) == 1
    namespace = dict(vars(pointforce3d))
    exec(source.replace(term, f"w2 = (1.0 + {eps!r}) * (s * k / pc) * rv"), namespace)
    monkeypatch.setattr(pointforce3d, "_field_terms", namespace["_field_terms"])


def _intermediate_channel(monkeypatch, eps):
    """Scale the slowness integrand of the intermediate channel, not the far terms."""

    def change(out, st, prof, p, ga, gb, m):
        return out * (1.0 + eps) if np.ndim(ga) == 0 else out  # a scalar ga is the mid channel

    _wrap(monkeypatch, pointforce3d, "_field_terms", change)


def _scaled_rate(kernel_result, eps):
    u, rate = kernel_result
    return u, lambda *args: rate(*args) * (1.0 + eps)


def _antiplane_rate(monkeypatch, eps):
    _wrap(monkeypatch, lineforce2d, "_antiplane_kernel", lambda res, *a: _scaled_rate(res, eps))


def _antiplane_u(monkeypatch, eps):
    _wrap(monkeypatch, lineforce2d, "_antiplane_kernel",
          lambda res, *a: (res[0] * (1.0 + eps), res[1]))


def _inplane_rate(monkeypatch, eps):
    _wrap(monkeypatch, lineforce2d, "_inplane_kernel", lambda res, *a, **k: _scaled_rate(res, eps))


def _inplane_u_on_l_rows(monkeypatch, eps):
    def change(res, g, q, kT, kL2):
        return np.where((g.kappa != kT)[:, None], res[0] * (1.0 + eps), res[0]), res[1]

    _wrap(monkeypatch, lineforce2d, "_inplane_kernel", change)


def _u1(monkeypatch, eps):
    """Scale u1 of both the point force and the in-plane line force, not their rates."""
    _scale_columns(slice(0, 1))(monkeypatch, eps)
    _wrap(monkeypatch, lineforce2d, "_inplane_kernel",
          lambda res, *a, **k: (res[0] * [1.0 + eps, 1.0], res[1]))


def _retarded_offset(monkeypatch, eps):
    """Shift every solved retarded time by eps before its geometry is formed."""
    original = kinematics._finalize_state

    def shifted(traj, xc, tp, *args, **kwargs):
        return original(traj, xc, tp + eps, *args, **kwargs)

    for module in (kinematics, pointforce3d):
        monkeypatch.setattr(module, "_finalize_state", shifted)


def _force_nonlinear(monkeypatch, eps):
    """Q(t) -> Q (1 + eps |Q|): fields no longer linear in the force strength."""
    original = kinematics.ForceProfile.eval

    def evaluate(self, t):
        q, qd = original(self, t)
        return q * (1.0 + eps * np.linalg.norm(q, axis=-1, keepdims=True)), qd

    monkeypatch.setattr(kinematics.ForceProfile, "eval", evaluate)


# Every 3D defect fails the two 3D closed-form oracles at 1e-6. A defect
# names cheap reports of its row of the kill matrix (ROADMAP item 18 holds
# whole rows); the slower ``line_descent``, ``uniform_motion_oracle`` and
# ``inplane_velocity`` only where no cheaper check catches it.
_ORACLES_3D = ("pulse_oracle", "smooth_oracle")
_STATIC = ("kelvin_limit", "stokes_limit")
_ANTIPLANE = ("antiplane_closed_form_derivs", "antiplane_closed_form_u")

DEFECTS = {
    "b_vel_v_term": Defect(_b_vel_v_term, 1e-6, _ORACLES_3D),
    **{block: Defect(_scale_columns(cols), 1e-6, _ORACLES_3D)
       for block, cols in FIELD_BLOCKS.items()},
    "intermediate_channel": Defect(_intermediate_channel, 1e-6, _ORACLES_3D + _STATIC),
    "antiplane_rate": Defect(_antiplane_rate, 1e-6, ("line_descent",)),
    "antiplane_u": Defect(_antiplane_u, 1e-6, ("antiplane_closed_form_u",)),
    "inplane_rate": Defect(_inplane_rate, 1e-6, ("inplane_velocity_fd",)),
    "inplane_u_on_l_rows": Defect(_inplane_u_on_l_rows, 1e-6, ("inplane_velocity_closed_form",)),
    # a corrupted displacement, which breaks the equation of motion
    "u1": Defect(_u1, 0.1, _ORACLES_3D + _STATIC + (
        "equivariance", "navier_residual_2d", "navier_residual_3d")),
    "retarded_offset": Defect(_retarded_offset, 1e-6, _ORACLES_3D + _STATIC + _ANTIPLANE),
    "force_nonlinear": Defect(_force_nonlinear, 1e-6,
                              _ORACLES_3D + _STATIC + _ANTIPLANE + ("linearity",)),
}


def inject(monkeypatch, name, eps=None):
    """Inject defect ``name`` at ``eps``, by default the table's."""
    defect = DEFECTS[name]
    defect.inject(monkeypatch, defect.eps if eps is None else eps)


def _checks_of(reports):
    """The checks of ``CHECKS`` that give the named reports."""
    return [name for name in CHECKS if any(r.startswith(name) for r in reports)]


def test_every_defect_at_zero_passes_the_quick_suite(monkeypatch):
    for name in DEFECTS:
        inject(monkeypatch, name, 0.0)
    assert [r.name for r in run_check_suite(seed=0) if not r.passed] == []


@pytest.mark.parametrize("name", DEFECTS)
def test_defect_fails_its_reports(monkeypatch, name):
    inject(monkeypatch, name)
    fails = DEFECTS[name].fails
    reports = {r.name: r for r in run_check_suite(names=_checks_of(fails), seed=0)}
    assert [r for r in fails if reports[r].passed] == [], {r: reports[r].max_rel_err for r in fails}
