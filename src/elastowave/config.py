"""Run-configuration grammar and validation.

Configs are flat ``section.key = value`` lines; ``#`` starts a comment.
Values are typed: floats, integers, comma-separated vectors (``0,0,1``),
colon ranges (``min:max:count``) and enumerated strings. Every number
must be finite; the one exception is ``force.t_on = -inf`` for the
``step`` preset (switched on for all time, 3D only). The parser collects
every violation before failing so a bad file reports all its problems at
once.

Documented keys
---------------
material.rho / material.lam / material.mu / material.nu
    Density and Lame constants; give either lam or nu with mu.
source.dimension
    3d-point | 2d-inplane | 2d-antiplane
trajectory.preset / force.preset
    A preset name plus that preset's own parameters, as declared in
    TRAJECTORY_PRESETS and FORCE_PRESETS (``elastowave presets`` lists
    them). A parameter without a default is required; a key of another
    preset of the same section is rejected. Vectors are flat; the
    preset's constructor documents their layout.
grid.x1, grid.x2, grid.x3, grid.t
    Ranges min:max:count (finite min and max, count >= 1).
tolerances.quad_rel / tolerances.retarded_rel / tolerances.history_rel
    Positive tolerances for the slowness quadrature, the retarded-time
    solver, and the 2D history quadrature.
run.seed / run.checks
    Non-negative integer seed for randomized validation, and an optional
    comma list restricting which validation checks run; each must name
    an entry of ``verify.CHECKS``.
output.path / output.format
    Output file and csv | json.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .kinematics import (
    DEFAULT_RETARDED_TOL,
    ForceProfile,
    Trajectory,
    bump_force,
    constant_force,
    motion_violations,
    oscillatory_trajectory,
    piecewise_polynomial_trajectory,
    polynomial_force,
    ramp_force,
    sinusoid_force,
    static_trajectory,
    step_force,
    tabulated_trajectory,
    uniform_trajectory,
)
from .lineforce2d import DEFAULT_HISTORY_TOL
from .material import Material, make_material, make_material_poisson
from .pointforce3d import DEFAULT_SLOWNESS_TOL
from .verify import CHECKS

__all__ = ["RunConfig", "GridSpec", "parse_config", "TRAJECTORY_PRESETS", "FORCE_PRESETS"]

DIMENSIONS = ("3d-point", "2d-inplane", "2d-antiplane")

# Every preset once: its constructor and that constructor's positional
# parameters as (name, kind, default); a default of None makes the key
# required. The first preset of a table is the section's default.
_ORIGIN = (0.0, 0.0, 0.0)
_UNIT_Z = (0.0, 0.0, 1.0)

TRAJECTORY_PRESETS = {
    "static": (static_trajectory, (("position", "vector", _ORIGIN),)),
    "uniform": (uniform_trajectory, (
        ("origin", "vector", _ORIGIN), ("velocity", "vector", _ORIGIN),
    )),
    "oscillatory": (oscillatory_trajectory, (
        ("center", "vector", _ORIGIN), ("amplitude", "vector", _ORIGIN),
        ("omega", "scalar", 1.0), ("phase", "scalar", 0.0),
    )),
    "piecewise-polynomial": (piecewise_polynomial_trajectory, (
        ("breakpoints", "vector", None), ("coefficients", "vector", None),
    )),
    "tabulated": (tabulated_trajectory, (("times", "vector", None), ("positions", "vector", None))),
}

FORCE_PRESETS = {
    "constant": (constant_force, (("q0", "vector", _UNIT_Z),)),
    "step": (step_force, (("q0", "vector", _UNIT_Z), ("t_on", "scalar", -math.inf))),
    "ramp": (ramp_force, (("rate", "vector", _UNIT_Z), ("t_on", "scalar", None))),
    "sinusoid": (sinusoid_force, (
        ("q0", "vector", _UNIT_Z), ("omega", "scalar", 1.0), ("phase", "scalar", 0.0),
    )),
    "bump": (bump_force, (
        ("q0", "vector", _UNIT_Z), ("center", "scalar", 0.0), ("half_width", "scalar", 1.0),
    )),
    "polynomial": (polynomial_force, (("coefficients", "vector", None), ("t_on", "scalar", None))),
}

# Config keys of each preset, and of all presets of a section.
_PRESET_KEYS = {
    section: {
        name: frozenset(f"{section}.{param}" for param, _, _ in params)
        for name, (_, params) in table.items()
    }
    for section, table in (("trajectory", TRAJECTORY_PRESETS), ("force", FORCE_PRESETS))
}
_SECTION_KEYS = {
    section: frozenset().union(*keys.values()) for section, keys in _PRESET_KEYS.items()
}

_KNOWN_KEYS = {
    "material.rho", "material.lam", "material.mu", "material.nu",
    "source.dimension",
    "trajectory.preset", "force.preset",
    "grid.x1", "grid.x2", "grid.x3", "grid.t",
    "tolerances.quad_rel", "tolerances.retarded_rel", "tolerances.history_rel",
    "run.seed", "run.checks",
    "output.path", "output.format",
}.union(*_SECTION_KEYS.values())


@dataclass(frozen=True)
class GridSpec:
    """Axis ranges (min, max, count) for x1, x2, x3 and t."""

    x1: tuple[float, float, int] = (0.0, 0.0, 1)
    x2: tuple[float, float, int] = (0.0, 0.0, 1)
    x3: tuple[float, float, int] = (0.0, 0.0, 1)
    t: tuple[float, float, int] = (0.0, 0.0, 1)

    def axis_values(self, name):
        lo, hi, n = getattr(self, name)
        return np.linspace(lo, hi, n)

    @property
    def n_events(self):
        return self.x1[2] * self.x2[2] * self.x3[2] * self.t[2]


@dataclass
class RunConfig:
    """Validated run description with constructed physics objects."""

    material: Material
    dimension: str
    trajectory: Trajectory
    force: ForceProfile
    grid: GridSpec
    quad_rel: float
    retarded_rel: float
    history_rel: float
    seed: int
    checks: list[str] | None
    out_path: str
    out_format: str
    text_sha256: str


def _parse_scalar(value, errors, key):
    try:
        return float(value)
    except ValueError:
        errors.append(f"{key}: expected a number, got {value!r}")
        return math.nan


def _parse_vector(value, errors, key):
    try:
        return np.array([float(p) for p in value.split(",") if p.strip() != ""])
    except ValueError:
        errors.append(f"{key}: expected comma-separated numbers, got {value!r}")
        return np.zeros(3)


_PARSERS = {"scalar": _parse_scalar, "vector": _parse_vector}


def _parse_range(value, errors, key):
    parts = value.split(":")
    if len(parts) != 3:
        errors.append(f"{key}: expected min:max:count, got {value!r}")
        return (0.0, 0.0, 1)
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        errors.append(f"{key}: expected min:max:count with numeric fields, got {value!r}")
        return (0.0, 0.0, 1)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        errors.append(f"{key}: min and max must be finite, got {value!r}")
        return (0.0, 0.0, 1)
    if n < 1:
        errors.append(f"{key}: count must be >= 1, got {n}")
        n = 1
    return (lo, hi, n)


def _build_material(kv, errors):
    rho = _parse_scalar(kv.get("material.rho", "1.0"), errors, "material.rho")
    mu = _parse_scalar(kv.get("material.mu", "1.0"), errors, "material.mu")
    has_lam = "material.lam" in kv
    has_nu = "material.nu" in kv
    if has_lam and has_nu:
        errors.append("material: give either material.lam or material.nu, not both")
    try:
        if has_nu:
            return make_material_poisson(rho, mu, _parse_scalar(kv["material.nu"], errors, "material.nu"))
        lam = _parse_scalar(kv.get("material.lam", "1.0"), errors, "material.lam")
        return make_material(rho, lam, mu)
    except ValueError as exc:
        errors.append(f"material: {exc}")
        return make_material(1.0, 1.0, 1.0)


def _build_preset(section, table, kv, errors):
    """Construct the ``section`` preset that ``kv`` names, from its declared keys.

    A key of a sibling preset or a missing required key is a violation.
    While any key is in error, the section's default preset (the first
    of ``table``, at its defaults) stands in, so later checks still run.
    """
    name = kv.get(f"{section}.preset", next(iter(table))).strip()
    n_errors = len(errors)
    if name not in table:
        errors.append(f"{section}.preset: unknown preset {name!r}; known: {sorted(table)}")
    else:
        for key in sorted(kv.keys() & _SECTION_KEYS[section] - _PRESET_KEYS[section][name]):
            errors.append(f"{key}: not a parameter of {section} preset {name!r}")
        build, params = table[name]
        args = []
        for param, kind, value in params:
            key = f"{section}.{param}"
            if key in kv:
                value = _PARSERS[kind](kv[key], errors, key)
            elif value is None:
                errors.append(f"{key}: required by {section} preset {name!r}")
            args.append(value)
        if len(errors) == n_errors:
            try:
                return build(*args)
            except (ValueError, TypeError) as exc:
                errors.append(f"{section}: {exc}")
    build, params = next(iter(table.values()))
    return build(*(value for _, _, value in params))


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a config; raises ConfigError listing every violation."""
    errors: list[str] = []
    kv: dict[str, str] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.partition("#")[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        if not eq:
            errors.append(f"line {lineno}: expected 'section.key = value', got {raw_line!r}")
            continue
        key, value = key.strip(), value.strip()
        if key not in _KNOWN_KEYS:
            errors.append(f"line {lineno}: unknown key {key!r}")
            continue
        if key in kv:
            errors.append(f"line {lineno}: duplicate key {key!r}")
        kv[key] = value

    mat = _build_material(kv, errors)
    traj = _build_preset("trajectory", TRAJECTORY_PRESETS, kv, errors)
    prof = _build_preset("force", FORCE_PRESETS, kv, errors)

    dimension = kv.get("source.dimension", "3d-point").strip()
    if dimension not in DIMENSIONS:
        errors.append(f"source.dimension: must be one of {DIMENSIONS}, got {dimension!r}")

    errors.extend(message for _, message in
                  motion_violations(traj, prof, mat.cT, dimension.startswith("2d")))

    grid = GridSpec(
        x1=_parse_range(kv.get("grid.x1", "0:0:1"), errors, "grid.x1"),
        x2=_parse_range(kv.get("grid.x2", "0:0:1"), errors, "grid.x2"),
        x3=_parse_range(kv.get("grid.x3", "0:0:1"), errors, "grid.x3"),
        t=_parse_range(kv.get("grid.t", "0:0:1"), errors, "grid.t"),
    )

    tols = {}
    for name, default in (
        ("quad_rel", DEFAULT_SLOWNESS_TOL), ("retarded_rel", DEFAULT_RETARDED_TOL),
        ("history_rel", DEFAULT_HISTORY_TOL),
    ):
        val = _parse_scalar(kv.get(f"tolerances.{name}", str(default)), errors, f"tolerances.{name}")
        if not 0.0 < val < math.inf:
            errors.append(f"tolerances.{name}: must be positive and finite, got {val:g}")
            val = default
        tols[name] = val

    try:
        seed = int(kv.get("run.seed", "0"))
    except ValueError:
        errors.append(f"run.seed: expected an integer, got {kv.get('run.seed')!r}")
        seed = 0
    if seed < 0:
        errors.append(f"run.seed: must be a non-negative integer, got {seed}")

    checks = None
    if "run.checks" in kv:
        checks = [c.strip() for c in kv["run.checks"].split(",") if c.strip()]
        errors.extend(f"run.checks: unknown check {c!r}" for c in checks if c not in CHECKS)

    out_format = kv.get("output.format", "csv").strip()
    if out_format not in ("csv", "json"):
        errors.append(f"output.format: must be csv or json, got {out_format!r}")
        out_format = "csv"

    if errors:
        raise ConfigError(errors)

    return RunConfig(
        material=mat,
        dimension=dimension,
        trajectory=traj,
        force=prof,
        grid=grid,
        quad_rel=tols["quad_rel"],
        retarded_rel=tols["retarded_rel"],
        history_rel=tols["history_rel"],
        seed=seed,
        checks=checks,
        out_path=kv.get("output.path", "fields.csv").strip(),
        out_format=out_format,
        text_sha256=hashlib.sha256(text.encode("utf-8")).hexdigest(),
    )
