"""Command-line front end: sample fields on grids, validate, check limits.

Subcommands:
    sample    evaluate fields over the configured space-time grid and
              write CSV (or JSON); deterministic, byte-identical output
              for identical config + seed
    validate  run the verification suite, write a JSON report, exit 0
              iff every check passes
    limits    compare the moving-force evaluator against its static
              closed forms over the grid (requires a static trajectory)
    presets   list built-in trajectory/force presets and their keys

Rows are ordered time-major, then lexicographically over (x1, x2, x3).
Values are printed with 17 significant digits so the CSV round-trips
float64 exactly. Singular grid points, and events whose retarded times
reach past the end of a bounded worldline, are masked (mask=1, fields
zeroed) rather than aborting the run or emitting NaN. 3D grids are evaluated in
fixed chunks of events, each chunk one batched evaluation; ``--threads``
spreads the chunks (2D: the events) over a thread pool.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .config import FORCE_PRESETS, TRAJECTORY_PRESETS, RunConfig, parse_config
from .errors import ConfigError, ElastowaveError, ExtrapolationError, SingularPointError
from .lineforce2d import antiplane_fields, inplane_fields
from .pointforce3d import (
    kelvin_displacement,
    kelvin_gradient,
    lw_fields_batch,
    stokes_displacement,
    stokes_gradient,
)
# Unused here, but the benchmark tracer (perfbench/tracer.py) patches it by name.
from .pointforce3d import lw_fields  # noqa: F401
from .verify import run_check_suite

COLUMNS = [
    "x1", "x2", "x3", "t",
    "u1", "u2", "u3",
    "b11", "b12", "b13", "b21", "b22", "b23", "b31", "b32", "b33",
    "v1", "v2", "v3",
    "mask",
]


@dataclass
class FieldGrid:
    """Sampled space-time lattice of field rows plus provenance."""

    columns: list[str]
    rows: np.ndarray  # (n_events, len(columns))
    provenance: dict = field(default_factory=dict)


# Events per batched 3D evaluation. Fixed, so rows do not depend on the
# thread count: ``--threads`` spreads whole chunks over the pool.
EVENT_CHUNK = 256


def _rows_3d(cfg: RunConfig, events: np.ndarray) -> np.ndarray:
    """Rows of a block of (x1, x2, x3, t) events, evaluated as one batch."""
    fs, singular = lw_fields_batch(
        cfg.material, cfg.trajectory, cfg.force, events[:, :3], events[:, 3],
        rel_tol=cfg.quad_rel, tol_ret=cfg.retarded_rel, r_min=cfg.r_min,
    )
    rows = np.zeros((len(events), len(COLUMNS)))
    rows[:, 0:4] = events
    rows[:, 4:7] = fs.u
    rows[:, 7:16] = fs.beta.reshape(-1, 9)
    rows[:, 16:19] = fs.v
    rows[singular, 4:19] = 0.0
    rows[singular, 19] = 1.0
    return rows


def _row_2d(cfg: RunConfig, x1, x2, x3, t):
    row = np.zeros(len(COLUMNS))
    row[0:4] = (x1, x2, x3, t)
    try:
        if cfg.dimension == "2d-antiplane":
            fs = antiplane_fields(
                cfg.material, cfg.trajectory, cfg.force, np.array([x1, x2]), t,
                rel_tol=cfg.history_rel, tol_ret=cfg.retarded_rel, r_min=cfg.r_min,
            )
            row[6] = fs.u
            row[13:15] = fs.beta  # b31, b32
            row[18] = fs.v
        else:  # 2d-inplane
            fs = inplane_fields(
                cfg.material, cfg.trajectory, cfg.force, np.array([x1, x2]), t,
                rel_tol=cfg.history_rel, tol_ret=cfg.retarded_rel, r_min=cfg.r_min,
            )
            row[4:6] = fs.u
            row[7:9] = fs.beta[0]  # b11, b12
            row[10:12] = fs.beta[1]  # b21, b22
            row[16:18] = fs.v
    except (SingularPointError, ExtrapolationError):
        # An observer on the worldline, or a history that reaches past the
        # end of a bounded worldline (the 3D ``_past_the_end`` rows).
        row[4:19] = 0.0
        row[19] = 1.0
    return row


def _rows_2d(cfg: RunConfig, events: np.ndarray) -> np.ndarray:
    return np.array([_row_2d(cfg, *e) for e in events])


def _grid_events(cfg: RunConfig) -> np.ndarray:
    """(x1, x2, x3, t) rows of the configured grid, time-major."""
    ts, xs1, xs2, xs3 = (cfg.grid.axis_values(name) for name in ("t", "x1", "x2", "x3"))
    return np.array(
        [(x1, x2, x3, t) for t in ts for x1 in xs1 for x2 in xs2 for x3 in xs3], dtype=float
    )


def sample_grid(cfg: RunConfig, threads: int = 1, seed: int | None = None) -> FieldGrid:
    """Evaluate the configured grid; deterministic row order regardless of threads.

    3D grids are evaluated in fixed chunks of EVENT_CHUNK events, each one
    batch; 2D grids event by event. ``threads`` > 1 maps the chunks (2D:
    the events) over a thread pool.
    """
    events = _grid_events(cfg)
    if cfg.dimension == "3d-point":
        rows_of, size = _rows_3d, EVENT_CHUNK
    else:
        rows_of, size = _rows_2d, 1
    chunks = [events[i:i + size] for i in range(0, len(events), size)]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            blocks = list(pool.map(lambda c: rows_of(cfg, c), chunks))
    else:
        blocks = [rows_of(cfg, c) for c in chunks]
    provenance = {
        "version": __version__,
        "config_sha256": cfg.text_sha256,
        "seed": cfg.seed if seed is None else int(seed),
        "dimension": cfg.dimension,
    }
    return FieldGrid(columns=list(COLUMNS), rows=np.concatenate(blocks), provenance=provenance)


def write_csv(grid: FieldGrid, path: str):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key in ("version", "config_sha256", "seed", "dimension"):
            fh.write(f"# {key}={grid.provenance[key]}\n")
        fh.write(",".join(grid.columns) + "\n")
        line = ",".join(["%.16e"] * len(grid.columns)) + "\n"
        fh.writelines(line % tuple(row) for row in grid.rows.tolist())


def read_csv(path: str) -> FieldGrid:
    provenance = {}
    rows = []
    columns = None
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                provenance[key.strip()] = value
            elif columns is None:
                columns = line.split(",")
            elif line:
                rows.append([float(v) for v in line.split(",")])
    if "seed" in provenance:
        provenance["seed"] = int(provenance["seed"])
    return FieldGrid(columns=columns or [], rows=np.array(rows), provenance=provenance)


def write_json(grid: FieldGrid, path: str):
    payload = {
        "provenance": grid.provenance,
        "columns": grid.columns,
        "rows": [[float(v) for v in row] for row in grid.rows],
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def limits_report(cfg: RunConfig, events=None) -> dict:
    """Max deviation of the moving-force evaluator from its static closed forms."""
    if cfg.trajectory.vmax > 0.0:
        raise ConfigError(["limits require a static trajectory (V = 0)"])
    if events is None:
        events = [(e[:3], e[3]) for e in _grid_events(cfg)]
    xs = np.array([x for x, _ in events], dtype=float).reshape(-1, 3)
    ts = np.array([t for _, t in events], dtype=float)
    # One batch; rows whose observer sits on the source are masked and skipped.
    fs, singular = lw_fields_batch(
        cfg.material, cfg.trajectory, cfg.force, xs, ts, min(cfg.quad_rel, 1e-12),
        r_min=cfg.r_min,
    )
    s0 = cfg.trajectory.eval(0.0)[0]
    dev_stokes = 0.0
    dev_kelvin = 0.0
    kelvin_applicable = cfg.force.kind == "constant"
    for i in np.flatnonzero(~singular):
        rvec, t, u, beta = xs[i] - s0, ts[i], fs.u[i], fs.beta[i]
        u_ref = stokes_displacement(cfg.material, cfg.force, rvec, t, r_min=cfg.r_min)
        b_ref = stokes_gradient(cfg.material, cfg.force, rvec, t, r_min=cfg.r_min)
        scale = max(float(np.max(np.abs(u_ref))), float(np.max(np.abs(b_ref))), 1e-300)
        dev_stokes = max(dev_stokes, float(np.max(np.abs(u - u_ref))) / scale)
        dev_stokes = max(dev_stokes, float(np.max(np.abs(beta - b_ref))) / scale)
        if kelvin_applicable:
            q0 = cfg.force.eval(t)[0]
            uk = kelvin_displacement(cfg.material, q0, rvec, r_min=cfg.r_min)
            bk = kelvin_gradient(cfg.material, q0, rvec, r_min=cfg.r_min)
            dev_kelvin = max(dev_kelvin, float(np.max(np.abs(u - uk))) / scale)
            dev_kelvin = max(dev_kelvin, float(np.max(np.abs(beta - bk))) / scale)
    report = {"n_events": int((~singular).sum()), "stokes_max_rel_dev": dev_stokes}
    if kelvin_applicable:
        report["kelvin_max_rel_dev"] = dev_kelvin
    return report


def _load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def cmd_sample(args) -> int:
    cfg = _load_config(args.config)
    grid = sample_grid(cfg, threads=args.threads, seed=args.seed)
    out = args.out or cfg.out_path
    fmt = args.format or cfg.out_format
    if fmt == "csv":
        write_csv(grid, out)
    else:
        write_json(grid, out)
    print(f"wrote {grid.rows.shape[0]} rows to {out}")
    return 0


def cmd_validate(args) -> int:
    cfg = _load_config(args.config)
    if args.list:
        from .verify import CHECKS

        for name in sorted(CHECKS):
            print(name)
        return 0
    names = cfg.checks
    if args.checks is not None:
        names = [c for c in args.checks.split(",") if c.strip()]
    reports = run_check_suite(
        cfg, names=names, seed=args.seed, corrupt=args.inject_corruption
    )
    payload = [r.to_dict() for r in reports]
    text = json.dumps(payload, indent=1, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    ok = all(r.passed for r in reports)
    return 0 if ok else 1


def cmd_limits(args) -> int:
    cfg = _load_config(args.config)
    report = limits_report(cfg)
    print(json.dumps(report, indent=1, sort_keys=True))
    return 0


def cmd_presets(args) -> int:
    for section, table in (("trajectory", TRAJECTORY_PRESETS), ("force", FORCE_PRESETS)):
        print(f"{section} presets:")
        for name, (_, params) in table.items():
            print(f"  {name}: " + ", ".join(f"{section}.{param}" for param, _, _ in params))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="elastowave",
        description="Elastodynamic fields of non-uniformly moving subsonic point and line forces",
    )
    parser.add_argument("--version", action="version", version=f"elastowave {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sample = sub.add_parser("sample", help="sample fields over the configured grid")
    p_sample.add_argument("--config", required=True)
    p_sample.add_argument("--out", default=None)
    p_sample.add_argument("--format", choices=("csv", "json"), default=None)
    p_sample.add_argument("--threads", type=int, default=1)
    p_sample.add_argument("--seed", type=int, default=None)
    p_sample.set_defaults(fn=cmd_sample)

    p_val = sub.add_parser("validate", help="run the verification suite")
    p_val.add_argument("--config", required=True)
    p_val.add_argument("--out", default=None)
    p_val.add_argument("--seed", type=int, default=None)
    p_val.add_argument("--list", action="store_true", help="list check names and exit")
    p_val.add_argument("--checks", default=None, help="comma list of checks to run")
    p_val.add_argument(
        "--inject-corruption", action="store_true",
        help="corrupt the displacement inside the equation-of-motion check (sensitivity control)",
    )
    p_val.set_defaults(fn=cmd_validate)

    p_lim = sub.add_parser("limits", help="compare against static closed forms")
    p_lim.add_argument("--config", required=True)
    p_lim.set_defaults(fn=cmd_limits)

    p_pre = sub.add_parser("presets", help="list built-in presets")
    p_pre.set_defaults(fn=cmd_presets)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except ElastowaveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
