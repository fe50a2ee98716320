"""Command-line front end: sample fields on grids, validate, check limits.

Subcommands:
    sample    evaluate fields over the configured space-time grid and
              write CSV (or JSON); deterministic, byte-identical output
              for an identical config
    validate  run the verification suite, write a JSON report, exit 0
              iff every check passes
    limits    compare the moving-force evaluator against its static
              closed forms over the grid (requires a static 3D point force)
    presets   list built-in trajectory/force presets and their keys

Rows are ordered time-major, then lexicographically over (x1, x2, x3).
Every CSV cell has the bytes of ``'%.16e'``, 17 significant digits, so
the CSV round-trips float64 exactly; ``write_csv`` formats blocks of rows
in one numpy pass and hands the cells it cannot prove to ``'%.16e'``.
Singular grid points, and events whose retarded times reach past the end
of a bounded worldline, are masked (mask=1, fields zeroed) rather than
aborting the run or emitting NaN. 3D grids are evaluated in chunks of
events, one after another, each chunk one batched evaluation; 2D grids
event by event.
"""

from __future__ import annotations

import argparse
import json
import sys
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


# Events per batched 3D evaluation. It bounds a batch's working set by the
# rule of quadrature.NODE_BUDGET: on the seed-0 grids a batch allocates at
# most 1,050 KiB at once (256 `smooth3d` events; 1,057 KiB for the 48 of
# `shell3d`), below the 1.19 MB trim threshold. Every event's row is
# independent of the chunk it falls in.
EVENT_CHUNK = 256


def _rows_3d(cfg: RunConfig, events: np.ndarray) -> np.ndarray:
    """Rows of a block of (x1, x2, x3, t) events, evaluated as one batch."""
    fs, singular = lw_fields_batch(
        cfg.material, cfg.trajectory, cfg.force, events[:, :3], events[:, 3],
        rel_tol=cfg.quad_rel, tol_ret=cfg.retarded_rel,
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
                rel_tol=cfg.history_rel, tol_ret=cfg.retarded_rel,
            )
            row[6] = fs.u
            row[13:15] = fs.beta  # b31, b32
            row[18] = fs.v
        else:  # 2d-inplane
            fs = inplane_fields(
                cfg.material, cfg.trajectory, cfg.force, np.array([x1, x2]), t,
                rel_tol=cfg.history_rel, tol_ret=cfg.retarded_rel,
            )
            row[4:6] = fs.u
            row[7:9] = fs.beta[0]  # b11, b12
            row[10:12] = fs.beta[1]  # b21, b22
            row[16:18] = fs.v
    except (SingularPointError, ExtrapolationError):
        # An observer on the worldline, or a history that reaches past the
        # end of a bounded worldline (masked as the 3D late events are).
        row[4:19] = 0.0
        row[19] = 1.0
    return row


def _rows_2d(cfg: RunConfig, events: np.ndarray) -> np.ndarray:
    return np.array([_row_2d(cfg, *e) for e in events])


def _grid_events(cfg: RunConfig) -> np.ndarray:
    """(x1, x2, x3, t) rows of the configured grid, time-major."""
    t, x1, x2, x3 = np.meshgrid(
        *(cfg.grid.axis_values(name) for name in ("t", "x1", "x2", "x3")), indexing="ij"
    )
    return np.column_stack([x1.ravel(), x2.ravel(), x3.ravel(), t.ravel()])


def sample_grid(cfg: RunConfig, threads: int = 1) -> FieldGrid:
    """Evaluate the configured grid, time-major; deterministic row order.

    3D grids are evaluated in chunks of EVENT_CHUNK events, one after
    another, each one batch; 2D grids event by event. ``threads`` must be
    1 (it stays only because the scripts under perfbench/ pass it).
    """
    if threads != 1:
        raise ValueError(f"threads must be 1, got {threads!r}")
    events = _grid_events(cfg)
    if cfg.dimension == "3d-point":
        rows = np.concatenate([_rows_3d(cfg, events[i:i + EVENT_CHUNK])
                               for i in range(0, len(events), EVENT_CHUNK)])
    else:
        rows = _rows_2d(cfg, events)
    provenance = {
        "version": __version__,
        "config_sha256": cfg.text_sha256,
        "seed": cfg.seed,
        "dimension": cfg.dimension,
    }
    return FieldGrid(columns=list(COLUMNS), rows=rows, provenance=provenance)


# Rows per block of write_csv, by the same rule: a block of 256 rows of 20
# cells allocates 787 KiB at once (1,000 rows took 3,068 KiB).
_CSV_BLOCK_ROWS = 256
_VELTKAMP = 134217729.0  # 2^27 + 1: splits a double into two 26-bit halves
_K0 = -266  # lowest power of ten in _POW10; the fast path needs 10^k, -265 <= k <= 298


def _split(a):
    c = _VELTKAMP * a
    hi = c - (c - a)
    return hi, a - hi


def _pow10_table():
    """10^k, k = _K0..299, as (hi, lo, hi's two split halves); hi + lo is good to ~2^-106.

    From exact integers: int true division rounds correctly, and lo is
    the correctly rounded difference of 10^k from hi's exact ratio.
    """
    his, los = [], []
    for k in range(_K0, 300):
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        hi = num / den
        m, d = hi.as_integer_ratio()
        his.append(hi)
        los.append((num * d - m * den) / (den * d))
    his = np.array(his)
    return (his, np.array(los), *_split(his))


_POW10 = _pow10_table()


def _scaled(a, e):
    """N = round(a * 10^(16 - e)) as int64, and that product minus N (in [-0.5, 0.5]).

    The product is a Dekker two-product of a with the double-double 10^k,
    good to ~1e-14 absolute on values below 1e18.
    """
    hi, lo, hh, hl = (t[16 - e - _K0] for t in _POW10)
    ah, al = _split(a)
    p = a * hi
    err = ((ah * hh - p) + ah * hl + al * hh) + al * hl  # a * hi - p, exactly
    r = np.rint(p)
    t = (p - r) + (err + a * lo)
    n = np.rint(t)
    return r.astype(np.int64) + n.astype(np.int64), t - n


def _decade(n, frac):
    """-1 where n + frac < 10^16, +1 where it is >= 10^17, else 0."""
    low = (n < 10 ** 16) | ((n == 10 ** 16) & (frac < 0))
    high = (n > 10 ** 17) | ((n == 10 ** 17) & (frac >= 0))
    return high.astype(np.int64) - low


def _format_cell(x: float) -> str:
    """The reference format; the cells the fast path cannot prove come here."""
    return "%.16e" % x


_DIGITS = 10 ** np.arange(7, -1, -1, dtype=np.int32)[:, None]


def _csv_bytes(rows: np.ndarray) -> bytes:
    """``'%.16e'`` of every cell of ``rows`` (n, m), ',' between cells, '\\n' after rows.

    A cell is the sign, the leading digit of the int64 N = 17 significant
    digits, '.', N's other 16 digits (two int32 halves of eight), 'e', the
    exponent's sign and its two or three digits: one byte per position of
    a component-major uint8 block whose 0 bytes are padding. Non-finite
    cells, |x| outside [1e-280, 1e280] and scaled values within 1e-6 of a
    rounding tie go to ``_format_cell`` one at a time.
    """
    m = rows.shape[1]
    x = rows.ravel()
    a = np.abs(x)
    fast = (a >= 1e-280) & (a <= 1e280)  # False for NaN and +-inf
    zero = a == 0.0
    a = np.where(fast, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    n, frac = _scaled(a, e)
    shift = _decade(n, frac)
    if shift.any():  # log10 rounded across a power of ten
        i = np.flatnonzero(shift)
        e[i] += shift[i]
        n[i], frac[i] = _scaled(a[i], e[i])
    slow = ~(fast | zero) | (np.abs(np.abs(frac) - 0.5) < 1e-6) | (_decade(n, frac) != 0)
    carry = n == 10 ** 17  # rounds up to the next decade: 1.0000000000000000e(e+1)
    n[carry] = 10 ** 16
    e[carry] += 1
    n[zero] = 0
    e[zero] = 0
    lead = n // 10 ** 16
    rest = n - lead * 10 ** 16
    ae = np.abs(e)
    cells = np.empty((25, x.size), np.uint8)
    cells[0] = np.signbit(x) * np.uint8(ord("-"))
    cells[1] = lead + ord("0")
    cells[2] = ord(".")
    cells[3:11] = (rest // 10 ** 8).astype(np.int32) // _DIGITS % 10 + ord("0")
    cells[11:19] = (rest % 10 ** 8).astype(np.int32) // _DIGITS % 10 + ord("0")
    cells[19] = ord("e")
    cells[20] = np.where(e < 0, ord("-"), ord("+"))
    cells[21] = np.where(ae >= 100, ae // 100 + ord("0"), 0)
    cells[22] = ae // 10 % 10 + ord("0")
    cells[23] = ae % 10 + ord("0")
    cells[24] = ord(",")
    cells[24, m - 1::m] = ord("\n")
    for i in np.flatnonzero(slow):
        s = _format_cell(float(x[i])).encode("ascii")
        cells[:24, i] = 0
        cells[:len(s), i] = np.frombuffer(s, np.uint8)
    return cells.T.tobytes().replace(b"\0", b"")


def write_csv(grid: FieldGrid, path: str):
    """Provenance lines, the header, then one line of ``'%.16e'`` cells per row.

    Every cell has exactly the bytes of ``'%.16e' % float(v)``: 17
    significant digits, so ``read_csv`` gives the values back bit for bit.
    Cells are formatted ``_CSV_BLOCK_ROWS`` rows at a time by one exact
    numpy pass (``_csv_bytes``); the few it cannot prove (NaN, +-inf, |v|
    outside [1e-280, 1e280], near rounding ties) are formatted by
    ``'%.16e'`` itself.
    """
    head = [f"# {key}={grid.provenance[key]}\n"
            for key in ("version", "config_sha256", "seed", "dimension")]
    head.append(",".join(grid.columns) + "\n")
    with open(path, "wb") as fh:
        fh.write("".join(head).encode("utf-8"))
        for i in range(0, len(grid.rows), _CSV_BLOCK_ROWS):
            fh.write(_csv_bytes(grid.rows[i:i + _CSV_BLOCK_ROWS]))


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
    """``grid``'s provenance, columns and rows as indented JSON with sorted keys."""
    payload = {"provenance": grid.provenance, "columns": grid.columns, "rows": grid.rows.tolist()}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def limits_report(cfg: RunConfig, events=None) -> dict:
    """Max deviation of the moving-force evaluator from its static closed forms.

    Compares with Stokes always, and with Kelvin when the force is constant
    for all time (a constant, or a step switched on at -inf).
    """
    if cfg.dimension != "3d-point":
        raise ConfigError([f"source.dimension: limits require 3d-point, got {cfg.dimension!r}"])
    if cfg.trajectory.vmax > 0.0:
        raise ConfigError(["limits require a static trajectory (V = 0)"])
    if events is None:
        events = [(e[:3], e[3]) for e in _grid_events(cfg)]
    xs = np.array([x for x, _ in events], dtype=float).reshape(-1, 3)
    ts = np.array([t for _, t in events], dtype=float)
    # One batch; rows whose observer sits on the source are masked and skipped.
    fs, singular = lw_fields_batch(cfg.material, cfg.trajectory, cfg.force, xs, ts,
                                   min(cfg.quad_rel, 1e-12))
    s0 = cfg.trajectory.eval(0.0)[0]
    dev_stokes = 0.0
    dev_kelvin = 0.0
    kelvin_applicable = cfg.force.kind in ("constant", "step") and cfg.force.t_on == -np.inf
    for i in np.flatnonzero(~singular):
        rvec, t, u, beta = xs[i] - s0, ts[i], fs.u[i], fs.beta[i]
        u_ref = stokes_displacement(cfg.material, cfg.force, rvec, t)
        b_ref = stokes_gradient(cfg.material, cfg.force, rvec, t)
        scale = max(float(np.max(np.abs(u_ref))), float(np.max(np.abs(b_ref))), 1e-300)
        dev_stokes = max(dev_stokes, float(np.max(np.abs(u - u_ref))) / scale)
        dev_stokes = max(dev_stokes, float(np.max(np.abs(beta - b_ref))) / scale)
        if kelvin_applicable:
            q0 = cfg.force.eval(t)[0]
            uk = kelvin_displacement(cfg.material, q0, rvec)
            bk = kelvin_gradient(cfg.material, q0, rvec)
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
    grid = sample_grid(cfg)
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
    if args.seed is not None and args.seed < 0:
        raise ConfigError([f"--seed: must be a non-negative integer, got {args.seed}"])
    names = cfg.checks
    if args.checks is not None:
        names = [c.strip() for c in args.checks.split(",") if c.strip()]
    reports = run_check_suite(cfg, names=names, seed=args.seed)
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
    p_sample.set_defaults(fn=cmd_sample)

    p_val = sub.add_parser("validate", help="run the verification suite")
    p_val.add_argument("--config", required=True)
    p_val.add_argument("--out", default=None)
    p_val.add_argument("--seed", type=int, default=None)
    p_val.add_argument("--list", action="store_true", help="list check names and exit")
    p_val.add_argument("--checks", default=None, help="comma list of checks to run")
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
    except (ElastowaveError, OSError, UnicodeError) as exc:
        # a config that cannot be read or decoded, or an output that
        # cannot be written, is a usage error like an invalid config
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
