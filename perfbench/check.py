"""Correctness gate behind ``failed``: compare sampled rows with a reference.

The reference is the program's own output at tolerances 100x tighter than
the configured ones. For the default seed it is stored with the benchmark
(``reference/<workload>.npz``, made by ``make_reference.py``) and covers
every row. For any other seed a deterministic subsample of events is
recomputed at the tighter tolerances, outside the timed passes, through the
same ``parse_config`` -> ``sample_grid`` path on single-event configs; a
subsample of the default-seed grid is also recomputed at the configured
tolerances and compared with the stored rows.

A grid event fails when its pass aborted with an exception, when its row is
masked (or not) unlike the reference, when it holds a non-finite value, or
when a field block deviates from the reference by more than the bound.
"""

from __future__ import annotations

import os

import numpy as np

import workloads

TIGHTEN = 100.0
SUBSAMPLE = {"smooth3d": 6, "shell3d": 3, "spline3d": 2, "inplane2d": 2}

# Field blocks of the CSV schema (x1,x2,x3,t,u1..u3,b11..b33,v1..v3,mask).
BLOCKS = {"u": slice(4, 7), "beta": slice(7, 16), "v": slice(16, 19)}
MASK = 19

# Bound on a block's deviation, as a multiple of the configured tolerance
# that limits it: quad_rel for the 3D fields, history_rel for the 2D ones.
# The 2D distortion and velocity are central differences of the
# displacement with a step of about 1e-3 of the history length, which
# amplifies the quadrature error of the displacement by about 1e3.
BOUND_FACTOR = 10.0
FD_AMPLIFICATION = 1e3


def reference_path(here, name):
    return os.path.join(here, "reference", f"{name}.npz")


def load_reference(here, wl):
    """Stored reference rows for the default seed, else None."""
    path = reference_path(here, wl.name)
    if wl.seed != workloads.DEFAULT_SEED or not os.path.exists(path):
        return None
    with np.load(path) as data:
        return data["rows"].copy()


def tight_tolerances(cfg):
    return {
        "quad_rel": cfg.quad_rel / TIGHTEN,
        "history_rel": cfg.history_rel / TIGHTEN,
        "retarded_rel": cfg.retarded_rel / TIGHTEN,
    }


def bounds(cfg):
    if cfg.dimension.startswith("2d"):
        tol = cfg.history_rel
        return {"u": BOUND_FACTOR * tol, "beta": BOUND_FACTOR * FD_AMPLIFICATION * tol,
                "v": BOUND_FACTOR * FD_AMPLIFICATION * tol}
    return {name: BOUND_FACTOR * cfg.quad_rel for name in BLOCKS}


def block_deviation(rows, ref):
    """Per row and block: max |row - ref| / max |ref| over the block."""
    out = {}
    for name, cols in BLOCKS.items():
        diff = np.max(np.abs(rows[:, cols] - ref[:, cols]), axis=1)
        scale = np.max(np.abs(ref[:, cols]), axis=1)
        out[name] = np.where(scale > 0.0, diff / np.where(scale > 0.0, scale, 1.0), diff)
    return out


class Checker:
    def __init__(self, wl, cfg, config, cli, here):
        self.wl = wl
        self.cfg = cfg
        self.config = config
        self.cli = cli
        self.here = here
        self.reference = load_reference(here, wl)
        self.events = wl.events()
        self.outputs: list[list] = []  # [rows, passes that produced them]
        self.attempted = 0
        self.aborted_events = 0
        self.aborted = None
        self.failed = 0
        self.max_rel_dev = {name: 0.0 for name in BLOCKS}
        self.reference_rows = 0
        self.anchor_rows = 0

    def abort(self, exc):
        self.aborted = f"{type(exc).__name__}: {exc}"
        self.attempted += len(self.events)
        self.aborted_events += len(self.events)

    def check_pass(self, rows):
        self.attempted += len(self.events)
        for entry in self.outputs:
            if np.array_equal(entry[0], rows, equal_nan=True):
                entry[1] += 1
                return
        self.outputs.append([rows.copy(), 1])

    def _sample_rows(self, wl, events, tolerances=None):
        """Deterministic subsample of ``events``, sampled one event per config."""
        rng = np.random.default_rng([self.wl.seed, 7919])
        k = min(SUBSAMPLE[wl.name], len(events))
        idx = np.sort(rng.choice(len(events), size=k, replace=False))
        rows = []
        for i in idx:
            text = wl.config_text(tolerances, wl.single_event_grid(events[i]))
            rows.append(self.cli.sample_grid(self.config.parse_config(text), threads=1).rows[0])
        return idx, np.array(rows)

    def _bad_rows(self, rows, ref, events):
        """Rows failing against ``ref``; also records the largest deviations."""
        limit = bounds(self.cfg)
        bad = ~np.all(np.isfinite(rows), axis=1)
        bad |= rows[:, MASK] != ref[:, MASK]
        bad |= np.any(rows[:, :4] != events, axis=1)
        bad |= np.any(ref[:, :4] != events, axis=1)
        for name, dev in block_deviation(rows, ref).items():
            dev = np.where(np.isfinite(dev), dev, np.inf)
            self.max_rel_dev[name] = max(self.max_rel_dev[name], float(np.max(dev)))
            bad |= dev > limit[name]
        return bad

    def _check_anchor(self):
        """Recompute part of the default-seed grid and compare it with the stored rows.

        The tight-tolerance subsample of another seed is computed by the
        program under test, so it cannot see an error that does not shrink
        with the tolerance; the stored rows can.
        """
        wl0 = workloads.make(self.wl.name, workloads.DEFAULT_SEED)
        stored = load_reference(self.here, wl0)
        if stored is None:
            raise FileNotFoundError(reference_path(self.here, wl0.name))
        events0 = wl0.events()
        idx, rows = self._sample_rows(wl0, events0)
        self.anchor_rows = len(idx)
        self.attempted += len(idx)
        self.failed += int(np.sum(self._bad_rows(rows, stored[idx], events0[idx])))

    def check_reference(self):
        """Compare every distinct pass output with the reference rows."""
        self.failed = self.aborted_events
        if not self.outputs:
            return
        if self.reference is not None:
            idx, ref = np.arange(len(self.events)), self.reference
        else:
            idx, ref = self._sample_rows(self.wl, self.events, tight_tolerances(self.cfg))
            self._check_anchor()
        self.reference_rows = len(idx)
        for rows, passes in self.outputs:
            if rows.shape[0] != len(self.events):
                self.failed += passes * len(self.events)
                continue
            bad = self._bad_rows(rows[idx], ref, self.events[idx])
            # A failing sampled row stands for its share of the grid.
            self.failed += passes * int(round(np.sum(bad) * len(self.events) / len(idx)))

    def summary(self):
        return {
            "correct": self.failed == 0 and self.aborted is None,
            "attempted": self.attempted,
            "failed": self.failed,
            "aborted": self.aborted,
            "reference": "stored" if self.reference is not None else "recomputed subsample",
            "reference_rows": self.reference_rows,
            "anchor_rows": self.anchor_rows,
            "max_rel_dev": self.max_rel_dev,
            "max_rel_dev_bound": bounds(self.cfg),
        }
