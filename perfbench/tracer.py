"""Outside-in tracing of the program's layers.

The tracer replaces public entry points with wrappers that record one span
per call: name, start, end, parent span and the id of the grid event the
call belongs to. Nothing under ``src/`` is modified; the wrappers are
installed on module attributes and restored by ``uninstall``. Modules that
import a function by name (``from .quadrature import adaptive_gauss_legendre``)
hold their own reference, so the wrapper is installed on each such module.

Spans are kept in memory and written once, at the end of the run.
"""

from __future__ import annotations

import gzip
import time

import numpy as np

# Span record layout (a list, so the wrapper can fill the end time in place).
NAME, START, END, PARENT, EVENT, N, M = range(7)

# An adaptive panel is accepted at min_width when its width is at most
# 1e-12 of the interval; the collect= hook then records its two halves.
MIN_WIDTH_SHARE = 1e-12


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.event = -1  # id of the grid event being evaluated, -1 outside one
        self.events = 0
        self._patched: list[tuple] = []

    def _open(self, name, n=1):
        rec = [name, 0, 0, self._stack[-1] if self._stack else -1, self.event, n, 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter_ns()
        return rec

    def _close(self, rec):
        rec[END] = time.perf_counter_ns()
        self._stack.pop()

    def span(self, name, fn, points=None, new_event=False):
        """Wrap ``fn``; ``points(args)`` gives the span's work count."""

        def wrapper(*args, **kwargs):
            if new_event:
                self.event = self.events
                self.events += 1
            rec = self._open(name, points(args) if points else 1)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)
                if new_event:
                    self.event = -1

        return wrapper

    def quadrature(self, kernel_name, fn):
        """Wrap adaptive_gauss_legendre and the integrand it receives."""

        def wrapper(f, a, b, *args, **kwargs):
            vectorized = kwargs.get("vectorized", False)
            kernel = self.span(kernel_name, f, (lambda a_: len(a_[0])) if vectorized else None)
            caller_collect = kwargs.get("collect")
            panels = []
            kwargs["collect"] = panels
            rec = self._open("quadrature.adaptive_gauss_legendre")
            try:
                return fn(kernel, a, b, *args, **kwargs)
            finally:
                self._close(rec)
                rec[N] = len(panels)
                limit = 0.5 * MIN_WIDTH_SHARE * (b - a) * (1.0 + 1e-9)
                rec[M] = sum(1 for _, w in panels if float(np.sum(w)) <= limit)
                if caller_collect is not None:
                    caller_collect.extend(panels)

        return wrapper

    def patch(self, owner, attr, wrapper_factory):
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper_factory(original))

    def install(self):
        from elastowave import cli, config, kinematics, lineforce2d, pointforce3d

        def first_size(args):
            return int(np.size(args[1]))

        self.patch(cli, "sample_grid", lambda f: self.span("cli.sample_grid", f))
        self.patch(cli, "write_csv", lambda f: self.span(
            "cli.write_csv", f, lambda a: int(a[0].rows.shape[0])))
        self.patch(config, "parse_config", lambda f: self.span("config.parse_config", f))
        self.patch(cli, "lw_fields", lambda f: self.span(
            "pointforce3d.lw_fields", f, new_event=True))
        self.patch(cli, "inplane_fields", lambda f: self.span(
            "lineforce2d.inplane_fields", f, new_event=True))
        self.patch(lineforce2d, "inplane_displacement", lambda f: self.span(
            "lineforce2d.inplane_displacement", f))
        for mod, kernel in ((pointforce3d, "pointforce3d.kernel"),
                            (lineforce2d, "lineforce2d.kernel")):
            self.patch(mod, "adaptive_gauss_legendre",
                       lambda f, k=kernel: self.quadrature(k, f))
            self.patch(mod, "retarded_time", lambda f: self.span("kinematics.retarded_time", f))
        self.patch(kinematics.Trajectory, "eval", lambda f: self.span(
            "kinematics.trajectory_eval", f, first_size))
        self.patch(kinematics.ForceProfile, "eval", lambda f: self.span(
            "kinematics.force_eval", f, first_size))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path):
        """Write spans as gzipped CSV: name,start_ns,end_ns,parent,event,n,m."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name,start_ns,end_ns,parent,event,n,m\n")
            for rec in self.spans:
                fh.write(",".join(map(str, rec)) + "\n")


def _pct(values, q):
    return float(np.percentile(values, q)) if len(values) else 0.0


def tail_percentile(n):
    """Highest whole percentile with at least ten samples beyond it (0 if none)."""
    best = 0
    for p in range(1, 100):
        if n * (100 - p) / 100.0 >= 10.0:
            best = p
    return best


def layer_metrics(spans, n_events) -> dict:
    """Per-layer metrics from the spans of ``n_events`` traced grid events."""
    n = len(spans)
    names = np.array([s[NAME] for s in spans], dtype=object)
    dur = np.array([(s[END] - s[START]) * 1e-3 for s in spans])  # us
    parent = np.array([s[PARENT] for s in spans], dtype=np.int64)
    count = np.array([s[N] for s in spans], dtype=np.int64)
    minw = np.array([s[M] for s in spans], dtype=np.int64)
    in_event = np.array([s[EVENT] >= 0 for s in spans], dtype=bool)
    # Self time: duration minus the durations of direct children.
    child = np.zeros(n)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_us = dur - child
    ev = max(n_events, 1)

    def sel(name, event_only=True):
        mask = names == name
        return mask & in_event if event_only else mask

    def safe(num, den):
        return float(num) / float(den) if den else 0.0

    out = {}
    parse = sel("config.parse_config", event_only=False)
    out["config.parse_config.ms"] = float(np.median(dur[parse])) * 1e-3 if parse.any() else 0.0

    grid = sel("cli.sample_grid", event_only=False)
    out["cli.sample_grid.self_ms_per_event"] = safe(np.sum(self_us[grid]) * 1e-3, ev)
    csv = sel("cli.write_csv", event_only=False)
    out["cli.write_csv.rows_per_s"] = safe(np.sum(count[csv]), np.sum(dur[csv]) * 1e-6)

    for field in ("pointforce3d.lw_fields", "lineforce2d.inplane_fields"):
        d = dur[sel(field)] * 1e-3
        tail = tail_percentile(len(d))
        out[f"{field}.ms_per_event_p50"] = _pct(d, 50)
        out[f"{field}.ms_per_event_tail"] = _pct(d, tail) if tail else 0.0
        out[f"{field}.tail_pct"] = float(tail)
        out[f"{field}.samples"] = float(len(d))

    kern = sel("pointforce3d.kernel")
    out["pointforce3d.kernel.self_us_per_node"] = safe(np.sum(self_us[kern]), np.sum(count[kern]))
    out["pointforce3d.kernel.nodes_per_call"] = safe(np.sum(count[kern]), np.sum(kern))

    quad = sel("quadrature.adaptive_gauss_legendre")
    integrands = (sel("pointforce3d.kernel") | sel("lineforce2d.kernel"))
    nodes = np.sum(count[integrands])
    integrand_us = np.sum(dur[integrands])
    out["quadrature.calls_per_event"] = safe(np.sum(quad), ev)
    out["quadrature.nodes_per_event"] = safe(nodes, ev)
    out["quadrature.panels_per_event"] = safe(np.sum(count[quad]), ev)
    out["quadrature.min_width_panels_per_event"] = safe(np.sum(minw[quad]), ev)
    out["quadrature.self_us_per_node"] = safe(np.sum(dur[quad]) - integrand_us, nodes)

    rt = sel("kinematics.retarded_time")
    traj = sel("kinematics.trajectory_eval")
    rt_idx = np.flatnonzero(rt)
    traj_in_rt = traj & np.isin(parent, rt_idx)
    out["kinematics.retarded_time.calls_per_event"] = safe(np.sum(rt), ev)
    out["kinematics.retarded_time.us_per_call"] = safe(np.sum(dur[rt]), np.sum(rt))
    out["kinematics.retarded_time.traj_evals_per_call"] = safe(np.sum(traj_in_rt), np.sum(rt))
    out["kinematics.trajectory_eval.points_per_event"] = safe(np.sum(count[traj]), ev)
    out["kinematics.trajectory_eval.us_per_point"] = safe(np.sum(dur[traj]), np.sum(count[traj]))
    force = sel("kinematics.force_eval")
    out["kinematics.force_eval.points_per_event"] = safe(np.sum(count[force]), ev)

    disp = sel("lineforce2d.inplane_displacement")
    out["lineforce2d.inplane_displacement.calls_per_event"] = safe(np.sum(disp), ev)
    return out
