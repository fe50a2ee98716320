"""One benchmark run of one workload, in a process of its own.

Started by ``run.py`` with BLAS/OpenMP thread counts pinned to 1. It drives
the functions ``elastowave sample`` runs (``parse_config`` ->
``sample_grid(cfg, threads=1)`` -> ``write_csv``) in a closed loop: each
pass starts when the previous one ends. It prints one JSON object as its
last line; ``run.py`` turns that into the benchmark's result line.

Times are expressed at a nominal machine speed. On a shared sandbox the
same pass runs up to 1.8x slower while neighbours are busy, in phases of
tens of seconds. So while a pass runs, a SIGALRM handler times a small,
program-independent calibration kernel every SAMPLE_INTERVAL_S; the pass
time, net of those samples, is scaled by CAL_REF_S / (their median). The
parse_config burst before a pass is scaled with that pass's calibration.
Wall-clock values are recorded next to the scaled ones.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from check import Checker  # noqa: E402

MIN_PASSES = 2
# parse_config is timed in a short burst before every pass, so the median
# of setup_s spans the whole run rather than one moment.
SETUP_MIN_REPEATS = 1
SETUP_MIN_SECONDS = 0.05
SETUP_MAX_REPEATS = 500
# One calibration sample costs about 1.2 ms, so sampling takes about 1 % of
# a pass. CAL_REF_S is the sample median on the baseline sandbox in a quiet
# phase, so scaled times read as wall-clock times there.
SAMPLE_INTERVAL_S = 0.1
CAL_REF_S = 1.2e-3


def import_program():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import elastowave
    from elastowave import cli, config

    where = os.path.abspath(elastowave.__file__)
    if not where.startswith(os.path.join(ROOT, "src") + os.sep):
        raise ImportError(f"elastowave imported from {where}, not from this checkout")
    return elastowave, cli, config


def _calibration_kernel():
    # The program's own mix: interpreted float arithmetic and numpy calls on
    # 16-row arrays (the size of one Gauss-Legendre panel).
    acc = 0.0
    for i in range(10_000):
        acc += i * 0.5
    a = np.linspace(0.0, 1.0, 16)
    b = np.ones((16, 3))
    for _ in range(60):
        a = np.sin(a) + 0.1
        c = np.einsum("ni,ni->n", b, b)
        b = np.where(c[:, None] > 0.0, b, 0.0)
    return acc + float(a[0] + b[0, 0])


class Calibrator:
    """Samples the machine's speed while a timed function runs."""

    def __init__(self):
        self.samples: list[float] = []
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        _calibration_kernel()
        self.samples.append(time.perf_counter() - t0)

    def time(self, fn):
        """Run ``fn``; return its wall time net of sampling and the sample median."""
        self.samples = []
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        t0 = time.perf_counter()
        try:
            fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            wall = time.perf_counter() - t0
        net = wall - sum(self.samples)
        if not self.samples:  # shorter than one interval
            self._sample(None, None)
        return net, statistics.median(self.samples)


def time_setup(config, text):
    """Wall times of a short burst of parse_config calls."""
    times = []
    start = time.perf_counter()
    for i in range(SETUP_MAX_REPEATS):
        if i >= SETUP_MIN_REPEATS and time.perf_counter() - start >= SETUP_MIN_SECONDS:
            break
        t0 = time.perf_counter()
        config.parse_config(text)
        times.append(time.perf_counter() - t0)
    return times


def run_passes(cli, cfg, csv_path, seconds, checker, calibrator, min_passes=MIN_PASSES,
               setup=None):
    """Closed-loop passes of sample_grid + write_csv for ``seconds``.

    Returns (net wall time, calibration, setup times) per pass; ``setup()``
    runs ahead of each pass, outside its timing, and returns its times.
    """
    passes = []
    grids = []

    def one_pass():
        grids.append(cli.sample_grid(cfg, threads=1))
        cli.write_csv(grids[-1], csv_path)

    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        setup_times = setup() if setup is not None else []
        try:
            wall, cal = calibrator.time(one_pass)
        except Exception as exc:  # an aborted grid: every event in it failed
            checker.abort(exc)
            break
        checker.check_pass(grids.pop().rows)
        passes.append((wall, cal, setup_times))
    return passes


def scaled(samples):
    """Times at the nominal machine speed, from (wall, calibration) pairs."""
    return [wall * CAL_REF_S / cal for wall, cal in samples]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.SPECS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    wl = workloads.make(args.workload, args.seed)
    properties = workloads.check_properties(wl)
    elastowave, cli, config = import_program()
    import scipy

    text = wl.config_text()
    cfg = config.parse_config(text)
    n_events = cfg.grid.n_events
    csv_path = os.path.join(args.out, f"grid-{os.getpid()}.csv")

    checker = Checker(wl, cfg, config, cli, HERE)
    result = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "events_per_pass": n_events,
        "properties": properties,
        "environment": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "elastowave": elastowave.__version__,
            "threads": 1,
        },
    }
    calibrator = Calibrator()
    traced, metrics = [], {}
    try:
        warm = run_passes(cli, cfg, csv_path, 0.0, checker, calibrator, 1,
                          lambda: time_setup(config, text))
        timed = []
        if not checker.aborted:
            seconds = args.seconds / 2 if args.trace else args.seconds
            timed = run_passes(cli, cfg, csv_path, seconds, checker, calibrator,
                               setup=lambda: time_setup(config, text))
        if args.trace and not checker.aborted:
            from tracer import Tracer, layer_metrics

            tracer = Tracer()
            tracer.install()
            try:
                for _ in range(5):
                    config.parse_config(text)
                traced = run_passes(cli, cfg, csv_path, args.seconds / 2, checker, calibrator)
            finally:
                tracer.uninstall()
            metrics = layer_metrics(tracer.spans, n_events * len(traced))
            spans_path = os.path.join(args.out, f"spans-{wl.name}-seed{args.seed}.csv.gz")
            tracer.write(spans_path)
            result["spans_file"] = os.path.relpath(spans_path, ROOT)
            result["spans"] = len(tracer.spans)
        checker.check_reference()
    finally:
        if os.path.exists(csv_path):
            os.remove(csv_path)

    result.update(checker.summary())
    setup = [(wall, cal) for _, cal, walls in warm + timed for wall in walls]
    result["calibration_ref_s"] = CAL_REF_S
    result["warmup_s"] = [wall for wall, _, _ in warm]
    result["pass_s"] = [wall for wall, _, _ in timed]
    result["pass_calibration_s"] = [cal for _, cal, _ in timed]
    result["setup_repeats"] = len(setup)
    if setup:
        result["setup_s"] = statistics.median(scaled(setup))
        result["setup_s_wall"] = statistics.median(wall for wall, _ in setup)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if timed:
        result["events_per_s"] = n_events / statistics.median(scaled(p[:2] for p in timed))
        result["events_per_s_wall"] = n_events / statistics.median(p[0] for p in timed)
    if traced:
        result["traced_pass_s"] = [wall for wall, _, _ in traced]
        eps_traced = n_events / statistics.median(scaled(p[:2] for p in traced))
        metrics["trace.events_per_s_untraced"] = result["events_per_s"]
        metrics["trace.events_per_s_traced"] = eps_traced
        metrics["trace.overhead_frac"] = 1.0 - eps_traced / result["events_per_s"]
        result["layers"] = metrics
    print(json.dumps(result))


if __name__ == "__main__":
    main()
