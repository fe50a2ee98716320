"""The 3D sampling path's allocation bursts stay below the allocator's trim threshold.

glibc hands the free top of its heap back to the kernel once it exceeds
the trim threshold, twice the dynamic mmap threshold. In a process that
compiles this package from source that threshold settles at 596 KB or
931 KB, so the trim threshold at 1.19 MB or 1.86 MB. A burst larger than
that is given back at its end and faulted in again by the next one,
which on the ``shell3d`` grid multiplies a run's minor page faults by
ten or more. So every integrand round (``quadrature._panels``: the
integrand calls, their blocks and the round's sums) and every block of
``write_csv`` (``cli._csv_bytes``) must hold at most 1 MiB of new
allocations, and every chunk of events (``pointforce3d._retarded_sums``:
a round plus the sums around it) less than the slow trim threshold
itself. numpy reports its buffers to ``tracemalloc``, and the count is
deterministic.
"""

import tracemalloc

import pytest

from elastowave import cli, pointforce3d, quadrature
from elastowave.config import parse_config
from test_workload_nodes import _load_workloads

BOUND = 1 << 20
TRIM_THRESHOLD = 1_190_000  # bytes, twice the 596 KB mmap threshold


def _peaks(monkeypatch, module, name):
    """Record the peak of new traced allocations during every call of ``module.name``."""
    peaks = []
    fn = getattr(module, name)

    def measured(*args):
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn(*args)
        peaks.append(tracemalloc.get_traced_memory()[1] - base)
        return out

    monkeypatch.setattr(module, name, measured)
    return peaks


@pytest.mark.parametrize("name", ["shell3d", "smooth3d", "spline3d"])
def test_bursts_stay_below_the_trim_threshold(monkeypatch, tmp_path, name):
    cfg = parse_config(_load_workloads().make(name, 0).config_text())
    rounds = _peaks(monkeypatch, quadrature, "_panels")
    blocks = _peaks(monkeypatch, cli, "_csv_bytes")
    tracemalloc.start()
    try:
        cli.write_csv(cli.sample_grid(cfg), str(tmp_path / "grid.csv"))
    finally:
        tracemalloc.stop()
    assert rounds and blocks
    assert max(rounds) <= BOUND, f"largest integrand round {max(rounds) / 1024:.0f} KiB"
    assert max(blocks) <= BOUND, f"largest CSV block {max(blocks) / 1024:.0f} KiB"
    # A chunk holds rounds, so it is measured in a pass of its own.
    monkeypatch.undo()
    chunks = _peaks(monkeypatch, pointforce3d, "_retarded_sums")
    tracemalloc.start()
    try:
        cli.sample_grid(cfg)
    finally:
        tracemalloc.stop()
    assert chunks and max(chunks) < TRIM_THRESHOLD, f"largest chunk {max(chunks) / 1024:.0f} KiB"
