import re
import subprocess
import textwrap
import sys
from pathlib import Path

import pytest

from elastowave.cli import main

ROOT = Path(__file__).resolve().parents[1]


def _run(name, *args):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / f"{name}.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize(
    "name",
    ["sample_wavefield", "radiation_scan", "afterglow_trace", "count_code_lines", "bench_pairs",
     "compare_rows", "kill_matrix"],
)
def test_script_help_runs(name):
    # --help imports the script's whole dependency chain without computing
    assert "usage:" in _run(name, "--help")


def test_afterglow_trace_marks_the_2d_tail():
    # Samples at t = 0.5, 6.25 and 12: the last two follow the trailing front.
    out = _run("afterglow_trace", "--samples", "3")
    assert out.count("<- afterglow only") == 2


def test_radiation_scan_fits_the_decay_exponents():
    out = _run("radiation_scan", "--radii", "20", "40")
    acc, vel = map(float, re.search(r"acc part (\S+) .*vel part (\S+) ", out).groups())
    assert acc == pytest.approx(-1.0, abs=0.05)
    assert vel == pytest.approx(-2.0, abs=0.05)


def test_sample_wavefield_runs_a_shipped_config(tmp_path):
    out = _run("sample_wavefield", "--config", "configs/kelvin.cfg",
               "--out", str(tmp_path / "fields.csv"))
    assert out.rstrip().endswith("masked rows = 0")
    # The script and `elastowave sample` share one CSV writer.
    cli_csv = tmp_path / "cli.csv"
    assert main(["sample", "--config", str(ROOT / "configs" / "kelvin.cfg"),
                 "--out", str(cli_csv)]) == 0
    assert (tmp_path / "fields.csv").read_bytes() == cli_csv.read_bytes()


def test_count_code_lines_sums_to_its_totals():
    out = _run("count_code_lines").splitlines()
    modules = [line.split() for line in out[1:-1]]
    total = out[-1].split()
    assert total[0] == "total" and "lineforce2d.py" in [m[0] for m in modules]
    for k in (1, 2):
        assert sum(int(m[k]) for m in modules) == int(total[k])
    assert all(0 < int(m[2]) < int(m[1]) for m in modules)


def test_bench_pairs_reports_faults_and_system_time(tmp_path):
    # A stand-in checkout whose benchmark run touches 8 MiB of fresh pages,
    # 2,048 minor faults of 4 KiB pages: they show among each side's
    # faults per run, which come from the finished runs' rusage.
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    (tmp_path / "perfbench" / "run.py").write_text(textwrap.dedent("""
        import json
        pages = bytearray(8 << 20)
        for i in range(0, len(pages), 4096):
            pages[i] = 1
        print(json.dumps({"correct": True, "failed": 0, "metrics": {
            name: {"value": 1.0} for name in ("events_per_s", "setup_s", "peak_rss_mb")}}))
    """))
    out = _run("bench_pairs", "--parent", str(tmp_path), "--change", str(tmp_path),
               "--workload", "smooth3d", "--pairs", "2")
    assert out.count("minor_faults") == 4  # both pair lines, and both sides' medians
    medians = re.search(r"per run, median: parent minor_faults (\S+), sys_s (\S+); "
                        r"change minor_faults (\S+), sys_s (\S+)$", out, re.M)
    faults, sys_s = [float(medians[i]) for i in (1, 3)], [float(medians[i]) for i in (2, 4)]
    assert min(faults) >= 2048 and min(sys_s) >= 0.0
