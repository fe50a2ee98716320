"""Acceptance gate: one test per release criterion, at its stated tolerance.

Each test prints a single pass/fail line with the worst observed error,
the tolerance, and the runtime bound it must meet. Runtimes are the test
process's CPU time (``time.process_time``), so another process on the
machine cannot push a criterion past its budget. Run with ``pytest -s``
to see the lines while the suite executes.
"""

import time

from elastowave import verify
from elastowave.cli import main, read_csv


def _gate(criterion, report, budget, elapsed):
    status = "PASS" if report.passed else "FAIL"
    print(
        f"{status} criterion {criterion}: {report.name} "
        f"(err={report.max_rel_err:.3e}, tol={report.tolerance:g}, "
        f"n={report.n_samples}, {elapsed:.2f}s CPU < {budget:g}s)"
    )
    assert report.passed, (
        f"criterion {criterion} ({report.name}): "
        f"max_rel_err={report.max_rel_err:.3e} > tol={report.tolerance:g}"
    )
    assert elapsed < budget, f"criterion {criterion}: {elapsed:.1f}s CPU exceeds {budget}s"


def test_criterion_01_stokes_limit():
    t0 = time.process_time()
    rep = verify.check_stokes_limit(seed=1, n_cases=20, tolerance=1e-10)
    _gate(1, rep, 5.0, time.process_time() - t0)


def test_criterion_02_kelvin_limit():
    t0 = time.process_time()
    rep = verify.check_kelvin_limit(seed=2, n_cases=20, tolerance=1e-12)
    _gate(2, rep, 2.0, time.process_time() - t0)


def test_criterion_03_smooth_oracle():
    # Sinusoid and constant forces on oscillatory worldlines: u, beta and v
    # against the closed form and its complex-step derivatives.
    t0 = time.process_time()
    rep = verify.check_smooth_oracle(seed=3, n_cases=50, tolerance=1e-11)
    _gate(3, rep, 60.0, time.process_time() - t0)


def test_criterion_04_navier_residual():
    t0 = time.process_time()
    rep = verify.check_navier_residual_3d(seed=4, n_cases=50, tolerance=1e-3)
    _gate(4, rep, 60.0, time.process_time() - t0)


def test_criterion_05_pulse_oracle():
    t0 = time.process_time()
    rep = verify.check_pulse_oracle(seed=5, tolerance=1e-11)
    _gate(5, rep, 120.0, time.process_time() - t0)


def test_criterion_06_radiation_structure():
    t0 = time.process_time()
    rep_zero = verify.check_radiation_uniform_zero(seed=6, tolerance=1e-14)
    rep_far = verify.check_radiation_farfield(seed=6, tolerance=1e-2)
    elapsed = time.process_time() - t0
    _gate("6a", rep_zero, 10.0, elapsed)
    _gate("6b", rep_far, 10.0, elapsed)


def test_criterion_07_retarded_solver():
    t0 = time.process_time()
    rep = verify.check_retarded_solver(seed=7, n_cases=1000, tolerance=1e-12)
    _gate(7, rep, 5.0, time.process_time() - t0)


def test_criterion_08_antiplane_closed_form():
    t0 = time.process_time()
    rep_u, rep_d = verify.check_antiplane_closed_form(
        seed=8, n_cases=100, tol_u=1e-8, tol_deriv=1e-6
    )
    elapsed = time.process_time() - t0
    _gate("8a", rep_u, 5.0, elapsed)
    _gate("8b", rep_d, 5.0, elapsed)



def test_criterion_08_line_descent():
    t0 = time.process_time()
    rep = verify.check_line_descent(seed=8, n_cases=6, tolerance=1e-9)
    _gate("8c", rep, 20.0, time.process_time() - t0)

def test_criterion_09_afterglow_huygens():
    t0 = time.process_time()
    rep = verify.check_afterglow(seed=9, tolerance=1e-12)
    _gate(9, rep, 10.0, time.process_time() - t0)


def test_criterion_10_equivariance_linearity():
    t0 = time.process_time()
    rep_e = verify.check_equivariance(seed=10, tolerance=1e-10)
    rep_l = verify.check_linearity(seed=10, tolerance=1e-10)
    elapsed = time.process_time() - t0
    _gate("10a", rep_e, 10.0, elapsed)
    _gate("10b", rep_l, 10.0, elapsed)


def test_criterion_11_cli_reproducibility(tmp_path):
    t0 = time.process_time()
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        """
material.rho = 1.0
material.lam = 1.0
material.mu = 1.0
source.dimension = 3d-point
trajectory.preset = oscillatory
trajectory.amplitude = 0.15,0,0
trajectory.omega = 1.0
force.preset = step
force.q0 = 0.3,0,1
force.t_on = 0.0
grid.x1 = 1:2:2
grid.x2 = 0:0.5:2
grid.x3 = 0.5:0.5:1
grid.t = 3:5:2
run.seed = 11
"""
    )
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sample", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["sample", "--config", str(cfg), "--out", str(out2)]) == 0
    identical = out1.read_bytes() == out2.read_bytes()

    grid = read_csv(str(out1))
    schema_ok = grid.columns[:4] == ["x1", "x2", "x3", "t"] and grid.columns[-1] == "mask"
    assert grid.rows.shape == (8, 20)
    # round-trip: rewrite and compare bytes
    from elastowave.cli import write_csv

    out3 = tmp_path / "c.csv"
    write_csv(grid, str(out3))
    roundtrip = out1.read_bytes() == out3.read_bytes()
    elapsed = time.process_time() - t0

    status = "PASS" if (identical and schema_ok and roundtrip) else "FAIL"
    print(
        f"{status} criterion 11: cli_reproducibility "
        f"(byte_identical={identical}, schema_ok={schema_ok}, "
        f"roundtrip={roundtrip}, {elapsed:.2f}s CPU < 5s)"
    )
    assert identical and schema_ok and roundtrip
    assert elapsed < 5.0
