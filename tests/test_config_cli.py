import importlib.util
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from elastowave.cli import (
    COLUMNS,
    _grid_events,
    limits_report,
    main,
    read_csv,
    sample_grid,
    write_csv,
)
from elastowave.config import parse_config
from elastowave.errors import ConfigError
from test_mutants import inject

MINIMAL_3D = """
material.rho = 1.0
material.lam = 1.0
material.mu = 1.0
source.dimension = 3d-point
trajectory.preset = static
trajectory.position = 0,0,0
force.preset = constant
force.q0 = 0,0,1
grid.x3 = 1:1:1
grid.t = 5:5:1
"""

KELVIN_CFG = MINIMAL_3D

GRID_2222 = """
material.rho = 1.0
material.lam = 1.0
material.mu = 1.0
source.dimension = 3d-point
trajectory.preset = oscillatory
trajectory.center = 0,0,0
trajectory.amplitude = 0.1,0,0
trajectory.omega = 1.0
force.preset = step
force.q0 = 0,0,1
force.t_on = 0.0
grid.x1 = 1:2:2
grid.x2 = 0:1:2
grid.x3 = 0.5:1.5:2
grid.t = 3:4:2
"""

ANTIPLANE = """
material.rho = 1.0
material.lam = 1.0
material.mu = 1.0
source.dimension = 2d-antiplane
trajectory.preset = static
trajectory.position = 0,0,0
force.preset = step
force.q0 = 0,0,6.283185307179586
force.t_on = 0.0
grid.x1 = 1:1:1
grid.t = 2:2:1
"""


def test_parse_minimal_config_fills_defaults():
    cfg = parse_config(MINIMAL_3D)
    assert cfg.dimension == "3d-point"
    assert cfg.quad_rel == 1e-10
    assert cfg.retarded_rel == 1e-12
    assert cfg.seed == 0
    assert cfg.grid.n_events == 1
    assert cfg.material.cT == 1.0


def test_documented_keys_are_the_grammar():
    # The "Documented keys" section of the config module names every key
    # that is not a preset parameter, and no other.
    from elastowave import config

    section = config.__doc__.split("Documented keys\n---------------\n")[1]
    heads = [line for line in section.splitlines() if line and not line[0].isspace()]
    documented = set(re.findall(r"[a-z]+\.[a-z0-9_]+", " ".join(heads)))
    preset_keys = set().union(*config._SECTION_KEYS.values())
    assert documented == config._KNOWN_KEYS - preset_keys


def test_parse_rejects_supersonic():
    text = MINIMAL_3D.replace(
        "trajectory.preset = static\ntrajectory.position = 0,0,0",
        "trajectory.preset = uniform\ntrajectory.velocity = 1.2,0,0",
    )
    with pytest.raises(ConfigError, match="supersonic trajectory"):
        parse_config(text)


def test_parse_rejects_infinite_t_on_in_2d():
    text = ANTIPLANE.replace("force.preset = step", "force.preset = constant")
    text = text.replace("force.t_on = 0.0", "")
    with pytest.raises(ConfigError, match="finite switch-on required in 2D"):
        parse_config(text)


def test_parse_rejects_key_the_preset_does_not_take():
    text = ANTIPLANE.replace("force.preset = step", "force.preset = constant")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert "force.t_on: not a parameter of force preset 'constant'" in err.value.violations


def test_parse_names_missing_required_key():
    text = GRID_2222.replace("force.preset = step\nforce.q0 = 0,0,1", "force.preset = polynomial")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.violations == ["force.coefficients: required by force preset 'polynomial'"]


def test_parse_flat_preset_vectors():
    cfg = parse_config(GRID_2222.replace(
        "force.preset = step\nforce.q0 = 0,0,1",
        "force.preset = polynomial\nforce.coefficients = 0,0,1,0,0,0.5",
    ))
    np.testing.assert_allclose(cfg.force.eval(2.0)[0], [0.0, 0.0, 2.0], atol=1e-15)
    bad = GRID_2222.replace("force.preset = step\nforce.q0 = 0,0,1",
                            "force.preset = polynomial\nforce.coefficients = 0,0,1,0")
    with pytest.raises(ConfigError, match="force: polynomial force needs coefficients"):
        parse_config(bad)


ROOT = Path(__file__).resolve().parents[1]


def test_shipped_and_benchmark_configs_parse(monkeypatch):
    # Guards the inputs of configs/ and of the benchmark workloads against
    # a stricter grammar.
    paths = sorted((ROOT / "configs").glob("*.cfg"))
    assert paths
    for path in paths:
        parse_config(path.read_text(encoding="utf-8"))
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look it up
    spec.loader.exec_module(workloads)
    for name in sorted(workloads.SPECS):
        for seed in range(3):
            cfg = parse_config(workloads.make(name, seed).config_text())
            assert cfg.dimension == workloads.SPECS[name].dimension


def test_parse_collects_all_violations():
    bad = "material.rho = -1\nnot a line\nbogus.key = 3\ngrid.t = 1:2\n"
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    msgs = "\n".join(err.value.violations)
    assert "density" in msgs
    assert "expected 'section.key = value'" in msgs
    assert "unknown key" in msgs
    assert "min:max:count" in msgs
    assert len(err.value.violations) >= 4


def test_sample_kelvin_row(tmp_path):
    cfg = parse_config(KELVIN_CFG)
    grid = sample_grid(cfg)
    assert grid.rows.shape == (1, len(COLUMNS))
    row = dict(zip(grid.columns, grid.rows[0]))
    assert row["u3"] == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-12)
    assert row["b33"] == pytest.approx(-1.0 / (4.0 * math.pi), rel=1e-12)
    assert row["v3"] == 0.0
    assert row["mask"] == 0.0


def test_sample_grid_cardinality_and_order():
    cfg = parse_config(GRID_2222)
    grid = sample_grid(cfg)
    assert grid.rows.shape[0] == 16
    # time-major, then lexicographic in (x1, x2, x3)
    ts = grid.rows[:, 3]
    assert np.all(np.diff(ts) >= 0)
    first_block = grid.rows[:8, 0:3]
    expected = [
        (x1, x2, x3) for x1 in (1, 2) for x2 in (0, 1) for x3 in (0.5, 1.5)
    ]
    np.testing.assert_allclose(first_block, expected, atol=0)


def test_grid_events_time_major_rows():
    # Unequal axis counts, so a transposed axis order cannot pass.
    cfg = parse_config(GRID_2222.replace("0:1:2", "0:1:3").replace("0.5:1.5:2", "0.5:0.5:1")
                       .replace("3:4:2", "3:4.5:4"))
    axes = [cfg.grid.axis_values(name) for name in ("x1", "x2", "x3", "t")]
    expected = [(x1, x2, x3, t) for t in axes[3] for x1 in axes[0] for x2 in axes[1]
                for x3 in axes[2]]
    assert np.array_equal(_grid_events(cfg), np.array(expected))


def test_pre_arrival_rows_zero():
    text = GRID_2222.replace("grid.t = 3:4:2", "grid.t = 0.2:0.2:1")
    cfg = parse_config(text)
    grid = sample_grid(cfg)
    assert np.all(grid.rows[:, 4:19] == 0.0)


def test_masked_singular_row():
    text = MINIMAL_3D.replace("grid.x3 = 1:1:1", "grid.x3 = 0:0:1")
    cfg = parse_config(text)
    grid = sample_grid(cfg)
    row = dict(zip(grid.columns, grid.rows[0]))
    assert row["mask"] == 1.0
    assert np.all(grid.rows[0, 4:19] == 0.0)


def test_csv_roundtrip_exact(tmp_path):
    cfg = parse_config(GRID_2222)
    grid = sample_grid(cfg)
    path = tmp_path / "grid.csv"
    write_csv(grid, str(path))
    back = read_csv(str(path))
    assert back.columns == grid.columns
    assert back.provenance["config_sha256"] == grid.provenance["config_sha256"]
    np.testing.assert_allclose(back.rows, grid.rows, rtol=0, atol=0)


def test_byte_identical_reruns(tmp_path):
    cfg_path = tmp_path / "cfg"
    cfg_path.write_text(GRID_2222)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["sample", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert main(["sample", "--config", str(cfg_path), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sample_has_no_threads_option(tmp_path):
    cfg_path = tmp_path / "cfg"
    cfg_path.write_text(GRID_2222)
    with pytest.raises(SystemExit) as exc:
        main(["sample", "--config", str(cfg_path), "--out", str(tmp_path / "a.csv"),
              "--threads", "2"])
    assert exc.value.code == 2
    assert not (tmp_path / "a.csv").exists()


BUMP_TAIL = """
material.rho = 1.0
material.lam = 1.0
material.mu = 1.0
source.dimension = 3d-point
trajectory.preset = static
trajectory.position = 0,0,0
force.preset = bump
force.q0 = 0.3,-0.5,1.0
force.center = 2.0
force.half_width = 1.0
grid.x3 = 1.5:1.5:1
grid.t = 1.869025:4.497:2
"""


def test_sample_bump_tail_events(tmp_path):
    # Both events see only a far tail of the pulse (1e-77 of its peak),
    # where a relative-only error test never converged; the force-scale
    # floor lets the whole grid through, every row finite and unmasked.
    cfg_path = tmp_path / "cfg"
    cfg_path.write_text(BUMP_TAIL)
    out = tmp_path / "tail.csv"
    assert main(["sample", "--config", str(cfg_path), "--out", str(out)]) == 0
    grid = read_csv(str(out))
    assert grid.rows[:, 3].tolist() == [1.869025, 4.497]
    assert np.all(np.isfinite(grid.rows)) and np.all(grid.rows[:, -1] == 0)


def test_sample_json_format(tmp_path):
    cfg_path = tmp_path / "cfg"
    cfg_path.write_text(KELVIN_CFG)
    out = tmp_path / "k.json"
    assert main(["sample", "--config", str(cfg_path), "--out", str(out), "--format", "json"]) == 0
    payload = json.loads(out.read_text())
    assert payload["columns"] == COLUMNS
    assert len(payload["rows"]) == 1


def test_antiplane_sampling_matches_closed_form():
    cfg = parse_config(ANTIPLANE)
    grid = sample_grid(cfg)
    row = dict(zip(grid.columns, grid.rows[0]))
    assert row["u3"] == pytest.approx(math.acosh(2.0), rel=1e-8)
    assert row["u1"] == 0.0 and row["b11"] == 0.0
    t, r = 2.0, 1.0
    assert row["v3"] == pytest.approx(1.0 / math.sqrt(t * t - r * r), rel=1e-6)
    assert row["b31"] == pytest.approx(-t / (r * math.sqrt(t * t - r * r)), rel=1e-6)


def test_limits_report_static_and_refusal():
    cfg = parse_config(KELVIN_CFG)
    rep = limits_report(cfg)
    assert rep["n_events"] == 1
    assert rep["stokes_max_rel_dev"] <= 1e-10
    assert rep["kelvin_max_rel_dev"] <= 1e-12
    moving = parse_config(GRID_2222)
    with pytest.raises(ConfigError, match="static trajectory"):
        limits_report(moving)


def test_limits_empty_event_list():
    cfg = parse_config(KELVIN_CFG)
    rep = limits_report(cfg, events=[])
    assert rep == {"n_events": 0, "stokes_max_rel_dev": 0.0, "kelvin_max_rel_dev": 0.0}


def test_limits_refuses_2d_configs(capsys):
    # The static closed forms are those of a 3D point force; an anti-plane
    # line force is not compared with them.
    assert main(["limits", "--config", str(ROOT / "configs" / "antiplane.cfg")]) == 2
    assert "source.dimension" in capsys.readouterr().err


def test_limits_compares_kelvin_for_a_step_on_for_all_time():
    # A step switched on at -inf is the constant force, so it gets the same
    # report, Kelvin comparison included.
    step = parse_config(KELVIN_CFG.replace(
        "force.preset = constant", "force.preset = step\nforce.t_on = -inf"))
    assert step.force.kind == "step"
    rep = limits_report(step)
    assert "kelvin_max_rel_dev" in rep
    assert rep == limits_report(parse_config(KELVIN_CFG))


def test_negative_run_seed_is_a_config_error(tmp_path, capsys):
    text = KELVIN_CFG + "run.seed = -4\n"
    with pytest.raises(ConfigError, match="run.seed: must be a non-negative integer"):
        parse_config(text)
    cfg_path = tmp_path / "cfg"
    cfg_path.write_text(text)
    assert main(["validate", "--config", str(cfg_path), "--checks", "kelvin_limit"]) == 2
    assert "run.seed" in capsys.readouterr().err


def test_negative_validate_seed_is_a_config_error(tmp_path, capsys):
    cfg_path = tmp_path / "cfg"
    cfg_path.write_text(KELVIN_CFG)
    argv = ["validate", "--config", str(cfg_path), "--checks", "kelvin_limit", "--seed", "-1"]
    assert main(argv) == 2
    assert "--seed: must be a non-negative integer" in capsys.readouterr().err


def test_validate_list_and_subset(tmp_path, capsys):
    cfg_path = tmp_path / "cfg"
    cfg_path.write_text(KELVIN_CFG)
    assert main(["validate", "--config", str(cfg_path), "--list"]) == 0
    listed = capsys.readouterr().out.split()
    assert "kelvin_limit" in listed
    # names are stripped, as in ``run.checks``
    assert main(["validate", "--config", str(cfg_path), "--checks", " kelvin_limit, "]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) == 1 and payload[0]["name"] == "kelvin_limit" and payload[0]["pass"]


def test_validate_empty_selection(tmp_path, capsys):
    cfg_path = tmp_path / "cfg"
    cfg_path.write_text(KELVIN_CFG)
    assert main(["validate", "--config", str(cfg_path), "--checks", ""]) == 0
    assert json.loads(capsys.readouterr().out) == []


def test_validate_exits_1_when_a_check_fails(tmp_path, capsys, monkeypatch):
    # u1 scaled by 1.1 breaks the equation of motion; the report is still written.
    cfg_path = tmp_path / "cfg"
    cfg_path.write_text(KELVIN_CFG)
    inject(monkeypatch, "u1")
    assert main(["validate", "--config", str(cfg_path), "--checks", "navier_residual_3d"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["max_rel_err"] > 1e-2 and not payload[0]["pass"]


def test_cli_config_error_exit_code(tmp_path, capsys):
    cfg_path = tmp_path / "cfg"
    cfg_path.write_text("material.rho = -3\n")
    assert main(["sample", "--config", str(cfg_path)]) == 2


@pytest.mark.parametrize("command", ["sample", "validate", "limits"])
def test_cli_unreadable_config_exit_code(tmp_path, capsys, command):
    # A config that is missing or not UTF-8 is a usage error: "error: ..."
    # and exit 2, not a traceback.
    missing = tmp_path / "missing.cfg"
    assert main([command, "--config", str(missing)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "missing.cfg" in err
    binary = tmp_path / "binary.cfg"
    binary.write_bytes(b"material.rho = \xff\xfe\n")
    assert main([command, "--config", str(binary)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["sample", "--format", "csv"],
    ["sample", "--format", "json"],
    ["validate", "--checks", "kelvin_limit"],
])
def test_cli_unwritable_out_exit_code(tmp_path, capsys, argv):
    cfg_path = tmp_path / "cfg"
    cfg_path.write_text(GRID_2222)
    out = tmp_path / "no_such_dir" / "out"
    assert main(argv + ["--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "no_such_dir" in err


@pytest.mark.parametrize("old, new, named", [
    ("trajectory.omega = 1.0", "trajectory.omega = nan", "trajectory: omega must be finite"),
    ("force.q0 = 0,0,1", "force.q0 = nan,0,1", "force: expected a finite 2- or 3-vector"),
    ("grid.t = 4.0:6.0:3", "grid.t = 4.0:inf:3", "grid.t: min and max must be finite"),
    ("material.lam = 1.0", "material.lam = nan", "material: bulk modulus lam + 2*mu/3 = nan"),
])
def test_non_finite_config_values_rejected(tmp_path, capsys, old, new, named):
    # A non-finite value is a config error naming its key or section, not
    # a solver failure after the grid has started.
    text = (ROOT / "configs" / "default3d.cfg").read_text()
    assert old in text
    with pytest.raises(ConfigError) as err:
        parse_config(text.replace(old, new))
    assert any(v.startswith(named) for v in err.value.violations), err.value.violations
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(text.replace(old, new))
    assert main(["sample", "--config", str(cfg_path), "--out", str(tmp_path / "o.csv")]) == 2
    assert named in capsys.readouterr().err


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "elastowave.cli", "presets"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "oscillatory" in proc.stdout


def test_sampling_does_not_load_quadpack():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, elastowave.cli; print('scipy.integrate' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


INPLANE = """
material.rho = 1.0
material.lam = 1.0
material.mu = 1.0
source.dimension = 2d-inplane
trajectory.preset = static
trajectory.position = 0,0,0
force.preset = step
force.q0 = 1,0.5,0
force.t_on = 0.0
grid.x1 = 0.9:0.9:1
grid.x2 = 0.5:0.5:1
grid.t = 3.7:3.7:1
"""


def test_inplane_sampling_matches_library():
    from elastowave.lineforce2d import inplane_fields

    cfg = parse_config(INPLANE)
    grid = sample_grid(cfg)
    row = dict(zip(grid.columns, grid.rows[0]))
    fs = inplane_fields(
        cfg.material, cfg.trajectory, cfg.force, np.array([0.9, 0.5]), 3.7,
        rel_tol=cfg.history_rel,
    )
    assert row["u1"] == pytest.approx(fs.u[0], rel=1e-12)
    assert row["u2"] == pytest.approx(fs.u[1], rel=1e-12)
    assert row["b12"] == pytest.approx(fs.beta[0, 1], rel=1e-9)
    assert row["v1"] == pytest.approx(fs.v[0], rel=1e-9)
    assert row["u3"] == 0.0 and row["b33"] == 0.0


def test_validate_full_suite_default_config():
    # CI gate: the shipped default config passes every check, run in a
    # fresh process that never loads scipy.integrate: no check needs it.
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from elastowave.cli import main; "
         "rc = main(['validate', '--config', 'configs/default3d.cfg']); "
         "print(rc, 'scipy.integrate' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    *report, status = proc.stdout.splitlines()
    reports = json.loads("\n".join(report))
    assert len(reports) >= 15
    assert all(r["pass"] for r in reports)
    assert status == "0 False"
