"""``write_csv`` against the per-row ``'%.16e'`` formatting it replaces.

The oracle is the reference line ``",".join(["%.16e"] * m) % row``; every
cell the numpy formatter writes must have exactly its bytes. The work
gate counts, on the benchmark's seed-0 grids and the shipped configs,
how many cells reach the per-cell fallback (``cli._format_cell``).
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from elastowave import cli
from elastowave.config import parse_config
from test_workload_nodes import _load_workloads

ROOT = Path(__file__).resolve().parents[1]
KEYS = ("version", "config_sha256", "seed", "dimension")


def _oracle_lines(rows) -> bytes:
    rows = np.asarray(rows, dtype=float)
    line = ",".join(["%.16e"] * rows.shape[1]) + "\n"
    return "".join(line % tuple(row) for row in rows.tolist()).encode()


def _oracle_csv(grid) -> bytes:
    head = "".join(f"# {key}={grid.provenance[key]}\n" for key in KEYS)
    return (head + ",".join(grid.columns) + "\n").encode() + _oracle_lines(grid.rows)


def _grid(rows):
    provenance = {"version": "0", "config_sha256": "abc", "seed": 0, "dimension": "3d-point"}
    return cli.FieldGrid(list(cli.COLUMNS), np.asarray(rows, dtype=float), provenance)


def _assert_cells_match(values, m=1):
    rows = np.asarray(values, dtype=float).reshape(-1, m)
    assert cli._csv_bytes(rows) == _oracle_lines(rows)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=1, max_size=40))
def test_cells_match_the_reference_format(values):
    _assert_cells_match(values, len(values))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 64 - 1), st.integers(1, 8))
def test_random_bit_patterns_match(seed, m):
    bits = np.random.default_rng(seed).integers(0, 2 ** 64, size=8 * m, dtype=np.uint64)
    _assert_cells_match(bits.view(np.float64), m)


def test_every_power_of_ten_and_its_neighbours():
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    for values in (powers, -powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)):
        _assert_cells_match(values)


@pytest.mark.parametrize("value, text", [
    # Just below 10^-14 and 10^98: they round up into the next decade.
    (1e-14, "1.0000000000000000e-14"),
    (1e98, "1.0000000000000000e+98"),
    (1e23, "9.9999999999999992e+22"),
    (131073 / 2 ** 17, "1.0000076293945312e+00"),  # exact decimal tie, to even
    (0.0, "0.0000000000000000e+00"),
    (-0.0, "-0.0000000000000000e+00"),
    (5e-324, "4.9406564584124654e-324"),
    (1.7976931348623157e308, "1.7976931348623157e+308"),
    (float("nan"), "nan"),
    (float("-inf"), "-inf"),
])
def test_decade_carries_ties_and_edges(value, text):
    assert _oracle_lines([[value]]) == (text + "\n").encode()
    assert cli._csv_bytes(np.array([[value, -value]])) == _oracle_lines([[value, -value]])


def _near_ties():
    """Doubles a = m 2^-(s+k) with a 10^k = m 5^k / 2^s in [1e16, 1e17) and j 2^-s
    from a tie at the 17th digit: m 5^k = 2^(s-1) + j (mod 2^s), 2^52 <= m < 2^53."""
    out = []
    for s in range(30, 53):
        for k in range(10, 40):
            inv = pow(5 ** k, -1, 2 ** s)
            for j in (-2, -1, 1, 2):
                m = (2 ** (s - 1) + j * inv) % 2 ** s
                m += -(-(2 ** 52 - m) // 2 ** s) * 2 ** s
                if 10 ** 16 <= m * 5 ** k // 2 ** s < 10 ** 17:
                    out.append(math.ldexp(m, -s - k))
    return out


def test_ties_and_near_ties_are_exact():
    # Exact dyadic ties (18 significant digits ending in 5) and their
    # neighbours across decades, and values within 2^-52 of a tie, where
    # the double-double product cannot tell the rounding direction.
    ties = np.array([(2 ** 17 + k) / 2 ** 17 for k in range(1, 4001, 2)])
    ties = np.concatenate([ties * 2.0 ** j for j in range(-40, 41, 8)])
    _assert_cells_match(np.concatenate([ties, np.nextafter(ties, 0.0), np.nextafter(ties, 9.0)]))
    near = _near_ties()
    assert len(near) > 100
    _assert_cells_match(near)


def test_grid_with_masked_rows(tmp_path):
    rows = np.random.default_rng(5).standard_normal((30, len(cli.COLUMNS)))
    rows[::4, 4:19] = 0.0
    rows[::4, 19] = 1.0
    rows[1, 4:19] = -0.0
    grid = _grid(rows)
    path = tmp_path / "grid.csv"
    cli.write_csv(grid, str(path))
    assert path.read_bytes() == _oracle_csv(grid)
    assert cli.read_csv(str(path)).rows.tobytes() == rows.tobytes()


def test_grid_longer_than_one_row_block(tmp_path):
    rng = np.random.default_rng(6)
    n = 2 * cli._CSV_BLOCK_ROWS + 37
    rows = rng.standard_normal((n, len(cli.COLUMNS))) * 10.0 ** rng.integers(-40, 40, (n, 1))
    grid = _grid(rows)
    path = tmp_path / "grid.csv"
    cli.write_csv(grid, str(path))
    assert path.read_bytes() == _oracle_csv(grid)


def test_json_rows_equal_the_per_value_floats(tmp_path):
    rng = np.random.default_rng(7)
    for n in (0, 6, 2 * cli._CSV_BLOCK_ROWS + 37):
        rows = rng.standard_normal((n, len(cli.COLUMNS))) * 10.0 ** rng.integers(-40, 40, (n, 1))
        if n:
            rows[2, 4:19] = 0.0
            rows[2, 19] = 1.0
            rows[3, 4:19] = -0.0
            rows[4, 4:7] = [math.nan, math.inf, -math.inf]
        grid = _grid(rows)
        path = tmp_path / "grid.json"
        cli.write_json(grid, str(path))
        old = {"provenance": grid.provenance, "columns": grid.columns,
               "rows": [[float(v) for v in row] for row in grid.rows]}
        assert path.read_text() == json.dumps(old, indent=1, sort_keys=True) + "\n"
        if n:
            assert "-0.0" in path.read_text() and "-Infinity" in path.read_text()


def _config_text(name):
    if name.endswith(".cfg"):
        return (ROOT / "configs" / name).read_text()
    return _load_workloads().make(name, 0).config_text()


@pytest.mark.parametrize("name", ["smooth3d", "shell3d", "spline3d", "inplane2d",
                                  "default3d.cfg", "kelvin.cfg", "antiplane.cfg",
                                  "tabulated3d.cfg"])
def test_no_cell_falls_back_on_benchmark_grids_and_shipped_configs(monkeypatch, tmp_path, name):
    grid = cli.sample_grid(parse_config(_config_text(name)))
    fallbacks = []

    def counted(x):
        fallbacks.append(x)
        return "%.16e" % x

    monkeypatch.setattr(cli, "_format_cell", counted)
    path = tmp_path / "grid.csv"
    cli.write_csv(grid, str(path))
    assert fallbacks == []
    assert path.read_bytes() == _oracle_csv(grid)
