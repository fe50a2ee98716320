#!/usr/bin/env python3
"""Kill matrix: which check reports fail under each injected defect.

Loads the defect table ``DEFECTS`` of ``tests/test_mutants.py`` by path,
runs the whole quick check suite (``run_check_suite``) once with every
defect at eps = 0 (a control, which must pass), then under each defect
alone, at that defect's eps and at 1e-3, and prints one row per defect:
``E`` where a report fails at the defect's eps, ``3`` where it fails only
at 1e-3, ``.`` where it passes. A defect's largest error over the reports
it fails follows its row. The suite takes about 3 s per run, so the
whole matrix takes about 80 s on a 2-core machine.

Example:
    python scripts/kill_matrix.py --seed 0
"""

import argparse
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from elastowave.verify import run_check_suite  # noqa: E402


def load_defects():
    spec = importlib.util.spec_from_file_location("test_mutants", ROOT / "tests" / "test_mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.DEFECTS


def run(defects, eps, seed):
    """The quick suite's reports with every defect in ``defects`` at eps (None: its own)."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        for defect in defects:
            defect.inject(monkeypatch, defect.eps if eps is None else eps)
        return run_check_suite(seed=seed)


def failing(reports):
    return {r.name: r.max_rel_err for r in reports if not r.passed}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    defects = load_defects()
    reports = run(defects.values(), 0.0, args.seed)
    names, control = [r.name for r in reports], failing(reports)
    print(f"control, every defect at eps = 0: {len(control)} of {len(names)} reports fail")
    for name, err in control.items():
        print(f"  {name} {err:.2e}")
    print("\nreports:")
    for i, name in enumerate(names):
        print(f"  {i:2d} {name}")
    width = max(map(len, defects))
    print("\n" + " " * (width + 9) + " ".join(f"{i:2d}" for i in range(len(names))))
    for label, defect in defects.items():
        at_eps = failing(run([defect], None, args.seed))
        at_1e3 = failing(run([defect], 1e-3, args.seed))
        cells = ["E" if n in at_eps else "3" if n in at_1e3 else "." for n in names]
        print(f"{label:<{width}} {defect.eps:7.0e} " + " ".join(f"{c:>2}" for c in cells)
              + f"   max {max(at_eps.values(), default=0.0):.1e}")
    return 1 if control else 0


if __name__ == "__main__":
    sys.exit(main())
