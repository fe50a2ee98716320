"""Seeded workload generators and input-property checks.

Each workload is a config text in the grammar ``elastowave sample`` reads.
The seed only shifts the grid axes by a fraction of a step and draws the
trajectory phase (oscillatory worldlines) or the knot jitter (spline
worldline); everything else is fixed, so the mechanism a workload loads
does not depend on the seed.

The property checks below are computed from the generated inputs alone,
never from program counters: a later change to the program, or an unlucky
seed, cannot turn a workload into a bypass without one of them failing.
This module imports numpy and scipy but not the program under test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.interpolate import CubicSpline

DEFAULT_SEED = 0

# Normalized medium of configs/default3d.cfg: cT = 1, cL = sqrt(3).
RHO, LAM, MU = 1.0, 1.0, 1.0
C_T = math.sqrt(MU / RHO)
C_L = math.sqrt((LAM + 2.0 * MU) / RHO)
K_T, K_L = 1.0 / C_T, 1.0 / C_L

OSC_AMPLITUDE = np.array([0.2, 0.0, 0.0])  # |V| = 0.2 cT at omega = 1
OSC_OMEGA = 1.0
T_ON = 0.0

SPLINE_TIMES = np.linspace(0.0, 8.0, 9)  # 9 knots, domain [0, 8]
# The seed's reach. The adaptive rule's node count per event and the batched
# Newton solver's iteration count jump irregularly with an event's position
# and the source phase (+-10-15 % per event), so a wider reach would not
# load the layers differently, only make a run's work depend on the seed.
SPLINE_JITTER = 0.003
SHIFT = 0.1  # largest grid shift, as a share of a step
PHASE_REACH = 0.2  # oscillation phase drawn from [0, PHASE_REACH) rad

# Smallest distance any event may have to the source worldline, and the
# smallest margin (as a share of the slowness window) between the switch-on
# slowness and a window edge.
MIN_WORLDLINE_DISTANCE = 0.25
MIN_SHELL_MARGIN = 0.05
MAX_SPEED = 0.5 * C_T


@dataclass(frozen=True)
class Axis:
    lo: float
    hi: float
    count: int

    def shifted(self, frac: float) -> "Axis":
        """Shift by ``frac`` (in [0, 1)) times SHIFT of a grid step."""
        if self.count == 1:
            return self
        d = SHIFT * float(frac) * (self.hi - self.lo) / (self.count - 1)
        return Axis(self.lo + d, self.hi + d, self.count)

    def values(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.count)

    def text(self) -> str:
        return f"{self.lo!r}:{self.hi!r}:{self.count}"


@dataclass(frozen=True)
class Spec:
    """Seed-independent shape of one workload."""

    dimension: str
    trajectory: str  # "oscillatory" | "tabulated"
    q0: tuple
    x1: Axis
    x2: Axis
    x3: Axis
    t: Axis
    regime: str  # "behind-s" | "shell"


# Why each workload was chosen, the layer it loads and its bypass: README.md.
SPECS = {
    "smooth3d": Spec(
        "3d-point", "oscillatory", (0.0, 0.0, 1.0),
        Axis(1.0, 2.0, 10), Axis(0.0, 1.0, 10), Axis(0.5, 0.5, 1), Axis(4.0, 6.0, 10),
        "behind-s"),
    "shell3d": Spec(
        "3d-point", "oscillatory", (0.0, 0.0, 1.0),
        Axis(2.3, 2.5, 4), Axis(0.0, 0.3, 4), Axis(0.5, 0.5, 1), Axis(1.9, 2.0, 3),
        "shell"),
    "spline3d": Spec(
        "3d-point", "tabulated", (0.0, 0.0, 1.0),
        Axis(1.2, 1.3, 3), Axis(0.0, 0.2, 3), Axis(0.5, 0.5, 1), Axis(6.05, 6.2, 2),
        "behind-s"),
    "inplane2d": Spec(
        "2d-inplane", "oscillatory", (1.0, 0.5, 0.0),
        Axis(1.0, 2.0, 2), Axis(0.4, 0.9, 2), Axis(0.0, 0.0, 1), Axis(4.0, 5.0, 2),
        "behind-s"),
}


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    spec: Spec
    grid: dict  # axis name -> Axis
    phase: float  # oscillatory phase (unused for the spline)
    knots: np.ndarray | None  # (9, 3) spline positions

    def config_text(self, tolerances: dict | None = None, grid: dict | None = None) -> str:
        """Config text; ``tolerances`` maps quad_rel/history_rel/retarded_rel to values."""
        s = self.spec
        lines = [
            f"# perfbench workload {self.name}, seed {self.seed}",
            f"material.rho = {RHO!r}",
            f"material.lam = {LAM!r}",
            f"material.mu = {MU!r}",
            f"source.dimension = {s.dimension}",
        ]
        if s.trajectory == "oscillatory":
            lines += [
                "trajectory.preset = oscillatory",
                "trajectory.center = 0,0,0",
                "trajectory.amplitude = " + ",".join(repr(float(v)) for v in OSC_AMPLITUDE),
                f"trajectory.omega = {OSC_OMEGA!r}",
                f"trajectory.phase = {self.phase!r}",
            ]
        else:
            lines += [
                "trajectory.preset = tabulated",
                "trajectory.times = " + ",".join(repr(float(v)) for v in SPLINE_TIMES),
                "trajectory.positions = " + ",".join(repr(float(v)) for v in self.knots.ravel()),
            ]
        lines += [
            "force.preset = step",
            "force.q0 = " + ",".join(repr(float(v)) for v in s.q0),
            f"force.t_on = {T_ON!r}",
        ]
        for name, axis in (grid or self.grid).items():
            lines.append(f"grid.{name} = {axis.text()}")
        for key, val in (tolerances or {}).items():
            lines.append(f"tolerances.{key} = {val!r}")
        return "\n".join(lines) + "\n"

    def events(self) -> np.ndarray:
        """(n, 4) events in the row order of ``sample_grid`` (time-major)."""
        g = {k: a.values() for k, a in self.grid.items()}
        return np.array([
            (x1, x2, x3, t)
            for t in g["t"] for x1 in g["x1"] for x2 in g["x2"] for x3 in g["x3"]
        ])

    def single_event_grid(self, event) -> dict:
        return {k: Axis(float(v), float(v), 1) for k, v in zip(("x1", "x2", "x3", "t"), event)}

    # -- worldline, evaluated from the inputs alone -------------------------

    @cached_property
    def spline(self) -> CubicSpline:
        return CubicSpline(SPLINE_TIMES, self.knots, axis=0, bc_type="natural")

    def position(self, times) -> np.ndarray:
        times = np.asarray(times, dtype=float)
        if self.spec.trajectory == "oscillatory":
            return np.multiply.outer(np.sin(OSC_OMEGA * times + self.phase), OSC_AMPLITUDE)
        return self.spline(times)

    def speed_bound(self) -> float:
        if self.spec.trajectory == "oscillatory":
            return float(np.linalg.norm(OSC_AMPLITUDE)) * abs(OSC_OMEGA)
        ts = np.linspace(SPLINE_TIMES[0], SPLINE_TIMES[-1], 200_001)
        return float(np.max(np.linalg.norm(self.spline.derivative()(ts), axis=1)))

    def retarded(self, x, t, slowness) -> float:
        """Bisection root of t - t' - slowness |x - s(t')| on [t_on, t]."""
        dim = 2 if self.spec.dimension.startswith("2d") else 3

        def f(tp):
            return t - tp - slowness * float(np.linalg.norm(x[:dim] - self.position(tp)[:dim]))

        lo, hi = T_ON, t
        if f(lo) < 0.0:
            return -math.inf  # not reached from switch-on
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if f(mid) > 0.0 else (lo, mid)
        return 0.5 * (lo + hi)


def make(name: str, seed: int) -> Workload:
    spec = SPECS[name]
    rng = np.random.default_rng([seed, sorted(SPECS).index(name)])
    grid = {
        axis: getattr(spec, axis).shifted(frac)
        for axis, frac in zip(("x1", "x2", "x3", "t"), rng.uniform(0.0, 1.0, size=4))
    }
    phase = float(rng.uniform(0.0, PHASE_REACH))
    knots = None
    if spec.trajectory == "tabulated":
        knots = np.zeros((SPLINE_TIMES.size, 3))
        knots[:, 0] = OSC_AMPLITUDE[0] * np.sin(OSC_OMEGA * SPLINE_TIMES)
        knots[:, :2] += rng.uniform(-SPLINE_JITTER, SPLINE_JITTER, size=(SPLINE_TIMES.size, 2))
    return Workload(name, seed, spec, grid, phase, knots)


def check_properties(wl: Workload) -> dict:
    """Verify the workload's defining properties; raise ValueError on a violation.

    Returns a summary of the measured margins for the run record.
    """
    spec = wl.spec
    problems = []
    speed = wl.speed_bound()
    if not speed <= MAX_SPEED:
        problems.append(f"worldline speed {speed:.4g} exceeds {MAX_SPEED:g} cT")

    events = wl.events()
    dim = 2 if spec.dimension.startswith("2d") else 3
    history = np.linspace(T_ON, float(events[:, 3].max()), 4001)
    path = wl.position(history)[:, :dim]
    dist = min(
        float(np.min(np.linalg.norm(path - ev[:dim], axis=1))) for ev in events
    )
    if not dist >= MIN_WORLDLINE_DISTANCE:
        problems.append(f"an event lies {dist:.3g} from the worldline")

    # Slowness at which the event sees the switch-on: t_ret(kappa_on) = t_on.
    s_on = wl.position(T_ON)[:dim]
    kappa_on = (events[:, 3] - T_ON) / np.linalg.norm(events[:, :dim] - s_on, axis=1)
    width = K_T - K_L
    if spec.regime == "shell":
        margin = float(min(np.min(kappa_on - K_L), np.min(K_T - kappa_on)) / width)
    else:
        margin = float(np.min(kappa_on - K_T) / width)
    if not margin >= MIN_SHELL_MARGIN:
        where = "inside the P-S shell" if spec.regime == "shell" else "behind the S front"
        problems.append(f"not every event lies {where} (margin {margin:.3g})")

    summary = {"speed": speed, "worldline_distance": dist, "switch_on_margin": margin}
    if spec.trajectory == "tabulated":
        interior = SPLINE_TIMES[1:-1]
        knots_inside = []
        for ev in events:
            t_lo = wl.retarded(ev[:3], ev[3], K_T)
            t_hi = wl.retarded(ev[:3], ev[3], K_L)
            knots_inside.append(int(np.sum((interior > t_lo) & (interior < t_hi))))
        if min(knots_inside) < 1:
            problems.append("an event's history window holds no interior spline knot")
        if float(events[:, 3].max()) > SPLINE_TIMES[-1]:
            problems.append("an event lies past the end of the spline domain")
        summary["min_interior_knots_in_window"] = min(knots_inside)
    if problems:
        raise ValueError(f"workload {wl.name} seed {wl.seed}: " + "; ".join(problems))
    return summary
