"""Source trajectories, force-magnitude profiles, and retarded-time solving.

A trajectory supplies the source worldline s(t) with exact analytic
velocity and acceleration, and the exact supremum vmax of its speed
(tabulated and piecewise-polynomial worldlines take it from the roots of
d|V|^2/dt on each interval); a force profile supplies the strength Q(t) and
its analytic derivative. The constant, step, ramp and polynomial forces
are one family, polynomials in t - t_on that one Horner evaluator
(``_polynomial``) serves; a constant is one row, at t_on = -inf. The
retarded-time condition

    t - t' - kappa * |x - s(t')| = 0

is strictly monotone in t' whenever the source stays slower than the wave
speed 1/kappa, so a bracketed Halley iteration with bisection fallback
always converges to the unique root; its second derivative comes from the
acceleration that every trajectory evaluation returns anyway. The root
also falls monotonically as kappa rises, with dt'/dkappa = -R^2/P_c: a
solve at two slownesses brackets every root between them. The 3D
slowness integral of a window that a break or a knot cuts uses that to
start each node's Halley loop (``_newton``) inside its event's two
far-channel roots, near the root; every other window integrates over the
retarded times between those roots, where the slowness (t - t')/R is
explicit and nothing is solved.
``retarded_time`` solves many rows in one array iteration: a row is a
slowness kappa with its own observer x and time t, or one event's x and
t shared by an array of slownesses. On a bounded trajectory domain,
the bracket decides both ends: rows whose root precedes the first knot
come back masked (``valid`` False), since the force vanishes there and
they contribute nothing, and rows whose root lies past the last knot
come back masked and flagged (``late``), since the worldline holds no
source state there; neither is iterated, and no time outside the domain
is asked of the worldline. Rows whose observer sits on the worldline
come back flagged (``singular``), so one such event does not abort a
batch. A scalar call raises NoRetardationError, ExtrapolationError or
SingularPointError instead. The same solver
serves 3D points and 2D lines (``dim=2`` restricts the geometry to the
x1-x2 plane). ``motion_violations`` decides once whether a source lies
in the scope of the solutions; the preset constructors reject
non-finite parameters.

Every preset function (``Trajectory._fn``, ``ForceProfile._fn``) returns
component-major arrays: shape (3, n) for an array of times (n,), and (3,)
for a 0-d one. ``eval`` sends a scalar time down the same path as a 0-d
array and hands the public (n, 3) layout back as the zero-copy transpose
(a (3,) row is its own transpose), so the solver and the 3D channel
kernel recover the contiguous component rows (3, n) with ``.T`` and
compute on them: a dot product is a[0]*b[0] + a[1]*b[1] + a[2]*b[2] over
whole rows.

Every trajectory preset also supplies its history differences
(``Trajectory._diff``) without cancellation: 0 (static), V h (uniform),
sum-to-product about the midpoint b - h/2 (oscillatory), and factored
powers tau^j - (tau - h)^j = h D_j inside b's piece (piecewise
polynomial). The 2D history integrals build every node from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.interpolate import CubicSpline, PPoly

from .errors import (
    ExtrapolationError,
    NoRetardationError,
    RetardedConvergenceError,
    SingularPointError,
    SupersonicError,
    UnboundedHistoryError,
)

__all__ = [
    "Trajectory",
    "ForceProfile",
    "RetardedState",
    "static_trajectory",
    "uniform_trajectory",
    "oscillatory_trajectory",
    "piecewise_polynomial_trajectory",
    "tabulated_trajectory",
    "constant_force",
    "step_force",
    "ramp_force",
    "sinusoid_force",
    "bump_force",
    "polynomial_force",
    "motion_violations",
    "retarded_time",
]

DEFAULT_RETARDED_TOL = 1e-12
# Singular-point cutoff. Like the solver's stop rule, it takes lengths and
# times of order one.
R_MIN = 1e-9

_NEWTON_ITERATIONS = 120
_EPS = float(np.finfo(float).eps)


def _check_component_major(preset, value, ta):
    """Raise unless a preset function returned (3,) + t.shape arrays."""
    if value.shape != (3,) + ta.shape:
        raise ValueError(
            f"{preset.kind!r} preset function returned shape {value.shape} for times of "
            f"shape {ta.shape}; expected the component-major shape {(3,) + ta.shape}"
        )


@dataclass(frozen=True)
class Trajectory:
    """Source worldline with analytic derivatives.

    ``vmax`` is the supremum of |V|, exact for every preset: closed form
    for the analytic ones, the maximum of the piecewise polynomial |V|^2
    for tabulated and piecewise-polynomial data. ``domain`` bounds where
    the worldline is defined (infinite for the analytic presets), and
    ``knots`` are the times where the pieces of a tabulated or
    piecewise-polynomial worldline meet (``pp.x``; empty for the analytic
    presets): a derivative of s may jump there. ``_fn`` maps an array of
    times (n,) to component-major arrays (s, V, A) of shape (3, n) each,
    and a scalar or 0-d time to (3,) each. ``_diff`` maps arrays b
    and h >= 0 of shape (n,) to the component-major history differences
    (s(b) - s(b - h), V(b) - V(b - h)), (3, n) each, formed without
    subtracting absolute positions, so they keep their relative accuracy
    as h -> 0. On a bounded domain, b - h is clamped to its start.
    """

    kind: str
    vmax: float
    _fn: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]] = field(repr=False)
    _diff: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]] = field(repr=False)
    domain: tuple[float, float] = (-math.inf, math.inf)
    knots: tuple[float, ...] = ()

    def eval(self, t):
        """Return (s, V, A) at time t: (3,) each, or (n, 3) for an array t (n,).

        A scalar t takes the array path as a 0-d array. The (n, 3) arrays
        are transposed views of ``_fn``'s component-major rows; ``.T`` of
        them gives those contiguous rows back (a (3,) row is its own
        transpose).
        """
        ta = np.asarray(t, dtype=float)
        lo, hi = self.domain
        if ta.min(initial=math.inf) < lo or ta.max(initial=-math.inf) > hi:
            outside = ((ta < lo) | (ta > hi)).reshape(-1)
            raise ExtrapolationError(
                f"{outside.sum()} time(s) outside trajectory domain [{lo:g}, {hi:g}]; "
                f"first: {ta.reshape(-1)[outside.argmax()]:g}"
            )
        s, v, a = self._fn(ta)
        _check_component_major(self, s, ta)
        return s.T, v.T, a.T


@dataclass(frozen=True)
class ForceProfile:
    """Force strength Q(t) and its analytic time derivative.

    Q and Qdot vanish identically outside [t_on, t_off]. 2D history
    integrals require a finite t_on; 3D admits t_on = -inf. ``_fn`` maps
    an array of times (n,) to component-major arrays (Q, Qdot) of shape
    (3, n) each, and a scalar or 0-d time to (3,) each. ``scale`` is
    sup |Q| for the bounded presets (|q0| for constant, step, sinusoid
    and bump forces) and None for the unbounded ramp and polynomial
    forces (a one-row polynomial is a step and has |q0|); the 3D
    slowness integral takes its absolute error floor from it.
    """

    kind: str
    t_on: float
    _fn: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] = field(repr=False)
    t_off: float = math.inf
    scale: float | None = None

    def eval(self, t):
        """Return (Q, Qdot) at time t: (3,) each, or (n, 3) for an array t (n,).

        A scalar t takes the array path as a 0-d array, as in
        ``Trajectory.eval``, and the (n, 3) arrays are transposed views of
        component-major rows. Both are zero outside [t_on, t_off] and at a
        NaN time.
        """
        ta = np.asarray(t, dtype=float)
        q, qd = self._fn(ta)
        _check_component_major(self, q, ta)
        active = (ta >= self.t_on) & (ta <= self.t_off)
        return np.where(active, q, 0.0).T, np.where(active, qd, 0.0).T


@dataclass(frozen=True)
class RetardedState:
    """Solved retarded time and the geometric bundle evaluated there.

    A solve over an array of slownesses gives every attribute a leading
    row axis.

    Attributes:
        t_ret: retarded time [s]
        rvec:  R = x - s(t_ret) [m] (2 or 3 components)
        r:     |R| [m]
        n:     R / |R|
        pc:    Doppler denominator R - kappa * (V . R) [m], positive for
               subsonic motion
        slowness: kappa = 1/c used for this solve [s/m]
        v, a:  source velocity and acceleration at t_ret
        valid: False on rows whose root lies outside a bounded trajectory
               domain; their geometry is taken at the domain end nearer
               the root and carries no force
        singular: True on rows whose observer lies within R_MIN of the
               worldline; their r, n and pc are NaN
        late:  True on rows whose root lies past the end of a bounded
               trajectory domain (those are not ``valid`` either)
    """

    t_ret: float
    rvec: np.ndarray
    r: float
    n: np.ndarray
    pc: float
    slowness: float
    v: np.ndarray
    a: np.ndarray
    valid: np.ndarray | bool = True
    singular: np.ndarray | bool = False
    late: np.ndarray | bool = False


# ---------------------------------------------------------------------------
# trajectory presets

def _vec3(v):
    a = np.asarray(v, dtype=float).reshape(-1)
    if a.size == 2:
        a = np.array([a[0], a[1], 0.0])
    if a.size != 3 or not all(map(math.isfinite, a.tolist())):
        raise ValueError(f"expected a finite 2- or 3-vector, got {a.tolist()}")
    return a


def _finite(name, value):
    """``value`` as a float; raises ValueError unless it is finite."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def _col(vec, t):
    """``vec`` (3,) shaped to scale component rows: a column for an array t."""
    return vec[:, None] if np.ndim(t) else vec


def _broadcast_const(vec, t):
    """``vec`` at every time of t: (3,) for a 0-d t, (3, n) for an array t (n,); read-only."""
    return np.broadcast_to(_col(vec, t), (3,) + np.shape(t))


def static_trajectory(position) -> Trajectory:
    """Source fixed at ``position``."""
    p = _vec3(position)
    zero = np.zeros(3)

    def fn(t):
        return _broadcast_const(p, t), _broadcast_const(zero, t), _broadcast_const(zero, t)

    def diff(b, h):
        return _broadcast_const(zero, h), _broadcast_const(zero, h)

    return Trajectory("static", 0.0, fn, diff)


def uniform_trajectory(origin, velocity) -> Trajectory:
    """s(t) = origin + velocity * t."""
    x0 = _vec3(origin)
    v = _vec3(velocity)
    zero = np.zeros(3)
    speed = float(np.linalg.norm(v))

    def fn(t):
        t = np.asarray(t, float)
        return _col(x0, t) + _col(v, t) * t, _broadcast_const(v, t), _broadcast_const(zero, t)

    def diff(b, h):
        return v[:, None] * h, _broadcast_const(zero, h)

    return Trajectory("uniform", speed, fn, diff)


def oscillatory_trajectory(center, amplitude, omega: float, phase: float = 0.0) -> Trajectory:
    """s(t) = center + amplitude * sin(omega*t + phase); vmax = |amplitude|*omega."""
    c = _vec3(center)
    a = _vec3(amplitude)
    w = _finite("omega", omega)
    phase = _finite("phase", phase)

    wa, wwa = w * a, -w * w * a

    def fn(t):
        ph = w * np.asarray(t, float) + phase
        sin = np.sin(ph)
        return _col(c, ph) + _col(a, ph) * sin, _col(wa, ph) * np.cos(ph), _col(wwa, ph) * sin

    def diff(b, h):
        # Sum-to-product about the midpoint m of [b - h, b].
        m = w * (b - 0.5 * h) + phase
        two_sin = 2.0 * np.sin(0.5 * w * h)
        return a[:, None] * (two_sin * np.cos(m)), wa[:, None] * (-two_sin * np.sin(m))

    return Trajectory("oscillatory", float(np.linalg.norm(a)) * abs(w), fn, diff)


def _derivative_coefficients(c):
    """PPoly coefficients of the derivative, formed as ``PPoly.derivative`` forms them."""
    if c.shape[0] == 1:
        return np.zeros_like(c)
    return c[:-1] * np.arange(c.shape[0] - 1, 0, -1)[:, None, None]


def _ppoly_trajectory(kind, pp: PPoly) -> Trajectory:
    """Worldline of a PPoly with values (3,) on the window of its breakpoints.

    On every interval |V|^2 is a polynomial, so its maximum lies at an end
    of the interval or at a root of its derivative: vmax is exact. s, V
    and A are the 9 columns of one PPoly, so one scipy call evaluates all
    three; the V and A coefficients are padded with leading zeros to the
    order of s, which leaves every Horner step exact.
    """
    dc = _derivative_coefficients(pp.c)
    stacked = np.zeros(pp.c.shape[:2] + (9,))  # columns s | V | A
    for j, c in enumerate((pp.c, dc, _derivative_coefficients(dc))):
        stacked[stacked.shape[0] - c.shape[0]:, :, 3 * j:3 * j + 3] = c
    sva = PPoly.construct_fast(stacked, pp.x)
    # Coefficients of |V|^2 per interval, highest power first: the power
    # i + j of the product of dc (order, n_intervals, 3) collects dc[i] . dc[j].
    order = dc.shape[0]
    sq = np.zeros((2 * order - 1, dc.shape[1]))
    for i in range(order):
        sq[i:i + order] += (dc[i] * dc).sum(axis=-1)
    sq_pp = PPoly(sq, pp.x)
    crit = sq_pp.derivative().roots(discontinuity=False, extrapolate=False)
    # Each interval's own value at both of its ends: V may jump at a break.
    ends = np.concatenate([sq[-1], np.polyval(sq, np.diff(pp.x))])
    v2 = max(ends.max(), sq_pp(crit[np.isfinite(crit)]).max(initial=0.0))

    def fn(t):
        rows = np.ascontiguousarray(sva(t).T)
        return rows[0:3], rows[3:6], rows[6:9]

    x = pp.x
    sv = stacked[:, :, :6].transpose(0, 2, 1)  # s | V coefficients (order, 6, n_intervals)

    def diff(b, h):
        # Inside b's piece, with tau = b - x_i and sigma = tau - h,
        # tau^j - sigma^j = h D_j where D_j = tau D_(j-1) + sigma^(j-1).
        i = np.clip(np.searchsorted(x, b, side="right") - 1, 0, x.size - 2)
        tau = b - x[i]
        sigma = tau - h
        c = sv[:, :, i]  # c[k - 1 - j] multiplies tau^j
        k = len(c)
        d_j, sigma_j, rows = 0.0, 1.0, np.zeros(c.shape[1:])
        for j in range(1, k):
            d_j = tau * d_j + sigma_j
            sigma_j = sigma_j * sigma
            rows += c[k - 1 - j] * d_j
        rows *= h
        cross = sigma < 0.0  # b - h lies in an earlier piece: h is not small
        if cross.any():
            lo = np.maximum(b[cross] - h[cross], x[0])
            rows[:, cross] = (sva(b[cross]) - sva(lo))[:, :6].T
        return rows[0:3], rows[3:6]

    return Trajectory(kind, math.sqrt(v2), fn, diff, (float(x[0]), float(x[-1])),
                      tuple(x.tolist()))


def piecewise_polynomial_trajectory(breakpoints, coefficients) -> Trajectory:
    """Piecewise-polynomial worldline on a finite window.

    ``coefficients`` has shape (order, n_intervals, 3) in the scipy PPoly
    convention (highest power first, local variable t - breakpoints[i]),
    or is that array flattened.
    """
    x = np.asarray(breakpoints, dtype=float).reshape(-1)
    c = np.asarray(coefficients, dtype=float)
    n_int = max(x.size - 1, 1)
    if c.ndim == 1 and c.size % (3 * n_int) == 0:
        c = c.reshape(-1, n_int, 3)
    if (x.size < 2 or c.ndim != 3 or c.shape[0] == 0 or c.shape[1:] != (n_int, 3)
            or not (np.isfinite(x).all() and np.isfinite(c).all())):
        raise ValueError("piecewise-polynomial trajectory needs n >= 2 finite breakpoints "
                         "and order*3*(n-1) finite coefficients")
    return _ppoly_trajectory("piecewise-polynomial", PPoly(c, x))


def tabulated_trajectory(times, positions) -> Trajectory:
    """C2 cubic-spline interpolant through sampled positions.

    Queries outside [times[0], times[-1]] raise ExtrapolationError; any
    force profile used with this trajectory must switch on at or after
    the first knot. ``positions`` has shape (len(times), 3), or is that
    array flattened.
    """
    ts = np.asarray(times, dtype=float).reshape(-1)
    ps = np.asarray(positions, dtype=float)
    if ps.ndim == 1 and ps.size % 3 == 0:
        ps = ps.reshape(-1, 3)
    if ts.size < 2 or ps.shape != (ts.size, 3):
        raise ValueError("tabulated trajectory needs times (n >= 2) and n positions of 3")
    return _ppoly_trajectory("tabulated", CubicSpline(ts, ps, axis=0, bc_type="natural"))


# ---------------------------------------------------------------------------
# force-profile presets

def _polynomial(kind, c, t_on) -> ForceProfile:
    """Q_i(t) = sum_k c[k, i] * (t - t_on)^k for t >= t_on, and its rate, by Horner.

    ``c`` has shape (order + 1, 3), lowest power first. Horner runs
    elementwise, so a time's bits do not depend on the times sharing its
    call. One row is a constant: it never forms t - t_on, so t_on = -inf
    and t = +-inf give c[0] without a warning. Longer rows give their
    limit at tau = +-inf: c[0] for a constant component, else +-inf by the
    sign of the highest non-zero coefficient (Horner would make 0 * inf).
    """
    dc = c[1:] * np.arange(1, len(c))[:, None] if len(c) > 1 else np.zeros((1, 3))

    def horner(coef, tau):
        out = _broadcast_const(coef[-1], tau)
        for ck in coef[-2::-1]:
            out = out * tau + _col(ck, tau)
        return out

    def limit(coef, tau):
        deg = np.array([np.flatnonzero(col).max(initial=0) for col in coef.T])
        lead = coef[deg, np.arange(3)]
        lim = np.copysign(math.inf, _col(lead, tau) * np.sign(tau) ** _col(deg, tau))
        return np.where(_col(deg == 0, tau), _col(coef[0], tau), lim)

    def fn(t):
        if len(c) == 1:
            return horner(c, t), horner(dc, t)
        tau = np.asarray(t, float) - t_on
        inf = np.isinf(tau)
        if not inf.any():
            return horner(c, tau), horner(dc, tau)
        finite = np.where(inf, 0.0, tau)
        return tuple(np.where(inf, limit(coef, tau), horner(coef, finite)) for coef in (c, dc))

    # One row is a step (or a constant): bounded by |c[0]|.
    return ForceProfile(kind, float(t_on), fn,
                        scale=math.hypot(*c[0].tolist()) if len(c) == 1 else None)


def constant_force(q0) -> ForceProfile:
    """Q(t) = q0 for all time (t_on = -inf)."""
    return _polynomial("constant", _vec3(q0)[None], -math.inf)


def step_force(q0, t_on: float) -> ForceProfile:
    """Q(t) = q0 * H(t - t_on); t_on is finite or -inf (always on)."""
    q = _vec3(q0)[None]
    return _polynomial("step", q, t_on if t_on == -math.inf else _finite("t_on", t_on))


def ramp_force(rate, t_on: float) -> ForceProfile:
    """Q(t) = rate * (t - t_on) for t >= t_on; t_on must be finite."""
    return _polynomial("ramp", np.stack([np.zeros(3), _vec3(rate)]), _finite("t_on", t_on))


def sinusoid_force(q0, omega: float, phase: float = 0.0) -> ForceProfile:
    """Q(t) = q0 * sin(omega*t + phase), active for all time."""
    q = _vec3(q0)
    w = _finite("omega", omega)
    phase = _finite("phase", phase)

    wq = w * q

    def fn(t):
        ph = w * np.asarray(t, float) + phase
        return _col(q, ph) * np.sin(ph), _col(wq, ph) * np.cos(ph)

    return ForceProfile("sinusoid", -math.inf, fn, scale=math.hypot(*q.tolist()))


def bump_force(q0, center: float, half_width: float) -> ForceProfile:
    """Smooth compactly supported pulse on [center - w, center + w].

    Q(t) = q0 * exp(1 - 1/(1 - xi^2)) with xi = (t - center)/w; infinitely
    differentiable, exactly zero outside the support.
    """
    q = _vec3(q0)
    center = _finite("center", center)
    w = _finite("half_width", half_width)
    if w <= 0.0:
        raise ValueError("half_width must be positive")

    def fn(t):
        xi = (np.asarray(t, float) - center) / w
        g = 1.0 - xi * xi
        inside = g > 0.0
        g_safe = np.where(inside, g, 1.0)
        e = np.where(inside, np.exp(1.0 - 1.0 / g_safe), 0.0)
        return _col(q, e) * e, _col(q, e) * (e * (-2.0 * xi / (g_safe * g_safe)) / w)

    return ForceProfile("bump", center - w, fn, t_off=center + w, scale=math.hypot(*q.tolist()))


def polynomial_force(coefficients, t_on: float) -> ForceProfile:
    """Q_i(t) = sum_k c[k, i] * (t - t_on)^k for t >= t_on.

    ``coefficients`` has shape (order + 1, 3), lowest power first, or is
    that array flattened. ``t_on`` must be finite. Constant, step and ramp
    forces are the same family: one shared Horner evaluator serves them
    all (``_polynomial``).
    """
    c = np.asarray(coefficients, dtype=float)
    if c.ndim == 1 and c.size % 3 == 0:
        c = c.reshape(-1, 3)
    if c.ndim != 2 or c.shape[0] == 0 or c.shape[1] != 3 or not np.isfinite(c).all():
        raise ValueError("polynomial force needs coefficients of shape (order + 1, 3), all finite")
    return _polynomial("polynomial", c, _finite("t_on", t_on))


# ---------------------------------------------------------------------------
# admissible motion

def motion_violations(traj: Trajectory, prof: ForceProfile, cT: float, line: bool) -> list:
    """(error class, message) pairs for each way the source leaves the solutions' scope.

    The solutions need vmax < cT (a proof: vmax is exact) and zero initial
    conditions: Q = 0 where the worldline is undefined, and a finite
    switch-on for a line force (``line``). Every comparison fails on NaN.
    """
    out = []
    if not traj.vmax < cT:
        out.append((SupersonicError, f"supersonic trajectory: vmax={traj.vmax:g} is not below "
                                     f"cT={cT:g}; only subsonic motion is supported"))
    if line and not math.isfinite(prof.t_on):
        out.append((UnboundedHistoryError, "finite switch-on required in 2D: force.t_on must be finite"))
    if not prof.t_on >= traj.domain[0]:
        out.append((ValueError, "force.t_on precedes the first trajectory knot"))
    return out


# ---------------------------------------------------------------------------
# retarded-time solving

def _dot(a, b):
    """a . b row by row, for component-major a (dim, ...) and b (>= dim, ...)."""
    out = a[0] * b[0]
    for i in range(1, len(a)):
        out = out + a[i] * b[i]
    return out


def _bracket(traj, xc, t, k):
    """Per-row bracket [lo, hi] with f(lo) >= 0 >= f(hi), f = t - t' - kappa R(t').

    ``xc`` holds the observer components (dim, 1) or (dim, n). |V| <= vmax
    with kappa*vmax < 1 guarantees the bracket. It is anchored at
    t_c = min(t, domain[1]), where the worldline is defined: with
    delta = t - t_c, |R(t') - R(t_c)| <= vmax (t - t' - delta) for every
    t' <= t_c, and inside the domain delta = 0. On a bounded domain the
    bracket is clamped to both ends. f(t_c) > 0 puts the root past the
    last knot: such a row is masked and flagged (``valid`` False, ``late``
    True) with lo = hi = domain[1]; only a call with some t past the end
    pays for that test. f(domain[0]) < 0 puts the root before the first
    knot: such a row is masked with lo = hi = domain[0]; only a bracket
    that reaches before the first knot pays for that test. Returns lo, hi,
    valid and late.
    """
    dim = len(xc)
    t_min, t_max = traj.domain
    t_c = np.minimum(t, t_max)
    rv = xc - traj.eval(t_c)[0].T.reshape(3, -1)[:dim]
    r_c = np.sqrt(_dot(rv, rv))
    slack = traj.vmax * (t - t_c)
    kv = k * traj.vmax
    lo = t - k * (r_c - slack) / (1.0 - kv)
    hi = t - k * (r_c + slack) / (1.0 + kv)
    late = np.zeros(k.shape, dtype=bool)
    if np.max(t, initial=-math.inf) > t_max:
        late = t - t_c - k * r_c > 0.0
        lo, hi = np.where(late, t_max, lo), np.minimum(hi, t_max)
    valid = ~late
    if t_min > -math.inf and lo.min(initial=math.inf) < t_min:
        rv = xc - traj.eval(t_min)[0][:dim, None]
        f_min = t - t_min - k * np.sqrt(_dot(rv, rv))
        inside = (hi >= t_min) & (f_min >= 0.0)
        valid &= inside
        lo = np.where(inside, np.maximum(lo, t_min), t_min)
        hi = np.where(inside, hi, t_min)
    return lo, hi, valid, late


def _no_retardation(t):
    return NoRetardationError(
        f"retarded time for event (t={t:g}) precedes the trajectory domain"
    )


def _past_the_end(traj, t):
    """The error of an event whose retarded times reach past the end of ``traj.domain``."""
    return ExtrapolationError(
        f"retarded times of the event at t={t:g} reach past the end of the trajectory "
        f"domain [{traj.domain[0]:g}, {traj.domain[1]:g}]"
    )


def _finalize_state(traj, xc, tp, slowness, valid=True, t=None, late=False):
    """Geometry at the solved retarded time(s); masked rows are not checked.

    ``xc`` is the observer (dim,) of a scalar solve, or its component rows
    (dim, 1) or (dim, n). A scalar solve raises SingularPointError for an
    observer within R_MIN of the worldline; an array solve flags such rows
    in ``singular`` and gives them NaN geometry. With ``slowness`` None,
    each row takes the slowness whose root tp is, kappa = (t - tp)/R, for
    its observation time ``t``; nothing is solved. The row vectors of the
    state are transposed views of component-major arrays.
    """
    dim = len(xc)
    s, v, a = (c.T[:dim] for c in traj.eval(tp))
    rvec = xc - s
    r = np.sqrt(_dot(rvec, rvec))
    singular = (r < R_MIN) & valid
    if np.ndim(tp) == 0:
        if singular:
            raise SingularPointError(
                f"observer within R_MIN={R_MIN:g} of the source worldline at t'={tp:g}"
            )
        singular = False
    else:
        r = np.where(singular, np.nan, r)
    if slowness is None:
        slowness = (t - tp) / r
    pc = r - slowness * _dot(v, rvec)
    if ((pc <= 0.0) & valid).any():
        raise SupersonicError(
            f"non-positive Doppler denominator P_c={np.nanmin(pc):g}; motion is not "
            f"subsonic for slowness {np.max(slowness):g}"
        )
    return RetardedState(
        t_ret=tp, rvec=rvec.T, r=r, n=(rvec / r).T, pc=pc, slowness=slowness,
        v=v.T, a=a.T, valid=valid, singular=singular, late=late,
    )


def _check_slowness(traj, slowness):
    k = np.asarray(slowness)
    if not k.min(initial=math.inf) > 0.0:
        raise ValueError("slowness must be positive")
    if not k.max(initial=0.0) * traj.vmax < 1.0:
        raise SupersonicError(f"vmax={traj.vmax:g} is not below the wave speed {1 / k.max():g}")


def _newton(traj, xc, t, k, lo, hi, tp, valid, tol):
    """Bracketed Halley iteration from ``tp`` for the roots in [lo, hi]; returns t'.

    ``xc`` holds the observer components (dim, 1) or (dim, n), ``t`` one
    time or one per row, and ``k``, ``lo``, ``hi``, ``tp`` and ``valid``
    one value per row, with f(lo) >= 0 >= f(hi). Rows not ``valid`` keep
    their start. Each row depends only on its own inputs, so it does not
    matter which rows share a call.

    With n = R/|R|, f' = -(1 - kappa n.V) and f'' = kappa (n.A - (|V|^2 -
    (n.V)^2)/|R|), both from the one trajectory evaluation of the step,
    whose acceleration Newton would not use. A Halley step that leaves
    the bracket, or turns back against Newton's direction (the bracket
    end was just moved to t'), bisects.
    """
    dim = len(xc)
    # Stop rule, fixed per row from the bracket: tol * max(1, t - t') with
    # t - t' >= t - hi, plus the rounding floor of f = t - t' - kappa R,
    # which max(|t|, |lo|) bounds (every term is at most |t| + |t'|).
    stop = tol * np.maximum(1.0, t - hi) + 8.0 * _EPS * np.maximum(np.abs(t), np.abs(lo))
    done = ~valid
    # r = 0 (observer on the worldline) divides by zero; _finalize_state
    # reports it.
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_NEWTON_ITERATIONS):
            s, v, a = traj.eval(tp)
            rv = xc - s.T[:dim]
            v, a = v.T[:dim], a.T
            r = np.sqrt(_dot(rv, rv))
            fval = t - tp - k * r
            pos = fval > 0.0
            lo = np.where(pos, tp, lo)
            hi = np.where(pos, hi, tp)
            nv = _dot(rv, v) / r
            d1 = 1.0 - k * nv  # -f'
            d2 = k * (_dot(rv, a) - _dot(v, v) + nv * nv) / r  # f''
            t_new = tp + fval / (d1 - 0.5 * fval * d2 / d1)
            conv = np.abs(fval) <= stop
            # A converged row takes one final Halley increment, which keeps
            # solver jitter at machine level; downstream adaptive quadrature
            # of smooth kappa-integrands relies on that. Other rows bisect
            # whenever the step leaves the bracket.
            inside = (lo < t_new) & (t_new < hi)
            t_new = np.where(inside, t_new, np.where(conv, tp, 0.5 * (lo + hi)))
            tp = np.where(done, tp, t_new)
            done = done | conv
            if done.all():
                return tp
    bad = np.flatnonzero(~done)
    raise RetardedConvergenceError(
        f"retarded time not converged after {_NEWTON_ITERATIONS} steps on {bad.size} "
        f"row(s); first: t={np.broadcast_to(t, k.shape)[bad[0]]:g}, slowness {k[bad[0]]:g}"
    )


def retarded_time(
    traj: Trajectory,
    x,
    t,
    slowness,
    tol: float = DEFAULT_RETARDED_TOL,
    dim: int = 3,
) -> RetardedState:
    """Solve t - t' - kappa |x - s(t')| = 0 for the unique subsonic root.

    ``slowness`` is one kappa or an array of them (n,); ``x`` is one
    observer (dim,) or one per row (n, dim), and ``t`` one time or one per
    row (n,). Every row runs in one array-wide bracketed Halley iteration
    with bisection fallback. A row stops once |f| <= tol * max(1, t - t')
    plus the rounding floor of f near t', then takes one final Halley
    increment. The bracket comes from the speed bound (``_bracket``) and
    the iteration starts at its midpoint. Callers that already know a tighter
    bracket run the same loop (``_newton``) from their own start: t' falls
    as kappa rises, so the slowness nodes of a 3D event whose window a
    break of the force or a knot of the worldline cuts solve inside the
    roots of its two far channels, t_T <= t' <= t_L, from a cubic Hermite
    start in kappa (see ``pointforce3d._node_states``). The other 3D
    events solve only those two roots: their nodes are retarded times in
    [t_T, t_L], whose slowness (t - t')/R is explicit. An array row whose
    root lies outside a bounded trajectory domain is masked (``valid``
    False) and not iterated: before the first knot, or past the last one,
    where it is also flagged (``late``). One whose observer sits within
    R_MIN of the worldline is flagged (``singular``). A scalar call raises
    NoRetardationError, ExtrapolationError ("past the end") or
    SingularPointError instead. Raises
    RetardedConvergenceError when a row has not met the stop rule after
    the iteration budget, SupersonicError when kappa*vmax >= 1.
    """
    x = np.asarray(x, dtype=float)[..., :dim]
    t = np.asarray(t, dtype=float)
    k = np.asarray(slowness, dtype=float)
    scalar = k.ndim == 0 and t.ndim == 0 and x.ndim == 1
    k = np.broadcast_to(k, np.broadcast_shapes(k.shape, t.shape, x.shape[:-1])).reshape(-1)
    _check_slowness(traj, k)
    xc = np.ascontiguousarray(x.T).reshape(dim, -1)  # component rows (dim, 1 or n)
    lo, hi, valid, late = _bracket(traj, xc, t, k)
    if scalar and not valid[0]:
        raise _past_the_end(traj, float(t)) if late[0] else _no_retardation(float(t))
    tp = _newton(traj, xc, t, k, lo, hi, 0.5 * (lo + hi), valid, tol)
    if scalar:
        return _finalize_state(traj, x, float(tp[0]), float(k[0]))
    return _finalize_state(traj, xc, tp, k, valid, late=late)

