"""Source trajectories, force-magnitude profiles, and retarded-time solving.

A trajectory supplies the source worldline s(t) with exact analytic
velocity and acceleration, and the exact supremum vmax of its speed
(tabulated and piecewise-polynomial worldlines take it from the roots of
d|V|^2/dt on each interval); a force profile supplies the strength Q(t) and
its analytic derivative. The retarded-time condition

    t - t' - kappa * |x - s(t')| = 0

is strictly monotone in t' whenever the source stays slower than the wave
speed 1/kappa, so a bracketed Newton iteration with bisection fallback
always converges to the unique root. ``retarded_time`` solves many rows
in one array iteration: a row is a slowness kappa with its own
observer x and time t, or one event's x and t shared by an array of
slownesses. On a bounded trajectory domain, rows whose root precedes the
first knot come back masked (``valid`` False): the force vanishes there,
so they contribute nothing. Rows whose observer sits on the worldline
come back flagged (``singular``), so one such event does not abort a
batch. A scalar call raises NoRetardationError or SingularPointError
instead. The same solver serves 3D points and 2D lines (``dim=2``
restricts the geometry to the x1-x2 plane).
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
    "retarded_time",
    "retarded_time_bisection",
]

DEFAULT_RETARDED_TOL = 1e-12
DEFAULT_R_MIN = 1e-9

_NEWTON_ITERATIONS = 120
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class Trajectory:
    """Source worldline with analytic derivatives.

    ``vmax`` is the supremum of |V|, exact for every preset: closed form
    for the analytic ones, the maximum of the piecewise polynomial |V|^2
    for tabulated and piecewise-polynomial data. ``domain`` bounds where
    the worldline is defined (infinite for the analytic presets).
    """

    kind: str
    vmax: float
    _fn: Callable[[float], tuple[np.ndarray, np.ndarray, np.ndarray]] = field(repr=False)
    domain: tuple[float, float] = (-math.inf, math.inf)

    def eval(self, t):
        """Return (s, V, A) at time t; batched evaluation accepts an array."""
        ta = np.asarray(t, dtype=float)
        lo = ta.min() if ta.ndim else ta
        hi = ta.max() if ta.ndim else ta
        if lo < self.domain[0] or hi > self.domain[1]:
            raise ExtrapolationError(
                f"time {t!r} outside trajectory domain [{self.domain[0]:g}, {self.domain[1]:g}]"
            )
        return self._fn(t)


@dataclass(frozen=True)
class ForceProfile:
    """Force strength Q(t) and its analytic time derivative.

    Q and Qdot vanish identically outside [t_on, t_off]. 2D history
    integrals require a finite t_on; 3D admits t_on = -inf.
    """

    kind: str
    t_on: float
    _fn: Callable[[float], tuple[np.ndarray, np.ndarray]] = field(repr=False)
    t_off: float = math.inf

    def eval(self, t):
        """Return (Q, Qdot) at time t; batched evaluation accepts an array."""
        ta = np.asarray(t, dtype=float)
        if ta.ndim == 0:
            if ta < self.t_on or ta > self.t_off:
                z = np.zeros(3)
                return z, z
            return self._fn(float(ta))
        q, qd = self._fn(ta)
        active = ((ta >= self.t_on) & (ta <= self.t_off))[:, None]
        return np.where(active, q, 0.0), np.where(active, qd, 0.0)


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
        valid: False on rows whose root precedes a bounded trajectory
               domain; their geometry is taken at the domain start and
               carries no force
        singular: True on rows whose observer lies within r_min of the
               worldline; their r, n and pc are NaN
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


# ---------------------------------------------------------------------------
# trajectory presets

def _vec3(v):
    a = np.asarray(v, dtype=float).reshape(-1)
    if a.size == 2:
        a = np.array([a[0], a[1], 0.0])
    if a.size != 3:
        raise ValueError(f"expected a 2- or 3-vector, got {v!r}")
    return a


def _broadcast_const(vec, t):
    t = np.asarray(t, dtype=float)
    if t.ndim == 0:
        return vec
    return np.broadcast_to(vec, t.shape + (3,))


def static_trajectory(position) -> Trajectory:
    """Source fixed at ``position``."""
    p = _vec3(position)
    zero = np.zeros(3)

    def fn(t):
        return _broadcast_const(p, t), _broadcast_const(zero, t), _broadcast_const(zero, t)

    return Trajectory("static", 0.0, fn)


def uniform_trajectory(origin, velocity) -> Trajectory:
    """s(t) = origin + velocity * t."""
    x0 = _vec3(origin)
    v = _vec3(velocity)
    zero = np.zeros(3)
    speed = float(np.linalg.norm(v))

    def fn(t):
        return x0 + np.multiply.outer(np.asarray(t, float), v), _broadcast_const(v, t), _broadcast_const(zero, t)

    return Trajectory("uniform", speed, fn)


def oscillatory_trajectory(center, amplitude, omega: float, phase: float = 0.0) -> Trajectory:
    """s(t) = center + amplitude * sin(omega*t + phase); vmax = |amplitude|*omega."""
    c = _vec3(center)
    a = _vec3(amplitude)
    w = float(omega)

    def fn(t):
        ph = w * np.asarray(t, float) + phase
        sin, cos = np.sin(ph), np.cos(ph)
        return (
            c + np.multiply.outer(sin, a),
            np.multiply.outer(cos, w * a),
            np.multiply.outer(sin, -w * w * a),
        )

    return Trajectory("oscillatory", float(np.linalg.norm(a)) * abs(w), fn)


def _ppoly_trajectory(kind, pp: PPoly) -> Trajectory:
    """Worldline of a PPoly with values (3,) on the window of its breakpoints.

    On every interval |V|^2 is a polynomial, so its maximum lies at an end
    of the interval or at a root of its derivative: vmax is exact.
    """
    dpp = pp.derivative()
    ddpp = dpp.derivative()
    # Coefficients of |V|^2 per interval: the squares of the components of
    # dpp.c (order, n_intervals, 3), highest power first.
    c = dpp.c
    sq = sum(np.apply_along_axis(lambda p: np.convolve(p, p), 0, c[..., i]) for i in range(3))
    sq_pp = PPoly(sq, pp.x)
    crit = sq_pp.derivative().roots(discontinuity=False, extrapolate=False)
    # Each interval's own value at both of its ends: V may jump at a break.
    ends = np.concatenate([sq[-1], np.polyval(sq, np.diff(pp.x))])
    v2 = max(ends.max(), sq_pp(crit[np.isfinite(crit)]).max(initial=0.0))

    def fn(t):
        return np.asarray(pp(t), float), np.asarray(dpp(t), float), np.asarray(ddpp(t), float)

    return Trajectory(kind, math.sqrt(v2), fn, (float(pp.x[0]), float(pp.x[-1])))


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
    if x.size < 2 or c.ndim != 3 or c.shape[0] == 0 or c.shape[1:] != (n_int, 3):
        raise ValueError("piecewise-polynomial trajectory needs n >= 2 breakpoints and "
                         "order*3*(n-1) coefficients")
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

def constant_force(q0) -> ForceProfile:
    """Q(t) = q0 for all time (t_on = -inf)."""
    q = _vec3(q0)
    zero = np.zeros(3)

    def fn(t):
        return _broadcast_const(q, t), _broadcast_const(zero, t)

    return ForceProfile("constant", -math.inf, fn)


def step_force(q0, t_on: float) -> ForceProfile:
    """Q(t) = q0 * H(t - t_on)."""
    q = _vec3(q0)
    zero = np.zeros(3)

    def fn(t):
        return _broadcast_const(q, t), _broadcast_const(zero, t)

    return ForceProfile("step", float(t_on), fn)


def ramp_force(rate, t_on: float) -> ForceProfile:
    """Q(t) = rate * (t - t_on) for t >= t_on."""
    r = _vec3(rate)

    def fn(t):
        return np.multiply.outer(np.asarray(t, float) - t_on, r), _broadcast_const(r, t)

    return ForceProfile("ramp", float(t_on), fn)


def sinusoid_force(q0, omega: float, phase: float = 0.0) -> ForceProfile:
    """Q(t) = q0 * sin(omega*t + phase), active for all time."""
    q = _vec3(q0)
    w = float(omega)

    def fn(t):
        ph = w * np.asarray(t, float) + phase
        return np.multiply.outer(np.sin(ph), q), np.multiply.outer(np.cos(ph), w * q)

    return ForceProfile("sinusoid", -math.inf, fn)


def bump_force(q0, center: float, half_width: float) -> ForceProfile:
    """Smooth compactly supported pulse on [center - w, center + w].

    Q(t) = q0 * exp(1 - 1/(1 - xi^2)) with xi = (t - center)/w; infinitely
    differentiable, exactly zero outside the support.
    """
    q = _vec3(q0)
    w = float(half_width)
    if w <= 0.0:
        raise ValueError("half_width must be positive")

    def fn(t):
        xi = (np.asarray(t, float) - center) / w
        g = 1.0 - xi * xi
        inside = g > 0.0
        g_safe = np.where(inside, g, 1.0)
        e = np.where(inside, np.exp(1.0 - 1.0 / g_safe), 0.0)
        return (
            np.multiply.outer(e, q),
            np.multiply.outer(e * (-2.0 * xi / (g_safe * g_safe)) / w, q),
        )

    return ForceProfile("bump", center - w, fn, t_off=center + w)


def polynomial_force(coefficients, t_on: float) -> ForceProfile:
    """Q_i(t) = sum_k c[k, i] * (t - t_on)^k for t >= t_on.

    ``coefficients`` has shape (order + 1, 3), lowest power first, or is
    that array flattened. ``t_on`` must be finite.
    """
    c = np.asarray(coefficients, dtype=float)
    if c.ndim == 1 and c.size % 3 == 0:
        c = c.reshape(-1, 3)
    if c.ndim != 2 or c.shape[0] == 0 or c.shape[1] != 3:
        raise ValueError("polynomial force needs coefficients of shape (order + 1, 3)")
    if not math.isfinite(t_on):
        raise ValueError(f"polynomial force needs a finite t_on, got {t_on!r}")
    dc = c[1:] * np.arange(1, c.shape[0])[:, None] if c.shape[0] > 1 else np.zeros((1, 3))

    def fn(t):
        tau = np.asarray(t, float) - t_on
        q = np.multiply.outer(tau, np.ones(c.shape[0])) ** np.arange(c.shape[0]) @ c
        qd = np.multiply.outer(tau, np.ones(dc.shape[0])) ** np.arange(dc.shape[0]) @ dc
        return q, qd

    return ForceProfile("polynomial", float(t_on), fn)


# ---------------------------------------------------------------------------
# retarded-time solving

def _norm_rows(d):
    """|d| along the last axis; row by row equal to sqrt(d @ d) of one row."""
    return np.sqrt((d[..., None, :] @ d[..., :, None])[..., 0, 0])


def _bracket(traj, x, t, k, dim):
    """Per-row bracket [lo, hi] with f(lo) >= 0 >= f(hi), f = t - t' - kappa R(t').

    |V| <= vmax with kappa*vmax < 1 guarantees it. On a bounded domain the
    bracket is clamped to the first knot, and rows whose root precedes it
    are masked (``valid`` False) with lo = hi = domain[0]. Only a clamped
    bracket pays for that check: f(domain[0]) < 0 puts the root before
    the first knot.
    """
    r_now = _norm_rows(x - traj.eval(t)[0][..., :dim])
    kv = k * traj.vmax
    lo = t - k * r_now / (1.0 - kv)
    hi = t - k * r_now / (1.0 + kv)
    valid = np.ones(k.shape, dtype=bool)
    t_min = traj.domain[0]
    if t_min > -math.inf and lo.min() < t_min:
        f_min = t - t_min - k * _norm_rows(x - traj.eval(t_min)[0][:dim])
        valid = (hi >= t_min) & (f_min >= 0.0)
        lo = np.where(valid, np.maximum(lo, t_min), t_min)
        hi = np.where(valid, hi, t_min)
    return lo, hi, valid


def _no_retardation(t):
    return NoRetardationError(
        f"retarded time for event (t={t:g}) precedes the trajectory domain"
    )


def _finalize_state(traj, x, tp, slowness, r_min, dim, valid=True):
    """Geometry at the solved retarded time(s); masked rows are not checked.

    A scalar solve raises SingularPointError for an observer within r_min
    of the worldline; an array solve flags such rows in ``singular`` and
    gives them NaN geometry.
    """
    s, v, a = traj.eval(tp)
    rvec = x - s[..., :dim]
    v = v[..., :dim]
    r = np.sqrt(np.add.reduce(rvec * rvec, axis=-1))
    singular = (r < r_min) & valid
    if np.ndim(tp) == 0:
        if singular:
            raise SingularPointError(
                f"observer within r_min={r_min:g} of the source worldline at t'={tp:g}"
            )
        singular = False
    else:
        r = np.where(singular, np.nan, r)
    pc = r - slowness * np.add.reduce(v * rvec, axis=-1)
    if ((pc <= 0.0) & valid).any():
        raise SupersonicError(
            f"non-positive Doppler denominator P_c={np.nanmin(pc):g}; motion is not "
            f"subsonic for slowness {np.max(slowness):g}"
        )
    return RetardedState(
        t_ret=tp, rvec=rvec, r=r, n=rvec / r[..., None], pc=pc, slowness=slowness,
        v=v, a=a[..., :dim], valid=valid, singular=singular,
    )


def _check_slowness(traj, slowness):
    k = np.asarray(slowness)
    if k.min() <= 0.0:
        raise ValueError("slowness must be positive")
    if k.max() * traj.vmax >= 1.0:
        raise SupersonicError(
            f"trajectory vmax={traj.vmax:g} is not subsonic for wave speed "
            f"{1.0 / k.max():g}"
        )


def retarded_time(
    traj: Trajectory,
    x,
    t,
    slowness,
    tol: float = DEFAULT_RETARDED_TOL,
    r_min: float = DEFAULT_R_MIN,
    dim: int = 3,
) -> RetardedState:
    """Solve t - t' - kappa |x - s(t')| = 0 for the unique subsonic root.

    ``slowness`` is one kappa or an array of them (n,); ``x`` is one
    observer (dim,) or one per row (n, dim), and ``t`` one time or one per
    row (n,). Every row runs in one array-wide bracketed Newton iteration
    with bisection fallback. A row stops once |f| <= tol * max(1, t - t')
    plus the rounding floor of f near t', then takes one final Newton
    increment. An array row whose root precedes the first knot of a
    bounded trajectory domain is masked (``valid`` False), and one whose
    observer sits within r_min of the worldline is flagged (``singular``);
    a scalar call raises NoRetardationError or SingularPointError instead.
    Raises RetardedConvergenceError when a row has not met the stop rule
    after the iteration budget, SupersonicError when kappa*vmax >= 1.
    """
    x = np.asarray(x, dtype=float)[..., :dim]
    t = np.asarray(t, dtype=float)
    k = np.asarray(slowness, dtype=float)
    scalar = k.ndim == 0 and t.ndim == 0 and x.ndim == 1
    k = np.broadcast_to(k, np.broadcast_shapes(k.shape, t.shape, x.shape[:-1])).reshape(-1)
    _check_slowness(traj, k)
    lo, hi, valid = _bracket(traj, x, t, k, dim)
    if scalar and not valid[0]:
        raise _no_retardation(float(t))
    # Stop rule, fixed per row from the bracket: tol * max(1, t - t') with
    # t - t' >= t - hi, plus the rounding floor of f = t - t' - kappa R,
    # which max(|t|, |lo|) bounds (every term is at most |t| + |t'|).
    stop = tol * np.maximum(1.0, t - hi) + 8.0 * _EPS * np.maximum(np.abs(t), np.abs(lo))
    tp = 0.5 * (lo + hi)
    done = ~valid
    # r = 0 (observer on the worldline) divides by zero; _finalize_state
    # reports it.
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_NEWTON_ITERATIONS):
            s, v, _ = traj.eval(tp)
            rv = x - s[:, :dim]
            r = np.sqrt(np.einsum("ni,ni->n", rv, rv))
            fval = t - tp - k * r
            pos = fval > 0.0
            lo = np.where(pos, tp, lo)
            hi = np.where(pos, hi, tp)
            t_new = tp + fval / (1.0 - k * np.einsum("ni,ni->n", v[:, :dim], rv) / r)
            conv = np.abs(fval) <= stop
            # A converged row takes one final Newton increment, which keeps
            # solver jitter at machine level; downstream adaptive quadrature
            # of smooth kappa-integrands relies on that. Other rows bisect
            # whenever Newton leaves the bracket.
            inside = (lo < t_new) & (t_new < hi)
            t_new = np.where(inside, t_new, np.where(conv, tp, 0.5 * (lo + hi)))
            tp = np.where(done, tp, t_new)
            done = done | conv
            if done.all():
                break
        else:
            t_bad = np.broadcast_to(t, k.shape)[~done][0]
            raise RetardedConvergenceError(
                f"retarded time for event (t={t_bad:g}) not converged after "
                f"{_NEWTON_ITERATIONS} steps at slowness {k[~done]}"
            )
    if scalar:
        return _finalize_state(traj, x, float(tp[0]), float(k[0]), r_min, dim)
    return _finalize_state(traj, x, tp, k, r_min, dim, valid)


def retarded_time_bisection(
    traj: Trajectory,
    x,
    t: float,
    slowness: float,
    r_min: float = DEFAULT_R_MIN,
    dim: int = 3,
) -> RetardedState:
    """Plain-bisection reference solver for the same root as retarded_time.

    Bisects the bracket down to 4 ulp of t'.
    """
    x = np.asarray(x, dtype=float)[:dim]
    _check_slowness(traj, slowness)
    lo, hi, valid = _bracket(traj, x, t, np.array([slowness], dtype=float), dim)
    if not valid[0]:
        raise _no_retardation(t)
    lo, hi = float(lo[0]), float(hi[0])
    for _ in range(200):
        if hi - lo <= 4.0 * _EPS * max(1.0, abs(lo), abs(hi)):
            break
        mid = 0.5 * (lo + hi)
        rvec = x - traj.eval(mid)[0][:dim]
        if t - mid - slowness * math.sqrt(float(rvec @ rvec)) > 0.0:
            lo = mid
        else:
            hi = mid
    return _finalize_state(traj, x, 0.5 * (lo + hi), slowness, r_min, dim)
