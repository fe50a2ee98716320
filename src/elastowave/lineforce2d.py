"""Elastodynamic fields of non-uniformly moving line forces (2D).

Line forces parallel to x3 radiate in the (x1, x2) plane. Unlike the 3D
point force, their displacements are genuine history integrals: every
instant of the motion since switch-on contributes, weighted by the
inverse square roots

    S_c(t')^2 = (t - t')^2 - R(t')^2 / c^2,   c = cT, cL,

which vanish at the retarded times. The integrands therefore carry an
integrable 1/sqrt singularity at the upper limit. Production quadrature
removes it exactly with the substitution t' = t_ret - w^2 over each whole
history segment, leaving smooth integrands for Gauss-Legendre panels.
One retarded solve gives the upper limits of every kernel, one row per
wave speed, and each segment ends at one of its rows. Every segment of
one evaluation is refined in one call of the quadrature engine, and
every history kernel works on node rows.

Anti-plane motion (force along x3) involves only the transversal kernel;
the in-plane components mix both wave speeds. The far history of the two
in-plane kernels cancels pointwise, so the evaluator integrates the
difference of the kernels on the shared interval instead of differencing
two large integrals.

Anti-plane distortion and velocity are assembled analytically by
differentiating the substituted history integral, which converts the
moving singular endpoint into a bounded boundary term at switch-on plus
a smooth integrand. The in-plane gradient and time derivative have no
published closed form; they are evaluated by Richardson-paired central
differences of the displacement with the step tied to the distance to
the nearest wavefront.

Every evaluator first raises the first ``motion_violations`` of its
source, among them an infinite switch-on.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import QuadratureError, SingularPointError, WavefrontProximityWarning
from .kinematics import (
    DEFAULT_R_MIN,
    DEFAULT_RETARDED_TOL,
    ForceProfile,
    Trajectory,
    motion_violations,
    retarded_time,
)
from .material import Material
from .quadrature import integrate_intervals
# Unused here, but the benchmark tracer (perfbench/tracer.py) patches it by name.
from .quadrature import adaptive_gauss_legendre  # noqa: F401

__all__ = [
    "FieldSample2D",
    "antiplane_displacement",
    "antiplane_fields",
    "inplane_displacement",
    "inplane_fields",
]

DEFAULT_HISTORY_TOL = 1e-8


@dataclass
class FieldSample2D:
    """Fields of one line-force evaluation.

    In-plane: u, v are 2-vectors and beta is 2x2. Anti-plane: u, v are
    the scalars u3, v3 and beta is the 2-vector beta_3alpha. ``fd_error``
    reports Richardson error estimates where derivatives were taken
    numerically.
    """

    u: np.ndarray | float
    beta: np.ndarray
    v: np.ndarray | float
    fd_error: dict | None = None


def _singular_ends(traj, prof, x, t, speeds, tol, r_min):
    """Upper history limits (retarded times in the plane) for ``speeds``.

    One retarded solve serves every speed, one row each. Returns it with
    the mask of live rows: a row is dead when its retarded time precedes
    the switch-on or the worldline, and then its kernel has no history.
    """
    st = retarded_time(traj, x, t, 1.0 / np.asarray(speeds), tol=tol, r_min=r_min, dim=2)
    if st.singular.any():
        raise SingularPointError(f"observer within r_min={r_min:g} of the source worldline")
    return st, st.valid & (st.t_ret > prof.t_on)


class _HistoryNodes(NamedTuple):
    """History geometry at the nodes t' = b - w^2 of a substituted segment."""

    tp: np.ndarray  # t'
    tbar: np.ndarray  # t - t'
    rvec: np.ndarray  # R = x - s(t'), (n, 2)
    r: np.ndarray  # |R|
    v: np.ndarray  # source velocity at t', (n, 2)
    s: np.ndarray  # root S of the kernel that is singular at b


def _history_nodes(traj, x, t, st, rows, w, r_min):
    """Geometry at t' = b - w^2 for nodes w (n,), checked against r_min.

    Node i ends at the retarded row ``rows[i]`` of ``st``: b = t_ret,
    kappa = slowness and s_b = x - R(b) there. S^2 = D * (tbar + kappa R)
    with D = tbar - kappa R; D is rebuilt from w^2 and the R-difference
    quotient so the two O(1) contributions that cancel at the endpoint
    never meet in floating point.
    """
    b, kappa = st.t_ret[rows], st.slowness[rows]
    s_b = x - st.rvec[rows]
    tp = b - w * w
    s, v, _ = traj.eval(tp)
    s_tp = s[:, :2]
    rvec = x - s_tp
    r = np.sqrt(np.einsum("ni,ni->n", rvec, rvec))
    if (r < r_min).any():
        raise SingularPointError("history passes through the observation point")
    num = np.einsum("ni,ni->n", s_b - s_tp, 2.0 * x - s_tp - s_b)
    d = w * w - kappa * num / (r + st.r[rows])
    tbar = (t - b) + w * w
    return _HistoryNodes(tp, tbar, rvec, r, v[:, :2], np.sqrt(d * (tbar + kappa * r)))


def _history_sums(traj, x, t, st, segments, rel_tol, r_min):
    """Integrals over the history segments of one evaluation, in one engine call.

    ``segments`` holds (a, row, kernel) triples: the segment [a, b] ends at
    b = st.t_ret[row], the retarded time of the row of ``st`` whose kernel
    is singular there. Each whole segment is mapped by t' = b - w^2,
    w in [0, sqrt(b - a)], which turns the inverse-square-root endpoint
    into a smooth integrand. ``kernel`` maps the _HistoryNodes of its own
    segment's nodes to values (n, m) per unit t'; the factor dt'/dw = 2w
    is applied here. Returns one row of m values per segment.
    """
    rows = np.array([row for _, row, _ in segments])
    w_max = np.sqrt(st.t_ret[rows] - np.array([a for a, _, _ in segments]))

    def integrand(w, owner):
        nodes = _history_nodes(traj, x, t, st, rows[owner], w, r_min)
        out = None
        for k, (_, _, kernel) in enumerate(segments):
            mine = owner == k
            if mine.any():
                val = kernel(_HistoryNodes(*(col[mine] for col in nodes)))
                if out is None:
                    out = np.empty((w.size, val.shape[1]))
                out[mine] = val
        return 2.0 * w[:, None] * out

    values, failed = integrate_intervals(integrand, np.zeros(w_max.size), w_max, rel_tol=rel_tol)
    if failed.any():
        raise QuadratureError("history integrand is not finite")
    return values


# ---------------------------------------------------------------------------
# anti-plane (force along x3)

def antiplane_displacement(
    mat: Material,
    traj: Trajectory,
    prof: ForceProfile,
    x,
    t: float,
    rel_tol: float = DEFAULT_HISTORY_TOL,
    tol_ret: float = DEFAULT_RETARDED_TOL,
    r_min: float = DEFAULT_R_MIN,
) -> float:
    """u3 of an anti-plane line force only: the transversal history integral."""
    for error, message in motion_violations(traj, prof, mat.cT, line=True):
        raise error(message)
    x = np.asarray(x, dtype=float)[:2]
    st, live = _singular_ends(traj, prof, x, t, [mat.cT], tol_ret, r_min)
    if not live[0]:
        return 0.0

    def kernel(g):
        return prof.eval(g.tp)[0][:, 2:] / g.s[:, None]

    (u3,) = _history_sums(traj, x, t, st, [(prof.t_on, 0, kernel)], rel_tol, r_min)
    return float(u3[0]) / (2.0 * math.pi * mat.rho * mat.cT ** 2)


def antiplane_fields(
    mat: Material,
    traj: Trajectory,
    prof: ForceProfile,
    x,
    t: float,
    rel_tol: float = DEFAULT_HISTORY_TOL,
    tol_ret: float = DEFAULT_RETARDED_TOL,
    r_min: float = DEFAULT_R_MIN,
) -> FieldSample2D:
    """u3, beta_3alpha and v3 of the anti-plane line force.

    One retarded solve and one engine call. The gradient and time
    derivative act on both the integrand and the moving singular limit.
    After the w-substitution the limit becomes a fixed endpoint: what
    remains is a bounded switch-on boundary term plus smooth integrals of
    the differentiated kernel.
    """
    for error, message in motion_violations(traj, prof, mat.cT, line=True):
        raise error(message)
    x = np.asarray(x, dtype=float)[:2]
    st, live = _singular_ends(traj, prof, x, t, [mat.cT], tol_ret, r_min)
    if not live[0]:
        return FieldSample2D(u=0.0, beta=np.zeros(2), v=0.0)
    kap = st.slowness[0]
    # Sensitivities of the retarded limit: dtT/dt = R/P, dtT/dx = -kap R_vec/P.
    dtup = np.concatenate([[st.r[0]], -kap * st.rvec[0]]) / st.pc[0]
    dtbar = np.array([1.0, 0.0, 0.0]) - dtup

    def kernel(g):
        # Columns u3, then d/dt, d/dx1, d/dx2 at fixed w. Each entry of
        # d(S^2) pairs a tbar shift against an R shift that cancel at w = 0.
        n = g.rvec / g.r[:, None]
        dr = np.pad(n, ((0, 0), (1, 0))) - np.einsum("ni,ni->n", n, g.v)[:, None] * dtup
        ds2 = 2.0 * g.tbar[:, None] * dtbar - 2.0 * kap * kap * g.r[:, None] * dr
        q, qd = prof.eval(g.tp)
        s = g.s[:, None]
        return np.hstack([q[:, 2:], qd[:, 2:] * dtup - 0.5 * q[:, 2:] * ds2 / (s * s)]) / s

    (total,) = _history_sums(traj, x, t, st, [(prof.t_on, 0, kernel)], rel_tol, r_min)
    # Boundary term of the derivatives at the switch-on node w = sqrt(b - t_on).
    w_on = np.array([math.sqrt(st.t_ret[0] - prof.t_on)])
    s_on = _history_nodes(traj, x, t, st, [0], w_on, r_min).s[0]
    total[1:] += prof.eval(prof.t_on)[0][2] * dtup / s_on
    total /= 2.0 * math.pi * mat.rho * mat.cT ** 2
    return FieldSample2D(u=float(total[0]), beta=total[2:], v=float(total[1]))


# ---------------------------------------------------------------------------
# in-plane (force in the x1-x2 plane)

def inplane_displacement(
    mat: Material,
    traj: Trajectory,
    prof: ForceProfile,
    x,
    t: float,
    rel_tol: float = DEFAULT_HISTORY_TOL,
    tol_ret: float = DEFAULT_RETARDED_TOL,
    r_min: float = DEFAULT_R_MIN,
) -> np.ndarray:
    """u_alpha of an in-plane line force: both history integrals of plane strain."""
    for error, message in motion_violations(traj, prof, mat.cT, line=True):
        raise error(message)
    x = np.asarray(x, dtype=float)[:2]
    # Row 0 ends the longitudinal history, row 1 the transversal one.
    st, live = _singular_ends(traj, prof, x, t, [mat.cL, mat.cT], tol_ret, r_min)
    if not live[0]:
        return np.zeros(2)
    kL2 = 1.0 / mat.cL ** 2

    def parts(g):
        # q, n (n.q) and the columns R^2, tbar^2, one row per node.
        q = prof.eval(g.tp)[0][:, :2]
        r2 = (g.r * g.r)[:, None]
        nn_q = np.einsum("ni,ni->n", g.rvec, q)[:, None] / r2 * g.rvec
        return q, nn_q, r2, (g.tbar ** 2)[:, None], g.s[:, None]

    def kernel_l(g):
        q, nn_q, r2, tb2, s = parts(g)
        return (nn_q * (tb2 / s) + (nn_q - q) * s) / r2

    def kernel_diff(g):
        # singular root is S_T; S_L stays bounded away from zero here
        q, nn_q, r2, tb2, s = parts(g)
        sl = np.sqrt(tb2 - r2 * kL2)
        lt = nn_q * (tb2 / sl) + (nn_q - q) * sl
        tt = nn_q * s + (nn_q - q) * (tb2 / s)
        return (lt - tt) / r2

    if not live[1]:
        segments = [(prof.t_on, 0, kernel_l)]
    else:
        # Shared interval: the far history of the two kernels cancels
        # pointwise, so integrate their difference.
        segments = [(prof.t_on, 1, kernel_diff), (st.t_ret[1], 0, kernel_l)]
    total = _history_sums(traj, x, t, st, segments, rel_tol, r_min).sum(axis=0)
    return total / (2.0 * math.pi * mat.rho)


def _arrival_times(traj, prof, x, c_list):
    """Wavefront passage times at x from switch-on and switch-off within traj.domain."""
    arrivals = []
    for t_edge in (prof.t_on, prof.t_off):
        if not (math.isfinite(t_edge) and traj.domain[0] <= t_edge <= traj.domain[1]):
            continue
        s, _, _ = traj.eval(t_edge)
        r = float(np.linalg.norm(np.asarray(x, float)[:2] - s[:2]))
        arrivals.extend(t_edge + r / c for c in c_list)
    return arrivals


def _fd_step(mat, traj, prof, x, t):
    """Time step for in-plane differencing, kept clear of wavefronts."""
    scale = max(t - prof.t_on, 1.0)
    h = 1e-3 * scale
    arrivals = _arrival_times(traj, prof, x, (mat.cL, mat.cT))
    if arrivals:
        dist = min(abs(t - ta) for ta in arrivals)
        floor = 1e-5 * scale
        if dist / 8.0 < floor:
            warnings.warn(
                f"observation time {t:g} is within {dist:g} of a wavefront; "
                "finite-difference step floored",
                WavefrontProximityWarning,
                stacklevel=3,
            )
            return floor
        h = min(h, dist / 8.0)
    return h


def _richardson_d1(g, h):
    """6th-order first derivative from the (h, h/2) Richardson pair."""

    def central(hh):
        return (g(-2 * hh) - 8 * g(-hh) + 8 * g(hh) - g(2 * hh)) / (12 * hh)

    d_h = central(h)
    d_half = central(0.5 * h)
    value = (16.0 * d_half - d_h) / 15.0
    return value, float(np.max(np.abs(d_half - d_h)))


def inplane_fields(
    mat: Material,
    traj: Trajectory,
    prof: ForceProfile,
    x,
    t: float,
    rel_tol: float = DEFAULT_HISTORY_TOL,
    tol_ret: float = DEFAULT_RETARDED_TOL,
    r_min: float = DEFAULT_R_MIN,
) -> FieldSample2D:
    """Displacement plus FD-differentiated distortion and velocity."""
    x = np.asarray(x, dtype=float)[:2]

    def u_of(xx, tt):
        return inplane_displacement(
            mat, traj, prof, xx, tt, rel_tol=rel_tol, tol_ret=tol_ret, r_min=r_min
        )

    u = u_of(x, t)  # raises the first motion_violations
    h_t = _fd_step(mat, traj, prof, x, t)
    h_x = mat.cT * h_t
    beta = np.zeros((2, 2))
    errs = {}
    for gamma in range(2):
        e = np.zeros(2)
        e[gamma] = 1.0
        col, err = _richardson_d1(lambda s_: u_of(x + s_ * e, t), h_x)
        beta[:, gamma] = col
        errs[f"beta_d{gamma + 1}"] = err
    v, err_v = _richardson_d1(lambda s_: u_of(x, t + s_), h_t)
    errs["v"] = err_v
    return FieldSample2D(u=u, beta=beta, v=v, fd_error=errs)
