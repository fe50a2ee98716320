"""Elastodynamic fields of non-uniformly moving line forces (2D).

Line forces parallel to x3 radiate in the (x1, x2) plane. Unlike the 3D
point force, their displacements are genuine history integrals: every
instant of the motion since switch-on contributes, weighted by the
inverse square roots

    S_c(t')^2 = (t - t')^2 - R(t')^2 / c^2,   c = cT, cL,

which vanish at the retarded times. The integrands therefore carry an
integrable 1/sqrt singularity at the upper limit. Production quadrature
removes it exactly with the substitution t' = t_ret - w^2 over each whole
history segment, leaving smooth integrands: the engine's first panel, one
21-node Gauss-Kronrod rule over the whole segment, usually meets the
history tolerance, and only a segment it rejects is bisected into
Gauss-Legendre panels.
One retarded solve gives the upper limits, one row per wave speed, and
each segment ends at one of its rows. Every segment of one evaluation is
refined in one call of the quadrature engine, with one kernel: it takes
the node rows of all segments at once and tells them apart by the
slowness kappa of the row each segment ends at. Every node is built
from the trajectory's history differences (``Trajectory._diff``), so
R(t') = R(b) + (s(b) - s(t')) and V(t') = V(b) - (V(b) - V(t')), where b
is the retarded time ending the segment: no absolute position at t' is
ever subtracted, and the roots S keep their relative accuracy as w -> 0.

Anti-plane motion (force along x3) involves only the transversal kernel;
the in-plane components mix both wave speeds. The far history of the
longitudinal and transversal terms cancels pointwise, so the in-plane
kernel integrates their difference on the shared interval [t_on, t_T]
instead of differencing two large integrals, and the longitudinal term
alone on [t_T, t_L]; it evaluates Q once for the nodes of both.

Anti-plane distortion and velocity are assembled analytically by
differentiating the substituted history integral, which converts the
moving singular endpoint into a bounded boundary term at switch-on plus
a smooth integrand. Its d(S^2)/S^2 is formed from the same differences,
so ``antiplane_fields`` converges at history tolerances down to 1e-13 on
moving sources and is the one anti-plane evaluator. The in-plane
gradient and time derivative have no published closed form; they are
evaluated by Richardson-paired central differences of the displacement
with the step tied to the distance to the nearest wavefront. The 19
distinct points of those stencils (the centre and six offsets along each
of x1, x2 and t) share one retarded solve: ``inplane_displacement`` takes
arrays of points, and each point's history still takes its own engine
call.

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
    DEFAULT_RETARDED_TOL,
    R_MIN,
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


def _singular_ends(traj, prof, x, t, slowness, tol):
    """Upper history limits (retarded times in the plane), one row per slowness.

    ``x``, ``t`` and ``slowness`` are one value or one per row, as in
    ``retarded_time``: every row of every point shares one solve. Returns it
    with the mask of live rows: a row is dead when its retarded time
    precedes the switch-on or the worldline, and then its kernel has no
    history.
    """
    st = retarded_time(traj, x, t, slowness, tol=tol, dim=2)
    if st.singular.any():
        raise SingularPointError(f"observer within R_MIN={R_MIN:g} of the source worldline")
    return st, st.valid & (st.t_ret > prof.t_on)


class _HistoryNodes(NamedTuple):
    """History geometry at the nodes t' = b - w^2 of the substituted segments."""

    tp: np.ndarray  # t'
    tbar: np.ndarray  # t - t'
    kappa: np.ndarray  # slowness of the row the node's segment ends at
    rvec: np.ndarray  # R = x - s(t'), (n, 2)
    r: np.ndarray  # |R|
    v: np.ndarray  # source velocity at t', (n, 2)
    ds: np.ndarray  # s(b) - s(t'), (n, 2)
    dv: np.ndarray  # V(b) - V(t'), (n, 2)
    dr: np.ndarray  # |R| - |R(b)|
    d: np.ndarray  # D = tbar - kappa |R|
    s: np.ndarray  # root S of the kernel that is singular at b


def _history_nodes(traj, t, st, rows, w):
    """Geometry at t' = b - w^2 for nodes w (n,), checked against R_MIN.

    Node i ends at the retarded row ``rows[i]`` of ``st``: b = t_ret,
    kappa = slowness and R_b = R(b) there. Every node is built from the
    trajectory's history differences (``Trajectory._diff``), never from
    absolute positions at t': R = R_b + ds and V(t') = V(b) - dv.
    S^2 = D * (tbar + kappa R) with D = tbar - kappa R; at the root
    t - b = kappa |R_b|, so D = w^2 - kappa (|R| - |R_b|), and
    |R| - |R_b| = ds . (2 R_b + ds) / (|R| + |R_b|): the O(1) parts that
    cancel at the endpoint never meet in floating point.
    """
    b, kappa, rvec_b, r_b = st.t_ret[rows], st.slowness[rows], st.rvec[rows], st.r[rows]
    h = w * w
    ds, dv = (c[:2].T for c in traj._diff(b, h))
    rvec = rvec_b + ds
    r = np.sqrt(np.einsum("ni,ni->n", rvec, rvec))
    if (r < R_MIN).any():
        raise SingularPointError("history passes through the observation point")
    dr = np.einsum("ni,ni->n", ds, 2.0 * rvec_b + ds) / (r + r_b)
    d = h - kappa * dr
    tbar = (t - b) + h
    s = np.sqrt(d * (tbar + kappa * r))
    return _HistoryNodes(b - h, tbar, kappa, rvec, r, st.v[rows] - dv, ds, dv, dr, d, s)


def _history_sums(traj, t, st, a, rows, kernel, rel_tol):
    """Integrals over the history segments of one evaluation, in one engine call.

    Segment k is [a[k], b] with b = st.t_ret[rows[k]], the retarded time
    of the row of ``st`` whose root S is singular there. Each whole
    segment is mapped by t' = b - w^2, w in [0, sqrt(b - a[k])], which
    turns the inverse-square-root endpoint into a smooth integrand. The one
    ``kernel`` maps the _HistoryNodes of every segment's nodes at once to
    values (n, m) per unit t', telling the segments apart by their
    ``kappa``; the factor dt'/dw = 2w is applied here. Returns one row of
    m values per segment.
    """
    w_max = np.sqrt(st.t_ret[rows] - a)

    def integrand(w, owner):
        return 2.0 * w[:, None] * kernel(_history_nodes(traj, t, st, rows[owner], w))

    values, failed = integrate_intervals(integrand, np.zeros(w_max.size), w_max, rel_tol=rel_tol)
    if failed.any():
        raise QuadratureError("history integrand is not finite")
    return values


# ---------------------------------------------------------------------------
# anti-plane (force along x3)

def antiplane_fields(
    mat: Material,
    traj: Trajectory,
    prof: ForceProfile,
    x,
    t: float,
    rel_tol: float = DEFAULT_HISTORY_TOL,
    tol_ret: float = DEFAULT_RETARDED_TOL,
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
    st, live = _singular_ends(traj, prof, x, t, [1.0 / mat.cT], tol_ret)
    if not live[0]:
        return FieldSample2D(u=0.0, beta=np.zeros(2), v=0.0)
    kap, rvec_b, r_b, v_b = st.slowness[0], st.rvec[0], st.r[0], st.v[0]
    # Sensitivities of the retarded limit: dtT/dt = R/P, dtT/dx = -kap R_vec/P.
    dtup = np.concatenate([[r_b], -kap * rvec_b]) / st.pc[0]
    dtbar = np.array([1.0, 0.0, 0.0]) - dtup

    def kernel(g):
        # Columns u3, then d/dt, d/dx1, d/dx2 at fixed w, with
        # d(S^2)/S^2 = dD/D + dE/E and E = tbar + kap r. dD vanishes at
        # w = 0; the root identity (1, -kap n_b) = dtup (1 - kap n_b . V_b)
        # writes it through differences only, with dn = n_b - n.
        n = g.rvec / g.r[:, None]
        dn = (rvec_b * g.dr[:, None] - r_b * g.ds) / (g.r * r_b)[:, None]
        dn_v = dn @ v_b + np.einsum("ni,ni->n", n, g.dv)
        d_d = np.pad(dn, ((0, 0), (1, 0))) - dn_v[:, None] * dtup
        d_r = np.pad(n, ((0, 0), (1, 0))) - np.einsum("ni,ni->n", n, g.v)[:, None] * dtup
        dlog_s2 = kap * d_d / g.d[:, None] + (dtbar + kap * d_r) / (g.tbar + kap * g.r)[:, None]
        q, qd = prof.eval(g.tp)
        return np.hstack([q[:, 2:], qd[:, 2:] * dtup - 0.5 * q[:, 2:] * dlog_s2]) / g.s[:, None]

    (total,) = _history_sums(traj, t, st, np.array([prof.t_on]), np.array([0]), kernel, rel_tol)
    # Boundary term of the derivatives at the switch-on node w = sqrt(b - t_on).
    w_on = np.array([math.sqrt(st.t_ret[0] - prof.t_on)])
    s_on = _history_nodes(traj, t, st, [0], w_on).s[0]
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
    t,
    rel_tol: float = DEFAULT_HISTORY_TOL,
    tol_ret: float = DEFAULT_RETARDED_TOL,
) -> np.ndarray:
    """u_alpha of an in-plane line force: both history integrals of plane strain.

    ``x`` is one observer (2,) or one per point (p, 2), and ``t`` one time
    or one per point (p,); returns u (2,) or (p, 2). The longitudinal and
    transversal ends of every point share one retarded solve; each point's
    history segments then take one engine call, as a one-point call does,
    so a point's u does not depend on the points it is batched with.
    """
    for error, message in motion_violations(traj, prof, mat.cT, line=True):
        raise error(message)
    x = np.asarray(x, dtype=float)[..., :2]
    t = np.asarray(t, dtype=float)
    shape = np.broadcast_shapes(x.shape[:-1], t.shape)
    xs = np.broadcast_to(x, shape + (2,)).reshape(-1, 2)
    ts = np.broadcast_to(t, shape).reshape(-1)
    kL, kT = 1.0 / mat.cL, 1.0 / mat.cT
    # Row 2i ends the longitudinal history of point i, row 2i + 1 the transversal one.
    st, live = _singular_ends(traj, prof, np.repeat(xs, 2, axis=0), np.repeat(ts, 2),
                              np.tile([kL, kT], ts.size), tol_ret)
    kL2 = 1.0 / mat.cL ** 2

    def kernel(g):
        # A segment ending at the T root integrates the L kernel minus the
        # T kernel: their far history cancels pointwise, and S_L stays
        # bounded away from zero there. The L segment integrates the L
        # kernel alone, with S_L its singular root s; S_L is formed only
        # on T rows, since on the L segment it cancels to about 0.
        q = prof.eval(g.tp)[0][:, :2]
        r2 = (g.r * g.r)[:, None]
        nn_q = np.einsum("ni,ni->n", g.rvec, q)[:, None] / r2 * g.rvec
        tb2, s = (g.tbar ** 2)[:, None], g.s[:, None]
        on_t = g.kappa == kT
        sl = s.copy()
        sl[on_t] = np.sqrt(tb2[on_t] - r2[on_t] * kL2)
        tt = np.where(on_t[:, None], nn_q * s + (nn_q - q) * (tb2 / s), 0.0)
        return (nn_q * (tb2 / sl) + (nn_q - q) * sl - tt) / r2

    u = np.zeros((ts.size, 2))
    for i in np.flatnonzero(live[0::2]):
        # Behind the S front the T segment [t_on, t_T] comes first and the
        # L segment starts where it ends.
        rows = np.array([2 * i + 1, 2 * i] if live[2 * i + 1] else [2 * i])
        a = np.append(prof.t_on, st.t_ret[rows[:-1]])
        u[i] = _history_sums(traj, ts[i], st, a, rows, kernel, rel_tol).sum(axis=0)
    return (u / (2.0 * math.pi * mat.rho)).reshape(shape + (2,))


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


# Offsets at which ``_richardson_d1`` evaluates g, in units of its step h:
# central(h) takes +-2h and +-h, central(h/2) takes +-h and +-h/2, and
# 2 * (h/2) == h exactly, so the two share +-h.
_STENCIL = np.array([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])


def inplane_fields(
    mat: Material,
    traj: Trajectory,
    prof: ForceProfile,
    x,
    t: float,
    rel_tol: float = DEFAULT_HISTORY_TOL,
    tol_ret: float = DEFAULT_RETARDED_TOL,
) -> FieldSample2D:
    """Displacement plus FD-differentiated distortion and velocity.

    The centre and the six offsets of the stencil along each of x1, x2 and
    t are 19 points of one ``inplane_displacement`` call; the Richardson
    pairs read their values from that table.
    """
    for error, message in motion_violations(traj, prof, mat.cT, line=True):
        raise error(message)
    x = np.asarray(x, dtype=float)[:2]
    h_t = _fd_step(mat, traj, prof, x, t)
    steps = (mat.cT * h_t, mat.cT * h_t, h_t)  # along x1, x2 and t
    offsets = [h * _STENCIL for h in steps]
    n, e = _STENCIL.size, np.eye(2)
    xs = [x] + [x + s * e[k] for k in range(2) for s in offsets[k]] + [x] * n
    ts = [t] * (1 + 2 * n) + [t + s for s in offsets[2]]
    # A call of the module-level name, which the benchmark tracer wraps.
    u = inplane_displacement(
        mat, traj, prof, np.array(xs), np.array(ts), rel_tol=rel_tol, tol_ret=tol_ret
    )
    derivs, errs = [], {}
    for name, h, offs, values in zip(("beta_d1", "beta_d2", "v"), steps, offsets,
                                     u[1:].reshape(3, n, 2)):
        value, errs[name] = _richardson_d1(dict(zip(offs, values)).__getitem__, h)
        derivs.append(value)
    return FieldSample2D(u=u[0], beta=np.column_stack(derivs[:2]), v=derivs[2], fd_error=errs)
