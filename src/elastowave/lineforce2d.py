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

Rates are taken by one mechanism for both line forces: the history
integral is differentiated under the integral at fixed w, so the rate
integrands are extra columns of the u segments, refined together with u
in the same engine call. The lower limit of a segment [a, b] sits at
w = sqrt(b - a), which moves, so each segment adds a bounded end term:
d(b - a) times the kernel at a, the switch-on (fixed) or t_T (where the L
segment starts). The d(S^2)/S^2 of the singular root is formed from the
same differences, so the rates converge at history tolerances down to
1e-13 on moving sources. ``antiplane_fields`` takes u3, its distortion
and its velocity this way, and is the one anti-plane evaluator; the
in-plane velocity is taken this way too. Only the in-plane gradient is
still evaluated by Richardson-paired central differences of the
displacement, with the step tied to the distance to the nearest
wavefront, from the switch-on, the switch-off or a knot of the worldline:
``inplane_fields`` takes its centre and the six offsets along
each of x1 and x2 from one ``inplane_displacement`` call: one retarded
solve, and one engine call per point, the centre's carrying its du/dt.

Every evaluator first raises the first ``motion_violations`` of its
source, among them an infinite switch-on.
"""

from __future__ import annotations

import functools
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
    _past_the_end,
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
    holds the Richardson error estimates of the derivatives taken
    numerically: ``beta_d1`` and ``beta_d2``, the in-plane distortion's
    columns (None for the anti-plane fields, all analytic).
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
    history. Raises ExtrapolationError before any integration when a
    retarded time lies past the end of a bounded worldline (``late``): the
    history up to it is not known.
    """
    st = retarded_time(traj, x, t, slowness, tol=tol, dim=2)
    if st.late.any():
        raise _past_the_end(traj, np.broadcast_to(t, st.late.shape)[st.late.argmax()])
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


def _history_sums(traj, t, st, rows, w_hi, kernel, rel_tol):
    """Integrals over the history segments of one evaluation, in one engine call.

    Segment k ends at the retarded row ``rows[k]`` of ``st``, whose root S
    is singular at its retarded time b. Segments are given in w, where
    t' = b - w^2: the whole segment [a, b] is w in [0, sqrt(b - a)],
    which turns the inverse-square-root endpoint into a smooth integrand,
    and segment k is [0, w_hi[k]]. The one ``kernel`` maps the
    _HistoryNodes of every segment's nodes at once, with the segment index
    of each node, to values (n, m) per unit t', telling the segments apart
    by their ``kappa``; the factor dt'/dw = 2w is applied here. Returns one
    row of m values per segment.
    """

    def integrand(w, owner):
        return 2.0 * w[:, None] * kernel(_history_nodes(traj, t, st, rows[owner], w), owner)

    values, failed = integrate_intervals(integrand, np.zeros(rows.size), w_hi, rel_tol=rel_tol)
    if failed.any():
        raise QuadratureError("history integrand is not finite")
    return values


def _dlog_s2(g, st, rows, db):
    """d(S^2)/S^2 of the singular root at nodes g, one column per direction.

    Node i ends at the retarded row ``rows[i]`` of ``st``, and ``db`` (n, k)
    holds db/d. of that end b along the first k of the directions t, x1,
    x2. At fixed w, t' = b - w^2 moves with b, and S^2 = D E with
    D = tbar - kappa r and E = tbar + kappa r, so d(S^2)/S^2 = dD/D + dE/E.
    dD vanishes at w = 0; the root identity (1, -kappa n_b) =
    db (1 - kappa n_b . V_b) writes it through history differences only,
    dD = kappa [(0, dn) - db (dn . V_b + n . dv)] with dn = n_b - n.
    """
    k = db.shape[1]
    rvec_b, r_b, v_b = st.rvec[rows], st.r[rows], st.v[rows]
    n = g.rvec / g.r[:, None]
    dn = (rvec_b * g.dr[:, None] - r_b[:, None] * g.ds) / (g.r * r_b)[:, None]
    dn_v = np.einsum("ni,ni->n", dn, v_b) + np.einsum("ni,ni->n", n, g.dv)
    # dD/kappa, dr and dtbar: the t column, then one per x_j (dx_j/dx_j = 1).
    d_d = -dn_v[:, None] * db
    d_d[:, 1:] += dn[:, :k - 1]
    d_r = -np.einsum("ni,ni->n", n, g.v)[:, None] * db
    d_r[:, 1:] += n[:, :k - 1]
    dtbar = -db
    dtbar[:, 0] += 1.0
    kap = g.kappa[:, None]
    return kap * d_d / g.d[:, None] + (dtbar + kap * d_r) / (g.tbar + g.kappa * g.r)[:, None]


def _value_and_rates(traj, prof, t, st, rows, a, k, kernel, rel_tol):
    """A history integral and its rates along t (and x1, x2), in one engine call.

    Segment j is [a[j], b_j], with b_j the retarded time of row ``rows[j]``.
    ``kernel(g, q)`` maps nodes g and forces Q (n, 3) to the values u (n, c)
    per unit t' and a function ``rate(qd, db, lam)`` of Qdot, db/d. and
    ``_dlog_s2`` at the nodes, which gives the k blocks of u differentiated
    at fixed w, (n, k c). They are extra columns of the u segments, so u is
    refined together with its rates. Each segment adds the Leibniz end term
    (db_j/d. - da_j/d.) times u at a_j, where db/dt = R/P and
    db/dx = -kappa R/P; a_j is the switch-on (da = 0) or b_(j-1).
    Returns u (c,) and its rates (k, c), summed over the segments.
    """
    db = (np.column_stack([st.r[rows], -st.slowness[rows, None] * st.rvec[rows]])
          / st.pc[rows, None])[:, :k]
    w_max = np.sqrt(st.t_ret[rows] - a)

    def integrand(g, owner):
        q, qd = prof.eval(g.tp)
        u, rate = kernel(g, q)
        db_n = db[owner]
        return np.hstack([u, rate(qd, db_n, _dlog_s2(g, st, rows[owner], db_n))])

    total = _history_sums(traj, t, st, rows, w_max, integrand, rel_tol).sum(axis=0)
    # Q is taken at a itself: the node b - (sqrt(b - a))^2 may round below
    # the switch-on.
    ends = kernel(_history_nodes(traj, t, st, rows, w_max), prof.eval(a)[0])[0]
    if not np.isfinite(ends).all():
        raise QuadratureError("history kernel is not finite at a segment end")
    c = ends.shape[1]
    da = np.vstack([np.zeros((1, k)), db[:-1]])
    return total[:c], total[c:].reshape(k, c) + (db - da).T @ ends


# ---------------------------------------------------------------------------
# anti-plane (force along x3)

def _antiplane_kernel(g, q):
    """u3 (n, 1) per unit t' and its rates: Q/S_T, differentiated at fixed w."""
    q, s = q[:, 2:], g.s[:, None]
    return q / s, lambda qd, db, lam: (qd[:, 2:] * db - 0.5 * q * lam) / s


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
    remains is a bounded switch-on end term plus smooth integrals of the
    differentiated kernel.
    """
    for error, message in motion_violations(traj, prof, mat.cT, line=True):
        raise error(message)
    x = np.asarray(x, dtype=float)[:2]
    st, live = _singular_ends(traj, prof, x, t, [1.0 / mat.cT], tol_ret)
    if not live[0]:
        return FieldSample2D(u=0.0, beta=np.zeros(2), v=0.0)
    u, rates = _value_and_rates(traj, prof, t, st, np.array([0]), np.array([prof.t_on]), 3,
                                _antiplane_kernel, rel_tol)
    scale = 2.0 * math.pi * mat.rho * mat.cT ** 2
    return FieldSample2D(u=float(u[0] / scale), beta=rates[1:, 0] / scale,
                         v=float(rates[0, 0] / scale))


# ---------------------------------------------------------------------------
# in-plane (force in the x1-x2 plane)

def _inplane_kernel(g, q, kT, kL2):
    """The in-plane history kernel u (n, 2) per unit t' at nodes g, and its rate along t."""
    q = q[:, :2]
    # A segment ending at the T root integrates the L kernel minus the
    # T kernel: their far history cancels pointwise, and S_L stays
    # bounded away from zero there. The L segment integrates the L
    # kernel alone, with S_L its singular root s; S_L is formed only
    # on T rows, since on the L segment it cancels to about 0.
    r2 = (g.r * g.r)[:, None]
    rq = np.einsum("ni,ni->n", g.rvec, q)[:, None]
    nn_q = rq / r2 * g.rvec
    nn_q_q = nn_q - q
    tbar, s = g.tbar[:, None], g.s[:, None]
    tb2 = tbar ** 2
    on_t = (g.kappa == kT)[:, None]
    sl = np.where(on_t, np.sqrt(np.maximum(tb2 - r2 * kL2, 0.0)), s)
    tt = np.where(on_t, nn_q * s + nn_q_q * (tb2 / s), 0.0)
    u = (nn_q * (tb2 / sl) + nn_q_q * sl - tt) / r2

    def rate(qd, db, lam):
        # r^2 u = nn_q X + (nn_q - q) Y, X = tbar^2/S_L - S_T and
        # Y = S_L - tbar^2/S_T (no S_T terms on L rows). At fixed w,
        # t' = b - w^2 moves with b: dtbar = 1 - db/dt, dR = -V db/dt
        # and dQ = Qdot db/dt. lam is d(S^2)/S^2 of the singular root;
        # S_L on T rows is bounded away from zero and differentiated
        # directly.
        qd = qd[:, :2]
        rv = np.einsum("ni,ni->n", g.rvec, g.v)[:, None]
        dtbar = 1.0 - db
        lam_l = np.where(on_t, 2.0 * (tbar * dtbar + kL2 * db * rv) / (sl * sl), lam)
        dtb2 = 2.0 * dtbar / tbar  # d(tbar^2)/tbar^2
        pl, pt, hl, hs = tb2 / sl, tb2 / s, 0.5 * lam_l, 0.5 * lam
        y = sl - np.where(on_t, pt, 0.0)
        dx = pl * (dtb2 - hl) - np.where(on_t, s * hs, 0.0)
        dy = sl * hl - np.where(on_t, pt * (dtb2 - hs), 0.0)
        xy = pl + y - np.where(on_t, s, 0.0)
        rho = 2.0 * db * rv / r2  # d(r^-2)/r^-2
        d_rq = db * (np.einsum("ni,ni->n", g.rvec, qd) - np.einsum("ni,ni->n", g.v, q))[:, None]
        d_nn_q = (d_rq * g.rvec - db * rq * g.v) / r2 + rho * nn_q
        return (d_nn_q * xy + nn_q * (dx + dy) - q * dy - qd * (db * y)) / r2 + rho * u

    return u, rate


@dataclass
class _FirstPointRate:
    """A force profile that also asks ``inplane_displacement`` for du/dt.

    Passed as ``prof``, it makes the call integrate its first point with
    ``_value_and_rates``, from the shared retarded solve: du/dt (2,) as
    extra columns of that point's u segments, plus the end terms. The rate
    is left in ``du``. ``inplane_fields`` takes its centre's velocity this
    way, in the one displacement call of its evaluation, without a keyword
    on the public signature.
    """

    prof: ForceProfile
    du: np.ndarray | None = None


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
    rates = prof if isinstance(prof, _FirstPointRate) else None
    if rates is not None:
        prof = rates.prof
    for error, message in motion_violations(traj, prof, mat.cT, line=True):
        raise error(message)
    x = np.asarray(x, dtype=float)[..., :2]
    t = np.asarray(t, dtype=float)
    shape = np.broadcast_shapes(x.shape[:-1], t.shape)
    xs = np.broadcast_to(x, shape + (2,)).reshape(-1, 2)
    ts = np.broadcast_to(t, shape).reshape(-1)
    kT, kL2 = 1.0 / mat.cT, 1.0 / mat.cL ** 2
    # Row 2i ends the longitudinal history of point i, row 2i + 1 the transversal one.
    st, live = _singular_ends(traj, prof, np.repeat(xs, 2, axis=0), np.repeat(ts, 2),
                              np.tile([1.0 / mat.cL, kT], ts.size), tol_ret)

    inplane = functools.partial(_inplane_kernel, kT=kT, kL2=kL2)

    def kernel(g, _owner):
        return inplane(g, prof.eval(g.tp)[0])[0]

    u, du = np.zeros((ts.size, 2)), np.zeros((1, 2))
    for i in np.flatnonzero(live[0::2]):
        # Behind the S front the T segment [t_on, t_T] comes first and the
        # L segment starts where it ends.
        rows = np.array([2 * i + 1, 2 * i] if live[2 * i + 1] else [2 * i])
        a = np.append(prof.t_on, st.t_ret[rows[:-1]])
        if i == 0 and rates is not None:
            u[0], du = _value_and_rates(traj, prof, ts[0], st, rows, a, 1, inplane, rel_tol)
        else:
            u[i] = _history_sums(traj, ts[i], st, rows, np.sqrt(st.t_ret[rows] - a), kernel,
                                 rel_tol).sum(axis=0)
    if rates is not None:
        rates.du = du[0] / (2.0 * math.pi * mat.rho)
    return (u / (2.0 * math.pi * mat.rho)).reshape(shape + (2,))


def _arrival_times(traj, prof, x, c_list):
    """Wavefront passage times at x from every break of the source within traj.domain.

    The breaks are the switch-on, the switch-off and the knots of the
    worldline while the force acts: a derivative of s jumps at a knot,
    which sends out weak fronts across which the fields are not smooth.
    """
    knots = [t_k for t_k in traj.knots if prof.t_on < t_k < prof.t_off]
    t_b = np.array([prof.t_on, prof.t_off] + knots)
    t_b = t_b[np.isfinite(t_b) & (traj.domain[0] <= t_b) & (t_b <= traj.domain[1])]
    r = np.linalg.norm(np.asarray(x, float)[:2] - traj.eval(t_b)[0][:, :2], axis=1)
    return np.concatenate([t_b + r / c for c in c_list])


def _fd_step(mat, traj, prof, x, t):
    """Time scale of the in-plane difference step, kept clear of wavefronts."""
    scale = max(t - prof.t_on, 1.0)
    h = 1e-3 * scale
    arrivals = _arrival_times(traj, prof, x, (mat.cL, mat.cT))
    if arrivals.size:
        dist = float(np.abs(t - arrivals).min())
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


# Offsets of the Richardson pair, in units of its step h: central(h) takes
# +-2h and +-h, central(h/2) takes +-h and +-h/2, and 2 * (h/2) == h exactly.
_STENCIL = np.array([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])


def _richardson_d1(vals, h):
    """6th-order first derivatives and their pair spreads from values at h * _STENCIL.

    ``vals`` carries the six offsets on its second-to-last axis.
    """
    lo2, lo1, lo_half, hi_half, hi1, hi2 = np.moveaxis(vals, -2, 0)
    d_h = (lo2 - 8.0 * lo1 + 8.0 * hi1 - hi2) / (12.0 * h)
    d_half = (lo1 - 8.0 * lo_half + 8.0 * hi_half - hi1) / (12.0 * (0.5 * h))
    return (16.0 * d_half - d_h) / 15.0, np.abs(d_half - d_h)


def inplane_fields(
    mat: Material,
    traj: Trajectory,
    prof: ForceProfile,
    x,
    t: float,
    rel_tol: float = DEFAULT_HISTORY_TOL,
    tol_ret: float = DEFAULT_RETARDED_TOL,
) -> FieldSample2D:
    """Displacement and analytic velocity, plus FD-differentiated distortion.

    The centre and the six offsets of the stencil along each of x1 and x2
    are 13 points of one ``inplane_displacement`` call. The centre's
    engine call integrates du/dt as extra columns of its u segments, so
    its u is refined together with its velocity; the Richardson pairs of
    the distortion read the offsets' values from that table.
    """
    for error, message in motion_violations(traj, prof, mat.cT, line=True):
        raise error(message)
    x = np.asarray(x, dtype=float)[:2]
    h = mat.cT * _fd_step(mat, traj, prof, x, t)
    xs = np.array([x] + [x + s * e for e in np.eye(2) for s in h * _STENCIL])
    rates = _FirstPointRate(prof)
    # A call of the module-level name, which the benchmark tracer wraps.
    u = inplane_displacement(mat, traj, rates, xs, t, rel_tol=rel_tol, tol_ret=tol_ret)
    d, spread = _richardson_d1(u[1:].reshape(2, _STENCIL.size, 2), h)  # d[k] = d_k u
    errs = {f"beta_d{k + 1}": float(np.max(e)) for k, e in enumerate(spread)}
    return FieldSample2D(u=u[0], beta=d.T, v=rates.du, fd_error=errs)
