"""Exact elastodynamic fields of a non-uniformly moving subsonic point force.

The displacement of a point force Q(t) moving along s(t) through an
unbounded isotropic medium is a superposition of three retarded
contributions: a transversal term propagating at cT, a longitudinal term
at cL, and an intermediate term integrated over slowness kappa between
1/cL and 1/cT. Each carries a Doppler denominator P = R - kappa (V . R)
evaluated at its own retarded time. Distortion (beta_ik = d_k u_i) and
particle velocity (v_i = d_t u_i) follow by exact differentiation of the
retarded geometry; no numerical differentiation appears in the production
path.

The distortion and velocity split naturally into a part driven by the
force rate Qdot, a part driven by the source acceleration Vdot (the
radiation part, decaying as 1/R), and a velocity-only remainder (the
near field, 1/R^2). ``lw_fields`` returns that decomposition as
``beta_parts`` and ``v_parts``.

``lw_fields_batch`` evaluates many events in one pass: the far channels
of all events are one retarded solve, and their slowness integrals are
refined together, so the per-call cost of the solver and the kernel is
shared by every event. The retarded time falls as the slowness rises, from
t_L at 1/cL to t_T at 1/cT, and kappa(t') = (t - t')/R(t') is explicit.
So an event whose window no break of the force's support cuts, whose far
roots both lie on the worldline, and which holds no knot of the worldline
between them, integrates over t' in [t_T, t_L] instead, with weight
P_c/R^2 (dkappa/dt' = -P_c/R^2): one trajectory evaluation per node and
no solve. The engine probes it with the (7, 15) Gauss-Kronrod pair.
The other events keep the slowness nodes, each solved inside its event's
two far-channel roots from a start interpolated between them. The
force's support cuts that window: Q vanishes before t_on (and after
t_off), and t_ret(kappa) = t_on exactly at kappa_on = (t - t_on)/|x -
s(t_on)|, so inside the P-S shell the nodes above kappa_on (below
kappa_off) are exact zeros and are not solved. The others solve inside
[t_on, t_L], from a start interpolated between (kL, t_L) and the anchor
(kappa_on, t_on). A cut window takes the (10, 21) pair, whose outer
nodes sit nearer the break, and an uncut one that stays in slowness (a
knot between its far roots, or a masked far root) the (7, 15) pair.
ROADMAP item 2 moves those events to retarded time too, split at the
breaks and knots, once the stored benchmark rows they change are
regenerated; then ``_node_states``, ``_windows``, ``_break`` and
``_slowness_terms`` go. ``lw_fields`` is the one-event call. The
far-channel solve also decides the ends of a bounded worldline: an
event is late when its L root, the later one, lies past the last knot
(``RetardedState.late``). A late event takes no slowness integral; it is
masked in a batch and raises in ``lw_fields``. One channel kernel gives
every quantity at each retarded row; the displacement alone is
``lw_fields(...).u``.

Every evaluation first raises the first ``motion_violations`` of its
source. Accuracy stays within the requested tolerance up to 0.999 cT,
where the fields still meet their closed-form oracle
(``verify.check_uniform_motion_oracle``). Seen from ahead of a
near-sonic source, the history of a time-varying force spans hundreds of
force periods, and near 1/cT one ulp of kappa moves t_ret by 2-4e-11,
so such a window does not converge in slowness. Over retarded time those periods are evenly spread: a
window that integrates there converges, and a sinusoid ahead of a
0.999 cT source takes about 4,200 nodes and sits within 5e-11 of the
closed form.

Static-source limits reduce to the classical time-dependent concentrated
force solution (``stokes_*``) and, for constant strength, to the static
concentrated-force solution (``kelvin_*``); both closed forms live here
and double as oracles for the moving-source evaluator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureError, SingularPointError
from .kinematics import (
    DEFAULT_RETARDED_TOL,
    R_MIN,
    ForceProfile,
    Trajectory,
    _bracket,
    _dot,
    _finalize_state,
    _newton,
    _past_the_end,
    motion_violations,
    retarded_time,
)
from .material import Material
from .quadrature import adaptive_gauss_legendre, integrate_intervals

__all__ = [
    "FieldSample",
    "lw_fields",
    "lw_fields_batch",
    "stokes_displacement",
    "stokes_gradient",
    "stokes_gradient_split",
    "kelvin_displacement",
    "kelvin_gradient",
]

_I3 = np.eye(3)

DEFAULT_SLOWNESS_TOL = 1e-10
# The static closed forms are oracles, so their slowness moment is tighter.
_STATIC_TOL = 1e-12


@dataclass
class FieldSample:
    """Fields at one observation event (from ``lw_fields_batch``: at many,
    every array with a leading event axis).

    ``beta_parts``/``v_parts`` hold the {vel, acc, qdot} decomposition;
    the parts sum to the totals within quadrature tolerance.
    """

    u: np.ndarray
    beta: np.ndarray
    v: np.ndarray
    beta_parts: dict
    v_parts: dict


# ---------------------------------------------------------------------------
# channel kernels
#
# Each retarded row is characterized by (p, G, m): an overall prefactor p,
# a projector Gq = ga q + gb n (n.q) acting on the force, and a sign
# multiplier m for the purely geometric gradient terms. The channel
# slowness k is the slowness whose root the row's retarded time is.
#   transversal:   p = kT^2,  Gq = q - n (n.q),      m = +1
#   longitudinal:  p = kL^2,  Gq = n (n.q),          m = -1
#   intermediate:  p = kappa, Gq = 3 n (n.q) - q,    m = -3
# (p = kappa P / R^2 on a node in retarded time: the Jacobian dkappa/dt').
# p, ga, gb and m are scalars or one value per row.
#
# The kernels compute on component rows (3, n): the transposes of the
# state's row vectors and of the force. Every 3x3 block is a sum of rank-1
# products a (x) b, entry [i, j] = a[i] * b[j], plus a multiple of I,
# written into one (39, n) block whose transpose is the (n, 39) result:
#   b_qdot = Gqd (x) (p k / P^2) R
#   b_acc  = Gq (x) (p k^2 (A.R) / P^3) R
#   b_vel  = Gq (x) w1 + V (x) w2 + R (x) w3 + s I, with c = p m / (R^2 P),
#            s = c (R.q), w1 = (p / P^3) ((1 - k^2 V.V) R - k P V),
#            w2 = (s k / P) R, w3 = c q + (c / P) (k V.q - 2 (R.q) / R) R
# The velocity parts are rows of the same block:
#   v_qdot = (p R / P^2) Gqd,  v_acc = (p k R (A.R) / P^3) Gq,
#   v_vel  = (p (V.R - k R V.V) / P^3) Gq + cv (R.q) V
#            + cv (V.q - 2 (V.R)(R.q) / R^2) R, with cv = p m / (R P^2)

_FAR_GA = np.array([1.0, 0.0])
_FAR_GB = np.array([-1.0, 1.0])
_FAR_M = np.array([1.0, -1.0])
_MID_GA, _MID_GB, _MID_M = -1.0, 3.0, -3.0
_WIDTH = 39


def _project(n, ga, gb, vec, out):
    """Channel projection G vec = ga vec + gb n (n.vec) of component rows (3, n), into ``out``."""
    np.multiply(ga, vec, out=out)
    out += (gb * _dot(n, vec)) * n


def _field_terms(st, prof, p, ga, gb, m):
    """All field components of each row, in the 39-wide layout of lw_fields.

    The rows are written into one (39, rows) block, whose transpose is
    returned. Gq and Gqd are formed in the u and v_qdot rows of that block
    and scaled there once the terms that take them unscaled are written;
    every other temporary holds at most three components per row.
    """
    k, r, pc = st.slowness, st.r, st.pc
    rv, n, v, a = st.rvec.T, st.n.T, st.v.T, st.a.T
    out = np.empty((_WIDTH, r.size))
    gq, gqd, v_vel, v_acc = out[0:3], out[30:33], out[33:36], out[36:39]
    b_qdot, b_vel, b_acc = out[3:30].reshape(3, 3, 3, -1)
    # Masked rows, whose root lies outside the worldline, carry no force.
    # ``eval`` returns new arrays, so they are masked in place.
    q, qd = (c.T for c in prof.eval(st.t_ret))
    q *= st.valid
    qd *= st.valid
    _project(n, ga, gb, qd, gqd)
    del qd
    _project(n, ga, gb, q, gq)
    pc2 = pc * pc
    pc3 = pc2 * pc
    np.multiply(gqd[:, None], ((p * k / pc2) * rv)[None], out=b_qdot)
    gqd *= p * r / pc2  # v_qdot
    ar = _dot(a, rv)
    np.multiply(gq[:, None], ((p * k * k * ar / pc3) * rv)[None], out=b_acc)
    np.multiply(p * k * r * ar / pc3, gq, out=v_acc)
    del ar
    rq, vq, vr, vv = _dot(rv, q), _dot(v, q), _dot(v, rv), _dot(v, v)
    r2 = r * r
    pm = p * m
    cv = pm / (r * pc2)
    np.multiply(p * (vr - k * r * vv) / pc3, gq, out=v_vel)
    v_vel += (cv * rq) * v
    v_vel += (cv * (vq - 2.0 * vr * rq / r2)) * rv
    del vr, cv

    c = pm / (r2 * pc)
    s = c * rq
    w = (1.0 - k * k * vv) * rv  # w1, then w3
    w -= (k * pc) * v
    w *= p / pc3
    np.multiply(gq[:, None], w[None], out=b_vel)
    w2 = (s * k / pc) * rv
    for i in range(3):  # row by row: an outer product would hold nine rows
        b_vel[i] += v[i] * w2
    del w2
    np.multiply(c, q, out=w)
    w += ((c / pc) * (k * vq - 2.0 * rq / r)) * rv
    for i in range(3):
        b_vel[i] += rv[i] * w
    out[12:21:4] += s  # the diagonal of b_vel
    gq *= p / pc  # u
    return out.T


def _far_roots(st, n):
    """Each event's t_T, t_L and slopes dt_ret/dkappa = -R^2/P_c at them, (n, 4).

    ``st`` holds the far rows of n events, transversal then longitudinal
    per event. A root and its slope are NaN unless its row is valid and
    not singular.
    """
    ok = st.valid & ~st.singular
    roots = np.empty((n, 4))
    roots[:, :2] = np.where(ok, st.t_ret, np.nan).reshape(n, 2)
    with np.errstate(divide="ignore", invalid="ignore"):  # masked rows may have R = 0
        roots[:, 2:] = np.where(ok, -st.r ** 2 / st.pc, np.nan).reshape(n, 2)
    return roots


def _break(traj, xc, ts, t_b):
    """Each event's break slowness kappa_b = (t - t_b)/|x - s(t_b)|, with t_b and the slope.

    t_ret(kappa_b) = t_b, and t_ret falls as kappa rises, so a node above
    kappa_b retards to before t_b and a node below it to after t_b.
    Returns (kappa_b, t_b, -R^2/P_c at t_b), kappa_b and the slope (n,)
    each, from one trajectory evaluation at t_b; None when t_b is infinite
    or outside ``traj.domain``. ``xc`` (3, n) holds the observers'
    components. An event whose observer sits at s(t_b) has no break (NaN).
    """
    if not (math.isfinite(t_b) and traj.domain[0] <= t_b <= traj.domain[1]):
        return None
    s, v, _ = traj.eval(t_b)
    rv = xc - s[:, None]
    r = np.sqrt(_dot(rv, rv))
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.where(r > 0.0, (ts - t_b) / r, np.nan)
        return k, t_b, -r * r / (r - k * _dot(v, rv))


def _windows(roots, kL, kT, on, off):
    """Each event's slowness window and the anchors of its Newton starts, (6, n).

    Rows k_a, k_b, t_a, t_b, m_a, m_b: Q can be nonzero only at nodes
    k_a <= kappa <= k_b, whose roots lie in [t_b, t_a], with slopes
    dt_ret/dkappa m_a at k_a and m_b at k_b. Uncut, the window is [kL, kT]
    anchored at the far roots t_L and t_T (``roots`` from ``_far_roots``,
    NaN where a far row is masked). Q vanishes before t_on, so the
    switch-on break ``on`` (from ``_break``) lowers k_b to kappa_on when
    kappa_on < kT; inside (kL, kT) it also moves anchor b to (kappa_on,
    t_on), which lies in the worldline's domain even where t_T precedes
    it. The switch-off break ``off`` raises k_a to kappa_off and moves
    anchor a to (kappa_off, t_off) likewise.
    """
    win = np.empty((6, len(roots)))
    win[0], win[1] = kL, kT
    win[2:] = roots.T[[1, 0, 3, 2]]
    for brk, end, inner in ((off, 0, np.fmax), (on, 1, np.fmin)):
        if brk is not None:
            k, t_b, m = brk
            win[end] = inner(k, win[end])  # a NaN break leaves the end as it is
            anchor = (kL < k) & (k < kT)
            win[2 + end, anchor] = t_b
            win[4 + end, anchor] = m[anchor]
    return win


def _node_states(traj, xc, ts, kappas, win, tol_ret):
    """Retarded states of slowness nodes: row i is kappas[i] of event (xc[:, i], ts[i]).

    ``xc`` (3, m) holds each row's observer components, and ``win``
    (6, m) its event's window from ``_windows``: the ends k_a < k_b,
    their roots t_a >= t_b and slopes m_a, m_b, or NaN where a far row is
    masked. t_ret falls as kappa rises, so a row with both roots solves
    inside [t_b, t_a], starting from the cubic Hermite interpolant through
    (k_a, t_a) and (k_b, t_b), clipped into the bracket. The other rows
    take ``_bracket`` and its midpoint. From ``_retarded_sums`` few do: a
    masked T root means t_T < domain[0] <= t_on, which puts kappa_on
    inside (kL, kT) and anchors the window at (kappa_on, t_on), and a
    masked L root makes the window empty (late events take no nodes at
    all). That fallback stays for rounding at kappa_on ~ kT, where the
    anchor does not move, and for an observer exactly at s(t_on), whose
    break is NaN. Each row is chosen and solved on its own, so its result
    does not depend on the rows that share the call.
    """
    k_a, k_b, t_a, t_b, m_a, m_b = win
    h = k_b - k_a
    s = (kappas - k_a) / h  # 0 at k_a, 1 at k_b
    c2 = 3.0 * (t_b - t_a) - h * (2.0 * m_a + m_b)
    c3 = 2.0 * (t_a - t_b) + h * (m_a + m_b)
    lo, hi = t_b.copy(), t_a.copy()
    start = np.minimum(np.maximum(t_a + s * (h * m_a + s * (c2 + s * c3)), lo), hi)
    valid = np.ones(kappas.size, dtype=bool)
    own = np.isnan(t_a) | np.isnan(t_b)
    if own.any():
        lo[own], hi[own], valid[own], _ = _bracket(traj, xc[:, own], ts[own], kappas[own])
        start[own] = 0.5 * (lo[own] + hi[own])
    tp = _newton(traj, xc, ts, kappas, lo, hi, start, valid, tol_ret)
    return _finalize_state(traj, xc, tp, kappas, valid)


def _slowness_terms(traj, prof, xc, ts, win, ev, kappas, tol_ret):
    """Intermediate-channel terms of slowness nodes: node i is kappas[i] of event ev[i].

    The observer components ``xc`` (3, n), ``ts`` and ``win`` (from
    ``_windows``) are per event; one ``np.take`` gathers each. A node
    outside its event's window retards to where Q vanishes: its row is
    exactly zero and it is not solved. A call that cuts no node solves
    them all in place. Either way the terms are the transpose of one
    (39, n) block, so a row's bits do not depend on the nodes that share
    its call. Returns the terms (n, 39) and the events of singular nodes.
    """
    n = kappas.size
    w = np.take(win, ev, axis=1)
    keep = (w[0] <= kappas) & (kappas <= w[1])
    cut = not keep.all()
    if cut:
        keep = np.flatnonzero(keep)
        ev, kappas, w = ev[keep], kappas[keep], np.take(w, keep, axis=1)
    st = _node_states(traj, np.take(xc, ev, axis=1), ts[ev], kappas, w, tol_ret)
    del w
    terms = _field_terms(st, prof, kappas, _MID_GA, _MID_GB, _MID_M)
    hit = ev[st.singular]
    if cut:
        # The states go before the zero-filled block is made: the call then
        # holds the kept terms and that block, and nothing of the kernel's.
        del st
        out = np.zeros((_WIDTH, n))
        out[:, keep] = terms.T
        terms = out.T
    return terms, hit


def _retarded_sums(mat, traj, prof, xs, ts, rel_tol, tol_ret):
    """Sum ``_field_terms`` over the two far channels and the slowness integral, per event.

    ``xs`` (n, 3) and ``ts`` (n,) are the observation events. The
    transversal and longitudinal channels of all events share one 2n-row
    ``retarded_time`` call, which also flags the events whose L root lies
    past the end of a bounded worldline (``late``). The slowness
    integrals of the other events are refined together by
    ``integrate_intervals``, in three engine calls. The first takes the
    events whose window no break cuts, whose far roots are both valid and
    which hold no ``Trajectory.knots`` entry between them: it integrates
    over t' in [t_T, t_L], one trajectory evaluation per node and no
    solve (``_finalize_state`` at kappa = (t - t')/R), with 15-node
    probes. The other two stay in slowness, where the far roots bracket
    the root of every node: the integrand solves each batch of nodes
    inside those brackets and evaluates it in one call
    (``_slowness_terms``). One probes the remaining uncut windows with 15
    nodes, one the cut windows with 21. Nodes past a break of the force's
    support (``_windows``) are exact zeros and are not solved. A bounded
    force (``ForceProfile.scale``) gives each event's integral an absolute
    error floor, the size scale kT^2 / R_T of its far-T term, so a window
    that holds only a pulse's far tail converges. Returns the sums
    (n, width), the mask of events whose observer lies on the worldline
    (those leave the refinement at once) and the mask of late events
    (those take no slowness integral); the sums of both are NaN. Raises
    the first violation of ``motion_violations``.
    """
    for error, message in motion_violations(traj, prof, mat.cT, line=False):
        raise error(message)
    xs = np.asarray(xs, dtype=float).reshape(-1, 3)
    ts = np.asarray(ts, dtype=float).reshape(-1)
    n = ts.size
    kL, kT = 1.0 / mat.cL, 1.0 / mat.cT
    xc = np.ascontiguousarray(xs.T)
    far = np.tile([kT, kL], n)
    st = retarded_time(traj, np.repeat(xs, 2, axis=0), np.repeat(ts, 2), far, tol_ret)
    rows = _field_terms(st, prof, far * far, np.tile(_FAR_GA, n), np.tile(_FAR_GB, n),
                        np.tile(_FAR_M, n))
    total = rows.reshape(n, 2, rows.shape[1]).sum(axis=1)
    del rows
    singular = st.singular.reshape(n, 2).any(axis=1)
    # The L root is the later one: an event is late when its L row is.
    late = st.late[1::2]
    on_worldline = np.zeros(n, dtype=bool)  # events with a singular slowness node
    win = _windows(_far_roots(st, n), kL, kT, _break(traj, xc, ts, prof.t_on),
                   _break(traj, xc, ts, prof.t_off))
    # A break inside (kL, kT) cuts the window: its event keeps the qk21
    # probe, whose outer nodes sit nearer the break.
    cut = ((kL < win[:2]) & (win[:2] < kT)).any(axis=0)
    # An uncut, nonempty window is all of [kL, kT]. With both far roots and
    # no knot between them, its integrand is smooth in t' on [t_T, t_L].
    t_T, t_L = st.t_ret[::2], st.t_ret[1::2]
    knots = np.asarray(traj.knots)
    live = ~singular & ~late
    timed = (live & ~cut & (win[0] < win[1]) & st.valid.reshape(n, 2).all(axis=1)
             & (np.searchsorted(knots, t_L) == np.searchsorted(knots, t_T, side="right")))

    def kappa_terms(kappas, ev):
        return _slowness_terms(traj, prof, xc, ts, win, ev, kappas, tol_ret)

    def time_terms(tp, ev):
        # dkappa = (P_c/R^2) dt' joins the prefactor p = kappa.
        node = _finalize_state(traj, np.take(xc, ev, axis=1), tp, None, t=ts[ev])
        p = node.slowness * node.pc / (node.r * node.r)
        return _field_terms(node, prof, p, _MID_GA, _MID_GB, _MID_M), ev[node.singular]

    floor = None if prof.scale is None else prof.scale * kT * kT / st.r[::2]  # T rows
    del st  # the far rows' geometry is not needed while the nodes refine
    for order, events, lo, hi, terms in (
            (15, timed, t_T, t_L, time_terms),
            (15, live & ~cut & ~timed, kL, kT, kappa_terms),
            (21, live & cut, kL, kT, kappa_terms)):
        events = np.flatnonzero(events)
        if not events.size:
            continue

        def integrand(nodes, owner):
            # A singular row has NaN geometry and therefore NaN terms, which
            # takes its event out of the refinement.
            values, hit = terms(nodes, events[owner])
            on_worldline[hit] = True
            return values

        mid, failed = integrate_intervals(
            integrand, np.broadcast_to(lo, n)[events], np.broadcast_to(hi, n)[events],
            rel_tol=rel_tol, order=order, scale=None if floor is None else floor[events],
        )
        if (failed & ~on_worldline[events]).any():
            raise QuadratureError("slowness integrand is not finite off the worldline")
        total[events] += mid
        singular[events[failed]] = True
    total[singular | late] = np.nan
    return total, singular, late


def _field_sample(acc, rho):
    """FieldSample from sums in the 39-wide layout; leading axes are kept."""
    # Vector layout: u(3) | b_qdot(9) | b_vel(9) | b_acc(9) | v_qdot(3) | v_vel(3) | v_acc(3)
    pref = 1.0 / (4.0 * math.pi * rho)
    mat3 = acc.shape[:-1] + (3, 3)
    beta_parts = {
        "qdot": -pref * acc[..., 3:12].reshape(mat3),
        "vel": -pref * acc[..., 12:21].reshape(mat3),
        "acc": -pref * acc[..., 21:30].reshape(mat3),
    }
    v_parts = {
        "qdot": pref * acc[..., 30:33],
        "vel": pref * acc[..., 33:36],
        "acc": pref * acc[..., 36:39],
    }
    return FieldSample(
        u=pref * acc[..., 0:3],
        beta=beta_parts["qdot"] + beta_parts["vel"] + beta_parts["acc"],
        v=v_parts["qdot"] + v_parts["vel"] + v_parts["acc"],
        beta_parts=beta_parts,
        v_parts=v_parts,
    )


def lw_fields(
    mat: Material,
    traj: Trajectory,
    prof: ForceProfile,
    x,
    t: float,
    rel_tol: float = DEFAULT_SLOWNESS_TOL,
    tol_ret: float = DEFAULT_RETARDED_TOL,
) -> FieldSample:
    """Displacement, distortion and velocity of the moving point force.

    Every returned quantity comes from the same integrand evaluations:
    the retarded time of each slowness node, or the slowness of each
    retarded-time node on a break-free window, is found once and shared.
    Events the force has not yet influenced give exactly zero.
    The one-event call of ``lw_fields_batch``; raises SingularPointError
    for an observer on the worldline, and ExtrapolationError for an event
    whose retarded times reach past the end of a bounded worldline.
    """
    acc, singular, late = _retarded_sums(mat, traj, prof, [x], [t], rel_tol, tol_ret)
    if late[0]:
        raise _past_the_end(traj, t)
    if singular[0]:
        raise SingularPointError(
            f"observer within R_MIN={R_MIN:g} of the source worldline at t={t:g}"
        )
    return _field_sample(acc[0], mat.rho)


def lw_fields_batch(
    mat: Material,
    traj: Trajectory,
    prof: ForceProfile,
    xs,
    ts,
    rel_tol: float = DEFAULT_SLOWNESS_TOL,
    tol_ret: float = DEFAULT_RETARDED_TOL,
) -> tuple[FieldSample, np.ndarray]:
    """``lw_fields`` at every event (xs[i], ts[i]) in one batched evaluation.

    ``xs`` is (n, 3) and ``ts`` (n,). Returns a FieldSample whose arrays
    carry a leading event axis, and the boolean mask of events whose
    observer lies within R_MIN of the worldline, or whose retarded times
    reach past the end of a bounded worldline: their fields are NaN
    instead of raising.
    """
    acc, singular, late = _retarded_sums(mat, traj, prof, xs, ts, rel_tol, tol_ret)
    return _field_sample(acc, mat.rho), singular | late


# ---------------------------------------------------------------------------
# static-source closed forms

def stokes_displacement(mat: Material, prof: ForceProfile, rvec, t: float) -> np.ndarray:
    """Displacement of a fixed concentrated force with time-dependent strength."""
    rv, r, n = _static_geometry(rvec)
    kL, kT = 1.0 / mat.cL, 1.0 / mat.cT
    qT, _ = prof.eval(t - r * kT)
    qL, _ = prof.eval(t - r * kL)
    iq = _kappa_moment(prof, t, r, kL, kT)
    u = (
        kT * kT * (qT - float(n @ qT) * n)
        + kL * kL * float(n @ qL) * n
        + 3.0 * float(n @ iq) * n
        - iq
    )
    return u / (4.0 * math.pi * mat.rho * r)


def stokes_gradient(mat, prof, rvec, t) -> np.ndarray:
    """Displacement gradient of the fixed concentrated force."""
    parts = stokes_gradient_split(mat, prof, rvec, t)
    return parts["q"] + parts["qdot"]


def stokes_gradient_split(mat, prof, rvec, t, parts=("q", "qdot")) -> dict:
    """Gradient split into strength-driven (1/R^2) and rate-driven (1/R) parts.

    Only the strength part needs the slowness moment integral. Far out it
    cannot be taken: at R = 1e4 and 1e5 the window of an omega = 2
    sinusoid spans thousands of force periods, and the integral raises
    QuadratureError. ``parts=("qdot",)`` skips it, so far-field scans of
    the rate part still evaluate.
    """
    rv, r, n = _static_geometry(rvec)
    kL, kT = 1.0 / mat.cL, 1.0 / mat.cT
    qT, qdT = prof.eval(t - r * kT)
    qL, qdL = prof.eval(t - r * kL)
    nn = np.outer(n, n)
    r2 = r * r
    pref = -1.0 / (4.0 * math.pi * mat.rho)

    def sym3(vec):
        return np.outer(vec, n) + np.outer(n, vec) + float(n @ vec) * _I3

    out = {}
    if "q" in parts:
        iq = _kappa_moment(prof, t, r, kL, kT)
        qdiff = kL * kL * qL - kT * kT * qT
        term1 = (3.0 / r2) * (5.0 * float(n @ iq) * nn - sym3(iq))
        term2 = (1.0 / r2) * (6.0 * float(n @ qdiff) * nn - sym3(qdiff))
        term3_q = (kT * kT / r2) * np.outer(qT, n)
        out["q"] = pref * (term1 + term2 + term3_q)
    if "qdot" in parts:
        term3_qd = (kT ** 3 / r) * np.outer(qdT, n)
        term4 = (float(n @ (kL ** 3 * qdL - kT ** 3 * qdT)) / r) * nn
        out["qdot"] = pref * (term3_qd + term4)
    return out


def kelvin_displacement(mat: Material, q, rvec) -> np.ndarray:
    """Displacement of a static concentrated force of constant strength."""
    q = np.asarray(q, dtype=float)
    rv, r, n = _static_geometry(rvec)
    pref = 1.0 / (16.0 * math.pi * mat.mu * (1.0 - mat.nu) * r)
    return pref * ((3.0 - 4.0 * mat.nu) * q + float(n @ q) * n)


def kelvin_gradient(mat: Material, q, rvec) -> np.ndarray:
    """Displacement gradient of the static concentrated force."""
    q = np.asarray(q, dtype=float)
    rv, r, n = _static_geometry(rvec)
    pref = -1.0 / (16.0 * math.pi * mat.mu * (1.0 - mat.nu) * r * r)
    return pref * (
        (3.0 - 4.0 * mat.nu) * np.outer(q, n)
        - np.outer(n, q)
        - float(n @ q) * _I3
        + 3.0 * float(n @ q) * np.outer(n, n)
    )


def _static_geometry(rvec):
    rv = np.asarray(rvec, dtype=float)
    r = float(np.linalg.norm(rv))
    if r < R_MIN:
        raise SingularPointError(f"field point within R_MIN={R_MIN:g} of the force")
    return rv, r, rv / r


def _kappa_moment(prof, t, r, kL, kT):
    """integral of kappa * Q(t - kappa r) over the slowness interval.

    Q(t - kappa r) vanishes past kappa_on = (t - t_on)/r and kappa_off =
    (t - t_off)/r, so a jump of Q at t_on or t_off is an endpoint. A
    bounded force floors the error at its size scale |Q| kT (kT - kL), as
    in ``lw_fields``, so a window that holds only a pulse's far tail
    converges.
    """
    def f(kappas):
        return kappas[:, None] * prof.eval(t - kappas * r)[0]

    lo = max(kL, (t - prof.t_off) / r)
    hi = min(kT, (t - prof.t_on) / r)
    scale = None if prof.scale is None else prof.scale * kT * (kT - kL)
    return adaptive_gauss_legendre(f, lo, hi, rel_tol=_STATIC_TOL, scale=scale)
