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
shared by every event. The retarded time falls as the slowness rises, so
each slowness node solves inside its event's two far-channel roots, from
a start interpolated between them. ``lw_fields`` is its one-event call.
One channel kernel gives every quantity at each retarded row; the
displacement alone is ``lw_fields(...).u``.

Every evaluation first raises the first ``motion_violations`` of its
source. Accuracy stays within the requested tolerance up to 0.999 cT,
where the fields still meet their closed-form and finite-difference oracles.

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
    DEFAULT_R_MIN,
    DEFAULT_RETARDED_TOL,
    ForceProfile,
    Trajectory,
    _bracket,
    _dot,
    _finalize_state,
    _newton,
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
# slowness k is the slowness of the row's retarded solve.
#   transversal:   p = kT^2,  Gq = q - n (n.q),      m = +1
#   longitudinal:  p = kL^2,  Gq = n (n.q),          m = -1
#   intermediate:  p = kappa, Gq = 3 n (n.q) - q,    m = -3
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


def _project(n, ga, gb, vec):
    """Channel projection G vec = ga vec + gb n (n.vec) of component rows (3, n)."""
    return ga * vec + (gb * _dot(n, vec)) * n


def _field_terms(st, prof, p, ga, gb, m):
    """All field components of each row, in the 39-wide layout of lw_fields."""
    # Rows whose root precedes the worldline carry no force.
    q, qd = (c.T * st.valid for c in prof.eval(st.t_ret))
    k, r, pc = st.slowness, st.r, st.pc
    rv, n, v, a = st.rvec.T, st.n.T, st.v.T, st.a.T
    gq, gqd = _project(n, ga, gb, q), _project(n, ga, gb, qd)
    rq, vq, vr, ar, vv = _dot(rv, q), _dot(v, q), _dot(v, rv), _dot(a, rv), _dot(v, v)
    pc2 = pc * pc
    pc3 = pc2 * pc
    r2 = r * r
    pm = p * m

    out = np.empty((39, r.size))
    b_qdot, b_vel, b_acc = out[3:30].reshape(3, 3, 3, -1)
    np.multiply(gqd[:, None], ((p * k / pc2) * rv)[None], out=b_qdot)
    np.multiply(gq[:, None], ((p * k * k * ar / pc3) * rv)[None], out=b_acc)
    c = pm / (r2 * pc)
    s = c * rq
    w1 = (p / pc3) * ((1.0 - k * k * vv) * rv - (k * pc) * v)
    w3 = c * q + ((c / pc) * (k * vq - 2.0 * rq / r)) * rv
    np.multiply(gq[:, None], w1[None], out=b_vel)
    b_vel += v[:, None] * ((s * k / pc) * rv)[None]
    b_vel += rv[:, None] * w3[None]
    out[12:21:4] += s  # the diagonal of b_vel

    out[0:3] = (p / pc) * gq
    out[30:33] = (p * r / pc2) * gqd
    cv = pm / (r * pc2)
    out[33:36] = ((p * (vr - k * r * vv) / pc3) * gq + (cv * rq) * v
                  + (cv * (vq - 2.0 * vr * rq / r2)) * rv)
    out[36:39] = (p * k * r * ar / pc3) * gq
    return out.T


def _far_roots(st, n):
    """Each event's t_T, t_L and slopes dt_ret/dkappa = -R^2/P_c at them, (n, 4).

    ``st`` holds the far rows of n events, transversal then longitudinal
    per event. An event lacks far roots (NaN) unless both rows are valid
    and not singular.
    """
    roots = np.full((n, 4), np.nan)
    both = (st.valid & ~st.singular).reshape(n, 2).all(axis=1)
    pair = np.repeat(both, 2)
    roots[both, :2] = st.t_ret[pair].reshape(-1, 2)
    roots[both, 2:] = (-st.r[pair] ** 2 / st.pc[pair]).reshape(-1, 2)
    return roots


def _node_states(traj, xs, ts, kappas, far, kL, kT, tol_ret, r_min):
    """Retarded states of slowness nodes: row i is kappas[i] of event (xs[i], ts[i]).

    ``far`` (m, 4) holds each row's event's far-channel roots t_T, t_L
    and their slopes dt_ret/dkappa = -R^2/P_c, or NaN where the event
    lacks two valid far rows. t_ret falls as kappa rises, so a row with
    far roots solves inside [t_T, t_L], starting from the cubic Hermite
    interpolant through (kL, t_L) and (kT, t_T), clipped into the
    bracket. The other rows, such as those whose root may precede the
    first knot of a bounded worldline, take ``_bracket`` and its midpoint.
    Each row is chosen and solved on its own, so its result does not
    depend on the rows that share the call.
    """
    xc = np.ascontiguousarray(xs.T)
    t_T, t_L, m_T, m_L = far.T
    h = kT - kL
    s = (kappas - kL) / h  # 0 at kL, 1 at kT
    c2 = 3.0 * (t_T - t_L) - h * (2.0 * m_L + m_T)
    c3 = 2.0 * (t_L - t_T) + h * (m_L + m_T)
    lo, hi = t_T.copy(), t_L.copy()
    start = np.minimum(np.maximum(t_L + s * (h * m_L + s * (c2 + s * c3)), lo), hi)
    valid = np.ones(kappas.size, dtype=bool)
    own = np.isnan(t_T)
    if own.any():
        lo[own], hi[own], valid[own] = _bracket(traj, xc[:, own], ts[own], kappas[own])
        start[own] = 0.5 * (lo[own] + hi[own])
    tp = _newton(traj, xc, ts, kappas, lo, hi, start, valid, tol_ret)
    return _finalize_state(traj, xc, tp, kappas, r_min, valid)


def _retarded_sums(mat, traj, prof, xs, ts, rel_tol, tol_ret, r_min):
    """Sum ``_field_terms`` over the two far channels and the slowness integral, per event.

    ``xs`` (n, 3) and ``ts`` (n,) are the observation events. The
    transversal and longitudinal channels of all events share one 2n-row
    ``retarded_time`` call. Their roots bracket the root of every
    slowness node of the event, and the n slowness integrals are refined
    together by ``integrate_intervals``, whose integrand solves each batch
    of nodes inside those brackets (``_node_states``) and evaluates it in
    one call. Returns the sums (n, width) and the mask of events whose
    observer lies on the worldline; those leave the refinement at once
    and their sums are NaN. Raises the first violation of
    ``motion_violations``.
    """
    for error, message in motion_violations(traj, prof, mat.cT, line=False):
        raise error(message)
    xs = np.asarray(xs, dtype=float).reshape(-1, 3)
    ts = np.asarray(ts, dtype=float).reshape(-1)
    n = ts.size
    kL, kT = 1.0 / mat.cL, 1.0 / mat.cT

    far = np.tile([kT, kL], n)
    st = retarded_time(traj, np.repeat(xs, 2, axis=0), np.repeat(ts, 2), far, tol_ret, r_min)
    rows = _field_terms(st, prof, far * far, np.tile(_FAR_GA, n), np.tile(_FAR_GB, n),
                        np.tile(_FAR_M, n))
    total = rows.reshape(n, 2, rows.shape[1]).sum(axis=1)
    singular = st.singular.reshape(n, 2).any(axis=1)
    live = np.flatnonzero(~singular)
    on_worldline = np.zeros(n, dtype=bool)  # events with a singular slowness node
    roots = _far_roots(st, n)

    def integrand(kappas, owner):
        # A singular row has NaN geometry and therefore NaN terms, which
        # takes its event out of the refinement.
        ev = live[owner]
        st = _node_states(traj, xs[ev], ts[ev], kappas, roots[ev], kL, kT, tol_ret, r_min)
        on_worldline[ev[st.singular]] = True
        return _field_terms(st, prof, kappas, _MID_GA, _MID_GB, _MID_M)

    if live.size:
        mid, failed = integrate_intervals(
            integrand, np.full(live.size, kL), np.full(live.size, kT), rel_tol=rel_tol
        )
        if (failed & ~on_worldline[live]).any():
            raise QuadratureError("slowness integrand is not finite off the worldline")
        total[live] += mid
        singular[live[failed]] = True
    total[singular] = np.nan
    return total, singular


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


def _singular_event(r_min, t):
    return SingularPointError(
        f"observer within r_min={r_min:g} of the source worldline at t={t:g}"
    )


def lw_fields(
    mat: Material,
    traj: Trajectory,
    prof: ForceProfile,
    x,
    t: float,
    rel_tol: float = 1e-10,
    tol_ret: float = DEFAULT_RETARDED_TOL,
    r_min: float = DEFAULT_R_MIN,
) -> FieldSample:
    """Displacement, distortion and velocity of the moving point force.

    One retarded solve per slowness node is shared by every returned
    quantity. Events the force has not yet influenced give exactly zero.
    The one-event call of ``lw_fields_batch``; raises SingularPointError
    for an observer on the worldline.
    """
    acc, singular = _retarded_sums(mat, traj, prof, [x], [t], rel_tol, tol_ret, r_min)
    if singular[0]:
        raise _singular_event(r_min, t)
    return _field_sample(acc[0], mat.rho)


def lw_fields_batch(
    mat: Material,
    traj: Trajectory,
    prof: ForceProfile,
    xs,
    ts,
    rel_tol: float = 1e-10,
    tol_ret: float = DEFAULT_RETARDED_TOL,
    r_min: float = DEFAULT_R_MIN,
) -> tuple[FieldSample, np.ndarray]:
    """``lw_fields`` at every event (xs[i], ts[i]) in one batched evaluation.

    ``xs`` is (n, 3) and ``ts`` (n,). Returns a FieldSample whose arrays
    carry a leading event axis, and the boolean mask of events whose
    observer lies within r_min of the worldline: their fields are NaN
    instead of raising.
    """
    acc, singular = _retarded_sums(mat, traj, prof, xs, ts, rel_tol, tol_ret, r_min)
    return _field_sample(acc, mat.rho), singular


# ---------------------------------------------------------------------------
# static-source closed forms

def stokes_displacement(
    mat: Material, prof: ForceProfile, rvec, t: float, rel_tol: float = 1e-12,
    r_min: float = DEFAULT_R_MIN,
) -> np.ndarray:
    """Displacement of a fixed concentrated force with time-dependent strength."""
    rv, r, n = _static_geometry(rvec, r_min)
    kL, kT = 1.0 / mat.cL, 1.0 / mat.cT
    qT, _ = prof.eval(t - r * kT)
    qL, _ = prof.eval(t - r * kL)
    iq = _kappa_moment(prof, t, r, kL, kT, rel_tol)
    u = (
        kT * kT * (qT - float(n @ qT) * n)
        + kL * kL * float(n @ qL) * n
        + 3.0 * float(n @ iq) * n
        - iq
    )
    return u / (4.0 * math.pi * mat.rho * r)


def stokes_gradient(mat, prof, rvec, t, rel_tol: float = 1e-12,
                    r_min: float = DEFAULT_R_MIN) -> np.ndarray:
    """Displacement gradient of the fixed concentrated force."""
    parts = stokes_gradient_split(mat, prof, rvec, t, rel_tol, r_min)
    return parts["q"] + parts["qdot"]


def stokes_gradient_split(mat, prof, rvec, t, rel_tol: float = 1e-12,
                          r_min: float = DEFAULT_R_MIN, parts=("q", "qdot")) -> dict:
    """Gradient split into strength-driven (1/R^2) and rate-driven (1/R) parts.

    Only the strength part needs the slowness moment integral, so far-field
    scans of the rate part stay cheap via ``parts=("qdot",)``.
    """
    rv, r, n = _static_geometry(rvec, r_min)
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
        iq = _kappa_moment(prof, t, r, kL, kT, rel_tol)
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


def kelvin_displacement(mat: Material, q, rvec, r_min: float = DEFAULT_R_MIN) -> np.ndarray:
    """Displacement of a static concentrated force of constant strength."""
    q = np.asarray(q, dtype=float)
    rv, r, n = _static_geometry(rvec, r_min)
    pref = 1.0 / (16.0 * math.pi * mat.mu * (1.0 - mat.nu) * r)
    return pref * ((3.0 - 4.0 * mat.nu) * q + float(n @ q) * n)


def kelvin_gradient(mat: Material, q, rvec, r_min: float = DEFAULT_R_MIN) -> np.ndarray:
    """Displacement gradient of the static concentrated force."""
    q = np.asarray(q, dtype=float)
    rv, r, n = _static_geometry(rvec, r_min)
    pref = -1.0 / (16.0 * math.pi * mat.mu * (1.0 - mat.nu) * r * r)
    return pref * (
        (3.0 - 4.0 * mat.nu) * np.outer(q, n)
        - np.outer(n, q)
        - float(n @ q) * _I3
        + 3.0 * float(n @ q) * np.outer(n, n)
    )


def _static_geometry(rvec, r_min):
    rv = np.asarray(rvec, dtype=float)
    r = float(np.linalg.norm(rv))
    if r < r_min:
        raise SingularPointError(f"field point within r_min={r_min:g} of the force")
    return rv, r, rv / r


def _kappa_moment(prof, t, r, kL, kT, rel_tol):
    """integral of kappa * Q(t - kappa r) over the slowness interval."""
    def f(kappas):
        return kappas[:, None] * prof.eval(t - kappas * r)[0]

    return adaptive_gauss_legendre(f, kL, kT, rel_tol=rel_tol)
