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
shared by every event. ``lw_fields`` is its one-event call.

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
    RetardedState,
    Trajectory,
    motion_violations,
    retarded_time,
)
from .material import Material
from .quadrature import adaptive_gauss_legendre, integrate_intervals

__all__ = [
    "FieldSample",
    "lw_fields",
    "lw_fields_batch",
    "lw_displacement",
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
# ga multiplies (row, 3) arrays, so the far-channel values are a column.

_FAR_GA = np.array([[1.0], [0.0]])
_FAR_GB = np.array([-1.0, 1.0])
_FAR_M = np.array([1.0, -1.0])
_MID_GA, _MID_GB, _MID_M = -1.0, 3.0, -3.0


def _project(st: RetardedState, ga, gb, vec):
    """Channel projection G vec = ga vec + gb n (n.vec), row by row."""
    return ga * vec + (gb * np.einsum("ni,ni->n", st.n, vec))[:, None] * st.n


def _displacement_terms(st, prof, p, ga, gb, m):
    # Rows whose root precedes the worldline carry no force.
    q = prof.eval(st.t_ret)[0] * st.valid[:, None]
    return (p / st.pc)[:, None] * _project(st, ga, gb, q)


def _field_terms(st, prof, p, ga, gb, m):
    """All field components of each row, in the 39-wide layout of lw_fields."""
    q, qd = prof.eval(st.t_ret)
    mask = st.valid[:, None]
    q, qd = q * mask, qd * mask
    gq, gqd = _project(st, ga, gb, q), _project(st, ga, gb, qd)
    k, rv, r, pc, v, a = st.slowness, st.rvec, st.r, st.pc, st.v, st.a
    n_rows = rv.shape[0]
    rq = np.einsum("ni,ni->n", rv, q)
    vq = np.einsum("ni,ni->n", v, q)
    vr = np.einsum("ni,ni->n", v, rv)
    ar = np.einsum("ni,ni->n", a, rv)
    vv = np.einsum("ni,ni->n", v, v)
    pc2 = pc * pc
    pc3 = pc2 * pc
    r2 = r * r

    def outer(u1, u2):
        return np.einsum("ni,nk->nik", u1, u2)

    u = (p / pc)[:, None] * gq
    b_qdot = (p * k / pc2)[:, None, None] * outer(gqd, rv)
    b_acc = (p * k * k * ar / pc3)[:, None, None] * outer(gq, rv)
    eye = np.broadcast_to(_I3, (n_rows, 3, 3))
    geom = (
        (rq / (r2 * pc))[:, None, None] * (eye + (k / pc)[:, None, None] * outer(v, rv))
        + outer(rv, q + ((k * vq / pc)[:, None] * rv)) / (r2 * pc)[:, None, None]
        - (2.0 * rq / (r2 * r * pc2))[:, None, None] * outer(rv, rv)
    )
    b_vel = (p / pc3)[:, None, None] * outer(
        gq, (1.0 - k * k * vv)[:, None] * rv - (k * pc)[:, None] * v
    ) + (p * m)[:, None, None] * geom

    v_qdot = (p * r / pc2)[:, None] * gqd
    v_acc = (p * k * r * ar / pc3)[:, None] * gq
    geom_v = (rq[:, None] * v + vq[:, None] * rv) / (r * pc2)[:, None] - (
        2.0 * vr * rq / (r2 * r * pc2)
    )[:, None] * rv
    v_vel = (p * (vr - k * r * vv) / pc3)[:, None] * gq + (p * m)[:, None] * geom_v

    return np.concatenate(
        [
            u,
            b_qdot.reshape(n_rows, 9),
            b_vel.reshape(n_rows, 9),
            b_acc.reshape(n_rows, 9),
            v_qdot,
            v_vel,
            v_acc,
        ],
        axis=1,
    )


def _retarded_sums(terms, mat, traj, prof, xs, ts, rel_tol, tol_ret, r_min):
    """Sum ``terms`` over the two far channels and the slowness integral, per event.

    ``xs`` (n, 3) and ``ts`` (n,) are the observation events. Every row is
    solved by ``retarded_time``: the transversal and longitudinal channels
    of all events share one 2n-row call, and the n slowness integrals are
    refined together by ``integrate_intervals``, whose integrand solves and
    evaluates each batch of nodes in one call. Returns the sums (n, width)
    and the mask of events whose observer lies on the worldline; those
    leave the refinement at once and their sums are NaN. Raises the first
    violation of ``motion_violations``.
    """
    for error, message in motion_violations(traj, prof, mat.cT, line=False):
        raise error(message)
    xs = np.asarray(xs, dtype=float).reshape(-1, 3)
    ts = np.asarray(ts, dtype=float).reshape(-1)
    n = ts.size
    kL, kT = 1.0 / mat.cL, 1.0 / mat.cT

    far = np.tile([kT, kL], n)
    st = retarded_time(traj, np.repeat(xs, 2, axis=0), np.repeat(ts, 2), far, tol_ret, r_min)
    rows = terms(st, prof, far * far, np.tile(_FAR_GA, (n, 1)), np.tile(_FAR_GB, n),
                 np.tile(_FAR_M, n))
    total = rows.reshape(n, 2, -1).sum(axis=1)
    singular = st.singular.reshape(n, 2).any(axis=1)
    live = np.flatnonzero(~singular)
    on_worldline = np.zeros(n, dtype=bool)  # events with a singular slowness node

    def integrand(kappas, owner):
        # A singular row has NaN geometry and therefore NaN terms, which
        # takes its event out of the refinement.
        ev = live[owner]
        st = retarded_time(traj, xs[ev], ts[ev], kappas, tol_ret, r_min)
        on_worldline[ev[st.singular]] = True
        return terms(st, prof, kappas, _MID_GA, _MID_GB, _MID_M)

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
    acc, singular = _retarded_sums(
        _field_terms, mat, traj, prof, [x], [t], rel_tol, tol_ret, r_min
    )
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
    acc, singular = _retarded_sums(
        _field_terms, mat, traj, prof, xs, ts, rel_tol, tol_ret, r_min
    )
    return _field_sample(acc, mat.rho), singular


def lw_displacement(
    mat: Material,
    traj: Trajectory,
    prof: ForceProfile,
    x,
    t: float,
    rel_tol: float = 1e-10,
    tol_ret: float = DEFAULT_RETARDED_TOL,
    r_min: float = DEFAULT_R_MIN,
) -> np.ndarray:
    """Displacement only; cheaper than lw_fields when derivatives are not needed."""
    u, singular = _retarded_sums(
        _displacement_terms, mat, traj, prof, [x], [t], rel_tol, tol_ret, r_min
    )
    if singular[0]:
        raise _singular_event(r_min, t)
    return u[0] / (4.0 * math.pi * mat.rho)


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
