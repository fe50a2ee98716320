"""Elastodynamic fields of non-uniformly moving line forces (2D).

Line forces parallel to x3 radiate in the (x1, x2) plane. Unlike the 3D
point force, their displacements are genuine history integrals: every
instant of the motion since switch-on contributes, weighted by the
inverse square roots

    S_c(t')^2 = (t - t')^2 - R(t')^2 / c^2,   c = cT, cL,

which vanish at the retarded times. The integrands therefore carry an
integrable 1/sqrt singularity at the upper limit. Production quadrature
removes it exactly with the substitution t' = t_ret - w^2 on the last
tenth of the history, leaving smooth integrands for Gauss-Legendre
panels.

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
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    SingularPointError,
    UnboundedHistoryError,
    WavefrontProximityWarning,
)
from .kinematics import (
    DEFAULT_R_MIN,
    DEFAULT_RETARDED_TOL,
    ForceProfile,
    Trajectory,
    retarded_time,
)
from .material import Material
from .pointforce3d import _require_history, _require_subsonic
from .quadrature import adaptive_gauss_legendre, fixed_gauss_legendre

__all__ = [
    "LineHistoryNode",
    "FieldSample2D",
    "line_history_node",
    "antiplane_displacement",
    "antiplane_fields",
    "antiplane_sample",
    "inplane_displacement",
    "inplane_fields",
]

_SPLIT_FRACTION = 0.1
DEFAULT_HISTORY_TOL = 1e-8


@dataclass(frozen=True)
class LineHistoryNode:
    """Geometry bundle at one history time t' of a 2D evaluation.

    ``s_t``/``s_l`` are sqrt((t-t')^2 - R^2/c^2) for the transversal and
    longitudinal speeds, NaN where the argument is negative (t' past the
    corresponding retarded time). Where both are real, s_l >= s_t.
    """

    tprime: float
    tbar: float
    rvec: np.ndarray
    r: float
    s_t: float
    s_l: float


def line_history_node(mat: Material, traj: Trajectory, x, t: float, tprime: float) -> LineHistoryNode:
    """Evaluate the history-node bundle at one (x, t, t')."""
    x = np.asarray(x, dtype=float)[:2]
    s, _, _ = traj.eval(tprime)
    rvec = x - s[:2]
    r = float(np.linalg.norm(rvec))
    tbar = t - tprime
    st2 = tbar * tbar - (r / mat.cT) ** 2
    sl2 = tbar * tbar - (r / mat.cL) ** 2
    return LineHistoryNode(
        tprime=tprime,
        tbar=tbar,
        rvec=rvec,
        r=r,
        s_t=math.sqrt(st2) if st2 >= 0.0 else math.nan,
        s_l=math.sqrt(sl2) if sl2 >= 0.0 else math.nan,
    )


@dataclass
class FieldSample2D:
    """Fields of one line-force evaluation.

    ``plane`` is "in-plane" (u, v are 2-vectors, beta is 2x2) or
    "anti-plane" (u, v are the scalar u3, v3 and beta is the 2-vector
    beta_3alpha). ``fd_error`` reports Richardson error estimates where
    derivatives were taken numerically.
    """

    plane: str
    u: np.ndarray | float
    beta: np.ndarray
    v: np.ndarray | float
    fd_error: dict | None = None


def _check_2d_inputs(mat, traj, prof):
    _require_subsonic(mat, traj)
    _require_history(traj, prof)
    if not math.isfinite(prof.t_on):
        raise UnboundedHistoryError(
            "2D history integrals require a finite switch-on time t_on"
        )


@dataclass(frozen=True)
class _SingularEnd:
    """Upper history limit where the kernel's S vanishes."""

    b: float
    b_gap: float  # t - b
    kappa: float  # slowness of the singular kernel
    s_b: np.ndarray  # source position at b
    rvec_b: np.ndarray  # R(b) = x - s_b
    r_b: float  # |R(b)|
    pc_b: float  # Doppler denominator at b


def _singular_ends(traj, prof, x, t, speeds, tol, r_min):
    """Upper history limits (retarded times in the plane) for ``speeds``.

    One retarded solve serves every speed. An entry is None when its
    retarded time precedes the switch-on or the worldline: that kernel
    has no history.
    """
    st = retarded_time(traj, x, t, 1.0 / np.asarray(speeds), tol=tol, r_min=r_min, dim=2)
    if st.singular.any():
        raise SingularPointError(f"observer within r_min={r_min:g} of the source worldline")
    return [
        _SingularEnd(
            b=st.t_ret[i], b_gap=t - st.t_ret[i], kappa=st.slowness[i],
            s_b=x - st.rvec[i], rvec_b=st.rvec[i], r_b=st.r[i], pc_b=st.pc[i],
        )
        if st.valid[i] and st.t_ret[i] > prof.t_on else None
        for i in range(len(speeds))
    ]


def _stable_s2(end, x, s_tp, r_tp, w):
    """S^2 at t' = b - w^2 without endpoint cancellation.

    S^2 = D * (tbar + kappa R) with D = tbar - kappa R; D is rebuilt from
    w^2 and the R-difference quotient so the two O(1) contributions that
    cancel at the endpoint never meet in floating point.
    """
    num = float((end.s_b - s_tp) @ (2.0 * x - s_tp - end.s_b))
    rdiff = num / (r_tp + end.r_b)
    d = w * w - end.kappa * rdiff
    tbar = end.b_gap + w * w
    return d * (tbar + end.kappa * r_tp)


def _history_quad(kernel, traj, x, t, a, end, rel_tol, r_min, n_fixed=None, nodes=16):
    """Integrate kernel(t', rvec, r, s_sing) over [a, end.b].

    ``s_sing`` is the vanishing-at-the-endpoint square root of the
    kernel. The last tenth of the interval is mapped by t' = b - w^2,
    which turns the inverse-square-root endpoint into a smooth integrand;
    there S is evaluated in the stable product form. ``n_fixed`` switches
    to a non-adaptive composite rule (convergence-order studies).
    """
    b = end.b
    if b <= a:
        return 0.0
    delta = _SPLIT_FRACTION * (b - a)
    split = b - delta
    w_max = math.sqrt(delta)

    def geometry(tp):
        s, _, _ = traj.eval(tp)
        s2d = s[:2]
        rvec = x - s2d
        r = float(np.linalg.norm(rvec))
        if r < r_min:
            raise SingularPointError("history passes through the observation point")
        return s2d, rvec, r

    def head(tp):
        _, rvec, r = geometry(tp)
        tbar = t - tp
        s_sing = math.sqrt(tbar * tbar - (end.kappa * r) ** 2)
        return kernel(tp, rvec, r, s_sing)

    def tail(w):
        tp = b - w * w
        s2d, rvec, r = geometry(tp)
        s_sing = math.sqrt(_stable_s2(end, x, s2d, r, w))
        return 2.0 * w * kernel(tp, rvec, r, s_sing)

    if n_fixed is not None:
        return fixed_gauss_legendre(head, a, split, n_fixed, nodes) + fixed_gauss_legendre(
            tail, 0.0, w_max, n_fixed, nodes
        )
    out = adaptive_gauss_legendre(head, a, split, rel_tol=rel_tol, nodes=nodes)
    return out + adaptive_gauss_legendre(tail, 0.0, w_max, rel_tol=rel_tol, nodes=nodes)


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
    n_fixed: int | None = None,
) -> float:
    """u3 of an anti-plane line force: transversal history integral."""
    _check_2d_inputs(mat, traj, prof)
    x = np.asarray(x, dtype=float)[:2]
    (end,) = _singular_ends(traj, prof, x, t, [mat.cT], tol_ret, r_min)
    if end is None:
        return 0.0

    def kernel(tp, rvec, r, s_sing):
        q3 = prof.eval(tp)[0][2]
        return np.array([q3 / s_sing])

    val = _history_quad(
        kernel, traj, x, t, prof.t_on, end, rel_tol, r_min, n_fixed
    )
    return float(np.asarray(val)[0]) / (2.0 * math.pi * mat.rho * mat.cT ** 2)


def antiplane_fields(
    mat: Material,
    traj: Trajectory,
    prof: ForceProfile,
    x,
    t: float,
    rel_tol: float = DEFAULT_HISTORY_TOL,
    tol_ret: float = DEFAULT_RETARDED_TOL,
    r_min: float = DEFAULT_R_MIN,
):
    """(beta_3alpha, v3) of the anti-plane line force.

    The gradient and time derivative act on both the integrand and the
    moving singular limit. After the w-substitution the limit becomes a
    fixed endpoint: what remains is a bounded switch-on boundary term
    plus smooth integrals of the differentiated kernel.
    """
    _check_2d_inputs(mat, traj, prof)
    x = np.asarray(x, dtype=float)[:2]
    (end,) = _singular_ends(traj, prof, x, t, [mat.cT], tol_ret, r_min)
    if end is None:
        return np.zeros(2), 0.0
    t_up = end.b
    kap = 1.0 / mat.cT

    w_max = math.sqrt(t_up - prof.t_on)
    # Sensitivities of the retarded limit: dtT/dt = R/P, dtT/dx = -kap R_vec/P.
    dtup = np.array(
        [end.r_b / end.pc_b, -kap * end.rvec_b[0] / end.pc_b, -kap * end.rvec_b[1] / end.pc_b]
    )

    def integrand(w):
        tp = t_up - w * w
        s, v, _ = traj.eval(tp)
        s2d = s[:2]
        rvec = x - s2d
        r = float(np.linalg.norm(rvec))
        if r < r_min:
            raise SingularPointError("history passes through the observation point")
        n = rvec / r
        nv = float(n @ v[:2])
        tbar = end.b_gap + w * w
        s2 = _stable_s2(end, x, s2d, r, w)
        s_val = math.sqrt(s2)
        q, qd = prof.eval(tp)
        q3, qd3 = q[2], qd[2]
        # d(S^2) at fixed w for each direction t, x1, x2; each entry pairs a
        # tbar shift against an R shift that cancel at w = 0.
        dtbar = np.array([1.0 - dtup[0], -dtup[1], -dtup[2]])
        dr = np.array([-nv * dtup[0], n[0] - nv * dtup[1], n[1] - nv * dtup[2]])
        ds2 = 2.0 * tbar * dtbar - 2.0 * kap * kap * r * dr
        return 2.0 * qd3 * dtup * (w / s_val) - q3 * w * ds2 / s_val ** 3

    q_on = prof.eval(prof.t_on)[0][2]
    s_on = line_history_node(mat, traj, x, t, prof.t_on).s_t
    boundary = q_on * dtup / s_on

    integral = adaptive_gauss_legendre(integrand, 0.0, w_max, rel_tol=rel_tol)
    total = (boundary + integral) / (2.0 * math.pi * mat.rho * mat.cT ** 2)
    return total[1:3].copy(), float(total[0])


def antiplane_sample(mat, traj, prof, x, t, **kw) -> FieldSample2D:
    """Anti-plane displacement, distortion and velocity as one sample."""
    u3 = antiplane_displacement(mat, traj, prof, x, t, **kw)
    beta, v3 = antiplane_fields(mat, traj, prof, x, t, **kw)
    return FieldSample2D(plane="anti-plane", u=u3, beta=beta, v=v3)


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
    _check_2d_inputs(mat, traj, prof)
    x = np.asarray(x, dtype=float)[:2]
    end_l, end_t = _singular_ends(traj, prof, x, t, [mat.cL, mat.cT], tol_ret, r_min)
    if end_l is None:
        return np.zeros(2)
    kL2 = 1.0 / mat.cL ** 2

    def lt_parts(tp, rvec, r, q):
        r2 = r * r
        nn_q = (float(rvec @ q) / r2) * rvec
        return r2, nn_q, (t - tp) ** 2

    def kernel_l(tp, rvec, r, s_sing):
        q = prof.eval(tp)[0][:2]
        r2, nn_q, tb2 = lt_parts(tp, rvec, r, q)
        return (nn_q * (tb2 / s_sing) + (nn_q - q) * s_sing) / r2

    def kernel_diff(tp, rvec, r, s_sing):
        # singular root is S_T; S_L stays bounded away from zero here
        q = prof.eval(tp)[0][:2]
        r2, nn_q, tb2 = lt_parts(tp, rvec, r, q)
        sl = math.sqrt(tb2 - r2 * kL2)
        lt = nn_q * (tb2 / sl) + (nn_q - q) * sl
        tt = nn_q * s_sing + (nn_q - q) * (tb2 / s_sing)
        return (lt - tt) / r2

    total = np.zeros(2)
    if end_t is not None:
        # Shared interval: the far history of the two kernels cancels
        # pointwise, so integrate their difference.
        total += np.asarray(
            _history_quad(kernel_diff, traj, x, t, prof.t_on, end_t, rel_tol, r_min)
        )
        total += np.asarray(
            _history_quad(kernel_l, traj, x, t, end_t.b, end_l, rel_tol, r_min)
        )
    else:
        total += np.asarray(
            _history_quad(kernel_l, traj, x, t, prof.t_on, end_l, rel_tol, r_min)
        )
    return total / (2.0 * math.pi * mat.rho)


def _arrival_times(traj, prof, x, c_list):
    """Wavefront passage times at x from switch-on and (if any) switch-off."""
    arrivals = []
    for t_edge in (prof.t_on, prof.t_off):
        if not math.isfinite(t_edge):
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
    _check_2d_inputs(mat, traj, prof)
    x = np.asarray(x, dtype=float)[:2]

    def u_of(xx, tt):
        return inplane_displacement(
            mat, traj, prof, xx, tt, rel_tol=rel_tol, tol_ret=tol_ret, r_min=r_min
        )

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
    return FieldSample2D(
        plane="in-plane", u=u_of(x, t), beta=beta, v=v, fd_error=errs
    )
