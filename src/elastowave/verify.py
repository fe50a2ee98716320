"""Independent oracles and consistency checks for the field evaluators.

Four kinds of evidence are produced here, none of which share code with
the production evaluation paths they judge:

* finite differences, only in 2D and in the equation-of-motion stencils:
  the in-plane velocity against Richardson-extrapolated central
  differences of the displacement;
* equation-of-motion residuals: the displacement family must satisfy the
  isotropic elastodynamic balance rho*dv/dt = mu*Lap(u) +
  (lam+mu)*grad(div u) away from the source, tested with 4th-order
  stencils in 3D and in 2D plane strain. Both differencing oracles take
  batched fields, (xs (n, dim), ts (n,)) -> (n, m), and evaluate each
  stencil in one call;
* the method of descent: a line force along x3 is the point force spread
  uniformly over x3, so one ``lw_fields_batch`` call on a fixed
  Gauss-Legendre rule in x3 judges both 2D evaluators;
* closed forms: the displacement of a force on a worldline as its far T
  and L terms plus a slowness integral on a fixed Gauss-Legendre rule,
  each term at the retarded lag of its slowness: from a quadratic for
  uniform motion, from a Newton iteration of the oracle's own for an
  oscillatory (or static) worldline, so neither the retarded-time solver
  nor the adaptive engine enters it. Its distortion and velocity are
  complex-step derivatives of it, so no field kernel of the evaluator
  enters either. Every 3D closed-form check is a list of cases of it
  that ``_oracle_check`` judges. A static in-plane step has the
  plane-strain Green tensor as its velocity and that tensor's time
  integral as its displacement.

``run_check_suite`` packages the module invariants into named,
deterministic, seedable checks and returns CheckReport records that
serialize to JSON.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, RetardedConvergenceError, SingularPointError
from .kinematics import (
    bump_force,
    constant_force,
    motion_violations,
    oscillatory_trajectory,
    retarded_time,
    retarded_time_bisection,
    sinusoid_force,
    static_trajectory,
    step_force,
    tabulated_trajectory,
    uniform_trajectory,
)
from .lineforce2d import antiplane_fields, inplane_displacement, inplane_fields
from .material import Material, make_material, make_material_poisson
from .pointforce3d import (
    kelvin_displacement,
    kelvin_gradient,
    lw_fields,
    lw_fields_batch,
    stokes_displacement,
    stokes_gradient,
)

__all__ = [
    "CheckReport",
    "FDResult",
    "NavierResult",
    "fd_consistency",
    "navier_residual",
    "run_check_suite",
    "CHECKS",
]


@dataclass
class CheckReport:
    """One named verification result; pass iff max_rel_err <= tolerance."""

    name: str
    max_rel_err: float
    tolerance: float
    passed: bool
    n_samples: int
    details: list = field(default_factory=list)

    def to_dict(self):
        return {"name": self.name, "max_rel_err": self.max_rel_err, "tolerance": self.tolerance,
                "pass": self.passed, "n_samples": self.n_samples}


def _report(name, err, tol, n, details=None):
    return CheckReport(name, float(err), float(tol), bool(err <= tol), int(n), details or [])


# ---------------------------------------------------------------------------
# finite differences

@dataclass
class FDResult:
    beta_fd: np.ndarray
    v_fd: np.ndarray
    beta_err: float
    v_err: float


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


def fd_consistency(field_fn, x, t, h):
    """Distortion/velocity of a field by central differences at (x, t).

    ``field_fn(xs, ts) -> (n, m)`` maps events xs (n, dim) and ts (n,) to
    field values; it is called once, on the whole stencil: six offsets
    along each axis of x and along t. Richardson pairs at h and h/2 give
    6th-order values plus an error estimate from the pair spread. The
    point must sit several steps clear of wavefronts and of the source;
    the caller chooses h accordingly. beta_fd is (m, dim), v_fd (m,).
    """
    x = np.asarray(x, dtype=float)
    dim = x.size
    # one row of six events per direction x_1 .. x_dim, t
    events = np.append(x, t) + (h * _STENCIL)[:, None] * np.eye(dim + 1)[:, None, :]
    events = events.reshape(-1, dim + 1)
    vals = np.asarray(field_fn(events[:, :dim], events[:, dim]), dtype=float)
    d, spread = _richardson_d1(vals.reshape(dim + 1, _STENCIL.size, -1), h)
    return FDResult(beta_fd=d[:dim].T, v_fd=d[dim], beta_err=float(np.max(spread[:dim])),
                    v_err=float(np.max(spread[dim])))


@dataclass
class NavierResult:
    residual: np.ndarray
    rel_residual: float
    scale: float


# 4th-order first derivative: weights at the offsets -2, -1, 1, 2
_OFFS = np.array([-2.0, -1.0, 1.0, 2.0])
_W1 = np.array([1.0, -8.0, 8.0, -1.0]) / 12.0


def navier_residual(mat: Material, u_fn, v_fn, x, t, h) -> NavierResult:
    """Residual of rho*d_t v - mu*Lap u - (lam+mu)*grad(div u) at (x, t).

    ``u_fn`` and ``v_fn`` map events xs (n, dim) and ts (n,) to fields
    (n, dim), in the dimension of x (3D, or 2D plane strain). Each is
    called once: u on the centre, four points along each axis and a 4x4
    grid in each coordinate plane (4th-order stencils, the mixed partials
    nested), v on four times at x. The residual is normalized by the
    largest retained term, which keeps the measure meaningful ahead of
    wavefronts where all terms are tiny.
    """
    x = np.asarray(x, dtype=float)
    dim = x.size
    eye = np.eye(dim)
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    steps = np.vstack([
        np.zeros(dim),
        (eye[:, None, :] * _OFFS[:, None]).reshape(-1, dim),
        np.reshape([a * eye[i] + b * eye[j] for i, j in pairs for a in _OFFS for b in _OFFS],
                   (-1, dim)),
    ])
    u = np.asarray(u_fn(x + h * steps, np.full(len(steps), t)), dtype=float)
    center, axes = u[0], u[1:1 + 4 * dim].reshape(dim, 4, dim)

    # d2[k] = d_k^2 u (4th-order second derivative)
    d2 = (
        -axes[:, 0] + 16.0 * axes[:, 1] - 30.0 * center + 16.0 * axes[:, 2] - axes[:, 3]
    ) / (12.0 * h * h)
    lap = sum(d2)

    # grad(div u)_i = sum_j d_i d_j u_j, the diagonal term first. Grid g of
    # plane (i, j) holds u at x + h (o_a e_i + o_b e_j); its nested 4x4
    # stencil gives d_i d_j u_j summed over (a, b) and d_j d_i u_i summed
    # over (b, a), the outer offsets first.
    weights = np.multiply.outer(_W1, _W1).ravel()
    grad_div = np.diag(d2).copy()
    for g, (i, j) in zip(u[1 + 4 * dim:].reshape(-1, 4, 4, dim), pairs):
        grad_div[i] += sum(weights * g.reshape(16, dim)[:, j]) / (h * h)
        grad_div[j] += sum(weights * g.swapaxes(0, 1).reshape(16, dim)[:, i]) / (h * h)

    v = np.asarray(v_fn(np.tile(x, (4, 1)), t + _OFFS * h), dtype=float)
    dt_v = sum(_W1[:, None] * v) / h

    inertia = mat.rho * dt_v
    shear = mat.mu * lap
    dil = (mat.lam + mat.mu) * grad_div
    residual = inertia - shear - dil
    scale = max(*(float(np.max(np.abs(term))) for term in (inertia, shear, dil)), 1e-300)
    return NavierResult(residual, float(np.max(np.abs(residual))) / scale, scale)


# ---------------------------------------------------------------------------
# descent and static-step oracles

def _inplane_static_step(mat, rvec, tau):
    """u and v per unit force, each (2, 2), of a static in-plane step switched on tau ago.

    v is the plane-strain Green tensor G and u its integral over [0, tau]:
    with a = r / c and S = sqrt(tau^2 - a^2) per wave speed c, (2 tau^2 -
    a^2) / S integrates to tau S, and S and tau^2 / S to (tau S -+ a^2
    acosh(tau / a)) / 2.
    """
    r2 = float(rvec @ rvec)
    xx, eye = np.outer(rvec, rvec) / (r2 * r2), np.eye(2) / r2
    u, v, tt = np.zeros((2, 2)), np.zeros((2, 2)), tau * tau
    for c, sign in ((mat.cL, 1.0), (mat.cT, -1.0)):
        a2 = r2 / c ** 2
        if tt > a2:
            s = math.sqrt(tt - a2)
            v += sign * (xx * ((2.0 * tt - a2) / s) - eye * (s if sign > 0 else tt / s))
            acosh = a2 * math.acosh(tau / math.sqrt(a2))
            u += sign * (xx * (tau * s) - eye * (0.5 * (tau * s - sign * acosh)))
    return u / (2.0 * math.pi * mat.rho), v / (2.0 * math.pi * mat.rho)


def _descent_devs(mat, traj, prof, xs, ts):
    """Per event, the deviations of both line-force evaluators from the method of descent.

    The point force's fields at (xs[i], x3, ts[i]) are integrated over |x3|
    <= cL (ts[i] - t_on), beyond which no signal has arrived, on 200 GL16
    panels in one ``lw_fields_batch`` call. Keys ``inplane_u`` ..
    ``antiplane_v`` hold each field of each evaluator against its own
    largest component, ``beta_3`` the integral of d_3 u (which vanishes)
    against the largest beta.
    """
    z, w = np.polynomial.legendre.leggauss(16)
    mid = np.linspace(-1.0, 1.0, 401)[1::2]  # 200 panels of half-width 1 / 200
    z, w = (mid[:, None] + z / 200).ravel(), np.tile(w / 200, 200)
    xs, ts = np.atleast_2d(xs)[:, :2], np.atleast_1d(ts)
    reach = mat.cL * (ts - prof.t_on)
    events = np.column_stack([np.repeat(xs, z.size, axis=0), np.multiply.outer(reach, z).ravel()])
    fs, masked = lw_fields_batch(mat, traj, prof, events, np.repeat(ts, z.size), rel_tol=1e-10)
    if masked.any():
        raise SingularPointError("a descent node lies on the source worldline")
    integrals = [np.einsum("p,n,pn...->p...", reach, w, f.reshape(ts.size, z.size, *f.shape[1:]))
                 for f in (fs.u, fs.beta, fs.v)]
    devs = []
    for x, t, u, beta, v in zip(xs, ts, *integrals):
        dev = {"beta_3": _rel_err(beta[:, 2], 0.0, floor=float(np.max(np.abs(beta[:, :2]))))}
        for name, rows, evaluate in (("inplane", slice(0, 2), inplane_fields),
                                     ("antiplane", 2, antiplane_fields)):
            line = evaluate(mat, traj, prof, x, t, rel_tol=1e-12)
            dev.update({f"{name}_{key}": _rel_err(got[rows], getattr(line, key))
                        for key, got in (("u", u), ("beta", beta[:, :2]), ("v", v))})
        devs.append(dev)
    return devs


# ---------------------------------------------------------------------------
# named checks

def _rel_err(got, ref, floor=0.0):
    """max|got - ref| over the larger of max|ref| and ``floor``.

    When both are zero the scale is max|got|: a deviation from an all-zero
    reference reads 1.0, and 0.0 when ``got`` is zero too.
    """
    got = np.asarray(got, dtype=float)
    ref = np.asarray(ref, dtype=float)
    scale = max(float(np.max(np.abs(ref))), floor) or float(np.max(np.abs(got)))
    return float(np.max(np.abs(got - ref))) / scale if scale else 0.0


def _random_material(rng):
    return make_material_poisson(rho=rng.uniform(0.5, 2.0), mu=rng.uniform(0.5, 2.0),
                                 nu=rng.uniform(0.05, 0.4))


def _random_unit(rng, dim=3):
    v = rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _random_oscillatory(rng, mat, vfrac=0.8, dim=3):
    """An oscillatory worldline about the origin, in the (x1, x2) plane if dim == 2.

    Returns the worldline, its angular frequency and its ``_newton_lags``.
    """
    omega = rng.uniform(0.5, 1.5)
    speed = rng.uniform(0.2, vfrac) * mat.cT
    amp = speed / omega
    if amp > 0.35:  # keep the excursion clear of the observer shell
        amp = 0.35
        omega = speed / amp
    amp = amp * np.append(_random_unit(rng, dim), np.zeros(3 - dim))
    phase = rng.uniform(0, 2 * math.pi)
    return (oscillatory_trajectory(np.zeros(3), amp, omega, phase), omega,
            _newton_lags(amp, omega, phase))


def _sinusoid_history(q0, omega, phase):
    """Q(t') = q0 sin(omega t' + phase) of ``sinusoid_force``, at complex t' too."""
    return lambda tp: np.multiply.outer(np.sin(omega * tp + phase), q0)


def _random_smooth_force(rng):
    """A sinusoid or a constant force: (profile, angular frequency, history Q(t'))."""
    q0 = rng.normal(size=3)
    if rng.random() < 0.5:
        omega, phase = rng.uniform(0.5, 1.5), rng.uniform(0, 2 * math.pi)
        return sinusoid_force(q0, omega, phase), omega, _sinusoid_history(q0, omega, phase)
    return constant_force(q0), 0.0, lambda tp: q0


def check_retarded_solver(seed=0, n_cases=1000, tolerance=1e-12):
    """Halley-vs-bisection agreement plus monotonicity and Doppler positivity."""
    rng = np.random.default_rng(seed)
    mat = make_material(1.0, 1.0, 1.0)
    worst = 0.0
    for _ in range(n_cases):
        kind = rng.integers(3)
        if kind == 0:
            traj = static_trajectory(rng.normal(scale=0.5, size=3))
        elif kind == 1:
            traj = uniform_trajectory(
                rng.normal(scale=0.5, size=3), 0.8 * mat.cT * rng.uniform(0.1, 1.0) * _random_unit(rng)
            )
        else:
            traj = _random_oscillatory(rng, mat)[0]
        x = rng.uniform(0.5, 5.0) * _random_unit(rng)
        t = rng.uniform(-2.0, 4.0)
        kappas = np.sort(rng.uniform(1.0 / mat.cL, 1.0 / mat.cT, size=3))
        previous = math.inf
        for kap in kappas:
            st = retarded_time(traj, x, t, kap)
            st_b = retarded_time_bisection(traj, x, t, kap)
            worst = max(worst, abs(st.t_ret - st_b.t_ret))
            if st.pc <= 0.0:
                worst = max(worst, 1.0)
            if st.t_ret >= t:
                worst = max(worst, 1.0)
            if st.t_ret > previous:  # t_ret must decrease with slowness
                worst = max(worst, abs(st.t_ret - previous))
            previous = st.t_ret
    return _report("retarded_solver", worst, tolerance, n_cases)


def check_stokes_limit(seed=0, n_cases=20, tolerance=1e-10):
    """Static-trajectory evaluator against the time-dependent closed form."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    rel_tol = 1e-12
    for _ in range(n_cases):
        mat = _random_material(rng)
        traj = static_trajectory(rng.normal(scale=0.3, size=3))
        prof = _random_smooth_force(rng)[0]
        x = traj.eval(0.0)[0] + rng.uniform(0.5, 3.0) * _random_unit(rng)
        t = rng.uniform(-1.0, 2.0)
        rvec = x - traj.eval(0.0)[0]
        s = lw_fields(mat, traj, prof, x, t, rel_tol=rel_tol)
        worst = max(worst, _rel_err(s.u, stokes_displacement(mat, prof, rvec, t)))
        worst = max(worst, _rel_err(s.beta, stokes_gradient(mat, prof, rvec, t)))
    return _report("stokes_limit", worst, tolerance, n_cases)


def check_kelvin_limit(seed=0, n_cases=20, tolerance=1e-12):
    """Static trajectory and constant force against the static closed form."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    rel_tol = 1e-13
    for _ in range(n_cases):
        mat = _random_material(rng)
        q0 = rng.normal(size=3)
        traj = static_trajectory(np.zeros(3))
        prof = constant_force(q0)
        rvec = rng.uniform(0.5, 3.0) * _random_unit(rng)
        t = rng.uniform(-1.0, 5.0)
        s = lw_fields(mat, traj, prof, rvec, t, rel_tol=rel_tol)
        worst = max(worst, _rel_err(s.u, kelvin_displacement(mat, q0, rvec)))
        worst = max(worst, _rel_err(s.beta, kelvin_gradient(mat, q0, rvec)))
        worst = max(worst, _rel_err(s.v, np.zeros(3), floor=np.max(np.abs(s.u))))
    # canonical worked values
    mat = make_material_poisson(1.0, 1.0, 0.25)
    u = kelvin_displacement(mat, [0, 0, 1], [0, 0, 1])
    b = kelvin_gradient(mat, [0, 0, 1], [0, 0, 1])
    worst = max(worst, abs(u[2] - 1.0 / (4.0 * math.pi)) * 4.0 * math.pi)
    worst = max(worst, abs(b[2, 2] + 1.0 / (4.0 * math.pi)) * 4.0 * math.pi)
    return _report("kelvin_limit", worst, tolerance, n_cases)


def _smooth_case(rng, vfrac=0.8):
    """An oracle case (mat, traj, prof, lags, force, x, t) and its field wavenumber.

    A sinusoid or constant force on an oscillatory worldline, seen at r in
    [1.5, 3.5] and t in [0, 3].
    """
    mat = _random_material(rng)
    traj, om_t, lags = _random_oscillatory(rng, mat, vfrac)
    prof, om_f, force = _random_smooth_force(rng)
    x = rng.uniform(1.5, 3.5) * _random_unit(rng)
    t = rng.uniform(0.0, 3.0)
    # dominant field wavenumber: retarded phases stack the source and force
    # frequencies on the slow branch, plus the geometric 1/r variation
    k_eff = (om_f + 2.0 * om_t) / mat.cT + 2.0 / float(np.linalg.norm(x))
    return (mat, traj, prof, lags, force, x, t), k_eff


def _batched(mat, traj, prof, rel_tol, attr):
    """Field ``attr`` of ``lw_fields_batch`` as a function of events (xs, ts)."""

    def field_fn(xs, ts):
        fs, singular = lw_fields_batch(mat, traj, prof, xs, ts, rel_tol=rel_tol)
        if singular.any():
            raise SingularPointError("a stencil event lies on the source worldline")
        return getattr(fs, attr)

    return field_fn


def check_navier_residual_3d(seed=0, n_cases=50, tolerance=1e-3):
    """Equation-of-motion residual at off-source, off-front events."""
    rng = np.random.default_rng(seed)
    rel_tol = 1e-12
    worst = 0.0
    for _ in range(n_cases):
        (mat, traj, prof, _, _, x, t), k_eff = _smooth_case(rng)
        u_fn = _batched(mat, traj, prof, rel_tol, "u")
        v_fn = _batched(mat, traj, prof, rel_tol, "v")
        worst = max(worst, navier_residual(mat, u_fn, v_fn, x, t, 0.04 / k_eff).rel_residual)
    return _report("navier_residual_3d", worst, tolerance, n_cases)


def check_radiation_uniform_zero(seed=0, n_cases=10, tolerance=1e-14):
    """Acceleration part must vanish identically for unaccelerated motion."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_cases):
        mat = _random_material(rng)
        traj = uniform_trajectory(
            rng.normal(scale=0.2, size=3), 0.7 * mat.cT * rng.uniform(0, 1) * _random_unit(rng)
        )
        prof = _random_smooth_force(rng)[0]
        x = rng.uniform(1.0, 3.0) * _random_unit(rng)
        s = lw_fields(mat, traj, prof, x, rng.uniform(0.0, 2.0))
        scale = max(float(np.max(np.abs(s.beta))), 1e-300)
        worst = max(worst, float(np.max(np.abs(s.beta_parts["acc"]))) / scale)
        worst = max(worst, float(np.max(np.abs(s.v_parts["acc"]))) / scale)
    return _report("radiation_uniform_zero", worst, tolerance, n_cases)


def _oracle_u(mat, lags, force, x, t, rule):
    """Displacement at (x, t) of a force Q(t') = ``force(t')`` on a worldline s(t').

    ``lags(x, t, k)`` gives, per slowness k (n,), the t' of t - t' = k |x
    - s(t')|, s(t') and V(t'). With R = (t - t') / k and P = R - k (x -
    s).V, the far T and L terms are k^2 / P times the transverse and the
    longitudinal part of Q, and the slowness integral of (k / P) (3 n
    (n.Q) - Q) takes one fixed Gauss-Legendre ``rule``. A complex x or t
    gives the complex-step derivatives.
    """
    kL, kT = 1.0 / mat.cL, 1.0 / mat.cT

    def channel(k):
        """Per slowness k (n,): R/|R|, P, and Q at t' with its projection n (n.Q)."""
        tp, s, vel = lags(x, t, k)
        rvec = x - s
        r = (t - tp) / k
        n = rvec / r[:, None]
        q = np.broadcast_to(force(tp), n.shape)
        return (n, r - k * np.einsum("ni,ni->n", rvec, vel), q,
                n * np.einsum("ni,ni->n", n, q)[:, None])

    n, p, q, nn_q = channel(np.array([kT, kL]))
    u = kT ** 2 / p[0] * (q[0] - nn_q[0]) + kL ** 2 / p[1] * nn_q[1]
    z, w = rule
    k = 0.5 * (kT - kL) * z + 0.5 * (kT + kL)
    n, p, q, nn_q = channel(k)
    u = u + (0.5 * (kT - kL) * w * k / p) @ (3.0 * nn_q - q)
    return u / (4.0 * math.pi * mat.rho)


def _uniform_lags(s0, vel):
    """``_oracle_u``'s lags on s(t') = s0 + vel t', from a quadratic.

    With X = x - s(t), the lag tau = t - t' is the positive root of tau^2
    (1 - k^2 V^2) - 2 k^2 (X.V) tau - k^2 |X|^2 = 0. Near-sonic sources
    need it: 0.999 cT ahead of the source, a Newton root is good to only
    about 1e-10.
    """

    def lags(x, t, k):
        X = x - s0 - vel * t
        xv, xx, vv = X @ vel, X @ X, vel @ vel
        a = 1.0 - k * k * vv
        tp = t - (k * k * xv + np.sqrt(k ** 4 * xv * xv + a * k * k * xx)) / a
        return tp, s0 + np.multiply.outer(tp, vel), np.broadcast_to(vel, (k.size, 3))

    return lags


def _newton_lags(amp, omega, phase, max_iter=20):
    """``_oracle_u``'s lags on s(t') = amp sin(omega t' + phase) (static if amp = 0).

    Newton steps on t - t' - k R(t') = 0 from t - k |x - s(t)|, in complex
    arithmetic, until each step is below 1e-14 of |t| + |t - t'|; raises
    RetardedConvergenceError after ``max_iter`` steps.
    """

    def path(tp):
        ph = omega * tp + phase
        return np.multiply.outer(np.sin(ph), amp), np.multiply.outer(omega * np.cos(ph), amp)

    def lags(x, t, k):
        rvec = x - path(t)[0]
        tp = t - k * np.sqrt(rvec @ rvec)
        for _ in range(max_iter):
            s, vel = path(tp)
            rvec = x - s
            r = np.sqrt(np.einsum("ni,ni->n", rvec, rvec))
            step = (t - tp - k * r) / (1.0 - k * np.einsum("ni,ni->n", rvec, vel) / r)
            tp = tp + step
            if np.all(np.abs(step) <= 1e-14 * (abs(t) + np.abs(t - tp))):
                return (tp, *path(tp))
        raise RetardedConvergenceError(f"oracle lags did not converge in {max_iter} Newton steps")

    return lags


def _oracle_fields(mat, lags, force, x, t, n_gauss):
    """u, beta and v of ``_oracle_u``; beta and v by complex step.

    beta_ik = Im u(x + i h e_k, t) / h and v = Im u(x, t + i h) / h. With h
    = 1e-30 nothing is subtracted, so both are as accurate as u. The five
    evaluations share one n_gauss-point rule, which takes seconds to build
    at n_gauss in the thousands.
    """
    h = 1e-30
    rule = np.polynomial.legendre.leggauss(n_gauss)
    d = np.array([_oracle_u(mat, lags, force, x + 1j * h * step[:3], t + 1j * h * step[3],
                            rule).imag / h
                  for step in np.eye(4)])
    return _oracle_u(mat, lags, force, x, t, rule), d[:3].T, d[3]


def _oracle_devs(mat, traj, prof, lags, force, x, t):
    """Deviations of u, beta and v of ``lw_fields`` from the GL64 ``_oracle_fields``.

    Each field is measured against its own largest component, and
    ``gl64_vs_gl128`` holds the oracle's own deviation from GL128.
    """
    fs = lw_fields(mat, traj, prof, x, t, rel_tol=1e-12)
    ref, fine = (_oracle_fields(mat, lags, force, x, t, n) for n in (64, 128))
    dev = {name: _rel_err(got, want)
           for name, got, want in zip(("u", "beta", "v"), (fs.u, fs.beta, fs.v), ref)}
    return {**dev, "gl64_vs_gl128": max(_rel_err(f, r) for f, r in zip(fine, ref))}


def _oracle_check(name, cases, tolerance):
    """Report ``name`` on cases (label, (mat, traj, prof, lags, force, x, t)).

    Each case's details are its label and its ``_oracle_devs``; the
    largest of all deviations, the oracle's own included, is the error.
    """
    details, worst = [], 0.0
    for label, case in cases:
        dev = _oracle_devs(*case)
        worst = max(worst, *dev.values())
        details.append({**label, **dev})
    return _report(name, worst, tolerance, len(details), details)


def _uniform_cases(seed, n_cases):
    """The cases of ``check_uniform_motion_oracle``, labelled by speed and force.

    Each speed draws the same n_cases observers per force from ``seed``: a
    constant force seen at most 70 deg off the line of motion, then a
    sinusoid q0 sin(1.3 t' + 0.4) seen from behind the source (110-180 deg).
    """
    mat = make_material_poisson(rho=1.0, mu=1.0, nu=0.25)
    for frac in (0.3, 0.95, 0.99, 0.999):
        rng = np.random.default_rng(seed)
        for sinusoid in (False, True):
            for _ in range(n_cases):
                d, e = np.linalg.qr(rng.normal(size=(3, 2)))[0].T
                vel = frac * mat.cT * d
                if sinusoid:
                    theta = rng.uniform(11 * math.pi / 18, math.pi)
                else:
                    theta = rng.uniform(0.0, 7 * math.pi / 18)
                    theta = rng.choice([theta, math.pi - theta])
                X = rng.uniform(0.5, 2.5) * (math.cos(theta) * d + math.sin(theta) * e)
                s0, q, t = rng.normal(size=3), rng.normal(size=3), rng.uniform(-1.0, 1.0)
                if sinusoid:
                    prof, force = sinusoid_force(q, 1.3, 0.4), _sinusoid_history(q, 1.3, 0.4)
                else:
                    prof, force = constant_force(q), lambda tp, q=q: q
                yield {"speed": frac, "force": prof.kind}, (
                    mat, uniform_trajectory(s0, vel), prof, _uniform_lags(s0, vel), force,
                    s0 + vel * t + X, t)


def check_uniform_motion_oracle(seed=0, n_cases=5, tolerance=1e-11):
    """u, beta and v of a uniformly moving force against a closed form.

    The oracle uses neither the retarded-time solver, nor the adaptive
    engine, nor ``lw_fields``: its beta and v are complex-step derivatives
    of the closed-form u (see ``_oracle_fields``). So it judges all
    three directly, at 0.3, 0.95, 0.99 and 0.999 cT, for a constant force
    and for q0 sin(1.3 t' + 0.4), whose rate parts the constant force
    leaves unchecked (``_uniform_cases``). Its integrand is
    analytic on [1/cL, 1/cT] with a branch point at k^2 = 1 / (V^2 sin^2
    theta), theta the angle between X and V. Near 0.999 cT an observer
    abeam of the source (theta = 90 deg) brings it within 1e-3 of 1/cT,
    where GL64 is off by 5e-9; observers at most 70 degrees off the line
    of motion keep it clear, so GL64 is converged, and GL128 checks that.
    The sinusoid observers are behind the source (theta in [110, 180]
    deg). Ahead of it, near 0.999 cT, the history window spans hundreds
    of force periods: the oracle needs thousands of nodes there (GL4000),
    and ``lw_fields``, which integrates such a window over retarded time,
    meets it to about 5e-11, above this check's tolerance
    (``test_near_sonic_sinusoid_ahead_of_the_source`` holds one such call
    at 1e-10).
    """
    return _oracle_check("uniform_motion_oracle", _uniform_cases(seed, n_cases), tolerance)


def _bump_history(q0, center, half_width):
    """Q(t') of ``bump_force``; raises at a t' outside the support, where Q is not analytic."""

    def force(tp):
        xi = (tp - center) / half_width
        if np.any(np.abs(xi.real) >= 1.0):
            raise ValueError("the history window [t_T, t_L] leaves the bump's support")
        return np.multiply.outer(np.exp(1.0 - 1.0 / (1.0 - xi * xi)), q0)

    return force


def _pulse_cases(seed):
    """Bump forces on a static, a uniform (0.4 cT) and three oscillatory worldlines.

    Each case is seen +-0.2 around the T arrival of the pulse peak, and
    labelled by its worldline.
    """
    rng = np.random.default_rng(seed)
    cases = []
    mat = make_material(1.0, 1.0, 1.0)
    for i in range(5):
        if i == 0:
            traj, lags = static_trajectory(np.zeros(3)), _newton_lags(np.zeros(3), 1.0, 0.0)
        elif i == 1:
            vel = 0.4 * _random_unit(rng)
            traj, lags = uniform_trajectory(np.zeros(3), vel), _uniform_lags(np.zeros(3), vel)
        else:
            traj, _, lags = _random_oscillatory(rng, mat, vfrac=0.6)  # accelerating
        q0 = 2.0 * _random_unit(rng)
        prof = bump_force(q0, center=1.0, half_width=1.0)
        x = rng.uniform(1.0, 2.0) * _random_unit(rng)
        r_peak = float(np.linalg.norm(x - traj.eval(prof.t_on + 1.0)[0]))
        t = prof.t_on + 1.0 + r_peak / mat.cT + rng.uniform(-0.2, 0.2)
        cases.append(({"worldline": traj.kind},
                      (mat, traj, prof, lags, _bump_history(q0, 1.0, 1.0), x, t)))
    return cases


def check_pulse_oracle(seed=0, tolerance=1e-11):
    """u, beta and v of ``_pulse_cases`` against the closed form.

    On the oscillatory worldlines this judges the acceleration (radiation)
    parts of beta and v at their size. A case whose history window [t_T,
    t_L] leaves the bump's support raises ValueError.
    """
    return _oracle_check("pulse_oracle", _pulse_cases(seed), tolerance)


def check_smooth_oracle(seed=0, n_cases=50, tolerance=1e-11):
    """u, beta and v of ``_smooth_case`` draws against the closed form.

    Sinusoid and constant forces on oscillatory worldlines up to 0.8 cT,
    the draws of ``check_navier_residual_3d``: the acceleration and rate
    parts of beta and v enter at their size.
    """
    rng = np.random.default_rng(seed)
    cases = (_smooth_case(rng)[0] for _ in range(n_cases))
    return _oracle_check("smooth_oracle", (({"force": case[2].kind}, case) for case in cases),
                         tolerance)


def check_radiation_farfield(seed=0, tolerance=1e-2):
    """1/R decay of the acceleration part: RMS ratio R -> 2R equals 1/2, R = 60.

    The source oscillates at amplitude 0.08 (so R/amplitude >= 750) and
    the RMS runs over 16 phases of one full period, which is insensitive
    to retarded phase alignment between the two radii.
    """
    rng = np.random.default_rng(seed)
    mat = make_material(1.0, 1.0, 1.0)
    omega = 6.0
    traj = oscillatory_trajectory(np.zeros(3), [0.08, 0.0, 0.0], omega)
    prof = constant_force([0.0, 0.0, 1.0])
    nhat = _random_unit(rng)
    rel_tol = 1e-8
    period = 2.0 * math.pi / omega
    radius, n_phases = 60.0, 16

    def rms(radius_):
        vals = []
        for j in range(n_phases):
            t = 10.0 + period * j / n_phases
            s = lw_fields(mat, traj, prof, radius_ * nhat, t, rel_tol=rel_tol)
            vals.append(float(np.linalg.norm(s.beta_parts["acc"])))
        return math.sqrt(float(np.mean(np.square(vals))))

    ratio = rms(2.0 * radius) / rms(radius)
    return _report("radiation_farfield", abs(ratio - 0.5) / 0.5, tolerance, 2 * n_phases,
                   details=[{"ratio": ratio, "radius": radius}])


def check_antiplane_closed_form(seed=0, n_cases=100, tol_u=1e-8, tol_deriv=1e-6):
    """Static anti-plane line force against the arccosh closed form."""
    rng = np.random.default_rng(seed)
    err_u = err_d = 0.0
    for _ in range(n_cases):
        mat = _random_material(rng)
        traj = static_trajectory(np.zeros(3))
        q0 = 2.0 * math.pi * mat.rho * mat.cT ** 2
        prof = step_force([0.0, 0.0, q0], t_on=0.0)
        r = rng.uniform(0.3, 3.0)
        arg = math.cosh(rng.uniform(0.2, 2.5))
        t = r * arg / mat.cT
        phi = rng.uniform(0.0, 2.0 * math.pi)
        x = r * np.array([math.cos(phi), math.sin(phi)])
        fs = antiplane_fields(mat, traj, prof, x, t, rel_tol=1e-11)
        u_exact = math.acosh(mat.cT * t / r)
        err_u = max(err_u, abs(fs.u - u_exact) / abs(u_exact))
        root = math.sqrt((mat.cT * t) ** 2 - r * r)
        v_exact = mat.cT / root
        dr_exact = -mat.cT * t / (r * root)
        b_exact = dr_exact * x / r
        scale = max(abs(v_exact), float(np.max(np.abs(b_exact))))
        err_d = max(err_d, abs(fs.v - v_exact) / scale)
        err_d = max(err_d, float(np.max(np.abs(fs.beta - b_exact))) / scale)
    return [
        _report("antiplane_closed_form_u", err_u, tol_u, n_cases),
        _report("antiplane_closed_form_derivs", err_d, tol_deriv, n_cases),
    ]


def check_line_descent(seed=0, n_cases=6, tolerance=1e-9):
    """Both line-force evaluators against the point force integrated over x3 (``_descent_devs``).

    Bump forces with all three components, on an in-plane oscillatory
    worldline (even cases) or a static one, seen at r in [0.8, 2] while
    the T retarded time lies inside the bump: the anti-plane field has
    arrived, and the in-plane L segment carries force. A step force stays
    out: its 3D beta and v carry delta fronts at the switch-on shells.
    """
    rng = np.random.default_rng(seed)
    details = []
    for i in range(n_cases):
        mat = _random_material(rng)
        traj = (_random_oscillatory(rng, mat, vfrac=0.5, dim=2)[0] if i % 2 == 0
                else static_trajectory(np.zeros(3)))
        prof = bump_force(rng.normal(size=3), center=1.0, half_width=1.0)
        r = rng.uniform(0.8, 2.0)
        t = prof.t_on + r / mat.cT + rng.uniform(0.5, 1.5)
        details += _descent_devs(mat, traj, prof, r * _random_unit(rng, dim=2), t)
    worst = max(max(d.values()) for d in details)
    return _report("line_descent", worst, tolerance, n_cases, details)


_SPLINE_KNOTS = np.linspace(0.0, 8.0, 17)


def _inplane_cases(rng, n_cases):
    """The in-plane cases of ``check_inplane_velocity``, drawn from ``rng``.

    Each case gives a material, an in-plane force direction q0, an
    observer x at 0.8 <= r <= 2 with two times for a static step force
    (behind both fronts, then midway through the P-S shell), and a moving
    source (traj, prof, x, t): an oscillatory worldline, on odd cases the
    cubic spline through its positions, with a step or a bump force,
    seen from r = 1.5 in the direction of x at t in [4, 6]. On the spline
    t then moves to the middle of the widest gap between the fronts of
    its knots near t.
    """
    for i in range(n_cases):
        mat = _random_material(rng)
        q0 = rng.normal(size=3)
        q0[2] = 0.0
        x = rng.uniform(0.8, 2.0) * _random_unit(rng, dim=2)
        r = float(np.linalg.norm(x))
        static_ts = (r / mat.cT + rng.uniform(0.5, 2.0), 0.5 * r * (1.0 / mat.cL + 1.0 / mat.cT))
        traj = _random_oscillatory(rng, mat, vfrac=0.5)[0]
        if i % 2:
            traj = tabulated_trajectory(_SPLINE_KNOTS, traj.eval(_SPLINE_KNOTS)[0])
        prof = step_force(q0, t_on=0.0) if i % 4 < 2 else bump_force(q0, 1.0, 1.0)
        x_m, t_m = 1.5 * x / r, rng.uniform(4.0, 6.0)
        if traj.knots:
            t_m = _between_knot_fronts(mat, traj, x_m, t_m)
        yield mat, q0, x, static_ts, (traj, prof, x_m, t_m)


def check_inplane_velocity(seed=0, n_cases=8, tolerance=1e-8):
    """Analytic in-plane velocity against a closed form and differences.

    A static step force has v = G(x - s0, t - t_on) q0, the impulsive
    plane-strain Green tensor, and u the closed-form time integral of G
    (``_inplane_static_step``); both are checked behind both fronts and
    inside the P-S shell, in the ``inplane_velocity_closed_form`` report.
    On moving sources (oscillatory and tabulated
    worldlines, step and bump forces) v is compared with Richardson
    differences of the displacement, one ``inplane_displacement`` call
    per case; their error sets that report's tolerance, 1e-6.
    """
    rng = np.random.default_rng(seed)
    err_static = err_fd = 0.0
    for mat, q0, x, static_ts, (traj, prof, x_m, t_m) in _inplane_cases(rng, n_cases):
        for t in static_ts:
            fs = inplane_fields(mat, static_trajectory(np.zeros(3)), step_force(q0, t_on=0.0),
                                x, t, rel_tol=1e-10)
            u, v = _inplane_static_step(mat, x, t)
            err_static = max(err_static, _rel_err(fs.u, u @ q0[:2]), _rel_err(fs.v, v @ q0[:2]))
        v = inplane_fields(mat, traj, prof, x_m, t_m, rel_tol=1e-10).v
        fd = fd_consistency(
            lambda xs, ts: inplane_displacement(mat, traj, prof, xs, ts, rel_tol=1e-12),
            x_m, t_m, 1e-3,
        )
        err_fd = max(err_fd, _rel_err(v, fd.v_fd))
    return [
        _report("inplane_velocity_closed_form", err_static, tolerance, 2 * n_cases),
        _report("inplane_velocity_fd", err_fd, 1e-6, n_cases),
    ]


def _between_knot_fronts(mat, traj, x, t):
    """The middle of the widest gap between spline-knot fronts arriving at x within t +- 0.5.

    A cubic spline's jerk jumps at every knot, so each knot sends out
    weak P and S fronts, across which the fields are not smooth enough
    for a difference stencil.
    """
    knots = np.array(traj.knots)
    r = np.linalg.norm(x - traj.eval(knots)[0][:, :2], axis=1)
    fronts = np.concatenate([knots + r / mat.cL, knots + r / mat.cT])
    ends = np.sort(np.append(fronts[np.abs(fronts - t) < 0.5], [t - 0.5, t + 0.5]))
    k = np.argmax(np.diff(ends))
    return 0.5 * (ends[k] + ends[k + 1])


def check_navier_residual_2d(seed=0, n_cases=8, tolerance=1e-4):
    """Plane-strain equation-of-motion residual of the in-plane line force.

    The moving sources of ``check_inplane_velocity``: u from one
    ``inplane_displacement`` call per case, v from ``inplane_fields``,
    stencil step 0.01.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for mat, _, _, _, (traj, prof, x, t) in _inplane_cases(rng, n_cases):

        def u_fn(xs, ts):
            return inplane_displacement(mat, traj, prof, xs, ts, rel_tol=1e-12)

        def v_fn(xs, ts):
            return np.array([inplane_fields(mat, traj, prof, xx, tt, rel_tol=1e-12).v
                             for xx, tt in zip(xs, ts)])

        worst = max(worst, navier_residual(mat, u_fn, v_fn, x, t, 0.01).rel_residual)
    return _report("navier_residual_2d", worst, tolerance, n_cases)


def check_afterglow(seed=0, tolerance=1e-12):
    """2D fields persist after the trailing front; 3D fields return to zero."""
    mat = make_material(1.0, 1.0, 1.0)
    traj = static_trajectory(np.zeros(3))
    prof = bump_force([1.0, 0.8, 1.5], center=1.0, half_width=1.0)
    r = 1.0
    x2 = np.array([r, 0.0])
    x3 = np.array([r, 0.0, 0.0])
    # trailing transversal front passes at t_off + r/cT = 3
    window = [3.2, 4.0, 6.0, 10.0]
    q_scale = float(np.max(np.abs(prof.eval(1.0)[0])))
    err = 0.0
    details = []
    for t in window:
        u3 = antiplane_fields(mat, traj, prof, x2, t).u
        u_in = inplane_displacement(mat, traj, prof, x2, t)
        u3d = lw_fields(mat, traj, prof, x3, t).u
        tail_2d = min(abs(u3), float(np.min(np.abs(u_in)))) / q_scale
        gone_3d = float(np.max(np.abs(u3d))) / q_scale
        if tail_2d <= tolerance:  # 2D afterglow must persist
            err = max(err, 1.0)
        err = max(err, gone_3d)  # 3D field must vanish exactly
        details.append({"t": t, "u3_2d": u3, "u3d_max": gone_3d})
    return _report("afterglow_huygens", err, tolerance, len(window), details)


def _rotation_matrix(rng):
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def check_equivariance(seed=0, n_cases=8, tolerance=1e-10):
    """Rotation and translation equivariance of the 3D and 2D evaluators."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    rel_tol = 1e-12
    for _ in range(n_cases):
        mat = _random_material(rng)
        omega = rng.uniform(0.5, 1.5)
        speed = rng.uniform(0.2, 0.6) * mat.cT
        amp = (speed / omega) * _random_unit(rng)
        center = rng.normal(scale=0.3, size=3)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        q0 = rng.normal(size=3)
        omega_f = rng.uniform(0.5, 1.5)
        x = rng.uniform(1.5, 3.0) * _random_unit(rng)
        t = rng.uniform(0.0, 2.0)

        traj = oscillatory_trajectory(center, amp, omega, phase)
        prof = sinusoid_force(q0, omega_f)
        s0 = lw_fields(mat, traj, prof, x, t, rel_tol=rel_tol)

        rot = _rotation_matrix(rng)
        traj_r = oscillatory_trajectory(rot @ center, rot @ amp, omega, phase)
        prof_r = sinusoid_force(rot @ q0, omega_f)
        s1 = lw_fields(mat, traj_r, prof_r, rot @ x, t, rel_tol=rel_tol)
        scale = max(float(np.max(np.abs(s0.u))), float(np.max(np.abs(s0.beta))),
                    float(np.max(np.abs(s0.v))))
        worst = max(worst, float(np.max(np.abs(s1.u - rot @ s0.u))) / scale)
        worst = max(worst, float(np.max(np.abs(s1.beta - rot @ s0.beta @ rot.T))) / scale)
        worst = max(worst, float(np.max(np.abs(s1.v - rot @ s0.v))) / scale)

        # space-time translation
        dx = rng.normal(scale=1.0, size=3)
        dt = rng.uniform(-1.0, 1.0)
        traj_s = oscillatory_trajectory(center + dx, amp, omega, phase - omega * dt)
        prof_s = sinusoid_force(q0, omega_f, phase=-omega_f * dt)
        s2 = lw_fields(mat, traj_s, prof_s, x + dx, t + dt, rel_tol=rel_tol)
        worst = max(worst, float(np.max(np.abs(s2.u - s0.u))) / scale)
        worst = max(worst, float(np.max(np.abs(s2.beta - s0.beta))) / scale)
        worst = max(worst, float(np.max(np.abs(s2.v - s0.v))) / scale)

        # 2D in-plane rotation of the anti-plane and in-plane configurations
        ang = rng.uniform(0.0, 2.0 * math.pi)
        rot2 = np.array([[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]])
        rot3 = np.eye(3)
        rot3[:2, :2] = rot2
        amp2, center2, q2 = (np.append(v[:2], 0.0) for v in (amp, center, q0))
        traj2 = oscillatory_trajectory(center2, amp2, omega, phase)
        prof2 = step_force(q2, t_on=0.0)
        traj2r = oscillatory_trajectory(rot3 @ center2, rot3 @ amp2, omega, phase)
        prof2r = step_force(rot3 @ q2, t_on=0.0)
        x2 = x[:2]
        t2 = t + 4.0
        u_in = inplane_displacement(mat, traj2, prof2, x2, t2)
        u_in_r = inplane_displacement(mat, traj2r, prof2r, rot2 @ x2, t2)
        scale2 = max(float(np.max(np.abs(u_in))), 1e-12)
        worst = max(worst, float(np.max(np.abs(u_in_r - rot2 @ u_in))) / scale2)
    return _report("equivariance", worst, tolerance, n_cases)


def check_linearity(seed=0, n_cases=8, tolerance=1e-10):
    """Field linearity in the force strength, 3D and 2D paths."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    rel_tol = 1e-12
    for _ in range(n_cases):
        mat = _random_material(rng)
        traj = _random_oscillatory(rng, mat, vfrac=0.6)[0]
        q1 = rng.normal(size=3)
        q2 = rng.normal(size=3)
        a, b = rng.uniform(-2.0, 2.0, size=2)
        om = rng.uniform(0.5, 1.5)
        x = rng.uniform(1.5, 3.0) * _random_unit(rng)
        t = rng.uniform(0.0, 2.0)
        s1 = lw_fields(mat, traj, sinusoid_force(q1, om), x, t, rel_tol=rel_tol)
        s2 = lw_fields(mat, traj, sinusoid_force(q2, om), x, t, rel_tol=rel_tol)
        s12 = lw_fields(mat, traj, sinusoid_force(a * q1 + b * q2, om), x, t, rel_tol=rel_tol)
        for attr in ("u", "beta", "v"):
            lin = a * getattr(s1, attr) + b * getattr(s2, attr)
            got = getattr(s12, attr)
            scale = max(float(np.max(np.abs(lin))), 1e-12)
            worst = max(worst, float(np.max(np.abs(got - lin))) / scale)
        # anti-plane path
        q1z, q2z = rng.normal(size=2)
        x2 = x[:2]
        t2 = t + 4.0
        u_a, u_b, u_ab = (
            antiplane_fields(mat, traj, step_force([0, 0, q], 0.0), x2, t2).u
            for q in (q1z, q2z, a * q1z + b * q2z)
        )
        scale = max(abs(a * u_a + b * u_b), 1e-12)
        worst = max(worst, abs(u_ab - (a * u_a + b * u_b)) / scale)
    return _report("linearity", worst, tolerance, n_cases)


CHECKS = {
    "retarded_solver": check_retarded_solver,
    "stokes_limit": check_stokes_limit,
    "kelvin_limit": check_kelvin_limit,
    "smooth_oracle": check_smooth_oracle,
    "navier_residual_3d": check_navier_residual_3d,
    "navier_residual_2d": check_navier_residual_2d,
    "pulse_oracle": check_pulse_oracle,
    "radiation_uniform_zero": check_radiation_uniform_zero,
    "radiation_farfield": check_radiation_farfield,
    "uniform_motion_oracle": check_uniform_motion_oracle,
    "antiplane_closed_form": check_antiplane_closed_form,
    "line_descent": check_line_descent,
    "inplane_velocity": check_inplane_velocity,
    "afterglow_huygens": check_afterglow,
    "equivariance": check_equivariance,
    "linearity": check_linearity,
}

# sample counts of the check suite (the CLI validation gate); acceptance
# tests call the check functions directly with their full criterion sizes
_QUICK_SIZES = {
    "retarded_solver": {"n_cases": 200},
    "stokes_limit": {"n_cases": 8},
    "kelvin_limit": {"n_cases": 8},
    "smooth_oracle": {"n_cases": 8},
    "navier_residual_3d": {"n_cases": 6},
    "navier_residual_2d": {"n_cases": 4},
    "radiation_uniform_zero": {"n_cases": 4},
    "antiplane_closed_form": {"n_cases": 20},
    "line_descent": {"n_cases": 2},
    "inplane_velocity": {"n_cases": 4},
    "equivariance": {"n_cases": 3},
    "linearity": {"n_cases": 3},
}


def run_check_suite(config=None, names=None, seed=None):
    """Run the named verification checks; deterministic for a given seed.

    ``config`` may be a RunConfig (supplies the seed default); the first
    of its ``motion_violations`` is raised before any check runs.
    ``names=None`` runs everything, an explicit empty list runs nothing.
    """
    if config is not None:
        cfg, line = config, config.dimension.startswith("2d")
        for error, message in motion_violations(cfg.trajectory, cfg.force, cfg.material.cT, line):
            raise error(message)
        if seed is None:
            seed = config.seed
    seed = 0 if seed is None else int(seed)
    if names is None:
        names = list(CHECKS)
    unknown = [n for n in names if n not in CHECKS]
    if unknown:
        raise ConfigError([f"unknown check: {n}" for n in unknown])
    reports = []
    for name in names:
        result = CHECKS[name](seed=seed, **_QUICK_SIZES.get(name, {}))
        reports.extend(result if isinstance(result, list) else [result])
    reports.sort(key=lambda r: r.name)
    return reports
