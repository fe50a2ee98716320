"""Independent oracles and consistency checks for the field evaluators.

Three kinds of evidence are produced here, none of which share code with
the production evaluation paths they judge:

* equation-of-motion residuals: the displacement family must satisfy the
  isotropic elastodynamic balance rho*dv/dt = mu*Lap(u) +
  (lam+mu)*grad(div u) away from the source, tested with 4th-order
  stencils in 3D and in 2D plane strain, on batched fields, (xs (n,
  dim), ts (n,)) -> (n, m), each stencil in one call. These are the only
  finite differences here;
* the method of descent: a line force along x3 is the point force spread
  uniformly over x3, so one ``lw_fields_batch`` call on a fixed
  Gauss-Legendre rule in x3 judges both 2D evaluators;
* closed forms, each term at the retarded lag of its slowness: from a
  quadratic for uniform motion, from a Newton iteration of the oracle's
  own for an oscillatory (or static) worldline, so neither the
  retarded-time solver nor the adaptive engine enters them. For a point
  force, the far T and L terms plus a slowness integral on a fixed
  Gauss-Legendre rule; for a line force, one history integral per wave
  speed over the motion since switch-on, on a fixed rule in w = sqrt(b -
  t'). Distortions and velocities are complex-step derivatives, so no
  field kernel of the evaluators enters either. In 3D the same
  derivatives through lags whose velocity is real miss every term of
  the source acceleration, which leaves the acceleration (radiation)
  parts to be judged at their own size. Every closed-form check is a
  list of cases that ``_oracle_check`` judges.

The retarded-time solver is judged by its own residual, with the
worldline's positions taken afresh. ``run_check_suite`` packages the
module invariants into named, deterministic, seedable checks and
returns CheckReport records that serialize to JSON.
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
    polynomial_force,
    retarded_time,
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
    "NavierResult",
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
# equation-of-motion residuals

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
# method of descent

def _line_devs(mat, traj, prof, x, t, u, beta, v):
    """Deviations of both line-force evaluators at (x, t) from reference fields.

    ``u`` (3,), ``beta`` (3, 2) and ``v`` (3,) hold the in-plane rows 0
    and 1 and the anti-plane row 2. Keys ``inplane_u`` .. ``antiplane_v``
    hold each field of each evaluator against its own largest component.
    """
    dev = {}
    for name, rows, evaluate in (("inplane", slice(0, 2), inplane_fields),
                                 ("antiplane", 2, antiplane_fields)):
        line = evaluate(mat, traj, prof, x, t, rel_tol=1e-12)
        dev.update({f"{name}_{key}": _rel_err(ref[rows], getattr(line, key))
                    for key, ref in (("u", u), ("beta", beta), ("v", v))})
    return dev


def _descent_devs(mat, traj, prof, xs, ts):
    """Per event, the deviations of both line-force evaluators from the method of descent.

    The point force's fields at (xs[i], x3, ts[i]) are integrated over |x3|
    <= cL (ts[i] - t_on), beyond which no signal has arrived, on 200 GL16
    panels in one ``lw_fields_batch`` call and compared by ``_line_devs``;
    ``beta_3`` holds the integral of d_3 u (which vanishes) against the
    largest beta.
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
    return [{"beta_3": _rel_err(beta[:, 2], 0.0, floor=float(np.max(np.abs(beta[:, :2])))),
             **_line_devs(mat, traj, prof, x, t, u, beta[:, :2], v)}
            for x, t, u, beta, v in zip(xs, ts, *integrals)]


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
    """Residual of the retarded-time solve, plus causality, monotonicity and Doppler positivity.

    Each case solves three slownesses in [1/cL, 1/cT] in one call, on a
    static, uniform or oscillatory worldline, or on the cubic spline
    through 17 knots of an oscillatory one. The residual |t - t' -
    kappa |x - s(t')|| / max(1, t - t') takes s(t') from the worldline's
    own ``eval``, not from the solver's state. Rows whose root precedes
    the first knot come back masked and are skipped.
    """
    rng = np.random.default_rng(seed)
    mat = make_material(1.0, 1.0, 1.0)
    knots = np.linspace(-4.0, 4.0, 17)
    worst = 0.0
    for _ in range(n_cases):
        kind = rng.integers(4)
        if kind == 0:
            traj = static_trajectory(rng.normal(scale=0.5, size=3))
        elif kind == 1:
            traj = uniform_trajectory(
                rng.normal(scale=0.5, size=3), 0.8 * mat.cT * rng.uniform(0.1, 1.0) * _random_unit(rng)
            )
        else:
            traj = _random_oscillatory(rng, mat)[0]
            if kind == 3:  # the cubic spline through its positions at the knots
                traj = tabulated_trajectory(knots, traj.eval(knots)[0])
        x = rng.uniform(0.5, 5.0) * _random_unit(rng)
        t = rng.uniform(-2.0, 4.0)
        kappas = np.sort(rng.uniform(1.0 / mat.cL, 1.0 / mat.cT, size=3))
        st = retarded_time(traj, x, t, kappas)
        tp, lag = st.t_ret[st.valid], t - st.t_ret[st.valid]
        r = np.linalg.norm(x - traj.eval(tp)[0], axis=1)
        residual = np.abs(lag - kappas[st.valid] * r) / np.maximum(1.0, lag)
        worst = max(worst, np.max(residual, initial=0.0),
                    np.max(np.diff(tp), initial=0.0))  # t' must fall as the slowness rises
        if np.any(st.pc[st.valid] <= 0.0) or np.any(lag <= 0.0):
            worst = max(worst, 1.0)
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
    about 1e-10. ``lags.ds(b, h)`` is s(b) - s(b - h) = vel h.
    """

    def lags(x, t, k):
        X = x - s0 - vel * t
        xv, xx, vv = X @ vel, X @ X, vel @ vel
        a = 1.0 - k * k * vv
        tp = t - (k * k * xv + np.sqrt(k ** 4 * xv * xv + a * k * k * xx)) / a
        return tp, s0 + np.multiply.outer(tp, vel), np.broadcast_to(vel, (k.size, 3))

    lags.ds = lambda b, h: np.multiply.outer(h, vel)
    return lags


def _newton_lags(amp, omega, phase, max_iter=20):
    """``_oracle_u``'s lags on s(t') = amp sin(omega t' + phase) (static if amp = 0).

    Newton steps on t - t' - k R(t') = 0 from t - k |x - s(t)|, in complex
    arithmetic, until each step is below 1e-14 of |t| + |t - t'|; raises
    RetardedConvergenceError after ``max_iter`` steps. ``lags.ds(b, h)``
    is s(b) - s(b - h) by sum-to-product, so it keeps its relative
    accuracy as h -> 0.
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

    def ds(b, h):
        mid = omega * (b - 0.5 * h) + phase
        return np.multiply.outer(2.0 * np.sin(0.5 * omega * h) * np.cos(mid), amp)

    lags.ds = ds
    return lags


def _complex_steps(u, x, t, axes):
    """beta (m, len(axes)) and v (m,) of a closed form u(x, t) (m,) by complex steps.

    beta_ik = Im u(x + i h e_k, t) / h for k in ``axes`` and v = Im u(x, t
    + i h) / h. With h = 1e-30 nothing is subtracted, so both are as
    accurate as u.
    """
    h = 1e-30
    d = np.array([u(x + 1j * h * step[:3], t + 1j * h * step[3]).imag / h
                  for step in np.eye(4)[[*axes, 3]]])
    return d[:-1].T, d[-1]


def _oracle_fields(mat, lags, force, x, t, n_gauss):
    """u, beta and v of ``_oracle_u``, then the acceleration parts of beta and v.

    beta and v are ``_complex_steps``. Through lags whose velocity is
    real, the complex step drops every term of dV/dt' = A: beta and v
    less those are the acceleration (radiation) parts, exactly zero for
    uniform motion. The nine evaluations share one n_gauss-point rule,
    which takes seconds to build at n_gauss in the thousands.
    """
    rule = np.polynomial.legendre.leggauss(n_gauss)

    def frozen(x, t, k):
        tp, s, vel = lags(x, t, k)
        return tp, s, vel.real

    (beta, v), (beta_frozen, v_frozen) = (
        _complex_steps(lambda x, t: _oracle_u(mat, lg, force, x, t, rule), x, t, range(3))
        for lg in (lags, frozen))
    return (_oracle_u(mat, lags, force, x, t, rule), beta, v, beta - beta_frozen,
            v - v_frozen)


def _oracle_devs(mat, traj, prof, lags, force, x, t):
    """Deviations of ``lw_fields`` from the GL64 ``_oracle_fields``.

    u, beta and v, and the acceleration parts ``beta_acc`` and ``v_acc``,
    are each measured against their own largest component, so an
    all-zero oracle part (uniform motion) demands an exact zero.
    ``gl64_vs_gl128`` holds the oracle's own deviation from GL128.
    """
    fs = lw_fields(mat, traj, prof, x, t, rel_tol=1e-12)
    ref, fine = (_oracle_fields(mat, lags, force, x, t, n) for n in (64, 128))
    got = (fs.u, fs.beta, fs.v, fs.beta_parts["acc"], fs.v_parts["acc"])
    dev = {name: _rel_err(g, want)
           for name, g, want in zip(("u", "beta", "v", "beta_acc", "v_acc"), got, ref)}
    return {**dev, "gl64_vs_gl128": max(_rel_err(f, r) for f, r in zip(fine, ref))}


def _oracle_check(name, cases, tolerance, devs=_oracle_devs):
    """Report ``name`` on cases (label, (mat, traj, prof, lags, force, x, t)).

    Each case's details are its label and its ``devs``, by default
    ``_oracle_devs``; the largest of all deviations, the oracle's own
    included, is the error.
    """
    details, worst = [], 0.0
    for label, case in cases:
        dev = devs(*case)
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
    three directly, and that their acceleration parts are exactly zero,
    at 0.3, 0.95, 0.99 and 0.999 cT, for a constant force
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

    The acceleration (radiation) parts of beta and v are judged at their
    own size: exactly zero on the static and the uniform worldline. A
    case whose history window [t_T, t_L] leaves the bump's support raises
    ValueError.
    """
    return _oracle_check("pulse_oracle", _pulse_cases(seed), tolerance)


def check_smooth_oracle(seed=0, n_cases=50, tolerance=1e-11):
    """u, beta and v of ``_smooth_case`` draws against the closed form.

    Sinusoid and constant forces on oscillatory worldlines up to 0.8 cT,
    the draws of ``check_navier_residual_3d``: the rate parts of beta and
    v enter at their size, and the acceleration parts are judged at
    their own.
    """
    rng = np.random.default_rng(seed)
    cases = (_smooth_case(rng)[0] for _ in range(n_cases))
    return _oracle_check("smooth_oracle", (({"force": case[2].kind}, case) for case in cases),
                         tolerance)


def _line_u(mat, lags, force, t_on, x, t, rule):
    """u (3,) at (x, t) of a line force Q(t') = ``force(t')`` switched on at t_on.

    The worldline s(t') lies in the (x1, x2) plane, and so does x (x3 =
    0). Rows 0 and 1 are the in-plane displacement, row 2 the anti-plane
    one. Each wave speed with slowness k is one history integral over
    [t_on, b], b its lag from ``lags``, on the fixed Gauss-Legendre
    ``rule`` in w, t' = b - w^2. Per unit t' and with N = n (n.Q), tbar =
    t - t' and S = sqrt(tbar^2 - k^2 |R|^2), the L wave carries (N tbar^2
    / S + (N - Q) S) / |R|^2, the T wave -(N S + (N - Q) tbar^2 / S) /
    |R|^2 in plane and k^2 Q3 / S anti-plane. S^2 is formed from
    ``lags.ds`` = s(b) - s(t') as D (tbar + k |R|), D = w^2 - k (|R| -
    |R(b)|), so nothing cancels as w -> 0. A wave whose lag precedes t_on
    has not arrived. A complex x or t gives the complex-step derivatives.
    """
    kT, kL = 1.0 / mat.cT, 1.0 / mat.cL
    z, weights = rule
    u = np.zeros(3)
    for k, b, s_b, sign in zip((kT, kL), *lags(x, t, np.array([kT, kL]))[:2], (-1.0, 1.0)):
        if b.real <= t_on:
            continue
        span = np.sqrt(b - t_on)
        w = 0.5 * span * (z + 1.0)
        h = w * w
        ds = lags.ds(b, h)
        rvec_b = x - s_b
        rvec = rvec_b + ds
        r2 = np.einsum("ni,ni->n", rvec, rvec)
        r = np.sqrt(r2)
        tbar = t - b + h
        d = h - k * np.einsum("ni,ni->n", ds, 2.0 * rvec_b + ds) / (r + np.sqrt(rvec_b @ rvec_b))
        s = np.sqrt(d * (tbar + k * r))
        q = np.broadcast_to(force(b - h), rvec.shape)
        nn_q = rvec * (np.einsum("ni,ni->n", rvec, q) / r2)[:, None]
        radial, transverse = (tbar * tbar / s, s) if sign > 0 else (s, tbar * tbar / s)
        g = sign * (nn_q * radial[:, None] + (nn_q - q) * transverse[:, None]) / r2[:, None]
        g[:, 2] = k * k * q[:, 2] / s if sign < 0 else 0.0
        u = u + (span * weights * w) @ g
    return u / (2.0 * math.pi * mat.rho)


def _line_fields(mat, lags, force, t_on, x, t, n_gauss):
    """u (3,) of ``_line_u`` on an n_gauss-point rule, then beta (3, 2) and v (3,) of it."""
    rule = np.polynomial.legendre.leggauss(n_gauss)

    def u(x, t):
        return _line_u(mat, lags, force, t_on, x, t, rule)

    return (u(x, t), *_complex_steps(u, x, t, range(2)))


def _line_oracle_devs(mat, traj, prof, lags, force, x, t):
    """``_line_devs`` of both line-force evaluators from the GL64 ``_line_fields``.

    ``gl64_vs_gl128`` holds the oracle's own deviation from GL128.
    """
    ref, fine = (_line_fields(mat, lags, force, prof.t_on, x, t, n) for n in (64, 128))
    return {**_line_devs(mat, traj, prof, x, t, *ref),
            "gl64_vs_gl128": max(_rel_err(f, r) for f, r in zip(fine, ref))}


def _polynomial_history(c):
    """Q(t') = sum_k c[k] t'^k of ``polynomial_force(c, 0.0)`` on its support, complex t' too."""
    return lambda tp: np.polynomial.polynomial.polyval(tp, c).T


def _line_cases(seed, n_cases):
    """The cases of ``check_line_oracle``, labelled by worldline, force and event.

    Source i is static, uniform or oscillatory by i mod 3, in the (x1, x2)
    plane at up to 0.8 cT; a uniform source moves away from the observer
    or abeam of it, so its history keeps clear of it. The force switches
    on at t' = 0: a step on even i, a quadratic on odd i. Each source is
    seen from r in [1, 2] twice: behind the S front and inside the P-S
    shell of the switch-on.
    """
    rng = np.random.default_rng(seed)
    for i in range(n_cases):
        mat = _random_material(rng)
        x = np.append(rng.uniform(1.0, 2.0) * _random_unit(rng, dim=2), 0.0)
        if i % 3 == 0:
            traj, lags = static_trajectory(np.zeros(3)), _newton_lags(np.zeros(3), 1.0, 0.0)
        elif i % 3 == 1:
            angle = math.atan2(x[1], x[0]) + rng.uniform(0.5, 1.5) * math.pi
            speed = rng.uniform(0.1, 0.8) * mat.cT
            vel = speed * np.array([math.cos(angle), math.sin(angle), 0.0])
            traj, lags = uniform_trajectory(np.zeros(3), vel), _uniform_lags(np.zeros(3), vel)
        else:
            traj, _, lags = _random_oscillatory(rng, mat, dim=2)
        c = rng.normal(size=(1 + 2 * (i % 2), 3))
        prof = step_force(c[0], 0.0) if len(c) == 1 else polynomial_force(c, 0.0)
        r_on = float(np.linalg.norm(x - traj.eval(0.0)[0]))
        kL, kT = 1.0 / mat.cL, 1.0 / mat.cT
        for event, t in (("behind", r_on * kT + rng.uniform(0.5, 2.0)),
                         ("shell", r_on * (kL + rng.uniform(0.1, 0.9) * (kT - kL)))):
            yield ({"worldline": traj.kind, "force": prof.kind, "event": event},
                   (mat, traj, prof, lags, _polynomial_history(c), x, t))


def check_line_oracle(seed=0, n_cases=30, tolerance=1e-11):
    """u, beta and v of both line-force evaluators against the closed form ``_line_u``.

    Step and quadratic forces on static, uniform and oscillatory in-plane
    worldlines, behind the S front and inside the P-S shell
    (``_line_cases``): this judges the anti-plane fields, the in-plane
    displacement and velocity, and the in-plane distortion, which
    ``inplane_fields`` takes by Richardson differences.
    """
    return _oracle_check("line_oracle", _line_cases(seed, n_cases), tolerance,
                         devs=_line_oracle_devs)


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
    """The moving in-plane sources of ``check_navier_residual_2d``, drawn from ``rng``.

    Each case (mat, traj, prof, x, t) is an oscillatory worldline, on odd
    cases the cubic spline through its positions, with an in-plane step
    or bump force, seen from r = 1.5 at t in [4, 6]. On the spline t then
    moves to the middle of the widest gap between the fronts of its knots
    near t.
    """
    for i in range(n_cases):
        mat = _random_material(rng)
        q0 = rng.normal(size=3)
        q0[2] = 0.0
        x = rng.uniform(0.8, 2.0) * _random_unit(rng, dim=2)
        x = 1.5 * x / float(np.linalg.norm(x))
        rng.uniform()  # unused, so that each seed keeps naming the cases that tests pin
        traj = _random_oscillatory(rng, mat, vfrac=0.5)[0]
        if i % 2:
            traj = tabulated_trajectory(_SPLINE_KNOTS, traj.eval(_SPLINE_KNOTS)[0])
        prof = step_force(q0, t_on=0.0) if i % 4 < 2 else bump_force(q0, 1.0, 1.0)
        t = rng.uniform(4.0, 6.0)
        if traj.knots:
            t = _between_knot_fronts(mat, traj, x, t)
        yield mat, traj, prof, x, t


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

    The moving sources of ``_inplane_cases``: u from one
    ``inplane_displacement`` call per case, v from ``inplane_fields``,
    stencil step 0.01.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for mat, traj, prof, x, t in _inplane_cases(rng, n_cases):

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
    "uniform_motion_oracle": check_uniform_motion_oracle,
    "line_oracle": check_line_oracle,
    "line_descent": check_line_descent,
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
    "line_oracle": {"n_cases": 4},
    "line_descent": {"n_cases": 2},
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
