"""Independent oracles and consistency checks for the field evaluators.

Four kinds of evidence are produced here, none of which share code with
the production evaluation paths they judge:

* finite-difference consistency: distortion and velocity against
  Richardson-extrapolated central differences of the displacement;
* equation-of-motion residuals: the displacement family must satisfy the
  isotropic elastodynamic balance rho*dv/dt = mu*Lap(u) +
  (lam+mu)*grad(div u) away from the source, tested with 4th-order
  stencils in 3D and in 2D plane strain. Both differencing oracles take
  batched fields, (xs (n, dim), ts (n,)) -> (n, m), and evaluate each
  stencil in one call;
* convolution oracles: the displacement recomputed from the retarded
  Green tensor directly. In 3D the sharp arrival kernels are mollified
  with a Gaussian of width eps and integrated over the source history
  (error is O(eps^2)); in 2D the singular history kernels are integrated
  by QUADPACK's algebraic-weight rule, a genuinely different quadrature
  from the production substitution;
* a closed form: the displacement of a constant or sinusoidal force in
  uniform motion, whose retarded lags solve a quadratic and whose slowness
  integral is a fixed Gauss-Legendre rule, so neither the retarded-time
  solver nor the adaptive engine enters it; its distortion and velocity
  are complex-step derivatives of it, so no field kernel of the evaluator
  enters either. The velocity of a static in-plane step is the impulsive
  plane-strain Green tensor itself.

``run_check_suite`` packages the module invariants into named,
deterministic, seedable checks and returns CheckReport records that
serialize to JSON.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

from .errors import ConfigError, ResolutionError, SingularPointError
from .kinematics import (
    ForceProfile,
    Trajectory,
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
from .quadrature import adaptive_gauss_legendre

__all__ = [
    "CheckReport",
    "FDResult",
    "NavierResult",
    "fd_consistency",
    "navier_residual",
    "mollified_convolution_u",
    "inplane_convolution_u",
    "run_check_suite",
    "CHECKS",
]

_SQRT2PI = math.sqrt(2.0 * math.pi)


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
# convolution oracles

def _gauss_pdf(u, eps):
    return np.exp(-0.5 * (u / eps) ** 2) / (_SQRT2PI * eps)


def mollified_convolution_u(mat: Material, traj: Trajectory, prof: ForceProfile, x, t: float,
                            eps: float, rel_tol: float = 1e-9) -> np.ndarray:
    """Displacement via the pre-sifted Green-tensor convolution.

    Each sharp arrival kernel delta(t - t' - kappa R) is replaced by a
    Gaussian of width ``eps`` and the source-history integral is done
    numerically; the intermediate-slowness moment is reduced to normal
    cdf/pdf terms in closed form. Converges to the sharp evaluator at
    second order in eps. Retarded times enter only to place quadrature
    break points, never the values.
    """
    x = np.asarray(x, dtype=float)
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    if eps < 50.0 * np.finfo(float).eps * max(1.0, abs(t)):
        raise ResolutionError(f"eps={eps:g} is below the resolvable width at t={t:g}")
    kL, kT = 1.0 / mat.cL, 1.0 / mat.cT

    def psi(tp):
        s, _, _ = traj.eval(tp)
        q = prof.eval(tp)[0]
        rv = x - s
        r = np.sqrt(np.einsum("ni,ni->n", rv, rv))
        n = rv / r[:, None]
        nn_q = np.einsum("ni,ni->n", n, q)[:, None] * n
        a = t - tp
        g_t = _gauss_pdf(a - kT * r, eps)
        g_l = _gauss_pdf(a - kL * r, eps)
        z1 = (kL * r - a) / eps
        z2 = (kT * r - a) / eps
        mom = (a * (ndtr(z2) - ndtr(z1))
               + eps * (_gauss_pdf(z1, 1.0) - _gauss_pdf(z2, 1.0))) / (r * r)
        val = (
            (kT * kT * g_t)[:, None] * (q - nn_q)
            + (kL * kL * g_l)[:, None] * nn_q
            + mom[:, None] * (3.0 * nn_q - q)
        )
        return val / r[:, None]

    st_t = retarded_time(traj, x, t, kT)
    st_l = retarded_time(traj, x, t, kL)
    edges = {max(prof.t_on, st_t.t_ret - 60.0 * eps), min(t, st_l.t_ret + 60.0 * eps)}
    lo, hi = min(edges), max(edges)
    if hi <= lo:
        return np.zeros(3)
    for st in (st_t, st_l):
        width = eps * st.r / st.pc
        for off in (-12.0, -3.0, -1.0, 0.0, 1.0, 3.0, 12.0):
            e = st.t_ret + off * width
            if lo < e < hi:
                edges.add(e)
    if math.isfinite(prof.t_off) and lo < prof.t_off < hi:
        edges.add(prof.t_off)
    pts = sorted(edges)
    total = np.zeros(3)
    for a_, b_ in zip(pts[:-1], pts[1:]):
        total += adaptive_gauss_legendre(psi, a_, b_, rel_tol=rel_tol)
    return total / (4.0 * math.pi * mat.rho)


def _green2d_inplane(mat, rvec, tau):
    r2 = float(rvec @ rvec)
    g = np.zeros((2, 2))
    xx = np.outer(rvec, rvec)
    eye = np.eye(2)
    sl2 = tau * tau - r2 / mat.cL ** 2
    st2 = tau * tau - r2 / mat.cT ** 2
    if sl2 > 0.0:
        sl = math.sqrt(sl2)
        g += (xx / (r2 * r2)) * ((2.0 * tau * tau - r2 / mat.cL ** 2) / sl)
        g -= (eye / r2) * sl
    if st2 > 0.0:
        st = math.sqrt(st2)
        g -= (xx / (r2 * r2)) * ((2.0 * tau * tau - r2 / mat.cT ** 2) / st)
        g += (eye / r2) * (tau * tau / st)
    return g / (2.0 * math.pi * mat.rho)


def inplane_convolution_u(mat: Material, traj: Trajectory, prof: ForceProfile, x,
                          t: float) -> np.ndarray:
    """In-plane displacement via QUADPACK algebraic-weight convolution.

    Integrates the raw plane-strain Green tensor against the source
    history, handing the inverse-square-root arrival singularities to
    QUADPACK's QAWS rule. Independent of the production substitution
    quadrature; intended as a cross-check oracle. QUADPACK is imported
    here, so that sampling never loads ``scipy.integrate``.
    """
    from scipy.integrate import quad as _quadpack

    x = np.asarray(x, dtype=float)[:2]
    t_t = retarded_time(traj, x, t, 1.0 / mat.cT, dim=2).t_ret
    t_l = retarded_time(traj, x, t, 1.0 / mat.cL, dim=2).t_ret
    t_on = prof.t_on

    def component(i):
        def f(tp):
            s = traj.eval(tp)[0][:2]
            q = prof.eval(tp)[0][:2]
            return float(_green2d_inplane(mat, x - s, t - tp)[i] @ q)

        def qaws(a, b):
            if b <= a:
                return 0.0
            g = lambda tp: f(tp) * math.sqrt(max(b - tp, 0.0))
            with warnings.catch_warnings():
                # the weighted integrand is only C1 at interior arrivals;
                # QAWS still converges, it just complains on the way
                warnings.simplefilter("ignore")
                val, _ = _quadpack(
                    g, a, b, weight="alg", wvar=(0.0, -0.5), limit=400,
                    epsabs=1e-12, epsrel=1e-10,
                )
            return val

        if t_t > t_on:
            return qaws(t_on, t_t) + qaws(t_t, t_l)
        return qaws(t_on, t_l)

    return np.array([component(0), component(1)])


# ---------------------------------------------------------------------------
# named checks

def _rel_err(got, ref, floor=1e-300):
    got = np.asarray(got, dtype=float)
    ref = np.asarray(ref, dtype=float)
    scale = max(float(np.max(np.abs(ref))), floor)
    return float(np.max(np.abs(got - ref))) / scale


def _random_material(rng):
    return make_material_poisson(rho=rng.uniform(0.5, 2.0), mu=rng.uniform(0.5, 2.0),
                                 nu=rng.uniform(0.05, 0.4))


def _random_unit(rng, dim=3):
    v = rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _random_oscillatory(rng, mat, vfrac=0.8):
    omega = rng.uniform(0.5, 1.5)
    speed = rng.uniform(0.2, vfrac) * mat.cT
    amp = speed / omega
    if amp > 0.35:  # keep the excursion clear of the observer shell
        amp = 0.35
        omega = speed / amp
    traj = oscillatory_trajectory(
        np.zeros(3), amp * _random_unit(rng), omega, phase=rng.uniform(0, 2 * math.pi)
    )
    return traj, omega


def _random_smooth_force(rng):
    q0 = rng.normal(size=3)
    if rng.random() < 0.5:
        omega = rng.uniform(0.5, 1.5)
        return sinusoid_force(q0, omega=omega, phase=rng.uniform(0, 2 * math.pi)), omega
    return constant_force(q0), 0.0


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
    mat = _random_material(rng)
    traj, om_t = _random_oscillatory(rng, mat, vfrac)
    prof, om_f = _random_smooth_force(rng)
    x = rng.uniform(1.5, 3.5) * _random_unit(rng)
    t = rng.uniform(0.0, 3.0)
    # dominant field wavenumber: retarded phases stack the source and force
    # frequencies on the slow branch, plus the geometric 1/r variation
    k_eff = (om_f + 2.0 * om_t) / mat.cT + 2.0 / float(np.linalg.norm(x))
    return mat, traj, prof, x, t, k_eff


def _batched(mat, traj, prof, rel_tol, attr):
    """Field ``attr`` of ``lw_fields_batch`` as a function of events (xs, ts)."""

    def field_fn(xs, ts):
        fs, singular = lw_fields_batch(mat, traj, prof, xs, ts, rel_tol=rel_tol)
        if singular.any():
            raise SingularPointError("a stencil event lies on the source worldline")
        return getattr(fs, attr)

    return field_fn


def _corrupted(u_fn):
    """``u_fn`` with u1 scaled by 1.1, which breaks the equation of motion."""

    def field_fn(xs, ts):
        u = np.array(u_fn(xs, ts))
        u[:, 0] *= 1.1
        return u

    return field_fn


def check_fd_consistency_3d(seed=0, n_cases=50, tolerance=1e-5):
    """Analytic distortion/velocity against differenced displacement."""
    rng = np.random.default_rng(seed)
    rel_tol = 1e-12
    worst = 0.0
    for _ in range(n_cases):
        mat, traj, prof, x, t, k_eff = _smooth_case(rng)
        s = lw_fields(mat, traj, prof, x, t, rel_tol=rel_tol)
        fd = fd_consistency(_batched(mat, traj, prof, rel_tol, "u"), x, t, 0.02 / k_eff)
        scale = max(float(np.max(np.abs(fd.beta_fd))), float(np.max(np.abs(fd.v_fd))))
        worst = max(worst, float(np.max(np.abs(s.beta - fd.beta_fd))) / scale)
        worst = max(worst, float(np.max(np.abs(s.v - fd.v_fd))) / scale)
    return _report("fd_consistency_3d", worst, tolerance, n_cases)


def check_navier_residual_3d(seed=0, n_cases=50, tolerance=1e-3, corrupt=False):
    """Equation-of-motion residual at off-source, off-front events."""
    rng = np.random.default_rng(seed)
    rel_tol = 1e-12
    worst = 0.0
    for _ in range(n_cases):
        mat, traj, prof, x, t, k_eff = _smooth_case(rng)
        u_fn = _batched(mat, traj, prof, rel_tol, "u")
        v_fn = _batched(mat, traj, prof, rel_tol, "v")
        res = navier_residual(mat, _corrupted(u_fn) if corrupt else u_fn, v_fn, x, t, 0.04 / k_eff)
        worst = max(worst, res.rel_residual)
    name = "navier_residual_corrupted" if corrupt else "navier_residual_3d"
    return _report(name, worst, tolerance, n_cases)


def _mollified_cases(seed):
    rng = np.random.default_rng(seed)
    cases = []
    mat = make_material(1.0, 1.0, 1.0)
    for i in range(5):
        if i == 0:
            traj = static_trajectory(np.zeros(3))
        elif i == 1:
            traj = uniform_trajectory(np.zeros(3), 0.4 * _random_unit(rng))
        else:
            traj = _random_oscillatory(rng, mat, vfrac=0.6)[0]  # accelerating
        prof = bump_force(2.0 * _random_unit(rng), center=1.0, half_width=1.0)
        x = rng.uniform(1.0, 2.0) * _random_unit(rng)
        # observe when the transversal signal of the pulse peak arrives
        r_peak = float(np.linalg.norm(x - traj.eval(prof.t_on + 1.0)[0]))
        t = prof.t_on + 1.0 + r_peak / mat.cT + rng.uniform(-0.2, 0.2)
        cases.append((mat, traj, prof, x, t))
    return cases


def check_mollified_oracle(seed=0, tolerance=1e-4, slope_band=0.2):
    """Oracle agreement at the finest width plus the eps^2 convergence slope.

    The widths are 0.04 and three halvings of it. Returns two reports:
    agreement at 0.005 (vs tolerance) and |slope - 2| (vs the band)
    fitted over the four widths.
    """
    rel_tol = 1e-12
    agree = slope_err = 0.0
    details = []
    cases = _mollified_cases(seed)
    for mat, traj, prof, x, t in cases:
        u_ref = lw_fields(mat, traj, prof, x, t, rel_tol=rel_tol).u
        scale = float(np.max(np.abs(u_ref)))
        eps_list = [0.04 * 0.5 ** j for j in range(4)]
        errs = []
        for eps in eps_list:
            u_m = mollified_convolution_u(mat, traj, prof, x, t, eps)
            errs.append(float(np.max(np.abs(u_m - u_ref))) / scale)
        slope = np.polyfit(np.log(eps_list), np.log(errs), 1)[0]
        agree = max(agree, errs[-1])
        slope_err = max(slope_err, abs(slope - 2.0))
        details.append({"slope": float(slope), "errors": errs})
    return [
        _report("mollified_agreement", agree, tolerance, len(cases), details),
        _report("mollified_slope", slope_err, slope_band, len(cases), details),
    ]


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


def _uniform_oracle(mat, vel, force, X, t, rule):
    """Displacement at time t of a force Q(t') on s(t) = s0 + V t, t_on = -inf.

    X = x - s(t). Each channel's retarded lag tau = t - t' is the positive
    root of tau^2 (1 - k^2 V^2) - 2 k^2 (X.V) tau - k^2 |X|^2 = 0, so no
    Newton solve; the slowness integral is one fixed Gauss-Legendre
    ``rule`` (nodes, weights), and ``force`` gives Q at each node's t -
    tau. Analytic in X and t when ``force`` is: a complex X or t gives the
    complex-step derivatives.
    """
    kL, kT = 1.0 / mat.cL, 1.0 / mat.cT
    xv, xx, vv = X @ vel, X @ X, vel @ vel

    def channel(k):
        """Per slowness k (n,): R/|R|, the Doppler factor P and Q at t - tau."""
        a = 1.0 - k * k * vv
        tau = (k * k * xv + np.sqrt(k ** 4 * xv * xv + a * k * k * xx)) / a
        rvec = X + np.multiply.outer(tau, vel)
        r = tau / k
        n = rvec / r[:, None]
        q = np.broadcast_to(force(t - tau), n.shape)
        return n, r - k * (rvec @ vel), q, n * np.einsum("ni,ni->n", n, q)[:, None]

    n, p, q, nn_q = channel(np.array([kT, kL]))
    u = kT ** 2 / p[0] * (q[0] - nn_q[0]) + kL ** 2 / p[1] * nn_q[1]
    z, w = rule
    k = 0.5 * (kT - kL) * z + 0.5 * (kT + kL)
    n, p, q, nn_q = channel(k)
    u = u + (0.5 * (kT - kL) * w * k / p) @ (3.0 * nn_q - q)
    return u / (4.0 * math.pi * mat.rho)


def _uniform_oracle_fields(mat, vel, force, X, t, n_gauss):
    """u, beta and v of ``_uniform_oracle``; beta and v by complex step.

    beta_ik = Im u(X + i h e_k, t) / h, and v = du/dt = Im u(X - i h V,
    t + i h) / h, since X = x - s(t) moves at -V. With h = 1e-30 nothing
    is subtracted, so both are as accurate as u. The five evaluations
    share one n_gauss-point rule, which takes seconds to build at n_gauss
    in the thousands.
    """
    h = 1e-30
    rule = np.polynomial.legendre.leggauss(n_gauss)
    steps = np.vstack([np.eye(4)[:3], np.append(-vel, 1.0)])
    d = np.array([_uniform_oracle(mat, vel, force, X + 1j * h * step[:3],
                                  t + 1j * h * step[3], rule).imag / h
                  for step in steps])
    return _uniform_oracle(mat, vel, force, X, t, rule), d[:3].T, d[3]


def _uniform_motion_devs(mat, frac, rng, n_cases, sinusoid):
    """Max rel. deviations of ``lw_fields`` from the oracle, for n_cases draws.

    Returns ({u, beta, v: err}, GL64-vs-GL128 error of the oracle). A
    constant force is seen at most 70 deg off the line of motion, a
    sinusoid q0 sin(1.3 t' + 0.4) from behind the source (110-180 deg).
    """
    dev = dict.fromkeys(("u", "beta", "v"), 0.0)
    oracle_dev = 0.0
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
            prof = sinusoid_force(q, 1.3, 0.4)
            force = lambda tp: np.multiply.outer(np.sin(1.3 * tp + 0.4), q)
        else:
            prof, force = constant_force(q), lambda tp: q
        oracle = _uniform_oracle_fields(mat, vel, force, X, t, 64)
        fine = _uniform_oracle_fields(mat, vel, force, X, t, 128)
        fs = lw_fields(mat, uniform_trajectory(s0, vel), prof, s0 + vel * t + X, t,
                       rel_tol=1e-12)
        for name, got, ref, ref_fine in zip(dev, (fs.u, fs.beta, fs.v), oracle, fine):
            scale = float(np.max(np.abs(ref)))
            oracle_dev = max(oracle_dev, float(np.max(np.abs(ref_fine - ref))) / scale)
            dev[name] = max(dev[name], float(np.max(np.abs(got - ref))) / scale)
    return dev, oracle_dev


def check_uniform_motion_oracle(seed=0, n_cases=5, tolerance=1e-11):
    """u, beta and v of a uniformly moving force against a closed form.

    The oracle uses neither the retarded-time solver, nor the adaptive
    engine, nor ``lw_fields``: its beta and v are complex-step derivatives
    of the closed-form u (see _uniform_oracle_fields). So it judges all
    three directly, at 0.3, 0.95, 0.99 and 0.999 cT, for a constant force
    and, under the ``sinusoid_`` keys, for q0 sin(1.3 t' + 0.4), whose
    rate parts the constant force leaves unchecked. Its integrand is
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
    Each field is measured against its own largest component. Each speed
    draws the same n_cases observers per force from ``seed``.
    """
    mat = make_material_poisson(rho=1.0, mu=1.0, nu=0.25)
    worst = 0.0
    details = []
    for frac in (0.3, 0.95, 0.99, 0.999):
        rng = np.random.default_rng(seed)
        entry = {"speed": frac}
        for prefix, sinusoid in (("", False), ("sinusoid_", True)):
            dev, oracle_dev = _uniform_motion_devs(mat, frac, rng, n_cases, sinusoid)
            entry.update({f"{prefix}max_rel_err": max(dev.values()),
                          **{f"{prefix}{name}_rel_err": err for name, err in dev.items()},
                          f"{prefix}gl64_vs_gl128": oracle_dev})
            worst = max(worst, *dev.values(), oracle_dev)
        details.append(entry)
    return _report("uniform_motion_oracle", worst, tolerance, 8 * n_cases, details)


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


def check_inplane_oracle(seed=0, n_cases=6, tolerance=1e-3):
    """Production in-plane displacement against the QAWS convolution oracle."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for i in range(n_cases):
        mat = _random_material(rng)
        traj = (static_trajectory(np.zeros(3)) if i % 2 == 0
                else _random_oscillatory(rng, mat, vfrac=0.5)[0])
        q0 = rng.normal(size=3)
        q0[2] = 0.0
        prof = step_force(q0, t_on=0.0) if i % 3 else bump_force(q0, 1.0, 1.0)
        x = rng.uniform(0.8, 2.0) * _random_unit(rng, dim=2)
        t = rng.uniform(2.0, 5.0)
        u = inplane_displacement(mat, traj, prof, x, t, rel_tol=1e-10)
        u_oracle = inplane_convolution_u(mat, traj, prof, x, t)
        worst = max(worst, _rel_err(u, u_oracle))
    return _report("inplane_convolution_oracle", worst, tolerance, n_cases)


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
    plane-strain Green tensor; it is checked behind both fronts and
    inside the P-S shell. On moving sources (oscillatory and tabulated
    worldlines, step and bump forces) v is compared with Richardson
    differences of the displacement, one ``inplane_displacement`` call
    per case; their error sets that report's tolerance, 1e-6.
    """
    rng = np.random.default_rng(seed)
    err_static = err_fd = 0.0
    for mat, q0, x, static_ts, (traj, prof, x_m, t_m) in _inplane_cases(rng, n_cases):
        for t in static_ts:
            v = inplane_fields(mat, static_trajectory(np.zeros(3)), step_force(q0, t_on=0.0),
                               x, t, rel_tol=1e-10).v
            err_static = max(err_static, _rel_err(v, _green2d_inplane(mat, x, t) @ q0[:2]))
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


def check_navier_residual_2d(seed=0, n_cases=8, tolerance=1e-4, corrupt=False):
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

        res = navier_residual(mat, _corrupted(u_fn) if corrupt else u_fn, v_fn, x, t, 0.01)
        worst = max(worst, res.rel_residual)
    name = "navier_residual_2d_corrupted" if corrupt else "navier_residual_2d"
    return _report(name, worst, tolerance, n_cases)


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
    "fd_consistency_3d": check_fd_consistency_3d,
    "navier_residual_3d": check_navier_residual_3d,
    "navier_residual_2d": check_navier_residual_2d,
    "mollified_oracle": check_mollified_oracle,
    "radiation_uniform_zero": check_radiation_uniform_zero,
    "radiation_farfield": check_radiation_farfield,
    "uniform_motion_oracle": check_uniform_motion_oracle,
    "antiplane_closed_form": check_antiplane_closed_form,
    "inplane_convolution_oracle": check_inplane_oracle,
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
    "fd_consistency_3d": {"n_cases": 8},
    "navier_residual_3d": {"n_cases": 6},
    "navier_residual_2d": {"n_cases": 4},
    "radiation_uniform_zero": {"n_cases": 4},
    "antiplane_closed_form": {"n_cases": 20},
    "inplane_convolution_oracle": {"n_cases": 3},
    "inplane_velocity": {"n_cases": 4},
    "equivariance": {"n_cases": 3},
    "linearity": {"n_cases": 3},
}


def run_check_suite(config=None, names=None, seed=None, corrupt=False):
    """Run the named verification checks; deterministic for a given seed.

    ``config`` may be a RunConfig (supplies the seed default); the first
    of its ``motion_violations`` is raised before any check runs.
    ``names=None`` runs everything, an explicit empty list runs nothing.
    ``corrupt`` injects a deliberately scaled displacement into the
    equation-of-motion checks, which must then fail (sensitivity control).
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
        kwargs = dict(_QUICK_SIZES.get(name, {}))
        if name.startswith("navier_residual") and corrupt:
            kwargs["corrupt"] = True
        result = CHECKS[name](seed=seed, **kwargs)
        reports.extend(result if isinstance(result, list) else [result])
    reports.sort(key=lambda r: r.name)
    return reports
