"""Reference fields for tests to compare the evaluators against.

``fd_consistency`` takes the distortion and velocity of any batched field
by Richardson-paired central differences; ``inplane_static_step`` is the
closed form of a static in-plane step. Neither shares code with the
evaluators they check.
"""

import math
from dataclasses import dataclass

import numpy as np


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


def inplane_static_step(mat, rvec, tau):
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
