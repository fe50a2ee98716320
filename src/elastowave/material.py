"""Isotropic elastic constants, derived wave speeds, and the stiffness action.

SI units are assumed throughout; tests and shipped configs use normalized
rho = mu = 1. Wave speeds are computed once at construction because field
evaluation reads cL/cT in inner loops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidMaterialError

__all__ = [
    "Material",
    "make_material",
    "make_material_poisson",
    "isotropic_stiffness_apply",
]


@dataclass(frozen=True)
class Material:
    """Isotropic linear-elastic medium.

    Attributes:
        rho: mass density [kg/m^3]
        lam: Lame lambda [Pa]
        mu:  Lame mu (shear modulus) [Pa]
        cL:  longitudinal (P) wave speed, sqrt((2 mu + lam)/rho) [m/s]
        cT:  transversal (S) wave speed, sqrt(mu/rho) [m/s]; cT < cL always
        nu:  Poisson ratio, lam = 2 mu nu / (1 - 2 nu)
    """

    rho: float
    lam: float
    mu: float
    cL: float
    cT: float
    nu: float


def make_material(rho: float, lam: float, mu: float) -> Material:
    """Build a Material from density and Lame constants.

    Requires finite rho > 0, mu > 0 and a finite bulk modulus lam + 2*mu/3
    >= 0, which also guarantees 2*mu + lam > 0 and cT < cL.
    """
    if not 0.0 < rho < math.inf:
        raise InvalidMaterialError(f"density must be positive and finite, got rho={rho}")
    if not 0.0 < mu < math.inf:
        raise InvalidMaterialError(f"shear modulus must be positive and finite, got mu={mu}")
    if not 0.0 <= lam + 2.0 * mu / 3.0 < math.inf:
        raise InvalidMaterialError(
            f"bulk modulus lam + 2*mu/3 = {lam + 2.0 * mu / 3.0:g} must be finite and >= 0"
        )
    cL = math.sqrt((2.0 * mu + lam) / rho)
    cT = math.sqrt(mu / rho)
    nu = lam / (2.0 * (lam + mu))
    return Material(rho=float(rho), lam=float(lam), mu=float(mu), cL=cL, cT=cT, nu=nu)


def make_material_poisson(rho: float, mu: float, nu: float) -> Material:
    """Build a Material from density, shear modulus and Poisson ratio.

    Requires -1 < nu < 0.5; lam = 2*mu*nu/(1 - 2*nu) is singular at nu = 0.5.
    """
    if not -1.0 < nu < 0.5:
        raise InvalidMaterialError(f"Poisson ratio must lie in (-1, 0.5), got nu={nu}")
    lam = 2.0 * mu * nu / (1.0 - 2.0 * nu)
    return make_material(rho, lam, mu)


def isotropic_stiffness_apply(mat: Material, beta: np.ndarray) -> np.ndarray:
    """Apply the isotropic stiffness tensor to a distortion tensor.

    sigma_ij = lam * delta_ij * tr(beta) + mu * (beta_ij + beta_ji),
    valid for 3x3 and 2x2 (plane) distortions alike. Antisymmetric input
    maps to zero stress.
    """
    b = np.asarray(beta, dtype=float)
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise ValueError(f"distortion must be a square matrix, got shape {b.shape}")
    return mat.lam * np.trace(b) * np.eye(b.shape[0]) + mat.mu * (b + b.T)
