"""Elastodynamic fields of non-uniformly moving subsonic point and line forces."""

__version__ = "0.1.0"

from .material import Material, make_material, make_material_poisson, isotropic_stiffness_apply
from .kinematics import (
    Trajectory,
    ForceProfile,
    RetardedState,
    static_trajectory,
    uniform_trajectory,
    oscillatory_trajectory,
    piecewise_polynomial_trajectory,
    tabulated_trajectory,
    constant_force,
    step_force,
    ramp_force,
    sinusoid_force,
    bump_force,
    polynomial_force,
    retarded_time,
    retarded_time_bisection,
)
from .pointforce3d import (
    FieldSample,
    lw_fields,
    lw_fields_batch,
    stokes_displacement,
    stokes_gradient,
    stokes_gradient_split,
    kelvin_displacement,
    kelvin_gradient,
)
from .lineforce2d import (
    FieldSample2D,
    antiplane_fields,
    inplane_displacement,
    inplane_fields,
)
from .verify import (
    CheckReport,
    fd_consistency,
    navier_residual,
    mollified_convolution_u,
    run_check_suite,
)
from .config import RunConfig, parse_config
