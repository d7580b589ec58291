"""Discrete spectrum of 3D Schrodinger operators with an attractive delta
interaction supported on an equilateral star, and optimization of the arm
directions on the unit sphere."""

__version__ = "0.1.0"

from .geometry import (
    StarConfig,
    SharpFamily,
    chord_sq,
    congruent,
    make_star,
    sharp_configuration,
    sharp_family,
    spherical_design_check,
)
from .kernels import (
    PSI_ONE,
    PairKernelParams,
    arm_distance,
    complete_monotonicity_probe,
    green_kernel,
    offdiag_norm_bound,
    pair_kernel,
    point_eigenvalue,
)
from .discretization import (
    BlockAssembler,
    Mesh,
    StarAssembler,
    build_mesh,
)
from .spectral import (
    SpectralResult,
    count_bound_states,
    default_ladder,
    default_mesh,
    lambda_curve,
    principal_eigenvalue,
    refine_until,
    solve_energy,
)
from .bounds import (
    SmallAngleBound,
    check_small_angle_scaling,
    energy_lower_bound,
    nonexistence_threshold,
    scaled_coupling,
    segment_existence_length,
    small_angle_bounds,
)
from .optimizer import (
    OptResult,
    OptSettings,
    gauge_embed,
    kernel_sum_compare,
    objective,
    optimize,
    verify_sharp_local_max,
)

__all__ = [
    "PSI_ONE",
    "BlockAssembler",
    "Mesh",
    "OptResult",
    "OptSettings",
    "PairKernelParams",
    "SharpFamily",
    "SmallAngleBound",
    "SpectralResult",
    "StarAssembler",
    "StarConfig",
    "arm_distance",
    "build_mesh",
    "chord_sq",
    "check_small_angle_scaling",
    "complete_monotonicity_probe",
    "congruent",
    "count_bound_states",
    "default_ladder",
    "default_mesh",
    "energy_lower_bound",
    "gauge_embed",
    "green_kernel",
    "kernel_sum_compare",
    "lambda_curve",
    "make_star",
    "nonexistence_threshold",
    "objective",
    "offdiag_norm_bound",
    "optimize",
    "pair_kernel",
    "point_eigenvalue",
    "principal_eigenvalue",
    "refine_until",
    "scaled_coupling",
    "segment_existence_length",
    "sharp_configuration",
    "sharp_family",
    "small_angle_bounds",
    "solve_energy",
    "spherical_design_check",
    "verify_sharp_local_max",
]
