"""Discrete spectrum of 3D Schrodinger operators with an attractive delta
interaction supported on an equilateral star, and optimization of the arm
directions on the unit sphere."""

__version__ = "0.1.0"

from .geometry import (
    StarConfig,
    chord_sq,
    congruent,
    make_star,
    sharp_configuration,
    spherical_design_check,
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
    PSI_ONE,
    SmallAngleBound,
    energy_lower_bound,
    nonexistence_threshold,
    offdiag_norm_bound,
    point_eigenvalue,
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
    "SmallAngleBound",
    "SpectralResult",
    "StarAssembler",
    "StarConfig",
    "build_mesh",
    "chord_sq",
    "congruent",
    "count_bound_states",
    "default_ladder",
    "default_mesh",
    "energy_lower_bound",
    "gauge_embed",
    "kernel_sum_compare",
    "lambda_curve",
    "make_star",
    "nonexistence_threshold",
    "objective",
    "offdiag_norm_bound",
    "optimize",
    "point_eigenvalue",
    "principal_eigenvalue",
    "refine_until",
    "scaled_coupling",
    "segment_existence_length",
    "sharp_configuration",
    "small_angle_bounds",
    "solve_energy",
    "spherical_design_check",
    "verify_sharp_local_max",
]
