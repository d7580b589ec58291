"""Discrete spectrum of 3D Schrodinger operators with an attractive delta
interaction supported on an equilateral star, and optimization of the arm
directions on the unit sphere."""

__version__ = "0.1.0"

from .geometry import make_star, sharp_configuration
from .discretization import build_mesh
from .spectral import principal_eigenvalue, refine_until, solve_energy
from .optimizer import OptSettings, optimize

__all__ = [
    "OptSettings",
    "build_mesh",
    "make_star",
    "optimize",
    "principal_eigenvalue",
    "refine_until",
    "sharp_configuration",
    "solve_energy",
]
