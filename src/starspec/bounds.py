"""Closed-form spectral thresholds and two-sided small-angle estimates.

Pure formulas from the scaling relation, the segment existence bound, the
weak-coupling nonexistence threshold, and the small-angle eigenvalue
sandwich, plus a measurement that fits the small-angle divergence exponent
of the computed ground state.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import cos, exp, inf, isfinite, log, pi, sqrt

import numpy as np

from .discretization import Mesh, build_mesh
from .errors import DegenerateAngle, DomainError
from .geometry import StarConfig, make_star
from .kernels import PSI_ONE, offdiag_norm_bound
from .spectral import refine_until

#: fitted-exponent acceptance window: between the two theoretical rates
#: (1-cos phi)^{-1/2} and (1-cos phi)^{-1}, widened by 0.1 on each side
EXPONENT_WINDOW = (0.4, 1.1)


def scaled_coupling(alpha: float, zeta: float) -> float:
    """Coupling constant after scaling lengths by zeta: alpha - ln(zeta)/(2 pi).

    A star with arm length zeta*L and coupling alpha is unitarily equivalent
    (up to the energy factor zeta^-2) to the star with arm length L and this
    coupling: E(alpha, zeta L) = zeta^-2 E(scaled_coupling(alpha, zeta), L).
    """
    if zeta <= 0:
        raise DegenerateAngle(f"scale factor must be positive, got {zeta}")
    return alpha - log(zeta) / (2.0 * pi)


def segment_existence_length(alpha: float) -> float:
    """Arm length guaranteeing a nonempty discrete spectrum for one segment.

    2 pi e^{2 pi alpha - psi(1)}; a straight segment longer than this has at
    least one bound state.
    """
    try:
        length = 2.0 * pi * exp(2.0 * pi * alpha - PSI_ONE)
    except OverflowError:
        length = inf
    if not isfinite(length):
        raise DomainError(f"the segment existence length overflows at alpha = {alpha}")
    return length


def nonexistence_threshold(config: StarConfig) -> float:
    """Coupling at and above which the star has no bound state:
    ln(L)/(2 pi) + lambda_max(P), with P_ij = tau(phi_ij)
    (``offdiag_norm_bound``) for i != j and P_ii = 0.

    Proof: split a unit vector u into arm slices u_i of norms x_i.  Then
    (u, Q_kappa u) <= t |x|^2 + sum_{i != j} |B_ij| x_i x_j <= t + lambda_max(P),
    because x >= 0 and |B_ij| <= P_ij: tau bounds each pair block B_ij at
    every kappa, since e^{-kappa r}/r <= 1/r.  The diagonal block's top t is
    below ln(L)/(2 pi) (acceptance criterion 05 derives it).  So no
    eigenvalue curve reaches the threshold.  One arm gives ln(L)/(2 pi), and
    scaling the arms by zeta adds ln(zeta)/(2 pi), as ``scaled_coupling``
    requires.
    """
    angles = config.pair_angles()
    if np.any(angles <= 0.0):
        raise DegenerateAngle("zero angle between some pair of arms")
    P = np.zeros((config.n_arms, config.n_arms))
    P[np.triu_indices(config.n_arms, k=1)] = [offdiag_norm_bound(phi) for phi in angles]
    return log(config.arm_length) / (2.0 * pi) + float(np.linalg.eigvalsh(P, UPLO="U")[-1])


@dataclass(frozen=True)
class SmallAngleBound:
    """Two-sided estimate for level k of a two-arm star at angle phi."""

    lower: float
    upper: float
    k: int
    phi: float
    C: float

    @property
    def consistent(self) -> bool:
        """Whether lower <= upper (not automatic: C is a free parameter)."""
        return self.lower <= self.upper


def small_angle_bounds(
    alpha: float, L: float, phi: float, k: int, C: float
) -> SmallAngleBound:
    """Asymptotic bounds E_k^- <= E_k <= E_k^+ for small angle phi.

    E_k^+ = -(2 sqrt(2) e^{-2 pi alpha + 2 psi(1)} / L) (1-cos phi)^{-1/2}
            + (pi k / L)^2,
    E_k^- = -4 e^{2(-2 pi C - 2 pi alpha + psi(1))} (1-cos phi)^{-1}
            + (pi k / L)^2,
    with o(phi) terms dropped.  Raises DomainError if either overflows.
    """
    gap = 1.0 - cos(phi)
    shift = (pi * k / L) ** 2
    try:
        upper = -(2.0 * sqrt(2.0) * exp(-2.0 * pi * alpha + 2.0 * PSI_ONE) / L) / sqrt(gap) + shift
        lower = -4.0 * exp(2.0 * (-2.0 * pi * C - 2.0 * pi * alpha + PSI_ONE)) / gap + shift
    except OverflowError:
        upper = lower = -inf
    if not (isfinite(upper) and isfinite(lower)):
        raise DomainError(f"the small-angle bounds overflow at alpha = {alpha}")
    return SmallAngleBound(lower=lower, upper=upper, k=k, phi=phi, C=C)


@dataclass(frozen=True)
class SmallAngleScalingReport:
    """Fit of the small-angle divergence of the computed ground state."""

    phi_grid: tuple[float, ...]
    energies: tuple[float, ...]
    exponent: float
    fit_points: int
    upper_bounds: tuple[float, ...]
    upper_ok: bool
    passes: bool


def _two_arm_star(phi: float, L: float, alpha: float) -> StarConfig:
    from math import sin

    return make_star([(0.0, 0.0, 1.0), (sin(phi), 0.0, cos(phi))], L, alpha)


def check_small_angle_scaling(
    alpha: float,
    L: float,
    phi_grid,
    mesh_ladder: list[Mesh] | None = None,
    e_tol: float = 1e-3,
) -> SmallAngleScalingReport:
    """Fit p in |E_1| ~ (1-cos phi)^{-p} over the last grid decade.

    For each angle, the ground state is converged on the mesh ladder; the
    exponent is fit on the grid points whose 1-cos phi lies within a factor
    10 of the smallest.  Passes iff p falls in the window [0.4, 1.1] spanned
    by the two theoretical rates.  Small angles concentrate the state at the
    vertex, so the default ladder is deeply vertex-graded.
    """
    phis = [float(p) for p in phi_grid]
    if mesh_ladder is None:
        mesh_ladder = [build_mesh(L, p, 12, 2.0) for p in (24, 32, 40)]
    energies = []
    for phi in phis:
        cfg = _two_arm_star(phi, L, alpha)
        res = refine_until(cfg, alpha, e_tol, mesh_ladder)
        energies.append(res.ground_energy)

    gaps = np.array([1.0 - cos(p) for p in phis])
    es = np.abs(np.array(energies))
    sel = gaps <= 10.0 * gaps.min()
    if sel.sum() < 2:
        idx = np.argsort(gaps)
        sel = np.zeros_like(sel)
        sel[idx[:2]] = True
    x = np.log(gaps[sel])
    y = np.log(es[sel])
    slope = float(np.polyfit(x, y, 1)[0])
    p_fit = -slope

    uppers = [small_angle_bounds(alpha, L, phi, 1, 1.0).upper for phi in phis]
    upper_ok = all(e <= u + 1e-12 for e, u in zip(energies, uppers))
    passes = EXPONENT_WINDOW[0] <= p_fit <= EXPONENT_WINDOW[1]
    return SmallAngleScalingReport(
        phi_grid=tuple(phis),
        energies=tuple(energies),
        exponent=p_fit,
        fit_points=int(sel.sum()),
        upper_bounds=tuple(uppers),
        upper_ok=upper_ok,
        passes=passes,
    )
