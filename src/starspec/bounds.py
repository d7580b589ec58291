"""Closed-form spectral thresholds and two-sided small-angle estimates.

Pure formulas from the scaling relation and the segment existence bound,
two bounds proven from the star alone (the weak-coupling nonexistence
threshold and a lower bound on every energy, both from ``pair_bound``), and
the small-angle sandwich of a two-arm star, whose upper side is asymptotic
and whose lower side is proven; plus a measurement that fits the
small-angle divergence exponent of the computed ground state.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import cos, exp, inf, isfinite, log, pi, sin, sqrt

import numpy as np

from .discretization import Mesh, build_mesh
from .errors import DegenerateAngle, DomainError
from .geometry import StarConfig, make_star
from .kernels import PSI_ONE, offdiag_norm_bound, point_eigenvalue
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
    return _finite(lambda: 2.0 * pi * exp(2.0 * pi * alpha - PSI_ONE),
                   f"the segment existence length at alpha = {alpha}")


def _finite(compute, what: str) -> float:
    """compute(); raises DomainError if it leaves the float range."""
    try:
        value = compute()
    except (OverflowError, ZeroDivisionError):
        value = inf
    if not isfinite(value):
        raise DomainError(f"{what} overflows")
    return value


def pair_bound(config: StarConfig) -> float:
    """lambda_max(P), with P_ij = tau(phi_ij) (``offdiag_norm_bound``) for
    i != j and P_ii = 0: what the arm pairs can add to the star's
    renormalized Birman-Schwinger form Q_kappa (Exner & Kondej, AHP 3
    (2002)).  ``nonexistence_threshold`` and ``energy_lower_bound`` both
    follow from it.

    Proof: split a unit vector u into arm slices u_i of norms x_i, and let t
    bound the top of the diagonal (one-arm) block at kappa.  Then
    (u, Q_kappa u) <= t |x|^2 + sum_{i != j} |B_ij| x_i x_j <= t + lambda_max(P),
    because x >= 0 and |B_ij| <= P_ij: tau bounds each pair block B_ij at
    every kappa, since e^{-kappa r}/r <= 1/r.  A bound state at energy
    -kappa^2 makes alpha an eigenvalue of Q_kappa, so alpha <= t + lambda_max(P).

    - At kappa = 0, t = ln(L)/(2 pi) (acceptance criterion 05 derives it).
      The eigenvalue curves decrease in kappa, so none reaches a coupling
      at or above ln(L)/(2 pi) + lambda_max(P): the nonexistence threshold.
      One arm gives ln(L)/(2 pi), and scaling the arms by zeta adds
      ln(zeta)/(2 pi), as ``scaled_coupling`` requires.
    - At kappa > 0, t = (psi(1) - ln(kappa/2))/(2 pi), the line bound.  On
      a segment the self term f(x)^2 f.p. int_0^L e^{-kappa|x-s|}/|x-s| ds
      is the line's finite part 2 (psi(1) - ln(kappa/2)) less the kernel
      integrated over the rest of the line, which is the cross term that
      extending f by zero adds.  So the segment's block is a compression of
      the line's, whose form has the Fourier symbol
      (psi(1) - ln(sqrt(p^2 + kappa^2)/2))/(2 pi), largest at p = 0.  Then
      alpha <= t + lambda_max(P) means kappa <= 2 e^{psi(1) - 2 pi (alpha -
      lambda_max(P))}, the crossing of ``point_eigenvalue``: every energy
      is at least point_eigenvalue(alpha - lambda_max(P)).
    """
    angles = config.pair_angles()
    if np.any(angles <= 0.0):
        raise DegenerateAngle("zero angle between some pair of arms")
    return _pair_top(config.n_arms, angles.tobytes())


@lru_cache(maxsize=1)  # a ``bounds`` job reads both bounds of one star
def _pair_top(n_arms: int, angles: bytes) -> float:
    P = np.zeros((n_arms, n_arms))
    P[np.triu_indices(n_arms, k=1)] = offdiag_norm_bound(np.frombuffer(angles))
    return float(np.linalg.eigvalsh(P, UPLO="U")[-1])


def nonexistence_threshold(config: StarConfig) -> float:
    """Coupling at and above which the star has no bound state:
    ln(L)/(2 pi) + ``pair_bound`` (proof there)."""
    return log(config.arm_length) / (2.0 * pi) + pair_bound(config)


def energy_lower_bound(config: StarConfig) -> float:
    """Lower bound point_eigenvalue(alpha - ``pair_bound``) on every energy
    of the star (proof in ``pair_bound``).  Raises DomainError if it
    overflows."""
    return _finite(lambda: point_eigenvalue(config.coupling - pair_bound(config)),
                   f"the energy lower bound at alpha = {config.coupling}")


@dataclass(frozen=True)
class SmallAngleBound:
    """Two-sided estimate for level k of a two-arm star at angle phi;
    lower <= upper for every k >= 1 (proof in ``small_angle_bounds``)."""

    lower: float
    upper: float
    k: int
    phi: float


def small_angle_bounds(alpha: float, L: float, phi: float, k: int) -> SmallAngleBound:
    """Bounds E_k^- <= E_k <= E_k^+ for level k >= 1 of a two-arm star at
    angle phi.

    E_k^+ = -(2 sqrt(2) e^{-2 pi alpha + 2 psi(1)} / L) (1-cos phi)^{-1/2}
            + (pi k / L)^2
    is asymptotic: it drops o(phi) terms.  It is computed from
    1 - cos phi = 2 sin^2(phi/2), which keeps every digit as phi -> 0.
    E_k^- = point_eigenvalue(alpha - tau(phi))
          = -4 e^{2 psi(1) - 4 pi alpha + 4 pi tau(phi)}
    is proven: it is ``energy_lower_bound`` of the star, whose P has top
    tau(phi), and it holds for every level since E_k >= E_1.  As phi -> 0,
    tau(phi) = ln(1/phi)/(2 pi) + 3 ln(2)/(2 pi) + o(1), so
    E_k^- (1 - cos phi) -> -128 e^{2 psi(1) - 4 pi alpha}.

    E_k^- <= E_k^+ for every alpha, L and phi.  Put x = e^{-2 pi alpha},
    h = 1 - cos phi, a = 2 sqrt(2) e^{2 psi(1)} h^{-1/2} and
    b = 4 e^{2 psi(1) + 4 pi tau(phi)}.  Then
    E_k^+ - E_k^- = b x^2 - (a/L) x + (pi k/L)^2, which is >= 0 for all x
    iff a^2 <= 4 b (pi k)^2, i.e. e^{2 psi(1)} <= 2 pi^2 k^2 h e^{4 pi tau(phi)}.
    The integrand of tau's folded integral (``offdiag_norm_bound``) is at
    least (u^2/2 + h)^{-1/2}, since cos u <= 1 and 2 sin^2(u/2) <= u^2/2.  So
    4 pi tau >= 2 asinh(pi / (2 sqrt(2 h))), and e^{2 asinh z} >= 4 z^2 gives
    h e^{4 pi tau} >= pi^2/2.  The right side is then at least pi^4 k^2,
    far above e^{2 psi(1)} = 0.315.

    Raises DomainError for k < 1, or if either side overflows (the lower
    side does for phi below about 1e-153 at alpha = 0).
    """
    if k < 1:
        raise DomainError(f"level k must be at least 1, got {k}")
    what = f"the small-angle bounds at alpha = {alpha}, k = {k}"
    upper = _finite(lambda: -(2.0 * sqrt(2.0) * exp(-2.0 * pi * alpha + 2.0 * PSI_ONE) / L)
                    / sqrt(2.0 * sin(0.5 * phi) ** 2) + (pi * k / L) ** 2, what)
    lower = _finite(lambda: point_eigenvalue(alpha - offdiag_norm_bound(phi)), what)
    return SmallAngleBound(lower=lower, upper=upper, k=k, phi=phi)


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

    gaps = np.array([2.0 * sin(0.5 * p) ** 2 for p in phis])
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

    uppers = [small_angle_bounds(alpha, L, phi, 1).upper for phi in phis]
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
