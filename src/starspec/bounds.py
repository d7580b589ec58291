"""Closed-form spectral thresholds and two-sided small-angle estimates.

Pure formulas from the scaling relation and the segment existence bound,
the 2D point-interaction eigenvalue and the norm bound for the interaction
between two arms at a given angle, two bounds proven from the star alone
(the weak-coupling nonexistence threshold and a lower bound on every energy,
both from ``pair_bound``), and the small-angle sandwich of a two-arm star,
whose upper side is asymptotic and whose lower side is proven.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import exp, inf, isfinite, log, pi, sin, sqrt

import numpy as np

from .errors import DegenerateAngle, DomainError
from .geometry import StarConfig

#: digamma at 1, i.e. minus the Euler-Mascheroni constant
PSI_ONE = -0.5772156649015329


def point_eigenvalue(alpha: float) -> float:
    """The single negative eigenvalue of the 2D point interaction.

    -4 e^{2(-2 pi alpha + psi(1))}; also the essential-spectrum threshold of
    infinite stars.  Strictly increasing in alpha.
    """
    return -4.0 * exp(2.0 * (-2.0 * pi * alpha + PSI_ONE))


def _tau_peak(t: np.ndarray, phi: float, h: float) -> np.ndarray:
    # u = phi sinh(t) spreads the peak of width phi at u = 0 over t ~ 1
    u = phi * np.sinh(t)
    s, c = np.sin(0.5 * u), np.cos(u)
    return phi * np.cosh(t) / np.sqrt(c * (2.0 * s * s + h * c))


def _tau_tail(w: np.ndarray, h: float) -> np.ndarray:
    # pi/2 - u = w^2 removes the inverse-square-root endpoint singularity
    v = w * w
    s, c = np.sin(0.25 * pi - 0.5 * v), np.sin(v)
    return 2.0 * w / np.sqrt(c * (2.0 * s * s + h * c))


#: nodes and weights of the 32-point Gauss-Legendre rule on [-1, 1]
_GAUSS_32 = np.polynomial.legendre.leggauss(32)


def _gauss(f, b: np.ndarray, panels: int) -> np.ndarray:
    """Integrals of f over [0, b] by ``_GAUSS_32`` on each of ``panels``
    equal panels, for the ends ``b`` of shape (n, 1, 1) at once; f takes
    the points, of shape (n, panels, 32)."""
    x, w = _GAUSS_32
    h = 0.5 * b / panels
    mid = h * (2.0 * np.arange(panels)[:, None] + 1.0)
    return h.ravel() * (f(mid + h * x) * w).reshape(b.shape[0], panels * x.size).sum(axis=1)


def offdiag_norm_bound(phi: float | np.ndarray) -> float | np.ndarray:
    """Norm bound tau(phi) for the interaction of two arms at angle phi; an
    array of angles gives the array of their bounds, in one pass per panel
    count of the rule below.

    tau(phi) = (sqrt(2)/4 pi) * I_phi with
    I_phi = int_0^{pi/2} dtheta / sqrt(sin 2theta (1 - cos phi sin 2theta)).
    Continuously decreasing on (0, pi], with tau(phi) = ln(1/phi)/(2 pi) + 0.330953...
    as phi -> 0.

    Folding v = 2 theta about pi/2 and putting u = pi/2 - v gives
    I_phi = int_0^{pi/2} du / sqrt(cos u (2 sin^2(u/2) + 2 sin^2(phi/2) cos u)),
    free of the cancellation in 1 - cos phi sin v.  Split at u = pi/4, its
    peak of width phi at u = 0 and its endpoint singularity at u = pi/2 get
    one substitution each, after which both integrands are smooth: a fixed
    Gauss-Legendre rule gives them to rounding, the peak on one panel per 4
    units of t (asinh(pi/(4 phi)) grows like ln(1/phi)), the tail on one.
    """
    phis = np.asarray(phi, dtype=float)
    if not np.all((0.0 < phis) & (phis <= pi)):
        raise DomainError(f"angle must be in (0, pi], got {phi}")
    p = phis.reshape(-1, 1, 1)
    h = 2.0 * np.sin(0.5 * p) ** 2
    t_max = np.arcsinh(0.25 * pi / p)
    panels = np.ceil(t_max / 4.0).ravel()
    tau = _gauss(lambda w: _tau_tail(w, h), np.full_like(p, sqrt(0.25 * pi)), 1)
    for n in np.unique(panels).tolist():
        k = panels == n
        tau[k] += _gauss(lambda t: _tau_peak(t, p[k], h[k]), t_max[k], int(n))
    tau *= sqrt(2.0) / (4.0 * pi)
    return float(tau[0]) if phis.ndim == 0 else tau.reshape(phis.shape)


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
