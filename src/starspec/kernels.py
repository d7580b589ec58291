"""Closed-form scalar kernels and bounds.

The free resolvent kernel of (-Laplace + kappa^2)^{-1} in 3D, the distance
between points on two arms, the pair kernel as a function of squared chord,
the 2D point-interaction eigenvalue, and the norm bound for the interaction
between two arms at a given angle.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, exp, pi, sqrt

import numpy as np

from .errors import DomainError, GridTooCoarse, ZeroDistance

#: digamma at 1, i.e. minus the Euler-Mascheroni constant
PSI_ONE = -0.5772156649015329

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class PairKernelParams:
    """Spectral parameter and arc-length coordinates for the pair kernel."""

    kappa: float
    s: float
    t: float


def green_kernel(kappa: float, r: float) -> float:
    """Free resolvent kernel e^{-kappa r} / (4 pi r).

    Parameters
    ----------
    kappa : float
        Spectral parameter, >= 0.
    r : float
        Separation, > 0.
    """
    if r <= 0.0:
        raise ZeroDistance(f"kernel is singular at r={r}")
    return exp(-kappa * r) / (4.0 * pi * r)


def arm_distance(s: float, t: float, chord_sq: float) -> float:
    """Distance between points at arc lengths s, t on arms with given squared chord.

    Equals sqrt(s^2 + t^2 - s t (2 - chord_sq)) = sqrt((s-t)^2 + s t chord_sq).
    """
    return sqrt((s - t) ** 2 + s * t * chord_sq)


def pair_kernel(params: PairKernelParams, x: float) -> float:
    """Pair kernel T_{kappa;s,t}(x) = e^{-kappa sqrt(a+bx)} / (4 pi sqrt(a+bx)).

    Here a = (s-t)^2, b = s t, and x is the squared chord between the two
    arm directions.  Strictly completely monotone in x.
    """
    return green_kernel(params.kappa, arm_distance(params.s, params.t, x))


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


@dataclass(frozen=True)
class MonotonicityReport:
    """Sign pattern of finite-difference derivatives of the pair kernel."""

    max_order: int
    step: float
    x_grid: tuple[float, ...]
    #: derivative estimates, shape (max_order+1, len(x_grid))
    derivatives: np.ndarray
    #: per order k, whether sign(f^(k)) == (-1)^k at every grid point
    orders_pass: tuple[bool, ...]

    @property
    def all_pass(self) -> bool:
        return all(self.orders_pass)


def complete_monotonicity_probe(
    params: PairKernelParams, max_order: int, x_grid
) -> MonotonicityReport:
    """Check (-1)^k f^(k) > 0 for f(x) = pair_kernel(params, x) on a grid.

    Derivatives up to ``max_order`` (<= 6) are estimated by central finite
    differences with step max(1e-4, spacing/4).  Raises GridTooCoarse when
    the rounding-noise estimate exceeds 10% of a derivative value.
    """
    if max_order > 6:
        raise DomainError(f"max_order must be <= 6, got {max_order}")
    xs = np.sort(np.asarray(x_grid, dtype=float))
    if xs.size == 0:
        raise DomainError("empty x grid")
    spacing = float(np.min(np.diff(xs))) if xs.size > 1 else 4.0 * 1e-4
    h = max(1e-4, spacing / 4.0)

    derivs = np.empty((max_order + 1, xs.size))
    passes = []
    fmax = 0.0
    for k in range(max_order + 1):
        coeffs = np.array([(-1) ** i * comb(k, i) for i in range(k + 1)])
        offs = np.array([(k / 2.0 - i) * h for i in range(k + 1)])
        for j, x in enumerate(xs):
            vals = np.array([pair_kernel(params, x + o) for o in offs])
            fmax = max(fmax, float(np.abs(vals).max()))
            est = float(coeffs @ vals) / h**k
            noise = _EPS * fmax * (2.0**k) / h**k
            if noise > 0.1 * abs(est):
                raise GridTooCoarse(
                    f"order-{k} difference at x={x} is rounding-dominated "
                    f"(noise {noise:.2e} vs value {est:.2e})"
                )
            derivs[k, j] = est
        passes.append(bool(np.all((-1.0) ** k * derivs[k] > 0.0)))
    return MonotonicityReport(
        max_order=max_order,
        step=h,
        x_grid=tuple(float(x) for x in xs),
        derivatives=derivs,
        orders_pass=tuple(passes),
    )
