"""Maximization of the ground-state energy over arm directions.

The search runs in gauge-fixed spherical coordinates (rotations quotiented
out), uses multi-start Nelder-Mead, and verifies the result against the
sharp configuration of the same size.  Near-degenerate configurations and
configurations without a bound state map to a -inf sentinel, consistent
with maximization: closing an angle drives the energy to -infinity.

Each start searches at fixed kappa, as Dinkelbach's method does for a
fractional program.  Write lambda(x, kappa) for the top eigenvalue of the
search matrix of the star with gauge parameters x, and kappa(x) for its
crossing, lambda(x, kappa(x)) = alpha; the energy is -kappa(x)^2, so
maximizing it means minimizing kappa(x).  From kappa_0 = kappa(x_0), outer
step k runs Nelder-Mead on x -> lambda(x, kappa_k) from x_k, one eigensolve
per call, and sets kappa_{k+1} = kappa(x_{k+1}).

The iteration is monotone.  lambda(x, .) is strictly decreasing, and
Nelder-Mead returns no point worse than its start, so lambda(x_{k+1},
kappa_k) <= lambda(x_k, kappa_k) = alpha gives kappa_{k+1} <= kappa_k:
kappa_k is an upper end of the next root's bracket, and the energy never
falls.  Its fixed points are optimal: if min_x lambda(x, kappa_k) = alpha
and some x' had kappa(x') < kappa_k, then lambda(x', kappa_k) <
lambda(x', kappa(x')) = alpha, a contradiction.  The sharp configuration
minimizes lambda(., kappa) at every kappa (its top vector is positive and
arm-symmetric, and the pairwise kernel-sum inequality holds entrywise at
the quadrature nodes), so every inner problem shares the energy's argmax.

A start stops when a step lowers kappa by no more than the root tolerance,
and keeps x_k when a step raises kappa (lambda(x_k, kappa_k) = alpha holds
only to that tolerance, so lambda(x_{k+1}, kappa_k) may round above alpha)
or x_{k+1} has no crossing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .discretization import (
    FOUR_PI, BlockAssembler, Mesh, build_mesh, chord_groups, star_form, star_matrix,
)
from .errors import AllStartsFailed, BracketFailure, DomainError, NoCrossing
from .geometry import SHARP_SIZES, congruent, make_star, sharp_configuration
from .spectral import DEFAULT_KAPPA_TOL, _CurveSolver, _solve_level, _star_solver

SENTINEL = float("-inf")
MIN_PAIR_ANGLE = 1e-3
CONGRUENCE_TOL = 5e-3
#: root tolerance inside the multi-start sweep; the final polish and the
#: public objective use ``OptSettings.kappa_tol``
SEARCH_KAPPA_TOL = 1e-6
#: most outer (fixed-kappa) steps of one search
_MAX_OUTER_STEPS = 10
#: Nelder-Mead evaluations of one start, over all its outer steps, per
#: search parameter; the polish of the best start gets twice as many
MAXFEV_PER_PARAM = 200


@dataclass(frozen=True)
class OptSettings:
    starts: int = 8
    seed: int = 0
    simplex_tol: float = 1e-5
    mesh: Mesh | None = None
    kappa_tol: float = DEFAULT_KAPPA_TOL


@dataclass(frozen=True)
class OptResult:
    best_directions: np.ndarray
    best_energy: float
    starts: int
    per_start_trace: tuple[float, ...]
    congruent_to_sharp: bool | None
    congruence_tol: float
    kernel_sum_gap: float | None
    #: the crossings kappa_0 >= kappa_1 >= ... of each start's accepted outer
    #: steps at the search tolerance; empty for a start without a crossing
    search_kappas: tuple[tuple[float, ...], ...]

    @property
    def n_arms(self) -> int:
        return self.best_directions.shape[0]


def search_mesh(L: float) -> Mesh:
    """Coarse mesh used inside the direction search.

    The sharp configurations maximize the discretized objective exactly (the
    pointwise kernel-sum inequality holds entrywise at the quadrature nodes),
    so the search mesh only needs to separate configurations, not to resolve
    absolute energies.
    """
    return build_mesh(L, 3, 5, 2.0)


def local_max_mesh(L: float) -> Mesh:
    """Default mesh of ``verify_sharp_local_max``."""
    return build_mesh(L, 12, 8, 2.0)


def gauge_embed(params, N: int) -> np.ndarray:
    """Map 2N-3 unconstrained angles to N unit directions, rotations fixed.

    Direction 1 is the north pole; direction 2 lies in the x-z half plane
    (one polar angle); directions 3..N carry polar and azimuthal angles.
    Angles enter only through sine and cosine, so every real parameter
    vector is admissible and the map is smooth and periodic.
    """
    params = np.asarray(params, dtype=float)
    if params.size != 2 * N - 3:
        raise ValueError(f"expected {2 * N - 3} parameters for N={N}, got {params.size}")
    dirs = np.empty((N, 3))
    dirs[0] = (0.0, 0.0, 1.0)
    dirs[1] = (math.sin(params[0]), 0.0, math.cos(params[0]))
    for k in range(2, N):
        theta = params[2 * k - 3]
        phi = params[2 * k - 2]
        st = math.sin(theta)
        dirs[k] = (st * math.cos(phi), st * math.sin(phi), math.cos(theta))
    return dirs


def _min_pair_angle(dirs: np.ndarray) -> float:
    g = dirs @ dirs.T
    iu = np.triu_indices(dirs.shape[0], k=1)
    return float(np.arccos(np.clip(g[iu], -1.0, 1.0)).min())


def objective(
    params,
    N: int,
    L: float,
    alpha: float,
    mesh: Mesh,
    kappa_tol: float = DEFAULT_KAPPA_TOL,
) -> float:
    """Ground-state energy of the embedded star, or -inf.

    The sentinel is returned when a pairwise angle falls below 1e-3 rad,
    when no bound state exists, or when the root solve gives up
    (``BracketFailure``; the energy diverges to -infinity in the
    closing-angle limit).
    """
    dirs = gauge_embed(params, N)
    if _min_pair_angle(dirs) < MIN_PAIR_ANGLE:
        return SENTINEL
    config = make_star(dirs, L, alpha)
    solver = _star_solver(config, mesh)
    try:
        _, energy, _, _ = _solve_level(solver, alpha, 1, kappa_tol)
    except (NoCrossing, BracketFailure):
        return SENTINEL
    return energy


def _draw_start(rng: np.random.Generator, N: int) -> np.ndarray:
    for _ in range(200):
        params = np.empty(2 * N - 3)
        params[0] = math.acos(rng.uniform(-1.0, 1.0))
        for k in range(2, N):
            params[2 * k - 3] = math.acos(rng.uniform(-1.0, 1.0))
            params[2 * k - 2] = rng.uniform(0.0, 2.0 * math.pi)
        if _min_pair_angle(gauge_embed(params, N)) > 0.15:
            return params
    return params


class _WarmObjective:
    """The fixed-kappa iteration of one search, on the mesh-only geometry
    shared by all its stars.

    Off-diagonal blocks are plain Nystrom samples sqrt(w_s w_t) e^{-kappa D}
    / (4 pi D), D = sqrt((s-t)^2 + s t c), symmetric as sampled: the
    pointwise kernel-sum inequality holds entrywise at the quadrature nodes,
    so the discrete optimum is the sharp configuration with or without the
    product-integration corrections; the search only needs the argmax.

    ``kappa`` is the fixed kappa of the current outer step; its diagonal
    block is computed once per step, not once per evaluation.
    """

    def __init__(self, N, alpha, mesh, kappa_tol):
        self.N, self.alpha = N, alpha
        self.kappa_tol = kappa_tol
        self.kappa: float | None = None
        self._T: np.ndarray | None = None
        self._diag = BlockAssembler(mesh, chord_sq=None)
        s = mesh.nodes
        self._diff_sq = (s[:, None] - s[None, :]) ** 2
        self._st = np.outer(s, s)

    def matrix(self, directions: np.ndarray):
        """``kappa -> matrix`` of one star; one broadcast gives the blocks of
        all its distinct chords.  With ``slope``, it also gives the quadratic
        form of the derivative in kappa (``star_form``): the plain samples'
        derivative is -sqrt(w_s w_t) e^{-kappa D} / (4 pi)."""
        chords, pairs = chord_groups(directions)
        N = directions.shape[0]
        D = np.sqrt(self._diff_sq + self._st * chords[:, None, None])
        fold = self._diag._fold

        def matrix(kappa: float, slope: bool = False):
            E = np.exp(-kappa * D)
            B = fold * (E / D) / FOUR_PI
            if not slope:
                T = self._T if kappa == self.kappa else self._diag.weighted_block(kappa)
                return star_matrix(N, T, B, *pairs)
            T, dT = self._diag.weighted_block(kappa, derivative=True)
            return (star_matrix(N, T, B, *pairs),
                    star_form(N, dT, -fold * E / FOUR_PI, *pairs))

        return matrix

    def _solver(self, params, slopes: bool = False) -> _CurveSolver | None:
        """The curve solver of the star at ``params``, for values only unless
        ``slopes``; None below the minimal pair angle."""
        dirs = gauge_embed(params, self.N)
        if _min_pair_angle(dirs) < MIN_PAIR_ANGLE:
            return None
        matrix = self.matrix(dirs)
        sloped = (lambda kappa: matrix(kappa, slope=True)) if slopes else None
        return _CurveSolver(matrix, sloped=sloped)

    def crossing(self, params, upper: float | None = None) -> float | None:
        """The crossing kappa(x) to ``kappa_tol``, bracketed from above by
        ``upper`` if given; None where it does not exist."""
        solver = self._solver(params, slopes=True)
        if solver is None:
            return None
        try:
            kappa, _, _, _ = _solve_level(solver, self.alpha, 1, self.kappa_tol, upper)
        except (NoCrossing, BracketFailure):
            return None
        return kappa

    def negative(self, params) -> float:
        """lambda(x, kappa) - alpha at the step's fixed kappa, from one
        eigensolve: negative exactly where x crosses below kappa, that is,
        where x beats the current iterate; +inf below the minimal pair
        angle."""
        solver = self._solver(params)
        if solver is None:
            return float("inf")
        return solver.lam(self.kappa) - self.alpha

    def search(self, x0, xatol: float, fatol: float, maxfev: int):
        """The fixed-kappa iteration from ``x0`` (module docstring): returns
        the crossings kappa_0 >= kappa_1 >= ... of the accepted steps and the
        last accepted point; no crossings if ``x0`` has none.  ``maxfev``
        bounds the evaluations of ``negative`` over all steps."""
        kappa = self.crossing(x0)
        if kappa is None:
            return (), x0
        kappas, x = [kappa], x0
        for _ in range(_MAX_OUTER_STEPS):
            if maxfev < 1:
                break
            self.kappa, self._T = kappa, self._diag.weighted_block(kappa)
            with np.errstate(invalid="ignore"):  # inf sentinels inside the simplex
                res = minimize(
                    self.negative, x, method="Nelder-Mead",
                    options={"xatol": xatol, "fatol": fatol, "maxfev": maxfev},
                )
            maxfev -= res.nfev
            # lambda(x_{k+1}, kappa_k) <= alpha, so kappa_k is an upper end;
            # the root returns kappa_k itself when the gain is below tolerance
            new = self.crossing(res.x, upper=kappa)
            if new is None or new > kappa:
                break
            kappas.append(new)
            x = res.x
            if kappa - new <= self.kappa_tol * kappa:
                break
            kappa = new
        return tuple(kappas), x


def optimize(N: int, L: float, alpha: float, settings: OptSettings | None = None) -> OptResult:
    """Multi-start search for the energy-maximizing directions.

    Each start runs the fixed-kappa iteration (module docstring) with root
    tolerance ``SEARCH_KAPPA_TOL``; the best start is polished by the same
    iteration with a tighter simplex at ``settings.kappa_tol``, and every
    start's result is scored by ``objective`` on the corrected matrix.
    ``MAXFEV_PER_PARAM`` per parameter bounds the fixed-kappa evaluations
    of each start, the polish gets twice that.

    Deterministic for a fixed seed: each start draws its initial point from
    an independent substream keyed by (seed, start index).  For N in the
    sharp family sizes the result carries a congruence verdict (tolerance
    5e-3 on inner products) and the pointwise kernel-sum gap against the
    sharp configuration.
    """
    if N < 2:
        raise DomainError("optimization needs at least two arms")
    settings = settings or OptSettings()
    mesh = settings.mesh or search_mesh(L)
    nparams = 2 * N - 3
    maxfev = MAXFEV_PER_PARAM * nparams

    finals: list[tuple[float, np.ndarray]] = []
    search_kappas = []
    for start in range(settings.starts):
        rng = np.random.default_rng([settings.seed, start])
        x0 = _draw_start(rng, N)
        warm = _WarmObjective(N, alpha, mesh, SEARCH_KAPPA_TOL)
        kappas, x = warm.search(x0, settings.simplex_tol, 1e-8, maxfev)
        search_kappas.append(kappas)
        finals.append((-kappas[-1] ** 2 if kappas else SENTINEL, x))
    if all(v == SENTINEL for v, _ in finals):
        raise AllStartsFailed("every start ended in the sentinel region")

    def full_objective(params):
        return objective(params, N, L, alpha, mesh, settings.kappa_tol)

    trace = [full_objective(p) if v > SENTINEL else SENTINEL for v, p in finals]
    best_idx = int(np.argmax(trace))
    best_params = finals[best_idx][1]
    best_value = trace[best_idx]

    # continue the winning start with a tighter simplex, then score it at
    # full accuracy so best_energy = max(per_start_trace) stays exact
    warm = _WarmObjective(N, alpha, mesh, settings.kappa_tol)
    kappas, x = warm.search(best_params, settings.simplex_tol * 0.1, 0.0, 2 * maxfev)
    if len(kappas) > 1:
        polished = full_objective(x)
        if polished > best_value:
            best_value = polished
            best_params = x
    trace[best_idx] = best_value
    best_dirs = gauge_embed(best_params, N)
    verdict = None
    gap = None
    if N in SHARP_SIZES:
        sharp = sharp_configuration(N)
        verdict = congruent(best_dirs, sharp, tol=CONGRUENCE_TOL)
        rng = np.random.default_rng([settings.seed, 10**6])
        samples = list(zip(rng.uniform(0.05, L, 25), rng.uniform(0.05, L, 25)))
        gap = kernel_sum_compare(best_dirs, sharp, 1.0, samples).min_gap
    return OptResult(
        best_directions=best_dirs,
        best_energy=best_value,
        starts=settings.starts,
        per_start_trace=tuple(trace),
        congruent_to_sharp=verdict,
        congruence_tol=CONGRUENCE_TOL,
        kernel_sum_gap=gap,
        search_kappas=tuple(search_kappas),
    )


@dataclass(frozen=True)
class SharpLocalMaxReport:
    n_arms: int
    scale: float
    trials: int
    sharp_energy: float
    perturbed_energies: tuple[float, ...]
    degenerate: bool
    passed: bool


def verify_sharp_local_max(
    N: int,
    L: float,
    alpha: float,
    scale: float,
    trials: int,
    seed: int = 0,
    mesh: Mesh | None = None,
    kappa_tol: float = DEFAULT_KAPPA_TOL,
) -> SharpLocalMaxReport:
    """Check that the sharp configuration beats random nearby perturbations.

    Each trial perturbs every direction tangentially by ``scale``,
    renormalizes, and compares ground-state energies; the energy depends on
    the directions only through their chords, so no gauge is fixed.
    Passes iff the sharp configuration is strictly better in every trial.
    A zero scale compares the configuration against itself and is flagged
    degenerate (vacuous pass).
    """
    if mesh is None:
        mesh = local_max_mesh(L)
    sharp = sharp_configuration(N)
    # each solver is dropped as soon as its energy is known, so no two
    # stars' correction batches are held at once
    kappa, e_sharp, _, _ = _solve_level(
        _star_solver(make_star(sharp, L, alpha), mesh), alpha, 1, kappa_tol
    )
    if scale == 0.0:
        return SharpLocalMaxReport(
            n_arms=N, scale=0.0, trials=trials, sharp_energy=e_sharp,
            perturbed_energies=tuple([e_sharp] * trials), degenerate=True,
            passed=True,
        )
    rng = np.random.default_rng(seed)
    perturbed = []
    for _ in range(trials):
        d = sharp.copy()
        for i in range(N):
            g = rng.standard_normal(3)
            t = g - np.dot(g, d[i]) * d[i]
            nt = np.linalg.norm(t)
            if nt < 1e-14:
                t = np.array([1.0, 0.0, 0.0])
                nt = 1.0
            d[i] = d[i] + scale * t / nt
            d[i] /= np.linalg.norm(d[i])
        try:
            # the sharp star's crossing is the smallest, and a perturbed
            # star's lies just above it
            _, e_pert, _, _ = _solve_level(
                _star_solver(make_star(d, L, alpha), mesh), alpha, 1, kappa_tol, kappa
            )
        except (NoCrossing, BracketFailure):
            e_pert = SENTINEL
        perturbed.append(e_pert)
    passed = all(e_sharp > e for e in perturbed)
    return SharpLocalMaxReport(
        n_arms=N, scale=scale, trials=trials, sharp_energy=e_sharp,
        perturbed_energies=tuple(perturbed), degenerate=False, passed=passed,
    )


@dataclass(frozen=True)
class KernelSumReport:
    min_gap: float
    gaps: tuple[float, ...]


def kernel_sum_compare(config_a, config_b, kappa: float, sample_pairs) -> KernelSumReport:
    """Pointwise comparison of pairwise kernel sums of two direction sets.

    For each sample (s, t), evaluates
    sum_{i<j} T_{kappa;s,t}(|a_i - a_j|^2) - sum_{i<j} T_{kappa;s,t}(|b_i - b_j|^2)
    and reports all gaps and their minimum.  With ``config_b`` a sharp
    configuration the gap is nonnegative, and zero exactly for congruent
    input.
    """
    a = np.atleast_2d(np.asarray(config_a, float))
    b = np.atleast_2d(np.asarray(config_b, float))
    if a.shape[0] != b.shape[0]:
        from .errors import SizeMismatch

        raise SizeMismatch(f"direction sets have sizes {a.shape[0]} and {b.shape[0]}")
    iu = np.triu_indices(a.shape[0], k=1)
    xa = 2.0 - 2.0 * (a @ a.T)[iu]
    xb = 2.0 - 2.0 * (b @ b.T)[iu]
    st = np.asarray(sample_pairs, dtype=float)
    s, t = st[:, 0], st[:, 1]
    sq = ((s - t) ** 2)[:, None]
    prod = (s * t)[:, None]

    def pair_sum(x):
        rho = np.sqrt(sq + prod * x[None, :])
        return (np.exp(-kappa * rho) / (4.0 * math.pi * rho)).sum(axis=1)

    gaps = pair_sum(xa) - pair_sum(xb)
    return KernelSumReport(min_gap=float(gaps.min()), gaps=tuple(float(g) for g in gaps))
