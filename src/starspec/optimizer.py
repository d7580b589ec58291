"""Maximization of the ground-state energy over arm directions.

The search runs in gauge-fixed spherical coordinates (rotations quotiented
out), uses multi-start quasi-Newton descent, and verifies the result
against the sharp configuration of the same size.  Near-degenerate
configurations and configurations without a bound state map to a -inf
sentinel, consistent with maximization: closing an angle drives the energy
to -infinity.

Each start searches at fixed kappa, as Dinkelbach's method does for a
fractional program.  Write lambda(x, kappa) for the top eigenvalue of the
search matrix of the star with gauge parameters x, and kappa(x) for its
crossing, lambda(x, kappa(x)) = alpha; the energy is -kappa(x)^2, so
maximizing it means minimizing kappa(x).  From kappa_0 = kappa(x_0), outer
step k runs L-BFGS on x -> lambda(x, kappa_k) from x_k, one eigensolve per
evaluation, and sets kappa_{k+1} = kappa(x_{k+1}).

The gradient costs no extra eigensolve.  The matrix depends on x only
through the squared chords c_ij = |d_i - d_j|^2 of the directions d =
``gauge_embed(x)``, and pair (i, j) holds the block B(c_ij) and its
transpose.  For the unit top vector v with arm slices v_i, Hellmann-Feynman
gives dlambda/dc_ij = 2 v_i^T (dB/dc)(c_ij) v_j.  The search's pair blocks
are plain samples sqrt(w_s w_t) e^{-kappa D} / (4 pi D) with D^2 = (s-t)^2
+ s t c, so dB/dc = -sqrt(w_s w_t) e^{-kappa D} (kappa D + 1) s t /
(8 pi D^3).  The chain rule through dc_ij/dd_i = 2 (d_i - d_j) and the
Jacobian of ``gauge_embed`` gives the gradient in x.

The iteration is monotone.  lambda(x, .) is strictly decreasing, and the
descent returns no point worse than its start (its line search accepts
only steps that lower lambda), so lambda(x_{k+1}, kappa_k) <=
lambda(x_k, kappa_k) = alpha gives kappa_{k+1} <= kappa_k: kappa_k is an
upper end of the next root's bracket, and the energy never falls.  Its
fixed points are optimal: if min_x lambda(x, kappa_k) = alpha and some x'
had kappa(x') < kappa_k, then lambda(x', kappa_k) < lambda(x', kappa(x'))
= alpha, a contradiction.  The sharp configuration minimizes lambda(.,
kappa) at every kappa (its top vector is positive and arm-symmetric, and
the pairwise kernel-sum inequality holds entrywise at the quadrature
nodes), so every inner problem shares the energy's argmax.

A start stops when a step lowers kappa by no more than the root tolerance,
and keeps x_k when a step raises kappa (lambda(x_k, kappa_k) = alpha holds
only to that tolerance, so lambda(x_{k+1}, kappa_k) may round above alpha)
or x_{k+1} has no crossing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discretization import (
    FOUR_PI, BlockAssembler, Mesh, _weigh, build_mesh, chord_groups, star_form, star_matrix,
)
from .errors import AllStartsFailed, BracketFailure, DomainError, NoCrossing, SizeMismatch
from .geometry import SHARP_SIZES, congruent, make_star, pair_chords, sharp_configuration
from .spectral import _CurveSolver, _eigh, _solve_level, _star_solver

SENTINEL = float("-inf")
MIN_PAIR_ANGLE = 1e-3
CONGRUENCE_TOL = 5e-3
#: the panels, order and grading of ``search_mesh``
SEARCH_MESH = {"panels": 3, "order": 5, "grading": 2.0}
#: root tolerance of the fixed-kappa search; the scoring ``objective`` and
#: ``verify_sharp_local_max`` solve with none (``spectral._solve_level``)
SEARCH_KAPPA_TOL = 1e-6
#: most outer (fixed-kappa) steps of one search
_MAX_OUTER_STEPS = 10
#: evaluations of ``_WarmObjective.negative`` in one start, over all its
#: outer steps, per search parameter
MAXFEV_PER_PARAM = 200
#: the descent of one outer step stops once no entry of the gradient of
#: lambda(., kappa_k) exceeds this
_GRAD_TOL = 1e-7
#: the longest step of the descent, in radians per angle
_MAX_STEP = 0.5
#: a line search gives up below this step, in radians
_MIN_STEP = 1e-9
#: steps kept by L-BFGS
_MEMORY = 10
#: the line search accepts a step t along p from x once
#: f(x + t p) <= f(x) + _ARMIJO t g(x).p
_ARMIJO = 1e-4


@dataclass(frozen=True)
class OptSettings:
    starts: int = 8
    seed: int = 0
    mesh: Mesh | None = None


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


def search_mesh(L: float) -> Mesh:
    """Coarse mesh used inside the direction search.

    The sharp configurations maximize the discretized objective exactly (the
    pointwise kernel-sum inequality holds entrywise at the quadrature nodes),
    so the search mesh only needs to separate configurations, not to resolve
    absolute energies.
    """
    return build_mesh(L, **SEARCH_MESH)


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


def _gauge_pullback(params, G: np.ndarray) -> np.ndarray:
    """The gradient in the parameters of a function of the directions whose
    gradient in them is ``G`` (N x 3): G contracted with the Jacobian of
    ``gauge_embed``."""
    params = np.asarray(params, dtype=float)
    grad = np.empty(params.size)
    grad[0] = G[1, 0] * math.cos(params[0]) - G[1, 2] * math.sin(params[0])
    for k in range(2, G.shape[0]):
        theta, phi = params[2 * k - 3], params[2 * k - 2]
        ct, st, cp, sp = math.cos(theta), math.sin(theta), math.cos(phi), math.sin(phi)
        grad[2 * k - 3] = ct * (G[k, 0] * cp + G[k, 1] * sp) - st * G[k, 2]
        grad[2 * k - 2] = st * (G[k, 1] * cp - G[k, 0] * sp)
    return grad


def _min_pair_angle(dirs: np.ndarray) -> float:
    return 2.0 * math.asin(min(1.0, 0.5 * math.sqrt(pair_chords(dirs).min())))


def objective(
    params,
    N: int,
    L: float,
    alpha: float,
    mesh: Mesh,
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
        _, energy, _, _ = _solve_level(solver, alpha, 1)
    except (NoCrossing, BracketFailure):
        return SENTINEL
    return energy


def _two_loop(steps, q: np.ndarray) -> np.ndarray:
    """H q for the L-BFGS inverse Hessian H of the steps (s, y), oldest
    first, each with s.y > 0; q itself when there are none (Nocedal &
    Wright, *Numerical Optimization*, 2006, algorithm 7.4)."""
    q = q.copy()
    coef = []
    for s, y in reversed(steps):
        a = (s @ q) / (s @ y)
        coef.append(a)
        q -= a * y
    if steps:
        s, y = steps[-1]
        q *= (s @ y) / (y @ y)
    for (s, y), a in zip(steps, reversed(coef)):
        q += (a - (y @ q) / (s @ y)) * s
    return q


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
    """The fixed-kappa iteration, on the mesh-only geometry shared by every
    star of every start.

    Off-diagonal blocks are plain Nystrom samples sqrt(w_s w_t) e^{-kappa D}
    / (4 pi D), D = sqrt((s-t)^2 + s t c), symmetric as sampled: the
    pointwise kernel-sum inequality holds entrywise at the quadrature nodes,
    so the discrete optimum is the sharp configuration with or without the
    product-integration corrections; the search only needs the argmax.

    ``kappa`` is the fixed kappa of the current outer step; its diagonal
    block is computed once per step, not once per evaluation.  ``search``
    sets both before its first evaluation, so one object serves every start.
    """

    def __init__(self, N, alpha, mesh):
        self.N, self.alpha = N, alpha
        self.kappa: float | None = None
        self.gradient: np.ndarray | None = None
        self._T: np.ndarray | None = None
        self._diag = BlockAssembler(mesh, chord_sq=None)
        sw = np.sqrt(mesh.weights)
        self._fold = sw[:, None] * sw[None, :]
        s = mesh.nodes
        self._diff_sq = (s[:, None] - s[None, :]) ** 2
        self._st = np.outer(s, s)

    def _directions(self, params) -> np.ndarray | None:
        """The star's directions at ``params``; None below the minimal pair
        angle."""
        dirs = gauge_embed(params, self.N)
        return None if _min_pair_angle(dirs) < MIN_PAIR_ANGLE else dirs

    def _distances(self, directions: np.ndarray):
        """The kernel distances D of every distinct chord of the star, in
        one broadcast, and its pairs (``chord_groups``)."""
        chords, pairs = chord_groups(directions)
        return np.sqrt(self._diff_sq + self._st * chords[:, None, None]), pairs

    def pieces(self, directions: np.ndarray):
        """The star's ``(kappa, j) -> (matrix, form, copies)``
        (``_CurveSolver``): its full search matrix, with the quadratic form
        of the derivative in kappa (``star_form``) from the raw derivative
        blocks, and 1 copy; the plain samples' raw derivative is
        -e^{-kappa D}."""
        D, pairs = self._distances(directions)
        N, fold, weights = self.N, self._fold, self._diag.mesh.weights

        def pieces(kappa: float, j: int):
            E = np.exp(-kappa * D)
            K, dK = self._diag.kernel_matrix(kappa, derivative=True)
            A = star_matrix(N, _weigh(K, weights), fold * (E / D) / FOUR_PI, *pairs)
            return A, star_form(weights, dK, np.negative(E, out=E), *pairs), 1

        return pieces

    def crossing(self, params, upper: float | None = None) -> float | None:
        """The crossing kappa(x) to ``SEARCH_KAPPA_TOL``, bracketed from
        above by ``upper`` if given; None where it does not exist."""
        dirs = self._directions(params)
        if dirs is None:
            return None
        try:
            kappa, _, _, _ = _solve_level(_CurveSolver(self.pieces(dirs)), self.alpha, 1,
                                          upper, kappa_tol=SEARCH_KAPPA_TOL)
        except (NoCrossing, BracketFailure):
            return None
        return kappa

    def negative(self, params) -> float:
        """lambda(x, kappa) - alpha at the step's fixed kappa, from one
        eigensolve with its vector: negative exactly where x crosses below
        kappa, that is, where x beats the current iterate; +inf below the
        minimal pair angle.  Its gradient in x (module docstring) goes to
        ``gradient``, None at the sentinel."""
        dirs = self._directions(params)
        self.gradient = None
        if dirs is None:
            return float("inf")
        D, (I, J, group) = self._distances(dirs)
        kappa, fold = self.kappa, self._fold
        E = np.exp(-kappa * D)
        vals, vecs = _eigh(star_matrix(self.N, self._T, fold * (E / D) / FOUR_PI, I, J, group),
                           vectors=True)
        dB = fold * E * (kappa * D + 1.0) * self._st / (-2.0 * FOUR_PI * D**3)
        V = vecs[:, 0].reshape(self.N, -1)
        dc = np.empty(I.size)  # dlambda/dc_ij of each pair
        for g, block in enumerate(dB):
            k = np.nonzero(group == g)[0]
            dc[k] = 2.0 * np.sum((V[I[k]] @ block) * V[J[k]], axis=1)
        G = np.zeros_like(dirs)  # dlambda/dd_i, from dc_ij/dd_i = 2 (d_i - d_j)
        delta = 2.0 * dc[:, None] * (dirs[I] - dirs[J])
        np.add.at(G, I, delta)
        np.add.at(G, J, -delta)
        self.gradient = _gauge_pullback(params, G)
        return float(vals[0]) - self.alpha

    def _descend(self, x, maxfev: int):
        """L-BFGS on ``negative`` from ``x``: returns a point no worse than
        ``x`` and the evaluations spent, at most ``maxfev``.

        The direction is -H g, with H the inverse Hessian of the last
        ``_MEMORY`` steps (s, y) by the two-loop recursion, scaled by
        s.y / y.y of the last one.  Each line search halves its step until
        it lowers ``negative`` enough (Armijo's condition), which the
        sentinel never does.  The descent stops once no entry of the
        gradient exceeds ``_GRAD_TOL``, or a line search falls below
        ``_MIN_STEP``."""
        f, g = self.negative(x), self.gradient
        used, steps = 1, []
        while used < maxfev and np.abs(g).max() > _GRAD_TOL:
            p = _two_loop(steps, -g)
            slope = float(g @ p)
            if not slope < 0.0:
                p, slope, steps = -g, -float(g @ g), []
            size = np.abs(p).max()
            t = min(1.0, _MAX_STEP / size)
            while True:
                x1 = x + t * p
                f1 = self.negative(x1)
                used += 1
                if f1 < f and f1 <= f + _ARMIJO * t * slope:
                    break
                t *= 0.5
                if used >= maxfev or t * size <= _MIN_STEP:
                    return x, used
            s, y = x1 - x, self.gradient - g
            if s @ y > 0.0:
                steps = (steps + [(s, y)])[-_MEMORY:]
            x, f, g = x1, f1, self.gradient
        return x, used

    def search(self, x0):
        """The fixed-kappa iteration from ``x0`` (module docstring): returns
        the crossings kappa_0 >= kappa_1 >= ... of the accepted steps and the
        last accepted point; no crossings if ``x0`` has none.
        ``MAXFEV_PER_PARAM`` per parameter bounds the evaluations of
        ``negative`` over all steps."""
        kappa = self.crossing(x0)
        if kappa is None:
            return (), x0
        kappas, x, maxfev = [kappa], x0, MAXFEV_PER_PARAM * x0.size
        for _ in range(_MAX_OUTER_STEPS):
            if maxfev < 1:
                break
            self.kappa, self._T = kappa, self._diag.weighted_block(kappa)
            x1, used = self._descend(x, maxfev)
            maxfev -= used
            # lambda(x_{k+1}, kappa_k) <= alpha, so kappa_k is an upper end;
            # the root returns kappa_k itself when the gain is below tolerance
            new = self.crossing(x1, upper=kappa)
            if new is None or new > kappa:
                break
            kappas.append(new)
            x = x1
            if kappa - new <= SEARCH_KAPPA_TOL * kappa:
                break
            kappa = new
        return tuple(kappas), x


def optimize(N: int, L: float, alpha: float, settings: OptSettings | None = None) -> OptResult:
    """Multi-start search for the energy-maximizing directions.

    Each start runs the fixed-kappa iteration (module docstring) with root
    tolerance ``SEARCH_KAPPA_TOL`` and at most ``MAXFEV_PER_PARAM``
    fixed-kappa evaluations per parameter, all on one ``_WarmObjective``.
    Every start's result is scored by ``objective`` on the corrected matrix,
    and the best score is ``best_energy``.

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
    warm = _WarmObjective(N, alpha, mesh)

    finals: list[tuple[float, np.ndarray]] = []
    search_kappas = []
    for start in range(settings.starts):
        rng = np.random.default_rng([settings.seed, start])
        kappas, x = warm.search(_draw_start(rng, N))
        search_kappas.append(kappas)
        finals.append((-kappas[-1] ** 2 if kappas else SENTINEL, x))
    if all(v == SENTINEL for v, _ in finals):
        raise AllStartsFailed("every start ended in the sentinel region")

    trace = [
        objective(p, N, L, alpha, mesh) if v > SENTINEL else SENTINEL
        for v, p in finals
    ]
    best_idx = int(np.argmax(trace))
    best_dirs = gauge_embed(finals[best_idx][1], N)
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
        best_energy=trace[best_idx],
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
    seed: int,
    mesh: Mesh,
) -> SharpLocalMaxReport:
    """Check that the sharp configuration beats random nearby perturbations.

    Each trial perturbs every direction tangentially by ``scale``,
    renormalizes, and compares ground-state energies; the energy depends on
    the directions only through their chords, so no gauge is fixed.
    Passes iff the sharp configuration is strictly better in every trial.
    A zero scale compares the configuration against itself and is flagged
    degenerate (vacuous pass).
    """
    sharp = sharp_configuration(N)
    # each solver is dropped as soon as its energy is known, so no two
    # stars' correction batches are held at once
    kappa, e_sharp, _, _ = _solve_level(_star_solver(make_star(sharp, L, alpha), mesh), alpha, 1)
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
            _, e_pert, _, _ = _solve_level(_star_solver(make_star(d, L, alpha), mesh),
                                           alpha, 1, kappa)
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
        raise SizeMismatch(f"direction sets have sizes {a.shape[0]} and {b.shape[0]}")
    xa, xb = pair_chords(a), pair_chords(b)
    st = np.asarray(sample_pairs, dtype=float)
    s, t = st[:, 0], st[:, 1]
    sq = ((s - t) ** 2)[:, None]
    prod = (s * t)[:, None]

    def pair_sum(x):
        rho = np.sqrt(sq + prod * x[None, :])
        return (np.exp(-kappa * rho) / (4.0 * math.pi * rho)).sum(axis=1)

    gaps = pair_sum(xa) - pair_sum(xb)
    return KernelSumReport(min_gap=float(gaps.min()), gaps=tuple(float(g) for g in gaps))
