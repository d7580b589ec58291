"""Eigenvalue curves of the discretized Birman-Schwinger operator and the
root-finding that turns them into bound-state energies.

For fixed arm geometry the top eigenvalues lambda_j(kappa) are strictly
decreasing in kappa, so each level that starts above the coupling alpha at
kappa = 0 crosses it exactly once; the crossing gives the energy
E_j = -kappa_j^2.  The bound states are exactly these crossings (the
Birman-Schwinger principle), so the number of lambda_j(0) above alpha is
the exact level count of the discrete operator.

The curves are smooth, and each eigensolve gives the slope as well.  For
the symmetric matrix A(kappa) and a unit eigenvector v of lambda_j,
differentiating A v = lambda_j v and multiplying by v^T gives
v^T A' v + v^T A v' = lambda_j' + lambda_j v^T v'; v^T A = lambda_j v^T
cancels the v' terms, so lambda_j'(kappa) = v^T A'(kappa) v
(Hellmann-Feynman).  The correction batches do not depend on kappa, so A'
comes from the same exponentials as A (``BlockAssembler.kernel_matrix``),
and v^T A' v is summed block by block, without forming A'.  A root is then
found by safeguarded Newton iteration in ln kappa (``_solve_level``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from .discretization import Mesh, StarAssembler, build_mesh
from .errors import (
    BracketFailure,
    EigensolveFailure,
    NoCrossing,
    NotConverged,
)
from .geometry import StarConfig

DEFAULT_PANELS = 8
DEFAULT_ORDER = 12
DEFAULT_GRADING = 2.0
DEFAULT_KAPPA_TOL = 1e-10

#: most lambda evaluations of one root solve
_MAX_EVALUATIONS = 100

#: above this dimension the top eigenvalue comes from ARPACK instead of LAPACK
_DENSE_MAX = 1000

_POSITIVITY_TOL = 1e-10


def default_mesh(L: float) -> Mesh:
    return build_mesh(L, DEFAULT_PANELS, DEFAULT_ORDER, DEFAULT_GRADING)


def default_ladder(L: float) -> list[Mesh]:
    return [build_mesh(L, p, DEFAULT_ORDER, DEFAULT_GRADING) for p in (8, 16, 32)]


@dataclass(frozen=True)
class Level:
    """One bound-state level: index, crossing kappa, energy -kappa^2."""

    index: int
    kappa: float
    energy: float


@dataclass(frozen=True)
class SpectralResult:
    levels: tuple[Level, ...]
    ground_vector_positivity: bool
    arm_symmetry_residual: float
    parity: str | None
    mesh_metadata: dict
    residual: float
    #: how the ground state was solved: ``path`` is "sector" (the M x M
    #: sector matrices of an arm-regular star, whose ``group_counts`` n_g are
    #: given), "dense" (LAPACK on the full matrix) or "arpack"; ``dim`` is
    #: the dimension solved
    eigensolver: dict
    #: lambda evaluations of the ground state's root solve
    root_evaluations: int

    @property
    def ground_energy(self) -> float:
        return self.levels[0].energy


@dataclass(frozen=True)
class _Evaluation:
    """One eigensolve of level j at kappa: value, slope d lambda_j / d
    kappa, unit eigenvector of the full matrix and sector (``_CurveSolver``)."""

    kappa: float
    j: int
    value: float
    slope: float
    vector: np.ndarray
    sector: int | None


def _form(M: np.ndarray):
    """The quadratic form u -> u^T M u."""
    return lambda u: float(u @ M @ u)


class _CurveSolver:
    """Eigenvalue curves of one star: ``matrix`` maps kappa to its symmetric
    Birman-Schwinger matrix A; ``sloped``, if given, maps kappa to A and the
    quadratic form v -> v^T (dA/dkappa) v of its derivative.  ARPACK solves
    start from the constant vector, then warm-start from the last top
    eigenvector.

    A solver with ``sloped`` solves each level with its eigenvector v and
    keeps the evaluation in ``last``, with the slope d lambda_j / d kappa =
    v^T (dA/dkappa) v (Hellmann-Feynman, module docstring); one without
    solves for values only.

    Given an arm-regular ``StarAssembler``, the top eigenpair comes from its
    M x M sector matrices instead.  The arm-symmetric vectors span an
    invariant subspace of the symmetric full matrix, so their orthogonal
    complement (the vectors whose arm slices sum to zero) is invariant too.
    The top eigenvalue is simple with a positive eigenvector
    (Perron-Frobenius), so that vector lies in one of the two subspaces,
    and no positive vector lies in the complement.  For two arms the two
    sectors split the matrix and the top is the larger of theirs, with no
    premise.  Lower levels and level counts use the full matrix.
    """

    def __init__(self, matrix, star: StarAssembler | None = None, sloped=None):
        self.matrix = matrix
        self.sloped = sloped
        self.star = star if star is not None and star.group_counts is not None else None
        self.last: _Evaluation | None = None
        self._warm: np.ndarray | None = None

    def _eigh(self, A: np.ndarray, first: int = 1, last: int | None = 1,
              vectors: bool = False):
        """The ``first``-th to ``last``-th largest eigenvalues of ``A`` (all
        for ``last=None``), ascending, with eigenvectors if asked.  ARPACK
        gives the top one alone above ``_DENSE_MAX``, LAPACK everything else.
        The constant start vector, not ARPACK's random one, makes runs repeat
        bitwise."""
        n = A.shape[0]
        try:
            if n > _DENSE_MAX and first == last == 1:
                v0 = np.ones(n) if self._warm is None else self._warm
                vals, vecs = spla.eigsh(A, k=1, which="LA", v0=v0, tol=1e-12)
                self._warm = vecs[:, 0]
                return (vals, vecs) if vectors else vals
            kw = dict(eigvals_only=not vectors, check_finite=False)
            if last is None:
                return sla.eigh(A, **kw)
            lo, hi = n - last, n - first + 1
            try:
                out = sla.eigh(A, subset_by_index=[lo, hi - 1], **kw)
            except sla.LinAlgError:
                out = None
            if out is not None and len(out[0] if vectors else out) == hi - lo:
                return out
            # the subset driver (evr) fails on some tiny, nearly scalar
            # matrices: "Internal Error." for values alone, no eigenpair with
            # vectors; the full driver (evd) does not.  A is intact, since it
            # was not handed over for overwriting
            out = sla.eigh(A, driver="evd", **kw)
            return (out[0][lo:hi], out[1][:, lo:hi]) if vectors else out[lo:hi]
        except (sla.LinAlgError, spla.ArpackError) as exc:
            raise EigensolveFailure(str(exc)) from exc

    def _matrices(self, kappa: float, j: int, slope: bool):
        """The matrices that hold level j at kappa, each with the quadratic
        form of its derivative in kappa if ``slope`` (else None): the
        sectors for the top of an arm-regular star, else the full matrix."""
        if j == 1 and self.star is not None:
            if slope:
                return [(S, _form(dS))
                        for S, dS in self.star.sector_matrices(kappa, derivative=True)]
            return [(S, None) for S in self.star.sector_matrices(kappa)]
        if slope:
            return [self.sloped(kappa)]
        return [(self.matrix(kappa), None)]

    def _solve(self, kappa: float, j: int, vectors: bool, slope: bool = False):
        """Level j at kappa: (value, unit eigenvector of the full matrix (if
        asked), index of the sector holding it (None off the sector path),
        slope (if asked))."""
        best = None
        for k, (A, form) in enumerate(self._matrices(kappa, j, slope)):
            out = self._eigh(A, j, j, vectors=vectors)
            val = float(out[0][0] if vectors else out[0])
            if best is None or val > best[0]:
                u = out[1][:, 0] if vectors else None
                best = (val, u, k, None if form is None else form(u))
        val, u, k, d = best
        if self.star is None or j > 1:
            return val, u, None, d
        if vectors:
            n_arms = self.star.config.n_arms
            signs = np.ones(n_arms) if k == 0 else np.array([1.0, -1.0])
            u = np.kron(signs, u) / np.sqrt(n_arms)
        return val, u, k, d

    def lam(self, kappa: float, j: int = 1) -> float:
        """j-th largest eigenvalue of Q_kappa (j = 1 is the top); a solver
        with ``sloped`` keeps the whole evaluation in ``last``."""
        if self.sloped is None:
            return self._solve(kappa, j, vectors=False)[0]
        value, vector, sector, slope = self._solve(kappa, j, vectors=True, slope=True)
        self.last = _Evaluation(kappa, j, value, slope, vector, sector)
        return value

    def top_pair(self, kappa: float) -> tuple[float, np.ndarray, int | None]:
        """Top eigenvalue, unit eigenvector and sector (``_solve``); those of
        ``last`` if it is the top at this kappa, with no new eigensolve."""
        last = self.last
        if last is not None and last.j == 1 and last.kappa == kappa:
            return last.value, last.vector, last.sector
        return self._solve(kappa, 1, vectors=True)[:3]

    def record(self, n: int) -> dict:
        """The ``eigensolver`` record of a top solve with an n-vector."""
        if self.star is not None:
            return {"path": "sector", "dim": n // self.star.config.n_arms,
                    "group_counts": self.star.group_counts.tolist()}
        return {"path": "arpack" if n > _DENSE_MAX else "dense", "dim": n,
                "group_counts": None}


def _star_solver(config: StarConfig, mesh: Mesh) -> _CurveSolver:
    asm = StarAssembler(config, mesh)
    return _CurveSolver(asm.matrix, asm, asm.sloped_matrix)


def lambda_curve(
    config: StarConfig, mesh: Mesh, kappa: float, count: int = 1
) -> np.ndarray:
    """Top ``count`` eigenvalues of the assembled operator, descending."""
    A = StarAssembler(config, mesh).matrix(kappa)
    return _CurveSolver(None)._eigh(A, 1, count)[::-1]


def count_bound_states(config: StarConfig, mesh: Mesh, alpha: float) -> int:
    """Number of eigenvalues of Q at kappa = 0 that exceed alpha.

    Every such curve is strictly decreasing and crosses alpha at exactly
    one kappa > 0, and no other curve crosses it there, so this is the
    exact number of bound states of the discrete operator.
    """
    return bound_states(config, mesh, alpha, 0)[0]


def _solve_level(
    solver: _CurveSolver,
    alpha: float,
    j: int,
    kappa_tol: float,
    start: float | None = None,
) -> tuple[float, float, float, int]:
    """Root of lambda_j(kappa) = alpha: returns (kappa_j, E_j, residual,
    evaluations).

    Newton's method in x = ln kappa on f(x) = lambda_j(e^x) - alpha, whose
    derivative is kappa lambda_j'(kappa), with lambda_j' = v^T (dA/dkappa) v
    from the eigenvector of each evaluation (module docstring).  In ln kappa
    the curve is nearly straight wherever the state is smaller than the
    arms, lambda ~ -ln(kappa)/(2 pi), so Newton converges there from far
    away.  The iteration starts at ``start``: a guess of the root, such as
    the crossing of a nearby star, or a kappa above it, such as the crossing
    of level j - 1 (lambda_j <= lambda_{j-1}).  Without one it starts at 0,
    where the step is Newton's in kappa itself; that needs a negative slope
    at 0, which the top level has, but a level whose state is odd under a
    symmetry of the star has slope 0 there, so lower levels take a start.

    Every evaluated kappa closes one end of the bracket [lo, hi], with
    f(lo) > 0 >= f(hi).  The curve is strictly decreasing, so the root lies
    inside, whatever the iterates did before.  A Newton step that would
    leave the bracket becomes a bisection instead: geometric between two
    evaluated ends, the evaluation of 0 itself while 0 is not yet one, and
    Newton's step in kappa where only an overflow of the step in ln kappa
    leaves the still open upper end.  So every iterate lies inside an
    interval that certainly holds the root.  The bracket closes at kappa =
    0: a level crosses exactly when lambda_j(0) > alpha, else
    ``NoCrossing``.

    The root returned is the last kappa evaluated, so its residual and the
    solver's ``last`` eigenvector belong to it.  It is returned once the
    Newton step that reached it moved kappa by at most ``kappa_tol``
    relative, so by Newton's quadratic convergence it lies far closer than
    that to the root; once Newton's next step rounds to nothing; or once
    the bracket is narrower than ``kappa_tol``.
    """
    lo, hi = 0.0, math.inf  # f(lo) > 0 >= f(hi) once evaluated
    k = start or 0.0
    zero_seen = k == 0.0
    prev = None  # where the Newton step to k came from
    for evaluations in range(1, _MAX_EVALUATIONS + 1):
        f = solver.lam(k, j) - alpha
        slope = solver.last.slope
        if f > 0.0:
            lo = k
        elif k == 0.0:
            raise NoCrossing(
                f"level {j} does not cross alpha={alpha} at this discretization"
            )
        else:
            hi = k
        target = _newton_target(k, f, slope)
        if (target == k or hi - lo <= kappa_tol * lo
                or prev is not None and abs(k - prev) <= kappa_tol * k):
            return k, -k * k, abs(f), evaluations
        if lo < target < hi:
            prev, k = k, target
            continue
        prev = None
        if hi == math.inf:
            # Newton's step in kappa, which stops short of the root where
            # the curve is convex in kappa
            target = k - f / slope if slope < 0.0 else math.inf
            if not k < target < math.inf:
                raise BracketFailure("eigenvalue curve did not fall below alpha")
            k = target
        elif lo > 0.0:
            k = math.sqrt(lo) * math.sqrt(hi)
        else:
            k = hi / 2.0 if zero_seen else 0.0
            zero_seen = True
    raise BracketFailure(
        f"no root to kappa_tol={kappa_tol} in {_MAX_EVALUATIONS} evaluations"
    )


def _newton_target(k: float, f: float, slope: float) -> float:
    """Newton's next kappa for f = lambda - alpha with d lambda / d kappa =
    ``slope`` at k: the step is taken in ln kappa, and at k = 0 in kappa;
    NaN unless the slope is negative."""
    d = k * slope if k > 0.0 else slope
    if not d < 0.0:
        return math.nan
    if k == 0.0:
        return -f / d
    with np.errstate(over="ignore"):
        return float(k * np.exp(-f / d))


def solve_energy(
    config: StarConfig,
    mesh: Mesh,
    alpha: float,
    j: int = 1,
    kappa_tol: float = DEFAULT_KAPPA_TOL,
) -> tuple[float, float]:
    """Solve lambda_j(kappa) = alpha for level j; returns (kappa_j, E_j).
    Level j > 1 is solved after the levels above it (``bound_states``)."""
    if j > 1:
        count, res = bound_states(config, mesh, alpha, j, kappa_tol)
        if count < j:
            raise NoCrossing(
                f"level {j} does not cross alpha={alpha} at this discretization"
            )
        return res.levels[-1].kappa, res.levels[-1].energy
    solver = _star_solver(config, mesh)
    kappa_1, energy, _, _ = _solve_level(solver, alpha, 1, kappa_tol)
    return kappa_1, energy


def _diagnostics(config: StarConfig, vec: np.ndarray):
    M = vec.size // config.n_arms
    v = vec.copy()
    v *= np.sign(v[np.argmax(np.abs(v))]) or 1.0
    vmax = np.abs(v).max()
    positivity = bool(v.min() >= -_POSITIVITY_TOL * vmax)
    slices = v.reshape(config.n_arms, M)
    mean = slices.mean(axis=0)
    mnorm = np.linalg.norm(mean)
    if mnorm == 0.0:
        symmetry = np.inf
    else:
        symmetry = float(
            max(np.linalg.norm(s - mean) for s in slices) / mnorm
        )
    return positivity, symmetry


def principal_eigenvalue(
    config: StarConfig,
    mesh: Mesh,
    alpha: float | None = None,
    kappa_tol: float = DEFAULT_KAPPA_TOL,
) -> SpectralResult:
    """Ground-state energy with eigenvector diagnostics.

    ``alpha`` defaults to the star's own coupling.  Diagnostics: positivity
    of the sign-fixed ground eigenvector, the maximum relative deviation of
    per-arm eigenvector slices from their mean, and (for N = 2) the parity
    of the ground state under arm exchange.
    """
    if alpha is None:
        alpha = config.coupling
    solver = _star_solver(config, mesh)
    return _ground(solver, config, mesh, alpha, kappa_tol)


def _ground(solver, config, mesh, alpha, kappa_tol, start=None):
    kappa_1, energy, residual, evaluations = _solve_level(
        solver, alpha, 1, kappa_tol, start
    )
    _, vec, sector = solver.top_pair(kappa_1)
    positivity, symmetry = _diagnostics(config, vec)
    return SpectralResult(
        levels=(Level(index=1, kappa=kappa_1, energy=energy),),
        ground_vector_positivity=positivity,
        arm_symmetry_residual=symmetry,
        parity=("symmetric", "antisymmetric")[sector] if config.n_arms == 2 else None,
        mesh_metadata=mesh.metadata(),
        residual=residual,
        eigensolver=solver.record(vec.size),
        root_evaluations=evaluations,
    )


def bound_states(
    config: StarConfig,
    mesh: Mesh,
    alpha: float,
    levels: int = 1,
    kappa_tol: float = DEFAULT_KAPPA_TOL,
) -> tuple[int, SpectralResult | None]:
    """On one solver: the exact level count (``count_bound_states``)
    and, if ``levels`` >= 1 and a level crosses, the ground state with its
    diagnostics (``principal_eigenvalue``) followed by levels 2..``levels``,
    each bracketed from above by the crossing of the level before it; else
    None in its place."""
    solver = _star_solver(config, mesh)
    count = int(np.sum(solver._eigh(solver.matrix(0.0), last=None) > alpha))
    wanted = min(levels, count)
    if wanted < 1:
        return count, None
    res = _ground(solver, config, mesh, alpha, kappa_tol)
    excited = []
    kappa_j = res.levels[0].kappa
    for j in range(2, wanted + 1):
        # lambda_j <= lambda_{j-1}, so level j crosses at or below kappa_{j-1}
        kappa_j, energy_j, _, _ = _solve_level(solver, alpha, j, kappa_tol, kappa_j)
        excited.append(Level(index=j, kappa=kappa_j, energy=energy_j))
    return count, replace(res, levels=res.levels + tuple(excited))


def refine_until(
    config: StarConfig,
    alpha: float,
    e_tol: float,
    mesh_ladder: list[Mesh] | None = None,
) -> SpectralResult:
    """Repeat the ground-state solve on successively refined meshes.

    Stops when the energy change between consecutive meshes is at most
    ``e_tol``.  The returned result's mesh metadata carries the ladder
    energies, their deltas, and the observed convergence order
    log2(|delta_prev| / |delta_last|).
    """
    if mesh_ladder is None:
        mesh_ladder = default_ladder(config.arm_length)
    if len(mesh_ladder) == 0:
        raise NotConverged("empty mesh ladder")

    energies: list[float] = []
    results: list[SpectralResult] = []
    start = None
    converged = False
    for mesh in mesh_ladder:
        solver = _star_solver(config, mesh)
        res = _ground(solver, config, mesh, alpha, DEFAULT_KAPPA_TOL, start)
        # the next rung's root lies near this one's
        start = res.levels[0].kappa
        energies.append(res.ground_energy)
        results.append(res)
        if len(energies) >= 2 and abs(energies[-1] - energies[-2]) <= e_tol:
            converged = True
            break

    deltas = list(np.diff(energies))
    order = None
    if len(deltas) >= 2 and deltas[-1] != 0.0:
        order = float(np.log2(abs(deltas[-2] / deltas[-1])))
    meta = dict(results[-1].mesh_metadata)
    meta.update(
        ladder_energies=energies,
        ladder_deltas=deltas,
        observed_order=order,
        converged=converged,
    )
    final = replace(results[-1], mesh_metadata=meta)
    if converged:
        return final
    if len(mesh_ladder) == 1:
        warnings.warn(
            "mesh ladder has a single level; reporting the unconverged value",
            stacklevel=2,
        )
        return final
    raise NotConverged(
        f"ladder exhausted: last delta {deltas[-1]:.3e} > e_tol {e_tol:.3e} "
        f"(energies {energies})"
    )
