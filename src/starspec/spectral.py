"""Eigenvalue curves of the discretized Birman-Schwinger operator and the
root-finding that turns them into bound-state energies.

For fixed arm geometry the top eigenvalues lambda_j(kappa) are strictly
decreasing in kappa, so each level that starts above the coupling alpha at
kappa = 0 crosses it exactly once; the crossing gives the energy
E_j = -kappa_j^2.  The bound states are exactly these crossings (the
Birman-Schwinger principle), so the number of lambda_j(0) above alpha is
the exact level count of the discrete operator.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla
from scipy.optimize import brentq

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

#: where a root's bracket search begins when the caller has no guess; not a
#: floor: a search that finds no crossing above it steps down to kappa = 0
_START_KAPPA = 1e-4

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

    @property
    def ground_energy(self) -> float:
        return self.levels[0].energy


class _CurveSolver:
    """Eigenvalue curves of one star: ``matrix`` maps kappa to its symmetric
    Birman-Schwinger matrix; ARPACK solves start from the constant vector,
    then warm-start from the last top eigenvector.

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

    def __init__(self, matrix, star: StarAssembler | None = None):
        self.matrix = matrix
        self.star = star if star is not None and star.group_counts is not None else None
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

    def _top(self, kappa: float, vectors: bool):
        """Top eigenvalue, its unit eigenvector of the full matrix (if asked)
        and the index of the sector holding it (None off the sector path)."""
        if self.star is None:
            matrices = (self.matrix(kappa),)
        else:
            matrices = self.star.sector_matrices(kappa)
        best = None
        for k, A in enumerate(matrices):
            out = self._eigh(A, vectors=vectors)
            val = float(out[0][0] if vectors else out[0])
            if best is None or val > best[0]:
                best = (val, out[1][:, 0] if vectors else None, k)
        val, u, k = best
        if self.star is None:
            return val, u, None
        if vectors:
            n_arms = self.star.config.n_arms
            signs = np.ones(n_arms) if k == 0 else np.array([1.0, -1.0])
            u = np.kron(signs, u) / np.sqrt(n_arms)
        return val, u, k

    def lam(self, kappa: float, j: int = 1) -> float:
        """j-th largest eigenvalue of Q_kappa (j = 1 is the top)."""
        if j == 1:
            return self._top(kappa, vectors=False)[0]
        return float(self._eigh(self.matrix(kappa), j, j)[0])

    def top_pair(self, kappa: float) -> tuple[float, np.ndarray, int | None]:
        """Top eigenvalue, unit eigenvector and sector (``_top``)."""
        return self._top(kappa, vectors=True)

    def record(self, n: int) -> dict:
        """The ``eigensolver`` record of a top solve with an n-vector."""
        if self.star is not None:
            return {"path": "sector", "dim": n // self.star.config.n_arms,
                    "group_counts": self.star.group_counts.tolist()}
        return {"path": "arpack" if n > _DENSE_MAX else "dense", "dim": n,
                "group_counts": None}


def _star_solver(config: StarConfig, mesh: Mesh) -> _CurveSolver:
    asm = StarAssembler(config, mesh)
    return _CurveSolver(asm.matrix, asm)


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


def _excess(kappa: float, solver: _CurveSolver, j: int, alpha: float,
            seen: dict[float, float]) -> float:
    """lambda_j(kappa) - alpha, each kappa evaluated once per ``seen``."""
    f = seen.get(kappa)
    if f is None:
        f = seen[kappa] = solver.lam(kappa, j) - alpha
    return f


def _solve_level(
    solver: _CurveSolver,
    alpha: float,
    j: int,
    kappa_tol: float,
    start: float | None = None,
) -> tuple[float, float, float]:
    """Root of lambda_j(kappa) = alpha: returns (kappa_j, E_j, residual).

    The bracket search starts at ``start`` (``_START_KAPPA`` if None or 0):
    a guess of the root, such as 0.8 times a nearby star's crossing, or a
    kappa at or above it, such as the crossing of level j - 1 (lambda_j <=
    lambda_{j-1}).  Where lambda_j(start) > alpha it doubles upward;
    otherwise it halves, then quarters, down to ``_START_KAPPA`` and then
    to 0, where the bracket always closes: a level crosses exactly when
    lambda_j(0) > alpha, else ``NoCrossing``.
    """
    seen: dict[float, float] = {}
    args = (solver, j, alpha, seen)

    k = start or _START_KAPPA
    if _excess(k, *args) > 0.0:
        lo, hi = k, 2.0 * k
        expansions = 0
        while _excess(hi, *args) > 0.0:
            lo = hi
            hi *= 2.0
            expansions += 1
            if expansions > 60:
                raise BracketFailure("eigenvalue curve did not fall below alpha")
    else:
        hi, step = k, 0.5
        while True:
            k = max(_START_KAPPA, step * k) if k > _START_KAPPA else 0.0
            step = 0.25
            if _excess(k, *args) > 0.0:
                lo = k
                break
            if k == 0.0:
                raise NoCrossing(
                    f"level {j} does not cross alpha={alpha} at this discretization"
                )
            hi = k
    # the curve is monotone, so the bracket is certain; Brent interleaves
    # bisection steps with secant/inverse-quadratic polish inside it.  Brent
    # evaluates both bracket ends again and returns a kappa it has
    # evaluated, so ``seen`` serves those three from the loop above and
    # from Brent's own iterates instead of solving them again.  The solver
    # goes in ``args``: brentq wraps its function in a closure that refers
    # to itself, and a closure over the solver would keep the solver and
    # its correction batches alive until the cyclic collector runs
    kappa_j = brentq(
        _excess, lo, hi, args=args,
        xtol=1e-14 * hi, rtol=max(kappa_tol, 1e-15), disp=False,
    )
    residual = abs(seen[kappa_j])
    return kappa_j, -kappa_j * kappa_j, residual


def solve_energy(
    config: StarConfig,
    mesh: Mesh,
    alpha: float,
    j: int = 1,
    kappa_tol: float = DEFAULT_KAPPA_TOL,
) -> tuple[float, float]:
    """Solve lambda_j(kappa) = alpha for level j; returns (kappa_j, E_j)."""
    solver = _star_solver(config, mesh)
    kappa_j, energy, _ = _solve_level(solver, alpha, j, kappa_tol)
    return kappa_j, energy


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
    kappa_1, energy, residual = _solve_level(solver, alpha, 1, kappa_tol, start)
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
        kappa_j, energy_j, _ = _solve_level(solver, alpha, j, kappa_tol, kappa_j)
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
        start = 0.8 * res.levels[0].kappa
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
