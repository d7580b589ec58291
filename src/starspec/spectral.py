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
(Hellmann-Feynman).  The correction batches do not depend on kappa, so the
raw derivative dK of each kernel block comes from the same exponentials as
K (``BlockAssembler.kernel_matrix``).  A block of A is D^{1/2} K D^{1/2}
/ (4 pi) symmetrized, D the node weights, and a symmetrized matrix has the
quadratic form of the matrix itself.  So with w_i = D^{1/2} v_i on arm i,
v^T A' v = (sum_i w_i^T dK_T w_i + sum over arm pairs (I, J) of
(w_I^T dK w_J + w_J^T dK w_I)) / (4 pi), summed block by block from the raw
derivatives, without forming A' (``star_form``).  A root is then found by
safeguarded Newton iteration in ln kappa (``_solve_level``).

Root solves stop at the rounding of kappa and of lambda_j, with no
tolerance; only the direction search stops its solves earlier
(``optimizer.SEARCH_KAPPA_TOL``).

The evaluations of one root solve lie close together, so each top
evaluation after the first starts from the previous top vector u: on dense
matrices of ``_WARM_MIN`` to ``_DENSE_MAX`` rows by shifted inverse
iteration (``_warm_top``), above them by ARPACK from u.  A Cholesky factor
of sigma I - A exists exactly when that matrix is positive definite, so a
factor that succeeds certifies sigma > lambda_1, and inverse iteration on
it converges to the top eigenvector at the ratio (sigma - lambda_1) /
(sigma - lambda_2) per solve (Parlett, *The Symmetric Eigenvalue Problem*,
1998, ch. 4).  LAPACK's full tridiagonalization stays the cold solve and
the fallback (``_CurveSolver``).
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as sla

from .discretization import Mesh, StarAssembler, build_mesh
from .errors import (
    BadParameters,
    BracketFailure,
    DomainError,
    EigensolveFailure,
    NoCrossing,
    NotConverged,
)
from .geometry import StarConfig

DEFAULT_PANELS = 8
DEFAULT_ORDER = 12
DEFAULT_GRADING = 2.0

#: most lambda evaluations of one root solve
_MAX_EVALUATIONS = 100

#: Newton steps within this many units of rounding of kappa are rounding:
#: at the root, the eigenvalue's own rounding moves Newton's target by a few
#: units (3 and 5 for the tetrahedron at L = 5 on 6 x 8)
_ROUNDING_STEP = 8.0 * np.finfo(float).eps

#: the row blocks of ``_norm_bound`` hold at most about this many values
_NORM_CHUNK = 2**16

#: above this dimension the top eigenvalue comes from ARPACK instead of LAPACK
_DENSE_MAX = 1000

#: from this dimension up, a top evaluation with a previous top vector tries
#: the warm path (``_warm_top``) before LAPACK; the crossover table is in
#: ``_CurveSolver``
_WARM_MIN = 192

#: the warm path stops once ||A x - rho x|| is within this many units of the
#: evaluation's rounding; LAPACK's own top vectors leave 0.5 to 2.6 units
_WARM_TOL = 8.0

#: the warm path's guess of the gap lambda_1 - lambda_2, as a share of the
#: norm bound: the sharp stars' sectors have 1/27 (tetrahedron, 56 x 12) to
#: 1/5 (icosahedron, 16 x 12).  A gap below the guess costs a failed factor
#: and a LAPACK solve, never a wrong value
_WARM_GAP = 1.0 / 64.0

#: most Cholesky factors of one warm solve, and inverse-iteration solves on each
_WARM_FACTORS = 3
_WARM_SOLVES = 3

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
    #: sector matrix of an arm-regular star, whose ``group_counts`` n_g are
    #: given), "dense" (the full matrix) or "arpack"; ``dim`` is the
    #: dimension solved; ``warm_evaluations`` counts the root's evaluations
    #: solved warm, from a Cholesky factor (``_CurveSolver``)
    eigensolver: dict
    #: lambda evaluations of the ground state's root solve
    root_evaluations: int

    @property
    def ground_energy(self) -> float:
        return self.levels[0].energy


@dataclass(frozen=True)
class _Evaluation:
    """One eigensolve of level j at kappa: value, slope d lambda_j / d
    kappa, unit eigenvector of the full matrix, and the value's rounding,
    eps times a bound on the norm of the matrix solved (``_CurveSolver``)."""

    kappa: float
    j: int
    value: float
    slope: float
    vector: np.ndarray
    rounding: float


def _norm_bound(A: np.ndarray) -> float:
    """max_i sum_j |A_ij|, which bounds the 2-norm of a symmetric A, taken
    over row blocks so that no temporary has the size of A."""
    step = max(1, _NORM_CHUNK // A.shape[1])
    return max(float(np.abs(A[i : i + step]).sum(axis=1).max())
               for i in range(0, A.shape[0], step))


def _rayleigh(A: np.ndarray, x: np.ndarray) -> tuple[float, float]:
    """Rayleigh quotient rho = x^T A x of the unit vector x and its residual
    ||A x - rho x||."""
    Ax = A @ x
    rho = float(x @ Ax)
    return rho, float(np.linalg.norm(Ax - rho * x))


def _warm_top(A: np.ndarray, u: np.ndarray, rounding: float):
    """Top eigenpair (value, unit vector) of the symmetric ``A`` by shifted
    inverse iteration from the unit vector ``u``, certified by a Cholesky
    factor, or None; ``rounding`` is the evaluation's.  ``A`` is left
    intact.  The shift rule, the certificate and the stop are described in
    ``_CurveSolver``."""
    tol = _WARM_TOL * rounding
    gap = _WARM_GAP * rounding / np.finfo(float).eps
    n = A.shape[0]
    shifted = np.empty_like(A)
    x = u
    rho, r = _rayleigh(A, x)
    for _ in range(_WARM_FACTORS):
        sigma = rho + max(min(r, r * r / gap), tol / 2.0)
        np.negative(A, out=shifted)
        shifted.flat[:: n + 1] += sigma
        try:
            # the transpose of the symmetric matrix is Fortran-ordered, so
            # LAPACK factors it in place instead of in a copy
            factor = sla.cho_factor(shifted.T, overwrite_a=True, check_finite=False)
        except sla.LinAlgError:
            return None
        for _ in range(_WARM_SOLVES):
            if r <= tol:
                break
            x = sla.cho_solve(factor, x, check_finite=False)
            x /= np.linalg.norm(x)
            rho, r = _rayleigh(A, x)
        if r <= tol and sigma - rho <= tol:
            return rho, x
    return None


def _eigh(A: np.ndarray, first: int = 1, last: int | None = 1,
          vectors: bool = False, v0: np.ndarray | None = None):
    """The ``first``-th to ``last``-th largest eigenvalues of ``A`` (all for
    ``last=None``), ascending, with eigenvectors if asked.  ARPACK gives the
    top one alone above ``_DENSE_MAX``, from ``v0`` or else the constant
    vector, not ARPACK's random one, so that runs repeat bitwise; LAPACK
    gives everything else."""
    n = A.shape[0]
    if n > _DENSE_MAX and first == last == 1:
        import scipy.sparse.linalg as spla  # its only user; a slow import

        try:
            vals, vecs = spla.eigsh(A, k=1, which="LA", v0=np.ones(n) if v0 is None else v0,
                                    tol=1e-12)
        except spla.ArpackError as exc:
            raise EigensolveFailure(str(exc)) from exc
        return (vals, vecs) if vectors else vals
    try:
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
    except sla.LinAlgError as exc:
        raise EigensolveFailure(str(exc)) from exc


class _CurveSolver:
    """Eigenvalue curves of one star, given by ``pieces``: (kappa, j) -> the
    symmetric matrix that holds level j of its Birman-Schwinger matrix
    A(kappa), with the quadratic form u -> u^T (dA/dkappa) u on it and the
    number of arm slices its vector is repeated over, as
    ``StarAssembler.pieces`` makes them; the sector of an arm-regular star
    is decided there.

    Each evaluation solves that one matrix for level j with its eigenvector
    u, lifts u to the full matrix as tile(u, copies) / sqrt(copies) and
    keeps value, slope d lambda_j / d kappa = u^T (dA/dkappa) u
    (Hellmann-Feynman, module docstring), vector and the value's rounding,
    eps times the ``_norm_bound`` of the matrix solved, in ``last``.  The
    rounding is computed once per evaluation and also serves the warm stop
    below.  ARPACK solves of the top start from the constant vector, then
    from the last top eigenvector.

    Warm top solves.  From ``_WARM_MIN`` to ``_DENSE_MAX`` rows, a top
    evaluation (j = 1) with a previous top vector u tries ``_warm_top``
    before LAPACK.  From x = u, rho = x^T A x and r = ||A x - rho x||:

    - Shift.  sigma = rho + max(min(r, r^2 / g), tol / 2), tol =
      ``_WARM_TOL`` times the rounding.  lambda_1 - rho is at most about r
      for a vector near the top, and about r^2 / (lambda_1 - lambda_2) once
      it is close; g guesses that gap as ``_WARM_GAP`` of the norm bound.
    - Certificate.  The Cholesky factor of sigma I - A exists exactly when
      sigma > lambda_1 (up to the factor's own rounding); a factor that
      fails ends the warm path.
    - Iteration.  Up to ``_WARM_SOLVES`` solves on the factor, x <-
      (sigma I - A)^{-1} x / norm, converge to the top vector at the ratio
      (sigma - lambda_1) / (sigma - lambda_2) per solve, until r <= tol.
    - Stop.  The pair (rho, x) is returned once r <= tol and sigma - rho
      <= tol.  Then rho <= lambda_1 (a Rayleigh quotient) < sigma <= rho +
      tol, so rho is the top within tol whatever the gap, and x leaves a
      residual of at most tol.  Otherwise sigma moves to the new rho and r
      by the shift rule, up to ``_WARM_FACTORS`` factors in all.  A shift
      found from a converged x is rho + tol / 2, so the last factor of a
      warm solve usually certifies a pair that needs no further solve.
    - Fallback.  A failed factor or no certified pair after the last factor
      gives LAPACK's solve on the intact A.  So no previous vector, not
      even one orthogonal to the top, gives a value more than tol below
      lambda_1, however close lambda_2 lies.

    On the warm path the bits of an evaluation depend on A and on u, as
    ARPACK's do (the same inputs give the same bits), and agree with
    LAPACK's top within its own rounding error.  Below ``_WARM_MIN`` every
    dense solve is LAPACK's, bitwise as before.  Crossover, ms per solve
    (median of 21, one BLAS thread on a shared 2-vCPU machine, the
    tetrahedron's sector at L = 5, kappa = 4.68; a factor includes forming
    sigma I - A, a solve its Rayleigh quotient and residual; worst case: 3
    factors and 9 solves):

    ====  ==========  ======  =====  ==========
    rows  LAPACK top  factor  solve  worst case
    ====  ==========  ======  =====  ==========
     120       0.622   0.149  0.044       0.844
     144       0.913   0.217  0.051       1.105
     168       1.187   0.260  0.052       1.252
     192       1.558   0.336  0.062       1.569
     288       3.503   0.887  0.126       3.795
     480      10.616   1.992  0.259       8.302
     672      18.542   4.711  0.485      18.501
    ====  ==========  ======  =====  ==========

    From ``_WARM_MIN`` rows up the worst case costs about one LAPACK subset
    solve (0.8 to 1.1 times), and a typical warm solve (one factor, one
    solve) a quarter to a third of it.  The floor also keeps small solves
    bitwise as they were: the 15- to 96-row matrices of the direction
    search (``optimize``), of ``verify-sharp``'s sharp star, of the root
    finder's tests and of the pinned CLI jobs.  With the floor at one row,
    20 tier-1 tests that compare such bits fail: 18 Brent comparisons on
    24-row-per-arm solvers and two pinned CLI outputs.
    """

    def __init__(self, pieces):
        self.pieces = pieces
        self.last: _Evaluation | None = None
        self._warm: np.ndarray | None = None
        #: top evaluations solved on the warm path
        self.warm_evaluations = 0

    def lam(self, kappa: float, j: int = 1) -> float:
        """j-th largest eigenvalue of Q_kappa (j = 1 is the top); the whole
        evaluation is kept in ``last``."""
        A, form, copies = self.pieces(kappa, j)
        rounding = np.finfo(float).eps * _norm_bound(A)
        pair = None
        if j == 1 and self._warm is not None and _WARM_MIN <= A.shape[0] <= _DENSE_MAX:
            pair = _warm_top(A, self._warm, rounding)
            self.warm_evaluations += pair is not None
        if pair is None:
            vals, vecs = _eigh(A, j, j, vectors=True, v0=self._warm)
            pair = float(vals[0]), vecs[:, 0]
        value, u = pair
        if j == 1:
            self._warm = u
        self.last = _Evaluation(kappa, j, value, form(u), np.tile(u, copies) / np.sqrt(copies),
                                rounding)
        return value

    def top_pair(self, kappa: float) -> tuple[float, np.ndarray]:
        """Top eigenvalue and unit eigenvector of the full matrix at kappa,
        read from ``last``: a root solve of the top level ends on an
        evaluation of its root."""
        last = self.last
        if last is None or (last.j, last.kappa) != (1, kappa):
            raise ValueError(f"the last evaluation is not the top at kappa={kappa}")
        return last.value, last.vector


def _record(star: StarAssembler) -> dict:
    """The ``eigensolver`` record of a star's top solve."""
    M = star.diag.mesh.size
    if star.group_counts is not None:
        return {"path": "sector", "dim": M, "group_counts": star.group_counts.tolist()}
    n = star.config.n_arms * M
    return {"path": "arpack" if n > _DENSE_MAX else "dense", "dim": n,
            "group_counts": None}


def _integer(name: str, value) -> int:
    """``value`` as an int if it is an integer, NumPy's included; else
    ``BadParameters`` naming it."""
    try:
        return operator.index(value)
    except TypeError:
        raise BadParameters(f"{name} must be an integer, got {value!r}") from None


def _star_solver(config: StarConfig, mesh: Mesh) -> _CurveSolver:
    return _CurveSolver(StarAssembler(config, mesh).pieces)


def lambda_curve(
    config: StarConfig, mesh: Mesh, kappa: float, count: int = 1
) -> np.ndarray:
    """Top ``count`` eigenvalues of the assembled operator, descending."""
    n = config.n_arms * mesh.size
    count = _integer("count", count)
    if not 1 <= count <= n:
        raise BadParameters(f"count must lie in [1, {n}] (N * M), got {count}")
    A = StarAssembler(config, mesh).matrix(kappa)
    return _eigh(A, 1, count)[::-1]


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
    start: float | None = None,
    *,
    kappa_tol: float = 0.0,
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
    solver's ``last`` eigenvector belong to it.  It is returned once
    Newton's next step is within the rounding of kappa (``_ROUNDING_STEP``);
    once lambda_j - alpha is within the rounding of the eigenvalue itself
    (the evaluation's ``rounding``), at kappa > 0 only, since a crossing at
    0 is no root; once the bracket is narrower than the larger of
    ``kappa_tol`` and the rounding of kappa, relative, so that a noisy curve
    whose Newton steps never settle still ends; or, for a ``kappa_tol`` > 0
    (the search's ``SEARCH_KAPPA_TOL``), once the Newton step that reached
    it moved kappa by at most ``kappa_tol`` relative, so by Newton's
    quadratic convergence it lies far closer than that to the root.
    """
    lo, hi = 0.0, math.inf  # f(lo) > 0 >= f(hi) once evaluated
    k = start or 0.0
    zero_seen = k == 0.0
    prev = None  # where the Newton step to k came from
    for evaluations in range(1, _MAX_EVALUATIONS + 1):
        f = solver.lam(k, j) - alpha
        slope, rounding = solver.last.slope, solver.last.rounding
        if f > 0.0:
            lo = k
        elif k == 0.0:
            raise NoCrossing(
                f"level {j} does not cross alpha={alpha} at this discretization"
            )
        else:
            hi = k
        target = _newton_target(k, f, slope)
        if (abs(target - k) <= _ROUNDING_STEP * k
                or hi - lo <= max(kappa_tol, _ROUNDING_STEP) * lo
                or k > 0.0 and abs(f) <= rounding
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
        f"no root in {_MAX_EVALUATIONS} evaluations"
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
) -> tuple[float, float]:
    """Solve lambda_j(kappa) = alpha for level j; returns (kappa_j, E_j).
    Level j > 1 is solved after the levels above it (``bound_states``)."""
    j = _integer("j", j)
    if j < 1:
        raise DomainError(f"level index j must be >= 1, got {j}")
    if j > 1:
        count, res = bound_states(config, mesh, alpha, j)
        if count < j:
            raise NoCrossing(
                f"level {j} does not cross alpha={alpha} at this discretization"
            )
        return res.levels[-1].kappa, res.levels[-1].energy
    solver = _star_solver(config, mesh)
    kappa_1, energy, _, _ = _solve_level(solver, alpha, 1)
    return kappa_1, energy


def _diagnostics(config: StarConfig, vec: np.ndarray):
    """Positivity of the sign-fixed ``vec``, the largest relative deviation
    of its arm slices from their mean, and, for two arms, its parity under
    arm exchange: the sign of the two slices' inner product."""
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
    parity = None
    if config.n_arms == 2:
        parity = "symmetric" if slices[0] @ slices[1] >= 0.0 else "antisymmetric"
    return positivity, symmetry, parity


def principal_eigenvalue(
    config: StarConfig,
    mesh: Mesh,
    alpha: float | None = None,
) -> SpectralResult:
    """Ground-state energy with eigenvector diagnostics.

    ``alpha`` defaults to the star's own coupling.  Diagnostics: positivity
    of the sign-fixed ground eigenvector, the maximum relative deviation of
    per-arm eigenvector slices from their mean, and (for N = 2) the parity
    of the ground state under arm exchange.
    """
    if alpha is None:
        alpha = config.coupling
    star = StarAssembler(config, mesh)
    return _ground(_CurveSolver(star.pieces), star, alpha)


def _ground(solver: _CurveSolver, star: StarAssembler, alpha, start=None):
    """The ground state of ``star`` on its ``solver``, with diagnostics."""
    warm = solver.warm_evaluations
    kappa_1, energy, residual, evaluations = _solve_level(solver, alpha, 1, start)
    _, vec = solver.top_pair(kappa_1)
    positivity, symmetry, parity = _diagnostics(star.config, vec)
    return SpectralResult(
        levels=(Level(index=1, kappa=kappa_1, energy=energy),),
        ground_vector_positivity=positivity,
        arm_symmetry_residual=symmetry,
        parity=parity,
        mesh_metadata=star.diag.mesh.metadata(),
        residual=residual,
        eigensolver={**_record(star), "warm_evaluations": solver.warm_evaluations - warm},
        root_evaluations=evaluations,
    )


def bound_states(
    config: StarConfig,
    mesh: Mesh,
    alpha: float,
    levels: int = 1,
) -> tuple[int, SpectralResult | None]:
    """On one solver: the exact level count (``count_bound_states``)
    and, if ``levels`` >= 1 and a level crosses, the ground state with its
    diagnostics (``principal_eigenvalue``) followed by levels 2..``levels``,
    each bracketed from above by the crossing of the level before it; else
    None in its place.  ``levels`` is checked before the count."""
    levels = _integer("levels", levels)
    star = StarAssembler(config, mesh)
    count = int(np.sum(_eigh(star.matrix(0.0), last=None) > alpha))
    wanted = min(levels, count)
    if wanted < 1:
        return count, None
    solver = _CurveSolver(star.pieces)
    res = _ground(solver, star, alpha)
    excited = []
    kappa_j = res.levels[0].kappa
    for j in range(2, wanted + 1):
        # lambda_j <= lambda_{j-1}, so level j crosses at or below kappa_{j-1}
        kappa_j, energy_j, _, _ = _solve_level(solver, alpha, j, kappa_j)
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
        star = StarAssembler(config, mesh)
        res = _ground(_CurveSolver(star.pieces), star, alpha, start)
        del star  # so that no two rungs' correction batches are held at once
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
