import gc
import math
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.optimize import brentq

import starspec as ss
import starspec.spectral as spectral
from starspec.bounds import point_eigenvalue
from starspec.discretization import BlockAssembler, StarAssembler
from starspec.errors import BadParameters, EigensolveFailure, NoCrossing, NotConverged
from starspec.spectral import (
    _CurveSolver,
    _diagnostics,
    _solve_level,
    _star_solver,
    bound_states,
    principal_eigenvalue,
    refine_until,
    solve_energy,
)


def antipodal(L, alpha):
    return ss.make_star([(0, 0, 1), (0, 0, -1)], L, alpha)


def segment(L, alpha):
    return ss.make_star([(0, 0, 1)], L, alpha)


def tetra(L, alpha):
    return ss.make_star(ss.sharp_configuration(4), L, alpha)


def default_mesh(L):
    """8 panels of order 12, grading 2."""
    return ss.build_mesh(L, 8, 12, 2.0)


def top_eigenvalues(config, mesh, kappa, count=1):
    """The top ``count`` eigenvalues of the star's matrix at kappa, descending."""
    A = StarAssembler(config, mesh).matrix(kappa)
    n = A.shape[0]
    return sla.eigvalsh(A, subset_by_index=[n - count, n - 1])[::-1]


class TestLambdaCurve:
    def test_single_arm_matches_diag_spectrum(self):
        mesh = ss.build_mesh(1.0, 6, 8, 2.0)
        cfg = segment(1.0, 0.0)
        top3 = top_eigenvalues(cfg, mesh, 1.0, count=3)
        T = BlockAssembler(mesh).weighted_block(1.0)
        assert np.allclose(top3, sla.eigvalsh(T)[-3:][::-1], atol=1e-14)

    def test_decreasing_in_kappa(self):
        mesh = default_mesh(1.0)
        cfg = antipodal(1.0, 0.0)
        vals = [top_eigenvalues(cfg, mesh, k)[0] for k in (0.1, 1.0, 10.0)]
        assert vals[0] > vals[1] > vals[2]

    def test_antipodal_symmetric_sector_matches_segment_block(self):
        mesh = ss.build_mesh(0.5, 8, 12, 2.0)
        cfg = antipodal(0.5, 0.0)
        lam_star = top_eigenvalues(cfg, mesh, 1.0)[0]
        mesh2 = ss.build_mesh(1.0, 8, 12, 2.0)
        T = BlockAssembler(mesh2).weighted_block(1.0)
        lam_seg = sla.eigvalsh(T)[-1]
        assert lam_star == pytest.approx(lam_seg, abs=1e-5)


class TestCountBoundStates:
    def test_long_segment_has_state(self):
        # guarantee length at alpha=0 is about 11.19; total length 12 works
        cfg = antipodal(6.0, 0.0)
        assert bound_states(cfg, default_mesh(6.0), 0.0, 0)[0] >= 1

    def test_short_weak_segment_has_none(self):
        cfg = segment(1.0, 1.0)
        assert bound_states(cfg, default_mesh(1.0), 1.0, 0)[0] == 0


class TestSolveEnergy:
    def test_residual_small(self):
        cfg = antipodal(6.0, 0.0)
        mesh = default_mesh(6.0)
        kappa_1, e_1 = solve_energy(cfg, mesh, 0.0)
        assert e_1 == pytest.approx(-kappa_1 * kappa_1, rel=1e-15)
        # Birman-Schwinger consistency: the curve reproduces alpha there
        lam = top_eigenvalues(cfg, mesh, kappa_1)[0]
        assert abs(lam - 0.0) < 1e-9

    def test_no_crossing(self):
        cfg = segment(1.0, 1.0)
        with pytest.raises(NoCrossing):
            solve_energy(cfg, default_mesh(1.0), 1.0)

    @pytest.mark.parametrize("name, solve", [
        ("levels", lambda cfg, mesh: bound_states(cfg, mesh, 0.0, levels=2.5)),
    ])
    def test_non_integer_level_arguments(self, name, solve, monkeypatch):
        calls = []
        monkeypatch.setattr(spectral, "_eigh", lambda *a, **k: calls.append(a))
        cfg, mesh = tetra(2.0, 0.0), ss.build_mesh(2.0, 4, 6, 2.0)
        with pytest.raises(BadParameters, match=f"{name} must be an integer"):
            solve(cfg, mesh)
        assert calls == []

    def test_numpy_integer_level_arguments(self):
        cfg, mesh = tetra(2.0, 0.0), ss.build_mesh(2.0, 4, 6, 2.0)
        count, res = bound_states(cfg, mesh, 0.0, levels=np.int64(2))
        assert count >= 2 and len(res.levels) == 2

    def test_level_ordering(self):
        cfg = antipodal(6.0, -0.05)
        n, res = bound_states(cfg, default_mesh(6.0), -0.05, 2)
        assert n >= 2
        e1, e2 = (level.energy for level in res.levels)
        assert e1 < e2 < 0.0

    def test_scaling_covariance_both_directions(self):
        # E(alpha - ln(zeta)/2pi, L) = zeta^2 E(alpha, zeta L): exact for the
        # discretization because mesh and kernel scale covariantly
        for zeta in (0.5, 2.0):
            alpha = 0.0
            L = 6.0
            a_scaled = alpha - math.log(zeta) / (2 * math.pi)
            _, e_base = solve_energy(antipodal(L, a_scaled), default_mesh(L), a_scaled)
            _, e_zoom = solve_energy(antipodal(zeta * L, alpha), default_mesh(zeta * L), alpha)
            assert e_base == pytest.approx(zeta**2 * e_zoom, rel=1e-9)

    def test_L_monotone_where_resolvable(self):
        # strict decrease holds while the physical L-dependence is above the
        # discretization floor (short arms); see the ledger for the long-arm
        # saturation
        mesh_for = lambda L: ss.build_mesh(L, 16, 12, 2.0)
        es = []
        for L in (0.25, 0.5, 1.0):
            _, e = solve_energy(tetra(L, 0.0), mesh_for(L), 0.0)
            es.append(e)
        assert es[0] > es[1] > es[2]


class TestPrincipalEigenvalue:
    def test_diagnostics_on_tetrahedron(self):
        res = principal_eigenvalue(tetra(5.0, 0.0), default_mesh(5.0), 0.0)
        assert res.ground_vector_positivity
        assert res.arm_symmetry_residual < 1e-8
        assert res.residual < 1e-9
        assert res.levels[0].kappa > 0

    def test_right_angle_pair_parity(self):
        cfg = ss.make_star([(0, 0, 1), (1, 0, 0)], 50.0, 0.0)
        res = principal_eigenvalue(cfg, default_mesh(50.0), 0.0)
        assert res.parity == "symmetric"
        assert res.ground_vector_positivity

    def test_large_arm_below_point_interaction_threshold(self):
        cfg = ss.make_star([(0, 0, 1), (1, 0, 0)], 50.0, 0.0)
        res = principal_eigenvalue(cfg, default_mesh(50.0), 0.0)
        assert res.ground_energy < point_eigenvalue(0.0)

    def test_angle_optimality_for_two_arms(self):
        # straightening the pair raises the ground level: E(pi) maximal
        mesh = default_mesh(6.0)
        energies = []
        for phi in (2.0, 2.5, 3.0, math.pi):
            cfg = ss.make_star(
                [(0, 0, 1), (math.sin(phi), 0, math.cos(phi))], 6.0, 0.0
            )
            energies.append(principal_eigenvalue(cfg, mesh, 0.0).ground_energy)
        assert all(e < energies[-1] for e in energies[:-1])


class TestRefineUntil:
    def test_converges_on_adequate_ladder(self):
        ladder = [ss.build_mesh(6.0, p, 12, 2.0) for p in (8, 12, 16)]
        res = refine_until(antipodal(6.0, 0.0), 0.0, 1e-6, ladder)
        meta = res.mesh_metadata
        assert meta["converged"]
        assert abs(meta["ladder_deltas"][-1]) <= 1e-6

    def test_not_converged_raises(self):
        ladder = [ss.build_mesh(5.0, p, 12, 2.0) for p in (8, 16)]
        with pytest.raises(NotConverged):
            refine_until(tetra(5.0, 0.0), 0.0, 1e-6, ladder)

    def test_single_level_ladder_warns(self):
        ladder = [default_mesh(6.0)]
        with pytest.warns(UserWarning):
            res = refine_until(antipodal(6.0, 0.0), 0.0, 1e-6, ladder)
        assert not res.mesh_metadata["converged"]

    def test_one_rung_held_at_once(self, monkeypatch):
        # each rung's assembler, with its correction batches, is freed
        # before the next rung's is built
        init = StarAssembler.__init__
        rungs = []

        def tracking_init(self, *args, **kwargs):
            assert [r() for r in rungs] == [None] * len(rungs)
            rungs.append(weakref.ref(self))
            init(self, *args, **kwargs)

        monkeypatch.setattr(StarAssembler, "__init__", tracking_init)
        ladder = [ss.build_mesh(3.0, p, 6, 2.0) for p in (4, 6, 8)]
        gc.disable()
        try:
            with pytest.raises(NotConverged):
                refine_until(tetra(3.0, 0.0), 0.0, 0.0, ladder)
        finally:
            gc.enable()
        assert len(rungs) == 3


def two_arms(phi):
    """Two arms ``phi`` radians apart."""
    return np.array([(0, 0, 1), (math.sin(phi), 0, math.cos(phi))])


#: arm-regular stars: the five sharp configurations, three orthogonal arms
#: and two arms at a small, a narrow and a right angle
REGULAR_STARS = {
    **{f"sharp{n}": ss.sharp_configuration(n) for n in (2, 3, 4, 6, 12)},
    "orthogonal3": np.eye(3),
    **{f"two-arm-{phi:.3g}": two_arms(phi) for phi in (1e-3, 0.05, math.pi / 2)},
}
#: (L, panels, order)
SECTOR_MESHES = [(5.0, 8, 12), (3.0, 12, 8), (1.0, 16, 12)]


class TestSectorReduction:
    """The top of an arm-regular star from its M x M sector
    (``StarAssembler.pieces``), against the full N*M matrix
    (``StarAssembler.matrix``), which the solver only uses for lower levels
    and counts.  The premise that the top lies in the sector holds two
    arms too, at small angles and where kappa L = 1000 decouples the arms."""

    @pytest.mark.parametrize("mesh_args", SECTOR_MESHES, ids=lambda m: "x".join(map(str, m)))
    @pytest.mark.parametrize("name", sorted(REGULAR_STARS))
    def test_top_matches_full_matrix(self, name, mesh_args):
        L = mesh_args[0]
        cfg = ss.make_star(REGULAR_STARS[name], L, 0.0)
        asm = StarAssembler(cfg, ss.build_mesh(*mesh_args, 2.0))
        assert asm.group_counts is not None
        solver = _CurveSolver(asm.pieces)
        for kappa in (1e-4, 1.0, 30.0, 1000.0 / L):
            A = asm.matrix(kappa)
            n = A.shape[0]
            vals, vecs = sla.eigh(A, subset_by_index=[n - 1, n - 1])
            full, v = vals[0], vecs[:, 0]
            value = solver.lam(kappa)
            lam, u = solver.top_pair(kappa)
            assert abs(lam - full) <= 1e-12 * abs(full)
            assert value == lam
            # the lifted vector is a top eigenvector of the full matrix
            assert np.linalg.norm(A @ u - lam * u) <= 1e-12 * abs(lam)
            if kappa * L < 1000.0:
                assert abs(u @ v) == pytest.approx(1.0, abs=1e-8)
                # the full matrix's own top vector is arm-symmetric
                assert _diagnostics(cfg, v)[1] < 1e-8
            # at kappa L = 1000 the antipodal pair's odd top agrees with its
            # symmetric one to rounding, so the full matrix's top vector is
            # any mix of the two

    def test_two_arm_star_solves_one_sector(self):
        # the top from the M x M sector T + B alone, lifted to (u, u) / sqrt 2;
        # lower levels from the full 2M matrix
        cfg = ss.make_star([(0, 0, 1), (1, 0, 0)], 4.0, 0.0)
        asm = StarAssembler(cfg, ss.build_mesh(4.0, 6, 8, 2.0))
        M = asm.diag.mesh.size
        sector, _, copies = asm.pieces(0.7, 1)
        assert sector.shape == (M, M) and copies == 2
        full, _, copies = asm.pieces(0.7, 2)
        assert full.shape == (2 * M, 2 * M) and copies == 1
        solver = _CurveSolver(asm.pieces)
        solver.lam(0.7)
        _, vec = solver.top_pair(0.7)
        assert np.array_equal(vec[:M], vec[M:])

    def test_parity_from_the_vector(self):
        # the sign of the two arm slices' inner product, whatever the sign
        # of the vector itself
        cfg = ss.make_star([(0, 0, 1), (1, 0, 0)], 1.0, 0.0)
        u = np.array([0.6, 0.8])
        for sign in (1.0, -1.0):
            assert _diagnostics(cfg, sign * np.concatenate([u, u]))[2] == "symmetric"
            assert _diagnostics(cfg, sign * np.concatenate([u, -u]))[2] == "antisymmetric"
        assert _diagnostics(tetra(1.0, 0.0), np.ones(8))[2] is None

    def test_irregular_star_takes_full_matrix(self):
        dirs = np.array([(0, 0, 1), (1, 0, 0), (0.6, 0.8, 0)])
        cfg = ss.make_star(dirs, 3.0, 0.0)
        mesh = ss.build_mesh(3.0, 4, 6, 2.0)
        assert StarAssembler(cfg, mesh).group_counts is None
        res = principal_eigenvalue(cfg, mesh, 0.0)
        assert res.eigensolver == {"path": "dense", "dim": 72, "group_counts": None,
                                  "warm_evaluations": 0}
        assert res.parity is None

    def test_eigensolver_record_of_regular_stars(self):
        res = principal_eigenvalue(tetra(5.0, 0.0), ss.build_mesh(5.0, 6, 8, 2.0), 0.0)
        assert res.eigensolver == {"path": "sector", "dim": 48, "group_counts": [3],
                                  "warm_evaluations": 0}
        octa = ss.make_star(ss.sharp_configuration(6), 2.0, 0.0)
        res = principal_eigenvalue(octa, ss.build_mesh(2.0, 4, 6, 2.0), 0.0)
        assert res.eigensolver == {"path": "sector", "dim": 24, "group_counts": [4, 1],
                                  "warm_evaluations": 0}


#: dense-path stars for the root-finder tests: sharp and irregular, N = 2..4
ROOT_STARS = {
    "sharp-2": ss.sharp_configuration(2),
    "sharp-3": ss.sharp_configuration(3),
    "sharp-4": ss.sharp_configuration(4),
    "right-angle-2": np.array([(0, 0, 1), (1, 0, 0)]),
    "irregular-3": np.array([(0, 0, 1), (1, 0, 0), (0.6, 0.8, 0)]),
    "irregular-4": np.array([(0, 0, 1), (1, 0, 0), (0.6, 0.8, 0), (0, -0.6, -0.8)]),
}


def random_directions(n: int, seed: int) -> np.ndarray:
    d = np.random.default_rng(seed).standard_normal((n, 3))
    return d / np.linalg.norm(d, axis=1)[:, None]


def perturbed(directions, scale, seed):
    """``directions`` each moved by about ``scale`` and renormalized."""
    d = directions + scale * np.random.default_rng(seed).standard_normal(directions.shape)
    return d / np.linalg.norm(d, axis=1)[:, None]


#: (directions, L, panels, order) of the stars on which a root tolerance of
#: 1e-10 is shown to change nothing: the rungs of the tetrahedron's ladder,
#: the search mesh, the icosahedron and a perturbed one on the mesh of the
#: sharp-star check, and two- to five-arm stars
INERT_TOL_STARS = {
    **{f"tetrahedron-{p}": (ss.sharp_configuration(4), 5.0, p, 12) for p in (16, 40, 48, 56)},
    "tetrahedron-search": (ss.sharp_configuration(4), 5.0, 3, 5),
    "two-arms-0.7": (two_arms(0.7), 2.0, 8, 12),
    "irregular-3": (ROOT_STARS["irregular-3"], 3.0, 8, 8),
    "octahedron": (ss.sharp_configuration(6), 1.0, 8, 12),
    "random-5": (random_directions(5, 5), 3.0, 8, 8),
    "icosahedron": (ss.sharp_configuration(12), 3.0, 12, 8),
    "icosahedron-perturbed": (perturbed(ss.sharp_configuration(12), 0.05, 3), 3.0, 12, 8),
}


def dense_solver(name, L=2.0):
    """A full-matrix (LAPACK) solver for ``ROOT_STARS[name]`` on a small mesh:
    the star is treated as irregular, so no level takes the sector."""
    cfg = ss.make_star(ROOT_STARS[name], L, 0.0)
    asm = StarAssembler(cfg, ss.build_mesh(L, 4, 6, 2.0))
    asm.group_counts = None
    return _CurveSolver(asm.pieces)


def counted(solver):
    """``solver`` with its ``lam`` recording each kappa it is called at."""
    lam, calls = solver.lam, []

    def counting(kappa, j=1):
        calls.append(kappa)
        return lam(kappa, j)

    solver.lam = counting
    return calls


class TestSolveLevel:
    """The root finder evaluates each kappa once and returns Newton's root,
    a kappa it has evaluated."""

    @pytest.fixture(scope="class")
    def roots(self):
        return {name: solve_energy(ss.make_star(d, 2.0, 0.0),
                                   ss.build_mesh(2.0, 4, 6, 2.0), 0.0)[0]
                for name, d in ROOT_STARS.items()}

    @pytest.mark.parametrize("hint_factor", [None, 1.1, 4.0])
    @pytest.mark.parametrize("name", sorted(ROOT_STARS))
    def test_brent_root_and_no_repeated_kappa(self, name, hint_factor, roots):
        # a caller with a guess starts at it; the reference is Brent's root
        # to the last bits of kappa
        start = None if hint_factor is None else hint_factor * roots[name]
        solver = dense_solver(name)
        calls = counted(solver)
        kappa, energy, residual, evaluations = _solve_level(solver, 0.0, 1, start)
        assert len(calls) == len(set(calls)) == evaluations
        assert calls[-1] == kappa
        assert energy == -kappa * kappa
        ref = brentq(dense_solver(name).lam, 0.5 * roots[name], 2.0 * roots[name],
                     xtol=1e-15 * roots[name], rtol=1e-15)
        assert abs(kappa - ref) <= 1e-13 * ref
        # the residual is the excess at the returned kappa
        assert residual == abs(dense_solver(name).lam(kappa))

    @pytest.mark.parametrize("upper_factor", [0.999, 1.0, 1.3, 5.0])
    @pytest.mark.parametrize("name", sorted(ROOT_STARS))
    def test_upper_end_brackets_the_root(self, name, upper_factor, roots):
        # a start above the root, at it, or below it by a rounding error's
        # worth or more, each reaches the same root
        solver = dense_solver(name)
        calls = counted(solver)
        kappa, _, _, _ = _solve_level(solver, 0.0, 1, upper_factor * roots[name])
        assert len(calls) == len(set(calls))
        assert kappa == pytest.approx(roots[name], rel=1e-9)

    @pytest.mark.parametrize("noise", [0.0, 1e-16, 1.5e-16])
    def test_rounding_floor_costs_no_evaluation(self, noise):
        # lambda - alpha = 0.04 (r - kappa) plus a rounding error of
        # alternating sign.  The fifth kappa is within rounding of r, but the
        # step that reached it exceeds kappa_tol; Newton's step from it is
        # the rounding error over the slope, 3 to 4 units in the last place
        # of kappa, and evaluating its target would gain nothing.  The
        # eigenvalue's own rounding, that of a matrix of norm 0.1, lies
        # below the noise, so it is the step that stops the solve
        r = 4.0871306207032605
        calls = []

        def lam(kappa, j=1):
            calls.append(kappa)
            solver.last = SimpleNamespace(slope=-0.04, rounding=0.1 * np.finfo(float).eps)
            return 0.04 * (r - kappa) + noise * (-1) ** len(calls)

        solver = SimpleNamespace(lam=lam)
        kappa, _, _, evaluations = _solve_level(solver, 0.0, 1, 4.4, kappa_tol=1e-13)
        assert evaluations == len(calls) == 5
        assert abs(kappa - r) <= 1e-15 * r

    @pytest.mark.parametrize("norm, expected", [(0.0, 12), (30.0, 7)])
    def test_eigenvalue_rounding_stops_the_solve(self, norm, expected):
        # the same curve with a rounding error of 5e-15, as a large matrix
        # gives: Newton's step from the root, 1.2e-13, stays above the
        # rounding of kappa, so without the eigenvalue's rounding the solve
        # runs until the bracket closes; the rounding of a matrix of norm
        # 30, 6.7e-15, stops it at the first excess within that rounding
        r = 4.0871306207032605
        calls = []

        def lam(kappa, j=1):
            calls.append(kappa)
            solver.last = SimpleNamespace(slope=-0.04, rounding=norm * np.finfo(float).eps)
            return 0.04 * (r - kappa) + 5e-15 * (-1) ** len(calls)

        solver = SimpleNamespace(lam=lam)
        kappa, _, residual, evaluations = _solve_level(solver, 0.0, 1, 4.4, kappa_tol=1e-15)
        assert evaluations == len(calls) == expected
        assert abs(kappa - r) <= 2e-14 * r
        if norm:
            assert residual <= norm * np.finfo(float).eps

    def test_noisy_curve_without_tolerance_closes_its_bracket(self):
        # the same noisy curve with no tolerance and no eigenvalue rounding,
        # as every solve but the search's: Newton's steps never settle, and
        # the solve ends once the bracket is as narrow as the rounding of
        # kappa, before any kappa is evaluated twice
        r = 4.0871306207032605
        calls = []

        def lam(kappa, j=1):
            calls.append(kappa)
            solver.last = SimpleNamespace(slope=-0.04, rounding=0.0)
            return 0.04 * (r - kappa) + 5e-15 * (-1) ** len(calls)

        solver = SimpleNamespace(lam=lam)
        kappa, _, _, evaluations = _solve_level(solver, 0.0, 1, 4.4)
        assert evaluations == len(calls) == len(set(calls)) == 12
        assert abs(kappa - r) <= 2e-14 * r

    def test_eigenvalue_rounding_never_stops_at_zero(self):
        # the excess at kappa = 0 is within the rounding, but a crossing at
        # 0 is no root: Newton goes on to the positive root
        r = 2.5e-16
        calls = []

        def lam(kappa, j=1):
            calls.append(kappa)
            solver.last = SimpleNamespace(slope=-0.04, rounding=np.finfo(float).eps)
            return 0.04 * (r - kappa)

        solver = SimpleNamespace(lam=lam)
        kappa, _, _, evaluations = _solve_level(solver, 0.0, 1)
        assert calls[0] == 0.0 and evaluations == len(calls) >= 2
        assert kappa == pytest.approx(r, rel=1e-12)

    @pytest.mark.parametrize("name", sorted(INERT_TOL_STARS))
    def test_default_tolerance_is_inert(self, name):
        # a solve without a tolerance, as every solve but the search's, ends
        # at the rounding stops: the same bits and evaluations as at 1e-10
        dirs, L, panels, order = INERT_TOL_STARS[name]
        star = StarAssembler(ss.make_star(dirs, L, 0.0), ss.build_mesh(L, panels, order, 2.0))
        default = _solve_level(_CurveSolver(star.pieces), 0.0, 1)
        assert default == _solve_level(_CurveSolver(star.pieces), 0.0, 1, kappa_tol=1e-10)
        assert 5 <= default[3] <= 9

    @pytest.mark.parametrize("name", ["sharp-4", "irregular-3"])
    def test_solver_freed_once_dropped(self, name):
        cfg = ss.make_star(ROOT_STARS[name], 2.0, 0.0)
        solver = _star_solver(cfg, ss.build_mesh(2.0, 4, 6, 2.0))
        refs = [weakref.ref(solver), weakref.ref(solver.pieces.__self__)]
        gc.disable()
        try:
            _solve_level(solver, 0.0, 1)
            del solver
            assert [r() for r in refs] == [None, None]
        finally:
            gc.enable()


#: one star per eigensolver path: (directions, L, panels, order, path)
NEAR_THRESHOLD = {
    "tetrahedron": (ss.sharp_configuration(4), 5.0, 8, 12, "sector"),
    "irregular-3": (ROOT_STARS["irregular-3"], 2.0, 8, 12, "dense"),
    "random-12": (random_directions(12, 12), 3.0, 12, 8, "arpack"),
}


class TestNearThreshold:
    """A coupling just below lambda_j(0) has a crossing near kappa = 0, far
    below where a bracket search without a guess begins (1e-4); the count
    at kappa = 0 sees level j exactly when the root solve finds it."""

    @pytest.fixture(scope="class", params=sorted(NEAR_THRESHOLD))
    def star(self, request):
        dirs, L, panels, order, path = NEAR_THRESHOLD[request.param]
        config = ss.make_star(dirs, L, 0.0)
        mesh = ss.build_mesh(L, panels, order, 2.0)
        assert spectral._record(StarAssembler(config, mesh))["path"] == path
        return config, mesh, top_eigenvalues(config, mesh, 0.0, count=2)

    def test_crossing_just_below_threshold(self, star):
        config, mesh, lam0 = star
        alpha = lam0[0] - 1e-7
        assert bound_states(config, mesh, alpha, 0)[0] == 1
        kappa, energy = solve_energy(config, mesh, alpha)
        assert 0.0 < kappa < 1e-4
        assert energy == -kappa * kappa
        solver = _star_solver(config, mesh)
        assert abs(solver.lam(kappa) - alpha) <= 1e-12

    def test_no_crossing_just_above_threshold(self, star):
        config, mesh, lam0 = star
        alpha = lam0[0] + 1e-9
        assert bound_states(config, mesh, alpha, 0)[0] == 0
        with pytest.raises(NoCrossing):
            solve_energy(config, mesh, alpha)

    @pytest.mark.parametrize("j", [1, 2])
    def test_count_agrees_with_root_solve(self, star, j):
        config, mesh, lam0 = star
        for alpha in (lam0[j - 1] - 1e-7, lam0[j - 1] + 1e-9):
            # level j's root solve starts at level j - 1's crossing
            solver, kappa = _star_solver(config, mesh), None
            try:
                for level in range(1, j + 1):
                    kappa, _, _, _ = _solve_level(solver, alpha, level, kappa)
                crosses = True
            except NoCrossing:
                crosses = False
            assert (bound_states(config, mesh, alpha, 0)[0] >= j) == crosses


#: ``NEAR_THRESHOLD`` and a two-arm star: (directions, L, panels, order, path)
SLOPE_STARS = {
    **NEAR_THRESHOLD,
    "right-angle-2": (ROOT_STARS["right-angle-2"], 2.0, 8, 12, "sector"),
}


class TestSlope:
    """The slope lambda_j'(kappa) = v^T (dA/dkappa) v of each evaluation,
    against a central difference of ``lam``, on every eigensolver path and
    on a two-arm star (its sector for the top, the full matrix below)."""

    @pytest.mark.parametrize("j", [1, 2])
    @pytest.mark.parametrize("name", sorted(SLOPE_STARS))
    def test_matches_central_difference(self, name, j):
        dirs, L, panels, order, _ = SLOPE_STARS[name]
        solver = _star_solver(ss.make_star(dirs, L, 0.0), ss.build_mesh(L, panels, order, 2.0))
        for kappa in (0.3, 2.0):
            solver.lam(kappa, j)
            slope = solver.last.slope
            h = 1e-4 * kappa
            diff = (solver.lam(kappa + h, j) - solver.lam(kappa - h, j)) / (2.0 * h)
            assert abs(slope - diff) <= 1e-6 * abs(diff)

    def test_warm_objective_slope(self):
        # the search's plain-sample matrix gives its slope the same way
        from starspec.optimizer import _WarmObjective

        warm = _WarmObjective(3, 0.0, ss.build_mesh(2.0, 3, 5, 2.0))
        solver = _CurveSolver(warm.pieces(ROOT_STARS["irregular-3"]))
        solver.lam(1.5)
        slope, h = solver.last.slope, 1e-4
        diff = (solver.lam(1.5 + h) - solver.lam(1.5 - h)) / (2.0 * h)
        assert slope == pytest.approx(diff, rel=1e-6)


class TestGroundVector:
    """The ground state's vector is the root's own evaluation: refining
    ``ladder-tetra``'s ladder makes one eigensolve per lambda evaluation,
    LAPACK's or a warm one (``_warm_top``)."""

    LADDER = (40, 48, 56)

    def test_one_eigensolve_per_evaluation(self, monkeypatch):
        eigh, warm_top = sla.eigh, spectral._warm_top
        solves, warm, evaluations = [], [], []
        lam = _CurveSolver.lam

        def counting_eigh(*args, **kwargs):
            solves.append(args[0].shape[0])
            return eigh(*args, **kwargs)

        def counting_warm_top(*args):
            pair = warm_top(*args)
            if pair is not None:
                warm.append(args[0].shape[0])
            return pair

        def counting_lam(solver, kappa, j=1):
            evaluations.append(kappa)
            return lam(solver, kappa, j)

        monkeypatch.setattr(sla, "eigh", counting_eigh)
        monkeypatch.setattr(spectral, "_warm_top", counting_warm_top)
        monkeypatch.setattr(_CurveSolver, "lam", counting_lam)
        ladder = [ss.build_mesh(5.0, p, 12, 2.0) for p in self.LADDER]
        res = refine_until(tetra(5.0, 0.0), 0.0, 1e-6, ladder)
        assert len(solves) + len(warm) == len(evaluations)
        assert res.root_evaluations <= 6

    def test_top_pair_at_root_is_a_fresh_solve(self):
        # the root's evaluation is warm, from the top vector before it: a
        # fresh solver seeded with that vector gives the same bits, and a
        # cold LAPACK solve the same pair within the evaluation's rounding
        config, mesh = tetra(5.0, 0.0), ss.build_mesh(5.0, self.LADDER[0], 12, 2.0)
        solver = _star_solver(config, mesh)
        lam, seeds = solver.lam, []

        def seeded(kappa, j=1):
            seeds.append(solver._warm)
            return lam(kappa, j)

        solver.lam = seeded
        kappa, _, _, _ = _solve_level(solver, 0.0, 1)
        warm = solver.warm_evaluations
        kept = solver.top_pair(kappa)
        fresh_solver = _star_solver(config, mesh)
        fresh_solver._warm = seeds[-1]
        fresh_solver.lam(kappa)
        fresh = fresh_solver.top_pair(kappa)
        assert kept[0] == fresh[0]
        assert np.array_equal(kept[1], fresh[1])
        assert fresh_solver.warm_evaluations == 1 and warm > 0
        cold_solver = _star_solver(config, mesh)
        cold_solver.lam(kappa)
        cold = cold_solver.top_pair(kappa)
        assert cold_solver.warm_evaluations == 0
        assert abs(kept[0] - cold[0]) <= solver.last.rounding
        assert abs(kept[1] @ cold[1]) >= 1.0 - 1e-10


def spectrum_matrix(values, seed):
    """The symmetric matrix Q diag(values) Q^T, Q a random orthogonal
    matrix; returns it with Q's columns, the eigenvectors."""
    Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((len(values),) * 2))
    return (Q * values) @ Q.T, Q


def fixed_solver(A):
    """A solver whose every level is held by the one matrix ``A``."""
    return _CurveSolver(lambda kappa, j: (A, lambda u: 0.0, 1))


#: dimension of the synthetic matrices: inside the warm range
WARM_DIM = spectral._WARM_MIN + 8

#: ``REGULAR_STARS`` meshes (L, panels, order) whose sectors lie in the warm
#: range: 192 and 288 rows
WARM_MESHES = [(1.0, 16, 12), (5.0, 24, 12)]


class TestWarmTop:
    """Top evaluations from the previous top vector (``_warm_top``): the
    same pair as LAPACK's within the evaluation's rounding, never a lower
    eigenvalue, and LAPACK on the intact matrix where the shift is not
    above the top."""

    @staticmethod
    def lapack_top(A):
        vals, vecs = spectral._eigh(A, 1, vectors=True)
        return vals[0], vecs[:, 0]

    @classmethod
    def check_top(cls, A, value, x, rounding):
        """``value`` and the unit ``x`` against LAPACK's top pair: the value
        within ``rounding`` of the top and within twice it of LAPACK's, which
        has an error of its own (1.06 units on the two-arm star at pi/2 on
        16 x 12 at kappa 1.01), the top taken as the Rayleigh quotient of
        LAPACK's vector in extended precision; the vectors parallel."""
        top, v = cls.lapack_top(A)
        assert abs(value - cls.accurate_top(A)) <= rounding
        assert abs(value - top) <= 2.0 * rounding
        assert abs(x @ v) >= 1.0 - 1e-10

    @classmethod
    def accurate_top(cls, A):
        """The Rayleigh quotient of LAPACK's top vector in extended
        precision: the top of ``A`` as stored, to far below its rounding."""
        w = cls.lapack_top(A)[1].astype(np.longdouble)
        return float(w @ (A.astype(np.longdouble) @ w) / (w @ w))

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_lapack_on_synthetic_matrices(self, seed):
        # the previous top vector is that of a nearby matrix, as on a root
        # solve's next kappa
        values = np.random.default_rng(seed).uniform(-2.0, 1.0, WARM_DIM)
        values[-1] = 1.5
        A, _ = spectrum_matrix(values, seed)
        E, _ = spectrum_matrix(np.random.default_rng(seed + 10).uniform(-1, 1, WARM_DIM), seed)
        u = self.lapack_top(A + 1e-4 * E)[1]
        rounding = np.finfo(float).eps * spectral._norm_bound(A)
        value, x = spectral._warm_top(A, u, rounding)
        self.check_top(A, value, x, rounding)
        assert np.linalg.norm(A @ x - value * x) <= spectral._WARM_TOL * rounding

    @pytest.mark.parametrize("mesh_args", WARM_MESHES, ids=lambda m: "x".join(map(str, m)))
    @pytest.mark.parametrize("name", sorted(REGULAR_STARS))
    def test_matches_lapack_on_sectors(self, name, mesh_args):
        # a cold start, then Newton-sized steps in kappa, each solved warm
        L = mesh_args[0]
        asm = StarAssembler(ss.make_star(REGULAR_STARS[name], L, 0.0),
                            ss.build_mesh(*mesh_args, 2.0))
        solver = _CurveSolver(asm.pieces)
        assert solver.pieces(1.0, 1)[0].shape[0] >= spectral._WARM_MIN
        kappas = [1.0, 1.01, 1.01 * (1 + 1e-5), 1.01 * (1 + 1e-5) * (1 + 1e-12)]
        for kappa in kappas:
            value = solver.lam(kappa)
            self.check_top(asm.pieces(kappa, 1)[0], value, solver._warm, solver.last.rounding)
        assert solver.warm_evaluations == len(kappas) - 1

    @pytest.mark.parametrize("start", ["second", "mixed", "perturbed-second"])
    def test_near_degenerate_top_never_gives_the_second(self, start):
        # lambda_1 - lambda_2 = 1e-12, far above the rounding (2e-16 per
        # unit of norm), so the second eigenvalue is no answer
        values = np.linspace(-1.0, 0.5, WARM_DIM)
        values[-2:] = 1.0 - 1e-12, 1.0
        A, Q = spectrum_matrix(values, 7)
        v1, v2 = Q[:, -1], Q[:, -2]
        u = {"second": v2, "mixed": (v1 + v2) / np.sqrt(2.0),
             "perturbed-second": v2 + 1e-6 * Q[:, 0]}[start]
        rounding = np.finfo(float).eps * spectral._norm_bound(A)
        top = self.accurate_top(A)
        pair = spectral._warm_top(A, u / np.linalg.norm(u), rounding)
        if pair is not None:
            assert abs(pair[0] - top) <= rounding
        solver = fixed_solver(A)
        solver._warm = u / np.linalg.norm(u)
        assert abs(solver.lam(1.0) - top) <= solver.last.rounding

    @pytest.mark.parametrize("seed", range(3))
    def test_orthogonal_start_never_gives_a_lower_eigenvalue(self, seed):
        # the start is orthogonal to the top: a lower eigenvector itself, or
        # a random vector with its top component removed
        values = np.random.default_rng(seed).uniform(-1.0, 0.9, WARM_DIM)
        values[-1] = 1.0
        A, Q = spectrum_matrix(values, seed)
        v1 = Q[:, -1]
        w = np.random.default_rng(seed + 20).standard_normal(WARM_DIM)
        w -= (w @ v1) * v1
        for u in (Q[:, -2], Q[:, 0], w / np.linalg.norm(w)):
            solver = fixed_solver(A)
            solver._warm = u
            value = solver.lam(1.0)
            self.check_top(A, value, solver.top_pair(1.0)[1], solver.last.rounding)

    def test_shift_below_the_top_falls_back_on_the_intact_matrix(self, monkeypatch):
        # from the second eigenvector the shift lies below lambda_1, so the
        # factor fails; the evaluation is LAPACK's, bit for bit
        values = np.linspace(-1.0, 0.5, WARM_DIM)
        values[-1] = 1.0
        A, Q = spectrum_matrix(values, 3)
        before = A.copy()
        rounding = np.finfo(float).eps * spectral._norm_bound(A)
        assert spectral._warm_top(A, Q[:, -2], rounding) is None
        assert np.array_equal(A, before)
        eigh, solves = sla.eigh, []

        def counting_eigh(*args, **kwargs):
            solves.append(args[0].shape[0])
            return eigh(*args, **kwargs)

        monkeypatch.setattr(sla, "eigh", counting_eigh)
        solver = fixed_solver(A)
        solver._warm = Q[:, -2]
        value = solver.lam(1.0)
        assert solves == [WARM_DIM] and solver.warm_evaluations == 0
        cold = self.lapack_top(before)
        assert value == cold[0]
        assert np.array_equal(solver.top_pair(1.0)[1], cold[1])

    def test_same_inputs_same_bits(self):
        config = tetra(5.0, 0.0)
        mesh = ss.build_mesh(5.0, 24, 12, 2.0)
        asm = StarAssembler(config, mesh)
        u = self.lapack_top(asm.pieces(4.0, 1)[0])[1]
        pairs = []
        for _ in range(2):
            solver = _CurveSolver(asm.pieces)
            solver._warm = u.copy()
            solver.lam(4.1)
            pairs.append(solver.top_pair(4.1))
            assert solver.warm_evaluations == 1
        assert pairs[0][0] == pairs[1][0]
        assert np.array_equal(pairs[0][1], pairs[1][1])

    def test_eigensolver_record_counts_warm_evaluations(self):
        # every evaluation after the first is warm on a 288-row sector (the
        # records of ``TestSectorReduction``'s smaller stars read 0)
        res = principal_eigenvalue(tetra(5.0, 0.0), ss.build_mesh(5.0, 24, 12, 2.0), 0.0)
        assert res.eigensolver["dim"] == 288
        assert res.eigensolver["warm_evaluations"] == res.root_evaluations - 1


class TestEigensolverFallback:
    def test_subset_driver_failures_fall_back(self):
        # the antipodal pair on the 2-panel, order-2 search matrix is 8 x 8
        # and nearly -1.053 times the identity at kappa near 840, where
        # LAPACK's subset driver stops with "Internal Error." for some kappas
        from starspec.optimizer import _WarmObjective

        L = 1.2313601059970256
        objective = _WarmObjective(2, 0.0, ss.build_mesh(L, 2, 2, 1.0))
        pieces = objective.pieces(ss.sharp_configuration(2))
        solver = _CurveSolver(pieces)
        for kappa in np.geomspace(10.0, 5000.0, 200):
            A, _, _ = pieces(kappa, 1)
            want = np.linalg.eigvalsh(A)[::-1]
            # values alone, as the search's fixed-kappa calls solve them
            for j in (1, 2):
                value = spectral._eigh(A, j)[0]
                assert value == pytest.approx(want[j - 1], rel=1e-14, abs=0)
            assert solver.lam(kappa, 2) == pytest.approx(want[1], rel=1e-14, abs=0)
            assert solver.lam(kappa) == pytest.approx(want[0], rel=1e-14, abs=0)
            val, vec = solver.top_pair(kappa)
            assert np.linalg.norm(A @ vec - val * vec) <= 1e-14


    def test_arpack_failure_is_an_eigensolve_failure(self, monkeypatch):
        import scipy.sparse.linalg as spla

        def no_convergence(*args, **kwargs):
            raise spla.ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))

        monkeypatch.setattr(spla, "eigsh", no_convergence)
        with pytest.raises(EigensolveFailure, match="no convergence"):
            spectral._eigh(np.eye(spectral._DENSE_MAX + 1))


class TestExcitedLevels:
    """``bound_states`` brackets level j from above by kappa_{j-1}."""

    #: the tetrahedron at L = 5, alpha = 0 on the default mesh: its levels
    #: as solved upward from kappa = 1e-4, each to 1e-10 in kappa; levels 3
    #: to 5 are the threefold one
    TETRA_KAPPAS = (4.447870382938577, 1.0136251126060016, 0.9566330753387079,
                    0.9566330753387086, 0.9566330753387075)

    @pytest.fixture(scope="class")
    def counted(self):
        calls = []
        lam = _CurveSolver.lam

        def counting(solver, kappa, j=1):
            calls.append(j)
            return lam(solver, kappa, j)

        _CurveSolver.lam = counting
        try:
            _, res = bound_states(tetra(5.0, 0.0), default_mesh(5.0), 0.0, 5)
        finally:
            _CurveSolver.lam = lam
        return res, calls

    def test_levels_match_the_floor_brackets(self, counted):
        res, _ = counted
        kappas = [lv.kappa for lv in res.levels]
        assert kappas == pytest.approx(self.TETRA_KAPPAS, rel=1e-9)

    def test_fewer_evaluations_per_excited_level(self, counted):
        # searched upward from kappa = 1e-4, levels 2 and 3 took 21
        # evaluations each
        _, calls = counted
        for j in range(2, 6):
            assert 0 < calls.count(j) < 21
