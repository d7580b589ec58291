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
from starspec.discretization import StarAssembler
from starspec.errors import NoCrossing, NotConverged
from starspec.kernels import point_eigenvalue
from starspec.spectral import (
    _CurveSolver,
    _diagnostics,
    _solve_level,
    _star_solver,
    count_bound_states,
    default_ladder,
    lambda_curve,
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


class TestLambdaCurve:
    def test_single_arm_matches_diag_spectrum(self):
        import scipy.linalg as sla

        mesh = ss.build_mesh(1.0, 6, 8, 2.0)
        cfg = segment(1.0, 0.0)
        top3 = lambda_curve(cfg, mesh, 1.0, count=3)
        T = ss.BlockAssembler(mesh).weighted_block(1.0)
        assert np.allclose(top3, sla.eigvalsh(T)[-3:][::-1], atol=1e-14)

    def test_decreasing_in_kappa(self):
        mesh = ss.default_mesh(1.0)
        cfg = antipodal(1.0, 0.0)
        vals = [lambda_curve(cfg, mesh, k)[0] for k in (0.1, 1.0, 10.0)]
        assert vals[0] > vals[1] > vals[2]

    def test_antipodal_symmetric_sector_matches_segment_block(self):
        import scipy.linalg as sla

        mesh = ss.build_mesh(0.5, 8, 12, 2.0)
        cfg = antipodal(0.5, 0.0)
        lam_star = lambda_curve(cfg, mesh, 1.0)[0]
        mesh2 = ss.build_mesh(1.0, 8, 12, 2.0)
        T = ss.BlockAssembler(mesh2).weighted_block(1.0)
        lam_seg = sla.eigvalsh(T)[-1]
        assert lam_star == pytest.approx(lam_seg, abs=1e-5)


class TestCountBoundStates:
    def test_long_segment_has_state(self):
        # guarantee length at alpha=0 is about 11.19; total length 12 works
        cfg = antipodal(6.0, 0.0)
        assert count_bound_states(cfg, ss.default_mesh(6.0), 0.0) >= 1

    def test_short_weak_segment_has_none(self):
        cfg = segment(1.0, 1.0)
        assert count_bound_states(cfg, ss.default_mesh(1.0), 1.0) == 0


class TestSolveEnergy:
    def test_residual_small(self):
        cfg = antipodal(6.0, 0.0)
        mesh = ss.default_mesh(6.0)
        kappa_1, e_1 = solve_energy(cfg, mesh, 0.0, 1)
        assert e_1 == pytest.approx(-kappa_1 * kappa_1, rel=1e-15)
        # Birman-Schwinger consistency: the curve reproduces alpha there
        lam = lambda_curve(cfg, mesh, kappa_1)[0]
        assert abs(lam - 0.0) < 1e-9

    def test_no_crossing(self):
        cfg = segment(1.0, 1.0)
        with pytest.raises(NoCrossing):
            solve_energy(cfg, ss.default_mesh(1.0), 1.0, 1)

    def test_level_ordering(self):
        cfg = antipodal(6.0, -0.05)
        mesh = ss.default_mesh(6.0)
        n = count_bound_states(cfg, mesh, -0.05)
        assert n >= 2
        _, e1 = solve_energy(cfg, mesh, -0.05, 1)
        _, e2 = solve_energy(cfg, mesh, -0.05, 2)
        assert e1 < e2 < 0.0

    def test_scaling_covariance_both_directions(self):
        # E(alpha - ln(zeta)/2pi, L) = zeta^2 E(alpha, zeta L): exact for the
        # discretization because mesh and kernel scale covariantly
        for zeta in (0.5, 2.0):
            alpha = 0.0
            L = 6.0
            a_scaled = ss.scaled_coupling(alpha, zeta)
            _, e_base = solve_energy(
                antipodal(L, a_scaled), ss.default_mesh(L), a_scaled, 1
            )
            _, e_zoom = solve_energy(
                antipodal(zeta * L, alpha), ss.default_mesh(zeta * L), alpha, 1
            )
            assert e_base == pytest.approx(zeta**2 * e_zoom, rel=1e-9)

    def test_L_monotone_where_resolvable(self):
        # strict decrease holds while the physical L-dependence is above the
        # discretization floor (short arms); see the ledger for the long-arm
        # saturation
        mesh_for = lambda L: ss.build_mesh(L, 16, 12, 2.0)
        es = []
        for L in (0.25, 0.5, 1.0):
            _, e = solve_energy(tetra(L, 0.0), mesh_for(L), 0.0, 1)
            es.append(e)
        assert es[0] > es[1] > es[2]


class TestPrincipalEigenvalue:
    def test_diagnostics_on_tetrahedron(self):
        res = principal_eigenvalue(tetra(5.0, 0.0), ss.default_mesh(5.0), 0.0)
        assert res.ground_vector_positivity
        assert res.arm_symmetry_residual < 1e-8
        assert res.residual < 1e-9
        assert res.levels[0].kappa > 0

    def test_right_angle_pair_parity(self):
        cfg = ss.make_star([(0, 0, 1), (1, 0, 0)], 50.0, 0.0)
        res = principal_eigenvalue(cfg, ss.default_mesh(50.0), 0.0)
        assert res.parity == "symmetric"
        assert res.ground_vector_positivity

    def test_large_arm_below_point_interaction_threshold(self):
        cfg = ss.make_star([(0, 0, 1), (1, 0, 0)], 50.0, 0.0)
        res = principal_eigenvalue(cfg, ss.default_mesh(50.0), 0.0)
        assert res.ground_energy < point_eigenvalue(0.0)

    def test_angle_optimality_for_two_arms(self):
        # straightening the pair raises the ground level: E(pi) maximal
        mesh = ss.default_mesh(6.0)
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
        ladder = [ss.default_mesh(6.0)]
        with pytest.warns(UserWarning):
            res = refine_until(antipodal(6.0, 0.0), 0.0, 1e-6, ladder)
        assert not res.mesh_metadata["converged"]

    def test_default_ladder_shape(self):
        meshes = default_ladder(2.0)
        assert [m.panels for m in meshes] == [8, 16, 32]


#: arm-regular stars: the five sharp configurations and three orthogonal arms
REGULAR_STARS = {
    **{f"sharp{n}": ss.sharp_configuration(n) for n in (2, 3, 4, 6, 12)},
    "orthogonal3": np.eye(3),
}
#: (L, panels, order)
SECTOR_MESHES = [(5.0, 8, 12), (3.0, 12, 8), (1.0, 16, 12)]


class TestSectorReduction:
    """The top of an arm-regular star from its M x M sector matrices, against
    the full N*M matrix (``StarAssembler.matrix``), which the solver only
    uses for lower levels and counts."""

    @pytest.mark.parametrize("mesh_args", SECTOR_MESHES, ids=lambda m: "x".join(map(str, m)))
    @pytest.mark.parametrize("name", sorted(REGULAR_STARS))
    def test_top_matches_full_matrix(self, name, mesh_args):
        L = mesh_args[0]
        cfg = ss.make_star(REGULAR_STARS[name], L, 0.0)
        asm = StarAssembler(cfg, ss.build_mesh(*mesh_args, 2.0))
        assert asm.group_counts is not None
        solver = _CurveSolver(asm.matrix, asm)
        for kappa in (1e-4, 1.0, 30.0):
            A = asm.matrix(kappa)
            n = A.shape[0]
            vals, vecs = sla.eigh(A, subset_by_index=[n - 1, n - 1])
            full, v = vals[0], vecs[:, 0]
            lam, u, sector = solver.top_pair(kappa)
            assert abs(lam - full) <= 1e-12 * abs(full)
            assert solver.lam(kappa) == lam
            assert abs(u @ v) == pytest.approx(1.0, abs=1e-8)
            # the full matrix's own top vector is arm-symmetric
            assert _diagnostics(cfg, v)[1] < 1e-8
            assert sector == 0

    def test_two_arm_sectors_split_the_matrix(self):
        cfg = ss.make_star([(0, 0, 1), (1, 0, 0)], 4.0, 0.0)
        asm = StarAssembler(cfg, ss.build_mesh(4.0, 6, 8, 2.0))
        A = asm.matrix(0.7)
        sym, anti = asm.sector_matrices(0.7)
        both = np.concatenate([sla.eigvalsh(sym), sla.eigvalsh(anti)])
        assert np.allclose(np.sort(both), sla.eigvalsh(A), rtol=0, atol=1e-12)

    def test_antisymmetric_top_gives_odd_vector(self):
        # a two-arm star whose exchange-odd sector holds the top
        sym, anti = np.diag([1.0, 2.0]), np.diag([3.0, 0.5])
        star = SimpleNamespace(
            group_counts=np.array([1]),
            config=SimpleNamespace(n_arms=2),
            sector_matrices=lambda kappa: (sym.copy(), anti.copy()),
        )
        lam, vec, sector = _CurveSolver(None, star).top_pair(1.0)
        assert (lam, sector) == (3.0, 1)
        assert np.allclose(np.abs(vec), 0.5 ** 0.5 * np.array([1, 0, 1, 0]))
        assert vec[0] == -vec[2]

    def test_irregular_star_takes_full_matrix(self):
        dirs = np.array([(0, 0, 1), (1, 0, 0), (0.6, 0.8, 0)])
        cfg = ss.make_star(dirs, 3.0, 0.0)
        mesh = ss.build_mesh(3.0, 4, 6, 2.0)
        assert StarAssembler(cfg, mesh).group_counts is None
        res = principal_eigenvalue(cfg, mesh, 0.0)
        assert res.eigensolver == {"path": "dense", "dim": 72, "group_counts": None}
        assert res.parity is None

    def test_eigensolver_record_of_regular_stars(self):
        res = principal_eigenvalue(tetra(5.0, 0.0), ss.build_mesh(5.0, 6, 8, 2.0), 0.0)
        assert res.eigensolver == {"path": "sector", "dim": 48, "group_counts": [3]}
        octa = ss.make_star(ss.sharp_configuration(6), 2.0, 0.0)
        res = principal_eigenvalue(octa, ss.build_mesh(2.0, 4, 6, 2.0), 0.0)
        assert res.eigensolver == {"path": "sector", "dim": 24, "group_counts": [4, 1]}


#: dense-path stars for the root-finder tests: sharp and irregular, N = 2..4
ROOT_STARS = {
    "sharp-2": ss.sharp_configuration(2),
    "sharp-3": ss.sharp_configuration(3),
    "sharp-4": ss.sharp_configuration(4),
    "right-angle-2": np.array([(0, 0, 1), (1, 0, 0)]),
    "irregular-3": np.array([(0, 0, 1), (1, 0, 0), (0.6, 0.8, 0)]),
    "irregular-4": np.array([(0, 0, 1), (1, 0, 0), (0.6, 0.8, 0), (0, -0.6, -0.8)]),
}


def dense_solver(name, L=2.0):
    """A full-matrix (LAPACK) solver for ``ROOT_STARS[name]`` on a small mesh."""
    cfg = ss.make_star(ROOT_STARS[name], L, 0.0)
    asm = StarAssembler(cfg, ss.build_mesh(L, 4, 6, 2.0))
    return _CurveSolver(asm.matrix, sloped=asm.sloped_matrix)


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
        kappa, energy, residual, evaluations = _solve_level(solver, 0.0, 1, 1e-10, start)
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
        kappa, _, _, _ = _solve_level(solver, 0.0, 1, 1e-10, upper_factor * roots[name])
        assert len(calls) == len(set(calls))
        assert kappa == pytest.approx(roots[name], rel=1e-9)

    @pytest.mark.parametrize("name", ["sharp-4", "irregular-3"])
    def test_solver_freed_once_dropped(self, name):
        cfg = ss.make_star(ROOT_STARS[name], 2.0, 0.0)
        solver = _star_solver(cfg, ss.build_mesh(2.0, 4, 6, 2.0))
        refs = [weakref.ref(solver), weakref.ref(solver.matrix.__self__)]
        gc.disable()
        try:
            _solve_level(solver, 0.0, 1, 1e-10)
            del solver
            assert [r() for r in refs] == [None, None]
        finally:
            gc.enable()


def random_directions(n: int, seed: int) -> np.ndarray:
    d = np.random.default_rng(seed).standard_normal((n, 3))
    return d / np.linalg.norm(d, axis=1)[:, None]


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
        n = config.n_arms * mesh.nodes.size
        assert _star_solver(config, mesh).record(n)["path"] == path
        return config, mesh, lambda_curve(config, mesh, 0.0, count=2)

    def test_crossing_just_below_threshold(self, star):
        config, mesh, lam0 = star
        alpha = lam0[0] - 1e-7
        assert count_bound_states(config, mesh, alpha) == 1
        kappa, energy = solve_energy(config, mesh, alpha)
        assert 0.0 < kappa < 1e-4
        assert energy == -kappa * kappa
        solver = _star_solver(config, mesh)
        assert abs(solver.lam(kappa) - alpha) <= 1e-12

    def test_no_crossing_just_above_threshold(self, star):
        config, mesh, lam0 = star
        alpha = lam0[0] + 1e-9
        assert count_bound_states(config, mesh, alpha) == 0
        with pytest.raises(NoCrossing):
            solve_energy(config, mesh, alpha)

    @pytest.mark.parametrize("j", [1, 2])
    def test_count_agrees_with_root_solve(self, star, j):
        config, mesh, lam0 = star
        for alpha in (lam0[j - 1] - 1e-7, lam0[j - 1] + 1e-9):
            try:
                solve_energy(config, mesh, alpha, j)
                crosses = True
            except NoCrossing:
                crosses = False
            assert (count_bound_states(config, mesh, alpha) >= j) == crosses


class TestSlope:
    """The slope lambda_j'(kappa) = v^T (dA/dkappa) v of each evaluation,
    against a central difference of ``lam``, on every eigensolver path."""

    @pytest.mark.parametrize("j", [1, 2])
    @pytest.mark.parametrize("name", sorted(NEAR_THRESHOLD))
    def test_matches_central_difference(self, name, j):
        dirs, L, panels, order, _ = NEAR_THRESHOLD[name]
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

        warm = _WarmObjective(3, 0.0, ss.build_mesh(2.0, 3, 5, 2.0), 1e-10)
        matrix = warm.matrix(ROOT_STARS["irregular-3"])
        solver = _CurveSolver(matrix, sloped=lambda kappa: matrix(kappa, slope=True))
        solver.lam(1.5)
        slope, h = solver.last.slope, 1e-4
        diff = (solver.lam(1.5 + h) - solver.lam(1.5 - h)) / (2.0 * h)
        assert slope == pytest.approx(diff, rel=1e-6)


class TestGroundVector:
    """The ground state's vector is the root's own evaluation: refining
    ``ladder-tetra``'s ladder makes one eigensolve per lambda evaluation."""

    LADDER = (40, 48, 56)

    def test_one_eigensolve_per_evaluation(self, monkeypatch):
        eigh, solves, evaluations = sla.eigh, [], []
        lam = _CurveSolver.lam

        def counting_eigh(*args, **kwargs):
            solves.append(args[0].shape[0])
            return eigh(*args, **kwargs)

        def counting_lam(solver, kappa, j=1):
            evaluations.append(kappa)
            return lam(solver, kappa, j)

        monkeypatch.setattr(sla, "eigh", counting_eigh)
        monkeypatch.setattr(_CurveSolver, "lam", counting_lam)
        ladder = [ss.build_mesh(5.0, p, 12, 2.0) for p in self.LADDER]
        res = refine_until(tetra(5.0, 0.0), 0.0, 1e-6, ladder)
        assert len(solves) == len(evaluations)
        assert res.root_evaluations <= 6

    def test_top_pair_at_root_is_a_fresh_solve(self):
        config, mesh = tetra(5.0, 0.0), ss.build_mesh(5.0, self.LADDER[0], 12, 2.0)
        solver = _star_solver(config, mesh)
        kappa, _, _, _ = _solve_level(solver, 0.0, 1, 1e-10)
        kept = solver.top_pair(kappa)
        fresh = _star_solver(config, mesh).top_pair(kappa)
        assert kept[0] == fresh[0] and kept[2] == fresh[2]
        assert np.array_equal(kept[1], fresh[1])


class TestEigensolverFallback:
    def test_subset_driver_failures_fall_back(self):
        # the antipodal pair on the 2-panel, order-2 search matrix is 8 x 8
        # and nearly -1.053 times the identity at kappa near 840, where
        # LAPACK's subset driver stops with "Internal Error." for some kappas
        from starspec.optimizer import _WarmObjective

        L = 1.2313601059970256
        objective = _WarmObjective(2, 0.0, ss.build_mesh(L, 2, 2, 1.0), 1e-10)
        matrix = objective.matrix(ss.sharp_configuration(2))
        solver = _CurveSolver(matrix)
        for kappa in np.geomspace(10.0, 5000.0, 200):
            want = np.linalg.eigvalsh(matrix(kappa))[::-1]
            assert solver.lam(kappa) == pytest.approx(want[0], rel=1e-14, abs=0)
            assert solver.lam(kappa, 2) == pytest.approx(want[1], rel=1e-14, abs=0)
            val, vec, _ = solver.top_pair(kappa)
            assert np.linalg.norm(matrix(kappa) @ vec - val * vec) <= 1e-14


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
            _, res = spectral.bound_states(tetra(5.0, 0.0), ss.default_mesh(5.0), 0.0, 5)
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
