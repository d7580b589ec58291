import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import starspec as ss
from starspec import optimizer
from starspec.cli import parse_job, run
from starspec.discretization import BlockAssembler
from starspec.errors import AllStartsFailed, SizeMismatch
from starspec.geometry import congruent, pair_chords
from starspec.optimizer import (
    MIN_PAIR_ANGLE,
    OptSettings,
    _WarmObjective,
    _min_pair_angle,
    gauge_embed,
    kernel_sum_compare,
    objective,
    optimize,
    search_mesh,
    verify_sharp_local_max,
)
from starspec.spectral import _CurveSolver


class TestGaugeEmbed:
    def test_antipodal(self):
        dirs = gauge_embed([math.pi], 2)
        assert np.allclose(dirs[0], [0, 0, 1], atol=1e-15)
        assert np.allclose(dirs[1], [0, 0, -1], atol=1e-15)

    def test_parameter_count(self):
        with pytest.raises(ValueError):
            gauge_embed([1.0, 2.0], 2)

    def test_unit_norm_always(self):
        rng = np.random.default_rng(5)
        for n in (2, 3, 5):
            params = rng.uniform(-10, 10, 2 * n - 3)
            dirs = gauge_embed(params, n)
            assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-14)

    def test_azimuth_periodicity(self):
        params = np.array([1.0, 0.7, 0.3])
        shifted = params.copy()
        shifted[2] += 2 * math.pi
        a = gauge_embed(params, 3)
        b = gauge_embed(shifted, 3)
        assert np.allclose(np.sort(pair_chords(a)), np.sort(pair_chords(b)), atol=1e-12)


class TestObjective:
    def test_matches_principal_eigenvalue(self):
        mesh = search_mesh(5.0)
        e_obj = objective([math.pi], 2, 5.0, 0.0, mesh)
        cfg = ss.make_star(gauge_embed([math.pi], 2), 5.0, 0.0)
        e_dir = ss.principal_eigenvalue(cfg, mesh, 0.0).ground_energy
        assert e_obj == pytest.approx(e_dir, abs=1e-12)

    def test_sentinel_for_coincident(self):
        assert objective([5e-4], 2, 5.0, 0.0, search_mesh(5.0)) == float("-inf")

    def test_sentinel_when_no_bound_state(self):
        mesh = search_mesh(0.3)
        assert objective([math.pi], 2, 0.3, 1.0, mesh) == float("-inf")

    def test_closing_angle_much_worse(self):
        mesh = search_mesh(1.0)
        wide = objective([math.pi], 2, 1.0, -0.3, mesh)
        narrow = objective([0.05], 2, 1.0, -0.3, mesh)
        assert narrow < wide < 0

    def test_gauge_equivalent_parameters_agree(self):
        # (theta, phi) and (-theta, phi + pi) embed the same directions
        mesh = search_mesh(5.0)
        params = np.array([1.9, 0.8, 0.4])
        mirrored = np.array([1.9, -0.8, 0.4 + math.pi])
        a = objective(params, 3, 5.0, 0.0, mesh)
        b = objective(mirrored, 3, 5.0, 0.0, mesh)
        assert abs(a - b) < 1e-9

    def test_relabeling_free_arms_invariant(self):
        # swapping the parameter pairs of arms 3 and 4 relabels the star
        mesh = search_mesh(5.0)
        params = np.array([1.9, 0.8, 0.4, 2.2, 3.5])
        swapped = np.array([1.9, 2.2, 3.5, 0.8, 0.4])
        a = objective(params, 4, 5.0, 0.0, mesh)
        b = objective(swapped, 4, 5.0, 0.0, mesh)
        assert abs(a - b) < 1e-9


class TestSearchAssembly:
    """The search's matrix against the closed-form kernel, entry by entry."""

    @pytest.mark.parametrize("N", [2, 3, 4, 6])
    @pytest.mark.parametrize("kappa", [0.05, 1.0, 7.5])
    def test_blocks_match_closed_form(self, N, kappa):
        L = 4.0
        mesh = search_mesh(L)
        M = mesh.size
        dirs = ss.sharp_configuration(N) if N == 6 else gauge_embed(
            np.random.default_rng(N).uniform(0.3, 2.8, 2 * N - 3), N
        )
        warm = _WarmObjective(N, 0.0, mesh)
        A, _, _ = warm.pieces(dirs)(kappa, 1)
        assert A.shape == (N * M, N * M)
        assert np.array_equal(A, A.T)
        T = BlockAssembler(mesh, None).weighted_block(kappa)
        s, w = mesh.nodes, mesh.weights
        chords = iter(pair_chords(dirs).tolist())
        for i in range(N):
            assert np.array_equal(A[i * M:(i + 1) * M, i * M:(i + 1) * M], T)
            for j in range(i + 1, N):
                c = float(f"{next(chords):.12e}")  # chord_groups key
                r = np.sqrt((s[:, None] - s) ** 2 + s[:, None] * s * c)
                expected = np.exp(-kappa * r) / (4.0 * math.pi * r) * np.sqrt(np.outer(w, w))
                block = A[i * M:(i + 1) * M, j * M:(j + 1) * M]
                assert np.allclose(block, expected, rtol=1e-13, atol=0.0)


class TestOptimize:
    def test_two_arms_find_antipodal(self):
        res = optimize(2, 5.0, 0.0, OptSettings(starts=3, seed=0))
        assert res.congruent_to_sharp
        ip = float(res.best_directions[0] @ res.best_directions[1])
        assert ip == pytest.approx(-1.0, abs=5e-3)
        assert res.best_energy == pytest.approx(max(res.per_start_trace), abs=1e-12)
        assert res.kernel_sum_gap is not None and res.kernel_sum_gap > -1e-12

    def test_three_arms_find_planar_simplex(self):
        res = optimize(3, 5.0, 0.0, OptSettings(starts=4, seed=1))
        assert res.congruent_to_sharp
        g = res.best_directions @ res.best_directions.T
        ips = g[np.triu_indices(3, 1)]
        assert np.allclose(ips, -0.5, atol=5e-3)

    def test_deterministic_for_fixed_seed(self):
        a = optimize(2, 5.0, 0.0, OptSettings(starts=2, seed=42))
        b = optimize(2, 5.0, 0.0, OptSettings(starts=2, seed=42))
        assert a.best_energy == b.best_energy
        assert np.array_equal(a.best_directions, b.best_directions)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_two_arms_every_seed(self, seed):
        res = optimize(2, 5.0, 0.0, OptSettings(starts=2, seed=seed))
        assert res.congruent_to_sharp

    def test_all_starts_failed(self):
        # strong repulsive coupling on short arms: no bound state anywhere
        with pytest.raises(AllStartsFailed):
            optimize(2, 0.2, 3.0, OptSettings(starts=2, seed=0))

    def test_no_sharp_family_verdict_not_applicable(self):
        res = optimize(5, 3.0, 0.0, OptSettings(starts=1, seed=0))
        assert res.congruent_to_sharp is None
        assert res.kernel_sum_gap is None
        assert res.best_energy < 0


class TestFixedKappaSearch:
    """Each start's crossings fall step by step, within one budget."""

    @pytest.mark.parametrize("N, seed", [(2, 0), (2, 3), (3, 1), (4, 1)])
    def test_search_kappas_non_increasing(self, N, seed):
        res = optimize(N, 5.0, 0.0, OptSettings(starts=2, seed=seed))
        assert len(res.search_kappas) == 2
        for kappas in res.search_kappas:
            assert len(kappas) >= 2
            assert all(b <= a for a, b in zip(kappas, kappas[1:]))

    def test_same_seed_same_diagnostics(self, tmp_path):
        docs = []
        for _ in range(2):
            out = tmp_path / "res.json"
            job = parse_job(json.dumps({
                "command": "optimize", "star": {"sharp": 3}, "alpha": 0.0,
                "arm_length": 5.0, "optimize": {"starts": 2, "seed": 4},
            }))
            assert run(job, out_path=str(out)) == 0
            docs.append(json.loads(out.read_text()))
        assert docs[0]["diagnostics"] == docs[1]["diagnostics"]
        assert docs[0]["results"] == docs[1]["results"]
        assert len(docs[0]["diagnostics"]["search_kappas"]) == 2

    def test_maxfev_bounds_a_whole_start(self, monkeypatch):
        # record the fixed kappa of every evaluation, one list per search
        # (start), so the outer steps show as runs of one kappa.  A gradient
        # tolerance of 0 keeps each descent going until a line search fails:
        # the starts then take 11 + 2 and 10 + 2 evaluations.  A budget of
        # 11 for the start's one parameter cuts the first in its first step
        # and the second in its second step
        monkeypatch.setattr(optimizer, "_GRAD_TOL", 0.0)
        monkeypatch.setattr(optimizer, "MAXFEV_PER_PARAM", 11)
        starts = []
        search, negative = _WarmObjective.search, _WarmObjective.negative

        def recorded_search(self, x0):
            starts.append([])
            return search(self, x0)

        def recorded(self, params):
            starts[-1].append(self.kappa)
            return negative(self, params)

        monkeypatch.setattr(_WarmObjective, "search", recorded_search)
        monkeypatch.setattr(_WarmObjective, "negative", recorded)
        res = optimize(2, 5.0, 0.0, OptSettings(starts=2, seed=1))
        assert [len(kappas) for kappas in starts] == [optimizer.MAXFEV_PER_PARAM] * 2
        # the first step leaves budget over for a second one
        assert any(len(set(kappas)) >= 2 for kappas in starts)
        assert res.congruent_to_sharp

    def test_one_search_object_per_optimize(self, monkeypatch):
        built = []
        init = _WarmObjective.__init__

        def counted(self, *args):
            built.append(self)
            init(self, *args)

        monkeypatch.setattr(_WarmObjective, "__init__", counted)
        optimize(2, 5.0, 0.0, OptSettings(starts=3, seed=0))
        assert len(built) == 1

    @pytest.mark.parametrize("N, seed", [(2, 0), (3, 1), (4, 1)])
    def test_shared_object_keeps_no_state(self, N, seed):
        # a start searched after another on the same object ends where it
        # ends on a fresh object, bit for bit
        mesh = search_mesh(5.0)
        first, second = (optimizer._draw_start(np.random.default_rng([seed, k]), N)
                         for k in range(2))
        shared = _WarmObjective(N, 0.0, mesh)
        assert len(shared.search(first)[0]) >= 2
        kappas, x = shared.search(second)
        fresh_kappas, fresh_x = _WarmObjective(N, 0.0, mesh).search(second)
        assert kappas == fresh_kappas
        assert np.array_equal(x, fresh_x)


#: the polar angle of the tetrahedron's arms 2 to 4 when arm 1 is the pole
TETRA_ANGLE = math.acos(-1 / 3)


class TestGradientSearch:
    """The descent of each outer step runs on the Hellmann-Feynman gradient
    of ``_WarmObjective.negative``."""

    @pytest.mark.parametrize("N", [2, 3, 4, 6])
    @pytest.mark.parametrize("kappa", [0.5, 5.0, 50.0])
    def test_gradient_matches_central_difference(self, N, kappa):
        rng = np.random.default_rng([N, int(kappa * 10)])
        warm = _WarmObjective(N, 0.0, search_mesh(5.0))
        warm.kappa, warm._T = kappa, warm._diag.weighted_block(kappa)
        for _ in range(3):
            params = rng.uniform(0.0, 2 * math.pi, 2 * N - 3)
            while _min_pair_angle(gauge_embed(params, N)) < 0.2:
                params = rng.uniform(0.0, 2 * math.pi, 2 * N - 3)
            warm.negative(params)
            grad = warm.gradient
            h = 1e-6
            fd = np.array([
                (warm.negative(params + h * e) - warm.negative(params - h * e)) / (2 * h)
                for e in np.eye(params.size)
            ])
            assert np.allclose(grad, fd, rtol=1e-5, atol=1e-8)

    @pytest.mark.parametrize("N, params", [
        (2, [math.pi]),
        (3, [2 * math.pi / 3, 2 * math.pi / 3, math.pi]),
        (4, [TETRA_ANGLE, TETRA_ANGLE, 2 * math.pi / 3, TETRA_ANGLE, 4 * math.pi / 3]),
    ])
    def test_confirming_step_is_short(self, N, params, monkeypatch):
        # the gradient vanishes at the sharp configuration, so an outer step
        # from it only confirms the fixed point
        assert congruent(gauge_embed(params, N), ss.sharp_configuration(N))
        seen = []
        negative = _WarmObjective.negative

        def recorded(self, x):
            seen.append(self.kappa)
            return negative(self, x)

        monkeypatch.setattr(_WarmObjective, "negative", recorded)
        warm = _WarmObjective(N, 0.0, search_mesh(5.0))
        kappas, x = warm.search(np.array(params))
        # a step that gains nothing ends the search, whether its crossing
        # rounds to kappa_k or just above it
        assert seen and set(seen) <= set(kappas)
        for kappa in set(seen):
            assert seen.count(kappa) <= 2
        assert congruent(gauge_embed(x, N), ss.sharp_configuration(N))

    def test_first_trial_in_sentinel_region(self, monkeypatch):
        # arm 2 sits 0.002 rad from arm 1, and arm 3 where the capped first
        # steepest-descent step puts arm 2: the first trial point has two
        # coincident arms, and the line search must back off from it
        N, x0 = 3, np.array([0.002, 0.502, 0.0])
        values = []
        negative = _WarmObjective.negative

        def recorded(self, x):
            values.append(negative(self, x))
            return values[-1]

        monkeypatch.setattr(_WarmObjective, "negative", recorded)
        warm = _WarmObjective(N, 0.0, search_mesh(5.0))
        kappas, x = warm.search(x0)
        assert math.isfinite(values[0]) and values[1] == math.inf
        assert len(kappas) >= 2
        assert all(b <= a for a, b in zip(kappas, kappas[1:]))
        assert warm.crossing(x) <= kappas[0]
        assert _min_pair_angle(gauge_embed(x, N)) >= MIN_PAIR_ANGLE


class TestFixedKappaFact:
    """At every kappa, the sharp star's search matrix has the smallest top
    eigenvalue: lambda_1(A_x) >= lambda_1(A*) for every direction set x.

    The sharp matrix A* has a positive, arm-symmetric top vector
    v = (u, ..., u) / sqrt(N) (Perron-Frobenius, and the arm-symmetric
    sector holds the top).  For any star x, by the Rayleigh quotient,
    lambda_1(A_x) >= v^T A_x v = u^T T u + (2/N) sum_{i<j} u^T B(c_ij) u,
    where B(c) has entries sqrt(w_s w_t) e^{-kappa D} / (4 pi D) with
    D = sqrt((s-t)^2 + s t c).  The pairwise kernel-sum inequality
    sum_{i<j} B(c_ij) >= sum_{i<j} B(c*_ij) holds entrywise at the
    quadrature nodes, and u > 0, so v^T A_x v >= v^T A* v = lambda_1(A*).
    This is why minimizing lambda_1(., kappa_k) at a fixed kappa_k finds the
    energy's maximizer.  The search evaluates no star with a pair angle
    below ``MIN_PAIR_ANGLE`` (coincident arms make the matrix singular), so
    neither does this test.
    """

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        N=st.sampled_from([2, 3, 4, 6]),
        L=st.floats(0.3, 8.0),
        kappa=st.floats(0.05, 8.0),
        data=st.data(),
    )
    def test_sharp_star_minimizes_lambda_1(self, N, L, kappa, data):
        params = data.draw(st.lists(st.floats(-2 * math.pi, 2 * math.pi),
                                    min_size=2 * N - 3, max_size=2 * N - 3))
        dirs = gauge_embed(params, N)
        assume(_min_pair_angle(dirs) >= MIN_PAIR_ANGLE)
        warm = _WarmObjective(N, 0.0, search_mesh(L))
        lam = _CurveSolver(warm.pieces(dirs)).lam(kappa)
        lam_sharp = _CurveSolver(warm.pieces(ss.sharp_configuration(N))).lam(kappa)
        assert lam >= lam_sharp - 1e-12 * max(1.0, abs(lam_sharp))


class TestVerifySharpLocalMax:
    def test_zero_scale_degenerate(self):
        rep = verify_sharp_local_max(4, 2.0, 0.0, scale=0.0, trials=3, seed=0,
                                     mesh=search_mesh(2.0))
        assert rep.degenerate and rep.passed

    def test_tetrahedron_beats_perturbations(self):
        rep = verify_sharp_local_max(4, 2.0, 0.0, scale=0.1, trials=5, seed=2,
                                     mesh=ss.build_mesh(2.0, 6, 6, 2.0))
        assert rep.passed
        assert all(e < rep.sharp_energy for e in rep.perturbed_energies)


class TestKernelSumCompare:
    def test_identical_sets_zero_gap(self):
        sharp = ss.sharp_configuration(6)
        rep = kernel_sum_compare(sharp, sharp, 1.0, [(0.5, 0.5), (1.0, 0.2)])
        assert abs(rep.min_gap) <= 1e-14

    def test_congruent_rotated_zero_gap(self):
        rng = np.random.default_rng(9)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        sharp = ss.sharp_configuration(4)
        rep = kernel_sum_compare(sharp @ q.T, sharp, 1.0, [(0.3, 0.9), (1.1, 1.3)])
        assert abs(rep.min_gap) <= 1e-14

    def test_perturbed_octahedron_positive_gap(self):
        rng = np.random.default_rng(4)
        octa = ss.sharp_configuration(6)
        moved = octa + 0.05 * rng.standard_normal(octa.shape)
        moved /= np.linalg.norm(moved, axis=1)[:, None]
        samples = list(zip(rng.uniform(0.05, 1, 25), rng.uniform(0.05, 1, 25)))
        rep = kernel_sum_compare(moved, octa, 1.0, samples)
        assert rep.min_gap > 0.0
        assert all(g > 0 for g in rep.gaps)

    def test_two_arms_vs_antipodal(self):
        bent = np.array([[0, 0, 1.0], [math.sin(2.0), 0, math.cos(2.0)]])
        rep = kernel_sum_compare(bent, ss.sharp_configuration(2), 1.0, [(0.4, 0.8)])
        assert rep.min_gap > 0.0

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            kernel_sum_compare(ss.sharp_configuration(4), ss.sharp_configuration(6),
                               1.0, [(0.5, 0.5)])
