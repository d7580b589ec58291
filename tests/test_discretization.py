import math

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.integrate import quad

from starspec.discretization import (
    BlockAssembler, StarAssembler, batch_entries, build_mesh, chord_groups, star_matrix,
)
from starspec.errors import BadParameters
from starspec.geometry import chord_sq, make_star, sharp_configuration

FOUR_PI = 4.0 * math.pi


class TestBuildMesh:
    def test_node_count_and_weight_sum(self):
        m = build_mesh(1.0, 8, 12, 2.0)
        assert m.size == 96
        assert abs(m.weights.sum() - 1.0) <= 1e-12

    def test_uniform_two_panels(self):
        m = build_mesh(1.0, 2, 2, 1.0)
        assert m.size == 4
        assert abs(m.weights.sum() - 1.0) <= 1e-14

    def test_nodes_interior_increasing(self):
        m = build_mesh(3.0, 10, 8, 3.0)
        assert np.all(np.diff(m.nodes) > 0)
        assert m.nodes[0] > 0.0 and m.nodes[-1] < 3.0

    def test_polynomial_exactness(self):
        m = build_mesh(1.0, 2, 4, 1.5)
        assert abs(np.sum(m.weights * m.nodes**3) - 0.25) < 1e-14

    def test_graded_toward_both_ends(self):
        # panel widths grow geometrically away from the vertex, and the
        # end stack shrinks again toward the free endpoint
        m = build_mesh(1.0, 12, 4, 2.0)
        widths = np.diff(m.edges)
        assert widths[0] <= widths.min() * (1 + 1e-12)
        assert widths[-1] < widths.max()
        front = widths[:m.panels - 8]
        assert np.allclose(front[1:] / front[:-1], 2.0, rtol=1e-12)

    def test_bad_parameters(self):
        with pytest.raises(BadParameters):
            build_mesh(-1.0, 8, 12, 2.0)
        with pytest.raises(BadParameters):
            build_mesh(1.0, 1, 12, 2.0)
        with pytest.raises(BadParameters):
            build_mesh(1.0, 8, 1, 2.0)
        with pytest.raises(BadParameters):
            build_mesh(1.0, 8, 12, 0.5)


def quadratic_form(block, mesh, f):
    u = np.sqrt(mesh.weights) * f(mesh.nodes)
    return float(u @ block @ u)


def diag_form_oracle(kappa, L, f, rel=1e-10):
    """(f, T f) for the regularized self-interaction kernel by adaptive
    quadrature, independent of the Nystrom machinery."""

    def inner(s):
        def integrand(t):
            return (f(t) * math.exp(-kappa * abs(s - t)) - f(s)) / abs(s - t)

        left, _ = quad(integrand, 0.0, s, epsabs=1e-13, epsrel=rel, limit=200)
        right, _ = quad(integrand, s, L, epsabs=1e-13, epsrel=rel, limit=200)
        return left + right + f(s) * math.log(4.0 * s * (L - s))

    val, _ = quad(
        lambda s: f(s) * inner(s), 0.0, L, epsabs=1e-13, epsrel=rel, limit=200
    )
    return val / FOUR_PI


class TestDiagBlock:
    def test_quadratic_form_against_adaptive_quadrature(self):
        # endpoint-vanishing test function, like the eigenfunctions the block
        # is used on; with it the form matches the independent adaptive
        # quadrature to near machine precision
        L, kappa = 1.0, 1.3
        mesh = build_mesh(L, 16, 12, 2.0)
        T = BlockAssembler(mesh).weighted_block(kappa)
        f = lambda s: s * (L - s) * np.exp(-s)
        got = quadratic_form(T, mesh, f)
        want = diag_form_oracle(kappa, L, lambda s: s * (L - s) * math.exp(-s))
        assert got == pytest.approx(want, rel=1e-10)

    def test_symmetric(self):
        mesh = build_mesh(2.0, 8, 10, 2.0)
        T = BlockAssembler(mesh).weighted_block(0.5)
        assert np.abs(T - T.T).max() == 0.0

    def test_top_eigenvalue_self_convergence(self):
        tops = []
        for panels in (8, 16, 32):
            mesh = build_mesh(1.0, panels, 12, 2.0)
            T = BlockAssembler(mesh).weighted_block(1.0)
            tops.append(sla.eigvalsh(T)[-1])
        assert abs(tops[1] - tops[0]) < 1e-5
        assert abs(tops[2] - tops[1]) < 1e-6

    def test_mesh_mismatch(self):
        mesh = build_mesh(1.0, 8, 12, 2.0)
        with pytest.raises(BadParameters):
            StarAssembler(make_star([(0, 0, 1)], 2.0, 0.0), mesh)


class TestOffdiagBlock:
    def test_quadratic_form_against_adaptive_quadrature(self):
        from scipy.integrate import dblquad

        L, kappa, c2 = 1.0, 0.8, 1.0
        mesh = build_mesh(L, 16, 12, 2.0)
        B = BlockAssembler(mesh, c2).weighted_block(kappa)
        f = lambda s: s * (L - s) * np.exp(-s)
        got = quadratic_form(B, mesh, f)
        want, _ = dblquad(
            lambda t, s: s * (L - s) * math.exp(-s) * t * (L - t) * math.exp(-t)
            * math.exp(-kappa * math.sqrt((s - t) ** 2 + s * t * c2))
            / (FOUR_PI * math.sqrt((s - t) ** 2 + s * t * c2)),
            0.0, L, 0.0, L, epsabs=1e-13, epsrel=1e-11,
        )
        assert got == pytest.approx(want, rel=1e-10)

    def test_antipodal_entries_match_kernel_away_from_vertex(self):
        mesh = build_mesh(1.0, 8, 12, 2.0)
        kappa = 1.0
        B = BlockAssembler(mesh, 4.0).weighted_block(kappa)
        s = mesh.nodes
        w = mesh.weights
        # far from the vertex no correction applies: plain weighted samples
        m, n = mesh.size - 1, mesh.size - 20
        expect = (
            math.sqrt(w[m] * w[n])
            * math.exp(-kappa * (s[m] + s[n]))
            / (FOUR_PI * (s[m] + s[n]))
        )
        assert B[m, n] == pytest.approx(expect, rel=1e-13)

    def test_entries_positive(self):
        mesh = build_mesh(1.0, 8, 12, 2.0)
        for c2 in (4.0, 2.0, 8.0 / 3.0, 0.05):
            B = BlockAssembler(mesh, c2).weighted_block(1.0)
            assert B.min() > 0.0

    def test_entries_decrease_with_kappa(self):
        mesh = build_mesh(1.0, 6, 8, 2.0)
        B1 = BlockAssembler(mesh, 2.0).weighted_block(1.0)
        B2 = BlockAssembler(mesh, 2.0).weighted_block(2.0)
        assert np.all(B2 <= B1 + 1e-15)

    def test_chord_must_be_positive(self):
        mesh = build_mesh(1.0, 4, 4, 2.0)
        for c2 in (0.0, -1.0, float("nan")):
            with pytest.raises(BadParameters):
                BlockAssembler(mesh, c2)


def star_blocks(cfg, kappa, mesh):
    """The full matrix and a view of it as (arm, node, arm, node)."""
    A = StarAssembler(cfg, mesh).matrix(kappa)
    M = mesh.size
    return A, A.reshape(cfg.n_arms, M, cfg.n_arms, M)


class TestBsMatrix:
    """The full Birman-Schwinger matrix, from ``StarAssembler.matrix``."""

    def test_single_arm_equals_diag_block(self):
        mesh = build_mesh(1.0, 6, 8, 2.0)
        cfg = make_star([(0, 0, 1)], 1.0, 0.0)
        A = StarAssembler(cfg, mesh).matrix(1.0)
        T = BlockAssembler(mesh).weighted_block(1.0)
        assert np.abs(A - T).max() < 1e-15

    def test_symmetry_and_block_transpose(self):
        mesh = build_mesh(1.0, 6, 8, 2.0)
        cfg = make_star(sharp_configuration(4), 1.0, 0.0)
        A, blocks = star_blocks(cfg, 0.7, mesh)
        assert np.abs(A - A.T).max() == 0.0
        assert np.abs(blocks[0, :, 1] - blocks[1, :, 0].T).max() == 0.0
        assert A.shape == (4 * mesh.size, 4 * mesh.size)

    def test_offdiag_blocks_positive(self):
        mesh = build_mesh(1.0, 6, 8, 2.0)
        cfg = make_star(sharp_configuration(6), 1.0, 0.0)
        _, blocks = star_blocks(cfg, 1.0, mesh)
        for i in range(6):
            for j in range(i + 1, 6):
                assert blocks[i, :, j].min() > 0.0

    def test_top_eigenvalue_decreasing_in_kappa(self):
        mesh = build_mesh(1.0, 6, 8, 2.0)
        cfg = make_star(sharp_configuration(3), 1.0, 0.0)
        tops = []
        for kappa in np.geomspace(0.1, 10.0, 10):
            A = StarAssembler(cfg, mesh).matrix(kappa)
            tops.append(sla.eigvalsh(A)[-1])
        assert all(a > b for a, b in zip(tops, tops[1:]))

    def test_arm_permutation_similarity(self):
        mesh = build_mesh(1.0, 5, 6, 2.0)
        dirs = sharp_configuration(4)
        spec_a = np.sort(
            sla.eigvalsh(StarAssembler(make_star(dirs, 1.0, 0.0), mesh).matrix(1.0))
        )
        perm = dirs[[2, 0, 3, 1]]
        spec_b = np.sort(
            sla.eigvalsh(StarAssembler(make_star(perm, 1.0, 0.0), mesh).matrix(1.0))
        )
        assert np.abs(spec_a - spec_b).max() < 1e-12

    def test_mesh_refinement_reduces_change(self):
        # top-eigenvalue change shrinks by at least 4x per panel doubling
        cfg = make_star(sharp_configuration(2), 1.0, 0.0)
        tops = []
        for panels in (4, 8, 16):
            mesh = build_mesh(1.0, panels, 12, 2.0)
            A = StarAssembler(cfg, mesh).matrix(1.0)
            tops.append(sla.eigvalsh(A)[-1])
        d1 = abs(tops[1] - tops[0])
        d2 = abs(tops[2] - tops[1])
        assert d2 < d1 / 4.0


class TestScaleCovariance:
    def test_diag_block_shift_under_scaling(self):
        # T_{kappa/2, 2L} = T_{kappa, L} + ln(2)/(2 pi) exactly, entrywise up
        # to the weight scaling
        kappa = 1.7
        mesh1 = build_mesh(1.0, 8, 10, 2.0)
        mesh2 = build_mesh(2.0, 8, 10, 2.0)
        T1 = BlockAssembler(mesh1).weighted_block(kappa)
        T2 = BlockAssembler(mesh2).weighted_block(kappa / 2.0)
        shift = math.log(2.0) / (2.0 * math.pi)
        diff = T2 - (T1 + shift * np.eye(mesh1.size))
        assert np.abs(diff).max() < 1e-13


class TestCorrectionBatch:
    @pytest.mark.parametrize(
        "L, panels, order",
        [(0.01, 3, 5), (1.0, 8, 12), (3.0, 12, 8), (5.0, 56, 12), (1e6, 20, 9)],
    )
    def test_subrules_integrate_the_lagrange_basis(self, L, panels, order):
        # row (piece, j) of S holds W_ij / w_j, with W_ij the subrule weight
        # of point i times basis j; the subrule integrates the panel's basis
        # exactly, and the integral of basis j is the node weight w_j
        mesh = build_mesh(L, panels, order, 2.0)
        for c2 in (None, 8.0 / 3.0, 4.0, 1e-3):
            asm = BlockAssembler(mesh, c2)
            row_sums = asm._S @ np.ones(asm._rho.size)
            assert np.abs(row_sums - 1.0).max() <= 1e-9, c2

    @pytest.mark.parametrize(
        "L, panels, order", [(0.01, 3, 5), (1.0, 8, 12), (3.0, 12, 8), (1e6, 20, 9)]
    )
    def test_layout_counts_the_built_batch(self, L, panels, order):
        # the parse-time bound counts, from the layout alone, the entries
        # that the constructor allocates for the batch
        mesh = build_mesh(L, panels, order, 2.0)
        for c2 in (None, 8.0 / 3.0, 4.0, 1e-3, 1e-12):
            assert batch_entries(mesh, c2) == BlockAssembler(mesh, c2)._S.nnz, c2


class TestChordGroups:
    @pytest.mark.parametrize("angle", [1e-7, 7e-7, 1.3e-6, 0.3, 1.0, math.pi])
    def test_two_arms_keep_their_chord(self, angle):
        dirs = np.array([[0.0, 0.0, 1.0], [math.sin(angle), 0.0, math.cos(angle)]])
        chords, _ = chord_groups(dirs)
        exact = chord_sq(dirs[0], dirs[1])
        assert chords.size == 1 and chords[0] > 0.0
        assert abs(chords[0] - exact) <= 1e-12 * exact

    def test_sharp_configurations_share_chords(self):
        for n, distinct in ((3, 1), (4, 1), (6, 2), (12, 3)):
            dirs = sharp_configuration(n)
            chords, (I, J, group) = chord_groups(dirs)
            assert chords.size == distinct
            for i, j, g in zip(I, J, group):
                exact = chord_sq(dirs[i], dirs[j])
                assert abs(chords[g] - exact) <= 1e-12 * exact


def block_by_block(N, T, pair_blocks, I, J, group):
    grid = [[T if i == j else None for j in range(N)] for i in range(N)]
    for i, j, g in zip(I, J, group):
        grid[i][j] = pair_blocks[g]
        grid[j][i] = pair_blocks[g].T
    return np.block(grid)


class TestStarMatrix:
    @pytest.mark.parametrize("N", [1, 2, 3, 4, 6, 12])
    def test_sharp_star_matches_block_by_block(self, N):
        dirs = [(0.0, 0.0, 1.0)] if N == 1 else sharp_configuration(N)
        asm = StarAssembler(make_star(dirs, 1.0, 0.0), build_mesh(1.0, 2, 4, 2.0))
        T, pair_blocks = asm._blocks(0.7)
        A = star_matrix(N, T, pair_blocks, *asm._pairs)
        assert np.isfinite(A).all()
        assert np.array_equal(A, block_by_block(N, T, pair_blocks, *asm._pairs))
        assert np.array_equal(A, asm.matrix(0.7))

    @pytest.mark.parametrize("N", [1, 2, 3, 4, 6, 12])
    def test_random_star_with_shared_groups(self, N):
        # unsymmetric blocks, so a transposed placement would show; fewer
        # groups than pairs, so groups hold several pairs
        rng = np.random.default_rng(N)
        M = 5
        T = rng.standard_normal((M, M))
        I, J = np.triu_indices(N, k=1)
        G = max(1, I.size // 3)
        group = rng.integers(G, size=I.size)
        pair_blocks = rng.standard_normal((G, M, M))
        for blocks in (pair_blocks, list(pair_blocks)):
            A = star_matrix(N, T, blocks, I, J, group)
            assert np.isfinite(A).all()
            assert np.array_equal(A, block_by_block(N, T, blocks, I, J, group))
