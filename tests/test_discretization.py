import math
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.linalg as sla
from scipy.integrate import quad

from starspec import discretization
from starspec.discretization import (
    BlockAssembler, StarAssembler, batch_entries, batch_prototypes, build_mesh, chord_entries,
    chord_groups, correction_layout, star_form, star_matrix,
)
from starspec.errors import BadParameters
from starspec.geometry import make_star, pair_chords, sharp_configuration

FOUR_PI = 4.0 * math.pi
EPS = np.finfo(float).eps


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


    def test_tiny_arm_length(self):
        # the node-edge distances of the default mesh's innermost panel are
        # about 1e-8 L: their squares leave the normal floats below 1e-151
        for L in (1e-100, 1e-150):
            assert build_mesh(L, 8, 12, 2.0).nodes[0] ** 2 >= np.finfo(float).tiny
        for L in (1e-152, 1e-160, 1e-300):
            with pytest.raises(BadParameters, match="too small"):
                build_mesh(L, 8, 12, 2.0)

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


def self_panel_oracle(mesh, p, kappa, targets):
    """Rows ``targets`` (node indices within panel p) of the self-panel
    block of K and dK by 40-digit tanh-sinh quadrature, against the Lagrange
    basis l_j on the stored nodes: entry j of row x is
    (int_a^b (e^{-kappa |x-t|} l_j(t) - l_j(x)) / |x-t| dt
    + l_j(x) ln(4 (x-a)(b-x))) / w_j, and its derivative in kappa is
    -int_a^b e^{-kappa |x-t|} l_j(t) dt / w_j.  Each integral runs over the
    distance from x, so no point of the rule rounds onto x."""
    q = mesh.order
    with mpmath.workdps(40):
        nodes = [mpmath.mpf(float(v)) for v in mesh.nodes[p * q : (p + 1) * q]]
        a, b = mpmath.mpf(float(mesh.edges[p])), mpmath.mpf(float(mesh.edges[p + 1]))
        k = mpmath.mpf(kappa)
        K, dK = np.empty((len(targets), q)), np.empty((len(targets), q))
        for r, m in enumerate(targets):
            x = nodes[m]
            for j in range(q):
                others = [v for i, v in enumerate(nodes) if i != j]
                scale = mpmath.fprod(nodes[j] - v for v in others)
                l = lambda t: mpmath.fprod(t - v for v in others) / scale
                lx = 1 if j == m else 0
                vK, vD = lx * mpmath.log(4 * (x - a) * (b - x)), 0
                for sign, reach in ((-1, x - a), (1, b - x)):
                    vK += mpmath.quad(lambda d: (mpmath.exp(-k * d) * l(x + sign * d) - lx) / d,
                                      [0, reach])
                    vD -= mpmath.quad(lambda d: mpmath.exp(-k * d) * l(x + sign * d), [0, reach])
                w = mesh.weights[p * q + j]
                K[r, j], dK[r, j] = float(vK / w), float(vD / w)
    return K, dK


class TestDiagBlock:
    @pytest.mark.parametrize("L, panels, order, kappa", [(5.0, 56, 12, 1.0), (1e6, 20, 9, 1e-6)])
    def test_self_panel_against_40_digit_integrals(self, L, panels, order, kappa):
        # the last panel, where a panel is narrowest against its distance
        # from 0: subrules formed at absolute coordinates put errors of
        # about ulp(L) / width into these rows (K 3.0e-12 and 7.4e-13, dK
        # 1.9e-10 and 6.7e-12 of the block's largest entry); formed
        # relative to the panel's start they are within 1e-15 and 1e-14
        mesh = build_mesh(L, panels, order, 2.0)
        p = panels - 1
        block = slice(p * order, panels * order)
        K, dK = BlockAssembler(mesh).kernel_matrix(kappa, derivative=True)
        K, dK = K[block, block], dK[block, block]
        targets = [0, 2, order - 1]
        K_ref, dK_ref = self_panel_oracle(mesh, p, kappa, targets)
        assert np.abs(K[targets] - K_ref).max() <= 1e-14 * np.abs(K).max()
        assert np.abs(dK[targets] - dK_ref).max() <= 1e-14 * np.abs(dK).max()

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
        # to the weight scaling, at any L; at 1e-25 the product of an
        # order-16 panel's node differences underflows
        shift = math.log(2.0) / (2.0 * math.pi)
        for L, order in ((1.0, 10), (1e-25, 16), (1e25, 16)):
            kappa = 1.7 / L
            mesh1 = build_mesh(L, 8, order, 2.0)
            mesh2 = build_mesh(2.0 * L, 8, order, 2.0)
            T1 = BlockAssembler(mesh1).weighted_block(kappa)
            T2 = BlockAssembler(mesh2).weighted_block(kappa / 2.0)
            diff = T2 - (T1 + shift * np.eye(mesh1.size))
            assert np.abs(diff).max() < 1e-13, L

    @pytest.mark.parametrize("c2", [8.0 / 3.0, 0.31, 1e-3])
    def test_pair_block_invariant_under_scaling(self, c2):
        # B_{kappa/2, 2L} = B_{kappa, L}: doubling the arms doubles the
        # weights and every kernel distance, and halves the kernel
        for L in (1.0, 1e-20, 1e20):
            kappa = 1.7 / L
            B1 = BlockAssembler(build_mesh(L, 8, 10, 2.0), c2).weighted_block(kappa)
            B2 = BlockAssembler(build_mesh(2.0 * L, 8, 10, 2.0), c2).weighted_block(kappa / 2.0)
            assert np.abs(B2 - B1).max() <= 1e-15 * np.abs(B1).max(), L


BATCH_MESHES = pytest.mark.parametrize(
    "L, panels, order, grading",
    [(0.01, 3, 5, 2.0), (1.0, 8, 12, 2.0), (3.0, 12, 8, 2.0), (1e6, 20, 9, 2.0),
     # deep grading: some points of the diagonal batch lie on zero-width
     # segments or at kernel distance 0
     (1.0, 24, 2, 16.0)],
    ids=["0.01-3-5", "1.0-8-12", "3.0-12-8", "1000000.0-20-9", "1.0-24-2-16.0"],
)


def piece_blocks(asm):
    """Every piece's (order, points) block of the batch, in ``_flat_idx``
    order: a shared layout's rows once per piece, then the pieces' own."""
    blocks = []
    for Wt, _, x_shape, _, _ in asm._products:
        if Wt.ndim == 2:
            blocks += [Wt.T] * x_shape[0]
        else:
            blocks += list(Wt.transpose(0, 2, 1))
    return blocks


def by_piece(asm):
    """_rho, _flat_idx and _base, one entry per piece, sorted by the piece's
    first entry of ``_flat_idx`` (its target and panel)."""
    q = asm.mesh.order
    points = np.cumsum([W.shape[1] for W in piece_blocks(asm)])[:-1]
    idx = asm._flat_idx.reshape(-1, q)
    perm = np.argsort(idx[:, 0])
    rho = np.split(asm._rho, points)
    return np.concatenate([rho[k] for k in perm]), idx[perm], asm._base.reshape(-1, q)[perm]


class TestCorrectionBatch:
    @pytest.mark.parametrize(
        "L, panels, order",
        [(0.01, 3, 5), (1.0, 8, 12), (3.0, 12, 8), (5.0, 56, 12), (1e6, 20, 9)],
    )
    def test_subrules_integrate_the_lagrange_basis(self, L, panels, order):
        # row (piece, j) of the batch holds W_ij / w_j, with W_ij the subrule
        # weight of point i times basis j; the subrule integrates the panel's
        # basis exactly, and the integral of basis j is the node weight w_j
        mesh = build_mesh(L, panels, order, 2.0)
        for c2 in (None, 8.0 / 3.0, 4.0, 1e-3):
            asm = BlockAssembler(mesh, c2)
            row_sums = asm._apply(np.ones(asm._rho.size))
            assert np.abs(row_sums - 1.0).max() <= 1e-9, c2

    @BATCH_MESHES
    def test_layout_counts_the_built_batch(self, L, panels, order, grading):
        # the parse-time count, from the layout alone, is the number of
        # values that the constructor stores for the batch: the prototypes'
        # rows and one distance per subrule point
        mesh = build_mesh(L, panels, order, grading)
        for c2 in (None, 8.0 / 3.0, 4.0, 1e-3, 1e-12):
            asm = BlockAssembler(mesh, c2)
            stored = sum(W.size for W in asm._batch) + asm._rho.size
            assert batch_entries(mesh, c2) == stored, c2

    @BATCH_MESHES
    def test_apply_matches_sparse_reference(self, L, panels, order, grading):
        # the prototype rows, expanded to one block per piece and placed
        # block-diagonally in a sparse matrix S (a piece's q rows against
        # its consecutive points), give the batch's product, with the dead
        # points' samples zeroed: S @ x sums each row in another order, so
        # they agree to rounding
        import scipy.sparse as sparse

        mesh = build_mesh(L, panels, order, grading)
        rng = np.random.default_rng(7)
        for c2 in (None, 8.0 / 3.0, 4.0, 1e-3, 1e-12):
            asm = BlockAssembler(mesh, c2)
            S = sparse.block_diag(piece_blocks(asm), format="csr")
            assert S.shape == (asm._base.size, asm._rho.size)
            for x in (np.exp(-4.68 * asm._rho) / asm._rho, rng.standard_normal(asm._rho.size)):
                live = x.copy()
                live[asm._dead] = 0.0
                ref = S @ live
                assert np.abs(asm._apply(x) - ref).max() <= 1e-14 * np.abs(ref).max(), c2

    def test_ladder_diagonal_batch_memory(self):
        # the 56-panel ladder rung's diagonal batch stores its 688
        # prototypes' rows once: the assembler retains 20.4 MiB (80.1 MiB
        # with a row per piece)
        mesh = build_mesh(5.0, 56, 12, 2.0)
        tracemalloc.start()
        try:
            asm = BlockAssembler(mesh)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert sum(W.shape[0] for W in asm._batch) == 688
        assert kept <= 25 * 2**20


#: (L, panels, order) at grading 2, against the diagonal block and chords
#: 8/3, 4, 1e-3 and 0.31 at kappa 0, 1e-4, 1, 37.5 and 594
GRID_MESHES = [(0.01, 3, 5), (1.0, 8, 12), (5.0, 3, 5), (3.0, 12, 8), (5.0, 40, 12),
               (5.0, 56, 12), (1e6, 20, 9), (1.0, 7, 3), (2.0, 9, 4)]


class TestPrototypes:
    @pytest.mark.parametrize("L, panels, order", GRID_MESHES)
    def test_copied_rows_match_per_piece_build(self, L, panels, order, monkeypatch):
        # each batch built from prototypes against the same builder with
        # every piece its own prototype.  Distances, scatter indices and
        # regularizer are every piece's own, so bitwise equal once both are
        # in one piece order (the builds order them differently).  A shared row
        # was computed against its prototype's panel nodes, which sit in
        # their panel as the copy's do up to the rounding of the stored
        # nodes: r = eps * x / width at worst over the panels, largest in
        # the end stack.  Measured: K moves by up to r (r = 4.5e-13 on the
        # 1e6 mesh, else below 6e-15 of max|K|) and dK by up to 18 r
        # (8e-11 of max|dK| on the 56-panel mesh)
        mesh = build_mesh(L, panels, order, 2.0)
        r = (np.finfo(float).eps * mesh.edges[1:] / np.diff(mesh.edges)).max()
        for c2 in (None, 8.0 / 3.0, 4.0, 1e-3, 0.31):
            copied = BlockAssembler(mesh, c2)
            with monkeypatch.context() as m:
                m.setattr(discretization, "batch_prototypes",
                          lambda mesh, panels, *_: np.arange(panels.size))
                own = BlockAssembler(mesh, c2)
            for name, a, b in zip(("_rho", "_flat_idx", "_base"), by_piece(copied), by_piece(own)):
                assert np.array_equal(a, b), (c2, name)
            for kappa in (0.0, 1e-4, 1.0, 37.5, 594.0):
                K, dK = copied.kernel_matrix(kappa, derivative=True)
                K0, dK0 = own.kernel_matrix(kappa, derivative=True)
                assert np.abs(K - K0).max() <= max(1e-14, 2.0 * r) * np.abs(K0).max(), (c2, kappa)
                assert np.abs(dK - dK0).max() <= 64.0 * r * np.abs(dK0).max(), (c2, kappa)

    @pytest.mark.parametrize("panels, order", [(24, 2), (24, 8)])
    def test_dead_points_add_nothing(self, panels, order):
        # at grading 16 and chord 1e-30 some subrules are 52 to 59 segments
        # deep, and their innermost fractions of the panel round together:
        # a point on such a segment of zero width keeps distance 1 and must
        # get weight 0.  The diagonal's subrules, at most 13 deep here, have
        # none
        mesh = build_mesh(1.0, panels, order, 16.0)
        assert not np.any(BlockAssembler(mesh)._rho == 1.0)
        asm = BlockAssembler(mesh, 1e-30)
        dead = asm._rho == 1.0
        assert dead.any()
        assert np.all(asm._apply(dead.astype(float)) == 0.0)

    @pytest.mark.parametrize("panels, count", [(40, 496), (48, 592), (56, 688)])
    def test_prototype_counts(self, panels, count):
        # the ladder rungs' batches.  Diagonal: one prototype per self piece
        # (panels * order) and 16 for the 6,060 to 10,356 pieces off their
        # targets' panels.  Pairs: every piece is split at a panel edge at
        # chord 8/3 (6 layouts for 628 to 868 pieces), most are at chords
        # 0.31 and 1e-3 (4,813 to 9,457 pieces).  A key that stops merging
        # copies fails here
        mesh = build_mesh(5.0, panels, 12, 2.0)
        pairs = {40: (6, 197, 396), 48: (6, 233, 480), 56: (6, 257, 564)}[panels]
        counts = {None: count, **dict(zip((8.0 / 3.0, 0.31, 1e-3), pairs))}
        for c2, n in counts.items():
            _, pieces, split, depth, _ = correction_layout(mesh, c2)
            proto = batch_prototypes(mesh, pieces, split, depth)
            assert np.unique(proto).size == n, c2
            # a prototype comes first among its copies and shares their layout
            assert np.all(proto <= np.arange(proto.size))
            assert np.array_equal(depth[proto], depth)
            edge = (split == mesh.edges[pieces]) | (split == mesh.edges[pieces + 1])
            copy = proto < np.arange(proto.size)
            assert np.all(edge[copy])
            assert np.array_equal(split[proto] > mesh.edges[pieces[proto]],
                                  split > mesh.edges[pieces])


def chord_sets(mesh):
    """The chords 8/3, 4, 1e-3 and 0.31, and on meshes of at most 300 nodes
    (the joint batch of 66 chords on 672 nodes stores 238 MB of dense
    distances) a perturbed icosahedron's 66."""
    yield np.array([8.0 / 3.0, 4.0, 1e-3, 0.31])
    if mesh.size <= 300:
        yield perturbed_icosahedron_chords()


def perturbed_icosahedron_chords():
    """The 66 distinct squared chords of a perturbed icosahedron."""
    rng = np.random.default_rng(3)
    dirs = sharp_configuration(12) + 0.05 * rng.standard_normal((12, 3))
    chords, _ = chord_groups(dirs / np.linalg.norm(dirs, axis=1)[:, None])
    assert chords.size == 66
    return chords


class TestJointBatch:
    """One correction batch for all pair chords of a star: the layouts of
    every chord, concatenated, with a layout split at a panel edge shared
    across chords."""

    @pytest.mark.parametrize("L, panels, order", GRID_MESHES)
    def test_stack_matches_per_chord_builds(self, L, panels, order):
        # a layout that is one piece in its chord's batch can be shared in
        # the joint batch, where a matrix product replaces the batched one
        # and rows come from another panel's prototype: the bounds of
        # TestPrototypes (measured over this grid: K within 6.2e-16 of
        # max|K|, dK within 2.6e-14 of max|dK|)
        mesh = build_mesh(L, panels, order, 2.0)
        r = (np.finfo(float).eps * mesh.edges[1:] / np.diff(mesh.edges)).max()
        for chords in chord_sets(mesh):
            joint = BlockAssembler(mesh, chords)
            own = [BlockAssembler(mesh, c) for c in chords.tolist()]
            for kappa in (0.0, 1e-4, 1.0, 37.5, 594.0):
                K, dK = joint.kernel_matrix(kappa, derivative=True)
                assert K.shape == dK.shape == (chords.size, mesh.size, mesh.size)
                for k, asm in enumerate(own):
                    K0, dK0 = asm.kernel_matrix(kappa, derivative=True)
                    assert np.abs(K[k] - K0).max() <= max(1e-14, 2.0 * r) * np.abs(K0).max()
                    assert np.abs(dK[k] - dK0).max() <= 64.0 * r * np.abs(dK0).max()
            blocks, dK_lazy = joint.kernel_blocks(1.0, derivative=True)
            assert np.array_equal(np.array(list(blocks)), joint.kernel_matrix(1.0))
            assert np.array_equal(dK_lazy, joint.kernel_matrix(1.0, derivative=True)[1])

    def test_scalar_chord_is_a_stack_of_one(self):
        mesh = build_mesh(1.0, 8, 12, 2.0)
        for kappa in (0.0, 1.0, 37.5):
            K, dK = BlockAssembler(mesh, 0.31).kernel_matrix(kappa, derivative=True)
            Ks, dKs = BlockAssembler(mesh, [0.31]).kernel_matrix(kappa, derivative=True)
            assert np.array_equal(Ks, K[None]) and np.array_equal(dKs, dK[None])

    @pytest.mark.parametrize("panels, order", [(24, 2), (24, 8)])
    def test_dead_points_stay_per_piece(self, panels, order):
        # chord 1e-30 has points on zero-width segments (TestPrototypes);
        # chord 4.0 shares some of its layouts and has none, so a copy of
        # a shared layout keeps its own dead points
        mesh = build_mesh(1.0, panels, order, 16.0)
        joint = BlockAssembler(mesh, [1e-30, 4.0])
        single = [BlockAssembler(mesh, c) for c in (1e-30, 4.0)]
        dead = joint._rho == 1.0
        assert dead.sum() == sum(np.count_nonzero(asm._rho == 1.0) for asm in single) > 0
        assert np.all(joint._apply(dead.astype(float)) == 0.0)
        r = (np.finfo(float).eps * mesh.edges[1:] / np.diff(mesh.edges)).max()
        for kappa in (0.0, 1.0, 37.5):
            K, dK = joint.kernel_matrix(kappa, derivative=True)
            for k, asm in enumerate(single):
                K0, dK0 = asm.kernel_matrix(kappa, derivative=True)
                assert np.abs(K[k] - K0).max() <= max(1e-14, 2.0 * r) * np.abs(K0).max()
                assert np.abs(dK[k] - dK0).max() <= 64.0 * r * np.abs(dK0).max()

    @pytest.mark.parametrize("L, panels, order", [(0.01, 3, 5), (1.0, 8, 12), (3.0, 12, 8),
                                                  (5.0, 56, 12), (1e6, 20, 9)])
    def test_rows_and_entries(self, L, panels, order):
        # the joint batch stores no more prototype rows than the per-chord
        # batches together, and fewer where chords share a layout; its
        # parse-time count is the entries it stores, summed chord by chord
        mesh = build_mesh(L, panels, order, 2.0)
        for chords in chord_sets(mesh):
            joint = BlockAssembler(mesh, chords)
            rows = sum(W.shape[0] for W in joint._batch)
            assert rows < sum(sum(W.shape[0] for W in BlockAssembler(mesh, c)._batch)
                              for c in chords.tolist())
            stored = sum(W.size for W in joint._batch) + joint._rho.size
            assert batch_entries(mesh, chords) == stored
            assert batch_entries(mesh, chords) < sum(batch_entries(mesh, c) for c in chords)
            # each partial sum counts the batch of the chords so far
            partial = np.cumsum(list(chord_entries(mesh, chords)))
            for k in (1, 2, chords.size // 2):
                assert partial[k - 1] == batch_entries(mesh, chords[:k])

    def test_star_without_pairs(self):
        # one arm: an empty pair batch, and the full matrix is the diagonal
        mesh = build_mesh(1.0, 4, 4, 2.0)
        asm = StarAssembler(make_star([(0, 0, 1)], 1.0, 0.0), mesh)
        assert asm.offdiag.kernel_matrix(1.0).shape == (0, mesh.size, mesh.size)
        assert batch_entries(mesh, []) == 0
        assert np.array_equal(asm.matrix(1.0), asm.diag.weighted_block(1.0))


def two_arms(angle):
    return np.array([[0.0, 0.0, 1.0], [math.sin(angle), 0.0, math.cos(angle)]])


class TestChordGroups:
    @pytest.mark.parametrize("angle", [1e-7, 7e-7, 1.3e-6, 0.3, 1.0, math.pi])
    def test_two_arms_keep_their_chord(self, angle):
        chords, _ = chord_groups(two_arms(angle))
        exact = 4.0 * math.sin(angle / 2) ** 2
        assert chords.size == 1 and chords[0] > 0.0
        assert abs(chords[0] - exact) <= 1e-12 * exact

    def test_keys_keep_thirteen_digits_down_to_1e_8(self):
        # 2 - 2 <d_i, d_j> keeps no digit at 1e-8 rad; the key, rounded to
        # 13 significant digits, is off by at most half a unit of the last
        for angle in np.geomspace(1e-8, math.pi, 60):
            chords, _ = chord_groups(two_arms(angle))
            exact = 4.0 * math.sin(angle / 2) ** 2
            assert abs(chords[0] - exact) <= 5.01e-13 * exact, angle

    def test_sharp_configurations_share_chords(self):
        for n, distinct in ((3, 1), (4, 1), (6, 2), (12, 3)):
            dirs = sharp_configuration(n)
            chords, (I, J, group) = chord_groups(dirs)
            assert chords.size == distinct
            for exact, g in zip(pair_chords(dirs), group):
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
        T = asm.diag.weighted_block(0.7)
        pair_blocks = list(asm.offdiag.weighted_block(0.7))
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


def symmetrized(K, weights):
    """D^{1/2} K D^{1/2} / (4 pi) averaged with its transpose: one block
    weighed on its own."""
    sw = np.sqrt(weights)
    B = sw[:, None] * K * sw[None, :] / FOUR_PI
    return 0.5 * (B + B.T)


def row_sum_norm(A):
    return np.abs(A).sum(axis=1).max()


#: (directions, L, panels, order): the tetrahedron of the ladder's top rung,
#: a two-arm star (the sector T + B) and an irregular 3-arm star (the full
#: matrix)
RAW_STARS = {
    "tetrahedron": (sharp_configuration(4), 5.0, 56, 12),
    "two-arm": ([(0, 0, 1), (1, 0, 0)], 4.0, 6, 8),
    "irregular-3": ([(0, 0, 1), (1, 0, 0), (0.6, 0.8, 0)], 3.0, 8, 8),
}


class TestRawBlocks:
    """Blocks stay raw kernel matrices until the matrix that is solved,
    which is weighed and symmetrized once; its slopes come from the raw
    derivative blocks."""

    @pytest.mark.parametrize("name", sorted(RAW_STARS))
    def test_pieces_match_per_block_symmetrization(self, name):
        # each block, and each derivative block, weighed and symmetrized on
        # its own before the sector or the full matrix is summed
        dirs, L, panels, order = RAW_STARS[name]
        cfg = make_star(dirs, L, 0.0)
        asm = StarAssembler(cfg, build_mesh(L, panels, order, 2.0))
        kappa, w, N = 4.68, asm.diag.mesh.weights, cfg.n_arms
        raw = [asm.diag.kernel_matrix(kappa, derivative=True),
               *zip(*asm.offdiag.kernel_matrix(kappa, derivative=True))]
        T, *B = [symmetrized(K, w) for K, _ in raw]
        dT, *dB = [symmetrized(dK, w) for _, dK in raw]
        if asm.group_counts is None:
            A_ref, dA_ref = star_matrix(N, T, B, *asm._pairs), star_matrix(N, dT, dB, *asm._pairs)
        else:
            n = asm.group_counts.tolist()
            A_ref = T + sum(k * b for k, b in zip(n, B))
            dA_ref = dT + sum(k * b for k, b in zip(n, dB))
        A, form, copies = asm.pieces(kappa, 1)
        assert copies == (1 if asm.group_counts is None else N)
        assert np.array_equal(A, A.T)
        assert np.abs(A - A_ref).max() <= 4 * EPS * row_sum_norm(A_ref)
        top = sla.eigh(A, subset_by_index=[A.shape[0] - 1] * 2)[1][:, 0]
        u = np.random.default_rng(0).standard_normal(A.shape[0])
        for v in (top, u / np.linalg.norm(u)):
            assert abs(form(v) - v @ dA_ref @ v) <= 4 * EPS * row_sum_norm(dA_ref)

    @pytest.mark.parametrize("N", [1, 2, 3, 5])
    def test_raw_form_equals_dense_symmetrized_form(self, N):
        # unsymmetric raw blocks and uneven weights: the form of the raw
        # derivative blocks is v^T A' v for the matrix of their weighed,
        # symmetrized blocks
        rng = np.random.default_rng(N)
        M = 7
        w = rng.uniform(0.1, 2.0, M)
        dT = rng.standard_normal((M, M))
        I, J = np.triu_indices(N, k=1)
        G = max(1, I.size // 2)
        group = rng.integers(G, size=I.size)
        d_pair_blocks = rng.standard_normal((G, M, M))
        A = star_matrix(N, symmetrized(dT.copy(), w),
                        [symmetrized(b, w) for b in d_pair_blocks], I, J, group)
        form = star_form(w, dT, d_pair_blocks, I, J, group)
        for _ in range(3):
            v = rng.standard_normal(N * M)
            assert form(v) == pytest.approx(v @ A @ v, rel=1e-13, abs=1e-13 * row_sum_norm(A))
        if N == 1:
            v = rng.standard_normal(M)
            assert star_form(w, dT)(v) == form(v)

    def test_ladder_rung_memory(self):
        # the tetrahedron's 56 x 12 rung: the assembler keeps no fold per
        # block (21.0 MiB retained, 27.9 with one), and one evaluation of its
        # sector adds the raw blocks in place and weighs the sum once (peak
        # 35.3 MiB, 52.0 with every block and derivative weighed on its own)
        mesh = build_mesh(5.0, 56, 12, 2.0)
        cfg = make_star(sharp_configuration(4), 5.0, 0.0)
        tracemalloc.start()
        try:
            asm = StarAssembler(cfg, mesh)
            kept = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            asm.pieces(4.68, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert kept <= 23 * 2**20
        assert peak <= 42 * 2**20
