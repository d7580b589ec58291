"""Quadrature meshes on [0, L] and assembly of the Birman-Schwinger matrix.

The arm mesh is a composite Gauss-Legendre mesh in three sections: a
geometric stack graded toward the vertex at 0 (resolves the 1/max(s,t)
kernel growth and the vertex behavior of eigenvectors), a uniform interior
section (appears once both stacks are deep, so extended states keep
converging), and a geometric stack graded toward the free end at L
(resolves the logarithmic endpoint layer of eigenvectors).

Assembly is a corrected Nystrom scheme: matrix entries are plain weighted
kernel samples wherever the kernel is smooth on the source panel, and
per-target product-integration weights (the kernel integrated against the
panel's Lagrange basis with a refined subrule) wherever the target is on or
near the panel.  On the self panel of the regularized diagonal kernel the
logarithmic singularity is removed exactly:

    (4 pi T f)(x) = sum_{panels not containing x} int K(x,t) f(t) dt
                  + int_self (K(x,t) f(t) - f(x)/|x-t|) dt
                  + f(x) ln(4 (x-a)(b-x)),

with [a, b] the panel containing x.  Every block is symmetrized; the
asymmetry removed this way is the difference between row-based and
column-based product integration.

Which panels are corrected, and how deeply their subrules are refined,
depends on the geometry only (closest approach against panel width), never
on kappa.  So each block builds its correction rules once, as one batch:
one vector of kernel distances and one sparse matrix mapping kernel samples
to corrected entries.  Every piece of the batch (one target node against
one panel, near or self) has the same shape, two geometric half-stacks
meeting at a split point, so one array pass per subrule depth builds all
pieces of that depth, in chunks of bounded size.  At each kappa the block
costs one exp over the dense distances and one over the batch's distances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sparse

from .errors import BadParameters
from .geometry import StarConfig, chord_sq as _chord_sq

FOUR_PI = 4.0 * math.pi

#: panels are corrected when the kernel's closest approach is below
#: NEAR_RATIO times the panel width
NEAR_RATIO = 1.0
#: layout decisions count ratios within this relative distance of a
#: threshold as on it, so that a mesh and its scaled copy, which differ by
#: rounding, get one layout (odd orders put nodes at panel midpoints, where
#: the ratios of a grading-2 mesh hit the thresholds exactly)
_TIE_TOL = 1e-14

_SUB_ORDER = 16
_MAX_SEG = 60
#: the builder's transient arrays hold at most about this many values
_CHUNK = 2**18


@lru_cache(maxsize=64)
def _leggauss(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


@dataclass(frozen=True)
class Mesh:
    """Composite Gauss-Legendre mesh on [0, L].

    ``panels * order`` nodes, all interior; weights sum to L.  ``edges``
    holds the panel boundaries (length panels+1, starting at 0, ending at L).
    """

    nodes: np.ndarray
    weights: np.ndarray
    edges: np.ndarray
    panels: int
    order: int
    grading: float

    @property
    def size(self) -> int:
        return self.nodes.size

    @property
    def length(self) -> float:
        return float(self.edges[-1])

    def metadata(self) -> dict:
        return {
            "panels": self.panels,
            "order": self.order,
            "grading": self.grading,
            "nodes": self.size,
            "arm_length": self.length,
        }


def _panel_widths(L: float, panels: int, grading: float) -> np.ndarray:
    """Vertex stack + uniform interior + end stack, widths matched at joints.

    The vertex stack resolves the kernel vertex and vertex-localized
    eigenvectors; the end stack resolves the endpoint layer; once both are
    deep, extra budget goes to uniform interior panels so extended states
    keep converging too.
    """
    g = float(grading)
    p_end = min(panels // 2, 12)
    raw = panels - p_end
    p_vertex = min(raw, 16 + raw // 2)
    p_mid = raw - p_vertex
    if g == 1.0 or panels == 1:
        return np.full(panels, L / panels)
    s_v = (g**p_vertex - 1.0) / (g - 1.0)
    if p_end == 0:
        return (L / s_v) * g ** np.arange(p_vertex)
    s_e = (g**p_end - 1.0) / (g - 1.0)
    # largest panels of both stacks and all interior panels share one width
    w_v = L / (s_v + g ** (p_vertex - p_end) * s_e + p_mid * g ** (p_vertex - 1))
    w_e = w_v * g ** (p_vertex - p_end)
    w_mid = w_v * g ** (p_vertex - 1)
    return np.concatenate(
        [
            w_v * g ** np.arange(p_vertex),
            np.full(p_mid, w_mid),
            w_e * g ** np.arange(p_end)[::-1],
        ]
    )


def build_mesh(L: float, panels: int, order: int, grading: float) -> Mesh:
    """Build the composite quadrature mesh for one arm of length L."""
    if not (np.isfinite(L) and L > 0):
        raise BadParameters(f"arm length must be positive, got {L}")
    if not np.isfinite(4.0 * L * L):
        # (s + t)^2 for antipodal arms reaches 4 L^2
        raise BadParameters(f"arm length {L} is too large: squared distances overflow")
    if panels < 2 or order < 2:
        raise BadParameters(f"need panels >= 2 and order >= 2, got {panels}, {order}")
    if not (np.isfinite(grading) and grading >= 1.0):
        raise BadParameters(f"grading ratio must be >= 1, got {grading}")
    try:
        widths = _panel_widths(L, panels, float(grading))
    except OverflowError:
        raise BadParameters(f"grading ratio {grading} overflows the panel widths") from None
    edges = np.concatenate([[0.0], np.cumsum(widths)])
    edges[-1] = L
    x, w = _leggauss(order)
    nodes = np.empty(panels * order)
    weights = np.empty(panels * order)
    for p in range(panels):
        h = 0.5 * (edges[p + 1] - edges[p])
        nodes[p * order : (p + 1) * order] = edges[p] + h * (x + 1.0)
        weights[p * order : (p + 1) * order] = h * w
    if np.any(np.diff(nodes) <= 0.0):
        raise BadParameters(
            "mesh grading too deep for float resolution (duplicate nodes)"
        )
    return Mesh(
        nodes=nodes,
        weights=weights,
        edges=edges,
        panels=panels,
        order=order,
        grading=float(grading),
    )


def _bary_weights(panel_nodes: np.ndarray) -> np.ndarray:
    """Barycentric weights of the nodes of every panel (rows: panels)."""
    q = panel_nodes.shape[1]
    d = panel_nodes[:, :, None] - panel_nodes[:, None, :]
    d[:, range(q), range(q)] = 1.0
    return 1.0 / d.prod(axis=2)


@lru_cache(maxsize=_MAX_SEG)
def _stack_fractions(n_seg: int) -> np.ndarray:
    """Segment edges of a geometric stack, as fractions of its width; the
    widths halve toward the upper end in row 0, toward the lower in row 1."""
    r = 2.0 ** -np.arange(n_seg)
    r /= r.sum()
    frac = np.zeros((2, n_seg + 1))
    frac[:, 1:] = np.cumsum([r, r[::-1]], axis=1)
    frac[:, -1] = 1.0
    return frac


def _rho(x, t, c: float):
    """Kernel distance between points x and t on two arms of squared chord
    c (0 on one arm)."""
    return np.sqrt((x - t) ** 2 + x * t * c)


def correction_layout(mesh: Mesh, chord_sq: float | None):
    """The corrected pieces of one block (``BlockAssembler``), from the mesh
    and the chord alone: a piece is a (target node, panel) pair whose
    closest kernel approach is below NEAR_RATIO times the panel width.
    Returns, per piece: target, panel, the closest point on the panel
    (where its subrule's two half-stacks meet), subrule depth and whether
    it is a self piece of the diagonal block."""
    c = 0.0 if chord_sq is None else chord_sq
    q, P = mesh.order, mesh.panels
    s, edges = mesh.nodes, mesh.edges
    # closest kernel approach of every (target, panel) pair
    t_hat = np.clip(s[:, None] * (1.0 - 0.5 * c), edges[:-1], edges[1:])
    rho_min = _rho(s[:, None], t_hat, c)
    widths = np.diff(edges)
    owner = np.repeat(np.arange(P), q)
    near = rho_min < NEAR_RATIO * widths * (1.0 - _TIE_TOL)
    targets, panels = np.nonzero(near)
    # subrule depth: 3 segments, plus one per halving from the panel
    # width down to the closest approach; the self pieces of the
    # diagonal block (closest approach 0) take 3 on either side
    with np.errstate(divide="ignore"):
        ratio = widths[panels] / rho_min[targets, panels]
    depth = np.minimum(3 + np.ceil(np.log2(ratio) - _TIE_TOL), _MAX_SEG).astype(int)
    is_self = (panels == owner[targets]) & (chord_sq is None)
    depth[is_self] = 3
    return targets, panels, t_hat[targets, panels], depth, is_self


def _half_stacks(mesh: Mesh, panels, split):
    """Lower and upper ends of the two half-stacks of each piece, [panel
    start, split] and [split, panel end], as two (pieces, 2) arrays."""
    a = np.stack([mesh.edges[panels], split], axis=1)
    b = np.stack([split, mesh.edges[panels + 1]], axis=1)
    return a, b


def batch_entries(mesh: Mesh, chord_sq: float | None) -> int:
    """Entries of the sparse correction batch of one block, at most: order
    times ``_SUB_ORDER`` times the segments of every piece's present
    half-stacks (``correction_layout``).  Nothing of the batch is built."""
    _, panels, split, depth, _ = correction_layout(mesh, chord_sq)
    a, b = _half_stacks(mesh, panels, split)
    return mesh.order * _SUB_ORDER * int(((a < b).sum(axis=1) * depth).sum())


class BlockAssembler:
    """Assembles one M x M block of the Birman-Schwinger matrix at any kappa.

    ``chord_sq=None`` selects the regularized diagonal kernel; a positive
    value selects the arm-pair kernel with that squared chord.  The diagonal
    kernel is the pair kernel at chord 0, except on the self panel, where
    the regularizer replaces it.  The near-field corrections depend on the
    mesh and the chord only, so they are built here, once.
    """

    def __init__(self, mesh: Mesh, chord_sq: float | None = None):
        if chord_sq is not None and not chord_sq > 0.0:
            raise BadParameters(f"squared chord must be positive, got {chord_sq}")
        self.mesh = mesh
        self.chord_sq = chord_sq
        self._c = 0.0 if chord_sq is None else chord_sq
        q, M = mesh.order, mesh.size
        s, w, edges = mesh.nodes, mesh.weights, mesh.edges
        D = _rho(s[:, None], s[None, :], self._c)
        if chord_sq is None:
            np.fill_diagonal(D, 1.0)  # self-panel entries come from the batch
        self._dist = D
        sw = np.sqrt(w)
        self._fold = sw[:, None] * sw[None, :]

        targets, panels, split, depth, is_self = correction_layout(mesh, chord_sq)
        order, self._rho, data, indices, sizes, w_over_rho = self._subrules(
            targets, panels, split, depth
        )
        targets, panels, is_self = targets[order], panels[order], is_self[order]
        # self panel: sum_j W_j f(t_j)/|x-t_j| integrates the kernel;
        # f(x) (ln(4 (x-a)(b-x)) - sum_j W_j/|x-t_j|) is the regularizer
        base = np.zeros((order.size, q))
        m, p = targets[is_self], panels[is_self]
        log_term = np.log(4.0 * (s[m] - edges[p]) * (edges[p + 1] - s[m]))
        base[is_self, m % q] = (log_term - w_over_rho[is_self]) / w[m]

        # one sparse batch: S maps the kernel samples at the subrule
        # distances rho to the corrected entries flat_idx, base adds the
        # regularizer.  S is block diagonal, one q x (subrule size) block
        # per piece, written straight in CSR form.
        cols = panels[:, None] * q + np.arange(q)
        row_len = np.repeat(sizes, q)
        indptr = np.zeros(row_len.size + 1, dtype=indices.dtype)
        np.cumsum(row_len, dtype=indices.dtype, out=indptr[1:])
        self._S = sparse.csr_matrix(
            (data, indices, indptr), shape=(row_len.size, self._rho.size)
        )
        self._flat_idx = (targets[:, None] * M + cols).ravel()
        self._base = base.ravel()

    def _subrules(self, targets, panels, split, depth):
        """Subrules of all pieces, one array pass per (depth, halves) group.

        Piece k integrates the Lagrange basis of panel panels[k] for target
        node targets[k], with two geometric half-stacks of depth[k] segments
        on [lo, t] and [t, hi], halving toward t = split[k] (in the panel); a
        half of zero width is left out.  Returns the piece order and, in that
        order: the subrule points' kernel distances rho, the CSR data and
        column indices of S (per piece and basis function j: subrule weights
        times basis j over node weight j, in the columns of the piece's
        points), the subrule sizes and each piece's sum of weight / rho.

        Each chunk writes straight into arrays sized for every subrule point,
        so the batch is held once; the points of zero-width segments and at
        kernel distance 0 are left out, and the arrays' unused tails with them.
        """
        mesh = self.mesh
        q = mesh.order
        panel_nodes = mesh.nodes.reshape(-1, q)
        bw = _bary_weights(panel_nodes)
        node_w = mesh.weights.reshape(-1, q)
        x_gl, w_gl = _leggauss(_SUB_ORDER)
        a, b = _half_stacks(mesh, panels, split)
        present = a < b
        halves = present.sum(axis=1)
        bound = int((halves * depth).sum()) * _SUB_ORDER
        idx_type = np.int32 if q * bound < 2**31 else np.int64
        rho_all = np.empty(bound)
        data = np.empty(q * bound)
        indices = np.empty(q * bound, dtype=idx_type)
        order = np.empty(targets.size, dtype=int)
        sizes = np.empty(targets.size, dtype=int)
        w_over_rho = np.empty(targets.size)
        pieces = points = 0  # written so far
        for d, k in sorted(set(zip(depth.tolist(), halves.tolist()))):
            frac = _stack_fractions(d)
            group = np.nonzero((depth == d) & (halves == k))[0]
            step = max(1, _CHUNK // (k * d * _SUB_ORDER * q))
            for i in range(0, group.size, step):
                idx = group[i : i + step]
                n = idx.size
                keep = present[idx]
                lo = a[idx][keep].reshape(n, k, 1)
                hi = b[idx][keep].reshape(n, k, 1)
                f = frac[np.nonzero(keep)[1]].reshape(n, k, d + 1)
                edges = lo * (1.0 - f) + hi * f
                seg = np.diff(edges, axis=2)
                h = 0.5 * seg
                mid = edges[:, :, :-1] + h
                t = (mid[..., None] + h[..., None] * x_gl).reshape(n, -1)
                w_sub = (h[..., None] * w_gl).reshape(n, -1)
                rho = _rho(mesh.nodes[targets[idx], None], t, self._c)
                live = np.repeat(seg.reshape(n, -1) > 0.0, _SUB_ORDER, axis=1) & (rho > 0.0)
                # Lagrange basis of the piece's panel at its subrule points
                p = panels[idx]
                diff = t[:, :, None] - panel_nodes[p, None, :]
                hit = diff == 0.0
                diff[hit] = 1.0
                terms = bw[p, None, :] / diff
                basis = terms / terms.sum(axis=2, keepdims=True)
                on_node = hit.any(axis=2)
                if on_node.any():
                    basis[on_node] = hit[on_node]
                vals = (w_sub[:, :, None] * basis / node_w[p, None, :]).transpose(0, 2, 1)
                # a live point's column: the live points written before it
                m = live.sum(axis=1)
                col = np.cumsum(live, axis=1) + (points - 1 + np.cumsum(m) - m)[:, None]
                rows = np.broadcast_to(live[:, None, :], vals.shape)
                r = int(m.sum())
                rho_all[points : points + r] = rho[live]
                data[q * points : q * (points + r)] = vals[rows]
                indices[q * points : q * (points + r)] = np.broadcast_to(
                    col[:, None, :], vals.shape
                )[rows]
                order[pieces : pieces + n] = idx
                sizes[pieces : pieces + n] = m
                w_over_rho[pieces : pieces + n] = np.divide(
                    w_sub, rho, out=np.zeros_like(rho), where=live
                ).sum(axis=1)
                pieces += n
                points += r
        return (order, rho_all[:points], data[: q * points], indices[: q * points],
                sizes, w_over_rho)

    # -- assembly ---------------------------------------------------------------

    def kernel_matrix(self, kappa: float, derivative: bool = False):
        """Corrected kernel sample matrix (without weight folding or 1/4pi);
        with ``derivative``, also its derivative in kappa, from the same
        exponentials: d/dkappa e^{-kappa r}/r = -e^{-kappa r}, so -e^{-kappa D}
        on the dense part and S (-e^{-kappa rho}) on the batch (the
        regularizer is kappa-free)."""
        K = np.exp(-kappa * self._dist)
        dK = -K if derivative else None
        K /= self._dist
        e = np.exp(-kappa * self._rho)
        K.flat[self._flat_idx] = self._S @ (e / self._rho) + self._base
        if not derivative:
            return K
        dK.flat[self._flat_idx] = self._S @ np.negative(e, out=e)
        return K, dK

    def weighted_block(self, kappa: float, derivative: bool = False):
        """Symmetric weighted block D^{1/2} K D^{1/2} / (4 pi); with
        ``derivative``, also its derivative in kappa (``kernel_matrix``)."""
        if not derivative:
            return self._weigh(self.kernel_matrix(kappa))
        K, dK = self.kernel_matrix(kappa, derivative=True)
        return self._weigh(K), self._weigh(dK)

    def _weigh(self, K: np.ndarray) -> np.ndarray:
        B = self._fold * K / FOUR_PI
        return 0.5 * (B + B.T)


def chord_groups(directions: np.ndarray):
    """Distinct squared chords of a star's arm pairs, rounded to 13
    significant digits (pairs with one key share a block), and the pairs as
    (I, J, group): pair k joins arms I[k] < J[k] and has chord
    ``chords[group[k]]``.  Rounding to significant digits, not decimals,
    keeps the chord of near-coincident arms positive."""
    I, J = np.triu_indices(directions.shape[0], k=1)
    keys = [float(f"{_chord_sq(directions[i], directions[j]):.12e}") for i, j in zip(I, J)]
    chords, group = np.unique(keys, return_inverse=True)
    return chords, (I, J, group)


def star_matrix(N: int, T: np.ndarray, pair_blocks, I, J, group) -> np.ndarray:
    """The N*M x N*M matrix with T on every diagonal block and, for pair k,
    block group[k] of ``pair_blocks`` at block (I[k], J[k]) and its
    transpose at (J[k], I[k]).  The blocks are read once, in group order,
    so an iterable that makes them one at a time holds one at a time."""
    M = T.shape[0]
    A = np.empty((N * M, N * M))
    for i in range(N):
        A[i * M : (i + 1) * M, i * M : (i + 1) * M] = T
    for g, B in enumerate(pair_blocks):
        for k in np.nonzero(group == g)[0].tolist():
            i, j = int(I[k]), int(J[k])
            A[i * M : (i + 1) * M, j * M : (j + 1) * M] = B
            A[j * M : (j + 1) * M, i * M : (i + 1) * M] = B.T
    return A


def star_form(N: int, T: np.ndarray, pair_blocks, I, J, group):
    """The quadratic form v -> v^T A v of ``star_matrix(N, T, pair_blocks,
    I, J, group)``, summed block by block: the diagonal blocks give
    sum_i v_i^T T v_i, pair k gives 2 v_I^T B v_J.  A is never formed."""
    members = [np.nonzero(group == g)[0] for g in range(len(pair_blocks))]

    def form(v: np.ndarray) -> float:
        V = v.reshape(N, -1)
        total = np.sum((V @ T) * V)
        for B, k in zip(pair_blocks, members):
            total += 2.0 * np.sum((V[I[k]] @ B) * V[J[k]])
        return float(total)

    return form


class StarAssembler:
    """Cached-geometry assembler for the full N-arm matrix at any kappa.

    The diagonal block is shared by all arms; off-diagonal blocks are shared
    across arm pairs with the same squared chord (``chord_groups``).

    ``group_counts[g]`` is n_g, the number of pairs of chord group g that
    contain one arm, when that number is the same for every arm (the star
    is arm-regular), and None otherwise.  Every block is symmetric, so for
    an arm-regular star the arm-symmetric vectors (u, ..., u) span an
    invariant subspace of ``matrix(kappa)``, on which it acts as the
    M x M matrix ``T + sum_g n_g B_g`` (``sector_matrices``).
    """

    def __init__(self, config: StarConfig, mesh: Mesh):
        if abs(mesh.length - config.arm_length) > 1e-12 * max(1.0, config.arm_length):
            raise BadParameters(
                f"mesh covers [0, {mesh.length}] but arms have length "
                f"{config.arm_length}"
            )
        self.config = config
        self.diag = BlockAssembler(mesh, chord_sq=None)
        chords, self._pairs = chord_groups(config.directions)
        self._offdiag = [BlockAssembler(mesh, chord_sq=c) for c in chords.tolist()]
        I, J, group = self._pairs
        counts = np.zeros((config.n_arms, chords.size), dtype=int)
        np.add.at(counts, (I, group), 1)
        np.add.at(counts, (J, group), 1)
        self.group_counts = counts[0] if np.all(counts == counts[0]) else None

    def _blocks(self, kappa: float, derivative: bool = False):
        """(T, [B_g]); with ``derivative``, that pair and the same pair of
        the blocks' derivatives in kappa (``BlockAssembler.weighted_block``)."""
        blocks = [asm.weighted_block(kappa, derivative)
                  for asm in (self.diag, *self._offdiag)]
        if not derivative:
            return blocks[0], blocks[1:]
        values, slopes = zip(*blocks)
        return (values[0], list(values[1:])), (slopes[0], list(slopes[1:]))

    def matrix(self, kappa: float, blocks=None) -> np.ndarray:
        """The full matrix at kappa, filled from ``blocks``, (T, pair blocks
        in group order), if given (``sloped_matrix``)."""
        T, pair_blocks = self._blocks(kappa) if blocks is None else blocks
        return star_matrix(self.config.n_arms, T, pair_blocks, *self._pairs)

    def sloped_matrix(self, kappa: float):
        """``matrix(kappa)`` and the quadratic form v -> v^T (dA/dkappa) v of
        its derivative, summed over the derivative blocks (``star_form``).
        Each pair block is placed as soon as it is made, and the derivative
        blocks share one array, so they take about the memory that the pair
        blocks would have held."""
        T, dT = self.diag.weighted_block(kappa, derivative=True)
        d_pair_blocks = np.empty((len(self._offdiag),) + T.shape)

        def pair_blocks():
            for g, asm in enumerate(self._offdiag):
                B, d_pair_blocks[g] = asm.weighted_block(kappa, derivative=True)
                yield B

        A = self.matrix(kappa, (T, pair_blocks()))
        return A, star_form(self.config.n_arms, dT, d_pair_blocks, *self._pairs)

    def sector_matrices(self, kappa: float, derivative: bool = False):
        """For an arm-regular star, the M x M matrices of ``matrix(kappa)`` on
        its arm-symmetric vectors (u, ..., u), ``T + sum_g n_g B_g``, and for
        two arms also on the antisymmetric ones (u, -u), ``T - B``; the
        latter two sectors split the two-arm matrix exactly.  With
        ``derivative``, each comes paired with its derivative in kappa: the
        sectors are linear in the blocks, so the derivative blocks give it."""
        if not derivative:
            return self._sectors(*self._blocks(kappa))
        values, slopes = self._blocks(kappa, derivative=True)
        return tuple(zip(self._sectors(*values), self._sectors(*slopes)))

    def _sectors(self, T, pair_blocks):
        S = T.copy()
        for n, B in zip(self.group_counts.tolist(), pair_blocks):
            S += n * B
        if self.config.n_arms == 2:
            return S, T - pair_blocks[0]
        return (S,)
