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
to corrected entries.  At each kappa the block costs one exp over the dense
distances and one over the batch's distances.
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


def _bary_weights(nodes: np.ndarray) -> np.ndarray:
    d = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(d, 1.0)
    return 1.0 / d.prod(axis=1)


def _lagrange_matrix(panel_nodes: np.ndarray, bw: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Values of the panel's Lagrange basis at points t (rows: t, cols: basis)."""
    diff = t[:, None] - panel_nodes[None, :]
    hit = diff == 0.0
    diff = np.where(hit, 1.0, diff)
    terms = bw[None, :] / diff
    P = terms / terms.sum(axis=1)[:, None]
    rows = hit.any(axis=1)
    if rows.any():
        P[rows] = hit[rows].astype(float)
    return P


@lru_cache(maxsize=2 * _MAX_SEG)
def _stack_fractions(n_seg: int, toward_lo: bool) -> np.ndarray:
    r = 2.0 ** -np.arange(n_seg)
    r /= r.sum()
    widths = r[::-1] if toward_lo else r
    frac = np.concatenate([[0.0], np.cumsum(widths)])
    frac[-1] = 1.0
    return frac


def _geom_stack(lo: float, hi: float, toward_lo: bool, n_seg: int):
    """Composite GL rule on [lo, hi], segment widths halving toward one end."""
    frac = _stack_fractions(n_seg, toward_lo)
    edges = lo * (1.0 - frac) + hi * frac
    keep = np.diff(edges) > 0.0
    x, w = _leggauss(_SUB_ORDER)
    h = 0.5 * np.diff(edges)[keep]
    mid = edges[:-1][keep] + h
    ts = (mid[:, None] + h[:, None] * x[None, :]).ravel()
    ws = (h[:, None] * w[None, :]).ravel()
    return ts, ws


class BlockAssembler:
    """Assembles one M x M block of the Birman-Schwinger matrix at any kappa.

    ``chord_sq=None`` selects the regularized diagonal kernel; a positive
    value selects the arm-pair kernel with that squared chord.  The diagonal
    kernel is the pair kernel at chord 0, except on the self panel, where
    the regularizer replaces it.  The near-field corrections depend on the
    mesh and the chord only, so they are built here, once.
    """

    def __init__(self, mesh: Mesh, chord_sq: float | None = None):
        self.mesh = mesh
        self.chord_sq = chord_sq
        self._c = 0.0 if chord_sq is None else chord_sq
        q, P, M = mesh.order, mesh.panels, mesh.size
        s, w, edges = mesh.nodes, mesh.weights, mesh.edges
        self._pn = s.reshape(P, q)
        self._bw = [_bary_weights(nodes) for nodes in self._pn]
        D = self._rho_of(s[:, None], s[None, :])
        if chord_sq is None:
            np.fill_diagonal(D, 1.0)  # self-panel entries come from the batch
        self._dist = D
        sw = np.sqrt(w)
        self._fold = sw[:, None] * sw[None, :]

        # closest kernel approach of every (target, panel) pair
        t_hat = np.clip(s[:, None] * (1.0 - 0.5 * self._c), edges[:-1], edges[1:])
        rho_min = self._rho_of(s[:, None], t_hat)
        widths = np.diff(edges)
        owner = np.repeat(np.arange(P), q)
        near = rho_min < NEAR_RATIO * widths * (1.0 - _TIE_TOL)
        if chord_sq is None:
            near[np.arange(M), owner] = False
        targets, panels = np.nonzero(near)
        # subrule depth: 3 segments, plus one per halving from the panel
        # width down to the closest approach
        with np.errstate(divide="ignore"):
            ratio = widths[panels] / rho_min[targets, panels]
        depth = np.minimum(3 + np.ceil(np.log2(ratio) - _TIE_TOL), _MAX_SEG).astype(int)
        pieces = [
            self._piece(m, p, t_hat[m, p], d)
            for m, p, d in zip(targets.tolist(), panels.tolist(), depth.tolist())
        ]
        base = np.zeros((len(pieces), q))
        if chord_sq is None:
            # self panel: sum_j W_j f(t_j)/|x-t_j| integrates the kernel;
            # f(x) (ln(4 (x-a)(b-x)) - sum_j W_j/|x-t_j|) is the regularizer
            targets = np.concatenate([targets, np.arange(M)])
            panels = np.concatenate([panels, owner])
            regular = np.zeros((M, q))
            for m in range(M):
                rho, w_sub, W = self._piece(m, owner[m], s[m], 3)
                lo, hi = edges[owner[m]], edges[owner[m] + 1]
                log_term = math.log(4.0 * (s[m] - lo) * (hi - s[m]))
                regular[m, m % q] = (log_term - float(np.sum(w_sub / rho))) / w[m]
                pieces.append((rho, w_sub, W))
            base = np.concatenate([base, regular])

        # one sparse batch: S maps the kernel samples at the subrule
        # distances rho to the corrected entries flat_idx, base adds the
        # regularizer.  S is block diagonal, one q x (subrule size) block
        # per piece, written straight in CSR form: the row of entry j of
        # piece k holds W[:, j] / w_j on that piece's subrule columns.
        cols = panels[:, None] * q + np.arange(q)
        self._rho = np.concatenate([rho for rho, _, _ in pieces])
        data = np.concatenate(
            [(W / w[c][None, :]).T.ravel() for (_, _, W), c in zip(pieces, cols)]
        )
        sizes = np.array([rho.size for rho, _, _ in pieces])
        row_len = np.repeat(sizes, q)
        indptr = np.concatenate([[0], np.cumsum(row_len)])
        first_col = np.repeat(np.cumsum(sizes) - sizes, q)
        indices = np.arange(data.size) - np.repeat(indptr[:-1] - first_col, row_len)
        self._S = sparse.csr_matrix(
            (data, indices, indptr), shape=(row_len.size, self._rho.size)
        )
        self._flat_idx = (targets[:, None] * M + cols).ravel()
        self._base = base.ravel()

    def _rho_of(self, x, t):
        """Kernel distance between points x and t on the two arms."""
        return np.sqrt((x - t) ** 2 + x * t * self._c)

    def _piece(self, m: int, p: int, t_split: float, nseg: int):
        """Subrule on panel p for target node m, refined toward t_split from
        both sides (or toward the nearer panel end if t_split is outside):
        kernel distances, subrule weights, and the weights times the panel's
        Lagrange basis."""
        lo, hi = self.mesh.edges[p], self.mesh.edges[p + 1]
        if lo < t_split < hi:
            tl, wl = _geom_stack(lo, t_split, False, nseg)
            tr, wr = _geom_stack(t_split, hi, True, nseg)
            t = np.concatenate([tl, tr])
            w = np.concatenate([wl, wr])
        else:
            t, w = _geom_stack(lo, hi, t_split <= lo, nseg)
        rho = self._rho_of(self.mesh.nodes[m], t)
        keep = rho > 0.0
        rho, t, w = rho[keep], t[keep], w[keep]
        B = _lagrange_matrix(self._pn[p], self._bw[p], t)
        return rho, w, w[:, None] * B

    # -- assembly ---------------------------------------------------------------

    def kernel_matrix(self, kappa: float) -> np.ndarray:
        """Corrected kernel sample matrix (without weight folding or 1/4pi)."""
        K = np.exp(-kappa * self._dist) / self._dist
        K.flat[self._flat_idx] = (
            self._S @ (np.exp(-kappa * self._rho) / self._rho) + self._base
        )
        return K

    def weighted_block(self, kappa: float) -> np.ndarray:
        """Symmetric weighted block D^{1/2} K D^{1/2} / (4 pi)."""
        B = self._fold * self.kernel_matrix(kappa) / FOUR_PI
        return 0.5 * (B + B.T)


def assemble_diag_block(kappa: float, L: float, mesh: Mesh) -> np.ndarray:
    """Regularized self-interaction block T^{ii} at the given kappa.

    The mesh must cover [0, L].
    """
    if abs(mesh.length - L) > 1e-12 * max(1.0, L):
        raise BadParameters(
            f"mesh covers [0, {mesh.length}], expected arm length {L}"
        )
    return BlockAssembler(mesh, chord_sq=None).weighted_block(kappa)


def assemble_offdiag_block(kappa: float, chord_sq: float, mesh: Mesh) -> np.ndarray:
    """Arm-pair interaction block for arms with the given squared chord."""
    if not chord_sq > 0.0:
        raise BadParameters(f"squared chord must be positive, got {chord_sq}")
    return BlockAssembler(mesh, chord_sq=chord_sq).weighted_block(kappa)


@dataclass(frozen=True)
class BsMatrix:
    """Dense symmetric discretization of the Birman-Schwinger operator."""

    matrix: np.ndarray
    kappa: float
    n_arms: int
    mesh: Mesh

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def block(self, i: int, j: int) -> np.ndarray:
        M = self.mesh.size
        return self.matrix[i * M : (i + 1) * M, j * M : (j + 1) * M]


def chord_groups(directions: np.ndarray):
    """Distinct squared chords of a star's arm pairs, rounded to 12 decimals
    (pairs with one key share a block), and the pairs as (I, J, group):
    pair k joins arms I[k] < J[k] and has chord ``chords[group[k]]``."""
    I, J = np.triu_indices(directions.shape[0], k=1)
    keys = [round(_chord_sq(directions[i], directions[j]), 12) for i, j in zip(I, J)]
    chords, group = np.unique(keys, return_inverse=True)
    return chords, (I, J, group)


def star_matrix(N: int, T: np.ndarray, pair_blocks, I, J, group) -> np.ndarray:
    """The N*M x N*M matrix with T on every diagonal block and, for pair k,
    ``pair_blocks[group[k]]`` at block (I[k], J[k]) and its transpose at
    (J[k], I[k])."""
    M = T.shape[0]
    A = np.zeros((N * M, N * M))
    blocks = A.reshape(N, M, N, M)
    blocks[range(N), :, range(N), :] = T
    for g, B in enumerate(pair_blocks):
        k = group == g
        blocks[I[k], :, J[k], :] = B
        blocks[J[k], :, I[k], :] = B.T
    return A


class StarAssembler:
    """Cached-geometry assembler for the full N-arm matrix at any kappa.

    The diagonal block is shared by all arms; off-diagonal blocks are shared
    across arm pairs with the same squared chord (``chord_groups``).
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

    def matrix(self, kappa: float) -> np.ndarray:
        T = self.diag.weighted_block(kappa)
        pair_blocks = [asm.weighted_block(kappa) for asm in self._offdiag]
        return star_matrix(self.config.n_arms, T, pair_blocks, *self._pairs)


def assemble_bs_matrix(config: StarConfig, kappa: float, mesh: Mesh) -> BsMatrix:
    """Assemble the full symmetric N*M x N*M Birman-Schwinger matrix."""
    A = StarAssembler(config, mesh).matrix(kappa)
    return BsMatrix(matrix=A, kappa=float(kappa), n_arms=config.n_arms, mesh=mesh)
