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

For speed, all correction rules sharing the same refinement profile are
batched: one vector of kernel distances, one sparse matrix mapping kernel
samples to corrected entries, applied per kappa with a single exp.
"""

from __future__ import annotations

import math
from collections import OrderedDict
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
#: exponential tail cutoff: skip corrections where kappa * distance exceeds
#: this (the whole contribution is below e^-18 there)
EXP_CUTOFF = 18.0
#: resolve the exponential when kappa * width exceeds this (Gauss-Legendre
#: of the panel order handles e^{-z} accurately up to z of this size)
EXP_RESOLVE = 8.0

_SUB_ORDER = 16
_MAX_SEG = 60
_PROFILE_CACHE = 4


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
    if panels < 2 or order < 2:
        raise BadParameters(f"need panels >= 2 and order >= 2, got {panels}, {order}")
    if not (np.isfinite(grading) and grading >= 1.0):
        raise BadParameters(f"grading ratio must be >= 1, got {grading}")
    widths = _panel_widths(L, panels, float(grading))
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
    n_seg = max(1, min(n_seg, _MAX_SEG))
    frac = _stack_fractions(n_seg, toward_lo)
    edges = lo * (1.0 - frac) + hi * frac
    keep = np.diff(edges) > 0.0
    x, w = _leggauss(_SUB_ORDER)
    h = 0.5 * np.diff(edges)[keep]
    mid = edges[:-1][keep] + h
    ts = (mid[:, None] + h[:, None] * x[None, :]).ravel()
    ws = (h[:, None] * w[None, :]).ravel()
    return ts, ws


@dataclass
class _Batch:
    """All correction rules for one refinement profile, batched."""

    rho: np.ndarray  # kernel distances at every subrule point
    S: sparse.csr_matrix  # maps kernel samples to corrected kernel entries
    flat_idx: np.ndarray  # destination entries in the M x M kernel matrix
    base: np.ndarray  # kappa-free additive part (regularizer terms)


class BlockAssembler:
    """Assembles one M x M block of the Birman-Schwinger matrix at any kappa.

    ``chord_sq=None`` selects the regularized diagonal kernel; a positive
    value selects the arm-pair kernel with that squared chord.
    """

    def __init__(self, mesh: Mesh, chord_sq: float | None = None):
        self.mesh = mesh
        self.chord_sq = chord_sq
        q = mesh.order
        P = mesh.panels
        self._pn = mesh.nodes.reshape(P, q)
        self._pw = mesh.weights.reshape(P, q)
        self._bw = np.array([_bary_weights(self._pn[p]) for p in range(P)])
        self._widths = np.diff(mesh.edges)
        s = mesh.nodes
        if chord_sq is None:
            D = np.abs(s[:, None] - s[None, :])
            np.fill_diagonal(D, 1.0)
        else:
            D = np.sqrt((s[:, None] - s[None, :]) ** 2 + np.outer(s, s) * chord_sq)
        self._dist = D
        sw = np.sqrt(mesh.weights)
        self._fold = sw[:, None] * sw[None, :]
        # closest kernel approach of every (target, panel) pair, kappa-free
        lo = mesh.edges[:-1][None, :]
        hi = mesh.edges[1:][None, :]
        x = s[:, None]
        if chord_sq is None:
            t_hat = np.clip(x, lo, hi)
            rho_min = np.abs(x - t_hat)
        else:
            t_hat = np.clip(x * (1.0 - 0.5 * chord_sq), lo, hi)
            rho_min = np.sqrt((x - t_hat) ** 2 + x * t_hat * chord_sq)
        self._t_hat = t_hat
        self._rho_min = rho_min
        with np.errstate(divide="ignore"):
            ratio = self._widths[None, :] / np.maximum(rho_min, 1e-300)
        self._nseg_res = np.where(
            ratio <= 1.0, 0, np.ceil(np.log2(np.maximum(ratio, 1.0)))
        ).astype(np.int64)
        self._geo_near = rho_min < NEAR_RATIO * self._widths[None, :]
        if chord_sq is None:
            owner = np.repeat(np.arange(P), q)
            self._geo_near[np.arange(mesh.size), owner] = False
            self._owner = owner
        self._piece_cache: dict[tuple, tuple] = {}
        self._batches: OrderedDict[bytes, _Batch] = OrderedDict()

    # -- kernel geometry -----------------------------------------------------

    def _rho_of(self, x: float, t: np.ndarray) -> np.ndarray:
        if self.chord_sq is None:
            return np.abs(x - t)
        return np.sqrt((x - t) ** 2 + x * t * self.chord_sq)

    def _profile(self, kq: float):
        """Correction layout at quantized kappa: triggered panels and depths."""
        widths = self._widths[None, :]
        z = kq * widths
        exp_seg = np.where(
            z > 1.0, np.ceil(np.log2(np.maximum(z, 1.0))), 0.0
        ).astype(np.int64)
        trigger = self._geo_near | (
            (kq * widths > EXP_RESOLVE) & (kq * self._rho_min < EXP_CUTOFF)
        )
        if self.chord_sq is None:
            trigger[np.arange(self.mesh.size), self._owner] = False
        nseg = np.minimum(3 + self._nseg_res + exp_seg, _MAX_SEG)
        return trigger, nseg

    # -- piece geometry (cached across profiles) ------------------------------

    def _near_piece(self, m: int, p: int, nseg: int):
        key = (m, p, nseg)
        piece = self._piece_cache.get(key)
        if piece is None:
            q = self.mesh.order
            lo, hi = self.mesh.edges[p], self.mesh.edges[p + 1]
            x = self.mesh.nodes[m]
            t_hat = self._t_hat[m, p]
            if lo < t_hat < hi:
                tl, wl = _geom_stack(lo, t_hat, False, nseg)
                tr, wr = _geom_stack(t_hat, hi, True, nseg)
                t = np.concatenate([tl, tr])
                w = np.concatenate([wl, wr])
            else:
                t, w = _geom_stack(lo, hi, t_hat <= lo, nseg)
            rho = self._rho_of(x, t)
            keep = rho > 0.0
            rho, t, w = rho[keep], t[keep], w[keep]
            B = _lagrange_matrix(self._pn[p], self._bw[p], t)
            piece = (rho, w[:, None] * B)
            self._piece_cache[key] = piece
        return piece

    def _self_piece(self, m: int, nseg_l: int, nseg_r: int):
        key = (m, -1, nseg_l, nseg_r)
        piece = self._piece_cache.get(key)
        if piece is None:
            q = self.mesh.order
            p = m // q
            lo, hi = self.mesh.edges[p], self.mesh.edges[p + 1]
            x = self.mesh.nodes[m]
            tl, wl = _geom_stack(lo, x, False, nseg_l)
            tr, wr = _geom_stack(x, hi, True, nseg_r)
            t = np.concatenate([tl, tr])
            w = np.concatenate([wl, wr])
            rho = np.abs(x - t)
            keep = rho > 0.0
            rho, t, w = rho[keep], t[keep], w[keep]
            B = _lagrange_matrix(self._pn[p], self._bw[p], t)
            recip = float(np.sum(w / rho))
            log_term = math.log(4.0 * (x - lo) * (hi - x))
            piece = (rho, w[:, None] * B, log_term - recip)
            self._piece_cache[key] = piece
        return piece

    # -- batched corrections ---------------------------------------------------

    def _batch(self, kappa: float) -> _Batch:
        # depth decisions use kappa rounded up to a power of two, so the
        # batched rules stay stable across the root-finder's kappa sweep
        # (and scale exactly under the L -> 2L covariance map)
        kq = 2.0 ** math.ceil(math.log2(kappa)) if kappa > 0 else 0.0
        trigger, nseg = self._profile(kq)
        M = self.mesh.size
        q = self.mesh.order
        if self.chord_sq is None:
            x = self.mesh.nodes
            p_own = self._owner
            left = x - self.mesh.edges[p_own]
            right = self.mesh.edges[p_own + 1] - x
            nl = 3 + np.where(kq * left > 1.0,
                              np.ceil(np.log2(np.maximum(kq * left, 1.0))), 0.0
                              ).astype(np.int64)
            nr = 3 + np.where(kq * right > 1.0,
                              np.ceil(np.log2(np.maximum(kq * right, 1.0))), 0.0
                              ).astype(np.int64)
            key = trigger.tobytes() + nseg.tobytes() + nl.tobytes() + nr.tobytes()
        else:
            key = trigger.tobytes() + nseg.tobytes()
        batch = self._batches.get(key)
        if batch is not None:
            self._batches.move_to_end(key)
            return batch

        rhos = []
        rows = []
        cols = []
        vals = []
        flat_idx = []
        base = []
        offset = 0
        n_entries = 0
        w = self.mesh.weights

        def add_piece(m, p, rho, W, extra):
            nonlocal offset, n_entries
            nq = rho.size
            rhos.append(rho)
            c0 = p * q
            for jloc in range(q):
                flat_idx.append(m * M + c0 + jloc)
                base.append(extra / w[m] if (extra and c0 + jloc == m) else 0.0)
            # S rows: entry index; cols: quad point index; value: W / w_col
            Wn = W / w[c0 : c0 + q][None, :]
            rows.append(
                np.repeat(np.arange(n_entries, n_entries + q), nq)
            )
            cols.append(np.tile(np.arange(offset, offset + nq), q))
            vals.append(Wn.T.ravel())
            offset += nq
            n_entries += q

        for m in range(M):
            if self.chord_sq is None:
                rho, W, extra = self._self_piece(m, int(nl[m]), int(nr[m]))
                add_piece(m, int(p_own[m]), rho, W, extra)
            tp = np.nonzero(trigger[m])[0]
            for p in tp:
                rho, W = self._near_piece(m, int(p), int(nseg[m, p]))
                add_piece(m, int(p), rho, W, 0.0)

        if n_entries == 0:
            batch = _Batch(
                rho=np.empty(0),
                S=sparse.csr_matrix((0, 0)),
                flat_idx=np.empty(0, dtype=np.int64),
                base=np.empty(0),
            )
        else:
            S = sparse.csr_matrix(
                (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                shape=(n_entries, offset),
            )
            batch = _Batch(
                rho=np.concatenate(rhos),
                S=S,
                flat_idx=np.array(flat_idx, dtype=np.int64),
                base=np.array(base),
            )
        self._batches[key] = batch
        if len(self._batches) > _PROFILE_CACHE:
            self._batches.popitem(last=False)
        return batch

    # -- assembly ---------------------------------------------------------------

    def kernel_matrix(self, kappa: float) -> np.ndarray:
        """Corrected kernel sample matrix (without weight folding or 1/4pi)."""
        K = np.exp(-kappa * self._dist) / self._dist
        if self.chord_sq is None:
            np.fill_diagonal(K, 0.0)
        batch = self._batch(kappa)
        if batch.flat_idx.size:
            vals = batch.S @ (np.exp(-kappa * batch.rho) / batch.rho)
            K.flat[batch.flat_idx] = vals + batch.base
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
