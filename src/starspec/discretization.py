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

with [a, b] the panel containing x.  Blocks stay raw kernel matrices K
until the matrix that is solved: ``_weigh`` folds D^{1/2} K D^{1/2} / (4 pi)
and symmetrizes it once per solved matrix (the sector of an arm-regular
star, or each block as it is placed in the full matrix).  The asymmetry
removed this way is the difference between row-based and column-based
product integration.  Slopes in kappa come from the raw derivative blocks
(``star_form``).

Which panels are corrected, and how deeply their subrules are refined,
depends on the geometry only (closest approach against panel width), never
on kappa.  So the correction rules are built once, as one batch per
``BlockAssembler``: the diagonal block's, and one for all distinct pair
chords of a star, whose pair blocks form one (chords, M, M) stack.  A batch
is one vector of kernel distances and the weights mapping kernel samples
to corrected entries.  Every piece of the batch (one target node against
one panel, near or self, at one chord) has the same shape, two geometric
half-stacks meeting at a split point, so the pieces of one depth and number
of halves form a group, built in chunks of bounded size.  At each kappa a
batch costs one exp over the dense distances of all its chords and one over
its subrule distances; the kernel blocks are then made one at a time from
the derivative stack, so that an evaluation holds that stack and one block.

A piece's rows in the batch (subrule weights times the panel's Lagrange
basis over the node weights) involve neither the kernel, the chord nor the
target, only the subrule's layout in its panel: translating and scaling a
panel scales both weights alike and leaves the basis as it is.  Points,
basis and target distances are all formed relative to the panel's start (a
stored node minus its panel's start is exact in the end stack, where panels
are narrow against their distance from 0), so rows keep their digits at any
distance from the vertex.  A piece split at a panel edge has one
half-stack, and its layout is that edge and its depth: it shares the rows
of the first piece with that layout (``batch_prototypes``), whatever its
panel and chord, on the diagonal and in pair batches alike.  A piece split
inside its panel has rows of its own; that covers every self piece, whose
regularizer cancels the singular part of its rows only at its own points.
Every piece keeps its own points and kernel distances.

Each group stores its prototypes' rows once, in one dense array.  The
pieces of a shared layout are consecutive, so their points form one
(copies, points) matrix, and the layout is applied as one matrix product
with its rows; the pieces with rows of their own take one batched
product per group.  On the 56-panel order-12 mesh the diagonal batch's
10,356 pieces have 688 prototypes, whose rows take 6.4 MB.  A perturbed
icosahedron's 66 chords on the 12-panel order-8 mesh share 11 products
(390 in one batch per chord), and their rows take 3.1 MB (4.5 MB).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BadParameters
from .geometry import StarConfig, pair_chords

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
    panel_nodes = nodes.reshape(panels, order)
    gap = min((panel_nodes - edges[:-1, None]).min(), (edges[1:, None] - panel_nodes).min())
    if gap <= 0.0 or gap * gap < np.finfo(float).tiny:
        # the self-panel regularizer ln(4 (x-a)(b-x)) and the kernel's
        # 1/r need the squared node-edge distances as normal floats
        raise BadParameters(f"arm length {L} is too small: squared distances underflow")
    return Mesh(
        nodes=nodes,
        weights=weights,
        edges=edges,
        panels=panels,
        order=order,
        grading=float(grading),
    )


def _bary_weights(panel_nodes: np.ndarray) -> np.ndarray:
    """Barycentric weights of the nodes of every panel (rows: panels), each
    row scaled by a power of two against overflow on narrow panels: exact,
    and divided out by the barycentric formula."""
    q = panel_nodes.shape[1]
    d = panel_nodes[:, :, None] - panel_nodes[:, None, :]
    d *= np.ldexp(1.0, -np.frexp(d[:, -1, 0])[1])[:, None, None]
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
    """Lower and upper ends of the two half-stacks of each piece, [0, cut]
    and [cut, width] relative to its panel's start, cut = split - start, as
    two (pieces, 2) arrays."""
    start = mesh.edges[panels]
    cut = split - start
    a = np.stack([np.zeros_like(cut), cut], axis=1)
    b = np.stack([cut, mesh.edges[panels + 1] - start], axis=1)
    return a, b


def _layout_keys(mesh: Mesh, panels, split, depth):
    """The layout of every piece (``correction_layout``) as a key: for a
    piece split at a panel edge, which has one half-stack, 2 depth + 1 if
    that half is the lower one; for a piece split inside its panel, a
    negative key of its own.  Also returns the piece's subrule points,
    ``_SUB_ORDER`` per segment of its present half-stacks."""
    a, b = _half_stacks(mesh, panels, split)
    present = a < b
    key = np.where(present.all(axis=1), -1 - np.arange(panels.size),
                   2 * depth + present[:, 0])
    return key, present.sum(axis=1) * depth * _SUB_ORDER


def batch_prototypes(mesh: Mesh, panels, split, depth):
    """The prototype of every piece of a batch (``correction_layout``): the
    first piece with its layout, whose rows the others share
    (``BlockAssembler._subrules``).  A piece split at a panel edge has one
    half-stack, so its layout is its depth and that edge, whatever its
    panel and chord; a piece split inside its panel is its own
    prototype."""
    key, _ = _layout_keys(mesh, panels, split, depth)
    _, first, layout = np.unique(key, return_index=True, return_inverse=True)
    return first[layout]


def _joint_layout(mesh: Mesh, chord_sq):
    """``correction_layout`` of each chord of a batch (``BlockAssembler``),
    concatenated in chord order, with each piece's chord index in front."""
    # a star of one arm has no chord: an empty layout of the right types
    layouts = ([correction_layout(mesh, c) for c in _chord_list(chord_sq)]
               or [tuple(f[:0] for f in correction_layout(mesh, None))])
    g = np.repeat(np.arange(len(layouts)), [f[0].size for f in layouts])
    return (g, *(np.concatenate(f) for f in zip(*layouts)))


def _chord_list(chord_sq) -> list:
    return [None] if chord_sq is None else np.reshape(chord_sq, -1).tolist()


def chord_entries(mesh: Mesh, chord_sq):
    """The entries that each chord adds to the correction batch of one
    ``BlockAssembler`` (None, a squared chord or a vector of them), in
    chord order, each one 8-byte value: one kernel distance per subrule
    point of each of its pieces (``correction_layout``), and the rows of
    its prototypes (``batch_prototypes``), order per subrule point.  A
    layout shared across chords counts with the first chord that has it, so
    each partial sum counts the batch of the chords so far.  Nothing of the
    batch is built, and the layouts are taken one chord at a time."""
    seen = set()
    for c in _chord_list(chord_sq):
        _, panels, split, depth, _ = correction_layout(mesh, c)
        key, points = _layout_keys(mesh, panels, split, depth)
        own = key < 0
        layouts, first = np.unique(key[~own], return_index=True)
        rows = int(points[own].sum()) + sum(
            p for k, p in zip(layouts.tolist(), points[~own][first].tolist()) if k not in seen)
        seen.update(layouts.tolist())
        yield int(points.sum()) + mesh.order * rows


def batch_entries(mesh: Mesh, chord_sq) -> int:
    """Entries of the correction batch of one ``BlockAssembler``, the sum
    of its ``chord_entries``."""
    return sum(chord_entries(mesh, chord_sq))


class BlockAssembler:
    """Assembles M x M blocks of the Birman-Schwinger matrix at any kappa.

    ``chord_sq=None`` selects the regularized diagonal kernel; a positive
    value selects the arm-pair kernel with that squared chord, and a vector
    of them a stack of pair blocks, one per chord (a scalar is a stack of
    one, returned as one block).  The diagonal kernel is the pair kernel at
    chord 0, except on the self panel, where the regularizer replaces it.
    The near-field corrections depend on the mesh and the chords only, so
    they are built here, once, as one batch for every chord: a layout
    shared by pieces of several chords stores its rows once.
    """

    def __init__(self, mesh: Mesh, chord_sq=None):
        c = np.zeros(1) if chord_sq is None else np.asarray(chord_sq, dtype=float)
        if chord_sq is not None and not np.all(c > 0.0):
            raise BadParameters(f"squared chord must be positive, got {chord_sq}")
        self.mesh = mesh
        self._stack = np.ndim(chord_sq) > 0
        self._c = c.reshape(-1)
        q, M = mesh.order, mesh.size
        s, w, edges = mesh.nodes, mesh.weights, mesh.edges
        # minus the kernel distances D of the dense part, for every chord,
        # so that e^{-kappa D} / D is (-e^{-kappa D}) / (-D), one division
        # of the derivative (``_block``)
        D = _rho(s[:, None], s[None, :], self._c[:, None, None])
        if chord_sq is None:
            np.fill_diagonal(D[0], 1.0)  # self-panel entries come from the batch
        self._minus_dist = np.negative(D, out=D)

        g, targets, panels, split, depth, is_self = _joint_layout(mesh, chord_sq)
        proto = batch_prototypes(mesh, panels, split, depth)
        order, w_over_rho = self._subrules(targets, panels, split, depth, proto, self._c[g])
        g, targets, panels, is_self = g[order], targets[order], panels[order], is_self[order]
        # self panel: sum_j W_j f(t_j)/|x-t_j| integrates the kernel;
        # f(x) (ln(4 (x-a)(b-x)) - sum_j W_j/|x-t_j|) is the regularizer
        base = np.zeros((order.size, q))
        m, p = targets[is_self], panels[is_self]
        log_term = np.log(4.0 * (s[m] - edges[p]) * (edges[p + 1] - s[m]))
        base[is_self, m % q] = (log_term - w_over_rho[is_self]) / w[m]

        # the batch maps the kernel samples at the subrule distances rho to
        # the corrected entries flat_idx of the (chords, M, M) stack
        # (``_apply``), base adds the regularizer
        cols = panels[:, None] * q + np.arange(q)
        self._flat_idx = ((g * M + targets)[:, None] * M + cols).ravel()
        self._base = base.ravel()
        # the pieces of each chord, in batch order: chord k's are
        # _by_chord[_bounds[k]:_bounds[k + 1]]
        self._by_chord = np.argsort(g, kind="stable")
        self._bounds = np.searchsorted(g[self._by_chord], np.arange(self._c.size + 1))

    def _subrules(self, targets, panels, split, depth, proto, chords):
        """Subrules of all pieces, one array pass per (depth, halves) group.

        Piece k integrates the Lagrange basis of panel panels[k] for target
        node targets[k], with two geometric half-stacks of depth[k] segments
        on [lo, t] and [t, hi], halving toward t = split[k] (in the panel); a
        half of zero width is left out.  Its kernel distances are at its own
        squared chord chords[k].  Sets the batch ``_batch``, its
        products ``_products`` (``_apply``), the subrule points' kernel
        distances ``_rho`` and the dead points ``_dead``, and returns the
        piece order and each piece's sum of weight / rho in that order.  The
        batch is one dense array per group, of shape (rows, order, halves *
        depth * _SUB_ORDER): per row and basis function j, the subrule
        weights times basis j over node weight j, against the points.

        Points u, panel nodes and target x are taken relative to the
        panel's start e (``_half_stacks``): the distance sqrt((x - e - u)^2
        + x (e + u) c) then rounds relative to the panel width, not to x.

        These rows involve neither the kernel, the chord nor the target,
        only the subrule's layout in its panel, and both weights scale with the
        panel width while the basis does not.  So only the prototypes, the
        pieces k with proto[k] == k, get rows, each stored once.  A layout
        of two or more pieces is shared: its pieces are consecutive, the
        group's shared layouts come first, and ``_apply`` takes each as one
        matrix product against their points.  The pieces with rows of their
        own follow.  The points, their kernel distances and the sums of
        weight / rho are every piece's own.

        A group's pieces, and a piece's points (_SUB_ORDER per segment), are
        consecutive.  A point on a zero-width segment or at kernel distance
        0 gets weight 0 and distance 1, and its index is kept in ``_dead``,
        where ``_apply`` zeroes the samples: a copy shares its prototype's
        rows but not its dead points.
        """
        mesh = self.mesh
        q = mesh.order
        panel_nodes = mesh.nodes.reshape(-1, q) - mesh.edges[:-1, None]
        bw = _bary_weights(panel_nodes)
        node_w = mesh.weights.reshape(-1, q)
        x_gl, w_gl = _leggauss(_SUB_ORDER)
        a, b = _half_stacks(mesh, panels, split)
        present = a < b
        halves = present.sum(axis=1)
        built = proto == np.arange(proto.size)
        shared = np.bincount(proto, minlength=proto.size)[proto] > 1
        # groups in (depth, halves) order; in each, shared layouts first, a
        # layout's pieces consecutive, then the pieces with rows of their own
        order = np.lexsort((proto, ~shared, 3 * depth + halves))
        ends = np.flatnonzero(np.diff(3 * depth[order] + halves[order])) + 1
        rho_all = np.empty(int((halves * depth).sum()) * _SUB_ORDER)
        dead_all = np.zeros(rho_all.size, dtype=bool)
        w_over_rho = np.empty(targets.size)
        batch, products = [], []
        pos = start = 0  # pieces and points written so far
        for group in np.split(order, ends) if order.size else []:
            d, k = int(depth[group[0]]), int(halves[group[0]])
            r = k * d * _SUB_ORDER
            frac = _stack_fractions(d)
            W = np.empty((int(built[group].sum()), q, r))
            batch.append(W)
            # one product per shared layout, its pieces' points (copies, r)
            # against its rows (r, q), then one for the pieces with rows of
            # their own, (n, 1, r) against (n, r, q)
            first = np.flatnonzero(built[group] & shared[group]).tolist()
            n_shared = int(np.count_nonzero(shared[group]))
            spans = [(W[i].T, j, m, (m - j,))
                     for i, (j, m) in enumerate(zip(first, first[1:] + [n_shared]))]
            if n_shared < group.size:
                spans.append((W[len(first) :].transpose(0, 2, 1), n_shared, group.size,
                              (group.size - n_shared, 1)))
            for Wt, j, m, lead in spans:
                products.append((Wt, slice(start + j * r, start + m * r), lead + (r,),
                                 slice((pos + j) * q, (pos + m) * q), lead + (q,)))
            step = max(1, _CHUNK // W[0].size)
            row = 0  # rows of W written so far
            for i in range(0, group.size, step):
                idx = group[i : i + step]
                n = idx.size
                piece, half = np.nonzero(present[idx])
                lo = a[idx[piece], half].reshape(n, k, 1)
                hi = b[idx[piece], half].reshape(n, k, 1)
                f = frac[half].reshape(n, k, d + 1)
                edges = lo * (1.0 - f) + hi * f
                seg = np.diff(edges, axis=2)
                h = 0.5 * seg
                mid = edges[:, :, :-1] + h
                t = (mid[..., None] + h[..., None] * x_gl).reshape(n, -1)
                w_sub = (h[..., None] * w_gl).reshape(n, -1)
                x = mesh.nodes[targets[idx], None]
                e = mesh.edges[panels[idx], None]
                rho = np.sqrt((x - e - t) ** 2 + x * (e + t) * chords[idx, None])
                dead = ~(np.repeat(seg.reshape(n, -1) > 0.0, _SUB_ORDER, axis=1) & (rho > 0.0))
                w_sub[dead] = 0.0
                rho[dead] = 1.0
                dead_all[start : start + t.size] = dead.ravel()
                own = built[idx]
                # Lagrange basis of each prototype's panel at its subrule
                # points, times weight over node weight, formed in place in
                # one array
                p = panels[idx[own]]
                basis = t[own, :, None] - panel_nodes[p, None, :]
                hit = basis == 0.0
                basis[hit] = 1.0
                np.divide(bw[p, None, :], basis, out=basis)
                basis /= basis.sum(axis=2, keepdims=True)
                np.copyto(basis, hit, where=hit.any(axis=2, keepdims=True))
                basis *= w_sub[own, :, None]
                basis /= node_w[p, None, :]
                W[row : row + p.size] = basis.transpose(0, 2, 1)
                row += p.size
                rho_all[start : start + t.size] = rho.ravel()
                w_over_rho[pos + i : pos + i + n] = (w_sub / rho).sum(axis=1)
                start += t.size
            pos += group.size
        self._batch, self._products, self._rho = batch, products, rho_all
        self._dead = np.flatnonzero(dead_all)
        return order, w_over_rho

    def _apply(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The batch applied to values x at the subrule points, in
        ``_flat_idx`` order, into ``out`` if given; x is overwritten with 0
        at the dead points.  Each shared layout is one matrix product, its
        pieces' points (copies x points) against its prototype's rows; the
        pieces with rows of their own take one batched product per group."""
        if self._dead.size:
            x[self._dead] = 0.0
        if out is None:
            out = np.empty(self._base.size)
        for Wt, cols, x_shape, rows, out_shape in self._products:
            np.matmul(x[cols].reshape(x_shape), Wt, out=out[rows].reshape(out_shape))
        return out

    # -- assembly ---------------------------------------------------------------

    def _exponentials(self, kappa: float, derivative: bool):
        """The derivative stack -e^{-kappa D} of every chord, with the
        batch's derivative entries if ``derivative`` asks for them, and the
        batch's corrected kernel entries, one row per piece in batch order:
        one exp over the dense distances and one over the batch's.  By
        d/dkappa e^{-kappa r}/r = -e^{-kappa r}, the derivative entries are
        the batch applied to -e^{-kappa rho} (the regularizer is
        kappa-free).  The exponentials are taken in place, and the one
        array over the subrule points is negated back and divided by rho in
        place once the derivative has used it.  That array is made after
        the batch's outputs and dropped before the dense stack is made, so
        that the stack can take its memory."""
        d_corr = np.empty(self._base.size) if derivative else None
        corrected = np.empty(self._base.size)
        e = np.multiply(self._rho, -kappa)
        np.exp(e, out=e)
        if derivative:
            self._apply(np.negative(e, out=e), d_corr)
            np.negative(e, out=e)
        e /= self._rho
        self._apply(e, corrected)
        del e
        corrected += self._base
        dK = np.multiply(self._minus_dist, kappa)
        np.exp(dK, out=dK)
        np.negative(dK, out=dK)
        if derivative:
            dK.reshape(-1)[self._flat_idx] = d_corr
        return dK, corrected.reshape(-1, self.mesh.order)

    def _block(self, k: int, dK, corrected, out=None) -> np.ndarray:
        """Kernel matrix of chord k (into ``out`` if given) from the dense
        part of its derivative block, e^{-kappa D} / D = dK / (-D), and its
        corrected entries (``_exponentials``)."""
        K = np.divide(dK[k], self._minus_dist[k], out=out)
        rows = self._by_chord[self._bounds[k] : self._bounds[k + 1]]
        M, q = self.mesh.size, self.mesh.order
        K.reshape(-1)[self._flat_idx.reshape(-1, q)[rows] - k * M * M] = corrected[rows]
        return K

    def kernel_blocks(self, kappa: float, derivative: bool = False):
        """The corrected kernel matrices of the stack (without weight
        folding or 1/4pi) as an iterator that makes each as it is read, and
        the (chords, M, M) derivative stack in kappa if asked, else None: an
        evaluation holds the derivative stack and one kernel matrix.  Each
        kernel matrix is made from its block of the derivative stack, so it
        is read before that block is changed."""
        dK, corrected = self._exponentials(kappa, derivative)
        blocks = (self._block(k, dK, corrected) for k in range(self._c.size))
        return blocks, dK if derivative else None

    def kernel_matrix(self, kappa: float, derivative: bool = False):
        """Corrected kernel sample matrix (without weight folding or 1/4pi),
        a (chords, M, M) stack for a vector of chords; with ``derivative``,
        also its derivative in kappa (``_exponentials``)."""
        dK, corrected = self._exponentials(kappa, derivative)
        K = np.empty_like(dK)
        for k in range(K.shape[0]):
            self._block(k, dK, corrected, out=K[k])
        if not self._stack:
            K, dK = K[0], dK[0]
        return (K, dK) if derivative else K

    def weighted_block(self, kappa: float) -> np.ndarray:
        """Symmetric weighted block D^{1/2} K D^{1/2} / (4 pi) (``_weigh``),
        or stack of them."""
        return _weigh(self.kernel_matrix(kappa), self.mesh.weights)


def _weigh(K: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """D^{1/2} K D^{1/2} / (4 pi) for D = diag(weights), symmetrized, for
    a block K or each block of a stack; K is overwritten.  The one place
    where a matrix is made symmetric: once per solved matrix, never on a
    derivative (``star_form``)."""
    sw = np.sqrt(weights)
    K *= sw[:, None] * sw[None, :]
    K /= FOUR_PI
    B = K + np.swapaxes(K, -1, -2)
    B *= 0.5
    return B


def chord_groups(directions: np.ndarray):
    """Distinct squared chords of a star's arm pairs, rounded to 13
    significant digits (pairs with one key share a block), and the pairs as
    (I, J, group): pair k joins arms I[k] < J[k] and has chord
    ``chords[group[k]]``.  Rounding to significant digits, not decimals,
    keeps the chord of near-coincident arms positive, and ``pair_chords``
    keeps its digits."""
    I, J = np.triu_indices(directions.shape[0], k=1)
    keys = [float(f"{c:.12e}") for c in pair_chords(directions).tolist()]
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


def star_form(weights: np.ndarray, dT: np.ndarray, d_pair_blocks=(), I=(), J=(), group=()):
    """The quadratic form v -> v^T A' v of the symmetric ``star_matrix`` A'
    whose blocks are the raw derivative blocks dT and ``d_pair_blocks``
    weighed by ``_weigh`` over the mesh ``weights``, summed block by block
    from the raw blocks.  With w_i = D^{1/2} v_i on arm i, v^T (F dK + (F
    dK)^T) v / 2 = w^T dK w for the fold F, so the diagonal blocks give
    sum_i w_i^T dT w_i / (4 pi) and pair k, at (I, J) and (J, I), gives
    (w_I^T dB w_J + w_J^T dB w_I) / (4 pi).  Neither A' nor a weighed block
    is formed.  Without pairs, v is a vector of one arm (a sector's)."""
    sw = np.sqrt(weights)
    members = [np.nonzero(group == g)[0] for g in range(len(d_pair_blocks))]

    def form(v: np.ndarray) -> float:
        W = v.reshape(-1, sw.size) * sw
        total = np.vdot(W @ dT, W)
        for dB, k in zip(d_pair_blocks, members):
            WI, WJ = W[I[k]], W[J[k]]
            total += np.vdot(WI @ dB, WJ) + np.vdot(WJ @ dB, WI)
        return float(total) / FOUR_PI

    return form


class StarAssembler:
    """Cached-geometry assembler for the full N-arm matrix at any kappa.

    The diagonal block is shared by all arms; off-diagonal blocks are shared
    across arm pairs with the same squared chord (``chord_groups``).  The
    star holds two correction batches: the diagonal's (``diag``) and one
    for all its distinct pair chords (``offdiag``), which gives the pair
    blocks as one (chords, M, M) stack in group order.

    ``group_counts[g]`` is n_g, the number of pairs of chord group g that
    contain one arm, when that number is the same for every arm (the star
    is arm-regular: every two-arm star is), and None otherwise.  ``pieces``
    is the one place that decides whether the top takes the arm-symmetric
    sector.
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
        self.offdiag = BlockAssembler(mesh, chord_sq=chords)
        I, J, group = self._pairs
        counts = np.zeros((config.n_arms, chords.size), dtype=int)
        np.add.at(counts, (I, group), 1)
        np.add.at(counts, (J, group), 1)
        self.group_counts = counts[0] if np.all(counts == counts[0]) else None

    def matrix(self, kappa: float, blocks=None) -> np.ndarray:
        """The full matrix at kappa, filled from ``blocks``, (T, pair blocks
        in group order), if given (``pieces``), else from the raw kernel
        matrices, each pair block weighed as it is placed, so that one
        weighed pair block is held at a time."""
        if blocks is None:
            weights = self.diag.mesh.weights
            pair_blocks, _ = self.offdiag.kernel_blocks(kappa)
            blocks = (self.diag.weighted_block(kappa),
                      (_weigh(B, weights) for B in pair_blocks))
        return star_matrix(self.config.n_arms, *blocks, *self._pairs)

    def pieces(self, kappa: float, j: int):
        """The symmetric matrix whose j-th largest eigenvalue is the j-th of
        ``matrix(kappa)``, as a tuple (A, form, copies): A, the quadratic
        form u -> u^T (dA/dkappa) u (``star_form``), and the number of arm
        slices a unit vector u of A is repeated over, so that
        tile(u, copies) / sqrt(copies) is the unit vector of the full
        matrix; 1 where A is the full matrix.

        Every block is weighed by the same fold and is symmetric, so for an
        arm-regular star the vectors (u, ..., u) span an invariant subspace,
        on which the matrix acts as the M x M sector ``T + sum_g n_g B_g``;
        its orthogonal complement (arm slices summing to zero) is invariant
        too.  The top is taken from the sector under one premise: it is
        simple with a positive eigenvector, as the ground state of the star
        operator is (its Birman-Schwinger kernel is positive;
        Perron-Frobenius), and a positive vector cannot lie in the
        complement.  So every arm-regular star, two arms included, solves
        one M x M matrix for its top.  Weighing is linear, so the sector is
        summed from the raw kernel matrices, ``K_T + sum_g n_g K_g`` in
        place, and weighed once; its derivative is the same sum of the raw
        derivatives.  Lower levels, and all levels of an irregular star,
        come from the full matrix: each raw pair block is made and weighed
        as it is placed (``BlockAssembler.kernel_blocks``), and the raw
        derivative stack is the form's.
        """
        N, weights = self.config.n_arms, self.diag.mesh.weights
        S, dS = self.diag.kernel_matrix(kappa, derivative=True)
        blocks, dK = self.offdiag.kernel_blocks(kappa, derivative=True)
        if j == 1 and self.group_counts is not None:
            # each B is made from its dB before dB is scaled
            for n, B, dB in zip(self.group_counts.tolist(), blocks, dK):
                B *= n
                dB *= n
                S += B
                dS += dB
                del B, dB  # before the next chord's arrays
            del blocks, dK  # before the weighing's
            return _weigh(S, weights), star_form(weights, dS), N
        A = self.matrix(kappa, (_weigh(S, weights), (_weigh(B, weights) for B in blocks)))
        return A, star_form(weights, dS, dK, *self._pairs), 1
