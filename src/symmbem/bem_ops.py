"""Galerkin assembly of the four Laplace boundary operators on surface pairs.

:func:`assemble_operators` is the one way into the operator blocks: it
assembles the single layer ``S``, the double layer ``D``, its adjoint
``Dstar`` and the hypersingular form ``N`` between two surfaces together.
All four share one quadrature pass per surface pair: the pure kernel
integrals feed the single layer directly and the hypersingular operator
through its integration-by-parts rewrite, while the kernel gradient feeds
both double layers.  Touching triangle pairs (same surface) go through the
regularizing transforms in :mod:`symmbem._quadrature`; disjoint pairs use
tensor Gauss rules chosen by their distance, except the nearly touching
ones (``CLOSED_FORM_TIER``): for those, the inner integrals over the column
triangle of ``1/r``, of the hat-weighted double-layer kernel and of the
kernel gradient are taken in closed form (Wilton et al. 1984; de Munck
1992) at the points of a collapsed Gauss rule on the row triangle, one
pass of :func:`_panel_integrals` per batch.

Both sweeps cut their triangle pairs into batches of at most
``BATCH_POINT_PAIRS`` kernel evaluations, in an order fixed by the meshes
alone, and evaluate every batch with the same pair kernel
(:func:`_pair_kernel`).  The batches run on a pool of ``SYMMBEM_THREADS``
threads; their results are added into the matrices on the calling thread
in batch order, so the matrices are bitwise identical for any thread count.
On a single surface each unordered triangle pair is integrated once and
fills both orientations: the single layer is exactly symmetric and the
adjoint double layer is the exact transpose of the double layer.
"""

from __future__ import annotations

import itertools
import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.sparse as sp

from . import _quadrature as quad
from .geometry import TriangleMesh
from .spaces import Kind

FOUR_PI = 4.0 * np.pi
TAGS = ("S", "D", "Dstar", "N")


@dataclass(frozen=True)
class QuadratureConfig:
    """Quadrature selection per triangle pair.

    Touching pairs use the regularizing transforms at ``singular_order``
    points per dimension.  Disjoint pairs pick a tier by the ratio of
    centroid distance to the larger element diameter: the first tier whose
    threshold exceeds the ratio wins, the ``far_points`` rule covers the
    rest.  Each tier names a key of ``TRI_RULES`` whose tensor product with
    itself integrates the pair, except the tier named ``CLOSED_FORM_TIER``
    (``"6x16"``, under 0.9 diameters): its pairs, across thin conductor
    gaps, integrate the inner triangle in closed form under an
    ``OUTER_ORDER`` x ``OUTER_ORDER`` collapsed Gauss rule on the row
    triangle.  The tier keeps the name, and ``TRI_RULES`` the rule, of the
    composite tensor rule it replaced, so that the pair census reads the
    same tiers.  The near tiers keep nearly touching pairs as accurate as
    the far field.
    """

    far_points: int | str = 3
    near_tiers: tuple = ((0.9, "6x16"), (2.5, "6x4"), (5.0, 6))
    singular_order: int = 4


DEFAULT_QUADRATURE = QuadratureConfig()

#: Kernel evaluations (point pairs) per batch, and so per worker at a time.
#: Every batch holds as many triangle pairs as fit in this budget, at least
#: one; the regular sweep also classifies its tiers in row blocks of at most
#: this many triangle pairs.  Each worker thread evaluates its batch in two
#: float64 workspaces of this length (1 MB each), allocated once and reused.
#: At 2**18 the sphere subdivision-3 assembly peaked 37 MB higher for no
#: measurable speed; much smaller batches pay numpy's per-call overhead on
#: too little work (a closed-form batch holds 32 pairs here).
BATCH_POINT_PAIRS = 2**17
#: A regular-sweep triangle pair counts as at least this many point pairs
#: against the budget, because its per-pair arrays (corners, heights and
#: the three kernel results) cost memory whatever its rule.  On the sphere
#: at subdivision 3, a 3-point batch filled by point pairs alone held
#: 14 563 pairs and allocated 7.9 MB beyond the workspaces; the cap of
#: 3 640 pairs brings it to 2.0 MB, next to 2.5 MB for a full 6-point batch.
MIN_PAIR_POINTS = 36
#: The near tier whose inner triangle is integrated in closed form
#: (:func:`_panel_integrals`) under the ``OUTER_ORDER`` x ``OUTER_ORDER``
#: collapsed Gauss rule (``quad.collapsed_rule``) on the row triangle.  A
#: closed-form pair counts as the square of its outer rule's points against
#: ``BATCH_POINT_PAIRS``.  On the 0.87/0.92 shells at subdivision 2, the 64
#: outer points of order 8 beat the 96 x 96 composite tensor rule on every
#: pair of the tier in all three integrals; the 36 of order 6 lost to it on
#: 31-48% of the pairs, where it was most accurate.
CLOSED_FORM_TIER = "6x16"
OUTER_ORDER = 8


@dataclass
class KernelBlock:
    """Dense Galerkin block of one boundary operator between two surfaces."""

    matrix: np.ndarray
    row_kind: Kind
    col_kind: Kind


def _thread_count() -> int:
    env = os.environ.get("SYMMBEM_THREADS", "").strip()
    if not env:
        return min(os.cpu_count() or 1, 8)
    if not env.isdecimal() or int(env) < 1:
        raise ValueError(f"SYMMBEM_THREADS must be a positive integer, got {env!r}")
    return int(env)


def curl_coefficient_matrices(mesh: TriangleMesh):
    """Sparse (n_cells x n_vertices) matrices of the per-cell surface-curl
    components of the vertex hat functions: curl of hat i on cell t is
    ``-e_i / (2 A_t)`` with ``e_i`` the opposite edge vector."""
    curls = -mesh.opposite_edges / (2.0 * mesh.areas)[:, None, None]
    nc, nv = mesh.num_triangles, mesh.num_vertices
    rows = np.repeat(np.arange(nc), 3)
    cols = mesh.triangles.ravel()
    return [
        sp.coo_matrix((curls[:, :, k].ravel(), (rows, cols)), shape=(nc, nv)).tocsr()
        for k in range(3)
    ]


def _touching_pairs(mesh: TriangleMesh):
    """Classify same-surface triangle pairs that share vertices.

    Returns ``(edge_pairs, edge_charts, vertex_pairs, vertex_charts)`` where
    the chart arrays hold global vertex ids reordered so the shared edge is
    (first, second) in both charts (same direction) or the shared vertex is
    first.
    """
    tri = mesh.triangles
    shared = mesh.shared_vertex_counts.tocoo()
    upper = shared.row < shared.col
    a = shared.row[upper]
    b = shared.col[upper]
    count = shared.data[upper]

    def charts(a_idx, b_idx, n_shared):
        ta, tb = tri[a_idx], tri[b_idx]
        eq = ta[:, :, None] == tb[:, None, :]
        in_b = eq.any(axis=2)  # mask over ta entries shared with tb
        in_a = eq.any(axis=1)
        shared_ids = ta[in_b].reshape(-1, n_shared)
        rest_a = ta[~in_b].reshape(-1, 3 - n_shared)
        rest_b = tb[~in_a].reshape(-1, 3 - n_shared)
        chart_a = np.concatenate([shared_ids, rest_a], axis=1)
        chart_b = np.concatenate([shared_ids, rest_b], axis=1)
        return chart_a, chart_b

    edge_sel = count == 2
    vert_sel = count == 1
    edge_pairs = np.stack([a[edge_sel], b[edge_sel]], axis=1)
    vertex_pairs = np.stack([a[vert_sel], b[vert_sel]], axis=1)
    edge_charts = charts(edge_pairs[:, 0], edge_pairs[:, 1], 2) if len(edge_pairs) else (None, None)
    vertex_charts = (
        charts(vertex_pairs[:, 0], vertex_pairs[:, 1], 1) if len(vertex_pairs) else (None, None)
    )
    return edge_pairs, edge_charts, vertex_pairs, vertex_charts


def assemble_operators(mesh_t: TriangleMesh, mesh_s: TriangleMesh) -> dict[str, KernelBlock]:
    """Assemble the four operator blocks between two surfaces in one sweep.

    Returns the blocks under the keys of ``TAGS``, rows on ``mesh_t`` and
    columns on ``mesh_s``:

    - ``S``, the single layer between patch spaces; symmetric positive
      definite on a single surface.
    - ``D``, the principal-value double layer, patch-tested with pyramid
      trial functions.  On a flat panel its kernel vanishes, so a cell's
      contribution to itself is zero and the trace jump is carried by the
      other panels.
    - ``Dstar``, the adjoint double layer (normal derivative at the
      observation point), pyramid-tested with patch trial functions.
    - ``N``, the hypersingular form between pyramid spaces, through
      integration by parts: kernel integrals against the surface curls of
      the hat functions.  Symmetric positive semi-definite on a single
      surface with the constants in its kernel; the second-derivative
      kernel is never evaluated.

    On a single surface every unordered triangle pair is integrated once for
    both orientations, so ``S`` is exactly symmetric and ``Dstar`` is the
    exact transpose of ``D``, returned as the view ``D.T``.  The quadrature
    is ``DEFAULT_QUADRATURE``, read at call time.
    """
    cfg = DEFAULT_QUADRATURE
    same = mesh_t is mesh_s

    nct, ncs = mesh_t.num_triangles, mesh_s.num_triangles
    nvt, nvs = mesh_t.num_vertices, mesh_s.num_vertices
    ig = np.zeros((nct, ncs))
    dmat = np.zeros((nct, nvs))
    dsmat = None if same else np.zeros((nvt, ncs))

    def accumulate(result):
        """Add one batch into the matrices; ``mirror`` also fills (col, row)."""
        rows, cols, vrows, vcols, mirror, s, d, ds = result
        ig[rows, cols] += s
        if mirror:
            ig[cols, rows] += s
        if d is None:
            return
        if mirror:  # pair (t, s)'s adjoint entries are pair (s, t)'s D entries
            flat = np.concatenate([rows[:, None] * nvs + vcols, cols[:, None] * nvs + vrows])
            np.add.at(dmat.reshape(-1), flat.ravel(), np.concatenate([d, ds]).ravel())
        else:
            np.add.at(dmat.reshape(-1), (rows[:, None] * nvs + vcols).ravel(), d.ravel())
            np.add.at(dsmat.reshape(-1), (vrows * ncs + cols[:, None]).ravel(), ds.ravel())

    workspace = _Workspace()
    batches = _regular_sweep(mesh_t, mesh_s, cfg, same, workspace)
    if same:
        batches = itertools.chain(batches, _singular_sweep(mesh_t, cfg, workspace))
    _run_batches(batches, accumulate)

    ck_t = curl_coefficient_matrices(mesh_t)
    ck_s = ck_t if same else curl_coefficient_matrices(mesh_s)
    nmat = np.zeros((nvt, nvs))
    for k in range(3):
        tmp = (ck_s[k].T @ ig.T).T  # (n_cells_t, n_verts_s) dense
        nmat += ck_t[k].T @ tmp
    if same:
        nmat = 0.5 * (nmat + nmat.T)
        dsmat = dmat.T
    return {
        "S": KernelBlock(ig, Kind.PATCH, Kind.PATCH),
        "D": KernelBlock(dmat, Kind.PATCH, Kind.PYRAMID),
        "Dstar": KernelBlock(dsmat, Kind.PYRAMID, Kind.PATCH),
        "N": KernelBlock(nmat, Kind.PYRAMID, Kind.PYRAMID),
    }


class _Workspace(threading.local):
    """Two float64 buffers per thread, allocated at first use and reused by
    every batch that thread evaluates."""

    def __init__(self):
        self.size = 0

    def buffers(self, shape):
        n = int(np.prod(shape))
        if n > self.size:
            self.a, self.b, self.size = np.empty(n), np.empty(n), n
        return self.a[:n].reshape(shape), self.b[:n].reshape(shape)


def _run_batches(batches, accumulate):
    """Evaluate the batch callables on the thread pool and accumulate each
    result on the calling thread, in batch order.

    At most ``nthreads + 1`` batches are in flight, so the pending results
    stay small; the order of the additions, and so every rounding, does not
    depend on the thread count.
    """
    nthreads = _thread_count()
    if nthreads == 1:
        for batch in batches:
            accumulate(batch())
        return
    with ThreadPoolExecutor(max_workers=nthreads) as pool:
        pending = deque()
        for batch in batches:
            pending.append(pool.submit(batch))
            if len(pending) > nthreads:
                accumulate(pending.popleft().result())
        while pending:
            accumulate(pending.popleft().result())


def _pair_kernel(r2, tmp, w, w9, scale, h_xy, h_yx):
    """Galerkin integrals of ``1/(4 pi r)`` and of both double-layer kernels
    for a batch of triangle pairs, from the squared distances of their
    quadrature point pairs.

    ``r2`` (points x pairs, pairs innermost so that every elementwise step
    runs along long rows) is consumed; ``tmp`` is a workspace of the same
    shape.  ``w`` holds the point-pair weights and ``w9`` the weights times
    the products of the two points' barycentric coordinates, flattened over
    (k, j), so that one small matmul gives the 3 x 3 moments
    ``M[k, j] = sum w x_k y_j / r^3`` of every pair.  On flat triangles the
    normal projection of ``x - y`` is a height over a plane: with ``h_xy[k]``
    (3 x pairs) the height of corner k of the x-triangle over the
    y-triangle's plane, ``(x - y) . n_y = sum_k x_k h_xy[k]``, and likewise
    with ``h_yx``.  The
    double layers are then ``D[j] = sum_k h_xy[k] M[k, j]`` and
    ``Dstar[i] = sum_k h_yx[k] M[i, k]``.  ``scale`` is the per-pair
    Jacobian over ``4 pi``.  Returns ``(S, D, Dstar)``; the last two are
    ``None`` when no heights are given.
    """
    np.sqrt(r2, out=tmp)
    np.divide(1.0, tmp, out=tmp)
    s = (w @ tmp) * scale
    if h_xy is None:
        return s, None, None
    np.divide(tmp, r2, out=r2)
    m = (w9.T @ r2).reshape(3, 3, -1) * scale
    d = (h_xy[:, None, :] * m).sum(axis=0)
    ds = (m * h_yx[None, :, :]).sum(axis=1)
    return s, d.T, ds.T


def _component_major(a):
    """Contiguous copy with the coordinate axis first and the cell (or pair)
    axis last, so that per-pair arithmetic runs along long inner loops:
    (cells, 3) -> (3, cells) and (cells, 3 corners, 3) -> (3, 3 corners, cells)."""
    return np.ascontiguousarray(a.T)


def _heights(rel, normals):
    """Heights over the planes of the given normals, per corner and pair
    (3 x pairs), of corners given relative to a point of that plane, from
    component-major inputs (3, 3, pairs) and (3, pairs)."""
    return (rel * normals[:, None, :]).sum(axis=0)


@dataclass
class _Panels:
    """Constants of the closed-form inner integrals (:func:`_panel_integrals`)
    per cell of one mesh, component-major with the cell axis last.

    Edge k of a cell is the edge opposite corner k, from corner k + 1 to
    corner k + 2, with length ``lengths[k]``.  ``dirs`` (3 components x 7 x
    cells) stacks the unit tangents of the three edges, their in-plane
    outward normals ``m_k = t_k x n`` and the unit normal n; ``origins``
    (7 x cells) holds each direction dotted with a corner on its line or
    plane (the start of edge k, and corner 0 for n), so that one product
    with a point x gives, relative to the projection of x, the offsets
    along each edge, the distances to the edge lines and the height of x.
    """

    dirs: np.ndarray
    origins: np.ndarray
    lengths: np.ndarray
    gram: np.ndarray  # (3, 3, cells): m_j . m_k
    areas: np.ndarray

    @classmethod
    def of(cls, mesh):
        edges = mesh.opposite_edges  # (cells, 3 edges, 3 components)
        lengths = np.linalg.norm(edges, axis=2)
        tangents = edges / lengths[:, :, None]
        normals = mesh.normals[:, None, :]
        edge_normals = np.cross(tangents, normals)
        dirs = np.concatenate([tangents, edge_normals, normals], axis=1)
        starts = mesh.corners[:, [1, 2, 0, 1, 2, 0, 0]]
        return cls(
            _component_major(dirs),
            np.ascontiguousarray((dirs * starts).sum(axis=2).T),
            np.ascontiguousarray(lengths.T),
            np.ascontiguousarray(np.einsum("cjd,ckd->jkc", edge_normals, edge_normals)),
            mesh.areas,
        )

    def take(self, cells):
        return _Panels(*(np.take(a, cells, axis=-1) for a in vars(self).values()))


def _panel_integrals(x, nx, pan, out=None):
    """Integrals over flat triangles, in closed form, at points off them.

    ``x`` (3, q, P) holds q points for each of the P cells in ``pan`` and
    ``nx`` (3, P) a unit normal per cell at those points; ``out`` is an
    optional pair of workspaces of shape (7, q, P).  With h the height of
    x over the plane, ``p_k`` its distance to the line of edge k (positive
    inside), ``s-``/``s+`` the edge's ends relative to the foot of that
    distance and ``R0 = sqrt(p_k^2 + h^2)``, the edge terms are
    ``f_k = asinh(s+/R0) - asinh(s-/R0)`` and the signed solid angle is
    ``W = 2 atan2(2 A h, R_0 R_1 R_2 + sum_k R_k (r_{k+1} . r_{k+2}))``
    (van Oosterom and Strackee 1983), with ``r_k`` the corners relative
    to x.  Returns, each of shape (q, P) or (3, q, P):

    - ``s = int_T 1/r = sum_k p_k f_k - h W`` (Wilton et al. 1984);
    - ``w = int_T h/r^3 = W``;
    - ``d[j] = int_T phi_j h/r^3 = (p_j W + h m_j . sum_k m_k f_k) L_j / 2A``
      for the hat ``phi_j`` of corner j (de Munck 1992), so that
      ``sum_j d[j] = W``;
    - ``ds = -n_x . int_T (x - y)/r^3 = -n_x . sum_k m_k f_k - (n . n_x) W``.

    ``R0`` is floored at ``eps`` times the edge length, below the rounding
    of p and h, so that points on an edge line away from the edge stay
    finite.
    """
    shape = (7,) + x.shape[1:]
    rel, tmp = out if out is not None else (np.empty(shape), np.empty(shape))
    np.multiply(x[0][None], pan.dirs[0][:, None, :], out=rel)
    for c in (1, 2):
        np.multiply(x[c][None], pan.dirs[c][:, None, :], out=tmp)
        np.add(rel, tmp, out=rel)
    np.subtract(pan.origins[:, None, :], rel, out=rel)
    sm, p, h = rel[:3], rel[3:6], -rel[6]
    lengths = pan.lengths[:, None, :]
    sp = sm + lengths
    r0 = np.sqrt(p * p + h * h)
    np.maximum(r0, np.finfo(float).eps * lengths, out=r0)
    f = np.arcsinh(sp / r0) - np.arcsinh(sm / r0)
    r0 *= r0
    corner = np.sqrt(sm * sm + r0)[[2, 0, 1]]  # |c_k - x|: corner k starts edge k - 1
    den = corner[0] * corner[1] * corner[2] + (corner * (sm * sp + r0)).sum(axis=0)
    area2 = 2.0 * pan.areas
    w = 2.0 * np.arctan2(area2 * h, den)
    s = (p * f).sum(axis=0) - h * w
    gf = (pan.gram[:, :, None, :] * f[None]).sum(axis=1)
    d = (p * w + h * gf) * (lengths / area2)
    mn = (pan.dirs[:, 3:6] * nx[:, None, :]).sum(axis=0)
    ds = -(mn[:, None, :] * f).sum(axis=0) - (pan.dirs[:, 6] * nx).sum(axis=0) * w
    return s, w, d, ds


@dataclass
class _TensorRule:
    """One tier's tensor rule on both meshes: component-major points
    ``(3, q, n_cells)`` and the point-pair weight vectors of
    :func:`_pair_kernel`."""

    pts_t: np.ndarray
    pts_s: np.ndarray
    w: np.ndarray
    w9: np.ndarray

    @property
    def shape(self):
        return self.pts_t.shape[1], self.pts_s.shape[1]


def _rule_points(mesh, bary):
    """Points of a barycentric rule on every cell, component-major
    ``(3, q, n_cells)``."""
    return np.stack([bary @ mesh.corners[:, :, d].T for d in range(3)])


def _tensor_rule(mesh_t, mesh_s, rule) -> _TensorRule:
    bary, wq = quad.TRI_RULES[rule]
    pts_t = _rule_points(mesh_t, bary)
    pts_s = pts_t if mesh_t is mesh_s else _rule_points(mesh_s, bary)
    wb = wq[:, None] * bary  # (q, 3)
    w9 = (wb[:, None, :, None] * wb[None, :, None, :]).reshape(len(wq) ** 2, 9)
    return _TensorRule(pts_t, pts_s, np.outer(wq, wq).ravel(), w9)


def _regular_sweep(mesh_t, mesh_s, cfg, same, workspace):
    """Sweep over disjoint triangle pairs, as batch callables.

    Tiers are classified in row blocks of at most ``BATCH_POINT_PAIRS``
    triangle pairs; each tier's pairs in a block are cut into batches of at
    most ``BATCH_POINT_PAIRS`` point pairs, a pair counting as at least
    ``MIN_PAIR_POINTS`` of them.  The ``CLOSED_FORM_TIER`` pairs integrate
    the inner triangle in closed form under the outer rule of ``OUTER_ORDER``
    on the row triangle, and count as the tensor product of that rule with
    itself; the other tiers use tensor rules.  On a single surface only
    pairs t < s that share no vertex are visited, and each fills both
    orientations; the touching pairs are left to the singular sweep.
    """
    rules = [rule for _, rule in cfg.near_tiers] + [cfg.far_points]
    thresholds = np.array([t for t, _ in cfg.near_tiers])
    tensor = {r: _tensor_rule(mesh_t, mesh_s, r) for r in rules if r != CLOSED_FORM_TIER}
    corners_t = _component_major(mesh_t.corners)
    corners_s = _component_major(mesh_s.corners)
    nrm_t, nrm_s = _component_major(mesh_t.normals), _component_major(mesh_s.normals)
    scale_t, area_s = mesh_t.areas / FOUR_PI, mesh_s.areas
    tri_t, tri_s = mesh_t.triangles, mesh_s.triangles
    shared = mesh_t.shared_vertex_counts if same else None
    outer_bary, outer_w = quad.collapsed_rule(OUTER_ORDER)
    closed = {}  # outer points on mesh_t and panels of mesh_s, built at first use

    def batch(tr, rows, cols):
        qt, qs = tr.shape
        r2, tmp = workspace.buffers((qt, qs, len(rows)))
        x, y = np.take(tr.pts_t, rows, axis=2), np.take(tr.pts_s, cols, axis=2)
        for k in range(3):
            dst = r2 if k == 0 else tmp
            np.subtract(x[k][:, None, :], y[k][None, :, :], out=dst)
            np.multiply(dst, dst, out=dst)
            if k:
                np.add(r2, tmp, out=r2)
        ct, cs = np.take(corners_t, rows, axis=2), np.take(corners_s, cols, axis=2)
        h_ts = _heights(ct - cs[:, :1], np.take(nrm_s, cols, axis=1))
        h_st = _heights(cs - ct[:, :1], np.take(nrm_t, rows, axis=1))
        s, d, ds = _pair_kernel(
            r2.reshape(qt * qs, -1), tmp.reshape(qt * qs, -1), tr.w, tr.w9,
            scale_t[rows] * area_s[cols], h_ts, h_st,
        )
        return rows, cols, tri_t[rows], tri_s[cols], same, s, d, ds

    def closed_batch(rows, cols):
        x = np.take(closed["points"], rows, axis=2)
        s, _, d, ds = _panel_integrals(
            x, np.take(nrm_t, rows, axis=1), closed["panels"].take(cols),
            workspace.buffers((7,) + x.shape[1:]),
        )
        scale = scale_t[rows]
        s = (outer_w @ s) * scale
        d = np.matmul(outer_w, d) * scale
        ds = ((outer_w[:, None] * outer_bary).T @ ds) * scale
        return rows, cols, tri_t[rows], tri_s[cols], same, s, d.T, ds.T

    nct, ncs = mesh_t.num_triangles, mesh_s.num_triangles
    block = max(1, BATCH_POINT_PAIRS // ncs)
    for r0 in range(0, nct, block):
        r1 = min(r0 + block, nct)
        dist = np.linalg.norm(mesh_t.centroids[r0:r1, None, :] - mesh_s.centroids[None], axis=2)
        ratio = dist / np.maximum(mesh_t.diameters[r0:r1, None], mesh_s.diameters[None, :])
        tier = np.searchsorted(thresholds, ratio)  # == len(thresholds) for far pairs
        if same:
            tier[np.arange(ncs)[None, :] <= np.arange(r0, r1)[:, None]] = -1
            tier[shared[r0:r1].toarray() > 0] = -1
        for k, rule in enumerate(rules):
            ti, si = np.nonzero(tier == k)
            ti += r0
            if rule == CLOSED_FORM_TIER:
                if len(ti) and not closed:
                    closed["points"] = _rule_points(mesh_t, outer_bary)
                    closed["panels"] = _Panels.of(mesh_s)
                per = max(1, BATCH_POINT_PAIRS // len(outer_w) ** 2)
                make = closed_batch
            else:
                per = max(1, BATCH_POINT_PAIRS // max(len(tensor[rule].w), MIN_PAIR_POINTS))
                make = partial(batch, tensor[rule])
            for b0 in range(0, len(ti), per):
                yield partial(make, ti[b0 : b0 + per], si[b0 : b0 + per])


def _singular_sweep(mesh, cfg, workspace):
    """Regularized quadrature over touching same-surface pairs, as batch
    callables.

    Each unordered pair is visited once and fills both orientations.  The
    transformed point pairs are relative to the shared vertex (first chart
    vertex): ``x - v = bx @ (corners - v)``, one small matmul per component,
    so the distances keep their relative accuracy as the points close in on
    the singularity.
    """
    order = cfg.singular_order
    verts = mesh.vertices
    areas = mesh.areas
    nrm = _component_major(mesh.normals)

    def batch(pmap, w, w9, ca, cb, pa, pb, coincident):
        r2, tmp = workspace.buffers((len(pmap), len(pa)))
        ea = _component_major(verts[ca] - verts[ca[:, :1]])
        eb = _component_major(verts[cb] - verts[cb[:, :1]])
        for k in range(3):
            dst = r2 if k == 0 else tmp
            np.matmul(pmap, np.concatenate([ea[k], eb[k]]), out=dst)
            np.multiply(dst, dst, out=dst)
            if k:
                np.add(r2, tmp, out=r2)
        h_ab = h_ba = None
        if not coincident:  # flat panels: no double layer on themselves
            h_ab = _heights(ea, np.take(nrm, pb, axis=1))
            h_ba = _heights(eb, np.take(nrm, pa, axis=1))
        s, d, ds = _pair_kernel(r2, tmp, w, w9, areas[pa] * areas[pb] / np.pi, h_ab, h_ba)
        return pa, pb, ca, cb, not coincident, s, d, ds

    def rule_of(category):
        """The (points, 6) map from the stacked corner offsets of both
        triangles to ``x - y``, and the weights of :func:`_pair_kernel`."""
        bx, by, w = quad.sauter_schwab_rule(category, order)
        w9 = ((w[:, None] * bx)[:, :, None] * by[:, None, :]).reshape(len(w), 9)
        return np.concatenate([bx, -by], axis=1), w, w9

    tri = mesh.triangles
    rule = rule_of(quad.COINCIDENT)
    per = max(1, BATCH_POINT_PAIRS // len(rule[1]))
    for c0 in range(0, mesh.num_triangles, per):
        cells = np.arange(c0, min(c0 + per, mesh.num_triangles))
        yield partial(batch, *rule, tri[cells], tri[cells], cells, cells, True)

    edge_pairs, edge_charts, vertex_pairs, vertex_charts = _touching_pairs(mesh)
    for pairs, (chart_a, chart_b), category in (
        (edge_pairs, edge_charts, quad.EDGE),
        (vertex_pairs, vertex_charts, quad.VERTEX),
    ):
        rule = rule_of(category)
        per = max(1, BATCH_POINT_PAIRS // len(rule[1]))
        for p0 in range(0, len(pairs), per):
            sl = slice(p0, p0 + per)
            yield partial(
                batch, *rule, chart_a[sl], chart_b[sl], pairs[sl, 0], pairs[sl, 1], False
            )
