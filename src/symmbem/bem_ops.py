"""Galerkin assembly of the four Laplace boundary operators on surface pairs.

:func:`assemble_operators` is the one way into the operator blocks: it
assembles the single layer ``S``, the double layer ``D``, its adjoint
``Dstar`` and the hypersingular form ``N`` between two surfaces together.
All four share one quadrature pass per surface pair: the pure kernel
integrals feed the single layer directly and the hypersingular operator
through its integration-by-parts rewrite, while the kernel gradient feeds
both double layers.

Every triangle pair integrated under a pair rule of
:mod:`symmbem._quadrature` goes through one batch function,
:func:`_tensor_batch`: the touching pairs of a surface (coincident, edge
and vertex) under the regularizing transforms, and the disjoint pairs
under the tensor Gauss rule of their distance tier.  It maps the stacked
corner offsets of both triangles, taken relative to the row triangle's
first corner, to the point differences ``x - y`` with one small matmul per
component, and hands their squared lengths to the pair kernel
(:func:`_pair_kernel`).  The nearly touching disjoint pairs
(``CLOSED_FORM_TIER``) are integrated otherwise: the inner integrals over
the column triangle of ``1/r``, of the hat-weighted double-layer kernel
and of the kernel gradient are taken in closed form (Wilton et al. 1984;
de Munck 1992) at the points of a collapsed Gauss rule on the row
triangle, one pass of :func:`_panel_integrals` per batch.

The regular sweep (disjoint pairs) and the singular sweep (touching pairs)
cut their triangle pairs into batches of at most ``BATCH_POINT_PAIRS``
kernel evaluations, in an order fixed by the meshes alone.  Each batch is
evaluated on the calling thread in arrays of its own, reading only the
mesh caches and :class:`_Sweep`, and added into the matrices in that
order.  A batch is dozens of small numpy calls, and a pool of threads
bought little for its memory: on a 2-core host with one BLAS thread, two
threads assembled the three-shell head at subdivision 2 no faster than
one (0.69-0.80 s against 0.67-0.78 s) and at subdivision 3 in 4.9 s
against 5.9 s, while the second thread's malloc arena raised the peak
resident memory by 8-9 MB.  On a single surface each unordered triangle
pair is integrated once and fills both orientations: the single layer is
exactly symmetric and the adjoint double layer is the exact transpose of
the double layer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

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

#: Kernel evaluations (point pairs) per batch.  Every batch holds as many
#: triangle pairs as fit in this budget, at least one; the regular sweep
#: also classifies its tiers in row blocks of at most this many triangle
#: pairs.  Each batch allocates its own two float64 point-pair arrays of at
#: most this length (1 MB each) and shares none with another batch.
#: At 2**18 the sphere subdivision-3 assembly peaked 37 MB higher for no
#: measurable speed; much smaller batches pay numpy's per-call overhead on
#: too little work (a closed-form batch holds 32 pairs here).
BATCH_POINT_PAIRS = 2**17
#: A triangle pair counts as at least this many point pairs against the
#: budget, because its per-pair arrays (corner offsets, heights and
#: the three kernel results) cost memory whatever its rule.  On the sphere
#: at subdivision 3, a 3-point batch filled by point pairs alone held
#: 14 563 pairs and allocated 7.9 MB beyond its point-pair arrays; the cap of
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


def curl_coefficient_matrices(mesh: TriangleMesh):
    """Sparse (n_cells x n_vertices) matrices of the per-cell surface-curl
    components of the vertex hat functions: curl of hat i on cell t is
    ``-e_i / (2 A_t)`` with ``e_i`` the opposite edge vector."""
    curls = -mesh.opposite_edges / (2.0 * mesh.areas)[:, None, None]
    return [mesh.corner_matrix(curls[:, :, k]) for k in range(3)]


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

    sweep = _Sweep(mesh_t, mesh_s)
    batches = _regular_sweep(mesh_t, mesh_s, cfg, same, sweep)
    if same:
        batches = itertools.chain(batches, _singular_sweep(mesh_t, cfg, sweep))
    # add each batch into the matrices; ``mirror`` also fills (col, row)
    for rows, cols, vrows, vcols, mirror, s, d, ds in batches:
        ig[rows, cols] += s
        if mirror:
            ig[cols, rows] += s
        if d is None:
            continue
        if mirror:  # pair (t, s)'s adjoint entries are pair (s, t)'s D entries
            flat = np.concatenate([rows[:, None] * nvs + vcols, cols[:, None] * nvs + vrows])
            np.add.at(dmat.reshape(-1), flat.ravel(), np.concatenate([d, ds]).ravel())
        else:
            np.add.at(dmat.reshape(-1), (rows[:, None] * nvs + vcols).ravel(), d.ravel())
            np.add.at(dsmat.reshape(-1), (vrows * ncs + cols[:, None]).ravel(), ds.ravel())

    ck_t = curl_coefficient_matrices(mesh_t)
    ck_s = ck_t if same else curl_coefficient_matrices(mesh_s)
    nmat = np.zeros((nvt, nvs))
    for k in range(3):  # the sparse factor of each product is on the left, so ig is not copied
        nmat += (ck_s[k].T @ (ck_t[k].T @ ig).T).T
    if same:
        nmat = 0.5 * (nmat + nmat.T)
        dsmat = dmat.T
    return {
        "S": KernelBlock(ig, Kind.PATCH, Kind.PATCH),
        "D": KernelBlock(dmat, Kind.PATCH, Kind.PYRAMID),
        "Dstar": KernelBlock(dsmat, Kind.PYRAMID, Kind.PATCH),
        "N": KernelBlock(nmat, Kind.PYRAMID, Kind.PYRAMID),
    }


def _pair_kernel(r2, tmp, w, w9, scale, h_xy, h_yx):
    """Galerkin integrals of ``1/(4 pi r)`` and of both double-layer kernels
    for a batch of triangle pairs, from the squared distances of their
    quadrature point pairs.

    ``r2`` (points x pairs, pairs innermost so that every elementwise step
    runs along long rows) is consumed; ``tmp`` is scratch of the same
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


def _panel_integrals(x, nx, mesh, cells):
    """Integrals over flat triangles, in closed form, at points off them.

    ``x`` (3, q, P) holds q points for each of the P triangles ``cells`` of
    ``mesh`` and ``nx`` (3, P) a unit normal per cell at those points.  Edge
    k of a cell is the edge opposite corner k, from corner k + 1 to corner
    k + 2.  The constants of each cell are taken from the mesh's caches:
    ``dirs`` (3 components x 7 x P) stacks the unit tangents of the three
    edges, their in-plane outward normals ``m_k = t_k x n`` and the unit
    normal n; ``origins`` (7 x P) holds each direction dotted with a corner
    on its line or plane (the start of edge k, and corner 0 for n), so that
    one product with a point x gives, relative to the projection of x, the
    offsets along each edge, the distances to the edge lines and the height
    of x.

    With h the height of x over the plane, ``p_k`` its distance to the line
    of edge k (positive inside), ``s-``/``s+`` the edge's ends relative to
    the foot of that distance and ``R0 = sqrt(p_k^2 + h^2)``, the edge terms
    are ``f_k = asinh(s+/R0) - asinh(s-/R0)`` and the signed solid angle is
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
    edges = mesh.opposite_edges[cells]  # (P, 3 edges, 3 components)
    normals = mesh.normals[cells][:, None, :]
    lengths = np.linalg.norm(edges, axis=2)
    tangents = edges / lengths[:, :, None]
    edge_normals = np.cross(tangents, normals)
    dirs = np.concatenate([tangents, edge_normals, normals], axis=1)
    origins = _component_major((dirs * mesh.corners[cells][:, [1, 2, 0, 1, 2, 0, 0]]).sum(axis=2))
    gram = np.ascontiguousarray(np.einsum("cjd,ckd->jkc", edge_normals, edge_normals))  # m_j . m_k
    dirs = _component_major(dirs)
    lengths = _component_major(lengths)[:, None, :]
    rel, tmp = np.empty((2, 7) + x.shape[1:])
    np.multiply(x[0][None], dirs[0][:, None, :], out=rel)
    for c in (1, 2):
        np.multiply(x[c][None], dirs[c][:, None, :], out=tmp)
        np.add(rel, tmp, out=rel)
    np.subtract(origins[:, None, :], rel, out=rel)
    sm, p, h = rel[:3], rel[3:6], -rel[6]
    sp = sm + lengths
    r0 = np.sqrt(p * p + h * h)
    np.maximum(r0, np.finfo(float).eps * lengths, out=r0)
    f = np.arcsinh(sp / r0) - np.arcsinh(sm / r0)
    r0 *= r0
    corner = np.sqrt(sm * sm + r0)[[2, 0, 1]]  # |c_k - x|: corner k starts edge k - 1
    den = corner[0] * corner[1] * corner[2] + (corner * (sm * sp + r0)).sum(axis=0)
    area2 = 2.0 * mesh.areas[cells]
    w = 2.0 * np.arctan2(area2 * h, den)
    s = (p * f).sum(axis=0) - h * w
    gf = (gram[:, :, None, :] * f[None]).sum(axis=1)
    d = (p * w + h * gf) * (lengths / area2)
    mn = (dirs[:, 3:6] * nx[:, None, :]).sum(axis=0)
    ds = -(mn[:, None, :] * f).sum(axis=0) - (dirs[:, 6] * nx).sum(axis=0) * w
    return s, w, d, ds


def _pair_rule(bx, by, w):
    """A pair rule ``(bary_x, bary_y, weights)`` of :mod:`symmbem._quadrature`
    as :func:`_tensor_batch` applies it: the (points, 6) map from the stacked
    corner offsets of both triangles to ``x - y``, and the weights of
    :func:`_pair_kernel`."""
    w9 = ((w[:, None] * bx)[:, :, None] * by[:, None, :]).reshape(len(w), 9)
    return np.concatenate([bx, -by], axis=1), w, w9


def _batch_slices(n_pairs, n_points):
    """Consecutive slices of triangle pairs, each of at most
    ``BATCH_POINT_PAIRS`` point pairs, a pair of ``n_points`` counting as at
    least ``MIN_PAIR_POINTS`` of them."""
    per = max(1, BATCH_POINT_PAIRS // max(n_points, MIN_PAIR_POINTS))
    return [slice(b, b + per) for b in range(0, n_pairs, per)]


class _Sweep:
    """What the batches of one surface pair read besides their own arrays
    and the mesh caches: the vertices of both meshes in one component-major
    array, those of ``mesh_s`` after those of ``mesh_t`` unless they are one
    mesh, and the component-major cell normals and the cell areas of each.
    Nothing here is written after construction."""

    def __init__(self, mesh_t, mesh_s):
        same = mesh_t is mesh_s
        self.offset = 0 if same else mesh_t.num_vertices
        vertices = mesh_t.vertices if same else np.concatenate([mesh_t.vertices, mesh_s.vertices])
        self.vertices = _component_major(vertices)
        self.normals_t = _component_major(mesh_t.normals)
        self.normals_s = self.normals_t if same else _component_major(mesh_s.normals)
        self.areas_t, self.areas_s = mesh_t.areas, mesh_s.areas


def _tensor_batch(sweep, rule, ca, cb, pa, pb, mirror, double_layer):
    """Galerkin integrals of a batch of triangle pairs under one pair rule
    (:func:`_pair_rule`): a tier's tensor Gauss rule or a regularizing
    transform of touching pairs.

    Row triangle ``pa[i]`` of ``mesh_t`` has the corners ``ca[i]`` and column
    triangle ``pb[i]`` of ``mesh_s`` the corners ``cb[i]``, both as vertex
    ids in the rule's chart order.  Corners are taken relative to the row
    triangle's first corner, which for a touching pair is the shared
    vertex, so that ``x - y`` is one small matmul per component of the rule's
    map with the stacked offsets, and the distances keep their relative
    accuracy as the points close in on a singularity.  The same offsets
    give the heights of :func:`_pair_kernel` when ``double_layer`` is set.
    ``mirror`` asks the accumulation to fill the (column, row) entries too.
    """
    pmap, w, w9 = rule
    e = np.take(sweep.vertices, np.concatenate([ca.T, cb.T + sweep.offset]), axis=1)
    e -= e[:, :1]  # (3 components, 6 corners, pairs), from the first corner
    r2, tmp = np.empty((2, len(pmap), len(pa)))
    for k in range(3):
        dst = r2 if k == 0 else tmp
        np.matmul(pmap, e[k], out=dst)
        np.multiply(dst, dst, out=dst)
        if k:
            np.add(r2, tmp, out=r2)
    h_ab = h_ba = None
    if double_layer:
        ea, eb = e[:, :3], e[:, 3:]
        h_ab = _heights(ea - eb[:, :1], np.take(sweep.normals_s, pb, axis=1))
        h_ba = _heights(eb, np.take(sweep.normals_t, pa, axis=1))
    scale = sweep.areas_t[pa] * sweep.areas_s[pb] / np.pi  # (2 A_a)(2 A_b) / (4 pi)
    s, d, ds = _pair_kernel(r2, tmp, w, w9, scale, h_ab, h_ba)
    return pa, pb, ca, cb, mirror, s, d, ds


def _tier_blocks(mesh_t, mesh_s, thresholds, same):
    """The distance tier of every triangle pair, in row blocks of at most
    ``BATCH_POINT_PAIRS`` pairs.

    Yields ``(r0, codes)``: ``codes[i, s]`` (int8) counts the thresholds
    below the ratio of the centroid distance of pair ``(r0 + i, s)`` to the
    larger of the two element diameters, the index that
    ``np.searchsorted(thresholds, ratio)`` gives, and so
    ``len(thresholds)`` for the far pairs.  On a single surface
    the pairs t >= s and the touching pairs get -1.  The squared distances
    are summed one component at a time, ``dx^2 + dy^2 + dz^2``, the order
    in which ``np.linalg.norm(axis=-1)`` sums them, in two reused block
    buffers.
    """
    ct, cs = _component_major(mesh_t.centroids), _component_major(mesh_s.centroids)
    nct, ncs = mesh_t.num_triangles, mesh_s.num_triangles
    block = max(1, BATCH_POINT_PAIRS // ncs)
    buffers = np.empty((2, min(block, nct), ncs))
    for r0 in range(0, nct, block):
        r1 = min(r0 + block, nct)
        dist, tmp = buffers[:, : r1 - r0]
        for k in range(3):
            dst = dist if k == 0 else tmp
            np.subtract(ct[k, r0:r1, None], cs[k], out=dst)
            np.multiply(dst, dst, out=dst)
            if k:
                np.add(dist, tmp, out=dist)
        np.sqrt(dist, out=dist)
        np.maximum(mesh_t.diameters[r0:r1, None], mesh_s.diameters, out=tmp)
        np.divide(dist, tmp, out=dist)
        codes = np.zeros(dist.shape, np.int8)
        for t in thresholds:
            codes += dist > t
        if same:
            codes[np.tri(r1 - r0, ncs, r0, dtype=bool)] = -1
            codes[mesh_t.shared_vertex_counts[r0:r1].nonzero()] = -1
        yield r0, codes


def _regular_sweep(mesh_t, mesh_s, cfg, same, sweep):
    """Sweep over disjoint triangle pairs, as batch results.

    Tiers are classified in row blocks by :func:`_tier_blocks`, whose codes
    one stable argsort per block groups by tier in row-major order, and
    each tier's pairs in a block are cut into batches by
    :func:`_batch_slices`.  The tensor tiers go through
    :func:`_tensor_batch` with the tensor product of their triangle rule
    (``quad.tensor_pair_rule``).  The ``CLOSED_FORM_TIER`` pairs integrate
    the inner triangle in closed form (:func:`_panel_integrals`) at the
    points of the outer rule of ``OUTER_ORDER`` on the row triangle, and
    count as the tensor product of that rule with itself.  On a single
    surface only pairs t < s that share no vertex are visited, and each
    fills both orientations; the touching pairs are left to the singular
    sweep.
    """
    tiers = [rule for _, rule in cfg.near_tiers] + [cfg.far_points]
    thresholds = [t for t, _ in cfg.near_tiers]
    rules = {r: _pair_rule(*quad.tensor_pair_rule(r)) for r in tiers if r != CLOSED_FORM_TIER}
    tri_t, tri_s = mesh_t.triangles, mesh_s.triangles
    outer_bary, outer_w = quad.collapsed_rule(OUTER_ORDER)

    def closed_batch(rows, cols):
        x = outer_bary @ np.take(sweep.vertices, tri_t[rows].T, axis=1)  # (3, q, pairs)
        s, _, d, ds = _panel_integrals(x, np.take(sweep.normals_t, rows, axis=1), mesh_s, cols)
        scale = sweep.areas_t[rows] / FOUR_PI
        s = (outer_w @ s) * scale
        d = np.matmul(outer_w, d) * scale
        ds = ((outer_w[:, None] * outer_bary).T @ ds) * scale
        return rows, cols, tri_t[rows], tri_s[cols], same, s, d.T, ds.T

    ncs = mesh_s.num_triangles
    for r0, codes in _tier_blocks(mesh_t, mesh_s, thresholds, same):
        order = np.argsort(codes, axis=None, kind="stable")
        ends = np.cumsum(np.bincount(codes.ravel() + 1, minlength=len(tiers) + 1))
        for k, name in enumerate(tiers):  # code k sits at order[ends[k]:ends[k + 1]]
            ti, si = np.divmod(order[ends[k] : ends[k + 1]], ncs)
            ti += r0
            if name == CLOSED_FORM_TIER:
                for sl in _batch_slices(len(ti), len(outer_w) ** 2):
                    yield closed_batch(ti[sl], si[sl])
                continue
            rule = rules[name]
            for sl in _batch_slices(len(ti), len(rule[1])):
                rows, cols = ti[sl], si[sl]
                yield _tensor_batch(
                    sweep, rule, tri_t[rows], tri_s[cols], rows, cols, same, True,
                )


def _singular_sweep(mesh, cfg, sweep):
    """Regularized quadrature over touching same-surface pairs, as batch
    results of :func:`_tensor_batch`.

    Each unordered pair is visited once; the charts of ``_touching_pairs``
    put the shared vertex first, and the edge and vertex pairs fill both
    orientations.  Coincident pairs carry no double layer, whose kernel
    vanishes on a flat panel.
    """
    cells = np.arange(mesh.num_triangles)
    edge_pairs, edge_charts, vertex_pairs, vertex_charts = _touching_pairs(mesh)
    for category, pairs, (ca, cb) in (
        (quad.COINCIDENT, np.stack([cells, cells], axis=1), (mesh.triangles,) * 2),
        (quad.EDGE, edge_pairs, edge_charts),
        (quad.VERTEX, vertex_pairs, vertex_charts),
    ):
        rule = _pair_rule(*quad.sauter_schwab_rule(category, cfg.singular_order))
        distinct = category != quad.COINCIDENT
        for sl in _batch_slices(len(pairs), len(rule[1])):
            yield _tensor_batch(
                sweep, rule, ca[sl], cb[sl], pairs[sl, 0], pairs[sl, 1], distinct, distinct,
            )
