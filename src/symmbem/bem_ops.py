"""Galerkin assembly of the four Laplace boundary operators on surface pairs.

:func:`assemble_operators` is the one way into the operator blocks: it
assembles the single layer ``S``, the double layer ``D``, its adjoint
``Dstar`` and the hypersingular form ``N`` between two surfaces together.
All four share one quadrature pass per surface pair: the pure kernel
integrals feed the single layer directly and the hypersingular operator
through its integration-by-parts rewrite, while the kernel gradient feeds
both double layers.  The caller names the blocks it needs: the kernel
integrals are always taken, since ``N`` is formed from ``S``, but the
double-layer work of a block not asked for (its corner heights, the
``1/r^3`` moments, its contractions and scatters, its dense matrix) is not
done.

Every triangle pair integrated under a pair rule of
:mod:`symmbem._quadrature` goes through one batch function,
:func:`_tensor_batch`: the touching pairs of a surface (coincident, edge
and vertex) under the regularizing transforms, and the disjoint pairs
under the tensor Gauss rule of their distance tier, but for the far pairs
of the row blocks where they dominate.  A pair rule is a quadratic form in
the offsets of the pair's distinct corners from the row triangle's first
corner (:func:`_pair_rule`), so the batch forms the dot products of those
offsets once per pair and gets the squared distances of all its point
pairs from one matrix product, which it hands to the pair kernel
(:func:`_pair_kernel`).  The nearly touching disjoint pairs
(``CLOSED_FORM_TIER``) are integrated otherwise: the inner integrals over
the column triangle of ``1/r``, of the hat-weighted double-layer kernel
and of the kernel gradient are taken in closed form (Wilton et al. 1984;
de Munck 1992) at the points of a collapsed Gauss rule on the row
triangle, one pass of :func:`_panel_integrals` per batch.

The regular sweep classifies the disjoint pairs in row blocks of at most
``BATCH_POINT_PAIRS`` pairs.  In a block whose far pairs are at least
``DENSE_FAR_SHARE`` of its pairs, as on finely meshed surfaces, the far
tier is integrated in dense arrays spanning the block's rows and the
columns it visits (:func:`_far_block`): the points of the far rule are
taken once per surface pair, every triangle pair of the block is
evaluated with no gather, and the result is masked to the far pairs and
added straight into the matrices, the double layers through one sparse
product per corner.  Such a row block is also the shape of block that
adaptive cross approximation compresses.

The regular sweep (its other disjoint pairs) and the singular sweep
(touching pairs) cut their triangle pairs into batches of at most
``BATCH_POINT_PAIRS`` kernel evaluations, in an order fixed by the meshes
alone.  Each batch is evaluated on the calling thread in arrays of its
own, reading only the mesh caches and :class:`_Sweep`, and added into the
sweep's matrices in that order.  A batch is dozens of small numpy calls, and a
pool of threads bought little for its memory: on a 2-core host with one
BLAS thread, two threads assembled the three-shell head at subdivision 2
no faster than one (0.69-0.80 s against 0.67-0.78 s) and at subdivision 3
in 4.9 s against 5.9 s, while the second thread's malloc arena raised the
peak resident memory by 8-9 MB.  On a single surface each unordered
triangle pair is integrated once and fills both orientations: the single
layer is exactly symmetric and the adjoint double layer is the exact
transpose of the double layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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
    itself integrates the pair.  The far pairs of a row block where they
    make at least ``DENSE_FAR_SHARE`` of its pairs take the ``far_points``
    rule in dense arrays spanning the block (:func:`_far_block`), the
    others in batches like the near tiers.  The tier named
    ``CLOSED_FORM_TIER`` (``"6x16"``, under 0.9 diameters) is integrated
    otherwise: its pairs, across thin conductor gaps, integrate the inner
    triangle in closed form under an ``OUTER_ORDER`` x ``OUTER_ORDER``
    collapsed Gauss rule on the row triangle.  The tier keeps the name,
    and ``TRI_RULES`` the rule, of the composite tensor rule it replaced,
    so that the pair census reads the same tiers.  Likewise the ``"6x4"``
    tier (under 2.5 diameters) keeps the name of the 6-point rule on four
    subtriangles, 24 points, that it once was; it is now Dunavant's
    19-point rule of degree 9, 361 point pairs per pair instead of 576,
    and no less accurate on the pairs it takes.  The near tiers keep
    nearly touching pairs as accurate as the far field.
    """

    far_points: int | str = 3
    near_tiers: tuple = ((0.9, "6x16"), (2.5, "6x4"), (5.0, 6))
    singular_order: int = 4


DEFAULT_QUADRATURE = QuadratureConfig()

#: Kernel evaluations (point pairs) per batch.  Every batch holds as many
#: triangle pairs as fit in this budget, at least one; the regular sweep
#: also classifies its tiers in row blocks of at most this many triangle
#: pairs, and the hypersingular form is taken from the single layer in
#: blocks of ``BATCH_POINT_PAIRS // n_cells_s`` vertex rows
#: (:func:`_hypersingular`), whose products hold at most this many values
#: each.  Each batch allocates its own two float64 point-pair arrays of at
#: most this length (1 MB each) and shares none with another batch.  Beside
#: them a tensor batch holds the 15 x pairs Gram array of its corner offsets
#: (:func:`_tensor_batch`), at most 15 / ``MIN_PAIR_POINTS`` of one of them.
#: A dense far block (:func:`_far_block`) spans one row block, so each of
#: its arrays holds at most this many values (:func:`pair_bytes`).
#: At 2**18 the sphere subdivision-3 assembly peaked 37 MB higher for no
#: measurable speed; much smaller batches pay numpy's per-call overhead on
#: too little work (a closed-form batch holds 32 pairs here).
BATCH_POINT_PAIRS = 2**17
#: A triangle pair counts as at least this many point pairs against the
#: budget, because its per-pair arrays (corner offsets, their Gram array,
#: heights and the three kernel results) cost memory whatever its rule.  Only
#: the far tier's 9-point pairs reach it, in the row blocks below
#: ``DENSE_FAR_SHARE``.  On the sphere at subdivision 3, a 3-point batch
#: filled by point pairs alone held 14 563 pairs and allocated 7.9 MB beyond
#: its point-pair arrays; the cap of 3 640 pairs brings it to 2.0 MB, next to
#: 2.5 MB for a full 6-point batch.
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
#: A row block of the regular sweep whose far pairs are at least this share
#: of its pairs integrates them densely (:func:`_far_block`), every pair of
#: the block evaluated, instead of batching them like the near tiers.  On
#: one BLAS thread the two cost the same at a share of 0.37-0.57 (from the
#: icosphere surface pairs at subdivisions 2 and 3, with and without the
#: double layers); their row blocks sit at 0.17-0.30 at subdivision 2 and
#: at 0.46-0.84 at subdivision 3 (the last self-pair block at 0.01).
DENSE_FAR_SHARE = 0.5


@dataclass
class KernelBlock:
    """Dense Galerkin block of one boundary operator between two surfaces."""

    matrix: np.ndarray
    row_kind: Kind
    col_kind: Kind


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


def assemble_operators(
    mesh_t: TriangleMesh, mesh_s: TriangleMesh, blocks=TAGS
) -> dict[str, KernelBlock]:
    """Assemble the operator blocks ``blocks`` between two surfaces in one sweep.

    Returns the blocks named in ``blocks`` (keys of ``TAGS``, all four by
    default) and no others, in the order of ``TAGS``, rows on ``mesh_t`` and
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
      the hat functions (``TriangleMesh.curls``), formed from ``S`` in
      blocks of vertex rows of the batch budget (:func:`_hypersingular`)
      and, on a single surface, symmetrised in place in the same blocks.
      Symmetric positive semi-definite on a single surface with the
      constants in its kernel; the second-derivative kernel is never
      evaluated.

    ``Dstar`` is the view ``.T`` of the reversed pair's C-ordered double
    layer (cells of ``mesh_s`` x vertices of ``mesh_t``).  On a single
    surface every unordered triangle pair is integrated once for both
    orientations, so ``S`` is exactly symmetric and ``Dstar`` is ``D.T``:
    either one costs the double-layer work of both.  Between two surfaces
    ``D`` and ``Dstar`` each cost their own.  A requested block holds the
    same bits whatever else is requested.  The quadrature is
    ``DEFAULT_QUADRATURE``, read at call time.
    """
    unknown = set(blocks) - set(TAGS)
    if unknown:
        raise ValueError(f"unknown operator blocks {sorted(unknown)}; choose from {TAGS}")
    cfg = DEFAULT_QUADRATURE
    sweep = _Sweep(mesh_t, mesh_s, blocks)
    _regular_sweep(mesh_t, mesh_s, cfg, sweep)
    if sweep.same:
        _singular_sweep(mesh_t, cfg, sweep)
    nmat = _hypersingular(mesh_t, mesh_s, sweep.ig) if "N" in blocks else None
    parts = {
        "S": (sweep.ig, Kind.PATCH, Kind.PATCH),
        "D": (sweep.dmat, Kind.PATCH, Kind.PYRAMID),
        "Dstar": (sweep.adj, Kind.PYRAMID, Kind.PATCH),
        "N": (nmat, Kind.PYRAMID, Kind.PYRAMID),
    }
    return {tag: KernelBlock(*parts[tag]) for tag in TAGS if tag in blocks}


def pair_bytes(mesh_t: TriangleMesh, mesh_s: TriangleMesh, blocks=TAGS) -> int:
    """Bytes :func:`assemble_operators` holds at once for ``blocks``: the
    matrices of its :class:`_Sweep`, plus the larger of two transients.
    The sweeps hold 4 + 14 planes of ``BATCH_POINT_PAIRS`` doubles with a
    double layer and 4 + 5 without (a dense far block's 14 or 5, its row
    block's distances, tier codes and masks, and its scatter; at most 17.2
    and 7.8 were seen at the default budget).  Then ``N`` is formed
    (:func:`_hypersingular`): ``N`` and, per block of b rows, ``C_t^T S``
    (b x n_c), its C-ordered transpose and the term (n_v x b)."""
    d, ds = _Sweep.double_layers(mesh_t is mesh_s, blocks)
    nct, ncs = mesh_t.num_triangles, mesh_s.num_triangles
    nvt, nvs = mesh_t.num_vertices, mesh_s.num_vertices
    held = nct * ncs + d * nct * nvs + (ds and mesh_t is not mesh_s) * ncs * nvt
    sweeps = (4 + (14 if d or ds else 5)) * BATCH_POINT_PAIRS
    rows = min(nvt, max(1, BATCH_POINT_PAIRS // ncs))
    forming_n = nvt * nvs + rows * (2 * ncs + nvs) if "N" in blocks else 0
    return 8 * (held + max(sweeps, forming_n))


def _hypersingular(mesh_t, mesh_s, ig):
    """``N = sum_k C_t,k^T S C_s,k`` from the single layer ``ig`` and the
    surface curls ``C_k`` of both meshes (``TriangleMesh.curls``), in blocks
    of vertex rows of ``mesh_t``, each ``BATCH_POINT_PAIRS // n_cells_s``
    rows (at least one), so that no product spans all rows.  A block's term
    is ``(C_s^T (C_t^T[rows] S)^T)^T``: the CSR row slice of ``C_t^T``
    (``TriangleMesh.transposed_curls``) times S, then ``C_s^T`` times that
    product's transpose, of which scipy makes a C-ordered copy.  The
    sparse factor is on the left of both products, so S is never copied.
    On a single surface N is then symmetrised in place, in the same row
    blocks, each entry to ``0.5 * (N_ij + N_ji)``."""
    n_rows = mesh_t.num_vertices
    block = max(1, BATCH_POINT_PAIRS // mesh_s.num_triangles)
    nmat = np.zeros((n_rows, mesh_s.num_vertices))
    for r0 in range(0, n_rows, block):
        for ct, cs in zip(mesh_t.transposed_curls, mesh_s.curls):
            nmat[r0 : r0 + block] += (cs.T @ (ct[r0 : r0 + block] @ ig).T).T
    if mesh_t is mesh_s:
        for r0 in range(0, n_rows, block):
            r1 = r0 + block
            sym = nmat[r0:r1, r0:] + nmat[r0:, r0:r1].T
            sym *= 0.5
            nmat[r0:r1, r0:] = sym
            nmat[r0:, r0:r1] = sym.T
    return nmat


def _pair_kernel(r2, tmp, w, w9, scale, h_xy, h_yx):
    """Galerkin integrals of ``1/(4 pi r)`` and of both double-layer kernels
    for a batch of triangle pairs, from the squared distances of their
    quadrature point pairs.

    ``r2`` (points x pairs, pairs innermost so that every elementwise step
    runs along long rows) is consumed; ``tmp`` is scratch of the same
    shape.  One division turns ``r2`` into ``1/r^2``, its square root is
    ``1/r`` and their product ``1/r^3``.  ``w`` holds the point-pair weights
    and ``w9`` the weights times the products of the two points'
    barycentric coordinates, flattened over (k, j), so that one small
    matmul gives the 3 x 3 moments ``M[k, j] = sum w x_k y_j / r^3`` of
    every pair.  On flat triangles the
    normal projection of ``x - y`` is a height over a plane: with ``h_xy[k]``
    (3 x pairs) the height of corner k of the x-triangle over the
    y-triangle's plane, ``(x - y) . n_y = sum_k x_k h_xy[k]``, and likewise
    with ``h_yx``.  The
    double layers are then ``D[j] = sum_k h_xy[k] M[k, j]`` and
    ``Dstar[i] = sum_k h_yx[k] M[i, k]``.  ``scale`` is the per-pair
    Jacobian over ``4 pi``.  Returns ``(S, D, Dstar)``; each double layer is
    ``None`` when its heights are not given, and without either the
    moments are not formed.
    """
    np.divide(1.0, r2, out=r2)
    np.sqrt(r2, out=tmp)
    s = (w @ tmp) * scale
    if h_xy is None and h_yx is None:
        return s, None, None
    np.multiply(r2, tmp, out=r2)
    m = (w9.T @ r2).reshape(3, 3, -1) * scale
    d = None if h_xy is None else (h_xy[:, None, :] * m).sum(axis=0).T
    ds = None if h_yx is None else (m * h_yx[None, :, :]).sum(axis=1).T
    return s, d, ds


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


def _panel_integrals(x, nx, mesh, cells, want_d, want_ds):
    """Integrals over flat triangles, in closed form, at points off them.

    ``x`` (3, q, P) holds q points for each of the P triangles ``cells`` of
    ``mesh`` and ``nx`` (3, P) a unit normal per cell at those points,
    read only for ``ds``.  Edge k of a cell is the edge opposite corner k,
    from corner k + 1 to corner k + 2.  The constants of each cell are
    derived here, batch by batch, from the cells' rows of the mesh's
    ``opposite_edges``, ``normals`` and ``corners``:
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

    ``d`` is ``None`` unless ``want_d`` is set and ``ds`` unless ``want_ds``
    is, and the work of either is skipped when it is not asked for.

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
    d = ds = None
    if want_d:
        # m_j . m_k
        gram = np.ascontiguousarray(np.einsum("cjd,ckd->jkc", edge_normals, edge_normals))
        gf = (gram[:, :, None, :] * f[None]).sum(axis=1)
        d = (p * w + h * gf) * (lengths / area2)
    if want_ds:
        mn = (dirs[:, 3:6] * nx[:, None, :]).sum(axis=0)
        ds = -(mn[:, None, :] * f).sum(axis=0) - (dirs[:, 6] * nx).sum(axis=0) * w
    return s, w, d, ds


@lru_cache(maxsize=None)
def _pair_rule(category, order=None):
    """A pair rule ``(bary_x, bary_y, weights)`` of :mod:`symmbem._quadrature`,
    the touching ``category``'s at ``order`` or the tensor rule of the tier
    ``TRI_RULES[category]``, as :func:`_tensor_batch` applies it to pairs
    whose charts share their first ``shared`` corners (3 coincident, 2
    edge, 1 vertex, 0 disjoint).  Taken once per process, it is no surface
    pair's to build or hold.

    Over the pair's distinct corners, the row triangle's three and then the
    column triangle's last ``3 - shared``, the point map to ``x - y`` has the
    coefficients ``bx`` and ``-by``, a shared corner's two merged into
    ``bx_k - by_k``.  They sum to zero, so taken relative to the first
    corner ``x - y = sum_a c_a e_a`` over the ``n = 5 - shared`` remaining
    offsets ``e_a``, and ``|x - y|^2 = sum_{a <= b} C[q, ab] e_a . e_b``
    with ``C[q, ab] = c_a c_b``, doubled off the diagonal, over the
    ``n (n + 1) / 2`` pairs a <= b in row-major order.  Returns ``(C,
    weights, w9, shared)``, ``w9`` the moment weights of
    :func:`_pair_kernel`."""
    shared = {quad.COINCIDENT: 3, quad.EDGE: 2, quad.VERTEX: 1}.get(category, 0)
    rule = quad.sauter_schwab_rule(category, order) if shared else quad.tensor_pair_rule(category)
    bx, by, w = rule
    c = np.concatenate([bx[:, :shared] - by[:, :shared], bx[:, shared:], -by[:, shared:]], axis=1)
    a, b = np.triu_indices(5 - shared)
    form = c[:, 1:][:, a] * c[:, 1:][:, b] * np.where(a == b, 1.0, 2.0)
    w9 = ((w[:, None] * bx)[:, :, None] * by[:, None, :]).reshape(len(w), 9)
    return np.ascontiguousarray(form), w, w9, shared


def _batch_slices(n_pairs, n_points):
    """Consecutive slices of triangle pairs, each of at most
    ``BATCH_POINT_PAIRS`` point pairs, a pair of ``n_points`` counting as at
    least ``MIN_PAIR_POINTS`` of them."""
    per = max(1, BATCH_POINT_PAIRS // max(n_points, MIN_PAIR_POINTS))
    return [slice(b, b + per) for b in range(0, n_pairs, per)]


class _Sweep:
    """One surface pair's assembly.  Its batches read, besides their own
    arrays and the mesh caches, the vertices of both meshes in one
    component-major array (those of ``mesh_s`` after those of ``mesh_t``
    unless they are one mesh), the component-major cell normals and the
    areas of each, ``same``, and which double layers to integrate
    (:meth:`double_layers`).  Every integral is added where it is made
    into the single layer ``ig``, the double layer ``dmat`` and the
    reversed pair's double layer ``reverse``, whose transpose ``adj`` is
    ``Dstar`` (on a single surface ``reverse`` is ``dmat``): batches
    through :meth:`add`, dense far blocks directly."""

    def __init__(self, mesh_t, mesh_s, blocks):
        self.same = same = mesh_t is mesh_s
        self.d, self.ds = self.double_layers(same, blocks)
        self.offset = 0 if same else mesh_t.num_vertices
        vertices = mesh_t.vertices if same else np.concatenate([mesh_t.vertices, mesh_s.vertices])
        self.vertices = _component_major(vertices)
        self.normals_t = _component_major(mesh_t.normals)
        self.normals_s = self.normals_t if same else _component_major(mesh_s.normals)
        self.areas_t, self.areas_s = mesh_t.areas, mesh_s.areas
        nct, ncs = mesh_t.num_triangles, mesh_s.num_triangles
        self.ig = np.zeros((nct, ncs))
        self.dmat = np.zeros((nct, mesh_s.num_vertices)) if self.d else None
        reverse = self.dmat if same else np.zeros((ncs, mesh_t.num_vertices)) if self.ds else None
        self.reverse, self.adj = reverse, None if reverse is None else reverse.T

    @staticmethod
    def double_layers(same, blocks):
        """``(d, ds)``, whether ``blocks`` need the entries of ``D`` and of
        ``Dstar``: on a single surface, where each is the other's mirror, both."""
        d = "D" in blocks or (same and "Dstar" in blocks)
        return d, d if same else "Dstar" in blocks

    def add(self, rows, cols, vrows, vcols, mirror, s, d, ds):
        """Add the results of the triangle pairs ``(rows, cols)``, of vertex
        ids ``vrows`` and ``vcols``, ``s`` also at (cols, rows) if ``mirror``."""
        self.ig[rows, cols] += s
        if mirror:
            self.ig[cols, rows] += s
        if d is not None:
            flat = (rows[:, None] * self.dmat.shape[1] + vcols).ravel()
            np.add.at(self.dmat.reshape(-1), flat, d.ravel())
        if ds is not None:
            flat = (cols[:, None] * self.reverse.shape[1] + vrows).ravel()
            np.add.at(self.reverse.reshape(-1), flat, ds.ravel())


def _tensor_batch(sweep, rule, ca, cb, pa, pb, mirror, double_layer):
    """Galerkin integrals of a batch of triangle pairs under one pair rule
    (:func:`_pair_rule`): a tier's tensor Gauss rule or a regularizing
    transform of touching pairs.

    Row triangle ``pa[i]`` of ``mesh_t`` has the corners ``ca[i]`` and column
    triangle ``pb[i]`` of ``mesh_s`` the corners ``cb[i]``, both as vertex
    ids in the rule's chart order, the ``shared`` corners of the rule first
    in both.  The pair's distinct corners are gathered once and taken
    relative to the row triangle's first corner, which for a touching pair
    is a shared vertex; the dot products of the remaining offsets form the
    Gram array ``G`` (pairs a <= b x pairs), and the squared distances of
    all point pairs are the one product ``C @ G`` with the rule's quadratic
    form.  Merging the shared corners keeps the distances' relative
    accuracy as the points close in on a singularity.  When
    ``double_layer`` is set, the same offsets give the heights of
    :func:`_pair_kernel` for the double layers the sweep integrates.  The
    results are added into the sweep (:meth:`_Sweep.add`), with ``mirror``
    into the (column, row) entries too.
    """
    form, w, w9, shared = rule
    e = np.take(sweep.vertices, np.concatenate([ca.T, cb[:, shared:].T + sweep.offset]), axis=1)
    e -= e[:, :1]  # (3 components, distinct corners, pairs), from the first corner
    gram = np.empty((form.shape[1], len(pa)))
    row = 0
    for a in range(1, e.shape[1]):  # e_a . e_b for b >= a, one slice of rows per a
        np.einsum("kbp,kp->bp", e[:, a:], e[:, a], out=gram[row : row + e.shape[1] - a])
        row += e.shape[1] - a
    r2, tmp = np.empty((2, len(w), len(pa)))
    np.matmul(form, gram, out=r2)
    h_ab = h_ba = None
    if double_layer and shared:  # the six chart corners, the shared ones repeated
        e = e[:, [0, 1, 2, *range(shared), *range(3, 6 - shared)]]
    if double_layer and sweep.d:
        h_ab = _heights(e[:, :3] - e[:, 3:4], np.take(sweep.normals_s, pb, axis=1))
    if double_layer and sweep.ds:
        h_ba = _heights(e[:, 3:], np.take(sweep.normals_t, pa, axis=1))
    scale = sweep.areas_t[pa] * sweep.areas_s[pb] / np.pi  # (2 A_a)(2 A_b) / (4 pi)
    sweep.add(pa, pb, ca, cb, mirror, *_pair_kernel(r2, tmp, w, w9, scale, h_ab, h_ba))


def _tier_blocks(mesh_t, mesh_s, thresholds, same):
    """The distance tier of every visited triangle pair, in row blocks of at
    most ``BATCH_POINT_PAIRS`` pairs.

    Yields ``(r0, c0, codes)``: ``codes[i, j]`` (int8) counts the thresholds
    below the ratio of the centroid distance of pair ``(r0 + i, c0 + j)``
    to the larger of the two element diameters, the index that
    ``np.searchsorted(thresholds, ratio)`` gives, and so
    ``len(thresholds)`` for the far pairs.  Between two surfaces a block
    spans every column (``c0 = 0``); on a single surface it spans the
    columns ``s >= r0`` (``c0 = r0``), and the pairs t >= s and the
    touching pairs get -1.  The squared distances are summed one component
    at a time, ``dx^2 + dy^2 + dz^2``, the order in which
    ``np.linalg.norm(axis=-1)`` sums them, in two reused block buffers,
    each offset a broadcast fill and an in-place subtraction.
    """
    ct, cs = _component_major(mesh_t.centroids), _component_major(mesh_s.centroids)
    nct, ncs = mesh_t.num_triangles, mesh_s.num_triangles
    block = max(1, BATCH_POINT_PAIRS // ncs)
    buffers = np.empty((2, min(block, nct) * ncs))
    for r0 in range(0, nct, block):
        r1 = min(r0 + block, nct)
        c0 = r0 if same else 0
        dist, tmp = buffers[:, : (r1 - r0) * (ncs - c0)].reshape(2, r1 - r0, ncs - c0)
        for k in range(3):
            dst = dist if k == 0 else tmp
            np.copyto(dst, ct[k, r0:r1, None])
            dst -= cs[k, c0:]
            np.multiply(dst, dst, out=dst)
            if k:
                np.add(dist, tmp, out=dist)
        np.sqrt(dist, out=dist)
        np.maximum(mesh_t.diameters[r0:r1, None], mesh_s.diameters[c0:], out=tmp)
        np.divide(dist, tmp, out=dist)
        codes = np.zeros(dist.shape, np.int8)
        for t in thresholds:
            codes += dist > t
        if same:
            codes[np.tri(r1 - r0, ncs - c0, dtype=bool)] = -1
            touching = mesh_t.shared_vertex_counts[r0:r1].tocoo()
            after = touching.col >= c0
            codes[touching.row[after], touching.col[after] - c0] = -1
        yield r0, c0, codes


def _far_rule(rule, mesh_t, mesh_s):
    """What :func:`_far_block` reads on a surface pair, taken once per pair:
    ``(bary, weights, points_t, points_s, corner_maps, triangles_t)``.
    ``bary`` (q x 3) and ``weights`` (q x q) are the barycentric points of
    ``TRI_RULES[rule]`` and the weights of its tensor product
    (``quad.tensor_pair_rule``); ``points_t`` and ``points_s`` hold the
    points on every cell of each mesh, component-major (3 x q x cells);
    ``corner_maps[c]`` is the sparse (cells x vertices) map of each cell of
    ``mesh_s`` to its corner c; ``triangles_t`` gives the adjoint the
    vertices of the row cells."""
    bary, w = quad.TRI_RULES[rule]
    points_t = _component_major(bary @ mesh_t.corners)
    points_s = points_t if mesh_t is mesh_s else _component_major(bary @ mesh_s.corners)
    ncs = mesh_s.num_triangles
    maps = [
        sp.csr_matrix(
            (np.ones(ncs), mesh_s.triangles[:, c], np.arange(ncs + 1)),
            shape=(ncs, mesh_s.num_vertices),
        )
        for c in range(3)
    ]
    return bary, 0.25 * np.outer(w, w), points_t, points_s, maps, mesh_t.triangles


def _far_block(sweep, far, r0, c0, mask):
    """Add the far pairs ``mask`` of one row block of :func:`_tier_blocks`,
    integrated under the far tier's tensor rule (:func:`_far_rule`), into the
    single layer, the double layer and the adjoint of the sweep.

    Every array spans the block, rows ``r0 : r0 + rows`` and columns
    ``c0 :``, whatever the tier of its pairs, and the loop runs over the
    q x q point pairs (a, b).  The squared distances come from
    per-coordinate differences of the points: a broadcast fill of the row
    point and an in-place subtraction of the column point, which numpy runs
    faster than one broadcast subtraction.  The tensor weights are
    products, ``w_ab = v_a v_b``, so one division gives ``w_ab^2 / r^2``,
    its square root ``w_ab / r`` and their product ``w_ab^3 / r^3``, which
    the double layers take with the factor ``1 / (v_a^2 v_b^2)`` folded
    into their heights and corner weights.  On a single surface the block's
    leading square holds the coincident pairs at distance 0: their ``r^2``
    is set to 1 before the division, and they are masked out with the
    other pairs that are not far.

    The double layers are corner-weighted sums.  With ``h_a`` the height of
    row point a over the column triangle's plane, taken once per (point,
    pair) from its difference to column point 0, which lies in that plane,
    ``K_b = sum_a h_a w_ab / r_ab^3`` and ``D[c] = sum_b bary[b, c] K_b``:
    for the 3-point rule, whose barycentric coordinates are ``1/6 +
    delta/2``, ``D[c] = R/6 + K_c/2`` with ``R = sum_b K_b``.  The adjoint
    swaps the roles of the two triangles: heights of the column points over
    the row triangle's plane, sums over the row points.  Each corner of
    ``D`` goes to the vertices by one sparse product with its corner map;
    the adjoint's three corners go through one product with the map of the
    block's row cells to their vertices, into the view ``sweep.adj``,
    ``dmat.T`` on a single surface, where each pair also fills its (s, t)
    entries: ``S`` mirrored, and the adjoint entries, which are the ``D``
    entries of pair (s, t).
    """
    bary, weights, points_t, points_s, maps, triangles_t = far
    rows, cols = mask.shape
    r1 = r0 + rows
    x, y = points_t[:, :, r0:r1, None], points_s[:, :, None, c0:]
    v2 = np.diag(weights)  # v_a^2
    q = len(v2)
    diff = np.empty((3, rows, cols))
    r2, inv, tmp = diff
    s = np.zeros(mask.shape)
    h = k = hs = ks = None
    if sweep.d:
        h = np.empty(mask.shape)
        k = np.zeros((q,) + mask.shape)
    if sweep.ds:
        hs = np.empty((q,) + mask.shape)
        ks = np.zeros((q,) + mask.shape)
    for a in range(q):
        for b in range(q):
            np.copyto(diff, x[:, a])
            diff -= y[:, b]
            if sweep.d and b == 0:
                np.einsum("kts,ks->ts", diff, sweep.normals_s[:, c0:] / v2[a], out=h)
            if sweep.ds and a == 0:
                np.einsum("kts,kt->ts", diff, sweep.normals_t[:, r0:r1] / v2[b], out=hs[b])
            np.multiply(diff, diff, out=diff)
            r2 += inv
            r2 += tmp
            if sweep.same:
                np.fill_diagonal(r2, 1.0)
            np.divide(weights[a, b] ** 2, r2, out=r2)
            np.sqrt(r2, out=inv)
            s += inv
            if sweep.d or sweep.ds:
                r2 *= inv
            if sweep.d:
                np.multiply(h, r2, out=tmp)
                k[b] += tmp
            if sweep.ds:
                np.multiply(hs[b], r2, out=tmp)
                ks[a] += tmp
    h = hs = None  # freed before the scatters allocate
    scale = np.multiply(sweep.areas_t[r0:r1, None], sweep.areas_s[c0:] / np.pi)
    scale *= mask
    s *= scale
    sweep.ig[r0:r1, c0:] += s
    if sweep.same:
        sweep.ig[c0:, r0:r1] += s.T
    corner_weights = bary / v2[:, None]
    if sweep.d:
        np.matmul(corner_weights.T, k.reshape(q, -1), out=diff.reshape(3, -1))
        diff *= scale
        for c in range(3):
            sweep.dmat[r0:r1] += diff[c] @ maps[c][c0:]
        k = None
    if sweep.ds:  # the heights of the column points were taken as (x - y) . n_t
        np.matmul(-corner_weights.T, ks.reshape(q, -1), out=diff.reshape(3, -1))
        diff *= scale
        vertices, local = np.unique(triangles_t[r0:r1], return_inverse=True)
        gather = sp.csc_matrix(
            (np.ones(3 * rows), local.reshape(rows, 3).T.ravel(), np.arange(3 * rows + 1)),
            shape=(len(vertices), 3 * rows),
        )
        sweep.adj[vertices, c0:] += gather @ diff.reshape(3 * rows, cols)


def _regular_sweep(mesh_t, mesh_s, cfg, sweep):
    """Integrate the disjoint triangle pairs into ``sweep``.

    Tiers are classified in row blocks by :func:`_tier_blocks`.  A block
    whose far pairs are at least ``DENSE_FAR_SHARE`` of its pairs
    integrates them in arrays spanning the block (:func:`_far_block`); in
    any other block the far tier is batched like the near tiers.  Each
    batched tier's pairs in a block are found in row-major order by
    ``np.nonzero`` on its code, and they are cut into batches by
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
    same = sweep.same
    tiers = [rule for _, rule in cfg.near_tiers] + [cfg.far_points]
    thresholds = [t for t, _ in cfg.near_tiers]
    rules = {r: _pair_rule(r) for r in tiers if r != CLOSED_FORM_TIER}
    far = None  # the far rule's points and maps, taken at the first dense block
    tri_t, tri_s = mesh_t.triangles, mesh_s.triangles
    outer_bary, outer_w = quad.collapsed_rule(OUTER_ORDER)

    def closed_batch(rows, cols):
        x = outer_bary @ np.take(sweep.vertices, tri_t[rows].T, axis=1)  # (3, q, pairs)
        nx = np.take(sweep.normals_t, rows, axis=1)
        s, _, d, ds = _panel_integrals(x, nx, mesh_s, cols, sweep.d, sweep.ds)
        scale = sweep.areas_t[rows] / FOUR_PI
        s = (outer_w @ s) * scale
        d = None if d is None else (np.matmul(outer_w, d) * scale).T
        ds = None if ds is None else (((outer_w[:, None] * outer_bary).T @ ds) * scale).T
        sweep.add(rows, cols, tri_t[rows], tri_s[cols], same, s, d, ds)

    for r0, c0, codes in _tier_blocks(mesh_t, mesh_s, thresholds, same):
        far_pairs = codes == len(thresholds)
        dense = np.count_nonzero(far_pairs) >= DENSE_FAR_SHARE * far_pairs.size
        if dense:
            if far is None:
                far = _far_rule(cfg.far_points, mesh_t, mesh_s)
            _far_block(sweep, far, r0, c0, far_pairs)
        for k, name in enumerate(tiers[:-1] if dense else tiers):
            ti, si = np.nonzero(codes == k)
            ti += r0
            si += c0
            if name == CLOSED_FORM_TIER:
                for sl in _batch_slices(len(ti), len(outer_w) ** 2):
                    closed_batch(ti[sl], si[sl])
                continue
            rule = rules[name]
            for sl in _batch_slices(len(ti), len(rule[1])):
                rows, cols = ti[sl], si[sl]
                _tensor_batch(sweep, rule, tri_t[rows], tri_s[cols], rows, cols, same, True)


def _singular_sweep(mesh, cfg, sweep):
    """Integrate the touching same-surface pairs into ``sweep`` under the
    regularizing transforms, in batches of :func:`_tensor_batch`.

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
        rule = _pair_rule(category, cfg.singular_order)
        distinct = category != quad.COINCIDENT
        for sl in _batch_slices(len(pairs), len(rule[1])):
            _tensor_batch(sweep, rule, ca[sl], cb[sl], *pairs[sl].T, distinct, distinct)
