"""Galerkin assembly of the four Laplace boundary operators on surface pairs.

All four operators share one quadrature sweep per surface pair: the pure
kernel integrals feed the single layer directly and the hypersingular
operator through its integration-by-parts rewrite, while the kernel
gradient feeds both double layers.  Touching triangle pairs (same surface)
go through the regularizing transforms in :mod:`symmbem._quadrature`;
disjoint pairs use plain tensor Gauss rules with a near-field upgrade.
"""

from __future__ import annotations

import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import _quadrature as quad
from .geometry import TriangleMesh
from .spaces import FunctionSpace, Kind

FOUR_PI = 4.0 * np.pi
TAGS = ("S", "D", "Dstar", "N")

_TAG_KINDS = {
    "S": (Kind.PATCH, Kind.PATCH),
    "D": (Kind.PATCH, Kind.PYRAMID),
    "Dstar": (Kind.PYRAMID, Kind.PATCH),
    "N": (Kind.PYRAMID, Kind.PYRAMID),
}


@dataclass(frozen=True)
class QuadratureConfig:
    """Quadrature selection per triangle pair.

    Touching pairs use the regularizing transforms at ``singular_order``
    points per dimension.  Disjoint pairs pick a tensor rule by the ratio of
    centroid distance to the larger element diameter: the first tier whose
    threshold exceeds the ratio wins, the ``far_points`` rule covers the
    rest.  The composite tiers keep nearly touching pairs (thin conductor
    gaps under one element diameter) as accurate as the far field.
    """

    far_points: int | str = 3
    near_tiers: tuple = ((0.9, "6x16"), (2.5, "6x4"), (5.0, 6))
    singular_order: int = 4


DEFAULT_QUADRATURE = QuadratureConfig()

#: point pairs per batch of the regular sweep.  A batch holds up to about
#: 100 bytes of short-lived arrays per point pair, ~50 MB at this size.
#: Larger batches fragment the heap: at 3e6 point pairs, peak RSS of a
#: build-and-solve run on the three-shell subdivision-2 model was ~75 MB
#: higher with the same live data.
REGULAR_BATCH_POINT_PAIRS = 500_000


@dataclass
class KernelBlock:
    """Dense Galerkin block of one boundary operator between two surfaces."""

    matrix: np.ndarray
    row_kind: Kind
    col_kind: Kind
    target: int
    source: int
    tag: str


def _thread_count() -> int:
    env = os.environ.get("SYMMBEM_THREADS", "").strip()
    if not env:
        return min(os.cpu_count() or 1, 8)
    if not env.isdecimal() or int(env) < 1:
        raise ValueError(f"SYMMBEM_THREADS must be a positive integer, got {env!r}")
    return int(env)


def _rule_points(mesh: TriangleMesh, npts: int):
    bary, w = quad.TRI_RULES[npts]
    pts = np.einsum("qk,tkd->tqd", bary, mesh.corners)
    wts = w[None, :] * mesh.areas[:, None]
    return pts, wts, bary


def curl_coefficient_matrices(mesh: TriangleMesh):
    """Sparse (n_cells x n_vertices) matrices of the per-cell surface-curl
    components of the vertex hat functions: curl of hat i on cell t is
    ``-e_i / (2 A_t)`` with ``e_i`` the opposite edge vector."""
    c = mesh.corners
    e = np.empty_like(c)
    e[:, 0] = c[:, 2] - c[:, 1]
    e[:, 1] = c[:, 0] - c[:, 2]
    e[:, 2] = c[:, 1] - c[:, 0]
    curls = -e / (2.0 * mesh.areas)[:, None, None]
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
    nc, nv = mesh.num_triangles, mesh.num_vertices
    vinc = sp.coo_matrix(
        (np.ones(3 * nc), (tri.ravel(), np.repeat(np.arange(nc), 3))), shape=(nv, nc)
    ).tocsr()
    shared = (vinc.T @ vinc).tocoo()
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
    mesh_t: TriangleMesh,
    mesh_s: TriangleMesh,
    which=TAGS,
    quadrature: QuadratureConfig | None = None,
    target_index: int = 0,
    source_index: int = 0,
) -> dict[str, KernelBlock]:
    """Assemble the requested operator blocks between two surfaces in one sweep.

    This is the shared-quadrature path: on a single surface the two double
    layers are filled from identical point sets, so ``Dstar`` is the exact
    transpose of ``D``.
    """
    cfg = quadrature or DEFAULT_QUADRATURE
    same = mesh_t is mesh_s
    need_ig = ("S" in which) or ("N" in which)
    need_d = "D" in which
    need_ds = "Dstar" in which

    nct, ncs = mesh_t.num_triangles, mesh_s.num_triangles
    nvt, nvs = mesh_t.num_vertices, mesh_s.num_vertices
    ig = np.zeros((nct, ncs)) if need_ig else None
    dmat = np.zeros((nct, nvs)) if need_d else None
    dsmat = np.zeros((nvt, ncs)) if need_ds else None

    excluded = _regular_sweep(mesh_t, mesh_s, cfg, same, ig, dmat, dsmat)
    if same:
        _singular_sweep(mesh_t, cfg, ig, dmat, dsmat, excluded)

    out: dict[str, KernelBlock] = {}
    if "S" in which:
        s = ig.copy()
        if same:
            s = 0.5 * (s + s.T)
        out["S"] = KernelBlock(s, Kind.PATCH, Kind.PATCH, target_index, source_index, "S")
    if "N" in which:
        ck_t = curl_coefficient_matrices(mesh_t)
        ck_s = ck_t if same else curl_coefficient_matrices(mesh_s)
        nmat = np.zeros((nvt, nvs))
        for k in range(3):
            tmp = (ck_s[k].T @ ig.T).T  # (n_cells_t, n_verts_s) dense
            nmat += ck_t[k].T @ tmp
        if same:
            nmat = 0.5 * (nmat + nmat.T)
        out["N"] = KernelBlock(nmat, Kind.PYRAMID, Kind.PYRAMID, target_index, source_index, "N")
    if need_d:
        out["D"] = KernelBlock(dmat, Kind.PATCH, Kind.PYRAMID, target_index, source_index, "D")
    if need_ds:
        out["Dstar"] = KernelBlock(
            dsmat, Kind.PYRAMID, Kind.PATCH, target_index, source_index, "Dstar"
        )
    return out


def _regular_sweep(mesh_t, mesh_s, cfg, same, ig, dmat, dsmat):
    """Tensor-Gauss sweep over disjoint triangle pairs (chunked, threaded).

    Returns the set of same-surface touching pairs (sparse bool) that were
    excluded and must be handled by the singular sweep.
    """
    rules = [rule for _, rule in cfg.near_tiers] + [cfg.far_points]
    thresholds = np.array([t for t, _ in cfg.near_tiers])
    rule_data = {}
    for rule in rules:
        if rule not in rule_data:
            data_t = _rule_points(mesh_t, rule)
            data_s = data_t if same else _rule_points(mesh_s, rule)
            rule_data[rule] = (data_t, data_s)

    touch = None
    if same:
        tri = mesh_t.triangles
        nc, nv = mesh_t.num_triangles, mesh_t.num_vertices
        vinc = sp.coo_matrix(
            (np.ones(3 * nc), (tri.ravel(), np.repeat(np.arange(nc), 3))), shape=(nv, nc)
        ).tocsr()
        touch = ((vinc.T @ vinc) > 0).tocsr()

    cent_t, cent_s = mesh_t.centroids, mesh_s.centroids
    diam_t, diam_s = mesh_t.diameters, mesh_s.diameters
    tri_t, tri_s = mesh_t.triangles, mesh_s.triangles
    nrm_t, nrm_s = mesh_t.normals, mesh_s.normals
    nvs, ncs = mesh_s.num_vertices, mesh_s.num_triangles

    chunk = max(1, min(mesh_t.num_triangles, int(4e6) // max(ncs, 1) + 1))
    chunks = [
        (r, min(r + chunk, mesh_t.num_triangles))
        for r in range(0, mesh_t.num_triangles, chunk)
    ]

    def eval_pairs(rows, cols, pts_t, wts_t, pts_s, wts_s, bary_t, bary_s):
        """Kernel sums for a flat batch of pairs; returns contribution arrays."""
        X = pts_t[rows]
        Y = pts_s[cols]
        d = X[:, :, None, :] - Y[:, None, :, :]
        r2 = np.einsum("bghd,bghd->bgh", d, d)
        r = np.sqrt(r2)
        invr = 1.0 / (FOUR_PI * r)
        ww = wts_t[rows][:, :, None] * wts_s[cols][:, None, :]
        out_ig = np.einsum("bgh,bgh->b", ww, invr)
        out_d = out_ds = None
        invr3 = invr / r2
        if dmat is not None:
            kd = np.einsum("bghd,bd->bgh", d, nrm_s[cols]) * invr3
            out_d = np.einsum("bgh,bgh,hj->bj", ww, kd, bary_s)
        if dsmat is not None:
            ks = np.einsum("bghd,bd->bgh", d, nrm_t[rows]) * invr3
            out_ds = -np.einsum("bgh,bgh,gi->bi", ww, ks, bary_t)
        return out_ig, out_d, out_ds

    def work(bounds):
        r0, r1 = bounds
        dist = np.linalg.norm(cent_t[r0:r1, None, :] - cent_s[None, :, :], axis=2)
        ratio = dist / np.maximum(diam_t[r0:r1, None], diam_s[None, :])
        tier = np.searchsorted(thresholds, ratio)  # == len(tiers) for far pairs
        if touch is not None:
            tier[touch[r0:r1].toarray().astype(bool)] = -1
        results = []
        for k, rule in enumerate(rules):
            (pts_t, wts_t, bary_t), (pts_s, wts_s, bary_s) = rule_data[rule]
            npoint = bary_t.shape[0] * bary_s.shape[0]
            budget = max(256, REGULAR_BATCH_POINT_PAIRS // npoint)
            ti, si = np.nonzero(tier == k)
            ti = ti + r0
            for s0 in range(0, len(ti), budget):
                rows = ti[s0 : s0 + budget]
                cols = si[s0 : s0 + budget]
                out_ig, out_d, out_ds = eval_pairs(
                    rows, cols, pts_t, wts_t, pts_s, wts_s, bary_t, bary_s
                )
                results.append((rows, cols, out_ig, out_d, out_ds))
        return results

    nthreads = _thread_count()
    if nthreads > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=nthreads) as pool:
            futures = [pool.submit(work, c) for c in chunks]
            batches = [f.result() for f in futures]  # submission order: deterministic
    else:
        batches = [work(c) for c in chunks]

    for results in batches:
        for rows, cols, out_ig, out_d, out_ds in results:
            if ig is not None:
                ig[rows, cols] += out_ig
            if out_d is not None:
                flat = rows[:, None] * nvs + tri_s[cols]
                np.add.at(dmat.reshape(-1), flat.ravel(), out_d.ravel())
            if out_ds is not None:
                flat = tri_t[rows] * ncs + cols[:, None]
                np.add.at(dsmat.reshape(-1), flat.ravel(), out_ds.ravel())
    return touch


def _singular_sweep(mesh, cfg, ig, dmat, dsmat, touch):
    """Regularized quadrature over touching same-surface pairs.

    Each unordered pair is visited once and fills both orientations, so the
    two double layers come from identical point sets (exact transposes).
    """
    order = cfg.singular_order
    verts = mesh.vertices
    areas = mesh.areas
    normals = mesh.normals
    tri = mesh.triangles
    nv, nc = mesh.num_vertices, mesh.num_triangles

    # coincident pairs: flat panels make both double-layer kernels vanish
    bx, by, w = quad.sauter_schwab_rule(quad.COINCIDENT, order)
    budget = max(1, int(2e6) // len(w))
    for c0 in range(0, nc, budget):
        cells = np.arange(c0, min(c0 + budget, nc))
        corners = mesh.corners[cells]
        X = np.einsum("mk,pkd->pmd", bx, corners)
        Y = np.einsum("mk,pkd->pmd", by, corners)
        r = np.linalg.norm(X - Y, axis=2)
        vals = (4.0 * areas[cells] ** 2) * (w[None, :] / (FOUR_PI * r)).sum(axis=1)
        if ig is not None:
            ig[cells, cells] += vals

    edge_pairs, (edge_ca, edge_cb), vertex_pairs, (vert_ca, vert_cb) = _touching_pairs(mesh)

    for pairs, charts, category in (
        (edge_pairs, (edge_ca, edge_cb), quad.EDGE),
        (vertex_pairs, (vert_ca, vert_cb), quad.VERTEX),
    ):
        if len(pairs) == 0:
            continue
        bx, by, w = quad.sauter_schwab_rule(category, order)
        chart_a, chart_b = charts
        budget = max(1, int(2e6) // len(w))
        for p0 in range(0, len(pairs), budget):
            pa = pairs[p0 : p0 + budget, 0]
            pb = pairs[p0 : p0 + budget, 1]
            ca = chart_a[p0 : p0 + budget]
            cb = chart_b[p0 : p0 + budget]
            corners_a = verts[ca]
            corners_b = verts[cb]
            X = np.einsum("mk,pkd->pmd", bx, corners_a)
            Y = np.einsum("mk,pkd->pmd", by, corners_b)
            d = X - Y
            r2 = np.einsum("pmd,pmd->pm", d, d)
            r = np.sqrt(r2)
            invr = 1.0 / (FOUR_PI * r)
            scale = 4.0 * areas[pa] * areas[pb]
            if ig is not None:
                v = scale * np.einsum("m,pm->p", w, invr)
                ig[pa, pb] += v
                ig[pb, pa] += v
            if dmat is None and dsmat is None:
                continue
            invr3 = invr / r2
            kd = np.einsum("pmd,pd->pm", d, normals[pb]) * invr3
            ks = -np.einsum("pmd,pd->pm", d, normals[pa]) * invr3
            vals_d = scale[:, None] * np.einsum("m,pm,mj->pj", w, kd, by)
            vals_ds = scale[:, None] * np.einsum("m,pm,mi->pi", w, ks, bx)
            if dmat is not None:
                np.add.at(dmat.reshape(-1), (pa[:, None] * nv + cb).ravel(), vals_d.ravel())
                np.add.at(dmat.reshape(-1), (pb[:, None] * nv + ca).ravel(), vals_ds.ravel())
            if dsmat is not None:
                np.add.at(dsmat.reshape(-1), (ca * nc + pb[:, None]).ravel(), vals_ds.ravel())
                np.add.at(dsmat.reshape(-1), (cb * nc + pa[:, None]).ravel(), vals_d.ravel())


def _check_kinds(space: FunctionSpace, kind: Kind, role: str, op: str):
    if space.kind is not kind:
        raise ValueError(f"{op} expects a {kind.value} space as {role}")


def assemble_single_layer(
    target: FunctionSpace, source: FunctionSpace, quadrature=None, target_index=0, source_index=0
) -> KernelBlock:
    """Patch-tested weakly singular kernel integrals; SPD on a single surface."""
    _check_kinds(target, Kind.PATCH, "target", "single layer")
    _check_kinds(source, Kind.PATCH, "source", "single layer")
    return assemble_operators(
        target.mesh, source.mesh, ("S",), quadrature, target_index, source_index
    )["S"]


def assemble_double_layer(
    target: FunctionSpace, source: FunctionSpace, quadrature=None, target_index=0, source_index=0
) -> KernelBlock:
    """Principal-value double layer, patch-tested with piecewise-linear trial.

    On the shared surface the self-cell contribution is dropped: on a flat
    panel the kernel is identically zero there, and the trace jump is
    carried by the remaining panels (principal-value convention).
    """
    _check_kinds(target, Kind.PATCH, "target", "double layer")
    _check_kinds(source, Kind.PYRAMID, "source", "double layer")
    return assemble_operators(
        target.mesh, source.mesh, ("D",), quadrature, target_index, source_index
    )["D"]


def assemble_adjoint_double_layer(
    target: FunctionSpace, source: FunctionSpace, quadrature=None, target_index=0, source_index=0
) -> KernelBlock:
    """Adjoint double layer: normal derivative taken at the observation point."""
    _check_kinds(target, Kind.PYRAMID, "target", "adjoint double layer")
    _check_kinds(source, Kind.PATCH, "source", "adjoint double layer")
    return assemble_operators(
        target.mesh, source.mesh, ("Dstar",), quadrature, target_index, source_index
    )["Dstar"]


def assemble_hypersingular(
    target: FunctionSpace, source: FunctionSpace, quadrature=None, target_index=0, source_index=0
) -> KernelBlock:
    """Hypersingular form via integration by parts: kernel integrals against
    surface curls of the hat functions.  Symmetric PSD on a single surface
    with constants in the kernel; the raw second-derivative kernel is never
    evaluated."""
    _check_kinds(target, Kind.PYRAMID, "target", "hypersingular")
    _check_kinds(source, Kind.PYRAMID, "source", "hypersingular")
    return assemble_operators(
        target.mesh, source.mesh, ("N",), quadrature, target_index, source_index
    )["N"]


_HEADER = struct.Struct("<8siiii")


def write_block(block: KernelBlock, path) -> None:
    """Binary dump: 8-byte tag, int32 (target, source, rows, cols), row-major
    little-endian float64 data."""
    m = np.ascontiguousarray(block.matrix, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(
            _HEADER.pack(
                block.tag.encode().ljust(8, b"\0"),
                block.target,
                block.source,
                m.shape[0],
                m.shape[1],
            )
        )
        fh.write(m.tobytes())


def read_block(path) -> KernelBlock:
    with open(path, "rb") as fh:
        tag_b, target, source, rows, cols = _HEADER.unpack(fh.read(_HEADER.size))
        data = np.frombuffer(fh.read(rows * cols * 8), dtype="<f8").reshape(rows, cols)
    tag = tag_b.rstrip(b"\0").decode()
    if tag not in _TAG_KINDS:
        raise ValueError(f"unknown operator tag {tag!r} in {path}")
    row_kind, col_kind = _TAG_KINDS[tag]
    return KernelBlock(data.copy(), row_kind, col_kind, target, source, tag)
