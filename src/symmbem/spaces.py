"""Piecewise-constant and piecewise-linear spaces, Gram matrices, dual Gram.

The Gram builders return the scipy CSR matrix itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.sparse as sp

from .geometry import TriangleMesh


class Kind(Enum):
    PATCH = "patch"      # piecewise constant, one dof per cell
    PYRAMID = "pyramid"  # continuous piecewise linear, one dof per vertex


@dataclass(frozen=True)
class FunctionSpace:
    mesh: TriangleMesh
    kind: Kind


def patch_space(mesh: TriangleMesh) -> FunctionSpace:
    return FunctionSpace(mesh, Kind.PATCH)


def pyramid_space(mesh: TriangleMesh) -> FunctionSpace:
    return FunctionSpace(mesh, Kind.PYRAMID)


def gram_p0(space: FunctionSpace) -> sp.csr_matrix:
    """Diagonal patch Gram: entry (n, n) is the area of triangle n."""
    if space.kind is not Kind.PATCH:
        raise ValueError("gram_p0 expects a patch space")
    areas = space.mesh.areas
    if np.any(areas <= 0):
        raise ValueError("mesh has a degenerate triangle")
    return sp.diags(areas).tocsr()


def gram_p1(space: FunctionSpace) -> sp.csr_matrix:
    """Consistent pyramid mass matrix: per triangle A/6 diagonal, A/12 off."""
    if space.kind is not Kind.PYRAMID:
        raise ValueError("gram_p1 expects a pyramid space")
    mesh = space.mesh
    areas = mesh.areas
    if np.any(areas <= 0):
        raise ValueError("mesh has a degenerate triangle")
    t = mesh.triangles
    n = mesh.num_vertices
    rows, cols, vals = [], [], []
    for i in range(3):
        for j in range(3):
            rows.append(t[:, i])
            cols.append(t[:, j])
            vals.append(areas * (1.0 / 6.0 if i == j else 1.0 / 12.0))
    m = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    ).tocsr()
    return (m + m.T) * 0.5  # symmetrize exactly


def barycentric_refinement(mesh: TriangleMesh):
    """Six-way barycentric refinement on which :func:`mixed_gram_dual` is assembled.

    Returns ``(ref_vertices, ref_triangles, coefficients)`` where
    ``coefficients`` is the sparse ``(n_ref_vertices, n_cells)`` matrix whose
    column m holds the nodal values of the dual piecewise-linear function of
    cell m on the refinement: 1 at the cell barycenter, 1/2 at the midpoints
    of its edges, 1/valence at its primal vertices.  Rows sum to one: at
    every refinement node the dual functions sum to one, so they partition
    unity.
    """
    nv = mesh.num_vertices
    nc = mesh.num_triangles
    t = mesh.triangles

    edges = mesh.edges
    edge_index = {(int(a), int(b)): k for k, (a, b) in enumerate(edges)}
    ne = len(edges)

    mid = 0.5 * (mesh.vertices[edges[:, 0]] + mesh.vertices[edges[:, 1]])
    bary = mesh.centroids
    ref_vertices = np.concatenate([mesh.vertices, mid, bary])

    def eid(a, b):
        return edge_index[(a, b) if a < b else (b, a)]

    ref_triangles = np.empty((6 * nc, 3), dtype=np.int64)
    for c in range(nc):
        v0, v1, v2 = (int(x) for x in t[c])
        m01 = nv + eid(v0, v1)
        m12 = nv + eid(v1, v2)
        m20 = nv + eid(v2, v0)
        b = nv + ne + c
        ref_triangles[6 * c : 6 * c + 6] = [
            (v0, m01, b),
            (m01, v1, b),
            (v1, m12, b),
            (m12, v2, b),
            (v2, m20, b),
            (m20, v0, b),
        ]

    valence = mesh.vertex_triangle_count.astype(float)
    rows, cols, vals = [], [], []
    # primal vertices: 1/valence for each incident cell
    rows.append(t.ravel())
    cols.append(np.repeat(np.arange(nc), 3))
    vals.append(1.0 / valence[t.ravel()])
    # edge midpoints: 1/2 for each of the (exactly two) incident cells
    edge_rows, edge_cols = [], []
    for c in range(nc):
        v0, v1, v2 = (int(x) for x in t[c])
        for a, b in ((v0, v1), (v1, v2), (v2, v0)):
            edge_rows.append(nv + eid(a, b))
            edge_cols.append(c)
    rows.append(np.array(edge_rows))
    cols.append(np.array(edge_cols))
    vals.append(np.full(len(edge_rows), 0.5))
    # barycenters: 1 for the owning cell
    rows.append(nv + ne + np.arange(nc))
    cols.append(np.arange(nc))
    vals.append(np.ones(nc))

    coefficients = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(len(ref_vertices), nc),
    ).tocsr()
    return ref_vertices, ref_triangles, coefficients


def mixed_gram_dual(mesh: TriangleMesh) -> sp.csr_matrix:
    """Cell-by-cell Gram between dual piecewise-linear and patch functions.

    Entry (m, n) is the integral of the dual function of cell m over cell n.
    Column sums equal the cell areas, because the dual functions partition
    unity.  Row sums are the dual-function masses
    A_m/3 + sum_edges (A_m + A_n)/18 + sum_v (1/N_v) sum_{c contains v} A_c/9,
    which equal the cell areas only where neighbouring cells have equal
    areas.  That holds on the icosahedron.  Its subdivisions have cells of
    unequal area (up to 19% apart at one subdivision), and there the masses
    differ from the areas by up to 6%.  The barycentric refinement is built
    transiently and discarded.

    No solver calls this: the preconditioner's cell rows use the patch Gram
    diag(areas) and the two-point-flux Laplacian, which live on the primal
    mesh.  It remains as a reference for the dual functions.
    """
    ref_vertices, ref_triangles, coeff = barycentric_refinement(mesh)
    ref = TriangleMesh(ref_vertices, ref_triangles)
    if np.any(ref.areas <= 0):
        raise ValueError("degenerate triangle in barycentric refinement")
    # Integral of each refinement hat over each parent cell: area/3 per
    # refined triangle corner, accumulated onto the owning cell.
    nc = mesh.num_triangles
    owner = np.repeat(np.arange(nc), 6)
    rows = ref_triangles.ravel()
    cols = np.repeat(owner, 3)
    vals = np.repeat(ref.areas / 3.0, 3)
    hat_over_cell = sp.coo_matrix(
        (vals, (rows, cols)), shape=(len(ref_vertices), nc)
    ).tocsr()
    return (coeff.T @ hat_over_cell).tocsr()


def mixed_gram_p0_p1(mesh: TriangleMesh) -> sp.csr_matrix:
    """Gram between patch (rows) and pyramid (columns) bases: A/3 per corner."""
    nc = mesh.num_triangles
    rows = np.repeat(np.arange(nc), 3)
    cols = mesh.triangles.ravel()
    vals = np.repeat(mesh.areas / 3.0, 3)
    return sp.coo_matrix((vals, (rows, cols)), shape=(nc, mesh.num_vertices)).tocsr()
