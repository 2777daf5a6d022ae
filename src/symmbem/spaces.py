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

    The refinement nodes are the primal vertices, then the edge midpoints
    in ``mesh.edges`` order, then the cell barycenters.  Each cell finds
    its three midpoints through ``mesh.cell_edges``; both come from the
    mesh's half-edge census, so no edge lookup is built here.
    """
    v, t, e = mesh.vertices, mesh.triangles, mesh.edges
    nv, nc, ne = len(v), len(t), len(e)
    mid = nv + mesh.cell_edges  # midpoint of the edge (t[c, k], t[c, k + 1])
    ref_vertices = np.concatenate([v, 0.5 * (v[e[:, 0]] + v[e[:, 1]]), mesh.centroids])
    b = nv + ne + np.arange(nc)  # barycenter of cell c
    # cell c splits into (t_k, m_k, b) and (m_k, t_{k+1}, b) for k = 0, 1, 2
    ref_triangles = np.stack(
        [np.stack([t, mid], axis=2).reshape(nc, 6),
         np.stack([mid, t[:, [1, 2, 0]]], axis=2).reshape(nc, 6),
         np.repeat(b[:, None], 6, axis=1)],
        axis=2,
    ).reshape(6 * nc, 3)

    cells = np.repeat(np.arange(nc), 3)
    rows = [t.ravel(), mid.ravel(), b]
    cols = [cells, cells, np.arange(nc)]
    # 1/valence at primal vertices, 1/2 at edge midpoints, 1 at barycenters
    vals = [1.0 / mesh.vertex_triangle_count[t.ravel()], np.full(3 * nc, 0.5), np.ones(nc)]
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
