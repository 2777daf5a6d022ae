"""Sparse surface Laplacians: the cotangent stiffness on the vertex (primal)
functions and the two-point-flux stiffness on the cells (dual graph).

Both are assembled on the primal mesh itself; neither needs a refinement.
Both builders return the symmetric positive semi-definite scipy CSR matrix
itself, with the constants in its kernel.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .geometry import TriangleMesh


def primal_laplace_beltrami(mesh: TriangleMesh) -> sp.csr_matrix:
    """Cotangent stiffness of the vertex hat functions on the surface.

    Element matrix: K[i, j] = (e_i . e_j) / (4 A) with e_i the edge opposite
    vertex i, equivalent to -(cot a + cot b)/2 off-diagonal accumulation.
    """
    area = mesh.areas
    if np.any(area <= 0):
        raise ValueError("degenerate triangle")
    e = mesh.opposite_edges
    local = np.einsum("tid,tjd->tij", e, e) / (4.0 * area)[:, None, None]
    t = mesh.triangles
    shape = (len(t), 3, 3)
    rows = np.broadcast_to(t[:, :, None], shape).ravel()
    cols = np.broadcast_to(t[:, None, :], shape).ravel()
    n = mesh.num_vertices
    mat = sp.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    return (mat + mat.T) * 0.5


def dual_laplacian(mesh: TriangleMesh) -> sp.csr_matrix:
    """Two-point-flux stiffness of the cell (patch) functions.

    ``K = sum_edges (l_e / d_mn) (e_m - e_n)(e_m - e_n)^T`` over the edges of
    the mesh, with ``l_e`` the edge length and ``d_mn`` the distance between
    the centroids of the two cells m and n sharing the edge: the finite-volume
    Laplacian of the dual graph.  Against the patch Gram diag(areas) it
    approximates the Laplace-Beltrami operator on the cells.  Constants are in
    the kernel exactly up to rounding.
    """
    edges = mesh.edges
    cells = mesh.edge_cells
    length = np.linalg.norm(mesh.vertices[edges[:, 1]] - mesh.vertices[edges[:, 0]], axis=1)
    centroids = mesh.centroids
    dist = np.linalg.norm(centroids[cells[:, 1]] - centroids[cells[:, 0]], axis=1)
    w = length / dist
    m, n = cells[:, 0], cells[:, 1]
    nc = mesh.num_triangles
    return sp.coo_matrix(
        (np.concatenate([w, w, -w, -w]), (np.concatenate([m, n, m, n]), np.concatenate([m, n, n, m]))),
        shape=(nc, nc),
    ).tocsr()
