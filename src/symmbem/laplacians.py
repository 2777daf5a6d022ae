"""Sparse surface Laplacians: the cotangent stiffness on the vertex (primal)
functions and the two-point-flux stiffness on the cells (dual graph).

Both are assembled on the primal mesh itself; neither needs a refinement.
Each is a Gram ``B^T W B`` of a map the mesh owns, so both builders return
an exactly symmetric positive semi-definite scipy CSR matrix, with the
constants in its kernel.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .geometry import TriangleMesh


def primal_laplace_beltrami(mesh: TriangleMesh) -> sp.csr_matrix:
    """Cotangent stiffness of the vertex hat functions on the surface:
    ``sum_k (sqrt(A) C_k)^T (sqrt(A) C_k)`` with ``C_k`` the hats' surface
    curls (``TriangleMesh.curls``), as N is with S in place of diag(A).

    A cell adds ``(e_i . e_j) / (4 A)`` to entry (i, j), with e_i the edge
    opposite vertex i: ``-(cot a + cot b)/2`` off the diagonal.
    """
    area = mesh.areas
    if np.any(area <= 0):
        raise ValueError("degenerate triangle")
    scaled = (sp.diags(np.sqrt(area)) @ c for c in mesh.curls)
    return sum(b.T @ b for b in scaled).tocsr()


def dual_laplacian(mesh: TriangleMesh) -> sp.csr_matrix:
    """Two-point-flux stiffness of the cell (patch) functions.

    ``K = E^T diag(l_e / d_e) E`` with E the signed edge-cell map (+1 and
    -1 on the two cells of each edge), ``l_e`` the edge length and ``d_e``
    the distance between the centroids of the two cells sharing the edge:
    the finite-volume Laplacian of the dual graph.  Against the patch Gram
    diag(areas) it approximates the Laplace-Beltrami operator on the cells.
    Constants are in the kernel exactly up to rounding.
    """
    edges, cells = mesh.edges, mesh.edge_cells
    length = np.linalg.norm(mesh.vertices[edges[:, 1]] - mesh.vertices[edges[:, 0]], axis=1)
    centroids = mesh.centroids
    dist = np.linalg.norm(centroids[cells[:, 1]] - centroids[cells[:, 0]], axis=1)
    ne = len(cells)
    signed = sp.csr_matrix((np.tile([1.0, -1.0], ne), cells.ravel(), np.arange(0, 2 * ne + 1, 2)))
    return (signed.T @ sp.diags(length / dist) @ signed).tocsr()
