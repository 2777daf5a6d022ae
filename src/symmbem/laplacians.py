"""Sparse surface Laplacians (primal and dual)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .geometry import TriangleMesh
from .spaces import barycentric_refinement

PRIMAL = "primal"
DUAL = "dual"


@dataclass(frozen=True)
class LaplacianMatrix:
    """Symmetric PSD stiffness matrix with the constants in its kernel."""

    matrix: sp.csr_matrix
    kind: str

    @property
    def shape(self):
        return self.matrix.shape


def _p1_stiffness(vertices: np.ndarray, triangles: np.ndarray) -> sp.csr_matrix:
    """Piecewise-linear stiffness with cotangent weights.

    Element matrix: K[i, j] = (e_i . e_j) / (4 A) with e_i the edge opposite
    vertex i, equivalent to -(cot a + cot b)/2 off-diagonal accumulation.
    """
    corners = vertices[triangles]
    e = np.empty_like(corners)
    e[:, 0] = corners[:, 2] - corners[:, 1]
    e[:, 1] = corners[:, 0] - corners[:, 2]
    e[:, 2] = corners[:, 1] - corners[:, 0]
    area = 0.5 * np.linalg.norm(
        np.cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0]), axis=1
    )
    if np.any(area <= 0):
        raise ValueError("degenerate triangle")
    local = np.einsum("tid,tjd->tij", e, e) / (4.0 * area)[:, None, None]
    nt = len(triangles)
    n = len(vertices)
    rows = np.broadcast_to(triangles[:, :, None], (nt, 3, 3)).ravel()
    cols = np.broadcast_to(triangles[:, None, :], (nt, 3, 3)).ravel()
    mat = sp.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    return (mat + mat.T) * 0.5


def primal_laplace_beltrami(mesh: TriangleMesh) -> LaplacianMatrix:
    """Cotangent stiffness of the vertex hat functions on the surface."""
    return LaplacianMatrix(_p1_stiffness(mesh.vertices, mesh.triangles), PRIMAL)


def dual_laplacian(mesh: TriangleMesh) -> LaplacianMatrix:
    """Stiffness of the cell-associated dual piecewise-linear functions.

    Assembled on the transient barycentric refinement through the dual
    coefficient matrix; the refinement is discarded afterwards.  Since the
    dual functions partition unity, constants are in the kernel exactly.
    """
    ref_vertices, ref_triangles, coeff = barycentric_refinement(mesh)
    k_ref = _p1_stiffness(ref_vertices, ref_triangles)
    mat = (coeff.T @ k_ref @ coeff).tocsr()
    return LaplacianMatrix(((mat + mat.T) * 0.5).tocsr(), DUAL)
