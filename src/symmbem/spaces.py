"""Piecewise-constant and piecewise-linear spaces and their Gram matrices.

The Gram builders return the scipy CSR matrix itself, formed from the
mesh's sparse maps; ``B^T W B`` is symmetric bit for bit.  No solver reads
:func:`mixed_gram_dual`: it is the Gram of the dual functions in closed
form on the primal mesh, kept only because the benchmark's probe of the
sparse layers times it.
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
    """Consistent pyramid mass matrix, per triangle A/6 diagonal and A/12
    off: ``I^T diag(A/12) I + diag(m/4)``, I the incidence, m the masses."""
    if space.kind is not Kind.PYRAMID:
        raise ValueError("gram_p1 expects a pyramid space")
    mesh = space.mesh
    areas = mesh.areas
    if np.any(areas <= 0):
        raise ValueError("mesh has a degenerate triangle")
    pairs = mesh.incidence.T @ sp.diags(areas / 12.0) @ mesh.incidence
    return (pairs + sp.diags(mesh.vertex_masses / 4.0)).tocsr()


def mixed_gram_dual(mesh: TriangleMesh) -> sp.csr_matrix:
    """Cell-by-cell Gram between dual piecewise-linear and patch functions.

    Entry (m, n) is the integral of the dual function of cell m over cell n.
    That function is linear on the six sub-triangles (corner, edge midpoint,
    barycentre) of every cell, each of a sixth of the cell's area, and takes
    1 at the barycentre of m, 1/2 at its edge midpoints and 1/N_v at its
    corners v, N_v the valence.  So G = (9 I + [S == 2] + 2 C diag(1/N) C^T)
    diag(A) / 18, with C the triangle-vertex incidence, S = C C^T the
    shared-vertex counts and A the cell areas.

    Column sums equal the cell areas, because the dual functions partition
    unity.  Row sums are the dual-function masses
    A_m/3 + sum_edges (A_m + A_n)/18 + sum_v (1/N_v) sum_{c contains v} A_c/9,
    which equal the cell areas only where neighbouring cells have equal
    areas.  That holds on the icosahedron.  Its subdivisions have cells of
    unequal area (up to 19% apart at one subdivision), and there the masses
    differ from the areas by up to 6%.
    """
    areas = mesh.areas
    if np.any(areas <= 0):
        raise ValueError("mesh has a degenerate triangle")
    per_valence = mesh.corner_matrix(1.0 / mesh.vertex_triangle_count[mesh.triangles])
    weights = (
        9.0 * sp.identity(mesh.num_triangles)
        + (mesh.shared_vertex_counts == 2)
        + 2.0 * (per_valence @ mesh.incidence.T)
    )
    return (weights @ sp.diags(areas / 18.0)).tocsr()


def mixed_gram_p0_p1(mesh: TriangleMesh) -> sp.csr_matrix:
    """Gram between patch (rows) and pyramid (columns) bases: A/3 per corner."""
    return mesh.corner_matrix((mesh.areas / 3.0)[:, None])
