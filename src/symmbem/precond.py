"""Spectral preconditioner: sandwich the system between sparse Laplacian
maps and Gram rescalings so its conditioning stops tracking mesh size.

The preconditioned operator is ``P_defl M Z P Z M P_defl`` where M is the
blockwise lumped inverse square root of the Gram matrices, P applies per
interface a regularized inverse surface Laplacian on the vertex rows and
the two-point-flux cell Laplacian between inverse cell areas on the cell
rows, and ``P_defl`` projects out the known constant-trace gauge
directions.  Everything P needs lives on the primal mesh: no barycentric
refinement and no dual matrix.  The vertex rows' inverse Laplacian is an
exact solve with a sparse LU factor computed once at :func:`build`; the
cell rows need no solve at all, so P is one fixed symmetric positive
definite map.  Everything is matrix-free except the dense system matrix Z
itself, and every product with Z is the symmetric one of
:meth:`~symmbem.formulation.BlockSystem.matvec` (BLAS ``dsymv``, which
reads one triangle of Z).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvec
from scipy.sparse.linalg import splu

from . import krylov
from .formulation import BlockSystem, unscale_solution
from .geometry import TriangleMesh
from .laplacians import dual_laplacian, primal_laplace_beltrami
from .spaces import gram_p0, gram_p1, lumped_inverse_sqrt, patch_space, pyramid_space


@dataclass
class PrecondOperator:
    """Matrix-free preconditioned operator with its deflation projector.

    ``kernel`` is the orthonormal basis of the deflated directions mapped
    back through M, the exact kernel of the assembled system that
    :func:`recover_solution` removes from the residual.
    """

    system: BlockSystem
    m_diag: np.ndarray
    primal_solvers: list
    dual_solvers: list
    deflation: np.ndarray
    kernel: np.ndarray

    @property
    def size(self) -> int:
        return self.system.size

    def project(self, x: np.ndarray) -> np.ndarray:
        q = self.deflation
        return x - q @ (q.T @ x)

    def apply_p(self, x: np.ndarray) -> np.ndarray:
        """Blockwise application of the sparse (inverse-)Laplacian factors."""
        out = np.empty_like(x)
        layout = self.system.layout
        for i in range(layout.num_interfaces):
            vs = layout.v_slice(i)
            out[vs] = self.primal_solvers[i](x[vs])
            ps = layout.p_slice(i)
            if ps is not None:
                out[ps] = self.dual_solvers[i](x[ps])
        return out

    def apply(self, x: np.ndarray) -> np.ndarray:
        y = self.project(np.asarray(x, dtype=float))
        y = self.system.matvec(self.m_diag * y)
        y = self.system.matvec(self.apply_p(y))
        return self.project(self.m_diag * y)

    def preconditioned_rhs(self) -> np.ndarray:
        if self.system.rhs is None:
            raise ValueError("system has no right-hand side")
        y = self.system.matvec(self.apply_p(self.system.rhs))
        return self.project(self.m_diag * y)


def _primal_solver(mesh: TriangleMesh, lumped: np.ndarray):
    """Regularized inverse Laplacian on the vertex (pyramid) rows.

    ``lumped`` holds the row sums ``m`` of the pyramid Gram matrix.  A
    rank-one lumped-mass term shifts the constant mode to a finite O(1)
    eigenvalue, making ``L + (beta/total) m m^T`` invertible on the whole
    space; the preconditioned operator's kernel then reduces to the
    system's own gauge.  That inverse is applied exactly through the sparse
    bordered matrix ``[[L, m], [m^T, -total/beta]]``, factored once here:
    eliminating the border gives back the rank-one-shifted Laplacian.
    """
    lap = primal_laplace_beltrami(mesh)
    total = lumped.sum()
    beta = 8.0 * np.pi / mesh.total_area  # constant-mode eigenvalue, O(1) scale
    col = sp.csr_matrix(lumped[:, None])
    bordered = sp.bmat([[lap, col], [col.T, [[-total / beta]]]], format="csc")
    lu = splu(bordered)
    n = mesh.num_vertices

    def solver(rhs: np.ndarray) -> np.ndarray:
        return lu.solve(np.append(rhs, 0.0))[:n]

    return solver


def _dual_solver(mesh: TriangleMesh):
    """Two-point-flux map on the cell (patch) rows.

    With A = diag(cell areas), the exact patch Gram, a the area vector and
    K the two-point-flux cell Laplacian of :func:`dual_laplacian`, the map
    is ``A^-1 (K + (beta/total) a a^T) A^-1``.  A^-1 turns a patch-tested
    vector into cell values; K annihilates the constant cell values, so the
    area vector is its null direction, and the rank-one shift places that
    mode at an O(1) eigenvalue, which keeps the map symmetric positive
    definite.  Since ``A^-1 a = 1``, the shift term is ``beta/total`` times
    the sum of the input, and one application is a sparse product with the
    prescaled ``A^-1 K A^-1`` plus that sum.
    """
    scaling = sp.diags(1.0 / mesh.areas)
    scaled = (scaling @ dual_laplacian(mesh) @ scaling).tocsr()
    shift = np.pi / mesh.total_area**2  # beta/total with beta = pi/total_area
    n = mesh.num_triangles

    def solver(rhs: np.ndarray) -> np.ndarray:
        # ``shift * rhs.sum() + scaled @ rhs``, with the CSR kernel behind
        # ``@`` called directly: at a few hundred cells scipy's dispatch
        # around it costs more than the product itself
        out = np.full(n, shift * rhs.sum())
        csr_matvec(n, n, scaled.indptr, scaled.indices, scaled.data, rhs, out)
        return out

    return solver


def build(system: BlockSystem, meshes: list[TriangleMesh]) -> PrecondOperator:
    """Assemble the diagonal Gram factors, the per-interface Laplacian
    maps (the vertex rows' sparse factor computed here, once), the gauge
    deflation basis and the recovery kernel basis for a (rescaled) system."""
    layout = system.layout
    if len(meshes) != layout.num_interfaces:
        raise ValueError("one mesh per interface required")

    m_diag = np.empty(layout.total)
    primal_solvers = []
    dual_solvers = []
    for i, mesh in enumerate(meshes):
        gram = gram_p1(pyramid_space(mesh))
        m_diag[layout.v_slice(i)] = lumped_inverse_sqrt(gram)
        ps = layout.p_slice(i)
        if ps is not None:
            m_diag[ps] = lumped_inverse_sqrt(gram_p0(patch_space(mesh)))
        lumped = np.asarray(gram.sum(axis=1)).ravel()
        primal_solvers.append(_primal_solver(mesh, lumped))
        dual_solvers.append(_dual_solver(mesh) if ps is not None else None)

    # Deflation = the operator's actual kernel, pulled back through M: with
    # an insulating exterior the system annihilates a simultaneous constant
    # shift of all traces (the potential gauge); with a conducting exterior
    # the decay condition at infinity fixes the gauge and nothing is deflated.
    basis = []
    if system.conductivities[-1] == 0.0:
        gauge = sum(system.gauge_vectors())
        basis.append(gauge / system.scale_vector() / m_diag)
    if basis:
        deflation = krylov.orthonormal_columns(basis)
        kernel = krylov.orthonormal_columns([m_diag * q for q in deflation.T])
    else:
        deflation = kernel = np.zeros((layout.total, 0))
    return PrecondOperator(system, m_diag, primal_solvers, dual_solvers, deflation, kernel)


def recover_solution(op: PrecondOperator, y: np.ndarray, tol: float = 1e-8):
    """Map a preconditioned solution back to physical unknowns.

    The Gram factor undoes M and the conductivity scaling is undone last;
    the deflated gauge directions stay at the value the minimum-norm Krylov
    iterate assigned them (a pure additive constant, fixed downstream).
    Returns ``(x, relative_residual)`` of the assembled (rescaled) system,
    with the residual measured orthogonally to the deflated directions.
    """
    system = op.system
    if system.rhs is None:
        raise ValueError("system has no right-hand side")
    x = op.m_diag * np.asarray(y, dtype=float)
    r = system.matvec(x) - system.rhs
    # no solution can reduce the load component along the exact kernel
    r = r - op.kernel @ (op.kernel.T @ r)
    residual = float(np.linalg.norm(r) / np.linalg.norm(system.rhs))
    if residual > 10.0 * tol:
        raise RuntimeError(
            f"recovered solution residual {residual:.3e} exceeds 10 x {tol:.1e}: "
            "deflation inconsistent with the assembled system"
        )
    return unscale_solution(system, x), residual


def solve(
    system: BlockSystem,
    meshes: list[TriangleMesh],
    tol: float = 1e-8,
    maxit: int | None = None,
):
    """Convenience pipeline: build the operator, run CG, recover the solution.

    Returns ``(x, report, residual)`` with x in unscaled physical variables.
    CG stops on the residual of the preconditioned system, which can sit a
    small factor below the recovered residual of the assembled system.  When
    a converged solve misses ``tol`` on the recovered residual, CG runs once
    more with its tolerance tightened by twice the measured excess.
    """
    op = build(system, meshes)
    rhs_p = op.preconditioned_rhs()
    y, report = krylov.conjugate_gradient(op.apply, rhs_p, tol=tol, maxit=maxit)
    x, residual = recover_solution(op, y, tol=tol)
    if report.converged and residual > tol:
        cg_tol = 0.5 * tol * tol / residual
        y, report = krylov.conjugate_gradient(op.apply, rhs_p, tol=cg_tol, maxit=maxit)
        x, residual = recover_solution(op, y, tol=tol)
    return x, report, residual
