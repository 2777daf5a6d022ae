"""Spectral preconditioner with a coarse space: sandwich the system between
sparse Laplacian maps and Gram rescalings so its conditioning stops
tracking mesh size, and deflate the few low modes that stay small.

The spectral operator is ``A = P_g M Z P Z M P_g`` where M is the
blockwise lumped inverse square root of the Gram matrices, P applies per
interface a regularized inverse surface Laplacian on the vertex rows and
the two-point-flux cell Laplacian between inverse cell areas on the cell
rows, and ``P_g`` projects out the known constant-trace gauge directions.
Everything P needs lives on the primal mesh: no barycentric refinement and
no dual matrix.  The vertex rows' inverse Laplacian is an exact solve with
a sparse LU factor computed once at :func:`build`; the cell rows need no
solve at all, so P is one fixed symmetric positive definite map.

A keeps its condition number flat under refinement, but a thin resistive
layer (the skull) leaves a cluster of small eigenvalues at low spherical
degree.  CG therefore runs on the deflated operator ``P_D A`` with
``P_D = I - A W (W^T A W)^-1 W^T`` (Nicolaides 1987; Saad, Yeung, Erhel
and Guyomarc'h 2000), where the coarse space W holds per surface the
lowest surface-Laplacian eigenmodes.  W is stored A-orthonormal
(``W^T A W = I``) beside ``U = A W``, so ``P_D A = A - U U^T`` and the
right-hand side is ``P_D c = c - U W^T c``; :func:`recover_solution`
adds back the coarse component ``W (W^T c - U^T y)``.

Many right-hand sides share one head model, so :func:`build` forms
``P_D A`` once, as one dense, exactly symmetric N x N array.  That costs
about N^3 flops plus the sparse Laplacian maps on N columns (about 0.1 s
at N = 1126 on one BLAS thread) and N^2 doubles beside Z; :func:`build`
raises ``MemoryError`` before allocating when Z and the formed operator
exceed the memory available.  Each CG step is then one BLAS ``dsymv``
(:func:`~symmbem.krylov.symmetric_matvec`, which reads one triangle),
where applying the factors one by one would take two products with Z,
the sparse Laplacian maps, the gauge projections and the coarse products.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh
from scipy.sparse._sparsetools import csr_matvecs
from scipy.sparse.linalg import splu

from . import formulation, krylov
from .formulation import BlockSystem, unscale_solution
from .geometry import TriangleMesh
from .laplacians import dual_laplacian, primal_laplace_beltrami
from .spaces import gram_p0, gram_p1, lumped_inverse_sqrt, patch_space, pyramid_space

#: surface-Laplacian eigenmodes per surface in the coarse space: spherical
#: degrees 0-4 on a sphere, a complete degree cluster
COARSE_MODES = 25
#: block size and steps of the inverse iteration for the surface modes
MODE_BLOCK = 40
MODE_STEPS = 10
#: columns, or rows, per block product while the operator and its coarse
#: space are formed
CHUNK = 64


@dataclass
class PrecondOperator:
    """The deflated preconditioned operator ``P_D A``, formed once.

    ``matrix`` is ``P_D A`` as a dense, exactly symmetric N x N array.
    ``deflation`` is the orthonormal gauge basis that ``P_g`` projects
    out.  ``kernel`` is that basis mapped back through M, the exact kernel
    of the assembled system that :func:`recover_solution` removes from the
    residual.  ``coarse`` is the A-orthonormal coarse basis W and
    ``coarse_image`` is ``U = A W``, so the spectral operator A is
    ``matrix + U U^T``; with empty coarse arrays ``matrix`` is A itself.
    """

    system: BlockSystem
    m_diag: np.ndarray
    primal_solvers: list
    dual_solvers: list
    deflation: np.ndarray
    kernel: np.ndarray
    coarse: np.ndarray
    coarse_image: np.ndarray
    matrix: np.ndarray
    # c with the right-hand side array it was formed from
    _load: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def size(self) -> int:
        return self.system.size

    def project(self, x: np.ndarray) -> np.ndarray:
        q = self.deflation
        return x - q @ (q.T @ x)

    def apply_p(self, x: np.ndarray) -> np.ndarray:
        """Blockwise application of the sparse (inverse-)Laplacian factors
        to a vector or to a block of columns."""
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
        """``P_D A x``: one BLAS ``dsymv`` for a vector, one ``dgemm`` for a
        block of columns."""
        return krylov.symmetric_matvec(self.matrix, np.asarray(x, dtype=float))

    def spectral_rhs(self) -> np.ndarray:
        """``c = P_g M Z P b``, the right-hand side of ``A y = c``.

        :meth:`preconditioned_rhs` and :func:`recover_solution` both need
        c, so it is formed once per right-hand side array and kept; the
        returned array is shared and must not be modified.
        """
        rhs = self.system.rhs
        if rhs is None:
            raise ValueError("system has no right-hand side")
        if self._load is None or self._load[0] is not rhs:
            y = self.system.matvec(self.apply_p(rhs))
            self._load = (rhs, self.project(self.m_diag * y))
        return self._load[1]

    def preconditioned_rhs(self) -> np.ndarray:
        """``P_D c = c - U W^T c``, the right-hand side CG solves with."""
        c = self.spectral_rhs()
        return c - self.coarse_image @ (c @ self.coarse)


def _primal_solver(mesh: TriangleMesh, lap: sp.csr_matrix, lumped: np.ndarray):
    """Regularized inverse Laplacian on the vertex (pyramid) rows.

    ``lap`` is the cotangent Laplacian L and ``lumped`` holds the row sums
    ``m`` of the pyramid Gram matrix.  A rank-one lumped-mass term shifts
    the constant mode to a finite O(1) eigenvalue, making
    ``L + (beta/total) m m^T`` invertible on the whole space; the
    preconditioned operator's kernel then reduces to the system's own
    gauge.  That inverse is applied exactly through the sparse bordered
    matrix ``[[L, m], [m^T, -total/beta]]``, factored once here:
    eliminating the border gives back the rank-one-shifted Laplacian.  The
    solver takes a vector or a block of columns.
    """
    total = lumped.sum()
    beta = 8.0 * np.pi / mesh.total_area  # constant-mode eigenvalue, O(1) scale
    col = sp.csr_matrix(lumped[:, None])
    bordered = sp.bmat([[lap, col], [col.T, [[-total / beta]]]], format="csc")
    lu = splu(bordered)
    n = mesh.num_vertices

    def solver(rhs: np.ndarray) -> np.ndarray:
        padded = np.zeros((n + 1,) + rhs.shape[1:])
        padded[:n] = rhs
        return lu.solve(padded)[:n]

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
    prescaled ``A^-1 K A^-1`` plus that sum.  The solver takes a vector or
    a block of columns.
    """
    scaling = sp.diags(1.0 / mesh.areas)
    scaled = (scaling @ dual_laplacian(mesh) @ scaling).tocsr()
    shift = np.pi / mesh.total_area**2  # beta/total with beta = pi/total_area
    n = mesh.num_triangles

    def solver(rhs: np.ndarray) -> np.ndarray:
        # ``shift * rhs.sum(axis=0) + scaled @ rhs``, with the CSR kernel
        # behind ``@`` called directly: at a few hundred cells scipy's
        # dispatch around it costs more than the product itself
        out = np.empty(rhs.shape)
        out[:] = shift * rhs.sum(axis=0)
        columns = rhs.shape[1] if rhs.ndim == 2 else 1
        csr_matvecs(n, n, columns, scaled.indptr, scaled.indices, scaled.data,
                    np.ascontiguousarray(rhs).ravel(), out.ravel())
        return out

    return solver


def _surface_modes(mesh: TriangleMesh, lap: sp.csr_matrix, gram: sp.csr_matrix) -> np.ndarray:
    """The ``COARSE_MODES`` lowest eigenvectors of (L, G) on the vertices,
    in ascending order of eigenvalue, the constant mode first.

    Block inverse iteration with ``(L - sigma G)^-1 G``, sigma below the
    zero eigenvalue so that the shifted matrix is positive definite and
    factored once, then one Rayleigh-Ritz step.  A block of
    ``MODE_BLOCK`` columns keeps whole degenerate clusters of the
    spectrum, as on the symmetric icosphere, and each step shrinks the
    error of the lowest ``COARSE_MODES`` by the ratio of the shifted
    eigenvalues ``COARSE_MODES`` and ``MODE_BLOCK + 1``, about 1/2 on a
    sphere.  The start block is fixed, so every build returns the same
    vectors bit for bit.
    """
    n = mesh.num_vertices
    sigma = -4.0 * np.pi / mesh.total_area  # -1/R^2 on a sphere of radius R
    shifted = splu((lap - sigma * gram).tocsc())
    x = np.random.default_rng(0).standard_normal((n, min(MODE_BLOCK, n)))
    for _ in range(MODE_STEPS):
        x, _ = np.linalg.qr(shifted.solve(gram @ x))
    _, ritz = eigh(x.T @ (lap @ x), x.T @ (gram @ x))
    return x @ ritz[:, : min(COARSE_MODES, n - 1)]


def _mirror_lower(a: np.ndarray) -> None:
    """Copy the lower triangle of the square array ``a`` onto its upper
    triangle, in row chunks, so that ``a`` is exactly symmetric."""
    n = len(a)
    for r0 in range(0, n, CHUNK):
        r1 = min(r0 + CHUNK, n)
        a[:r0, r0:r1] = a[r0:r1, :r0].T
        d = a[r0:r1, r0:r1]
        d[:] = np.tril(d) + np.tril(d, -1).T


def _subtract_symmetric(a: np.ndarray, left: np.ndarray, right: np.ndarray) -> None:
    """``a -= left @ right.T`` for an update that is symmetric in exact
    arithmetic: formed on the lower triangle in row chunks, then mirrored."""
    for r0 in range(0, len(a), CHUNK):
        r1 = min(r0 + CHUNK, len(a))
        a[r0:r1, :r1] -= left[r0:r1] @ right[:r1].T
    _mirror_lower(a)


def _form_spectral(op: PrecondOperator) -> None:
    """Form the spectral operator ``A = P_g M Z P Z M P_g`` in ``op.matrix``.

    ``B = M Z P Z M`` is symmetric, so only its lower triangle is computed,
    in chunks of rows.  Z is symmetric, so a chunk of columns of ``Z M``
    is a scaled chunk of rows of Z; with ``Y = P (Z M)[:, rows]`` the
    chunk is ``B[rows, :r1] = (Y^T @ Z[:r1].T) * m[:r1]``, and the chunks
    add up to half of one N x N x N product.  The gauge projections enter
    as the rank-2 correction ``P_g B P_g = B - Q R^T - R Q^T`` with
    ``R = B Q - Q (Q^T B Q) / 2``.
    """
    z, m, a = op.system.matrix, op.m_diag, op.matrix
    n = len(m)
    for r0 in range(0, n, CHUNK):
        r1 = min(r0 + CHUNK, n)
        y = op.apply_p(z[r0:r1].T * m[r0:r1])
        block = a[r0:r1, :r1]
        np.matmul(y.T, z[:r1].T, out=block)
        block *= m[:r1]
    _mirror_lower(a)
    q = op.deflation
    if q.shape[1]:
        v = a @ q
        r = v - 0.5 * q @ (q.T @ v)
        _subtract_symmetric(a, np.hstack([q, r]), np.hstack([r, q]))


def _coarse_space(op: PrecondOperator, meshes, modes) -> tuple[np.ndarray, np.ndarray]:
    """The A-orthonormal coarse basis W and ``U = A W``, with ``op.matrix``
    holding A.

    Each surface's vertex rows take its eigenmodes, its cell rows (when
    kept) the mean of each cell's three corners.  The columns are pulled
    back through ``1/m_diag`` and the gauge projector.  When the gauge is
    deflated, the constants of all vertex blocks span it, so the outermost
    vertex block drops its constant mode.  ``A W`` is one block product
    with the formed A.  ``E = W^T A W`` is factored by eigendecomposition
    with a curvature cut-off: directions with eigenvalue at most 1e-12 of
    the largest are dropped, as :func:`krylov.orthonormal_columns` drops
    dependent columns.
    """
    layout = op.system.layout
    last = layout.num_interfaces - 1
    blocks = []
    for i, (mesh, phi) in enumerate(zip(meshes, modes)):
        drop = 1 if i == last and op.deflation.shape[1] else 0
        blocks.append((layout.v_slice(i), phi[:, drop:]))
        ps = layout.p_slice(i)
        if ps is not None:
            blocks.append((ps, phi[mesh.triangles].mean(axis=1)))
    w = np.zeros((layout.total, sum(phi.shape[1] for _, phi in blocks)))
    col = 0
    for rows, phi in blocks:
        w[rows, col : col + phi.shape[1]] = phi / op.m_diag[rows, None]
        col += phi.shape[1]

    # W and A W stay the only N x T arrays: everything else is a chunk
    for c0 in range(0, w.shape[1], CHUNK):
        cols = slice(c0, c0 + CHUNK)
        w[:, cols] = op.project(w[:, cols])
    aw = op.apply(w)
    vals, vecs = eigh(w.T @ aw)
    keep = vals > 1e-12 * vals[-1]
    scale = vecs[:, keep] / np.sqrt(vals[keep])
    k = scale.shape[1]
    for r0 in range(0, len(w), CHUNK):
        rows = slice(r0, r0 + CHUNK)
        w[rows, :k] = w[rows] @ scale
        aw[rows, :k] = aw[rows] @ scale
    return np.ascontiguousarray(w[:, :k]), np.ascontiguousarray(aw[:, :k])


def build(system: BlockSystem, meshes: list[TriangleMesh]) -> PrecondOperator:
    """Assemble the diagonal Gram factors, the per-interface Laplacian
    maps (the vertex rows' sparse factor computed here, once), the gauge
    deflation basis, the recovery kernel basis and the coarse space for a
    (rescaled) system, and form ``P_D A``.

    Raises ``MemoryError`` before allocating anything when Z and the
    formed operator together exceed the memory the process can get.
    """
    layout = system.layout
    if len(meshes) != layout.num_interfaces:
        raise ValueError("one mesh per interface required")
    n = layout.total
    needed, available = 2 * 8 * n * n, formulation._available_memory()
    if needed > available:
        raise MemoryError(
            f"the system matrix and the formed operator need {needed / 2**30:.2f} GiB for "
            f"N = {n}, over the {available / 2**30:.2f} GiB of memory available"
        )

    m_diag = np.empty(n)
    primal_solvers = []
    dual_solvers = []
    modes = []
    for i, mesh in enumerate(meshes):
        gram = gram_p1(pyramid_space(mesh))
        m_diag[layout.v_slice(i)] = lumped_inverse_sqrt(gram)
        ps = layout.p_slice(i)
        if ps is not None:
            m_diag[ps] = lumped_inverse_sqrt(gram_p0(patch_space(mesh)))
        lap = primal_laplace_beltrami(mesh)
        lumped = np.asarray(gram.sum(axis=1)).ravel()
        primal_solvers.append(_primal_solver(mesh, lap, lumped))
        dual_solvers.append(_dual_solver(mesh) if ps is not None else None)
        modes.append(_surface_modes(mesh, lap, gram))

    # Deflation = the operator's actual kernel, pulled back through M: with
    # an insulating exterior the system annihilates a simultaneous constant
    # shift of all traces (the potential gauge); with a conducting exterior
    # the decay condition at infinity fixes the gauge and nothing is deflated.
    if system.conductivities[-1] == 0.0:
        gauge = sum(system.gauge_vectors())
        deflation = krylov.orthonormal_columns([gauge / system.scale_vector() / m_diag])
        kernel = krylov.orthonormal_columns([m_diag * q for q in deflation.T])
    else:
        deflation = kernel = np.zeros((n, 0))
    empty = np.zeros((n, 0))
    op = PrecondOperator(system, m_diag, primal_solvers, dual_solvers, deflation, kernel,
                         empty, empty, np.empty((n, n)))
    _form_spectral(op)
    op.coarse, op.coarse_image = _coarse_space(op, meshes, modes)
    _subtract_symmetric(op.matrix, op.coarse_image, op.coarse_image)
    return op


def recover_solution(op: PrecondOperator, y: np.ndarray, tol: float = 1e-8):
    """Map a solution of the deflated system back to physical unknowns.

    The coarse component ``W (W^T c - U^T y)`` is added first, which turns
    a solution of ``P_D A y = P_D c`` into one of ``A y = c``.  The Gram
    factor undoes M and the conductivity scaling is undone last; the
    gauge directions stay at the value the minimum-norm Krylov iterate
    assigned them (a pure additive constant, fixed downstream).  Returns
    ``(x, relative_residual)`` of the assembled (rescaled) system, with the
    residual measured orthogonally to the gauge kernel.
    """
    system = op.system
    y = np.asarray(y, dtype=float)
    y = y + op.coarse @ (op.spectral_rhs() @ op.coarse - y @ op.coarse_image)
    x = op.m_diag * y
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
