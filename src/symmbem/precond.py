"""Spectral preconditioner with a coarse space: sandwich the system between
sparse Laplacian maps and Gram rescalings so its conditioning stops
tracking mesh size, and deflate the few low modes that stay small.

The spectral operator is ``A = M Z P Z M`` where M is the blockwise
lumped inverse square root of the Gram matrices (the vertex masses on the
vertex rows, the cell areas on the cell rows) and P applies per interface
a regularized inverse surface Laplacian on the vertex rows and the
two-point-flux cell Laplacian between inverse cell areas on the cell
rows.  Everything P needs lives on the primal mesh: no barycentric
refinement, here or anywhere in the package, and no dual matrix.  The
vertex rows' inverse Laplacian is an exact solve with one sparse LU
factor per surface, computed once at :func:`build`; the cell rows need no
solve at all, so P is one fixed symmetric positive definite map.

With an insulating exterior, Z has the potential gauge as its kernel k, a
simultaneous constant shift of all traces, and A is singular with kernel
``M^-1 k``.  Nothing projects it out: the load ``c = M Z P b`` is
orthogonal to ``M^-1 k`` for every b, and CG on a consistent symmetric
positive semidefinite system keeps its iterates in the operator's range
(Kaasschieter 1988).  The gauge component of a solution is an arbitrary
additive constant, and no solution can reduce a load's component along
k, which the load and the recovered residual both drop.

A keeps its condition number flat under refinement, but a thin resistive
layer (the skull) leaves a cluster of small eigenvalues at low spherical
degree.  CG therefore runs on the deflated operator ``P_D A`` with
``P_D = I - A W (W^T A W)^-1 W^T`` (Nicolaides 1987; Saad, Yeung, Erhel
and Guyomarc'h 2000), where the coarse space W holds per surface the
lowest surface-Laplacian eigenmodes.  Deflation needs only their span,
and inverse iteration with the same LU factor that P uses gives it.  The
columns go where the small eigenvalues live: on the skull's cell
(current-density) rows, which are 57% of the unknowns of the three-shell
head at subdivision 2.  With the modes of spherical degrees 0-6 (49) on
each cell block, 78% of the eigenvector weight of the 40 lowest nonzero
eigenvalues of ``P_D A`` (0.0098 to 0.0140) sits there.  So each cell
block takes the modes of degrees 0-10 (121, 123 in whole clusters) and
each vertex block those of degrees 0-2 (9), 272 columns in all: the 40
lowest eigenvalues rise to 0.0166-0.0219, their weight on the cell rows
falls to 44%, and the median CG count over 16 dipoles falls from 60 to
42.5 steps.  Once ``P_D A`` is formed, a coarse column costs build work
only, not work per CG step.  W leaves out the gauge, so ``E = W^T A W``
is positive definite and one Cholesky factor ``E = L L^T`` makes W
A-orthonormal (``W^T A W = I``) in place, beside ``U = A W``, so
``P_D A = A - U U^T`` and the right-hand side is ``P_D c = c - U W^T c``;
:func:`recover_solution` adds back the coarse component
``W (W^T c - U^T y)``.

Many right-hand sides share one head model, so :func:`build` forms
``P_D A`` once, in the system's own N x N array: Z stays on and below the
diagonal, where every product with Z reads it, and ``P_D A`` goes
strictly above it, its diagonal kept as a vector (the idea of LAPACK's
packed layouts; Gustavson, Wasniewski, Dongarra and Langou 2010).  So a
system holds one operator at a time.  Half of A is formed by block
products, then the coarse correction as an in-place BLAS rank update
(``dsyrk``) of the upper triangle, with the operator's diagonal swapped
in for it and Z's restored bit for bit afterwards.  That costs about N^3
flops plus the sparse Laplacian maps on N columns (about 0.1 s at
N = 1126 on one BLAS thread) and no second N x N array: dense storage is
8 N^2 bytes, not 16 N^2.  :func:`build` raises
``MemoryError`` before allocating when what it does allocate, the N x T
coarse arrays, exceeds the memory available.  Each CG step is then one
BLAS ``dsymv`` on the upper triangle plus the difference of the two
diagonals times x (:meth:`PrecondOperator.apply`), where applying the
factors one by one would take two products with Z, the sparse Laplacian
maps and the coarse products.

:func:`solve` runs CG once on a built operator, stopped on the recovered
residual, and recovers the solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cholesky, eigh
from scipy.linalg.blas import dsyrk, dtrsm
from scipy.sparse.linalg import splu

from . import formulation, krylov
from .formulation import BlockSystem
from .geometry import TriangleMesh
from .laplacians import dual_laplacian, primal_laplace_beltrami
from .spaces import gram_p1, pyramid_space

#: surface-Laplacian eigenmodes in the coarse space, per row kind, each a
#: complete cluster of spherical degrees on a sphere: degrees 0-2 on a
#: vertex (potential) block, 0-10 on a cell (current-density) block, where
#: the skull's small eigenvalues put most of their weight.  On the
#: three-shell head the median CG count over 16 dipoles is 37/42.5/47 at
#: subdivisions 1/2/3, against 37/60/69 with degrees 0-6 on the cell blocks.
VERTEX_MODES = 9
CELL_MODES = 121
#: steps of the inverse iteration for the surface modes
MODE_STEPS = 10
#: columns, or rows, per block product while the operator is formed
CHUNK = 64


@dataclass
class PrecondOperator:
    """The deflated preconditioned operator ``P_D A``, formed once.

    ``matrix`` is the system's array, with ``P_D A`` strictly above its
    diagonal and Z on and below it; ``diagonal`` is the diagonal of
    ``P_D A``.  ``deflation`` is the kernel of the rescaled Z as one unit
    column, the potential gauge, which the load and the recovered residual
    drop; it has no column when the exterior conducts.
    ``M^-1 deflation`` spans the kernel of A.  ``coarse`` is the
    A-orthonormal coarse basis W and ``coarse_image`` is ``U = A W``, so
    the spectral operator A is ``P_D A + U U^T``; with empty coarse arrays
    the array holds A itself.
    """

    system: BlockSystem
    m_diag: np.ndarray
    primal_solvers: list
    dual_solvers: list
    deflation: np.ndarray
    coarse: np.ndarray
    coarse_image: np.ndarray
    diagonal: np.ndarray
    # diagonal minus the array's, which holds Z's
    _shift: np.ndarray = field(init=False, repr=False, compare=False)
    # c with the right-hand side array it was formed from
    _load: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self._shift = self.diagonal - np.diagonal(self.matrix)

    @property
    def matrix(self) -> np.ndarray:
        return self.system.matrix

    @property
    def size(self) -> int:
        return self.system.size

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
        """``P_D A x``: one BLAS ``dsymv`` for a vector, one ``dsymm`` for a
        block of columns, on the array's upper triangle, whose diagonal is
        Z's; the difference of the diagonals then corrects it."""
        x = np.asarray(x, dtype=float)
        y = krylov.symmetric_matvec(self.matrix, x, upper=True)
        y += (self._shift if x.ndim == 1 else self._shift[:, None]) * x
        return y

    def spectral_rhs(self) -> np.ndarray:
        """``c = M Z P (b - k k^T b)``, the right-hand side of ``A y = c``,
        which lies in A's range for every b.

        The load drops its component along the gauge k (``deflation``):
        left in, it would leave the residual of ``A y = c`` along
        ``P^-1 k``, where no CG step reduces the recovered residual.

        :meth:`preconditioned_rhs` and :func:`recover_solution` both need
        c, so it is formed once per right-hand side array and kept; the
        returned array is shared and must not be modified.
        """
        rhs = self.system.rhs
        if rhs is None:
            raise ValueError("system has no right-hand side")
        if self._load is None or self._load[0] is not rhs:
            k = self.deflation
            y = self.system.matvec(self.apply_p(rhs - k @ (k.T @ rhs)))
            self._load = (rhs, self.m_diag * y)
        return self._load[1]

    def preconditioned_rhs(self) -> np.ndarray:
        """``P_D c = c - U W^T c``, the right-hand side CG solves with."""
        c = self.spectral_rhs()
        return c - self.coarse_image @ (c @ self.coarse)


def _primal_solver(mesh: TriangleMesh, lap: sp.csr_matrix):
    """Regularized inverse Laplacian on the vertex (pyramid) rows.

    ``lap`` is the cotangent Laplacian L and m holds the mesh's vertex
    masses, the row sums of the pyramid Gram matrix.  A rank-one
    lumped-mass term shifts the constant mode to a finite O(1) eigenvalue,
    making
    ``L + (beta/total) m m^T`` invertible on the whole space; the
    preconditioned operator's kernel then reduces to the system's own
    gauge.  That inverse is applied exactly through the sparse bordered
    matrix ``[[L, m], [m^T, -total/beta]]``, factored once here:
    eliminating the border gives back the rank-one-shifted Laplacian.  The
    solver takes a vector or a block of columns.
    """
    masses = mesh.vertex_masses
    total = masses.sum()
    beta = 8.0 * np.pi / mesh.total_area  # constant-mode eigenvalue, O(1) scale
    col = sp.csr_matrix(masses[:, None])
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
    return lambda rhs: scaled @ rhs + shift * rhs.sum(axis=0)


def _block_columns(count: int) -> int:
    """Columns of the inverse-iteration block for ``count`` modes."""
    return (math.isqrt(count) + 2) ** 2


def _surface_modes(solver, lap: sp.csr_matrix, gram: sp.csr_matrix, count: int) -> np.ndarray:
    """About the ``count`` lowest eigenvectors of (L, G) on the vertices, in
    whole clusters and ascending order of eigenvalue, the constant first.

    Block inverse iteration with the surface's own primal ``solver``, the
    bordered LU of ``L + (beta/total) m m^T`` with ``m = G 1``, then one
    Rayleigh-Ritz step on (L, G).  Every other eigenvector of (L, G) is
    G-orthogonal to the constant, so ``m^T`` annihilates it and the
    shifted pencil has the same eigenvectors; only the constant's
    eigenvalue is lifted from 0 to beta (2/R^2 on a sphere of radius R).
    The Rayleigh-Ritz step on the unshifted pencil puts the constant
    first again.  The block is sized to the modes the surface needs: when
    ``count`` is the number of modes up to spherical degree l, ``(l+1)^2``,
    it holds the modes up to degree l + 2, whole degenerate clusters as on
    the symmetric icosphere, and each step shrinks the error of the lowest
    ``count`` by the eigenvalue ratio ``l(l+1) / ((l+3)(l+4))``: 6/30 for
    the 9 modes of a surface without cell rows (25 columns), 110/182 for
    the 121 of a surface with them (169 columns).  A block of at least as
    many columns as the surface has vertices spans it, so no step runs and
    Rayleigh-Ritz on the whole space is exact: that is every surface with
    cell rows up to subdivision 2 (162 vertices).  Beyond that the
    ``MODE_STEPS`` = 10 steps are not converged for the larger block: at
    subdivision 3 (642 vertices) they bring the 9 vertex modes to 4.3e-7
    of the exact span of (L, G), but leave the 121 cell modes 1.1e-2 off
    it (largest entry of ``below - V V^T G below``; 1.0e-2 for the 116
    modes below the top cluster), where a dense ``eigh`` gives 4.3e-15.
    The median CG count over 16 dipoles on the three shells at
    subdivision 3 is 47 with these modes against 46.5 with the exact ones.
    The start block is fixed, so every build returns the same vectors bit
    for bit.

    The cut moves on to the end of a cluster of Ritz values equal to the
    solve's rounding (k eps times the largest of k), or back to its start
    where it would keep them all: whole eigenspaces keep ``P_D A`` smooth
    in L and G (rounding changes move it by 3.1e-15, not 1.9e-2).
    """
    n = lap.shape[0]
    block = _block_columns(count)
    if block < n:
        x = np.random.default_rng(0).standard_normal((n, block))
        for _ in range(MODE_STEPS):
            x, _ = np.linalg.qr(solver(gram @ x))
        vals, ritz = eigh(x.T @ (lap @ x), x.T @ (gram @ x))
        ritz = x @ ritz
    else:  # the block spans the surface: Rayleigh-Ritz on it is exact
        vals, ritz = eigh(lap.toarray(), gram.toarray())
    # the cuts between clusters: the first at or after count, else the last
    cuts = np.flatnonzero(np.diff(vals) > len(vals) * np.finfo(float).eps * vals[-1]) + 1
    return ritz[:, : cuts[min(np.searchsorted(cuts, count), len(cuts) - 1)]]


def _mirror_lower(a: np.ndarray) -> None:
    """Copy the lower triangle of the square array ``a`` onto its upper
    triangle, in row chunks, so that ``a`` is exactly symmetric: the one
    writer of Z's upper copy, which assembly leaves out."""
    n = len(a)
    for r0 in range(0, n, CHUNK):
        r1 = min(r0 + CHUNK, n)
        a[:r0, r0:r1] = a[r0:r1, :r0].T
        d = a[r0:r1, r0:r1]
        d[:] = np.tril(d) + np.tril(d, -1).T


def _form_spectral(op: PrecondOperator) -> None:
    """Form the spectral operator ``A = M Z P Z M`` on and above the
    diagonal of ``op.matrix``; the caller keeps Z's diagonal.

    A is symmetric, so only its upper triangle is computed, in chunks of
    columns, from the last chunk to the first.  Z is first mirrored onto
    the upper triangle, and a chunk overwrites only columns that no later
    chunk reads.  With ``Y = P (Z M)[:, cols]``, the chunk is
    ``A[:r1, cols] = m[:r1] * (Z[:, :r1]^T Y)``, one product with the
    columns ``:r1`` of the array, and the chunks add up to half of one
    N x N x N product.  Its diagonal goes to a vector and onto the array's
    diagonal at the end.
    """
    a, m = op.matrix, op.m_diag
    n = len(m)
    _mirror_lower(a)
    diagonal = np.empty(n)
    strict = np.triu(np.ones((CHUNK, CHUNK), dtype=bool), 1)
    for r0 in reversed(range(0, n, CHUNK)):
        r1 = min(r0 + CHUNK, n)
        y = op.apply_p(a[:, r0:r1] * m[r0:r1])
        chunk = y.T @ a[:, :r1]  # A[:r1, r0:r1] transposed
        chunk *= m[:r1]
        a[:r0, r0:r1] = chunk[:, :r0].T
        d = chunk[:, r0:].T
        np.copyto(a[r0:r1, r0:r1], d, where=strict[: r1 - r0, : r1 - r0])
        diagonal[r0:r1] = np.diagonal(d)
    np.fill_diagonal(a, diagonal)


def _coarse_space(op: PrecondOperator, meshes, modes) -> tuple[np.ndarray, np.ndarray]:
    """The A-orthonormal coarse basis W and ``U = A W``, with ``op.matrix``
    holding A.

    Each surface's vertex rows take its lowest ``VERTEX_MODES``
    eigenmodes, its cell rows (when kept) the lowest ``CELL_MODES``, each
    averaged over a cell's three corners: the thin skull's small
    eigenvalues weigh mostly on the cell rows, so they take the larger
    share of the columns.  ``modes`` holds for each surface as many modes
    as its blocks use.  The columns are pulled back through ``1/m_diag``.
    When Z has a gauge, the constants of all vertex blocks span A's kernel
    ``M^-1 k``, so the outermost vertex block drops its constant mode,
    without which ``E = W^T A W`` would be singular.  ``A W`` is one
    ``dsymm`` with the upper triangle of the formed A, and the Cholesky
    factor ``E = L L^T`` A-orthonormalises both in place, as ``W L^-T``
    and ``A W L^-T``.  A coarse direction without curvature, as on a zero
    system, raises ``numpy.linalg.LinAlgError``.
    """
    layout = op.system.layout
    last = layout.num_interfaces - 1
    blocks = []
    for i, (mesh, phi) in enumerate(zip(meshes, modes)):
        drop = 1 if i == last and op.deflation.shape[1] else 0
        blocks.append((layout.v_slice(i), phi[:, drop:VERTEX_MODES]))
        ps = layout.p_slice(i)
        if ps is not None:
            blocks.append((ps, phi[mesh.triangles].mean(axis=1)))
    w = np.zeros((layout.total, sum(phi.shape[1] for _, phi in blocks)))
    col = 0
    for rows, phi in blocks:
        w[rows, col : col + phi.shape[1]] = phi / op.m_diag[rows, None]
        col += phi.shape[1]
    del blocks, phi  # the cell-averaged copies

    # E, W and A W go to LAPACK and BLAS as Fortran views, which they
    # overwrite in place: W and A W stay the only N x T arrays
    aw = krylov.symmetric_matvec(op.matrix, w, upper=True)
    factor = cholesky((w.T @ aw).T, lower=True, overwrite_a=True, check_finite=False)
    dtrsm(1.0, factor, w.T, overwrite_b=1, lower=1)
    dtrsm(1.0, factor, aw.T, overwrite_b=1, lower=1)
    return w, aw


def _build_bytes(layout) -> int:
    """Bytes :func:`build` allocates at most: W and ``A W`` (N x T), the
    T x T array ``W^T A W``, which its Cholesky factor overwrites, and four
    N x ``CHUNK`` temporaries, with T bounded by the modes each surface
    has, and by the Ritz vectors the cell modes are cut from.  Z is not
    counted here: it is already allocated, and the operator shares its
    array, but it is held throughout, so :func:`build` requires its bytes
    beside these."""
    n = layout.total
    t = sum(
        min(VERTEX_MODES, nv - 1) + (min(_block_columns(CELL_MODES), nv) - 1 if kept else 0)
        for nv, kept in zip(layout.v_sizes, layout.p_kept)
    )
    return 8 * (2 * n * t + t * t + 4 * n * CHUNK)


def build(system: BlockSystem, meshes: list[TriangleMesh]) -> PrecondOperator:
    """Assemble the diagonal Gram factors, the per-interface Laplacian
    maps, the gauge basis and the coarse space for a (rescaled) system, and
    form ``P_D A`` strictly above the diagonal of ``system.matrix``,
    replacing whatever operator an earlier build left there.  The system
    has a gauge when :func:`formulation.system_layout` keeps no cell rows
    on its outermost surface, that is when the exterior insulates.

    Each surface takes one sparse factorization, the bordered LU of its
    regularized Laplacian: the vertex rows of P apply it, and the inverse
    iteration for its coarse modes runs with it.  The operator is formed
    on the upper triangle with its own diagonal swapped in; the coarse
    correction ``- U U^T`` is one in-place ``dsyrk`` there, and Z's
    diagonal goes back, bit for bit, even when the build fails.  W and
    ``A W`` are the only N x T arrays the build holds, and it allocates no
    N x N array.  With a gauge, W leaves out its constant
    (:func:`_coarse_space`), without which ``W^T A W`` has no Cholesky factor.

    Raises ``ValueError`` naming the interface when a mesh does not match
    the system's layout: its vertex count, and its cell count where its
    cell rows are kept.  Raises ``MemoryError``
    (``formulation.require_memory``) before allocating anything when Z's
    bytes and :func:`_build_bytes` together exceed the memory the process
    can get, and ``numpy.linalg.LinAlgError`` when ``W^T A W`` is singular
    (a zero system).
    """
    layout = system.layout
    if len(meshes) != layout.num_interfaces:
        raise ValueError("one mesh per interface required")
    for i, mesh in enumerate(meshes):
        cells_differ = layout.p_kept[i] and mesh.num_triangles != layout.p_sizes[i]
        if mesh.num_vertices != layout.v_sizes[i] or cells_differ:
            raise ValueError(
                f"the mesh of interface {i} has {mesh.num_vertices} vertices and "
                f"{mesh.num_triangles} triangles, the system {layout.v_sizes[i]} and "
                f"{layout.p_sizes[i]}"
            )
    n = layout.total
    formulation.require_memory(
        system.matrix.nbytes + _build_bytes(layout),
        f"the coarse space of the preconditioner for N = {n}, over the memory available",
    )

    m_diag = np.empty(n)
    primal_solvers = []
    dual_solvers = []
    modes = []
    for i, mesh in enumerate(meshes):
        gram = gram_p1(pyramid_space(mesh))
        m_diag[layout.v_slice(i)] = mesh.vertex_masses**-0.5
        ps = layout.p_slice(i)
        if ps is not None:
            m_diag[ps] = mesh.areas**-0.5
        lap = primal_laplace_beltrami(mesh)
        primal_solvers.append(_primal_solver(mesh, lap))
        dual_solvers.append(_dual_solver(mesh) if ps is not None else None)
        count = CELL_MODES if ps is not None else VERTEX_MODES
        modes.append(_surface_modes(primal_solvers[i], lap, gram, count))

    # With an insulating exterior, which keeps no cell rows on the outermost
    # surface, the rescaled system annihilates a simultaneous constant shift
    # of all traces (the potential gauge); with a conducting exterior the
    # decay condition at infinity fixes the gauge.
    deflation = np.zeros((n, 0))
    if not layout.p_kept[-1]:
        deflation = np.zeros((n, 1))
        deflation[: sum(layout.v_sizes), 0] = 1.0  # every vertex block's constant trace
        deflation /= system.scale_vector()[:, None]
        deflation /= np.linalg.norm(deflation)
    empty = np.zeros((n, 0))
    z_diagonal = np.diagonal(system.matrix).copy()
    op = PrecondOperator(system, m_diag, primal_solvers, dual_solvers, deflation,
                         empty, empty, z_diagonal)
    a = system.matrix
    try:
        _form_spectral(op)
        coarse, coarse_image = _coarse_space(op, meshes, modes)
        dsyrk(-1.0, coarse_image.T, beta=1.0, c=a.T, trans=1, lower=1, overwrite_c=1)
        diagonal = np.diagonal(a).copy()
    finally:
        np.fill_diagonal(a, z_diagonal)
    return replace(op, coarse=coarse, coarse_image=coarse_image, diagonal=diagonal)


def _recover(op: PrecondOperator, y: np.ndarray):
    """The scaled solution ``x_s = M (y + W (W^T c - U^T y))`` of a
    deflated solution y, the residual ``r = Z x_s - b`` without its
    component along the exact kernel, and ``|r| / |b|`` (``|r|`` for a
    zero load)."""
    system = op.system
    y = y + op.coarse @ (op.spectral_rhs() @ op.coarse - y @ op.coarse_image)
    x = op.m_diag * y
    r = system.matvec(x) - system.rhs
    # no solution can reduce the load component along the exact kernel
    r = r - op.deflation @ (op.deflation.T @ r)
    return x, r, float(np.linalg.norm(r) / (np.linalg.norm(system.rhs) or 1.0))


def _check(residual: float, tol: float) -> None:
    if residual > 10.0 * tol:
        raise RuntimeError(
            f"recovered solution residual {residual:.3e} exceeds 10 x {tol:.1e}: "
            "CG stopped short of the tolerance"
        )


def recover_solution(op: PrecondOperator, y: np.ndarray, tol: float = 1e-8):
    """Map a solution of the deflated system back to physical unknowns.

    The coarse component ``W (W^T c - U^T y)`` is added first, which turns
    a solution of ``P_D A y = P_D c`` into one of ``A y = c``.  The Gram
    factor undoes M and the conductivity scaling is undone last.  When the
    system has a gauge, the gauge component of x is an arbitrary additive
    constant, fixed downstream.  Returns ``(x, relative_residual)`` of the
    assembled (rescaled) system, with the residual measured orthogonally
    to the gauge kernel ``op.deflation``.
    """
    x, _, residual = _recover(op, np.asarray(y, dtype=float))
    _check(residual, tol)
    return x * op.system.scale_vector(), residual


def solve(op: PrecondOperator, tol: float = 1e-8):
    """Solve for the load on ``op.system.rhs`` with the built operator.

    One CG run on ``P_D A`` stops on the recovered residual
    (:func:`recover_solution`), which can sit a factor g above the
    deflated one CG iterates on; the run checks it about log2 g times
    (:func:`krylov.conjugate_gradient`).  A run ends on a check, unless
    it reaches the step cap, so the solution is the one the last check
    recovered; only a run that ended between checks is recovered anew.

    Returns ``(x, report, residual)``, x in unscaled physical variables.
    Raises ``RuntimeError`` beyond 10 x ``tol``, as
    :func:`recover_solution` does.
    """
    last = None  # the latest check: a copy of its y and what _recover made of it

    def recovered_residual(y):
        nonlocal last
        last = (y.copy(), _recover(op, y))
        return last[1][2]

    y, report = krylov.conjugate_gradient(
        op.apply, op.preconditioned_rhs(), tol=tol, residual=recovered_residual
    )
    if last is None or not np.array_equal(last[0], y):  # the run ended between checks
        last = (y, _recover(op, y))
    x, _, residual = last[1]
    _check(residual, tol)
    return x * op.system.scale_vector(), report, residual
