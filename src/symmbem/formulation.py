"""Multilayer symmetric transmission system: blocks, right-hand side, rescaling.

Unknowns are stacked as ``[V_1 .. V_N, p_1 .. p_M]``: per interface the
Dirichlet trace in the vertex (pyramid) basis and the current density in
the cell (patch) basis.  With an insulating exterior no current crosses the
outermost surface, so its p block (and test rows) are dropped.

Every scalar factor and sign of the transmission system lives in this
module; the operator blocks from :mod:`symmbem.bem_ops` are unit strength.
Sign convention fixed against the analytic layered-sphere solution: with
the local source potential ``v(r) = q.(r - r0) / (4 pi |r - r0|^3)`` of a
dipole in compartment s, the pyramid-tested rows of the interfaces
bounding s receive ``+(lambda, dv/dn)`` on the outer and ``-(lambda,
dv/dn)`` on the inner boundary, and the patch-tested rows receive
``-(pi, v)/sigma_s`` and ``+(pi, v)/sigma_s`` respectively.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import bem_ops
from .geometry import (
    QUADRATURE_RULE,
    NestedModel,
    SystemLayout,
    TriangleMesh,
    dot3,
    point_surface_distance,
)
from ._quadrature import TRI_RULES
from .krylov import symmetric_matvec

FOUR_PI = 4.0 * np.pi


@dataclass(frozen=True)
class DipoleSource:
    """Current dipole: finite position strictly inside one compartment,
    finite moment vector."""

    position: np.ndarray
    moment: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float))
        object.__setattr__(self, "moment", np.asarray(self.moment, dtype=float))
        if self.position.shape != (3,) or self.moment.shape != (3,):
            raise ValueError("position and moment must be 3-vectors")
        if not (np.isfinite(self.position).all() and np.isfinite(self.moment).all()):
            raise ValueError("position and moment must be finite")


def system_layout(model: NestedModel) -> SystemLayout:
    """The layout of the model's unknowns, :attr:`NestedModel.layout`,
    built once per model."""
    return model.layout


@dataclass
class BlockSystem:
    """Dense symmetric transmission matrix with layout and scaling record.

    ``matrix`` is a C-ordered N x N array that holds Z on and below its
    diagonal; every product with Z goes through :meth:`matvec`, which reads
    only there.  Above the diagonal it holds zeros outside Z's diagonal
    blocks until :func:`symmbem.precond.build` writes there the operator it
    forms, so a system holds one operator at a time.  ``scale`` is the
    diagonal of the conductivity scaling applied to Z, one factor per
    unknown, or None while unscaled.
    """

    matrix: np.ndarray
    layout: SystemLayout
    conductivities: np.ndarray
    rhs: np.ndarray | None = None
    scale: np.ndarray | None = None

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``Z @ x`` by :func:`~symmbem.krylov.symmetric_matvec`: one BLAS
        ``dsymv`` for a vector or one ``dsymm`` for a block of columns, both
        on the array's lower triangle."""
        return symmetric_matvec(self.matrix, x)

    def scale_vector(self) -> np.ndarray:
        """Diagonal of the applied scaling W: the stored ``scale``, or ones
        when unscaled."""
        return np.ones(self.layout.total) if self.scale is None else self.scale


def _calibrate_rows(matrix: np.ndarray, triangles: np.ndarray, target_row_sums: np.ndarray):
    """Distribute each row's constant-field defect over the row cell's vertices.

    The double layer applied to the constant 1 on a closed surface is known
    exactly (minus the enclosed solid angle over 4 pi); the Gauss rules meet
    it only to quadrature accuracy.  Restoring the identity exactly makes
    the simultaneous constant shift of all traces an exact null vector of
    the assembled system, which the preconditioner relies on.  The
    redistribution is a per-row perturbation of quadrature-error size.
    """
    defect = (target_row_sums - matrix.sum(axis=1)) / 3.0
    np.add.at(matrix, (np.arange(len(triangles))[:, None], triangles), defect[:, None])


def _available_memory() -> int:
    """Bytes of memory the process can get: the physical memory, lowered to
    the cgroup v2 limit, or where that cannot be read the cgroup v1 limit.
    Unlimited reads ``max`` in v2 and a number beyond any memory in v1."""
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    for path in ("/sys/fs/cgroup/memory.max", "/sys/fs/cgroup/memory/memory.limit_in_bytes"):
        try:
            limit = Path(path).read_text().strip()
        except OSError:
            continue
        return min(physical, int(limit)) if limit.isdecimal() else physical
    return physical


def require_memory(needed: int, what: str) -> None:
    """Raise ``MemoryError`` when ``needed`` bytes exceed the memory the
    process can get (:func:`_available_memory`): called before a dense
    allocation, it stops a run that the kernel would otherwise kill part
    way through.  The message is ``what``, then both amounts in GiB."""
    available = _available_memory()
    if needed > available:
        raise MemoryError(
            f"{what}: {needed / 2**30:.2f} GiB needed, {available / 2**30:.2f} GiB available"
        )


def _pair_blocks(layout: SystemLayout, i: int, j: int) -> tuple:
    """The operator blocks :func:`assemble_system` asks of surface pair
    ``(i, j)``, ``j`` being ``i`` or ``i + 1``: ``S`` and ``N`` always (``N``
    is formed from ``S``), ``D`` where the cells of surface i keep their
    unknowns, and on a cross pair ``Dstar`` where those of surface j do.
    A block whose every entry would land in a dropped p block is not asked
    for."""
    blocks = ("S", "N")
    if layout.p_kept[i]:
        blocks += ("D",)
    if i != j and layout.p_kept[j]:
        blocks += ("Dstar",)
    return blocks


def _dense_bytes(model: NestedModel) -> int:
    """Bytes of storage :func:`assemble_system` holds at once: the N x N
    system matrix plus the count of the largest surface pair
    (:func:`symmbem.bem_ops.pair_bytes` of its :func:`_pair_blocks`).  Each
    block is scaled in place as it goes into Z, so no scaled copy is
    counted."""
    layout = system_layout(model)
    surfaces = model.surfaces
    pairs = [(i, i) for i in range(len(surfaces))] + [(i, i + 1) for i in range(len(surfaces) - 1)]
    return 8 * layout.total**2 + max(
        bem_ops.pair_bytes(surfaces[i], surfaces[j], _pair_blocks(layout, i, j)) for i, j in pairs
    )


def assemble_system(model: NestedModel) -> BlockSystem:
    """Assemble the symmetric block matrix over all interface pairs.

    Only neighbouring interfaces couple; blocks for surface pairs further
    apart are identically zero.  The operator blocks of a pair come from
    one shared quadrature sweep, which assembles only those that Z keeps
    (:func:`_pair_blocks`): self pair i asks for ``S``, ``N`` and, where
    surface i keeps its p block, ``D``; cross pair (i, j) asks for ``S``,
    ``D``, ``N`` and, where surface j keeps its p block, ``Dstar``.  So with
    an insulating exterior no double layer is assembled on the outermost
    surface and no adjoint onto it.  The double-layer blocks are calibrated
    to their exact constant-field row sums.  Each diagonal block is written
    whole, each off-diagonal block once, below the diagonal.  A block goes
    into Z once, after its calibration, so it is scaled in place on its way
    in, and each pair's blocks are let go before the next pair is assembled.

    Raises ``MemoryError`` (:func:`require_memory`) before allocating
    anything dense when :func:`_dense_bytes` exceeds the memory the process
    can get: a system matrix too large for memory would otherwise be
    allocated lazily and the process killed part way through assembly.
    """
    layout = system_layout(model)
    require_memory(
        _dense_bytes(model), f"dense storage for N = {layout.total} exceeds the memory available"
    )
    sigma = model.conductivities
    n = model.num_interfaces
    Z = np.zeros((layout.total, layout.total))

    def add(rows: slice | None, cols: slice | None, factor: float, mat: np.ndarray):
        if rows is None or cols is None:
            return
        mat *= factor
        Z[rows, cols] += mat

    for i in range(n):
        mesh = model.surfaces[i]
        ops = bem_ops.assemble_operators(mesh, mesh, _pair_blocks(layout, i, i))
        s_in, s_out = sigma[i], sigma[i + 1]
        vi, pi = layout.v_slice(i), layout.p_slice(i)
        add(vi, vi, -(s_in + s_out), ops["N"].matrix)
        if pi is not None:
            _calibrate_rows(ops["D"].matrix, mesh.triangles, -0.5 * mesh.areas)
            add(pi, vi, -2.0, ops["D"].matrix)
            add(pi, pi, 1.0 / s_in + 1.0 / s_out, ops["S"].matrix)
        del ops

    for i in range(n - 1):
        j = i + 1
        s_btw = sigma[j]  # conductivity of the compartment between the surfaces
        inner, outer = model.surfaces[i], model.surfaces[j]
        ops = bem_ops.assemble_operators(inner, outer, _pair_blocks(layout, i, j))
        vi, pi = layout.v_slice(i), layout.p_slice(i)
        vj, pj = layout.v_slice(j), layout.p_slice(j)
        add(vj, vi, s_btw, ops["N"].matrix.T)
        add(pj, pi, -1.0 / s_btw, ops["S"].matrix.T)
        # surface i lies inside surface j: constants map to -1 seen from i,
        # to 0 seen from j (applied to the transpose through Dstar columns)
        if pi is not None:
            _calibrate_rows(ops["D"].matrix, inner.triangles, -inner.areas)
            add(pi, vj, 1.0, ops["D"].matrix)
        if pj is not None:  # Dstar.T is C-ordered and calibrated in place
            _calibrate_rows(ops["Dstar"].matrix.T, outer.triangles, np.zeros(outer.num_triangles))
            add(pj, vi, 1.0, ops["Dstar"].matrix.T)
        del ops

    return BlockSystem(Z, layout, np.asarray(sigma, dtype=float))


def _add_source_field(sources, mesh: TriangleMesh, v: np.ndarray, dn: np.ndarray) -> None:
    """Add to ``v`` and ``dn`` the local potential of the dipoles in
    unit-conductivity free space and its derivative along the triangle's
    normal, at the mesh's quadrature points, shape (n_points, n_triangles).

    With ``d = x - r0`` and ``r = |d|``, a dipole of moment q gives
    ``v = (q.d) / (4 pi r^3)`` and ``dv/dn = (q.n - 3 (q.d)(d.n) / r^2) /
    (4 pi r^3)``, n the triangle's normal: every step runs on whole rows of
    the component-major points, and no gradient is formed.
    """
    points = mesh.quadrature_points.reshape(3, *v.shape)
    normals = np.ascontiguousarray(mesh.normals.T)
    d = np.empty_like(points)
    r2, dd, tmp = (np.empty(v.shape) for _ in range(3))
    for s in sources:
        np.subtract(points, s.position[:, None, None], out=d)
        qd = (s.moment @ d.reshape(3, -1)).reshape(v.shape)
        np.multiply(d[0], d[0], out=r2)
        r2 += np.multiply(d[1], d[1], out=tmp)
        r2 += np.multiply(d[2], d[2], out=tmp)
        np.multiply(d[0], normals[0], out=dd)
        dd += np.multiply(d[1], normals[1], out=tmp)
        dd += np.multiply(d[2], normals[2], out=tmp)
        # tmp = 1 / (4 pi r^3)
        np.sqrt(r2, out=tmp)
        tmp *= r2
        tmp *= FOUR_PI
        np.divide(1.0, tmp, out=tmp)
        # dd = dv/dn
        dd *= qd
        dd /= r2
        dd *= -3.0
        dd += s.moment @ normals
        dd *= tmp
        dn += dd
        qd *= tmp
        v += qd


def _on_surface(point: np.ndarray, mesh: TriangleMesh, eps: float) -> bool:
    """Whether ``point`` lies within ``eps`` of the surface.

    A point is never closer to a triangle than to the triangle's plane, so
    only the triangles whose plane passes within ``2 eps`` take the exact
    point-triangle test.  The factor 2 keeps rounding in the two tests from
    changing the verdict of an exact test over all triangles.
    """
    height = dot3(point - mesh.corners[:, 0], mesh.normals)
    near = np.abs(height) <= 2.0 * eps
    if not near.any():
        return False
    return point_surface_distance(point, mesh.corners[near], mesh.normals[near]) <= eps


def assemble_rhs(model: NestedModel, sources) -> np.ndarray:
    """Galerkin right-hand side from dipole sources.

    Each source radiates its free-space field onto the interfaces bounding
    its compartment; integrals use the Gauss rule of
    ``TriangleMesh.quadrature_points`` and ``quadrature_weights`` per
    triangle (the integrand is analytic since sources are strictly
    interior).  The sources of one compartment add their potential and
    normal derivative into one array pair per interface
    (:func:`_add_source_field`); the pyramid rows then take the
    derivative through the rule's barycentric weights, one ``bincount``
    over the triangles' corners, and the patch rows the potential.  What
    does not depend on the sources, the layout, the surfaces' length scale
    and the rule's points and weights, is read from the model and its
    meshes, which keep it.
    """
    layout = system_layout(model)
    rhs = np.zeros(layout.total)
    bary, _ = TRI_RULES[QUADRATURE_RULE]
    h = min(m.mean_diameter for m in model.surfaces)

    by_compartment: dict[int, list[DipoleSource]] = {}
    for s in sources:
        comp = model.compartment_of(s.position)
        if comp > model.num_interfaces:
            raise ValueError("source lies outside the outermost surface")
        for mesh in model.surfaces:
            if _on_surface(s.position, mesh, 1e-6 * h):
                raise ValueError("source lies on an interface")
        by_compartment.setdefault(comp, []).append(s)

    for comp, comp_sources in by_compartment.items():
        sigma_s = model.conductivities[comp - 1]
        # interfaces bounding compartment comp: outer = comp-1 (0-based), inner = comp-2
        for iface, orient in ((comp - 1, +1.0), (comp - 2, -1.0)):
            if iface < 0 or iface >= model.num_interfaces:
                continue
            mesh = model.surfaces[iface]
            wts = mesh.quadrature_weights
            v, dn = np.zeros(wts.shape), np.zeros(wts.shape)
            _add_source_field(comp_sources, mesh, v, dn)
            # pyramid-tested rows: +- (lambda, dv/dn)
            dn *= wts
            corner = dn.T @ bary  # (n_triangles, 3), in the order of mesh.triangles
            b = np.bincount(mesh.triangles.ravel(), corner.ravel(), mesh.num_vertices)
            rhs[layout.v_slice(iface)] += orient * b
            # patch-tested rows: -+ (pi, v) / sigma_s
            ps = layout.p_slice(iface)
            if ps is not None:
                v *= wts
                rhs[ps] += -orient * v.sum(axis=0) / sigma_s

    # Net dipole flux through every closed interface vanishes exactly; the
    # Gauss rule meets that only approximately.  Remove the defect as a
    # constant test function so the load is consistent with the system's
    # exact gauge null vector.
    for iface, mesh in enumerate(model.surfaces):
        sl = layout.v_slice(iface)
        vertex_mass = mesh.vertex_masses
        rhs[sl] -= rhs[sl].sum() * vertex_mass / vertex_mass.sum()
    return rhs


def conductivity_rescale(system: BlockSystem) -> BlockSystem:
    """Symmetric two-sided diagonal block scaling against conductivity spread.

    V blocks scale by (sigma_in + sigma_out)^-1/2 and p blocks by
    (1/sigma_in + 1/sigma_out)^-1/2, removing the conductivity content of
    the diagonal blocks.  The record allows exact back-substitution, so the
    solution of the rescaled system maps to the original one.

    Z is scaled in place on and below its diagonal blocks: every stored
    entry of row block a and column block b by the one scalar ``w_a w_b``,
    a row at a time, so the strict upper triangle stays as assembly left
    it.  Scaling and right-hand side are set on ``system``, which is
    returned.
    """
    if system.scale is not None:
        raise ValueError("system is already rescaled")
    sigma, layout = system.conductivities, system.layout
    n = layout.num_interfaces
    blocks = [(layout.v_slice(i), sigma[i] + sigma[i + 1]) for i in range(n)]
    blocks += [(layout.p_slice(i), 1.0 / sigma[i] + 1.0 / sigma[i + 1])
               for i in range(n) if layout.p_kept[i]]
    w = np.empty(layout.total)
    for rows, c in blocks:
        w[rows] = 1.0 / np.sqrt(c)
    if np.any(~np.isfinite(w)) or np.any(w <= 0):
        raise ValueError("non-positive scale factor")
    for rows, _ in blocks:
        # a row's stored part is contiguous: numpy scales it in place, where a
        # strided block goes through a 128 KiB buffer whatever its size
        factor = w[rows.start] * w[: rows.stop]
        for r in range(rows.start, rows.stop):
            system.matrix[r, : rows.stop] *= factor
    if system.rhs is not None:
        system.rhs = w * system.rhs
    system.scale = w
    return system
