"""Triangle meshes, canonical sphere meshes, nesting checks and OFF I/O.

A ``TriangleMesh`` derives its connectivity once, from one half-edge
census (``TriangleMesh._half_edges``): the edge list, the two cells of
each edge, the three edges of each cell and the manifold and orientation
checks of :func:`validate` all read it.  The edge vectors opposite each
corner, the surface curls of the vertex hats and their transposes, the
shared-vertex counts of the triangle pairs and the points and weights of
the load's quadrature rule are likewise derived once and cached on the
mesh, and a :class:`NestedModel` keeps the layout of its unknowns.
Every sparse matrix with one value per triangle corner comes from
``TriangleMesh.corner_matrix``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from numbers import Integral
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from ._quadrature import TRI_RULES

MAX_SUBDIVISIONS = 7
#: the triangle rule (a key of ``TRI_RULES``) of ``TriangleMesh.quadrature_points``
QUADRATURE_RULE = 6

# Golden-ratio icosahedron with unit circumradius after normalisation.
_PHI = (1.0 + np.sqrt(5.0)) / 2.0
_ICO_VERTICES = np.array(
    [
        (-1, _PHI, 0), (1, _PHI, 0), (-1, -_PHI, 0), (1, -_PHI, 0),
        (0, -1, _PHI), (0, 1, _PHI), (0, -1, -_PHI), (0, 1, -_PHI),
        (_PHI, 0, -1), (_PHI, 0, 1), (-_PHI, 0, -1), (-_PHI, 0, 1),
    ],
    dtype=float,
)
_ICO_FACES = np.array(
    [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ],
    dtype=np.int64,
)


class TriangleMesh:
    """Closed oriented triangle surface with shared-vertex indexing.

    Vertices are stored as an ``(n_vertices, 3)`` float array and triangles
    as ``(n_triangles, 3)`` vertex-index triples ordered so the
    right-hand-rule normal points outward.  Arrays are frozen after
    construction; all derived quantities are cached and the object is safe
    for concurrent reads.
    """

    def __init__(self, vertices, triangles):
        vertices = np.ascontiguousarray(vertices, dtype=float)
        triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        if vertices.ndim != 2 or vertices.shape[1] != 3:
            raise ValueError("vertices must be an (n, 3) array")
        if triangles.ndim != 2 or triangles.shape[1] != 3:
            raise ValueError("triangles must be an (n, 3) index array")
        if triangles.size and (triangles.min() < 0 or triangles.max() >= len(vertices)):
            raise ValueError("triangle indices out of range")
        if not np.all(np.isfinite(vertices)):
            raise ValueError("vertices must be finite")
        vertices.setflags(write=False)
        triangles.setflags(write=False)
        self.vertices = vertices
        self.triangles = triangles

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_triangles(self) -> int:
        return self.triangles.shape[0]

    @cached_property
    def corners(self) -> np.ndarray:
        """Triangle corner coordinates, shape (n_triangles, 3, 3)."""
        return self.vertices[self.triangles]

    @cached_property
    def _cross(self) -> np.ndarray:
        c = self.corners
        return np.cross(c[:, 1] - c[:, 0], c[:, 2] - c[:, 0])

    @cached_property
    def areas(self) -> np.ndarray:
        return 0.5 * np.linalg.norm(self._cross, axis=1)

    @cached_property
    def normals(self) -> np.ndarray:
        """Unit right-hand-rule normals per triangle."""
        n = np.linalg.norm(self._cross, axis=1)
        return self._cross / np.where(n > 0, n, 1.0)[:, None]

    @cached_property
    def centroids(self) -> np.ndarray:
        return self.corners.mean(axis=1)

    @cached_property
    def opposite_edges(self) -> np.ndarray:
        """Edge vector opposite each corner, ``e_k = c_{k-1} - c_{k+1}``,
        shape (n_triangles, 3, 3)."""
        c = self.corners
        return c[:, [2, 0, 1]] - c[:, [1, 2, 0]]

    @cached_property
    def diameters(self) -> np.ndarray:
        """Longest edge per triangle."""
        return np.linalg.norm(self.opposite_edges, axis=2).max(axis=1)

    @cached_property
    def _half_edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The half-edge census that every edge query reads.

        Returns ``(directed, order, ids, starts)``: ``directed[k * n_c + c]``
        is the half-edge ``(t[c, k], t[c, k + 1])`` of triangle c, ``order``
        sorts the half-edges stably by the key ``min * n_v + max`` of their
        undirected edge, ``ids`` holds, in that order, the index in ``edges``
        of each half-edge's undirected edge, and ``starts`` the position in
        that order of each edge's first half-edge.
        """
        t = self.triangles
        directed = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
        keys = directed.min(axis=1) * self.num_vertices + directed.max(axis=1)
        order = np.argsort(keys, kind="stable")
        first = np.diff(keys[order], prepend=-1) != 0
        return directed, order, np.cumsum(first) - 1, np.flatnonzero(first)

    @cached_property
    def edges(self) -> np.ndarray:
        """Unique undirected edges as sorted index pairs, in lexicographic
        order, shape (n_edges, 2)."""
        directed, order, _, starts = self._half_edges
        return np.sort(directed[order[starts]], axis=1)

    @cached_property
    def edge_cells(self) -> np.ndarray:
        """The two triangles sharing each edge, in ``edges`` order, shape (n_edges, 2).

        Raises ``ValueError`` unless every edge has exactly two triangles,
        as on a closed manifold surface.
        """
        _, order, ids, _ = self._half_edges
        if np.any(np.bincount(ids) != 2):
            raise ValueError("edge_cells needs every edge shared by exactly two triangles")
        return (order % self.num_triangles).reshape(-1, 2)

    @cached_property
    def cell_edges(self) -> np.ndarray:
        """Index in ``edges`` of the edge ``(t[c, k], t[c, k + 1])`` of every
        triangle c, shape (n_triangles, 3)."""
        _, order, ids, _ = self._half_edges
        per_half = np.empty_like(ids)
        per_half[order] = ids
        return np.ascontiguousarray(per_half.reshape(3, -1).T)

    def corner_matrix(self, values) -> sp.csr_matrix:
        """Sparse (n_triangles x n_vertices) matrix holding ``values[c, k]``
        at (c, ``triangles[c, k]``); ``values`` broadcasts to (n_triangles, 3)."""
        nc = self.num_triangles
        data = np.broadcast_to(values, (nc, 3)).astype(float).ravel()
        matrix = sp.csr_matrix(
            (data, self.triangles.flatten(), np.arange(0, 3 * nc + 1, 3)), shape=(nc, self.num_vertices)
        )
        matrix.sum_duplicates()
        return matrix

    @cached_property
    def incidence(self) -> sp.csr_matrix:
        """Triangle-vertex incidence, the all-ones :meth:`corner_matrix`."""
        return self.corner_matrix(1.0)

    @cached_property
    def curls(self) -> tuple[sp.csr_matrix, sp.csr_matrix, sp.csr_matrix]:
        """Surface curls of the vertex hats, a :meth:`corner_matrix` per
        component: ``-e_i / (2 A_t)`` for hat i on triangle t."""
        curls = -self.opposite_edges / (2.0 * self.areas)[:, None, None]
        return tuple(self.corner_matrix(curls[:, :, k]) for k in range(3))

    @cached_property
    def transposed_curls(self) -> tuple[sp.csr_matrix, sp.csr_matrix, sp.csr_matrix]:
        """The transposes of :attr:`curls` (n_vertices x n_triangles), each
        in CSR form, so that a block of vertex rows is a row slice."""
        return tuple(c.T.tocsr() for c in self.curls)

    @cached_property
    def shared_vertex_counts(self) -> sp.csr_matrix:
        """Sparse (n_triangles x n_triangles) count of the vertices two
        triangles share: 3 on the diagonal, 2 for edge and 1 for vertex
        neighbours, and no entry for triangles that do not touch."""
        counts = self.incidence @ self.incidence.T
        counts.sort_indices()  # the order in which bem_ops batches touching pairs
        return counts

    @cached_property
    def vertex_masses(self) -> np.ndarray:
        """Lumped vertex masses: a third of the area of each incident triangle."""
        return np.bincount(
            self.triangles.ravel(),
            weights=np.repeat(self.areas / 3.0, 3),
            minlength=self.num_vertices,
        )

    @cached_property
    def quadrature_points(self) -> np.ndarray:
        """Points of the rule ``TRI_RULES[QUADRATURE_RULE]`` on every triangle,
        component-major, shape (3, n_points * n_triangles): row k holds the
        k-th coordinate of every point, rule point by rule point, so that
        point j of triangle t is column ``j * n_triangles + t``.  Viewed as
        (3, n_points, n_triangles), a value per triangle broadcasts along
        contiguous rows."""
        bary, _ = TRI_RULES[QUADRATURE_RULE]
        points = bary @ self.corners  # (n_triangles, n_points, 3)
        return np.ascontiguousarray(points.transpose(2, 1, 0)).reshape(3, -1)

    @cached_property
    def quadrature_weights(self) -> np.ndarray:
        """Weights of :attr:`quadrature_points` on the surface, the rule's
        weight times the triangle's area, shape (n_points, n_triangles)."""
        _, weights = TRI_RULES[QUADRATURE_RULE]
        return weights[:, None] * self.areas[None, :]

    @cached_property
    def mean_diameter(self) -> float:
        """Mean of :attr:`diameters`, the surface's length scale."""
        return float(np.mean(self.diameters))

    @cached_property
    def vertex_triangle_count(self) -> np.ndarray:
        """Number of triangles incident to each vertex."""
        return np.bincount(self.triangles.ravel(), minlength=self.num_vertices)

    @cached_property
    def total_area(self) -> float:
        return float(self.areas.sum())

    @cached_property
    def signed_volume(self) -> float:
        """Sum of signed cone volumes; positive for outward orientation."""
        c = self.corners
        return float(np.einsum("ij,ij->i", c[:, 0], np.cross(c[:, 1], c[:, 2])).sum() / 6.0)

    @cached_property
    def bounding_sphere(self) -> tuple[np.ndarray, float]:
        center = self.vertices.mean(axis=0)
        radius = float(np.linalg.norm(self.vertices - center, axis=1).max())
        return center, radius

    @cached_property
    def inscribed_radius(self) -> float:
        """Radius of a ball inside the surface around the bounding sphere's
        centre: the exact distance from that centre to the surface, or 0
        when the centre does not lie inside."""
        center = self.bounding_sphere[0]
        if abs(winding_number(self, center)[0] - 1.0) >= 0.5:
            return 0.0
        return point_surface_distance(center, self.corners, self.normals)

    def contains(self, point: np.ndarray) -> bool:
        """Whether ``point`` lies inside the closed surface.

        Points inside the inscribed ball are inside and points outside the
        bounding sphere are outside; only the points between the two take
        the winding-number pass over all triangles.
        """
        center, radius = self.bounding_sphere
        distance = np.linalg.norm(point - center)
        if distance < self.inscribed_radius:
            return True
        if distance > radius:
            return False
        return abs(winding_number(self, point)[0] - 1.0) < 0.5


@dataclass(frozen=True)
class MeshViolation:
    """One failed mesh invariant; ``subject`` names the offending edge or triangle."""

    kind: str
    subject: tuple
    message: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.kind}{self.subject}: {self.message}"


def _row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of ``v`` as a column, bit for bit the
    BLAS dot that ``np.linalg.norm`` takes on one row (``norm(axis=1)``
    sums in another order)."""
    return np.sqrt(np.matmul(v[:, None, :], v[:, :, None])[:, :, 0])


def make_icosphere(subdivisions: int, radius: float) -> TriangleMesh:
    """Geodesic sphere from midpoint subdivision of a regular icosahedron.

    Produces ``20 * 4**subdivisions`` triangles and ``10 * 4**subdivisions + 2``
    vertices, all on the sphere of the given radius, outward oriented.
    """
    if not isinstance(subdivisions, Integral) or not 0 <= subdivisions <= MAX_SUBDIVISIONS:
        raise ValueError(
            f"subdivisions must be an integer in [0, {MAX_SUBDIVISIONS}], got {subdivisions!r}"
        )
    if not 0 < radius < np.inf:
        raise ValueError("radius must be positive and finite")

    verts = _ICO_VERTICES / _row_norms(_ICO_VERTICES)
    faces = _ICO_FACES
    for _ in range(subdivisions):
        mesh = TriangleMesh(verts, faces)
        # the edge midpoints become vertices in the order in which the cells
        # first meet their edges, and each cell (a, b, c) becomes four
        encounter = np.argsort(np.unique(mesh.cell_edges, return_index=True)[1])
        mid = verts[mesh.edges[encounter]].sum(axis=1)
        number = np.empty_like(encounter)
        number[encounter] = np.arange(len(verts), len(verts) + len(encounter))
        verts = np.concatenate([verts, mid / _row_norms(mid)])
        (a, b, c), (ab, bc, ca) = faces.T, number[mesh.cell_edges].T
        faces = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca], axis=1).reshape(-1, 3)

    vertices = verts * radius
    mesh = TriangleMesh(vertices, faces)
    # Orientation sanity: the construction keeps every face outward.
    if mesh.signed_volume <= 0:
        raise AssertionError("icosphere orientation broke")
    return mesh


def validate(mesh: TriangleMesh) -> list[MeshViolation]:
    """Check the closed-manifold invariants; violations are data, not errors.

    Returns an empty list iff the mesh has triangles and is watertight,
    consistently oriented with its normals outward, free of degenerate
    triangles and connected.  Only without edge violations does the signed
    volume tell the orientation, so only then is an inward one reported.
    """
    if mesh.num_triangles == 0:
        return [MeshViolation("empty", (), "mesh has no triangles")]
    violations: list[MeshViolation] = []

    degenerate = np.nonzero(mesh.areas <= 0)[0]
    for t in degenerate:
        violations.append(
            MeshViolation("degenerate-triangle", (int(t),), "triangle has zero area")
        )

    # From the half-edge census: each undirected edge must appear exactly
    # twice, once per direction, for a closed consistently oriented surface.
    directed, order, ids, starts = mesh._half_edges
    counts = np.bincount(ids)
    first, second = order[starts], order[starts + (counts > 1)]
    flipped = (counts == 2) & (directed[first, 0] == directed[second, 0])
    bad_edges = np.flatnonzero((counts != 2) | flipped)
    for e in bad_edges:
        edge = (int(mesh.edges[e, 0]), int(mesh.edges[e, 1]))
        if counts[e] != 2:
            kind = "open-edge" if counts[e] == 1 else "non-manifold-edge"
            message = f"edge shared by {counts[e]} triangle(s), expected 2"
        else:
            kind = "orientation"
            message = (
                "edge traversed twice in the same direction by triangles "
                f"{first[e] % mesh.num_triangles} and {second[e] % mesh.num_triangles}"
            )
        violations.append(MeshViolation(kind, edge, message))
    if not len(bad_edges) and mesh.signed_volume < 0:
        violations.append(MeshViolation("inward", (), "normals point inward: signed volume < 0"))

    if _connected_components(mesh) > 1:
        violations.append(
            MeshViolation("disconnected", (), "surface has more than one component")
        )
    return violations


def _connected_components(mesh: TriangleMesh) -> int:
    from scipy.sparse.csgraph import connected_components

    e = mesh.edges
    if len(e) == 0:
        return 0
    n = mesh.num_vertices
    adj = sp.coo_matrix((np.ones(len(e)), (e[:, 0], e[:, 1])), shape=(n, n))
    return int(connected_components(adj, directed=False, return_labels=False))


def dot3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product over a last axis of length 3, broadcast over the rest."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def winding_number(mesh: TriangleMesh, points: np.ndarray) -> np.ndarray:
    """Generalized winding number of each point: ~1 inside, ~0 outside."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    omega = np.zeros(len(points))
    corners = mesh.corners
    # Chunk over triangles to bound memory on fine meshes: about 40 MB of
    # temporaries per 2**18 point-triangle pairs.
    chunk = max(1, 2**18 // max(len(points), 1))
    for start in range(0, len(corners), chunk):
        c = corners[start : start + chunk]
        a = c[None, :, 0, :] - points[:, None, :]
        b = c[None, :, 1, :] - points[:, None, :]
        d = c[None, :, 2, :] - points[:, None, :]
        la = np.linalg.norm(a, axis=2)
        lb = np.linalg.norm(b, axis=2)
        ld = np.linalg.norm(d, axis=2)
        num = np.einsum("pti,pti->pt", a, np.cross(b, d))
        den = (
            la * lb * ld
            + np.einsum("pti,pti->pt", a, b) * ld
            + np.einsum("pti,pti->pt", b, d) * la
            + np.einsum("pti,pti->pt", d, a) * lb
        )
        omega += 2.0 * np.arctan2(num, den).sum(axis=1)
    return omega / (4.0 * np.pi)


def point_surface_distance(point: np.ndarray, corners: np.ndarray, normals: np.ndarray) -> float:
    """Exact distance from a point to a set of triangles (corners, unit normals)."""
    c = corners
    n = normals
    d = point - c  # (triangle, corner, xyz)
    height = dot3(d[:, 0], n)
    # barycentric test of the in-plane foot point
    v0 = c[:, 1] - c[:, 0]
    v1 = c[:, 2] - c[:, 0]
    v2 = d[:, 0] - height[:, None] * n
    d00 = dot3(v0, v0)
    d01 = dot3(v0, v1)
    d11 = dot3(v1, v1)
    d20 = dot3(v2, v0)
    d21 = dot3(v2, v1)
    denom = d00 * d11 - d01 * d01
    wb = (d11 * d20 - d01 * d21) / denom
    wc = (d00 * d21 - d01 * d20) / denom
    inside = (wb >= 0) & (wc >= 0) & (wb + wc <= 1)
    best = np.abs(height[inside]).min() if np.any(inside) else np.inf
    # edge distances, the edges (0, 1), (1, 2), (2, 0) of every triangle at once
    e = c[:, [1, 2, 0]] - c
    t = np.clip(dot3(d, e) / dot3(e, e), 0, 1)
    gap = d - t[..., None] * e
    return float(min(best, np.sqrt(dot3(gap, gap).min())))


@dataclass(frozen=True)
class SystemLayout:
    """Offsets of the stacked unknown vector [V-blocks, then p-blocks]."""

    v_sizes: tuple
    p_sizes: tuple
    p_kept: tuple

    @property
    def num_interfaces(self) -> int:
        return len(self.v_sizes)

    @property
    def total(self) -> int:
        return sum(self.v_sizes) + sum(s for s, k in zip(self.p_sizes, self.p_kept) if k)

    def v_slice(self, i: int) -> slice:
        start = sum(self.v_sizes[:i])
        return slice(start, start + self.v_sizes[i])

    def p_slice(self, i: int) -> slice | None:
        if not self.p_kept[i]:
            return None
        start = sum(self.v_sizes) + sum(s for s, k in zip(self.p_sizes[:i], self.p_kept) if k)
        return slice(start, start + self.p_sizes[i])


@dataclass
class NestedModel:
    """Ordered nested closed surfaces with per-compartment conductivities.

    ``surfaces[0]`` is innermost.  ``conductivities`` has one entry per
    compartment plus the exterior: ``len(surfaces) + 1`` values, the last
    of which may be zero (insulating exterior).
    """

    surfaces: list[TriangleMesh]
    conductivities: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __init__(self, surfaces, conductivities):
        self.surfaces = list(surfaces)
        self.conductivities = np.asarray(conductivities, dtype=float)
        problems = self.validate()
        if problems:
            raise ValueError("invalid nested model: " + "; ".join(str(p) for p in problems))

    @property
    def num_interfaces(self) -> int:
        return len(self.surfaces)

    @property
    def insulating_exterior(self) -> bool:
        return self.conductivities[-1] == 0.0

    @cached_property
    def layout(self) -> SystemLayout:
        """Offsets of the unknowns of the model's transmission system: per
        surface its vertex block, then per surface its cell block, the
        outermost one dropped with an insulating exterior, where no current
        crosses it.  Built once: the model is checked at construction and
        is not to change after it."""
        p_kept = [True] * self.num_interfaces
        if self.insulating_exterior:
            p_kept[-1] = False
        return SystemLayout(
            tuple(m.num_vertices for m in self.surfaces),
            tuple(m.num_triangles for m in self.surfaces),
            tuple(p_kept),
        )

    def validate(self) -> list[MeshViolation]:
        """Surface invariants plus nesting and conductivity checks."""
        problems: list[MeshViolation] = []
        if not self.surfaces:
            problems.append(MeshViolation("surfaces", (), "a model needs at least one surface"))
        for k, surf in enumerate(self.surfaces):
            for v in validate(surf):
                problems.append(MeshViolation(v.kind, (k,) + v.subject, f"surface {k}: {v.message}"))
        n = len(self.surfaces)
        if self.conductivities.shape != (n + 1,):
            problems.append(
                MeshViolation(
                    "conductivities",
                    (),
                    f"expected {n + 1} conductivities, got {self.conductivities.shape}",
                )
            )
            return problems
        sigma = self.conductivities
        if not (np.all(np.isfinite(sigma)) and np.all(sigma[:-1] > 0) and sigma[-1] >= 0):
            problems.append(
                MeshViolation(
                    "conductivities", (), "interior conductivities must be finite and positive, "
                    "exterior finite and nonnegative"
                )
            )
        for k in range(n - 1):
            inner, outer = self.surfaces[k], self.surfaces[k + 1]
            # a vertex at or beyond the outer bounding sphere cannot be inside
            # the outer surface; the inner bounding sphere may well reach
            # past it when the vertices are unevenly spread
            co, ro = outer.bounding_sphere
            distance = np.linalg.norm(inner.vertices - co, axis=1)
            if distance.max() >= ro:
                problems.append(
                    MeshViolation(
                        "nesting", (k,), f"surface {k} meets the bounding sphere of surface {k + 1}"
                    )
                )
                continue
            # a vertex inside the outer surface's inscribed ball is inside it;
            # every other vertex takes the winding number
            w = winding_number(outer, inner.vertices[distance >= outer.inscribed_radius])
            if np.any(np.abs(w - 1.0) > 0.1):
                problems.append(
                    MeshViolation(
                        "nesting", (k,), f"vertices of surface {k} not strictly inside surface {k + 1}"
                    )
                )
        return problems

    def compartment_of(self, point: np.ndarray) -> int:
        """1-based index of the compartment containing ``point``.

        Compartment ``k`` lies between surfaces ``k-1`` and ``k``;
        ``num_interfaces + 1`` is the exterior.
        """
        point = np.asarray(point, dtype=float)
        for k, surf in enumerate(self.surfaces):
            if surf.contains(point):
                return k + 1
        return self.num_interfaces + 1


def write_off(mesh: TriangleMesh, path) -> None:
    """ASCII OFF writer; floats carry 17 significant digits (exact round trip)."""
    lines = ["OFF", f"{mesh.num_vertices} {mesh.num_triangles} 0"]
    for v in mesh.vertices:
        lines.append(f"{v[0]:.17g} {v[1]:.17g} {v[2]:.17g}")
    for t in mesh.triangles:
        lines.append(f"3 {t[0]} {t[1]} {t[2]}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_off(path) -> TriangleMesh:
    """ASCII OFF reader matching :func:`write_off`; skips blank/comment lines.

    A malformed file raises ``ValueError`` naming the file and the line.
    """
    rows = [
        (number, line.split())
        for number, line in enumerate(Path(path).read_text().splitlines(), start=1)
        if line.strip() and not line.lstrip().startswith("#")
    ]

    def error(number, message):
        return ValueError(f"{path}, line {number}: {message}")

    def three(number, tokens, convert, what):
        if len(tokens) != 3:
            raise error(number, f"expected 3 {what}, got {len(tokens)}")
        try:
            return [convert(x) for x in tokens]
        except ValueError:
            raise error(number, f"expected 3 {what}, got {' '.join(tokens)!r}") from None

    if not rows or rows[0][1] != ["OFF"]:
        raise ValueError(f"{path}: missing OFF header")
    if len(rows) < 2:
        raise ValueError(f"{path}: truncated OFF file")
    nv, nc, _ = three(*rows[1], int, "counts")
    if nv < 0 or nc < 0:
        raise error(rows[1][0], "negative count")
    if len(rows) < 2 + nv + nc:
        raise ValueError(f"{path}: truncated OFF file")
    vertices = np.empty((nv, 3))
    for i, (number, tokens) in enumerate(rows[2 : 2 + nv]):
        vertices[i] = three(number, tokens, float, "coordinates")
        if not np.isfinite(vertices[i]).all():
            raise error(number, f"non-finite coordinates {' '.join(tokens)!r}")
    triangles = np.empty((nc, 3), dtype=np.int64)
    for i, (number, tokens) in enumerate(rows[2 + nv : 2 + nv + nc]):
        if tokens[0] != "3":
            raise error(number, "non-triangle face")
        triangles[i] = three(number, tokens[1:4], int, "vertex indices")
        if triangles[i].min() < 0 or triangles[i].max() >= nv:
            indices = " ".join(tokens[1:4])
            raise error(number, f"vertex indices out of range 0..{nv - 1}: {indices!r}")
    return TriangleMesh(vertices, triangles)
