import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symmbem._quadrature import TRI_RULES
from symmbem.geometry import (
    _ICO_FACES,
    _ICO_VERTICES,
    MAX_SUBDIVISIONS,
    QUADRATURE_RULE,
    NestedModel,
    TriangleMesh,
    make_icosphere,
    point_surface_distance,
    read_off,
    validate,
    winding_number,
    write_off,
)


def test_icosahedron_counts():
    mesh = make_icosphere(0, 1.0)
    assert mesh.num_triangles == 20
    assert mesh.num_vertices == 12


def test_subdivision_counts():
    mesh = make_icosphere(2, 1.0)
    assert mesh.num_triangles == 320
    assert mesh.num_vertices == 162


@given(st.integers(min_value=0, max_value=3), st.floats(min_value=0.1, max_value=10))
@settings(max_examples=20, deadline=None)
def test_icosphere_on_sphere(subdiv, radius):
    mesh = make_icosphere(subdiv, radius)
    assert mesh.num_triangles == 20 * 4**subdiv
    assert mesh.num_vertices == 10 * 4**subdiv + 2
    norms = np.linalg.norm(mesh.vertices, axis=1)
    assert np.abs(norms - radius).max() < 1e-12 * max(radius, 1.0)
    assert mesh.signed_volume > 0


def _loop_icosphere(subdivisions, radius):
    """Midpoint subdivision one cell at a time, with a dict of the edge
    midpoints: the reference :func:`make_icosphere` reproduces bit for bit."""
    verts = [v / np.linalg.norm(v) for v in _ICO_VERTICES]
    faces = _ICO_FACES.tolist()
    for _ in range(subdivisions):
        cache = {}

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key not in cache:
                m = verts[i] + verts[j]
                verts.append(m / np.linalg.norm(m))
                cache[key] = len(verts) - 1
            return cache[key]

        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = new_faces
    return np.array(verts) * radius, np.array(faces)


@pytest.mark.parametrize("subdivisions", range(5))
def test_icosphere_matches_the_cell_by_cell_loop_bit_for_bit(subdivisions):
    for radius in (0.87, 0.92, 1.0):
        vertices, faces = _loop_icosphere(subdivisions, radius)
        mesh = make_icosphere(subdivisions, radius)
        assert np.array_equal(mesh.vertices, vertices)
        assert np.array_equal(mesh.triangles, faces)


def test_projection_radius():
    mesh = make_icosphere(1, 0.9)
    assert np.abs(np.linalg.norm(mesh.vertices, axis=1) - 0.9).max() < 1e-12


def test_subdivision_bound():
    with pytest.raises(ValueError):
        make_icosphere(MAX_SUBDIVISIONS + 1, 1.0)
    with pytest.raises(ValueError):
        make_icosphere(1, -1.0)
    # range() used to raise a TypeError part way through the construction
    with pytest.raises(ValueError, match="an integer in"):
        make_icosphere(1.5, 1.0)


def test_non_finite_vertices_are_rejected(tmp_path):
    mesh = make_icosphere(1, 1.0)
    for bad in (np.nan, np.inf, -np.inf):
        verts = mesh.vertices.copy()
        verts[5, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            TriangleMesh(verts, mesh.triangles)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            make_icosphere(1, bad)
    path = tmp_path / "nan.off"
    lines = list(_TETRAHEDRON_OFF)
    lines[4] = "1 nan 0"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="finite"):
        read_off(path)


def test_area_converges_to_sphere():
    # inscribed polyhedron area approaches 4 pi r^2 from below
    r = 1.3
    exact = 4 * np.pi * r**2
    areas = [make_icosphere(s, r).total_area for s in (1, 2, 3)]
    assert abs(areas[-1] - exact) / exact < 0.01
    assert areas[0] < areas[1] < areas[2] < exact


def test_signed_volume_positive_and_converging():
    r = 1.0
    vol = make_icosphere(3, r).signed_volume
    assert abs(vol - 4 * np.pi / 3) / (4 * np.pi / 3) < 0.02


@pytest.mark.parametrize("subdiv", [0, 2])
def test_edge_cells_are_the_two_cells_of_each_edge(subdiv):
    mesh = make_icosphere(subdiv, 1.0)
    cells = mesh.edge_cells
    assert cells.shape == (len(mesh.edges), 2)
    assert np.all(cells[:, 0] != cells[:, 1])
    for k in range(2):
        tri = mesh.triangles[cells[:, k]]
        for j in range(2):
            assert np.all((tri == mesh.edges[:, j, None]).any(axis=1))
    # each cell borders exactly three edges
    assert np.array_equal(np.bincount(cells.ravel()), np.full(mesh.num_triangles, 3))
    # cell_edges names the edge (t[c, k], t[c, k + 1]) of every cell
    t = mesh.triangles
    ids = mesh.cell_edges
    assert ids.shape == (mesh.num_triangles, 3)
    assert np.array_equal(mesh.edges[ids], np.sort(np.stack([t, t[:, [1, 2, 0]]], axis=2), axis=2))
    assert np.array_equal(np.bincount(ids.ravel()), np.full(len(mesh.edges), 2))


def test_edge_cells_rejects_an_open_mesh():
    mesh = make_icosphere(1, 1.0)
    with pytest.raises(ValueError, match="exactly two triangles"):
        TriangleMesh(mesh.vertices, mesh.triangles[1:]).edge_cells


def test_validate_clean_mesh():
    assert validate(make_icosphere(1, 1.0)) == []


def test_validate_reports_a_mesh_without_triangles():
    # such a surface used to pass, and assembly then divided by its zero
    # cell count
    empty = TriangleMesh(np.zeros((3, 3)), np.zeros((0, 3), int))
    assert [v.kind for v in validate(empty)] == ["empty"]
    with pytest.raises(ValueError, match="no triangles"):
        NestedModel([empty], (1.0, 0.0))


def test_validate_flipped_triangle():
    mesh = make_icosphere(1, 1.0)
    tri = mesh.triangles.copy()
    tri[7] = tri[7][::-1]
    bad = TriangleMesh(mesh.vertices, tri)
    kinds = {v.kind for v in validate(bad)}
    assert "orientation" in kinds
    flagged = [v for v in validate(bad) if v.kind == "orientation"]
    assert any("7" in v.message for v in flagged)


def test_nested_model_rejects_inward_oriented_surfaces():
    # reversing every triangle passes every edge check; as the inner shell,
    # it put the centre in compartment 2 instead of 1
    shells = [make_icosphere(1, r) for r in (0.87, 0.92, 1.0)]
    inner, sphere = shells[0], make_icosphere(2, 1.0)
    inward = TriangleMesh(inner.vertices, inner.triangles[:, ::-1])
    assert inward.signed_volume < 0
    assert [v.kind for v in validate(inward)] == ["inward"]
    for surfaces, sigma in (
        ([inward] + shells[1:], (1.0, 1.0 / 80.0, 1.0, 0.0)),
        ([TriangleMesh(sphere.vertices, sphere.triangles[:, ::-1])], (1.0, 0.0)),
    ):
        with pytest.raises(ValueError, match="surface 0: normals point inward: signed volume < 0"):
            NestedModel(surfaces, sigma)
    # with an edge violation the signed volume tells nothing, and is not read
    tri = inward.triangles.copy()
    tri[7] = inner.triangles[7]
    assert {v.kind for v in validate(TriangleMesh(inner.vertices, tri))} == {"orientation"}


def test_validate_missing_triangle():
    mesh = make_icosphere(1, 1.0)
    bad = TriangleMesh(mesh.vertices, mesh.triangles[1:])
    open_edges = [v for v in validate(bad) if v.kind == "open-edge"]
    assert len(open_edges) == 3
    removed = set(map(int, mesh.triangles[0]))
    for v in open_edges:
        assert set(v.subject) <= removed


def _edge_violations_by_loop(mesh):
    """(kind, subject, message) of each edge violation, from a dict census
    filled half-edge by half-edge in the order (0, 1), (1, 2), (2, 0)."""
    halves = {}
    for k in range(3):
        for c, tri in enumerate(mesh.triangles.tolist()):
            i, j = tri[k], tri[(k + 1) % 3]
            halves.setdefault((min(i, j), max(i, j)), []).append((c, i))
    found = []
    for edge, h in sorted(halves.items()):
        if len(h) != 2:
            kind = "open-edge" if len(h) == 1 else "non-manifold-edge"
            found.append((kind, edge, f"edge shared by {len(h)} triangle(s), expected 2"))
        elif h[0][1] == h[1][1]:
            message = f"edge traversed twice in the same direction by triangles {h[0][0]} and {h[1][0]}"
            found.append(("orientation", edge, message))
    return found


@pytest.mark.parametrize("defect", ["none", "flipped", "missing", "duplicated"])
def test_validate_matches_a_per_edge_loop(defect):
    mesh = make_icosphere(2, 1.0)
    tri = mesh.triangles.copy()
    if defect == "flipped":
        tri[[7, 100]] = tri[[7, 100], ::-1]
    elif defect == "missing":
        tri = tri[1:]
    elif defect == "duplicated":
        tri = np.concatenate([tri, tri[5:6]])
    bad = TriangleMesh(mesh.vertices, tri)
    found = [(v.kind, v.subject, v.message) for v in validate(bad)]
    assert found == _edge_violations_by_loop(bad)
    assert (found == []) == (defect == "none")


def test_validate_duplicated_triangle():
    mesh = make_icosphere(1, 1.0)
    bad = TriangleMesh(mesh.vertices, np.concatenate([mesh.triangles, mesh.triangles[5:6]]))
    violations = validate(bad)
    assert [v.kind for v in violations] == ["non-manifold-edge"] * 3
    assert {v.subject for v in violations} == {
        tuple(sorted(map(int, pair))) for pair in mesh.triangles[5, [[0, 1], [1, 2], [2, 0]]]
    }
    assert all("shared by 3 triangle(s)" in v.message for v in violations)


def test_off_roundtrip_exact(tmp_path):
    mesh = make_icosphere(2, 0.7345982374)
    path = tmp_path / "sphere.off"
    write_off(mesh, path)
    back = read_off(path)
    assert np.array_equal(back.triangles, mesh.triangles)
    assert np.array_equal(back.vertices, mesh.vertices)  # 17 digits: bit exact


def test_off_roundtrip_awkward_floats(tmp_path):
    rng = np.random.default_rng(3)
    mesh = make_icosphere(0, 1.0)
    verts = mesh.vertices * rng.uniform(0.1, 10, size=(mesh.num_vertices, 1))
    jittered = TriangleMesh(verts, mesh.triangles)
    path = tmp_path / "jitter.off"
    write_off(jittered, path)
    assert np.array_equal(read_off(path).vertices, verts)


_TETRAHEDRON_OFF = [
    "OFF",
    "# a tetrahedron",
    "4 4 0",
    "0 0 0", "1 0 0", "0 1 0", "0 0 1",
    "3 0 2 1", "3 0 1 3", "3 0 3 2", "3 1 2 3",
]


def test_read_off_names_the_file_and_line_of_a_malformed_row(tmp_path):
    good = tmp_path / "good.off"
    good.write_text("\n".join(_TETRAHEDRON_OFF) + "\n")
    assert validate(read_off(good)) == []
    # (1-based line, replacement, expected message); the comment line counts
    cases = [
        (3, "4 4", "expected 3 counts, got 2"),
        (3, "4 -1 0", "negative count"),
        (5, "1 0", "expected 3 coordinates, got 2"),
        (9, "3 0 1", "expected 3 vertex indices, got 2"),
        (9, "3 0 1 4", "vertex indices out of range 0..3: '0 1 4'"),
        (10, "3 0 -1 2", "vertex indices out of range 0..3: '0 -1 2'"),
        (5, "1 nan 0", "non-finite coordinates '1 nan 0'"),
        (7, "0 0 -inf", "non-finite coordinates '0 0 -inf'"),
    ]
    for line, text, message in cases:
        lines = list(_TETRAHEDRON_OFF)
        lines[line - 1] = text
        path = tmp_path / f"bad{line}.off"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}, line {line}: {message}")):
            read_off(path)


def test_winding_number_inside_outside():
    mesh = make_icosphere(2, 1.0)
    pts = np.array([[0, 0, 0], [0.3, 0.2, -0.4], [2.0, 0, 0], [0, 1.5, 1.5]])
    w = winding_number(mesh, pts)
    assert np.abs(w[:2] - 1.0).max() < 1e-6
    assert np.abs(w[2:]).max() < 1e-6


def test_nested_model_accepts_ordered_spheres():
    meshes = [make_icosphere(1, r) for r in (0.8, 0.9, 1.0)]
    model = NestedModel(meshes, [1.0, 0.0125, 1.0, 0.0])
    assert model.num_interfaces == 3
    assert model.insulating_exterior


def test_nested_model_rejects_bad_order():
    meshes = [make_icosphere(1, r) for r in (1.0, 0.8)]
    with pytest.raises(ValueError):
        NestedModel(meshes, [1.0, 1.0, 0.0])


def test_nesting_checks_every_inner_vertex():
    # vertex 1 pokes through the flat face of the outer surface while staying
    # inside its bounding sphere; a check that sampled every 5th vertex of
    # the 162 missed it
    outer = make_icosphere(2, 1.0)
    inner = make_icosphere(2, 0.95)
    centroids = outer.corners.mean(axis=1)
    directions = centroids / np.linalg.norm(centroids, axis=1)[:, None]
    face = np.argmax(directions @ inner.vertices[1])
    assert np.linalg.norm(centroids[face]) < 0.99
    vertices = inner.vertices.copy()
    vertices[1] = 0.995 * directions[face]
    poked = TriangleMesh(vertices, inner.triangles)
    assert validate(poked) == []
    model = NestedModel([inner, outer], [1.0, 1.0, 0.0])
    model.surfaces[0] = poked
    assert [p.kind for p in model.validate()] == ["nesting"]
    with pytest.raises(ValueError, match="not strictly inside"):
        NestedModel([poked, outer], [1.0, 1.0, 0.0])


def test_nested_model_rejects_a_model_without_surfaces():
    with pytest.raises(ValueError, match="at least one surface"):
        NestedModel([], (0.0,))


def test_nested_model_rejects_bad_conductivities():
    meshes = [make_icosphere(1, r) for r in (0.8, 1.0)]
    with pytest.raises(ValueError):
        NestedModel(meshes, [1.0, -2.0, 0.0])
    with pytest.raises(ValueError):
        NestedModel(meshes, [1.0, 1.0])


@pytest.mark.parametrize("sigma", [(np.nan, 0.0), (np.inf, 0.0), (1.0, np.inf), (1.0, np.nan)])
def test_nested_model_rejects_non_finite_conductivities(sigma):
    model = NestedModel([make_icosphere(1, 1.0)], (1.0, 0.0))
    model.conductivities = np.array(sigma)
    assert [p.kind for p in model.validate()] == ["conductivities"]
    with pytest.raises(ValueError, match="conductivities"):
        NestedModel(model.surfaces, sigma)


def test_compartment_lookup():
    meshes = [make_icosphere(1, r) for r in (0.8, 0.9, 1.0)]
    model = NestedModel(meshes, [1.0, 1.0, 1.0, 0.0])
    assert model.compartment_of(np.array([0, 0, 0.3])) == 1
    assert model.compartment_of(np.array([0, 0, 0.84])) == 2
    assert model.compartment_of(np.array([0, 0, 0.94])) == 3
    assert model.compartment_of(np.array([0, 0, 2.0])) == 4


def _winding_verdict(mesh, points):
    return np.abs(winding_number(mesh, points) - 1.0) < 0.5


@pytest.mark.parametrize("axes", [(1.0, 1.0, 1.0), (1.1, 1.0, 0.85), (1.6, 0.7, 0.5)])
def test_contains_matches_the_winding_number(axes):
    sphere = make_icosphere(2, 0.9)
    mesh = TriangleMesh(sphere.vertices * np.array(axes), sphere.triangles)
    rng = np.random.default_rng(7)
    directions = rng.standard_normal((40, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    on_surface = 0.9 * directions * np.array(axes)
    scaled = np.concatenate([f * on_surface for f in (0.0, 0.3, 0.8, 0.97, 1.03, 1.2, 2.5)])
    # just inside and just outside the faceted surface, at cell centroids
    # and at points near the corners
    near = np.concatenate([mesh.centroids, 0.9 * mesh.corners[:, 0] + 0.1 * mesh.centroids])
    normals = np.concatenate([mesh.normals, mesh.normals])
    points = np.concatenate([scaled, near - 1e-6 * normals, near + 1e-6 * normals])
    verdicts = [mesh.contains(p) for p in points]
    assert verdicts == list(_winding_verdict(mesh, points))
    assert not any(verdicts[-len(near):]) and all(verdicts[-2 * len(near):-len(near)])


def test_inscribed_radius_is_the_exact_distance_to_the_surface():
    mesh = make_icosphere(2, 1.0)
    center, radius = mesh.bounding_sphere[0], mesh.inscribed_radius
    assert radius == point_surface_distance(center, mesh.corners, mesh.normals)
    # on the icosphere the nearest points are the in-plane feet of the cells
    plane_distance = np.abs(np.einsum("ij,ij->i", mesh.corners[:, 0] - center, mesh.normals))
    assert abs(radius - plane_distance.min()) <= 1e-15
    assert 0.95 < radius < 1.0


def test_inscribed_radius_is_0_when_the_vertex_mean_lies_outside():
    # two disjoint spheres as one surface: the vertex mean lies between them
    left = make_icosphere(1, 0.5)
    right = TriangleMesh(left.vertices + np.array([3.0, 0.0, 0.0]), left.triangles)
    both = TriangleMesh(
        np.concatenate([left.vertices, right.vertices]),
        np.concatenate([left.triangles, right.triangles + left.num_vertices]),
    )
    assert both.inscribed_radius == 0.0
    points = np.array([[1.5, 0.0, 0.0], [0.0, 0.0, 0.0], [3.0, 0.1, 0.0], [1.5, 2.0, 0.0]])
    assert [both.contains(p) for p in points] == list(_winding_verdict(both, points))
    assert [both.contains(p) for p in points] == [False, True, True, False]


def test_quadrature_points_are_component_major_rule_point_by_rule_point():
    mesh = make_icosphere(1, 0.9)
    bary, weights = TRI_RULES[QUADRATURE_RULE]
    points, q = mesh.quadrature_points, len(weights)
    assert points.shape == (3, q * mesh.num_triangles) and points.flags.c_contiguous
    for j, t in [(0, 0), (q - 1, 5), (2, mesh.num_triangles - 1)]:
        assert np.array_equal(points[:, j * mesh.num_triangles + t], bary[j] @ mesh.corners[t])
        assert mesh.quadrature_weights[j, t] == weights[j] * mesh.areas[t]
    # the 6-point rule's weights are given to 15 digits
    assert abs(mesh.quadrature_weights.sum() - mesh.total_area) <= 1e-14 * mesh.total_area


def test_transposed_curls_are_the_csr_transposes_of_the_curls():
    mesh = make_icosphere(1, 1.0)
    for ct, c in zip(mesh.transposed_curls, mesh.curls):
        assert ct.format == "csr" and (ct != c.T).nnz == 0
