import numpy as np
import pytest

from symmbem.geometry import TriangleMesh, make_icosphere
from symmbem.spaces import (
    barycentric_refinement,
    gram_p0,
    gram_p1,
    mixed_gram_dual,
    mixed_gram_p0_p1,
    patch_space,
    pyramid_space,
)

SINGLE = TriangleMesh(
    np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0]]), np.array([[0, 1, 2]])
)


def test_gram_p0_single_triangle():
    g = gram_p0(patch_space(SINGLE)).toarray()
    assert np.allclose(g, [[0.5]], atol=1e-15)


def test_gram_p0_trace_is_total_area():
    mesh = make_icosphere(1, 1.0)
    g = gram_p0(patch_space(mesh))
    assert abs(g.diagonal().sum() - mesh.total_area) < 1e-12


def test_gram_p0_equal_triangles():
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]])
    mesh = TriangleMesh(verts, np.array([[0, 1, 2], [1, 3, 2]]))
    d = gram_p0(patch_space(mesh)).diagonal()
    assert abs(d[0] - d[1]) < 1e-15


def test_gram_p1_single_triangle():
    g = gram_p1(pyramid_space(SINGLE)).toarray()
    expect = np.full((3, 3), 1.0 / 24.0)
    np.fill_diagonal(expect, 1.0 / 12.0)
    assert np.allclose(g, expect, atol=1e-15)


def test_gram_p1_partition_of_unity():
    mesh = make_icosphere(2, 1.0)
    g = gram_p1(pyramid_space(mesh))
    ones = np.ones(mesh.num_vertices)
    assert abs(ones @ (g @ ones) - mesh.total_area) < 1e-12


def test_gram_p1_spd_and_exactly_symmetric():
    mesh = make_icosphere(1, 1.0)
    g = gram_p1(pyramid_space(mesh))
    assert (abs(g - g.T)).max() == 0.0
    vals = np.linalg.eigvalsh(g.toarray())
    assert vals[0] > 0


@pytest.mark.parametrize("subdiv", [None, 1, 2, 3], ids=["single", "sub1", "sub2", "sub3"])
def test_gram_p1_row_sums_are_the_vertex_masses(subdiv):
    # the lumped masses the preconditioner reads from the mesh
    mesh = SINGLE if subdiv is None else make_icosphere(subdiv, 1.0)
    rows = np.asarray(gram_p1(pyramid_space(mesh)).sum(axis=1)).ravel()
    assert np.abs(rows - mesh.vertex_masses).max() <= 1e-15


@pytest.mark.parametrize("subdiv", [1, 2, 3])
def test_lumping_spectrally_equivalent(subdiv):
    mesh = make_icosphere(subdiv, 1.0)
    g = gram_p1(pyramid_space(mesh))
    d = mesh.vertex_masses**-0.5
    scaled = (d[:, None] * g.toarray()) * d[None, :]
    rows = scaled.sum(axis=1)
    assert rows.min() > 0.5 and rows.max() < 2.0
    vals = np.linalg.eigvalsh(scaled)
    assert vals[-1] / vals[0] <= 10.0


def _dual_function_masses(mesh):
    """Closed-form integral of each dual function over the whole surface.

    Each refined triangle has a sixth of its parent's area, so a refinement
    hat integrates to A_c/3 at a barycenter, A_c/9 per cell at an edge
    midpoint and A_c/9 per incident cell at a primal vertex. Weighted by the
    dual nodal values 1, 1/2 and 1/valence this gives
    A_m/3 + sum_edges (A_m + A_n)/18 + sum_v (1/N_v) sum_{c contains v} A_c/9.
    """
    areas = mesh.areas
    tris = mesh.triangles
    valence = np.bincount(tris.ravel(), minlength=mesh.num_vertices)
    area_at_vertex = np.bincount(
        tris.ravel(), weights=np.repeat(areas, 3), minlength=mesh.num_vertices
    )
    cells_of_edge = {}
    for c, tri in enumerate(tris):
        for k in range(3):
            a, b = int(tri[k]), int(tri[(k + 1) % 3])
            cells_of_edge.setdefault((min(a, b), max(a, b)), []).append(c)
    masses = areas / 3.0
    for c, tri in enumerate(tris):
        for k in range(3):
            a, b = int(tri[k]), int(tri[(k + 1) % 3])
            m, n = cells_of_edge[(min(a, b), max(a, b))]
            masses[c] += (areas[m] + areas[n]) / 18.0
        masses[c] += np.sum(area_at_vertex[tri] / valence[tri]) / 9.0
    return masses


def test_mixed_gram_dual_row_sums_are_cell_areas():
    # columns sum to the cell areas (the dual functions partition unity);
    # rows sum to the dual-function masses, which are the cell areas only
    # where neighbouring cells have equal areas
    mesh = make_icosphere(1, 1.0)
    g = mixed_gram_dual(mesh)
    cols = np.asarray(g.sum(axis=0)).ravel()
    rows = np.asarray(g.sum(axis=1)).ravel()
    assert np.abs(cols - mesh.areas).max() < 1e-12 * mesh.areas.max()
    masses = _dual_function_masses(mesh)
    assert np.abs(rows - masses).max() < 1e-12 * masses.max()
    # the icosahedron's cells all have the same area
    ico = make_icosphere(0, 1.0)
    rows = np.asarray(mixed_gram_dual(ico).sum(axis=1)).ravel()
    assert np.abs(rows - ico.areas).max() < 1e-12 * ico.areas.max()


def test_mixed_gram_dual_total_mass():
    mesh = make_icosphere(1, 1.0)
    assert abs(mixed_gram_dual(mesh).sum() - mesh.total_area) < 1e-12


def test_mixed_gram_dual_diagonal_dominates():
    mesh = make_icosphere(0, 1.0)
    g = mixed_gram_dual(mesh).toarray()
    for m in range(mesh.num_triangles):
        off = np.abs(np.delete(g[m], m)).max()
        assert g[m, m] > off


def test_mixed_gram_dual_matches_refinement_quadrature():
    # independent path: evaluate the dual functions off the coefficient
    # matrix at quadrature nodes of each refined triangle
    mesh = make_icosphere(0, 1.0)
    ref_vertices, ref_triangles, coeff = barycentric_refinement(mesh)
    coeff = coeff.toarray()
    bary = np.array([[2 / 3, 1 / 6, 1 / 6], [1 / 6, 2 / 3, 1 / 6], [1 / 6, 1 / 6, 2 / 3]])
    w3 = np.full(3, 1.0 / 3.0)
    nc = mesh.num_triangles
    g_ref = np.zeros((nc, nc))
    for rt_index, tri in enumerate(ref_triangles):
        parent = rt_index // 6
        corners = ref_vertices[tri]
        area = 0.5 * np.linalg.norm(np.cross(corners[1] - corners[0], corners[2] - corners[0]))
        # value of dual function m at a barycentric point of this refined tri
        node_vals = coeff[tri, :]  # (3, nc)
        for b, w in zip(bary, w3):
            vals = b @ node_vals  # (nc,)
            g_ref[:, parent] += w * area * vals
    g = mixed_gram_dual(mesh).toarray()
    assert np.abs(g - g_ref).max() < 1e-13


@pytest.mark.parametrize("subdiv", [0, 2])
def test_barycentric_refinement_matches_a_per_cell_loop(subdiv):
    # reference: look every cell edge up in a dict of the mesh edges
    mesh = make_icosphere(subdiv, 1.0)
    nv, ne = mesh.num_vertices, len(mesh.edges)
    edge_index = {tuple(e): k for k, e in enumerate(mesh.edges.tolist())}
    expect, mid_rows = [], []
    for c, (v0, v1, v2) in enumerate(mesh.triangles.tolist()):
        m = [nv + edge_index[tuple(sorted(p))] for p in ((v0, v1), (v1, v2), (v2, v0))]
        b = nv + ne + c
        expect += [(v0, m[0], b), (m[0], v1, b), (v1, m[1], b), (m[1], v2, b), (v2, m[2], b), (m[2], v0, b)]
        mid_rows.append(m)
    _, ref_triangles, coeff = barycentric_refinement(mesh)
    assert np.array_equal(ref_triangles, np.array(expect))
    cells = np.repeat(np.arange(mesh.num_triangles), 3)
    assert np.all(coeff[np.ravel(mid_rows), cells] == 0.5)


def test_mixed_gram_p0_p1_row_sums():
    mesh = make_icosphere(1, 1.0)
    g = mixed_gram_p0_p1(mesh)
    assert np.abs(np.asarray(g.sum(axis=1)).ravel() - mesh.areas).max() < 1e-14
