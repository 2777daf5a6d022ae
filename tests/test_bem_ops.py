import dataclasses
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from symmbem import _quadrature as quad
from symmbem import bem_ops
from symmbem.bem_ops import (
    DEFAULT_QUADRATURE,
    TAGS,
    _thread_count,
    assemble_operators,
)
from symmbem.geometry import TriangleMesh, make_icosphere
from symmbem.oracle import (
    sphere_double_layer_eigenvalue,
    sphere_hypersingular_eigenvalue,
    sphere_operator_eigenvalue,
    sphere_single_layer_eigenvalue,
)
from symmbem.spaces import Kind
from oracles import (
    duffy_triangle_kernels,
    galerkin_single_layer_entry,
    pair_double_layer_reference,
    regular_pair_integrals,
    triangle_potential,
)

FOUR_PI = 4.0 * np.pi
SHELL_RADII = (0.87, 0.92, 1.0)


@pytest.fixture(scope="module")
def sphere2():
    return make_icosphere(2, 1.0)


@pytest.fixture(scope="module")
def sphere2_ops(sphere2):
    return assemble_operators(sphere2, sphere2)


@pytest.fixture(scope="module")
def shells1():
    return [make_icosphere(1, r) for r in SHELL_RADII]


@pytest.fixture(scope="module")
def sphere3():
    return make_icosphere(3, 1.0)


@pytest.fixture(scope="module")
def sphere3_ops(sphere3):
    return assemble_operators(sphere3, sphere3)


def _singular_order_12(monkeypatch):
    high = dataclasses.replace(DEFAULT_QUADRATURE, singular_order=12)
    monkeypatch.setattr(bem_ops, "DEFAULT_QUADRATURE", high)


def test_coincident_self_term_matches_adaptive_oracle(monkeypatch):
    # Value frozen from the regularizing transform at orders 16/20 (stable
    # to 5e-15) and cross-checked against the analytic-inner adaptive
    # oracle.  The assembly path must reproduce it at elevated transform
    # order; the design default (order 4) is pinned at its own accuracy.
    tri = TriangleMesh(
        np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0]]), np.array([[0, 1, 2]])
    )
    reference = 0.07982144690425
    default = assemble_operators(tri, tri)["S"].matrix[0, 0]
    assert abs(default - reference) / reference < 5e-4
    _singular_order_12(monkeypatch)
    high = assemble_operators(tri, tri)["S"].matrix[0, 0]
    assert high > 0
    assert abs(high - reference) < 1e-8


def test_single_layer_far_field_limit():
    a = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0]])
    offset = np.array([40.0, 3.0, 5.0])  # ~ 28 diameters away
    verts = np.concatenate([a, a * 0.8 + offset])
    mesh_t = TriangleMesh(verts[:3], np.array([[0, 1, 2]]))
    mesh_s = TriangleMesh(verts[3:], np.array([[0, 1, 2]]))
    block = assemble_operators(mesh_t, mesh_s)["S"]
    r = np.linalg.norm(mesh_t.centroids[0] - mesh_s.centroids[0])
    expect = mesh_t.areas[0] * mesh_s.areas[0] / (FOUR_PI * r)
    assert abs(block.matrix[0, 0] - expect) / expect < 0.01


def test_single_layer_edge_pair_against_oracle(monkeypatch):
    verts = np.array(
        [[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0], [0.3, -0.8, 0.2]]
    )
    mesh = TriangleMesh(verts, np.array([[0, 1, 2], [1, 0, 3]]))
    _singular_order_12(monkeypatch)
    block = assemble_operators(mesh, mesh)["S"]
    ref = galerkin_single_layer_entry(verts[[0, 1, 2]], verts[[1, 0, 3]])
    assert abs(block.matrix[0, 1] - ref) / abs(ref) < 1e-8
    assert abs(block.matrix[1, 0] - ref) / abs(ref) < 1e-8


def test_single_layer_sphere_l0(sphere3, sphere3_ops):
    val = sphere_operator_eigenvalue(sphere3_ops["S"], sphere3, 0)
    assert abs(val - sphere_single_layer_eigenvalue(0)) < 0.03


def test_single_layer_monotone_decrease_in_degree(sphere3, sphere3_ops):
    vals = [sphere_operator_eigenvalue(sphere3_ops["S"], sphere3, l) for l in range(5)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_single_layer_self_block_spd(sphere2_ops):
    s = sphere2_ops["S"].matrix
    assert np.abs(s - s.T).max() == 0.0
    vals = np.linalg.eigvalsh(s)
    assert vals[0] > 0


def test_double_layer_solid_angle_identity(sphere3, sphere3_ops):
    ones = np.ones(sphere3.num_vertices)
    u = (sphere3_ops["D"].matrix @ ones) / sphere3.areas
    assert np.abs(u + 0.5).max() < 1e-3


def test_double_layer_far_field_limit():
    a = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0]])
    offset = np.array([40.0, 3.0, 5.0])
    mesh_t = TriangleMesh(a, np.array([[0, 1, 2]]))
    mesh_s = TriangleMesh(a * 0.8 + offset, np.array([[0, 1, 2]]))
    block = assemble_operators(mesh_t, mesh_s)["D"]
    d = mesh_t.centroids[0] - mesh_s.centroids[0]
    r = np.linalg.norm(d)
    kernel = (d @ mesh_s.normals[0]) / (FOUR_PI * r**3)
    expect = mesh_t.areas[0] * mesh_s.areas[0] * kernel / 3.0
    for n in range(3):
        assert abs(block.matrix[0, n] - expect) / abs(expect) < 0.02


def test_double_layer_sphere_l1(sphere3, sphere3_ops):
    val = sphere_operator_eigenvalue(sphere3_ops["D"], sphere3, 1)
    expect = sphere_double_layer_eigenvalue(1)
    assert abs(val - expect) / abs(expect) < 0.05


def test_adjoint_double_layer_is_exact_transpose(sphere2_ops):
    d = sphere2_ops["D"].matrix
    ds = sphere2_ops["Dstar"].matrix
    assert np.abs(ds - d.T).max() <= 1e-13 * np.abs(d).max()


def test_adjoint_double_layer_far_field_limit():
    a = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0]])
    offset = np.array([40.0, 3.0, 5.0])
    mesh_t = TriangleMesh(a, np.array([[0, 1, 2]]))
    mesh_s = TriangleMesh(a * 0.8 + offset, np.array([[0, 1, 2]]))
    block = assemble_operators(mesh_t, mesh_s)["Dstar"]
    d = mesh_t.centroids[0] - mesh_s.centroids[0]
    r = np.linalg.norm(d)
    kernel = -(d @ mesh_t.normals[0]) / (FOUR_PI * r**3)
    expect = mesh_t.areas[0] * mesh_s.areas[0] * kernel / 3.0
    for m in range(3):
        assert abs(block.matrix[m, 0] - expect) / abs(expect) < 0.02


def test_adjoint_double_layer_sphere_l0(sphere3, sphere3_ops):
    val = sphere_operator_eigenvalue(sphere3_ops["Dstar"], sphere3, 0)
    d_val = sphere_operator_eigenvalue(sphere3_ops["D"], sphere3, 0)
    assert abs(val - d_val) < 1e-10  # exact transpose pair
    assert abs(val - sphere_double_layer_eigenvalue(0)) < 1e-3


def test_hypersingular_annihilates_constants(sphere2_ops):
    n = sphere2_ops["N"].matrix
    ones = np.ones(n.shape[0])
    assert np.linalg.norm(n @ ones) <= 1e-12 * np.linalg.norm(n)


def test_hypersingular_symmetry(sphere2_ops):
    n = sphere2_ops["N"].matrix
    assert np.abs(n - n.T).max() <= 1e-13 * np.abs(n).max()


def test_hypersingular_psd_with_one_dim_kernel(sphere2_ops):
    vals = np.linalg.eigvalsh(sphere2_ops["N"].matrix)
    assert vals[0] >= -1e-10 * vals[-1]
    assert vals[1] > 1e-6 * vals[-1]


def test_hypersingular_sphere_l1(sphere3, sphere3_ops):
    val = sphere_operator_eigenvalue(sphere3_ops["N"], sphere3, 1)
    expect = sphere_hypersingular_eigenvalue(1)
    assert abs(val - expect) / expect < 0.05


def test_cross_surface_blocks_finite_and_zero_free():
    inner = make_icosphere(1, 0.8)
    outer = make_icosphere(1, 1.3)
    ops = assemble_operators(inner, outer)
    assert set(ops) == set(TAGS)
    for tag, block in ops.items():
        assert np.all(np.isfinite(block.matrix)), tag
        rows = inner.num_triangles if block.row_kind is Kind.PATCH else inner.num_vertices
        cols = outer.num_triangles if block.col_kind is Kind.PATCH else outer.num_vertices
        assert block.matrix.shape == (rows, cols), tag
    # smooth kernels: single-layer entries all strictly positive
    assert ops["S"].matrix.min() > 0


PANEL = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.2, 0.9, 0]])  # in the plane z = 0
PANEL_POINTS = {
    "off_the_plane": np.random.default_rng(3).normal(size=(12, 3)),
    "in_the_plane": np.array([[0.9, 0.8, 0], [0.5, -0.3, 0], [-0.4, 0.6, 0], [3.0, 2.0, 0]]),
    "on_edge_lines": np.concatenate(
        [PANEL[i] + t * (PANEL[(i + 1) % 3] - PANEL[i]) for i in range(3) for t in (-0.5, 1.7)]
    ).reshape(-1, 3),
    "above_vertices": np.concatenate([PANEL + [0, 0, z] for z in (0.3, -0.05)]),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("where", PANEL_POINTS)
def test_panel_integrals_match_independent_references(where):
    points = PANEL_POINTS[where]
    nx = np.array([0.3, -0.5, 0.8]) / np.linalg.norm([0.3, -0.5, 0.8])
    panels = bem_ops._Panels.of(_single_cell(PANEL))
    s, w, d, ds = bem_ops._panel_integrals(points.T[:, :, None], nx[:, None], panels)
    s, w, d, ds = s[:, 0], w[:, 0], d[:, :, 0].T, ds[:, 0]
    assert all(np.isfinite(a).all() for a in (s, w, d, ds))
    potential = np.array([triangle_potential(x, PANEL) for x in points])
    double_layer, gradient = duffy_triangle_kernels(points, PANEL, n1d=60)
    assert np.abs(s - potential).max() <= 1e-13 * np.abs(potential).max()
    scale = max(np.abs(double_layer).max(), np.abs(gradient).max())
    assert np.abs(d - double_layer).max() <= 1e-13 * scale
    assert np.abs(ds + gradient @ nx).max() <= 1e-13 * scale
    assert np.abs(d.sum(axis=1) - w).max() <= 1e-15 * max(np.abs(w).max(), 1.0)
    if where in ("in_the_plane", "on_edge_lines"):
        assert np.abs(w).max() == 0.0 and np.abs(d).max() == 0.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_solid_angles_of_a_closed_surface(sphere2):
    panels = bem_ops._Panels.of(sphere2)
    nc = sphere2.num_triangles
    for point, total in (([0.1, -0.2, 0.3], -FOUR_PI), ([1.2, 0.4, -0.1], 0.0)):
        x = np.broadcast_to(np.array(point)[:, None, None], (3, 1, nc))
        _, w, _, _ = bem_ops._panel_integrals(x, np.zeros((3, nc)), panels)
        assert abs(w.sum() - total) <= 1e-12


def test_cross_pair_double_layer_row_sums():
    # Before calibration, the double layer of a closed surface seen from the
    # surface inside it sums to minus the row areas.  On the nearly touching
    # 0.87/0.92 shells the 6x16 tensor rule left a defect of 5.96e-5 of the
    # largest area; the closed-form tier leaves 3.7e-5, which is the
    # defect of the coarser tiers.
    inner, middle = (make_icosphere(2, r) for r in SHELL_RADII[:2])
    rows = assemble_operators(inner, middle)["D"].matrix.sum(axis=1)
    assert np.abs(rows + inner.areas).max() < 4.0e-5 * inner.areas.max()


def test_threads_env_does_not_change_results(shells1, monkeypatch):
    submitted = []

    class CountingPool(ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            submitted.append(fn)
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(bem_ops, "ThreadPoolExecutor", CountingPool)
    inner, middle = shells1[:2]
    for mesh_t, mesh_s in ((inner, inner), (inner, middle)):
        blocks = {}
        for threads in (1, 2, 3):
            monkeypatch.setenv("SYMMBEM_THREADS", str(threads))
            submitted.clear()
            blocks[threads] = assemble_operators(mesh_t, mesh_s)
            if threads > 1:  # more batches than can be in flight: the pool runs
                assert len(submitted) > threads + 1
        for threads in (2, 3):
            for tag in TAGS:
                assert np.array_equal(blocks[1][tag].matrix, blocks[threads][tag].matrix), tag


@pytest.fixture
def workspace_shapes(monkeypatch):
    """The shape of every batch workspace requested while the test runs."""
    shapes = []
    buffers = bem_ops._Workspace.buffers

    def spy(self, shape):
        shapes.append(shape)
        return buffers(self, shape)

    monkeypatch.setattr(bem_ops._Workspace, "buffers", spy)
    return shapes


def test_batches_honour_the_point_pair_budget(shells1, monkeypatch, workspace_shapes):
    shapes = workspace_shapes
    inner, middle = shells1[:2]
    pairs = ((inner, inner), (inner, middle))
    reference = [assemble_operators(*pair) for pair in pairs]
    assert max(np.prod(s) for s in shapes) <= bem_ops.BATCH_POINT_PAIRS
    # closed-form workspaces are (7, outer points, pairs), and a pair counts
    # as the outer rule squared against the budget
    q = len(quad.collapsed_rule(bem_ops.OUTER_ORDER)[1])
    closed = [s for s in shapes if s[:2] == (7, q)]
    assert closed and max(s[-1] for s in closed) == bem_ops.BATCH_POINT_PAIRS // q**2

    # a budget of one 6x4 pair: every composite and closed-form batch holds
    # a single pair, and the regular sweep classifies its tiers in many row
    # blocks
    budget = len(quad.TRI_RULES["6x4"][1]) ** 2
    monkeypatch.setattr(bem_ops, "BATCH_POINT_PAIRS", budget)
    shapes.clear()
    for pair, ref in zip(pairs, reference):
        small = assemble_operators(*pair)
        for tag in TAGS:
            a, b = small[tag].matrix, ref[tag].matrix
            assert np.abs(a - b).max() <= 1e-14 * np.abs(b).max(), tag
    # workspace shapes are (points..., pairs)
    assert all(np.prod(s) <= budget or s[-1] == 1 for s in shapes)
    composite = [s for s in shapes if np.prod(s[:-1]) >= budget]
    assert composite and all(s[-1] == 1 for s in composite)
    closed = [s for s in shapes if s[:2] == (7, q)]
    assert closed and all(s[-1] == 1 for s in closed)


def test_regular_batches_honour_the_triangle_pair_cap(sphere2, monkeypatch, workspace_shapes):
    # a budget small enough for the far-field 3-point tier to reach the
    # cap; point pairs alone would let each of its batches hold four times
    # as many triangle pairs
    reference = assemble_operators(sphere2, sphere2)
    workspace_shapes.clear()
    budget = 2**12
    monkeypatch.setattr(bem_ops, "BATCH_POINT_PAIRS", budget)
    small = assemble_operators(sphere2, sphere2)
    for tag in TAGS:
        a, b = small[tag].matrix, reference[tag].matrix
        assert np.abs(a - b).max() <= 1e-14 * np.abs(b).max(), tag
    # regular-sweep workspaces are (points of t, points of s, triangle pairs)
    regular = [s for s in workspace_shapes if len(s) == 3]
    caps = [max(1, budget // max(qt * qs, bem_ops.MIN_PAIR_POINTS)) for qt, qs, _ in regular]
    assert all(s[-1] <= cap for s, cap in zip(regular, caps))
    far = [s[-1] for s in regular if s[:2] == (3, 3)]
    assert max(far) == budget // bem_ops.MIN_PAIR_POINTS


def _tier_rules(mesh_t, mesh_s):
    """The tensor rule ``_regular_sweep`` applies to each triangle pair."""
    cfg = DEFAULT_QUADRATURE
    rules = [rule for _, rule in cfg.near_tiers] + [cfg.far_points]
    dist = np.linalg.norm(mesh_t.centroids[:, None] - mesh_s.centroids[None], axis=2)
    ratio = dist / np.maximum(mesh_t.diameters[:, None], mesh_s.diameters[None, :])
    return np.array(rules, dtype=object)[np.searchsorted([t for t, _ in cfg.near_tiers], ratio)]


def _merged(meshes):
    """One mesh object holding several disjoint surfaces."""
    offsets = np.cumsum([0] + [m.num_vertices for m in meshes[:-1]])
    return TriangleMesh(
        np.concatenate([m.vertices for m in meshes]),
        np.concatenate([m.triangles + o for m, o in zip(meshes, offsets)]),
    )


def _single_cell(corners):
    return TriangleMesh(corners, np.array([[0, 1, 2]]))


def _relative_error(value, reference):
    return np.abs(np.subtract(value, reference)).max() / np.abs(reference).max()


@pytest.mark.parametrize("pair", ["self", "cross"])
def test_regular_tiers_match_per_pair_double_loop(pair):
    # Self: the inner two shells at subdivision 2 as one surface, so that
    # every tier occurs among its own (mirror-filled) pairs; cross: the same
    # two shells as two surfaces.  Each sampled S entry is one pair; each D
    # and Dstar entry sums the pairs around its vertex, all of them regular,
    # and is compared against the sum of the magnitudes of those pairs.
    # The tensor tiers take their pair values from the plain double loop;
    # the closed-form tier takes them from the pair assembled on its own,
    # and its sampled pair is checked against independent references, no
    # less accurately than the composite tensor rule it replaced.
    inner, middle = (make_icosphere(2, r) for r in SHELL_RADII[:2])
    mesh_t, mesh_s = (_merged([inner, middle]),) * 2 if pair == "self" else (inner, middle)
    same = mesh_t is mesh_s
    ops = assemble_operators(mesh_t, mesh_s)
    rules = _tier_rules(mesh_t, mesh_s)
    tri_t, tri_s = mesh_t.triangles, mesh_s.triangles
    cache = {}

    def closed_form(t, s):
        """Pair (t, s) assembled on its own; on a single surface the pair
        t < s fills both orientations."""
        if same and t > s:
            value, d, ds = closed_form(s, t)
            return value, ds, d
        one = assemble_operators(_single_cell(mesh_t.corners[t]), _single_cell(mesh_s.corners[s]))
        return one["S"].matrix[0, 0], one["D"].matrix[0], one["Dstar"].matrix[:, 0]

    def oracle(t, s):
        if (t, s) not in cache:
            if rules[t, s] == bem_ops.CLOSED_FORM_TIER:
                cache[t, s] = closed_form(t, s)
            else:
                rule = quad.TRI_RULES[rules[t, s]]
                cache[t, s] = regular_pair_integrals(mesh_t.corners[t], mesh_s.corners[s], rule)
        return cache[t, s]

    def regular(t, s):
        return not (same and set(tri_t[t]) & set(tri_s[s]))

    def check(value, terms):
        assert abs(value - sum(terms)) <= 1e-13 * sum(abs(x) for x in terms)

    def check_entries(t, s):
        assert abs(ops["S"].matrix[t, s] - oracle(t, s)[0]) <= 1e-13 * oracle(t, s)[0]
        checked = 0
        for v in tri_s[s]:
            cells = np.nonzero((tri_s == v).any(axis=1))[0]
            if all(regular(t, c) for c in cells):
                terms = [oracle(t, c)[1][list(tri_s[c]).index(v)] for c in cells]
                check(ops["D"].matrix[t, v], terms)
                checked += 1
        for u in tri_t[t]:
            cells = np.nonzero((tri_t == u).any(axis=1))[0]
            if all(regular(c, s) for c in cells):
                terms = [oracle(c, s)[2][list(tri_t[c]).index(u)] for c in cells]
                check(ops["Dstar"].matrix[u, s], terms)
                checked += 1
        return checked

    def check_closed_form_accuracy(t, s):
        ct, cs = mesh_t.corners[t], mesh_s.corners[s]
        tensor = regular_pair_integrals(ct, cs, quad.TRI_RULES["6x16"])
        references = (galerkin_single_layer_entry(ct, cs), *pair_double_layer_reference(ct, cs))
        for name, value, old, ref in zip(TAGS, oracle(t, s), tensor, references):
            error, old_error = _relative_error(value, ref), _relative_error(old, ref)
            print(f"{pair} {t}, {s}: {name} error {error:.2e}, 6x16 tensor rule {old_error:.2e}")
            assert error <= old_error, name

    rng = np.random.default_rng(7)
    for rule in ("6x16", "6x4", 6, 3):
        candidates = np.argwhere(rules == rule)
        candidates = [(t, s) for t, s in candidates if regular(t, s) and t != s]
        assert candidates, rule
        t, s = candidates[rng.integers(len(candidates))]
        checked = check_entries(t, s)
        if same:  # the mirrored orientation, filled from the same pair
            checked += check_entries(s, t)
        assert checked > 0, rule
        if rule == bem_ops.CLOSED_FORM_TIER:
            check_closed_form_accuracy(t, s)


def test_threads_env_must_be_positive_integer(monkeypatch):
    monkeypatch.setenv("SYMMBEM_THREADS", " 3 ")
    assert _thread_count() == 3
    for value in ("abc", "0", "-3", "2.5"):
        monkeypatch.setenv("SYMMBEM_THREADS", value)
        with pytest.raises(ValueError, match="SYMMBEM_THREADS"):
            _thread_count()
