import copy
import dataclasses
import tracemalloc

import numpy as np
import pytest

from symmbem import _quadrature as quad
from symmbem import bem_ops
from symmbem.bem_ops import (
    DEFAULT_QUADRATURE,
    TAGS,
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
    cached_single_layer_entry,
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
    # the pair of test_quadrature's edge test, whose trial corners run 0, 1, 3
    ref = cached_single_layer_entry(verts[[0, 1, 2]], verts[[0, 1, 3]])
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


def _first_curls_read(monkeypatch, on_read):
    """Call ``on_read()`` at the first read of ``TriangleMesh.curls`` after
    each ``reads.clear()``, which comes when the sweeps are done and N is
    about to be formed; returns the list ``reads`` of its results."""
    curls = TriangleMesh.curls.func
    reads = []

    def curls_after_the_sweeps(mesh):
        if not reads:
            reads.append(on_read())
        return curls(mesh)

    # a property, unlike the cached one, is read on every access
    monkeypatch.setattr(TriangleMesh, "curls", property(curls_after_the_sweeps))
    return reads


def _reference_hypersingular(mesh_t, mesh_s, single_layer):
    """N formed whole from S, as one product per curl component, and
    symmetrised on a single surface."""
    nmat = np.zeros((mesh_t.num_vertices, mesh_s.num_vertices))
    for ct, cs in zip(mesh_t.curls, mesh_s.curls):
        nmat += (cs.T @ (ct.T @ single_layer).T).T
    return 0.5 * (nmat + nmat.T) if mesh_t is mesh_s else nmat


@pytest.mark.parametrize(
    "pair, budget",
    [("self", None), ("cross", None), ("sphere3", None), ("self", 2**11), ("cross", 2**11)],
)
def test_hypersingular_row_blocks_match_the_whole_product_bit_for_bit(
    pair, budget, sphere2, sphere3, sphere3_ops, monkeypatch
):
    # N is formed in blocks of vertex rows and, on one surface, symmetrised
    # in place in the same blocks; a budget of 2**11 point pairs cuts the
    # subdivision-2 sphere's 162 rows into 28 blocks of 6
    if budget is not None:
        monkeypatch.setattr(bem_ops, "BATCH_POINT_PAIRS", budget)
    if pair == "sphere3":
        mesh_t = mesh_s = sphere3
        ops = sphere3_ops
    else:
        mesh_t, mesh_s = sphere2, sphere2 if pair == "self" else make_icosphere(2, 1.2)
        ops = assemble_operators(mesh_t, mesh_s, ("S", "N"))
    reference = _reference_hypersingular(mesh_t, mesh_s, ops["S"].matrix)
    assert np.array_equal(ops["N"].matrix, reference)


def test_hypersingular_products_copy_no_single_layer_array(sphere2, monkeypatch):
    # N is formed from S in blocks of BATCH_POINT_PAIRS // n_cells_s vertex
    # rows, with the sparse curl factor on the left of both products: beside
    # N, one block's operand, its C-ordered copy and the term take at most
    # three planes of the budget, and S is never copied.  Whole products
    # took 1.34 times the bytes of S beside N.
    monkeypatch.setattr(bem_ops, "BATCH_POINT_PAIRS", 2**13)  # blocks of 25 rows
    budget = 8 * bem_ops.BATCH_POINT_PAIRS
    outer = make_icosphere(2, 1.2)

    def reset():
        tracemalloc.reset_peak()
        return tracemalloc.get_traced_memory()[0]

    start = _first_curls_read(monkeypatch, reset)
    for mesh_s in (sphere2, outer):
        start.clear()
        tracemalloc.start()
        try:
            ops = assemble_operators(sphere2, mesh_s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 4 * budget < ops["S"].matrix.nbytes
        # the fourth plane covers the sparse row slices and the curls the
        # property rebuilds on each read
        assert peak - start[0] <= ops["N"].matrix.nbytes + 4 * budget, (peak - start[0]) / budget


def test_the_last_batch_is_released_before_n_is_formed(sphere3, sphere3_ops, monkeypatch):
    # the singular sweep's vertex batches come last; their vertex ids are
    # views of the touching pairs' charts (0.30 MiB here), which went on
    # living while N was formed.  When N is about to be formed, assembly
    # holds S, D, N's zeros and the sweep's component-major copies of the
    # vertices and normals (45 KiB), and no batch.
    held = _first_curls_read(monkeypatch, lambda: tracemalloc.get_traced_memory()[0])
    tracemalloc.start()
    try:
        assemble_operators(sphere3, sphere3)
    finally:
        tracemalloc.stop()
    matrices = sum(sphere3_ops[tag].matrix.nbytes for tag in ("S", "D", "N"))
    assert held[0] - matrices <= 2**16, (held[0] - matrices) / 2**10


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


@pytest.mark.parametrize("where", PANEL_POINTS)
def test_panel_integrals_match_independent_references(where):
    points = PANEL_POINTS[where]
    nx = np.array([0.3, -0.5, 0.8]) / np.linalg.norm([0.3, -0.5, 0.8])
    s, w, d, ds = bem_ops._panel_integrals(
        points.T[:, :, None], nx[:, None], _single_cell(PANEL), np.arange(1), True, True
    )
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


def test_solid_angles_of_a_closed_surface(sphere2):
    nc = sphere2.num_triangles
    for point, total in (([0.1, -0.2, 0.3], -FOUR_PI), ([1.2, 0.4, -0.1], 0.0)):
        x = np.broadcast_to(np.array(point)[:, None, None], (3, 1, nc))
        _, w, d, ds = bem_ops._panel_integrals(
            x, np.zeros((3, nc)), sphere2, np.arange(nc), False, False
        )
        assert d is None and ds is None
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


def test_assembly_is_bitwise_equal_across_calls(shells1):
    inner, middle = shells1[:2]
    for mesh_t, mesh_s in ((inner, inner), (inner, middle)):
        first, second = (assemble_operators(mesh_t, mesh_s) for _ in range(2))
        for tag in TAGS:
            assert np.array_equal(first[tag].matrix, second[tag].matrix), tag


def test_requested_blocks_keep_their_bits(sphere2, sphere2_ops, shells1):
    # a block holds the same bits whatever else is assembled with it, and a
    # block not asked for is absent, not None
    middle, outer = shells1[1:]
    cross = assemble_operators(middle, outer)
    for mesh_t, mesh_s, full, blocks in (
        (sphere2, sphere2, sphere2_ops, ("S", "N")),
        (sphere2, sphere2, sphere2_ops, ("S", "D", "N")),
        (middle, outer, cross, ("S", "D", "N")),
        (middle, outer, cross, ("S", "Dstar", "N")),
        (middle, outer, cross, ("S", "N")),
    ):
        ops = assemble_operators(mesh_t, mesh_s, blocks)
        assert list(ops) == [tag for tag in TAGS if tag in blocks]
        for tag in blocks:
            assert np.array_equal(ops[tag].matrix, full[tag].matrix), (blocks, tag)
    with pytest.raises(ValueError, match="unknown operator blocks"):
        assemble_operators(middle, outer, ("S", "Dt"))


def test_double_layer_work_follows_the_requested_blocks(shells1, monkeypatch):
    # no corner heights on a self pair without D; one set per tensor batch
    # instead of two on a cross pair without Dstar; and the closed-form
    # batches integrate only the double layers asked for
    middle, outer = shells1[1:]
    heights, kernels, panels = bem_ops._heights, bem_ops._pair_kernel, bem_ops._panel_integrals
    calls = {"heights": 0, "batches": 0, "panels": set()}

    def counted_heights(*args):
        calls["heights"] += 1
        return heights(*args)

    def counted_kernel(*args):
        calls["batches"] += 1
        return kernels(*args)

    def counted_panels(*args):
        s, w, d, ds = panels(*args)
        calls["panels"].add((d is not None, ds is not None))
        return s, w, d, ds

    monkeypatch.setattr(bem_ops, "_heights", counted_heights)
    monkeypatch.setattr(bem_ops, "_pair_kernel", counted_kernel)
    monkeypatch.setattr(bem_ops, "_panel_integrals", counted_panels)
    for mesh_t, mesh_s, blocks, per_batch, panel_work in (
        (outer, outer, ("S", "N"), 0, set()),
        (middle, outer, ("S", "D", "N"), 1, {(True, False)}),
        (middle, outer, ("S", "Dstar", "N"), 1, {(False, True)}),
        (middle, outer, ("S", "N"), 0, {(False, False)}),
        (middle, outer, TAGS, 2, {(True, True)}),
    ):
        calls.update(heights=0, batches=0, panels=set())
        assemble_operators(mesh_t, mesh_s, blocks)
        assert calls["batches"] > 0 and calls["heights"] == per_batch * calls["batches"], blocks
        assert calls["panels"] == panel_work, blocks


@pytest.fixture
def batch_shapes(monkeypatch):
    """The shape of the point-pair arrays of every batch evaluated while the
    test runs: (points, pairs) for a tensor-rule batch and (7, outer points,
    pairs) for a closed-form batch."""
    shapes = []
    pair_kernel, panel_integrals = bem_ops._pair_kernel, bem_ops._panel_integrals

    def pair_spy(r2, *args):
        shapes.append(r2.shape)
        return pair_kernel(r2, *args)

    def panel_spy(x, *args):
        shapes.append((7,) + x.shape[1:])
        return panel_integrals(x, *args)

    monkeypatch.setattr(bem_ops, "_pair_kernel", pair_spy)
    monkeypatch.setattr(bem_ops, "_panel_integrals", panel_spy)
    return shapes


def test_batches_honour_the_point_pair_budget(shells1, sphere2, monkeypatch, batch_shapes):
    # the sphere's far pairs are integrated in dense row blocks throughout
    monkeypatch.setattr(bem_ops, "DENSE_FAR_SHARE", 0.0)
    shapes = batch_shapes
    inner, middle = shells1[:2]
    pairs = ((inner, inner), (inner, middle), (sphere2, sphere2))
    reference = [assemble_operators(*pair) for pair in pairs]
    assert max(np.prod(s) for s in shapes) <= bem_ops.BATCH_POINT_PAIRS
    # closed-form batch arrays are (7, outer points, pairs), and a pair counts
    # as the outer rule squared against the budget
    q = len(quad.collapsed_rule(bem_ops.OUTER_ORDER)[1])
    closed = [s for s in shapes if s[:2] == (7, q)]
    assert closed and max(s[-1] for s in closed) == bem_ops.BATCH_POINT_PAIRS // q**2

    # a budget of one 6x4 pair: every composite and closed-form batch holds
    # a single pair, and the regular sweep classifies its tiers, and
    # integrates the far pairs, in row blocks of one row
    budget = len(quad.TRI_RULES["6x4"][1]) ** 2
    monkeypatch.setattr(bem_ops, "BATCH_POINT_PAIRS", budget)
    shapes.clear()
    for pair, ref in zip(pairs, reference):
        small = assemble_operators(*pair)
        for tag in TAGS:
            a, b = small[tag].matrix, ref[tag].matrix
            assert np.abs(a - b).max() <= 1e-14 * np.abs(b).max(), tag
    # batch array shapes are (points..., pairs)
    assert all(np.prod(s) <= budget or s[-1] == 1 for s in shapes)
    composite = [s for s in shapes if np.prod(s[:-1]) >= budget]
    assert composite and all(s[-1] == 1 for s in composite)
    closed = [s for s in shapes if s[:2] == (7, q)]
    assert closed and all(s[-1] == 1 for s in closed)


def test_regular_batches_honour_the_triangle_pair_cap(sphere2, monkeypatch, batch_shapes):
    # a budget small enough for the far-field 3-point tier to reach the
    # cap; point pairs alone would let each of its batches hold four times
    # as many triangle pairs
    reference = assemble_operators(sphere2, sphere2)
    batch_shapes.clear()
    budget = 2**12
    monkeypatch.setattr(bem_ops, "BATCH_POINT_PAIRS", budget)
    small = assemble_operators(sphere2, sphere2)
    for tag in TAGS:
        a, b = small[tag].matrix, reference[tag].matrix
        assert np.abs(a - b).max() <= 1e-14 * np.abs(b).max(), tag
    # tensor-rule batch arrays are (point pairs, triangle pairs), the far tier's
    # 3 x 3 point pairs included
    tensor = [s for s in batch_shapes if len(s) == 2]
    caps = [max(1, budget // max(points, bem_ops.MIN_PAIR_POINTS)) for points, _ in tensor]
    assert all(s[-1] <= cap for s, cap in zip(tensor, caps))
    far = [pairs for points, pairs in tensor if points == len(quad.TRI_RULES[3][1]) ** 2]
    assert max(far) == budget // bem_ops.MIN_PAIR_POINTS


def test_far_blocks_stay_within_the_budget(sphere3, monkeypatch):
    # On the subdivision-3 sphere the far pairs make 46-84% of each row
    # block but the last (1%): those blocks are integrated densely and that
    # one batched.  A dense block spans at most BATCH_POINT_PAIRS pairs, and
    # its arrays (three coordinates, the single layer and, per double
    # layer, the heights and sums of the three points) peak at 14 arrays
    # of the block with both double layers and 5 without them.
    thresholds = [t for t, _ in DEFAULT_QUADRATURE.near_tiers]
    far = len(thresholds)
    shares = {
        r0: np.count_nonzero(codes == far) / codes.size
        for r0, _, codes in bem_ops._tier_blocks(sphere3, sphere3, thresholds, True)
    }
    far_block = bem_ops._far_block
    calls = []

    def spy(sweep, rule, r0, c0, mask):
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        far_block(sweep, rule, r0, c0, mask)
        calls.append((r0, mask.size, tracemalloc.get_traced_memory()[1] - start))

    monkeypatch.setattr(bem_ops, "_far_block", spy)
    budget = 8 * bem_ops.BATCH_POINT_PAIRS
    for blocks, arrays in ((("S", "N"), 6), (TAGS, 15)):
        calls.clear()
        tracemalloc.start()
        try:
            assemble_operators(sphere3, sphere3, blocks)
        finally:
            tracemalloc.stop()
        dense = [r0 for r0, share in shares.items() if share >= bem_ops.DENSE_FAR_SHARE]
        assert [r0 for r0, _, _ in calls] == dense and 0 < len(dense) < len(shares)
        assert max(size for _, size, _ in calls) <= bem_ops.BATCH_POINT_PAIRS
        peak = max(p for _, _, p in calls)
        print(f"{blocks}: far block peak {peak / budget:.2f} x 8 BATCH_POINT_PAIRS")
        assert peak <= arrays * budget, blocks


#: near tiers pulled in to 2 diameters, so that the subdivision-1 shells
#: have far pairs and the sphere's far pairs come as close as the 6 tier's
NEAR_FAR_TIERS = ((0.9, "6x16"), (1.5, "6x4"), (2.0, 6))


@pytest.mark.parametrize("pair", ["shells1-self", "shells1-cross", "sphere2-self"])
def test_far_blocks_match_the_per_coordinate_reference(pair, shells1, sphere2, monkeypatch):
    # every far pair of every row block, integrated densely, against the
    # same pairs under the per-pair tensor rule with its distances taken
    # one coordinate at a time, scattered the way the batches scatter them
    inner, middle = shells1[:2]
    mesh_t, mesh_s = {
        "shells1-self": (inner, inner),
        "shells1-cross": (inner, middle),
        "sphere2-self": (sphere2, sphere2),
    }[pair]
    same = mesh_t is mesh_s
    cfg = dataclasses.replace(DEFAULT_QUADRATURE, near_tiers=NEAR_FAR_TIERS)
    monkeypatch.setattr(bem_ops, "DEFAULT_QUADRATURE", cfg)
    monkeypatch.setattr(bem_ops, "DENSE_FAR_SHARE", 0.0)
    bx, by, w = quad.tensor_pair_rule(cfg.far_points)
    tri_t, tri_s = mesh_t.triangles, mesh_s.triangles
    far_block = bem_ops._far_block
    blocks = []

    def spy(sweep, far, r0, c0, mask):
        # the block alone, added into zeroed copies of the sweep's matrices
        block = copy.copy(sweep)
        block.ig, block.dmat = np.zeros_like(sweep.ig), np.zeros_like(sweep.dmat)
        block.adj = block.dmat.T if same else np.zeros_like(sweep.adj)
        far_block(block, far, r0, c0, mask)
        far_block(sweep, far, r0, c0, mask)
        alone = [block.ig, block.dmat, block.adj]
        ti, si = np.nonzero(mask)
        ti += r0
        si += c0
        _, s, d, ds = _per_coordinate_batch(
            sweep, bx, by, w, tri_t[ti], tri_s[si], ti, si, True
        )
        ref = [np.zeros(m.shape) for m in alone]
        ref[0][ti, si] += s
        np.add.at(ref[1], (ti[:, None], tri_s[si]), d)
        if same:  # pair (t, s)'s adjoint entries are pair (s, t)'s D entries
            ref[2] = ref[1].T
            ref[0][si, ti] += s
        np.add.at(ref[2], (tri_t[ti], si[:, None]), ds)
        blocks.append((len(ti), alone, ref))

    monkeypatch.setattr(bem_ops, "_far_block", spy)
    ops = assemble_operators(mesh_t, mesh_s)
    assert sum(n for n, _, _ in blocks) > 0
    for k, tag in enumerate(TAGS[:3]):
        scale = np.abs(ops[tag].matrix).max()
        error = max(np.abs(alone[k] - ref[k]).max() for _, alone, ref in blocks) / scale
        print(f"{pair} {tag}: far blocks within {error:.1e} of the largest entry")
        assert error <= 1e-14, tag
    monkeypatch.setattr(bem_ops, "_far_block", far_block)
    again = assemble_operators(mesh_t, mesh_s)
    for tag in TAGS:
        assert np.array_equal(ops[tag].matrix, again[tag].matrix), tag
    for requested in [("S", "N"), ("S", "D", "N")] + ([] if same else [("S", "Dstar", "N")]):
        part = assemble_operators(mesh_t, mesh_s, requested)
        for tag in requested:
            assert np.array_equal(part[tag].matrix, ops[tag].matrix), (requested, tag)
    if same:
        s = ops["S"].matrix
        assert np.array_equal(s, s.T)
        assert ops["Dstar"].matrix.base is ops["D"].matrix


def _tier_codes(mesh_t, mesh_s):
    """The index of the tier of each triangle pair among the near tiers
    and the far rule, from the distances ``np.linalg.norm`` gives."""
    thresholds = [t for t, _ in DEFAULT_QUADRATURE.near_tiers]
    dist = np.linalg.norm(mesh_t.centroids[:, None] - mesh_s.centroids[None], axis=2)
    ratio = dist / np.maximum(mesh_t.diameters[:, None], mesh_s.diameters[None, :])
    return np.searchsorted(thresholds, ratio)


def _tier_rules(mesh_t, mesh_s):
    """The tensor rule ``_regular_sweep`` applies to each triangle pair."""
    cfg = DEFAULT_QUADRATURE
    rules = [rule for _, rule in cfg.near_tiers] + [cfg.far_points]
    return np.array(rules, dtype=object)[_tier_codes(mesh_t, mesh_s)]


@pytest.mark.parametrize("pair", ["shells", "sphere3-self"])
def test_tier_blocks_match_the_per_pair_norm(pair, sphere3):
    # the sweep sums the squared centroid offsets one component at a time,
    # in the order np.linalg.norm sums them, so no visited pair changes
    # tier; the subdivision-3 self pair spans 13 row blocks, each visiting
    # only the columns s >= r0
    if pair == "shells":
        mesh_t, mesh_s = (make_icosphere(2, r) for r in SHELL_RADII[:2])
    else:
        mesh_t = mesh_s = sphere3
    same = mesh_t is mesh_s
    thresholds = [t for t, _ in DEFAULT_QUADRATURE.near_tiers]
    blocks = list(bem_ops._tier_blocks(mesh_t, mesh_s, thresholds, same))
    step = bem_ops.BATCH_POINT_PAIRS // mesh_s.num_triangles
    assert [r0 for r0, _, _ in blocks] == list(range(0, mesh_t.num_triangles, step))
    expected = _tier_codes(mesh_t, mesh_s)
    if same:  # only the pairs t < s that share no vertex are swept
        expected[np.tril_indices(mesh_t.num_triangles)] = -1
        expected[mesh_t.shared_vertex_counts.toarray() > 0] = -1
    visited = np.zeros(expected.shape, bool)
    for r0, c0, codes in blocks:
        assert c0 == (r0 if same else 0)
        rows = slice(r0, r0 + len(codes))
        assert np.array_equal(codes, expected[rows, c0:])
        visited[rows, c0:] = True
    assert (expected[~visited] == -1).all()


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
    # the closed-form tier takes them from the pair assembled on its own.
    # The sampled pairs of the closed-form and the 6x4 tier are checked
    # against independent references, no less accurate than the composite
    # tensor rules they replaced.
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

    def check_accuracy(t, s, baseline, label):
        """Pair (t, s) no less accurate, against independent references,
        than under the tensor product of the ``baseline`` triangle rule."""
        ct, cs = mesh_t.corners[t], mesh_s.corners[s]
        tensor = regular_pair_integrals(ct, cs, baseline)
        references = (galerkin_single_layer_entry(ct, cs), *pair_double_layer_reference(ct, cs))
        for name, value, old, ref in zip(TAGS, oracle(t, s), tensor, references):
            error, old_error = _relative_error(value, ref), _relative_error(old, ref)
            print(f"{pair} {t}, {s}: {name} error {error:.2e}, {label} {old_error:.2e}")
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
            check_accuracy(t, s, quad.TRI_RULES["6x16"], "6x16 tensor rule")
        if rule == "6x4":  # against the 6-point rule on four subtriangles it replaced
            check_accuracy(t, s, quad._composite_rule(*quad.TRI_RULES[6], 1), "composite 6x4 rule")


def _touching_rules():
    """``(category, shared corners, pair rule)`` of each touching category at
    the default transform order."""
    order = DEFAULT_QUADRATURE.singular_order
    return [
        (category, shared, quad.sauter_schwab_rule(category, order))
        for category, shared in ((quad.COINCIDENT, 3), (quad.EDGE, 2), (quad.VERTEX, 1))
    ]


def _tensor_tier_rules():
    """``(tier, 0, pair rule)`` of each tensor tier of the default quadrature."""
    cfg = DEFAULT_QUADRATURE
    tiers = [r for _, r in cfg.near_tiers if r != bem_ops.CLOSED_FORM_TIER] + [cfg.far_points]
    return [(tier, 0, quad.tensor_pair_rule(tier)) for tier in tiers]


def _per_coordinate_batch(sweep, bx, by, w, ca, cb, pa, pb, double_layer):
    """``(r2, S, D, Dstar)`` of a batch the way ``bem_ops._tensor_batch``
    took them before its distances became one product: the corners of both
    charts from the row triangle's first, ``x - y`` one matmul per
    coordinate with the map ``[bx, -by]``, then ``1/r`` and ``1/r^3`` by
    two divisions."""
    pmap = np.concatenate([bx, -by], axis=1)
    w9 = ((w[:, None] * bx)[:, :, None] * by[:, None, :]).reshape(len(w), 9)
    e = np.take(sweep.vertices, np.concatenate([ca.T, cb.T + sweep.offset]), axis=1)
    e -= e[:, :1]
    r2 = sum((pmap @ e[k]) ** 2 for k in range(3))
    scale = sweep.areas_t[pa] * sweep.areas_s[pb] / np.pi
    inv = 1.0 / np.sqrt(r2)
    s = (w @ inv) * scale
    d = ds = None
    if double_layer:
        m = (w9.T @ (inv / r2)).reshape(3, 3, -1) * scale
        if sweep.d:
            h = bem_ops._heights(e[:, :3] - e[:, 3:4], np.take(sweep.normals_s, pb, axis=1))
            d = (h[:, None, :] * m).sum(axis=0).T
        if sweep.ds:
            h = bem_ops._heights(e[:, 3:], np.take(sweep.normals_t, pa, axis=1))
            ds = (m * h[None, :, :]).sum(axis=1).T
    return r2, s, d, ds


def test_squared_distances_keep_their_relative_accuracy(sphere2, monkeypatch):
    # Every pair of each touching category and tensor tier on the
    # subdivision-2 sphere, against squared distances in long double from
    # the points' absolute coordinates (barycentric rows normalised to sum
    # to one).  The quadratic form may lose up to twice the accuracy of the
    # per-coordinate differences, or a few units of rounding: on the 6x4
    # tier, whose point pairs come closest relative to the corner offsets,
    # the worst pair reads 2.2e-15 against 8.4e-16.
    mesh = sphere2
    sweep = bem_ops._Sweep(mesh, mesh, TAGS)
    r2s = []
    pair_kernel = bem_ops._pair_kernel

    def spy(r2, *args):
        r2s.append(r2.copy())
        return pair_kernel(r2, *args)

    monkeypatch.setattr(bem_ops, "_pair_kernel", spy)
    edge_pairs, edge_charts, vertex_pairs, vertex_charts = bem_ops._touching_pairs(mesh)
    cells = np.arange(mesh.num_triangles)
    pairs = {
        quad.COINCIDENT: (cells, cells, mesh.triangles, mesh.triangles),
        quad.EDGE: (*edge_pairs.T, *edge_charts),
        quad.VERTEX: (*vertex_pairs.T, *vertex_charts),
    }
    thresholds = [t for t, _ in DEFAULT_QUADRATURE.near_tiers]
    codes = np.full((mesh.num_triangles,) * 2, -1, np.int8)
    for r0, c0, block in bem_ops._tier_blocks(mesh, mesh, thresholds, True):
        codes[r0 : r0 + len(block), c0:] = block
    tiers = [r for _, r in DEFAULT_QUADRATURE.near_tiers] + [DEFAULT_QUADRATURE.far_points]
    for k, tier in enumerate(tiers):
        ti, si = np.nonzero(codes == k)
        pairs[tier] = (ti, si, mesh.triangles[ti], mesh.triangles[si])
    vertices = mesh.vertices.astype(np.longdouble)
    eps = np.finfo(float).eps
    for name, shared, (bx, by, w) in _touching_rules() + _tensor_tier_rules():
        rule = bem_ops._pair_rule(name, DEFAULT_QUADRATURE.singular_order if shared else None)
        bxl, byl = (b.astype(np.longdouble) for b in (bx, by))
        bxl, byl = bxl / bxl.sum(axis=1)[:, None], byl / byl.sum(axis=1)[:, None]
        pa, pb, ca, cb = pairs[name]
        assert len(pa), name
        error = direct_error = 0.0
        for sl in bem_ops._batch_slices(len(pa), 4 * len(w)):  # long double arrays stay small
            r2s.clear()
            bem_ops._tensor_batch(sweep, rule, ca[sl], cb[sl], pa[sl], pb[sl], False, False)
            x = np.einsum("qk,pkc->qpc", bxl, vertices[ca[sl]])
            y = np.einsum("qk,pkc->qpc", byl, vertices[cb[sl]])
            reference = ((x - y) ** 2).sum(axis=2)
            direct, *_ = _per_coordinate_batch(
                sweep, bx, by, w, ca[sl], cb[sl], pa[sl], pb[sl], False
            )
            error = max(error, float((np.abs(r2s[0] - reference) / reference).max()))
            direct_error = max(direct_error, float((np.abs(direct - reference) / reference).max()))
        print(f"{name}: r2 relative error {error:.2e}, per-coordinate form {direct_error:.2e}")
        assert error <= 1e-12, name
        assert error <= max(2.0 * direct_error, 16 * eps), name


@pytest.mark.parametrize("pair", ["shells1-self", "shells1-cross", "sphere2-self"])
def test_tensor_batches_match_the_per_coordinate_reference(pair, shells1, sphere2, monkeypatch):
    # every batch of every tensor tier and touching category, against the
    # same batch with its distances taken one coordinate at a time; the far
    # tier first occurs at subdivision 2
    inner, middle = shells1[:2]
    mesh_t, mesh_s = {
        "shells1-self": (inner, inner),
        "shells1-cross": (inner, middle),
        "sphere2-self": (sphere2, sphere2),
    }[pair]
    rules = {len(r[2]): (name, r) for name, _, r in _touching_rules() + _tensor_tier_rules()}
    assert len(rules) == 6  # the point counts tell the rules apart
    tensor_batch, add = bem_ops._tensor_batch, bem_ops._Sweep.add
    added, batches = [], []

    def add_spy(sweep, *args):
        added.append(args)
        add(sweep, *args)

    def spy(sweep, rule, ca, cb, pa, pb, mirror, double_layer):
        tensor_batch(sweep, rule, ca, cb, pa, pb, mirror, double_layer)
        name, (bx, by, w) = rules[len(rule[1])]
        reference = _per_coordinate_batch(sweep, bx, by, w, ca, cb, pa, pb, double_layer)[1:]
        batches.append((name, added[-1][5:], reference))

    monkeypatch.setattr(bem_ops._Sweep, "add", add_spy)
    monkeypatch.setattr(bem_ops, "_tensor_batch", spy)
    ops = assemble_operators(mesh_t, mesh_s)
    expected = {name for name, _, _ in _tensor_tier_rules()}
    if pair.startswith("shells1"):
        expected -= {DEFAULT_QUADRATURE.far_points}
    if pair.endswith("self"):
        expected |= {name for name, _, _ in _touching_rules()}
    assert {name for name, _, _ in batches} == expected
    for name, values, reference in batches:
        for tag, value, ref in zip(TAGS, values, reference):
            assert (value is None) == (ref is None), (name, tag)
            if ref is not None:
                scale = np.abs(ops[tag].matrix).max()
                assert np.abs(value - ref).max() <= 1e-13 * scale, (name, tag)
