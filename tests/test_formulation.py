import os
import tracemalloc

import numpy as np
import pytest

from symmbem import bem_ops, formulation
from symmbem.bem_ops import TAGS
from symmbem._quadrature import TRI_RULES
from symmbem.formulation import (
    DipoleSource,
    _on_surface,
    assemble_rhs,
    assemble_system,
    conductivity_rescale,
    system_layout,
)
from symmbem.geometry import NestedModel, make_icosphere, point_surface_distance

MODELS = {
    "shells3-sub1": ((0.87, 0.92, 1.0), (1.0, 1.0 / 80.0, 1.0, 0.0), 1),
    "sphere1-sub3": ((1.0,), (1.0, 0.0), 3),
}


def _model(name):
    radii, sigma, subdivisions = MODELS[name]
    return NestedModel([make_icosphere(subdivisions, r) for r in radii], sigma)


@pytest.fixture(scope="module", params=sorted(MODELS))
def assembled(request):
    """Model, assembled system and a copy of its unscaled matrix."""
    model = _model(request.param)
    system = assemble_system(model)
    return model, system, system.matrix.copy()


@pytest.fixture(scope="module")
def rescaled(assembled):
    model, system, unscaled = assembled
    system.rhs = assemble_rhs(model, [DipoleSource([0.1, -0.2, 0.35], [0.6, 0.0, 0.8])])
    rhs = system.rhs.copy()
    matrix = system.matrix
    tracemalloc.start()
    try:
        out = conductivity_rescale(system)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, system, matrix, unscaled, rhs, peak


def _blocks(layout):
    """Row slices of the unknown blocks, in stacking order."""
    n = layout.num_interfaces
    return [layout.v_slice(i) for i in range(n)] + [
        layout.p_slice(i) for i in range(n) if layout.p_kept[i]
    ]


def _assert_z_in_lower_triangle(matrix, layout):
    """Zero strictly above the diagonal outside the diagonal blocks, which
    are exactly symmetric."""
    block = np.empty(layout.total, dtype=int)
    for k, rows in enumerate(_blocks(layout)):
        block[rows] = k
        assert np.array_equal(matrix[rows, rows], matrix[rows, rows].T)
    assert not matrix[block[:, None] < block[None, :]].any()


def test_assembly_writes_z_into_its_lower_triangle(assembled):
    _, system, unscaled = assembled
    assert system.matrix.flags.c_contiguous
    _assert_z_in_lower_triangle(unscaled, system.layout)


def test_assembly_asks_only_for_the_blocks_z_keeps(assembled, monkeypatch):
    # a reference assembly that takes every block of every pair gives the
    # same Z bit for bit
    model, _, unscaled = assembled
    full = bem_ops.assemble_operators
    monkeypatch.setattr(
        bem_ops, "assemble_operators", lambda mesh_t, mesh_s, blocks: full(mesh_t, mesh_s)
    )
    assert np.array_equal(assemble_system(model).matrix, unscaled)


def _requested_blocks(model, monkeypatch):
    """The blocks ``assemble_system`` asks of each surface pair, by the
    indices of the pair's surfaces."""
    requested = {}
    full = bem_ops.assemble_operators

    def recorded(mesh_t, mesh_s, blocks):
        index = [id(m) for m in model.surfaces]
        requested[index.index(id(mesh_t)), index.index(id(mesh_s))] = set(blocks)
        return full(mesh_t, mesh_s, blocks)

    monkeypatch.setattr(bem_ops, "assemble_operators", recorded)
    assemble_system(model)
    return requested


def test_insulated_outer_surface_takes_no_double_layer_and_no_adjoint(monkeypatch):
    model = _model("shells3-sub1")
    assert _requested_blocks(model, monkeypatch) == {
        (0, 0): {"S", "D", "N"},
        (1, 1): {"S", "D", "N"},
        (2, 2): {"S", "N"},
        (0, 1): {"S", "D", "Dstar", "N"},
        (1, 2): {"S", "D", "N"},
    }
    # a conducting exterior keeps every p block, so every pair's double
    # layers, and assembly still writes Z into its lower triangle
    conducting = NestedModel(model.surfaces, (1.0, 1.0 / 80.0, 1.0, 0.5))
    requested = _requested_blocks(conducting, monkeypatch)
    assert len(requested) == 5
    for (i, j), blocks in requested.items():
        assert blocks == ({"S", "D", "N"} if i == j else set(TAGS)), (i, j)
    monkeypatch.undo()
    system = assemble_system(conducting)
    _assert_z_in_lower_triangle(system.matrix, system.layout)


def test_a_cross_pair_adjoint_is_calibrated_in_the_returned_block(monkeypatch):
    # the adjoint is stored as the reversed pair's double layer, so
    # Dstar.T is C-ordered and assembly calibrates it without a copy
    model = _model("shells3-sub1")  # pair (0, 1) keeps its Dstar
    adjoints, calibrated = [], []
    full, calibrate = bem_ops.assemble_operators, formulation._calibrate_rows

    def recorded(mesh_t, mesh_s, blocks):
        ops = full(mesh_t, mesh_s, blocks)
        if mesh_t is not mesh_s and "Dstar" in ops:
            adjoints.append(ops["Dstar"].matrix)
        return ops

    def spied(matrix, triangles, target_row_sums):
        calibrated.append(matrix)
        calibrate(matrix, triangles, target_row_sums)

    monkeypatch.setattr(bem_ops, "assemble_operators", recorded)
    monkeypatch.setattr(formulation, "_calibrate_rows", spied)
    assemble_system(model)
    (dstar,) = adjoints
    assert dstar.T.flags.c_contiguous
    assert [np.shares_memory(m, dstar) for m in calibrated].count(True) == 1


def test_assembly_lets_each_pair_go_before_the_next(monkeypatch):
    # traced memory at the start of every pair's assembly: Z and little
    # else, never the blocks of the pair before
    model = _model("shells3-sub1")
    assemble_system(model)  # the mesh caches are filled outside the trace
    n = system_layout(model).total
    entries = []
    full = bem_ops.assemble_operators

    def traced(*args):
        entries.append(tracemalloc.get_traced_memory()[0])
        return full(*args)

    monkeypatch.setattr(bem_ops, "assemble_operators", traced)
    tracemalloc.start()
    try:
        assemble_system(model)
    finally:
        tracemalloc.stop()
    # the smallest pair's blocks: S and N of the outer surface, 80 x 80 and 42 x 42
    margin = 8 * (80**2 + 42**2) // 2
    assert len(entries) == 5
    assert max(entries) <= 8 * n * n + margin, [e - 8 * n * n for e in entries]


def test_rescale_keeps_z_in_its_lower_triangle_and_allocates_no_row_block(rescaled):
    out, *_, peak = rescaled
    _assert_z_in_lower_triangle(out.matrix, out.layout)
    # one row block of 32 rows is 8 * 32 * N bytes; the scale factors and
    # the rescaled load take 16 N
    assert peak <= 8 * 32 * out.size


def test_rescale_happens_in_place(rescaled):
    out, system, matrix, unscaled, rhs, peak = rescaled
    assert out is system and out.matrix is matrix
    assert matrix.flags.c_contiguous and matrix.shape == (system.size, system.size)
    assert peak < matrix.nbytes
    w = out.scale_vector()
    expected = (w[:, None] * unscaled) * w[None, :]
    assert np.abs(out.matrix - expected).max() <= 1e-15 * np.abs(expected).max()
    assert np.array_equal(out.rhs, w * rhs)
    with pytest.raises(ValueError, match="already rescaled"):
        conductivity_rescale(out)


def test_matvec_is_the_symmetric_product_without_a_copy(rescaled):
    system = rescaled[0]
    x = np.random.default_rng(2).standard_normal(system.size)
    z = system.matrix
    expected = (np.tril(z) + np.tril(z, -1).T) @ x
    system.matvec(x)  # first call outside the trace: BLAS set-up
    tracemalloc.start()
    try:
        y = system.matvec(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.linalg.norm(y - expected) <= 1e-14 * np.linalg.norm(expected)
    assert peak < system.matrix.nbytes / 4


def _einsum_rhs(model, source, quadrature_points=6):
    """Reference right-hand side: the same Galerkin sums, written as einsums."""
    layout = system_layout(model)
    rhs = np.zeros(layout.total)
    bary, weights = TRI_RULES[quadrature_points]
    comp = model.compartment_of(source.position)
    sigma_s = model.conductivities[comp - 1]
    for iface, orient in ((comp - 1, +1.0), (comp - 2, -1.0)):
        if iface < 0 or iface >= model.num_interfaces:
            continue
        mesh = model.surfaces[iface]
        pts = np.einsum("qk,tkd->tqd", bary, mesh.corners)
        d = pts - source.position
        dist = np.sqrt(np.einsum("tqd,tqd->tq", d, d))
        proj = np.einsum("tqd,d->tq", d, source.moment)
        v = proj / (4.0 * np.pi * dist**3)
        grad = (
            source.moment / (4.0 * np.pi * dist**3)[..., None]
            - (3.0 * proj / (4.0 * np.pi * dist**5))[..., None] * d
        )
        dn = np.einsum("tqd,td->tq", grad, mesh.normals)
        wts = weights[None, :] * mesh.areas[:, None]
        b = np.zeros(mesh.num_vertices)
        np.add.at(b, mesh.triangles.ravel(), np.einsum("tq,tq,qj->tj", wts, dn, bary).ravel())
        rhs[layout.v_slice(iface)] += orient * b
        ps = layout.p_slice(iface)
        if ps is not None:
            rhs[ps] += -orient * np.einsum("tq,tq->t", wts, v) / sigma_s
    for iface, mesh in enumerate(model.surfaces):
        sl = layout.v_slice(iface)
        mass = np.zeros(mesh.num_vertices)
        np.add.at(mass, mesh.triangles.ravel(), np.repeat(mesh.areas / 3.0, 3))
        rhs[sl] -= rhs[sl].sum() * mass / mass.sum()
    return rhs


# one source in each of the three compartments
@pytest.mark.parametrize("position", [[0.1, -0.2, 0.35], [0.0, 0.0, 0.9], [0.5, 0.5, 0.55]])
def test_rhs_matches_einsum_reference(position):
    model = _model("shells3-sub1")
    source = DipoleSource(position, [0.6, -0.3, 0.8])
    expected = _einsum_rhs(model, source)
    rhs = assemble_rhs(model, [source])
    assert np.abs(rhs - expected).max() <= 1e-14 * np.abs(expected).max()


@pytest.mark.parametrize(
    "positions",
    [
        ([0.1, -0.2, 0.35], [0.0, 0.0, 0.9]),  # one in each of two compartments
        ([0.1, -0.2, 0.35], [-0.3, 0.2, 0.1]),  # both in the innermost one
    ],
)
def test_a_load_of_two_sources_is_the_sum_of_their_loads(positions):
    model = _model("shells3-sub1")
    sources = [DipoleSource(p, m) for p, m in zip(positions, ([0.6, -0.3, 0.8], [-0.2, 0.9, 0.4]))]
    expected = sum(assemble_rhs(model, [s]) for s in sources)
    rhs = assemble_rhs(model, sources)
    assert np.abs(rhs - expected).max() <= 1e-14 * np.abs(expected).max()


def test_rhs_rejects_sources_on_an_interface():
    model = _model("shells3-sub1")
    mesh = model.surfaces[1]
    a, b, c = mesh.corners[7]
    # on a vertex, an edge and a face, and a hair outside a vertex and an
    # edge, where the point projects into no triangle
    mid = 0.5 * (a + b)
    near = [p * (1.0 + 1e-8 / np.linalg.norm(p)) for p in (a, mid)]
    for point in (a, mid, (a + b + c) / 3.0, *near):
        with pytest.raises(ValueError, match="on an interface"):
            assemble_rhs(model, [DipoleSource(point, [0.0, 0.0, 1.0])])
    # a hair inside the face is still a valid source
    inside = (a + b + c) / 3.0 - 1e-3 * mesh.normals[7]
    assert np.all(np.isfinite(assemble_rhs(model, [DipoleSource(inside, [0.0, 0.0, 1.0])])))


@pytest.mark.parametrize(
    "position, moment",
    [([np.nan, 0.0, 0.3], [0.0, 0.0, 1.0]), ([0.0, 0.0, 0.3], [0.0, np.inf, 1.0])],
    ids=["nan-position", "inf-moment"],
)
def test_dipole_rejects_non_finite_input(position, moment):
    # a NaN position used to land in the exterior compartment, and a NaN
    # moment in a load that CG could not break down on
    with pytest.raises(ValueError, match="must be finite"):
        DipoleSource(position, moment)


def test_on_surface_matches_the_exact_scan_of_every_triangle():
    mesh = make_icosphere(2, 1.0)
    eps = 1e-6 * np.mean(mesh.diameters)
    rng = np.random.default_rng(4)
    # points on the faces, the edges and the vertices, moved off the
    # surface by multiples of eps around the verdict's threshold
    w = rng.dirichlet(np.ones(3), size=60)
    w[20:40, 2] = 0.0
    w[20:40] /= w[20:40].sum(axis=1, keepdims=True)
    w[40:] = np.eye(3)[rng.integers(0, 3, 20)]
    cells = rng.integers(0, mesh.num_triangles, 60)
    on = np.einsum("pk,pkd->pd", w, mesh.corners[cells])
    verdicts = []
    for p, t in zip(on, cells):
        for shift in (0.0, 0.5, 0.99, 1.01, 1.5, 2.5, 100.0):
            for sign in (1.0, -1.0):
                point = p + sign * shift * eps * mesh.normals[t]
                exact = point_surface_distance(point, mesh.corners, mesh.normals) <= eps
                assert _on_surface(point, mesh, eps) == exact
                verdicts.append(exact)
    assert any(verdicts) and not all(verdicts)


def test_assemble_system_refuses_dense_storage_beyond_memory(monkeypatch):
    model = _model("shells3-sub1")
    n = system_layout(model).total
    needed = formulation._dense_bytes(model)
    # Z, and of the cross pair (0, 1), 80 cells and 42 vertices each, S, D
    # and Dstar with the sweep's 4 + 14 planes of the batch budget, which
    # outweigh N and its products here
    held = 80**2 + 2 * 80 * 42
    assert needed == 8 * (n * n + held + 18 * bem_ops.BATCH_POINT_PAIRS)
    with monkeypatch.context() as patch:
        # at a budget below one row of S, N is formed one vertex row at a
        # time: N, C_t^T S over that row and its copy (80 each) and the term (42)
        patch.setattr(bem_ops, "BATCH_POINT_PAIRS", 64)
        assert formulation._dense_bytes(model) == 8 * (n * n + held + 42**2 + 2 * 80 + 42)

    def assembly_started(*args, **kwargs):
        raise AssertionError("operator assembly started")

    monkeypatch.setattr(formulation, "_available_memory", lambda: needed - 1)
    monkeypatch.setattr(bem_ops, "assemble_operators", assembly_started)
    tracemalloc.start()
    try:
        with pytest.raises(MemoryError, match=f"N = {n} exceeds"):
            assemble_system(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * n / 10  # nothing of size N x N was allocated
    monkeypatch.undo()

    small = NestedModel([make_icosphere(0, 1.0)], (1.0, 0.0))
    # the insulated sphere keeps no p block: Z on its 12 vertices, and S of
    # its self pair, 20 cells, with the 4 + 5 planes of a sweep without a
    # double layer
    assert formulation._dense_bytes(small) == 8 * (12**2 + 20**2 + 9 * bem_ops.BATCH_POINT_PAIRS)
    monkeypatch.setattr(formulation, "_available_memory", lambda: formulation._dense_bytes(small))
    assert assemble_system(small).size == 12


def test_dense_bytes_bound_the_assembly_peak_at_a_small_batch_budget(monkeypatch):
    # with batches of 2**14 point pairs the sweep holds about 9 planes of
    # the budget (the two point-pair arrays of a batch, the distances of
    # its row block, the pair indices of a tier, the rules), 1.1 MiB beside
    # Z and the S, D and Dstar blocks of the cross pair (0, 1), more than N
    # and its row-block products.  At the default budget the sweep holds
    # 7 MiB, and the peak was 1.47 times a count that left it out.
    radii, sigma, _ = MODELS["shells3-sub1"]
    model = NestedModel([make_icosphere(2, r) for r in radii], sigma)
    assemble_system(model)  # the mesh caches, outside the trace
    for budget in (2**14, bem_ops.BATCH_POINT_PAIRS):
        monkeypatch.setattr(bem_ops, "BATCH_POINT_PAIRS", budget)
        tracemalloc.start()
        try:
            assemble_system(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.02 * formulation._dense_bytes(model), budget


@pytest.mark.parametrize("budget", [None, 2**11])
@pytest.mark.parametrize("name", ["shells3-sub1", "shells3-sub1-conducting", "sphere1-sub3"])
def test_pair_bytes_bound_the_peak_of_every_surface_pair(name, budget, monkeypatch):
    # each pair against its own count, so that a count too low for one pair
    # cannot hide behind a larger pair.  At 2**11 point pairs the pair rules
    # a sweep built were most of a subdivision-1 self pair's peak, 1.7 to 3.0
    # times its count, until they were taken once per process.
    radii, sigma, subdivisions = MODELS[name.replace("-conducting", "")]
    if name.endswith("-conducting"):
        sigma = sigma[:-1] + (0.5,)
    model = NestedModel([make_icosphere(subdivisions, r) for r in radii], sigma)
    layout, surfaces = system_layout(model), model.surfaces
    n = len(surfaces)
    pairs = [(i, i) for i in range(n)] + [(i, i + 1) for i in range(n - 1)]
    assemble_system(model)  # the mesh caches, outside the trace
    if budget is not None:
        monkeypatch.setattr(bem_ops, "BATCH_POINT_PAIRS", budget)
    for i, j in pairs:
        mesh_t, mesh_s = surfaces[i], surfaces[j]
        blocks = formulation._pair_blocks(layout, i, j)
        tracemalloc.start()
        try:
            bem_ops.assemble_operators(mesh_t, mesh_s, blocks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        count = bem_ops.pair_bytes(mesh_t, mesh_s, blocks)
        assert peak <= 1.02 * count, (i, j, peak / count)


def test_the_insulated_sphere_assembles_in_z_s_n_and_eight_budget_planes():
    # the sweep, whose dense far blocks hold five planes without a double
    # layer, sets the peak: Z, S and about 8 planes of the batch budget.
    # Forming N from S in whole products, symmetrising it through a copy
    # and scaling it into Z through a copy took Z + S + N plus 16.0 MiB.
    model = _model("sphere1-sub3")
    assemble_system(model)  # the mesh caches, outside the trace
    mesh = model.surfaces[0]
    tracemalloc.start()
    try:
        system = assemble_system(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    z_bytes, n_bytes = system.matrix.nbytes, 8 * mesh.num_vertices**2
    s_bytes = 8 * mesh.num_triangles**2
    assert peak <= z_bytes + s_bytes + n_bytes + 8 * 8 * bem_ops.BATCH_POINT_PAIRS
    assert peak <= formulation._dense_bytes(model)


def test_available_memory_is_physical_memory_lowered_to_the_cgroup_limit(tmp_path, monkeypatch):
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    # both cgroup files are read from tmp_path, under their own names
    monkeypatch.setattr(formulation, "Path", lambda path: tmp_path / os.path.basename(path))
    v2, v1 = tmp_path / "memory.max", tmp_path / "memory.limit_in_bytes"
    assert formulation._available_memory() == physical  # no readable limit
    v1.write_text(f"{2**21}\n")
    assert formulation._available_memory() == 2**21  # v1 read when v2 is unreadable
    v2.write_text("max\n")
    assert formulation._available_memory() == physical  # v2 takes precedence
    v2.write_text(f"{2**20}\n")
    assert formulation._available_memory() == 2**20
    v2.unlink()
    v1.write_text("9223372036854771712\n")  # v1 "unlimited"
    assert formulation._available_memory() == physical
