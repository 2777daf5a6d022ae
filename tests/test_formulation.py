import hashlib
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
    # nor a single layer: the outermost surface keeps no cell rows, so Z
    # keeps neither its S nor the S between it and the middle surface
    assert _requested_blocks(model, monkeypatch) == {
        (0, 0): {"S", "D", "N"},
        (1, 1): {"S", "D", "N"},
        (2, 2): {"N"},
        (0, 1): {"S", "D", "Dstar", "N"},
        (1, 2): {"D", "N"},
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


@pytest.mark.parametrize(
    "radii, sigma, subdivisions",
    [
        ((0.87, 0.92, 1.0), (1.0, 1.0 / 80.0, 1.0, 0.0), 1),
        ((0.87, 0.92, 1.0), (1.0, 1.0 / 80.0, 1.0, 0.5), 1),
        ((1.0,), (1.0, 0.0), 2),
        ((0.8, 0.85, 0.92, 1.0), (0.33, 1.0, 1.0 / 80.0, 1.0, 0.0), 1),
    ],
    ids=["shells3-sub1", "shells3-sub1-conducting", "sphere1-sub2", "head4-sub1"],
)
def test_the_block_table_places_every_block_z_stores(radii, sigma, subdivisions, monkeypatch):
    model = NestedModel([make_icosphere(subdivisions, r) for r in radii], sigma)
    layout, n = model.layout, model.num_interfaces
    table = formulation._z_blocks(layout, model.conductivities)
    assert list(table) == [(i, i) for i in range(n)] + [(i, i + 1) for i in range(n - 1)]
    # the listed blocks are disjoint and lie on or below the diagonal
    owner = np.full((layout.total, layout.total), -1)
    for k, (tag, rows, cols, _, _) in enumerate(b for listed in table.values() for b in listed):
        assert rows == cols or rows.start >= cols.stop, tag
        assert (owner[rows, cols] == -1).all(), tag
        owner[rows, cols] = k
    # each pair is asked for exactly the blocks the table lists
    assert _requested_blocks(model, monkeypatch) == {
        pair: set(formulation._tags(listed)) for pair, listed in table.items()
    }
    # every nonzero of Z's lower triangle lies in a listed block
    monkeypatch.undo()
    system = assemble_system(model)
    assert (owner[np.tril(system.matrix) != 0] >= 0).all()
    # the scale is |factor|^-1/2 of the diagonal N and S blocks: the V block
    # of surface i scales by (sigma_in + sigma_out)^-1/2 and its p block by
    # (1/sigma_in + 1/sigma_out)^-1/2
    scale = conductivity_rescale(system).scale
    s = np.asarray(sigma)
    diagonal = [(tag, i, rows, factor) for (i, j), listed in table.items()
                for tag, rows, cols, factor, _ in listed if rows == cols]
    assert sorted(tag for tag, *_ in diagonal) == ["N"] * n + ["S"] * sum(layout.p_kept)
    for tag, i, rows, factor in diagonal:
        c = s[i] + s[i + 1] if tag == "N" else 1.0 / s[i] + 1.0 / s[i + 1]
        assert abs(factor) == c and (scale[rows] == 1.0 / np.sqrt(c)).all(), (tag, i)


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
    n = model.layout.total
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
    layout = model.layout
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
    n = model.layout.total
    needed = formulation._dense_bytes(model)
    # Z, and of the self pair 0, 80 cells and 42 vertices, S, D, N and the
    # row buffer (one block of 80 rows), the geometry the sweep copies (24
    # values a cell of each mesh) and its touching pairs with their charts
    # (4 indices for each of the 980 entries of shared_vertex_counts and for
    # each cell), with the sweep's 4 + 14 planes of the batch budget, which
    # outweigh a flush here
    held = 80**2 + 80 * 42 + 42**2 + 24 * 160 + 4 * (980 + 80)
    assert needed == 8 * (n * n + held + 80**2 + 18 * bem_ops.BATCH_POINT_PAIRS)
    with monkeypatch.context() as patch:
        # at a budget below one row of S the row blocks hold one row each,
        # and a flush, with a curl product of one row and its copy, three
        # terms of N's rows on the row cell's 3 vertices and the curl slices
        # (6 values a cell), outweighs the 14 planes of a far block
        patch.setattr(bem_ops, "BATCH_POINT_PAIRS", 64)
        flush = (2 + 3 * 3) * 42 + 6 * 80
        assert formulation._dense_bytes(model) == 8 * (n * n + held + 80 + 4 * 64 + flush)

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
    # the insulated sphere keeps no p block: Z on its 12 vertices, and of
    # its self pair, 20 cells, no S but N, the row buffer, the geometry and
    # the 200 touching entries, with the 4 + 5 planes of a sweep without a
    # double layer
    held = 12**2 + 20**2 + 24 * 40 + 4 * (200 + 20)
    assert formulation._dense_bytes(small) == 8 * (
        12**2 + held + 9 * bem_ops.BATCH_POINT_PAIRS
    )
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


def _digest(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]


def _blas_probe():
    """Digest of the two BLAS products a batch forms, a row of weights
    times the kernel values and the quadratic form times the Gram array, on
    seeded data: BLAS kernels that round these alike round S alike."""
    rng = np.random.default_rng(35)
    w, values = rng.random(1536), rng.random((1536, 85))
    form, gram = rng.random((81, 15)), rng.random((15, 85))
    return _digest(np.concatenate([w @ values, (form @ gram).ravel()]))


#: Digests of S on every surface pair as assembled when each pair held its
#: whole single layer and formed N from it afterwards, keyed by the
#: :func:`_blas_probe` of the BLAS kernels that made them: OpenBLAS 0.3.31 on
#: its SkylakeX and on its Haswell kernels, one thread.
S_DIGESTS = {
    "30d5b3dea4f9f28e": {
        "shells3-sub2": {(0, 0): "0fef88a13b25123d", (1, 1): "1214f9acf07638a5",
                         (2, 2): "0503214067d1324d", (0, 1): "c2f19316e769672f",
                         (1, 2): "e6b449b46f71c151"},
        "sphere1-sub3": {(0, 0): "a5cd74598c9cca98"},
        "shells3-sub1": {(0, 0): "8a2f6a38360a3f9a", (1, 1): "23e0ae32308a4a39",
                         (2, 2): "4a9538e236a8d8e6", (0, 1): "75cb5ac309ba59d3",
                         (1, 2): "fddcc0096699b21d"},
    },
    "9e1451041290f0e6": {
        "shells3-sub2": {(0, 0): "985cb75a486fd21c", (1, 1): "f765dfb21923d8bd",
                         (2, 2): "87efefc77d0bb21d", (0, 1): "f351442f3a69c35d",
                         (1, 2): "665f04073993f690"},
        "sphere1-sub3": {(0, 0): "f137798f9fdd0143"},
        "shells3-sub1": {(0, 0): "f9bb2f5a6245ca77", (1, 1): "b5beb1e650cbf578",
                         (2, 2): "b4a2187651abc054", (0, 1): "f358ed6b458d0bbb",
                         (1, 2): "b15dd36d217f04a4"},
    },
}


@pytest.mark.parametrize(
    "name, sigma, subdivisions",
    [
        ("shells3-sub2", (1.0, 1.0 / 80.0, 1.0, 0.0), 2),
        ("sphere1-sub3", (1.0, 0.0), 3),
        ("shells3-sub1", (1.0, 1.0 / 80.0, 1.0, 0.5), 1),
    ],
)
def test_a_kept_single_layer_is_symmetric_and_keeps_its_bits(name, sigma, subdivisions):
    # S streams through the sweep's row buffer and is added into its rows
    # and, on one surface, its columns once a row block finishes; every
    # entry is one pair's value, or two exact halves on the diagonal, so S
    # keeps the bits it had when it was held whole.  Each pair is asked for
    # the blocks Z keeps and S besides; on the subdivision-3 sphere, where Z
    # keeps no S, the touching pairs' batches cross its 13 row blocks.
    digests = S_DIGESTS.get(_blas_probe())
    if digests is None:
        pytest.skip("no S digests recorded for the BLAS kernels of this host")
    radii = (1.0,) if len(sigma) == 2 else (0.87, 0.92, 1.0)
    model = NestedModel([make_icosphere(subdivisions, r) for r in radii], sigma)
    surfaces = model.surfaces
    kept = 0
    for (i, j), listed in formulation._z_blocks(model.layout, model.conductivities).items():
        blocks = formulation._tags(listed)
        kept += "S" in blocks
        ops = bem_ops.assemble_operators(surfaces[i], surfaces[j], blocks + ("S",))
        s = ops["S"].matrix
        assert _digest(s) == digests[name][i, j], (i, j)
        if i == j:
            assert np.array_equal(s, s.T), i
    assert kept == {"shells3-sub2": 3, "sphere1-sub3": 0, "shells3-sub1": 5}[name]


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
    surfaces = model.surfaces
    assemble_system(model)  # the mesh caches, outside the trace
    if budget is not None:
        monkeypatch.setattr(bem_ops, "BATCH_POINT_PAIRS", budget)
    for (i, j), listed in formulation._z_blocks(model.layout, model.conductivities).items():
        mesh_t, mesh_s = surfaces[i], surfaces[j]
        blocks = formulation._tags(listed)
        tracemalloc.start()
        try:
            bem_ops.assemble_operators(mesh_t, mesh_s, blocks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        count = bem_ops.pair_bytes(mesh_t, mesh_s, blocks)
        assert peak <= 1.02 * count, (i, j, peak / count)


def test_the_insulated_sphere_assembles_in_z_n_and_ten_budget_planes():
    # Z keeps no S of the insulated sphere, and the sweep forms N from each
    # row block's single layer as the block finishes, so S is never held:
    # the peak is Z, N, the row buffer, the sweep's arrays (the dense far
    # blocks hold five planes without a double layer) and the touching
    # pairs and geometry it reads, 9.0 planes of the batch budget beside Z
    # and N.  Holding S whole to form N from it took Z + S + 7.7 planes,
    # 23.3 MiB against 15.3 MiB.
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
    assert peak <= z_bytes + n_bytes + 10 * 8 * bem_ops.BATCH_POINT_PAIRS
    assert peak < z_bytes + s_bytes
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
