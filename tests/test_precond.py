import dataclasses
import tracemalloc
from functools import cached_property

import numpy as np
import pytest
from scipy.linalg import eigh

from symmbem import formulation, krylov, precond
from symmbem.formulation import (
    BlockSystem,
    DipoleSource,
    assemble_rhs,
    assemble_system,
    conductivity_rescale,
)
from symmbem.geometry import NestedModel, TriangleMesh, make_icosphere, read_off, write_off
from symmbem.laplacians import dual_laplacian, primal_laplace_beltrami
from symmbem.oracle import SphereSpec, layered_sphere_potential
from symmbem.spaces import gram_p1, pyramid_space

RADII = (0.87, 0.92, 1.0)
SIGMA = (1.0, 1.0 / 80.0, 1.0, 0.0)
DIPOLE = DipoleSource([0.1, -0.2, 0.35], [0.6, 0.0, 0.8])


def _system(meshes, sigma=SIGMA, dipole=DIPOLE):
    """Rescaled system of the nested model on ``meshes``, loaded by ``dipole``."""
    model = NestedModel(meshes, sigma)
    system = assemble_system(model)
    system.rhs = assemble_rhs(model, [dipole])
    return conductivity_rescale(system)


def _rdm_mag(v, ref):
    """RDM and MAG of the mean-referenced potentials."""
    v, ref = v - v.mean(), ref - ref.mean()
    rdm = np.linalg.norm(v / np.linalg.norm(v) - ref / np.linalg.norm(ref))
    return rdm, np.linalg.norm(v) / np.linalg.norm(ref)


def _unpack(op):
    """Z and ``P_D A`` as full, fresh matrices from the array they share:
    Z on and below its diagonal, ``P_D A`` above it with ``op.diagonal``."""
    a = op.matrix
    z = np.tril(a) + np.tril(a, -1).T
    pda = np.triu(a, 1)
    pda += pda.T
    np.fill_diagonal(pda, op.diagonal)
    return z, pda


def _spectral_only(op):
    """``op`` with an empty coarse space: the spectral operator A alone,
    ``P_D A + U U^T``, on a copy of the system's array."""
    u = op.coarse_image
    a = _unpack(op)[1] + u @ u.T
    system = dataclasses.replace(op.system, matrix=np.tril(op.matrix) + np.triu(a, 1))
    empty = op.coarse[:, :0]
    return dataclasses.replace(op, system=system, coarse=empty, coarse_image=empty,
                               diagonal=np.diagonal(a).copy())


def _with_load(op, rhs):
    """``op`` on its system with the right-hand side ``rhs``."""
    return dataclasses.replace(op, system=dataclasses.replace(op.system, rhs=rhs))


def _without_gauge(op, x):
    """The physical solution ``x`` in scaled variables, without its
    component along the gauge ``op.deflation``."""
    k = op.deflation
    x = x / op.system.scale_vector()
    return x - k @ (k.T @ x)


def _iterations(op):
    """Outer CG iterations on ``op`` for its system's load."""
    _, report = krylov.conjugate_gradient(op.apply, op.preconditioned_rhs())
    assert report.converged
    return report.iterations


def _shells(subdivisions, axes=(1.0, 1.0, 1.0), jitter=0.0):
    """The three shells at ``subdivisions``, scaled by ``axes``.

    With ``jitter``, every vertex first moves tangentially by ``jitter``
    times the mean edge length in a fixed random direction, the same
    direction and relative step on all three shells, which grades the cell
    sizes and makes some cells obtuse.
    """
    unit = make_icosphere(subdivisions, 1.0)
    shift = np.zeros_like(unit.vertices)
    if jitter:
        v = unit.vertices  # on the unit sphere: the vertex normals
        h = np.linalg.norm(v[unit.edges[:, 0]] - v[unit.edges[:, 1]], axis=1).mean()
        d = np.random.default_rng(2).standard_normal(v.shape)
        d -= (d * v).sum(axis=1)[:, None] * v
        shift = jitter * h * d / np.linalg.norm(d, axis=1)[:, None]
    spheres = [make_icosphere(subdivisions, r) for r in RADII]
    return [TriangleMesh((m.vertices + r * shift) * np.array(axes), m.triangles)
            for m, r in zip(spheres, RADII)]


@pytest.fixture(scope="module")
def shells1():
    """Rescaled three-shell system at subdivision 1 with one dipole load."""
    meshes = [make_icosphere(1, r) for r in RADII]
    return _system(meshes), meshes, DIPOLE


def test_primal_solver_matches_dense_regularized_solve():
    mesh = make_icosphere(2, 1.0)
    lap = primal_laplace_beltrami(mesh)
    lumped = gram_p1(pyramid_space(mesh)).toarray().sum(axis=1)
    beta = 8.0 * np.pi / mesh.total_area
    dense = lap.toarray() + (beta / lumped.sum()) * np.outer(lumped, lumped)
    solver = precond._primal_solver(mesh, lap)
    rhs = np.random.default_rng(0).standard_normal(mesh.num_vertices)
    x = solver(rhs)
    expected = np.linalg.solve(dense, rhs)
    assert np.linalg.norm(x - expected) / np.linalg.norm(expected) < 1e-12


def test_dual_solver_matches_dense_two_point_flux_map():
    mesh = make_icosphere(2, 1.0)
    k = dual_laplacian(mesh).toarray()
    a = mesh.areas
    beta = np.pi / mesh.total_area
    inv = np.diag(1.0 / a)
    dense = inv @ (k + (beta / a.sum()) * np.outer(a, a)) @ inv
    solver = precond._dual_solver(mesh)
    columns = np.column_stack([solver(e) for e in np.eye(mesh.num_triangles)])
    assert np.abs(columns - dense).max() <= 1e-13 * np.abs(dense).max()
    assert np.abs(columns - columns.T).max() <= 1e-13 * np.abs(dense).max()
    vals = np.linalg.eigvalsh(0.5 * (columns + columns.T))
    assert vals[0] > 1e-8 * vals[-1]


def test_preconditioned_operator_is_symmetric(shells1):
    system, meshes, _ = shells1
    op = precond.build(system, meshes)
    rng = np.random.default_rng(1)
    x = rng.standard_normal(op.size)
    y = rng.standard_normal(op.size)
    ax, ay = op.apply(x), op.apply(y)
    scale = np.linalg.norm(ax) * np.linalg.norm(y)
    assert abs(y @ ax - x @ ay) / scale < 1e-13


def test_apply_matches_dense_chain(shells1):
    system, meshes, _ = shells1
    op = precond.build(system, meshes)
    x = np.random.default_rng(3).standard_normal(op.size)
    m = np.diag(op.m_diag)
    z, _ = _unpack(op)
    u = op.coarse_image
    expected = m @ (z @ op.apply_p(z @ (m @ x))) - u @ (u.T @ x)
    assert np.linalg.norm(op.apply(x) - expected) <= 1e-13 * np.linalg.norm(expected)
    block = op.apply(np.column_stack([x, -x]))
    assert np.linalg.norm(block[:, 0] - expected) <= 1e-13 * np.linalg.norm(expected)
    assert np.array_equal(block[:, 1], -block[:, 0])


def test_apply_is_one_symmetric_product(shells1, monkeypatch):
    system, meshes, _ = shells1
    op = precond.build(system, meshes)
    calls = []
    dsymv = krylov.dsymv

    def counted(*args, **kwargs):
        calls.append(1)
        return dsymv(*args, **kwargs)

    def unexpected(*args):
        raise AssertionError("a Laplacian map ran inside apply")

    monkeypatch.setattr(krylov, "dsymv", counted)
    op.primal_solvers[:] = [unexpected] * len(op.primal_solvers)
    op.dual_solvers[:] = [unexpected] * len(op.dual_solvers)
    x = np.random.default_rng(4).standard_normal(op.size)
    y = op.apply(x)
    assert len(calls) == 1
    assert np.linalg.norm(y - _unpack(op)[1] @ x) <= 1e-14 * np.linalg.norm(y)


def test_build_refuses_its_coarse_arrays_beyond_memory(shells1, monkeypatch):
    # the build holds Z, which holds the operator too, beside its own arrays
    system, meshes, _ = shells1
    n = system.size
    needed = system.matrix.nbytes + precond._build_bytes(system.layout)
    before = system.matrix.copy()
    monkeypatch.setattr(formulation, "_available_memory", lambda: needed - 1)
    tracemalloc.start()
    try:
        with pytest.raises(MemoryError, match=f"N = {n}, over"):
            precond.build(system, meshes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < needed / 10  # nothing was allocated
    assert np.array_equal(system.matrix, before)
    monkeypatch.setattr(formulation, "_available_memory", lambda: needed)
    assert precond.build(system, meshes).matrix is system.matrix


def test_build_fits_in_the_memory_assembly_needs(monkeypatch):
    meshes = _shells(2)
    model = NestedModel(meshes, SIGMA)
    needed = formulation._dense_bytes(model)
    n = model.layout.total
    monkeypatch.setattr(formulation, "_available_memory", lambda: needed - 1)
    tracemalloc.start()
    try:
        with pytest.raises(MemoryError, match=f"N = {n} exceeds"):
            assemble_system(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * n / 10  # nothing of size N x N was allocated
    monkeypatch.setattr(formulation, "_available_memory", lambda: needed + 1)
    system = conductivity_rescale(assemble_system(model))
    op = precond.build(system, meshes)
    assert op.matrix is system.matrix and op.coarse.shape[1] > 0


def test_build_factors_each_surface_once(shells1, monkeypatch):
    # the coarse modes come from the same bordered LU that P applies
    system, meshes, _ = shells1
    shapes = []
    splu = precond.splu

    def counted(matrix):
        shapes.append(matrix.shape)
        return splu(matrix)

    monkeypatch.setattr(precond, "splu", counted)
    precond.build(system, meshes)
    assert shapes == [(m.num_vertices + 1, m.num_vertices + 1) for m in meshes]


def test_assembly_and_build_take_the_curls_of_each_mesh_once(monkeypatch):
    # N's assembly and the cotangent Laplacian read the same cached maps
    built = []
    curls = TriangleMesh.curls.func

    def counted(mesh):
        built.append(mesh)
        return curls(mesh)

    spy = cached_property(counted)
    spy.__set_name__(TriangleMesh, "curls")
    monkeypatch.setattr(TriangleMesh, "curls", spy)
    meshes = [make_icosphere(1, r) for r in RADII]
    precond.build(_system(meshes), meshes)
    assert sorted(map(id, built)) == sorted(map(id, meshes))


@pytest.fixture(scope="module")
def shells2():
    """Rescaled three-shell system at subdivision 2 with one dipole load."""
    meshes = _shells(2)
    return _system(meshes), meshes


def test_build_allocates_no_n_by_n_array(shells2):
    # the operator shares Z's array, and the Cholesky factor and the
    # triangular solves overwrite E, W and A W in place: the peak is W,
    # A W and one T x T array, 5.6 MiB at N = 1126, T = 268
    system, meshes = shells2
    precond.build(system, meshes)  # first call outside the trace: caches, BLAS set-up
    tracemalloc.start()
    try:
        op = precond.build(system, meshes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n, t = op.size, op.coarse.shape[1]
    assert t > 0
    assert 8 * n * n > 3 * 8 * n * t
    assert peak <= 3 * 8 * n * t


def test_build_leaves_z_bitwise_and_repeats_bitwise(shells1, monkeypatch):
    system, meshes, _ = shells1
    x = np.random.default_rng(5).standard_normal(system.size)
    before = system.matvec(x)
    z = np.tril(system.matrix)
    first = precond.build(system, meshes)
    _, pda = _unpack(first)
    assert np.array_equal(system.matvec(x), before)
    assert np.array_equal(np.tril(system.matrix), z)
    second = precond.build(system, meshes)
    assert np.array_equal(np.tril(system.matrix), z)
    assert np.array_equal(_unpack(second)[1], pda)
    assert np.array_equal(second.coarse, first.coarse)
    assert np.array_equal(second.apply(x), first.apply(x))

    def failed(*args):
        raise RuntimeError("coarse space failed")

    # a build that fails after the operator's diagonal went in puts Z's back
    monkeypatch.setattr(precond, "_coarse_space", failed)
    with pytest.raises(RuntimeError, match="coarse space failed"):
        precond.build(system, meshes)
    assert np.array_equal(np.tril(system.matrix), z)


def test_apply_annihilates_the_a_orthonormal_coarse_space(shells1):
    system, meshes, _ = shells1
    op = precond.build(system, meshes)
    # 9 modes per vertex block, the outer one without its constant, and
    # 121 per cell block, capped at n_v - 1 = 41 on the 42-vertex surfaces
    # and so back to the start of the cluster of modes 37-41
    assert op.coarse.shape == (op.size, 3 * 9 - 1 + 2 * 37)
    # the vector path of the solve against the block path of the build;
    # W^T A W = I holds to rounding times the condition number of E, 1e4
    spectral = _spectral_only(op)
    aw = np.column_stack([spectral.apply(w) for w in op.coarse.T])
    assert np.abs(op.coarse.T @ aw - np.eye(op.coarse.shape[1])).max() <= 1e-10
    assert np.linalg.norm(aw - op.coarse_image) <= 1e-13 * np.linalg.norm(aw)
    deflated = np.column_stack([op.apply(w) for w in op.coarse.T])
    assert np.linalg.norm(deflated) <= 1e-13 * np.linalg.norm(aw)
    # W and U are the arrays the coarse space allocated, orthonormalised in
    # place: C-ordered, each the whole of its buffer (U the transposed view
    # of the Fortran array dsymm returns), neither a slice of a wider one
    for a in (op.coarse, op.coarse_image):
        assert a.flags.c_contiguous
        assert a.base is None or (a.base.base is None and a.base.nbytes == a.nbytes)
    assert op.coarse.flags.owndata


def test_deflated_solution_matches_the_spectral_only_solution(shells1):
    system, meshes, _ = shells1
    op = precond.build(system, meshes)
    solutions = []
    for o in (op, _spectral_only(op)):
        x, report, residual = precond.solve(o, tol=1e-11)
        assert report.converged
        assert residual <= 1e-10
        solutions.append(_without_gauge(op, x))
    deflated, spectral = solutions
    assert np.linalg.norm(deflated - spectral) <= 1e-9 * np.linalg.norm(spectral)


def test_cell_rows_take_the_modes_through_degree_10(shells2, monkeypatch):
    # the skull's small eigenvalues sit on its cell rows; once P_D A is
    # formed a coarse column costs build work only, so deflating the cell
    # modes through spherical degree 10 instead of 6 is paid for once
    system, meshes = shells2
    op = precond.build(system, meshes)
    # 9 modes per vertex block, the outer one without its constant, and
    # 121 per cell block, on to the end of the cluster of modes 118-122
    assert op.coarse.shape == (op.size, 3 * 9 - 1 + 2 * 123)
    more = _iterations(op)  # before the next build overwrites the operator
    monkeypatch.setattr(precond, "CELL_MODES", 49)
    fewer = precond.build(system, meshes)
    assert fewer.coarse.shape == (op.size, 124)
    assert more <= 0.8 * _iterations(fewer)


@pytest.mark.parametrize("subdivisions", [1, 2])
def test_a_block_that_spans_the_surface_runs_no_inverse_iteration(subdivisions):
    # the 169-column block for the modes through degree 10 spans the 162
    # vertices at subdivision 2 (and the 42 at 1), so Rayleigh-Ritz on it
    # is exact and the solver is never called; the cut ends the clusters
    # of modes 118-122 and 37-41 (the last below the n - 1 cap)
    count = {1: 37, 2: 123}[subdivisions]
    mesh = make_icosphere(subdivisions, 0.92)
    lap, gram = primal_laplace_beltrami(mesh), gram_p1(pyramid_space(mesh))

    def unexpected(rhs):
        raise AssertionError("inverse iteration ran")

    modes = precond._surface_modes(unexpected, lap, gram, precond.CELL_MODES)
    assert modes.shape == (mesh.num_vertices, count)
    vals, vecs = eigh(lap.toarray(), gram.toarray())
    quotients = np.einsum("ij,ij->j", modes, lap @ modes)  # the modes are G-orthonormal
    assert np.abs(quotients - vals[:count]).max() <= 1e-10 * vals[count]
    # the cut lies in a gap of the discrete spectrum, so the span is fixed
    assert vals[count] - vals[count - 1] > 1e-3 * vals[count]
    below = vecs[:, :count]
    residual = below - modes @ (modes.T @ (gram @ below))
    assert np.abs(residual).max() <= 1e-10


def test_the_coarse_space_follows_last_bit_changes_of_the_gram_smoothly(shells2, monkeypatch):
    # the cell blocks take whole clusters of (L, G): a symmetric 1e-15
    # relative change of G turns W within its eigenspaces only, and P_D A
    # moves by rounding; cut inside the cluster of modes 118-122 it moved
    # by 1.4e-2 of its largest entry
    system, meshes = shells2
    before = _unpack(precond.build(system, meshes))[1]
    rng = np.random.default_rng(5)

    def perturbed(space):
        g = gram_p1(space)
        noise = g.copy()
        noise.data = rng.uniform(-1e-15, 1e-15, g.nnz)
        return g + g.multiply(noise + noise.T) * 0.5

    monkeypatch.setattr(precond, "gram_p1", perturbed)
    after = _unpack(precond.build(system, meshes))[1]
    assert np.abs(after - before).max() <= 1e-10 * np.abs(before).max()


@pytest.mark.parametrize(
    "radius, count, tol",
    [(1.0, precond.VERTEX_MODES, 1e-6), (0.92, precond.CELL_MODES, 2e-2)],
    ids=["vertex-modes", "cell-modes"],
)
def test_inverse_iteration_spans_the_lowest_modes_at_subdivision_3(radius, count, tol):
    # at 642 vertices the block is iterated for MODE_STEPS steps: its 25
    # columns bring the 9 modes through degree 2 to 4.3e-7 of the exact
    # span, its 169 columns the 121 through degree 10 only to 1.09e-2
    mesh = make_icosphere(3, radius)
    lap, gram = primal_laplace_beltrami(mesh), gram_p1(pyramid_space(mesh))
    modes = precond._surface_modes(precond._primal_solver(mesh, lap), lap, gram, count)
    assert modes.shape == (mesh.num_vertices, count)
    vals, vecs = eigh(lap.toarray(), gram.toarray())
    # the cut splits no cluster of the discrete spectrum here
    below = vecs[:, vals < vals[count] * (1 - 1e-8)]
    assert below.shape[1] == count
    residual = below - modes @ (modes.T @ (gram @ below))
    assert np.abs(residual).max() <= tol


def test_a_surface_without_cell_rows_runs_the_small_mode_iteration(monkeypatch):
    # the insulated sphere has one vertex block and no cell block, so its
    # inverse iteration carries 25 columns, the modes up to degree 4
    mesh = make_icosphere(3, 1.0)
    widths = []
    surface_modes = precond._surface_modes

    def spied(solver, *args):
        def counted(rhs):
            widths.append(rhs.shape[1])
            return solver(rhs)
        return surface_modes(counted, *args)

    monkeypatch.setattr(precond, "_surface_modes", spied)
    op = precond.build(_system([mesh], (1.0, 0.0)), [mesh])
    assert widths == [25] * precond.MODE_STEPS
    assert op.coarse.shape == (op.size, precond.VERTEX_MODES - 1)


def test_build_on_a_zero_system_raises_and_leaves_z():
    # no curvature in any coarse direction: W^T A W = 0 has no Cholesky
    # factor, and the build fails before the coarse correction
    meshes = [make_icosphere(1, r) for r in RADII]
    layout = NestedModel(meshes, SIGMA).layout
    system = BlockSystem(np.zeros((layout.total, layout.total)), layout, np.array(SIGMA))
    z = system.matrix.copy()
    with pytest.raises(np.linalg.LinAlgError):
        precond.build(system, meshes)
    assert np.array_equal(system.matrix, z)


def test_coarse_space_is_bitwise_equal_across_builds():
    builds = []
    for _ in range(3):
        meshes = [make_icosphere(1, r) for r in RADII]
        op = precond.build(_system(meshes), meshes)
        builds.append((op.coarse, op.coarse_image, *_unpack(op)))
    for arrays in builds[1:]:
        for a, b in zip(arrays, builds[0]):
            assert np.array_equal(a, b)


@pytest.mark.parametrize(
    "axes, jitter",
    [((1.0, 1.0, 1.0), 0.0), ((1.1, 1.0, 0.85), 0.0), ((1.1, 1.0, 0.85), 0.25)],
    ids=["spheres", "ellipsoid", "jittered-ellipsoid"],
)
def test_deflation_cuts_iterations_at_subdivision_2(axes, jitter):
    meshes = _shells(2, axes, jitter)
    if jitter:
        # graded and obtuse cells, where the icosphere's are nearly uniform
        areas = meshes[0].areas
        assert areas.max() > 7.0 * areas.min()
    op = precond.build(_system(meshes), meshes)
    spectral = _spectral_only(op)
    w = op.coarse
    assert np.abs(w.T @ spectral.apply(w) - np.eye(w.shape[1])).max() <= 1e-10
    assert _iterations(op) <= 0.7 * _iterations(spectral)


def test_deflated_iterations_stay_flat_from_subdivision_2_to_3():
    iterations = []
    for subdivisions in (2, 3):
        meshes = _shells(subdivisions)
        iterations.append(_iterations(precond.build(_system(meshes), meshes)))
    assert iterations[1] < 1.3 * iterations[0]


def test_recovery_kernel_is_the_assembled_kernel(shells1):
    system, meshes, _ = shells1
    op = precond.build(system, meshes)
    k = op.deflation
    assert k.shape == (op.size, 1)
    assert np.allclose(k.T @ k, np.eye(1), atol=1e-15)
    z, _ = _unpack(op)
    assert np.linalg.norm(z @ k) <= 1e-12 * np.linalg.norm(z)


@pytest.mark.parametrize(
    "subdivisions, radii, sigma",
    [(1, RADII, SIGMA), (3, (1.0,), (1.0, 0.0))],
    ids=["shells3-sub1", "sphere-sub3"],
)
def test_no_load_reaches_the_gauge_the_spectral_operator_annihilates(subdivisions, radii, sigma):
    # A = M Z P Z M is singular along q = M^-1 k, k the gauge of the
    # rescaled Z, and every load c = M Z P b is orthogonal to q: CG keeps
    # its iterates in A's range, so no projector is needed
    meshes = [make_icosphere(subdivisions, r) for r in radii]
    system = _system(meshes, sigma)
    op = precond.build(system, meshes)
    k = op.deflation[:, 0]
    q = k / op.m_diag
    q /= np.linalg.norm(q)
    a = _unpack(op)[1] + op.coarse_image @ op.coarse_image.T
    assert np.linalg.norm(a @ q) <= 1e-13 * np.linalg.norm(a, 2)
    random = np.random.default_rng(6).standard_normal(op.size)
    electrode = np.eye(op.size)[system.layout.v_slice(len(meshes) - 1).start]
    for b in (random, electrode):
        assert abs(k @ b) >= 0.01 * np.linalg.norm(b)  # the load has a gauge component
        c = _with_load(op, b).spectral_rhs()
        assert abs(q @ c) <= 1e-14 * np.linalg.norm(c)


def _spy_runs(monkeypatch):
    """The loads of the CG runs made from now on, one entry per run."""
    loads = []
    cg = krylov.conjugate_gradient

    def spied(apply, b, **kwargs):
        loads.append(b)
        return cg(apply, b, **kwargs)

    monkeypatch.setattr(krylov, "conjugate_gradient", spied)
    return loads


def test_loads_with_a_gauge_component_solve(shells1, monkeypatch):
    # no solution reduces a load's component along the gauge k, so the
    # recovered residual drops it.  Left in the load, it would leave
    # Z P (Z x - b) = 0 with a residual along P^-1 k, not along k, which
    # no CG step removes; projected off k, Z x = b - k k^T b is consistent
    system, meshes, _ = shells1
    op = precond.build(system, meshes)
    runs = _spy_runs(monkeypatch)
    electrode = np.eye(op.size)[system.layout.v_slice(len(meshes) - 1).start]
    _, report, residual = precond.solve(_with_load(op, electrode))
    assert report.converged and residual <= 1e-8
    assert len(runs) == 1
    assert report.iterations <= 40  # 33; 71 for a first run and a correction
    b = system.rhs
    x, plain, _ = precond.solve(op)
    shifted = _with_load(op, b + 0.5 * np.linalg.norm(b) * op.deflation[:, 0])
    y, report, residual = precond.solve(shifted)
    assert report.converged and residual <= 1e-8
    assert len(runs) == 3
    # the shift is projected off before P: the same load and the same run
    c = op.spectral_rhs()
    assert np.linalg.norm(shifted.spectral_rhs() - c) <= 1e-14 * np.linalg.norm(c)
    assert report.iterations == plain.iterations
    # apart from their gauge components the solutions agree, to 1.5e-15
    x, y = _without_gauge(op, x), _without_gauge(op, y)
    assert np.linalg.norm(y - x) <= 1e-7 * np.linalg.norm(x)


def test_solve_matches_layered_sphere_series(shells1):
    system, meshes, dipole = shells1
    x, report, residual = precond.solve(precond.build(system, meshes))
    assert report.converged
    assert residual <= 1e-8
    outer = meshes[-1]
    v = x[system.layout.v_slice(len(meshes) - 1)]
    ref = layered_sphere_potential(SphereSpec(RADII, SIGMA), dipole, outer.vertices)
    rdm, mag = _rdm_mag(v, ref)
    assert rdm < 0.025
    assert abs(mag - 1.0) < 0.2


def test_graded_inner_shell_is_nested_and_solves_to_the_layered_sphere_series():
    # the inner shell keeps the 0.87 sphere but crowds its vertices towards
    # +x (cell area ratio 2.65): its vertex mean moves to x = 0.116, so its
    # bounding sphere reaches past the 0.92 shell's although every vertex
    # lies inside it
    unit = make_icosphere(2, 1.0)
    shifted = unit.vertices + [0.2, 0.0, 0.0]
    inner = TriangleMesh(0.87 * shifted / np.linalg.norm(shifted, axis=1)[:, None], unit.triangles)
    meshes = [inner] + [make_icosphere(2, r) for r in RADII[1:]]
    assert NestedModel(meshes, SIGMA).validate() == []
    system = _system(meshes)
    x, report, residual = precond.solve(precond.build(system, meshes))
    assert report.converged
    assert residual <= 1e-8
    v = x[system.layout.v_slice(len(meshes) - 1)]
    ref = layered_sphere_potential(SphereSpec(RADII, SIGMA), DIPOLE, meshes[-1].vertices)
    rdm, mag = _rdm_mag(v, ref)
    assert rdm < 0.025
    assert abs(mag - 1.0) < 0.2


def test_solve_stops_on_the_recovered_residual_of_the_insulated_sphere(monkeypatch):
    # CG meets 1e-8 on the deflated system in 16 steps, but the recovered
    # residual of this source is 1.3e-8; one run that stops on the
    # recovered residual takes 17 steps, where the first run and a
    # correction run from zero on the recovered residual took 16 + 3
    mesh = make_icosphere(3, 1.0)
    dipole = DipoleSource([-0.16, -0.18, 0.62], [0.94, 0.34, -0.04])
    op = precond.build(_system([mesh], (1.0, 0.0), dipole), [mesh])
    y, first = krylov.conjugate_gradient(op.apply, op.preconditioned_rhs())
    _, missed = precond.recover_solution(op, y)
    assert first.converged and missed > 1e-8

    def unexpected(*args):
        raise AssertionError("solve built an operator")

    runs = _spy_runs(monkeypatch)
    monkeypatch.setattr(precond, "build", unexpected)
    x, report, residual = precond.solve(op)
    assert report.converged and residual <= 1e-8
    assert len(runs) == 1
    assert report.iterations < first.iterations + 3
    assert report.residuals[-1] == residual
    ref = precond.recover_solution(op, y)[0]
    assert np.linalg.norm(x - ref) <= 1e-7 * np.linalg.norm(ref)


def test_solve_keeps_the_solution_of_its_last_check(shells1, monkeypatch):
    # a run ends on a check of the recovered residual, which has just
    # recovered the solution: beside the Z product that forms the load,
    # every Z product is a check's, and the solution is bitwise the one a
    # recovery after the run gives
    system, meshes, _ = shells1
    op = precond.build(system, meshes)
    y, _ = krylov.conjugate_gradient(
        op.apply, op.preconditioned_rhs(), residual=lambda y: precond._recover(op, y)[2]
    )
    expected, _, expected_residual = precond._recover(op, y)
    expected = expected * system.scale_vector()

    products, checks = [], []
    matvec, cg = formulation.BlockSystem.matvec, krylov.conjugate_gradient

    def counted_matvec(self, x):
        products.append(x.shape)
        return matvec(self, x)

    def counted_cg(apply, b, residual=None, **kwargs):
        def counted_residual(y):
            checks.append(1)
            return residual(y)

        return cg(apply, b, residual=counted_residual, **kwargs)

    monkeypatch.setattr(formulation.BlockSystem, "matvec", counted_matvec)
    monkeypatch.setattr(krylov, "conjugate_gradient", counted_cg)
    x, report, residual = precond.solve(_with_load(op, system.rhs))
    assert report.converged and len(checks) >= 1
    assert len(products) == 1 + len(checks)
    assert np.array_equal(x, expected) and residual == expected_residual

    # a run that ended between checks, here one that stops on its own
    # residual and makes none, is recovered anew
    runs = []

    def unchecked_cg(apply, b, **kwargs):
        runs.append(cg(apply, b))
        return runs[-1]

    monkeypatch.setattr(krylov, "conjugate_gradient", unchecked_cg)
    products.clear()
    x, _, residual = precond.solve(_with_load(op, system.rhs))
    assert len(products) == 2
    expected, _, expected_residual = precond._recover(op, runs[0][0])
    assert np.array_equal(x, expected * system.scale_vector()) and residual == expected_residual


class _CountedCoarse(np.ndarray):
    """A coarse basis W that counts the products ``v @ W`` of a vector with it."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul and inputs[1] is self and np.ndim(inputs[0]) == 1:
            self.products.append(1)
        inputs = tuple(np.asarray(a) if isinstance(a, _CountedCoarse) else a for a in inputs)
        return getattr(ufunc, method)(*inputs, **kwargs)


def test_a_load_takes_one_coarse_product(shells1):
    # W^T c is kept with c: CG's load and every recovery, at each check of
    # the run and after it, read the one product, and the solution keeps
    # its bits
    system, meshes, _ = shells1
    op = precond.build(system, meshes)
    x, report, residual = precond.solve(op)
    w = op.coarse.view(_CountedCoarse)
    w.products = []
    counted = dataclasses.replace(op, coarse=w)
    y, again, again_residual = precond.solve(counted)
    assert len(w.products) == 1
    assert again.iterations == report.iterations > 0
    assert np.array_equal(x, y) and again_residual == residual
    precond.solve(_with_load(counted, 2.0 * system.rhs))
    assert len(w.products) == 2


def test_a_zero_load_recovers_with_residual_0(shells1):
    # the relative residual used to divide 0 by 0; RuntimeWarnings are
    # errors in the test configuration
    system, meshes, _ = shells1
    op = precond.build(system, meshes)
    zero = _with_load(op, np.zeros(op.size))
    x, report, residual = precond.solve(zero)
    assert residual == 0.0 and report.converged and report.iterations == 0
    assert not x.any()
    assert precond.recover_solution(zero, np.zeros(op.size))[1] == 0.0


def test_refinement_improves_accuracy_at_a_flat_condition_number():
    # the paper's claim: the error against the layered-sphere series falls
    # under refinement while the spectral condition number stays put
    rdm, mag_err, cond = [], [], []
    for subdivisions in (1, 2):
        meshes = [make_icosphere(subdivisions, r) for r in RADII]
        system = _system(meshes)
        x, report, residual = precond.solve(_spectral_only(precond.build(system, meshes)))
        assert report.converged and residual <= 1e-8
        v = x[system.layout.v_slice(len(meshes) - 1)]
        ref = layered_sphere_potential(SphereSpec(RADII, SIGMA), DIPOLE, meshes[-1].vertices)
        r, m = _rdm_mag(v, ref)
        rdm.append(r)
        mag_err.append(abs(m - 1.0))
        cond.append(report.ritz_max / report.ritz_min)
    assert rdm[1] < rdm[0]
    assert mag_err[1] < mag_err[0]
    assert abs(cond[1] - cond[0]) < 0.1 * cond[0]


def test_iterations_stay_flat_on_ellipsoidal_shells_read_from_off_files(tmp_path):
    # the icosphere's nearly uniform cells are the easy case for the
    # two-point flux on the cell rows; stretched shells have cells of
    # unequal shape and size
    axes = np.array([1.1, 1.0, 0.85])
    iterations = []
    for subdivisions in (1, 2):
        meshes = []
        for k, r in enumerate(RADII):
            sphere = make_icosphere(subdivisions, r)
            path = tmp_path / f"shell{k}-sub{subdivisions}.off"
            write_off(TriangleMesh(sphere.vertices * axes, sphere.triangles), path)
            meshes.append(read_off(path))
        _, report, residual = precond.solve(_spectral_only(precond.build(_system(meshes), meshes)))
        assert report.converged and residual <= 1e-8
        iterations.append(report.iterations)
    assert iterations[1] <= 1.3 * iterations[0]


def test_build_rejects_wrong_mesh_count(shells1):
    system, meshes, _ = shells1
    with pytest.raises(ValueError, match="one mesh per interface"):
        precond.build(system, meshes[:2])


def test_build_rejects_meshes_of_another_subdivision(shells1):
    # the Gram factors of a finer mesh used to fail inside numpy, on a
    # broadcast of 162 values into 42
    system, meshes, _ = shells1
    finer = [make_icosphere(2, r) for r in RADII]
    with pytest.raises(ValueError, match="interface 0 has 162 vertices and 320 triangles"):
        precond.build(system, finer)
    with pytest.raises(ValueError, match="interface 2 has 162 vertices"):
        precond.build(system, meshes[:2] + finer[2:])
    # the cell count is checked where the cell rows are kept
    open_mesh = TriangleMesh(meshes[0].vertices, meshes[0].triangles[:-1])
    with pytest.raises(ValueError, match="interface 0 has 42 vertices and 79 triangles"):
        precond.build(system, [open_mesh] + meshes[1:])


def test_solve_with_a_conducting_exterior_matches_layered_sphere_series():
    # the one model with a cell block on the outermost surface: no gauge is
    # deflated and the absolute potential is fixed by decay at infinity
    sigma = (1.0, 1.0 / 80.0, 1.0, 0.5)
    meshes = [make_icosphere(1, r) for r in RADII]
    system = _system(meshes, sigma)
    op = precond.build(system, meshes)
    assert op.dual_solvers[-1] is not None
    assert op.deflation.shape == (op.size, 0)
    x, report, residual = precond.solve(op)
    assert report.converged
    assert residual <= 1e-8
    v = x[system.layout.v_slice(len(meshes) - 1)]
    ref = layered_sphere_potential(SphereSpec(RADII, sigma), DIPOLE, meshes[-1].vertices)
    rdm = np.linalg.norm(v / np.linalg.norm(v) - ref / np.linalg.norm(ref))
    mag = np.linalg.norm(v) / np.linalg.norm(ref)
    assert rdm < 0.05
    assert abs(mag - 1.0) < 0.2


def test_solve_with_a_poorly_conducting_exterior_matches_layered_sphere_series():
    # sigma_ext = 0.1 left the spectral operator's recovered residual at
    # 1.5e-7 even after the rerun of CG; the coarse space removes the small
    # eigenvalues behind it
    sigma = (1.0, 1.0 / 80.0, 1.0, 0.1)
    meshes = [make_icosphere(1, r) for r in RADII]
    system = _system(meshes, sigma)
    x, report, residual = precond.solve(precond.build(system, meshes))
    assert report.converged
    assert residual <= 1e-8
    v = x[system.layout.v_slice(len(meshes) - 1)]
    ref = layered_sphere_potential(SphereSpec(RADII, sigma), DIPOLE, meshes[-1].vertices)
    rdm = np.linalg.norm(v / np.linalg.norm(v) - ref / np.linalg.norm(ref))
    mag = np.linalg.norm(v) / np.linalg.norm(ref)
    assert rdm < 0.05
    assert abs(mag - 1.0) < 0.2
