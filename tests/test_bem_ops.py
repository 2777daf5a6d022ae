import numpy as np
import pytest

from symmbem.bem_ops import (
    QuadratureConfig,
    _thread_count,
    assemble_adjoint_double_layer,
    assemble_double_layer,
    assemble_hypersingular,
    assemble_operators,
    assemble_single_layer,
    read_block,
    write_block,
)
from symmbem.geometry import TriangleMesh, make_icosphere
from symmbem.oracle import (
    sphere_double_layer_eigenvalue,
    sphere_hypersingular_eigenvalue,
    sphere_operator_eigenvalue,
    sphere_single_layer_eigenvalue,
)
from symmbem.spaces import Kind, gram_p0, patch_space, pyramid_space
from oracles import galerkin_single_layer_entry

FOUR_PI = 4.0 * np.pi


@pytest.fixture(scope="module")
def sphere2():
    return make_icosphere(2, 1.0)


@pytest.fixture(scope="module")
def sphere2_ops(sphere2):
    return assemble_operators(sphere2, sphere2)


@pytest.fixture(scope="module")
def sphere3():
    return make_icosphere(3, 1.0)


@pytest.fixture(scope="module")
def sphere3_ops(sphere3):
    return assemble_operators(sphere3, sphere3)


def test_coincident_self_term_matches_adaptive_oracle():
    # Value frozen from the regularizing transform at orders 16/20 (stable
    # to 5e-15) and cross-checked against the analytic-inner adaptive
    # oracle.  The assembly path must reproduce it at elevated transform
    # order; the design default (order 4) is pinned at its own accuracy.
    tri = TriangleMesh(
        np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0]]), np.array([[0, 1, 2]])
    )
    reference = 0.07982144690425
    high = assemble_single_layer(
        patch_space(tri), patch_space(tri), QuadratureConfig(singular_order=12)
    ).matrix[0, 0]
    assert high > 0
    assert abs(high - reference) < 1e-8
    default = assemble_single_layer(patch_space(tri), patch_space(tri)).matrix[0, 0]
    assert abs(default - reference) / reference < 5e-4


def test_single_layer_far_field_limit():
    a = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0]])
    offset = np.array([40.0, 3.0, 5.0])  # ~ 28 diameters away
    verts = np.concatenate([a, a * 0.8 + offset])
    mesh_t = TriangleMesh(verts[:3], np.array([[0, 1, 2]]))
    mesh_s = TriangleMesh(verts[3:], np.array([[0, 1, 2]]))
    block = assemble_single_layer(patch_space(mesh_t), patch_space(mesh_s))
    r = np.linalg.norm(mesh_t.centroids[0] - mesh_s.centroids[0])
    expect = mesh_t.areas[0] * mesh_s.areas[0] / (FOUR_PI * r)
    assert abs(block.matrix[0, 0] - expect) / expect < 0.01


def test_single_layer_edge_pair_against_oracle():
    verts = np.array(
        [[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0], [0.3, -0.8, 0.2]]
    )
    mesh = TriangleMesh(verts, np.array([[0, 1, 2], [1, 0, 3]]))
    block = assemble_single_layer(
        patch_space(mesh), patch_space(mesh), QuadratureConfig(singular_order=12)
    )
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
    block = assemble_double_layer(patch_space(mesh_t), pyramid_space(mesh_s))
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


def test_adjoint_double_layer_individual_op_matches_transpose(sphere2):
    # the standalone operations run the same shared sweep
    d = assemble_double_layer(patch_space(sphere2), pyramid_space(sphere2))
    ds = assemble_adjoint_double_layer(pyramid_space(sphere2), patch_space(sphere2))
    assert np.abs(ds.matrix - d.matrix.T).max() <= 1e-13 * np.abs(d.matrix).max()


def test_adjoint_double_layer_far_field_limit():
    a = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0]])
    offset = np.array([40.0, 3.0, 5.0])
    mesh_t = TriangleMesh(a, np.array([[0, 1, 2]]))
    mesh_s = TriangleMesh(a * 0.8 + offset, np.array([[0, 1, 2]]))
    block = assemble_adjoint_double_layer(pyramid_space(mesh_t), patch_space(mesh_s))
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
    ops = assemble_operators(inner, outer, target_index=0, source_index=1)
    for tag, block in ops.items():
        assert np.all(np.isfinite(block.matrix)), tag
        assert block.target == 0 and block.source == 1
    # smooth kernels: single-layer entries all strictly positive
    assert ops["S"].matrix.min() > 0


def test_block_dump_roundtrip(tmp_path, sphere2_ops):
    block = sphere2_ops["D"]
    path = tmp_path / "block.bin"
    write_block(block, path)
    back = read_block(path)
    assert back.tag == "D"
    assert back.row_kind is Kind.PATCH and back.col_kind is Kind.PYRAMID
    assert back.target == block.target and back.source == block.source
    assert np.array_equal(back.matrix, block.matrix)


def test_kind_validation():
    mesh = make_icosphere(0, 1.0)
    with pytest.raises(ValueError):
        assemble_single_layer(pyramid_space(mesh), patch_space(mesh))
    with pytest.raises(ValueError):
        assemble_hypersingular(patch_space(mesh), patch_space(mesh))


def test_threads_env_does_not_change_results(sphere2, monkeypatch):
    monkeypatch.setenv("SYMMBEM_THREADS", "1")
    one = assemble_single_layer(patch_space(sphere2), patch_space(sphere2)).matrix
    monkeypatch.setenv("SYMMBEM_THREADS", "4")
    four = assemble_single_layer(patch_space(sphere2), patch_space(sphere2)).matrix
    assert np.array_equal(one, four)


def test_threads_env_must_be_positive_integer(monkeypatch):
    monkeypatch.setenv("SYMMBEM_THREADS", " 3 ")
    assert _thread_count() == 3
    for value in ("abc", "0", "-3", "2.5"):
        monkeypatch.setenv("SYMMBEM_THREADS", value)
        with pytest.raises(ValueError, match="SYMMBEM_THREADS"):
            _thread_count()
