import numpy as np
import scipy.linalg
import scipy.sparse as sp

from symmbem.bem_ops import curl_coefficient_matrices
from symmbem.geometry import TriangleMesh, make_icosphere
from symmbem.laplacians import dual_laplacian, primal_laplace_beltrami
from symmbem.oracle import sphere_laplace_beltrami_eigenvalue
from symmbem.spaces import gram_p1, pyramid_space


def test_right_angle_edge_weight_vanishes():
    # unit square split along the diagonal: both opposite angles are 90 deg
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]])
    mesh = TriangleMesh(verts, np.array([[0, 1, 2], [0, 2, 3]]))
    lap = primal_laplace_beltrami(mesh).toarray()
    assert abs(lap[0, 2]) < 1e-14


def test_primal_row_sums_vanish():
    mesh = make_icosphere(2, 1.0)
    lap = primal_laplace_beltrami(mesh)
    rows = np.asarray(lap.sum(axis=1)).ravel()
    assert np.abs(rows).max() < 1e-12


def test_primal_symmetric_psd_with_constant_kernel():
    mesh = make_icosphere(1, 1.0)
    lap = primal_laplace_beltrami(mesh).toarray()
    assert np.abs(lap - lap.T).max() == 0.0
    vals = np.linalg.eigvalsh(lap)
    assert vals[0] > -1e-12 * vals[-1]
    assert vals[1] > 1e-8  # one-dimensional kernel only


def test_primal_sphere_spectrum():
    mesh = make_icosphere(3, 1.0)
    lap = primal_laplace_beltrami(mesh).toarray()
    gram = gram_p1(pyramid_space(mesh)).toarray()
    vals = scipy.linalg.eigh(lap, gram, eigvals_only=True)
    lowest_nonzero = vals[1]
    expect = sphere_laplace_beltrami_eigenvalue(1)
    assert abs(lowest_nonzero - expect) / expect < 0.02


def test_primal_is_the_curl_gram_of_the_hat_functions():
    # grad and curl of a hat differ by a quarter turn in the cell plane, so
    # sum_k C_k^T diag(A) C_k is the stiffness matrix as well
    mesh = make_icosphere(2, 1.0)
    curls = curl_coefficient_matrices(mesh)
    gram = sum(c.T @ sp.diags(mesh.areas) @ c for c in curls).toarray()
    lap = primal_laplace_beltrami(mesh).toarray()
    assert np.abs(gram - lap).max() <= 1e-14 * np.abs(lap).max()


def test_dual_row_sums_vanish():
    mesh = make_icosphere(1, 1.0)
    lap = dual_laplacian(mesh)
    rows = np.asarray(lap.sum(axis=1)).ravel()
    assert np.abs(rows).max() < 1e-12 * np.abs(lap.data).max()


def test_dual_psd():
    mesh = make_icosphere(2, 1.0)
    lap = dual_laplacian(mesh).toarray()
    assert np.abs(lap - lap.T).max() == 0.0
    vals = np.linalg.eigvalsh(lap)
    assert vals[0] >= -1e-10 * vals[-1]


def _dual_degree_errors(subdiv):
    """Worst relative error against l(l+1) of each degree block l = 1..4."""
    mesh = make_icosphere(subdiv, 1.0)
    lap = dual_laplacian(mesh).toarray()
    # generalized eigenvalues against the patch Gram diag(areas)
    s = 1.0 / np.sqrt(mesh.areas)
    vals = np.sort(np.linalg.eigvalsh(s[:, None] * lap * s[None, :]))
    # modes: l=0 (1), l=1 (3), l=2 (5), l=3 (7), l=4 (9)
    errors = []
    idx = 1
    for l in range(1, 5):
        block = vals[idx : idx + 2 * l + 1]
        expect = sphere_laplace_beltrami_eigenvalue(l)
        errors.append(np.abs(block - expect).max() / expect)
        idx += 2 * l + 1
    return np.array(errors)


def test_dual_sphere_spectral_slope():
    # generalized eigenvalues of the two-point-flux Laplacian against the
    # patch Gram approximate l(l+1) degree by degree. A log-log slope over
    # l = 1..4 is no check: the exact spectrum itself has slope 1.657 there,
    # and any constant multiple of the operator has the same slope. Every
    # eigenvalue of degrees 1..4 is compared instead. The bound 0.08 sits
    # above the measured worst errors at subdivisions 2 and 3 (2.6% and
    # 2.0%). A two-point flux on centroids is not a consistent scheme on the
    # icosphere, so the errors do not all shrink: l = 3 reads 2.26, 1.88 and
    # 1.96% at subdivisions 1, 2, 3. Degrees 1 and 2 still shrink at least
    # twofold per subdivision (11.0, 2.6, 0.51% and 7.5, 1.8, 0.29%).
    errors = [_dual_degree_errors(k) for k in (1, 2, 3)]
    for coarse, fine in zip(errors, errors[1:]):
        assert fine.max() < 0.08
        assert np.all(coarse[:2] >= 2.0 * fine[:2])
