import numpy as np
import pytest

from scipy.linalg import eigh_tridiagonal

from symmbem import krylov
from symmbem.krylov import (
    BreakdownError,
    SolveReport,
    _as_matvec,
    conjugate_gradient,
    minres,
    symmetric_matvec,
)


def test_cg_identity_one_iteration():
    b = np.array([1.0, -2.0, 3.0])
    x, report = conjugate_gradient(np.eye(3), b, tol=1e-12)
    assert report.iterations == 1
    assert report.converged
    assert np.allclose(x, b)


def test_cg_diagonal_exact_termination():
    A = np.diag([1.0, 2.0, 3.0])
    x, report = conjugate_gradient(A, np.ones(3), tol=1e-12)
    assert report.iterations <= 3
    assert np.allclose(x, [1.0, 0.5, 1.0 / 3.0], atol=1e-12)


def test_cg_matches_dense_solve():
    rng = np.random.default_rng(42)
    m = rng.standard_normal((50, 50))
    A = m @ m.T + 50 * np.eye(50)
    b = rng.standard_normal(50)
    x, report = conjugate_gradient(A, b, tol=1e-12)
    assert report.converged
    assert np.linalg.norm(x - np.linalg.solve(A, b)) / np.linalg.norm(x) < 1e-8


def test_cg_residual_history_recorded_each_iteration():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((20, 20))
    A = m @ m.T + 20 * np.eye(20)
    _, report = conjugate_gradient(A, rng.standard_normal(20), tol=1e-10)
    assert len(report.residuals) == report.iterations
    assert report.residuals[-1] <= 1e-10


def test_cg_breakdown_on_indefinite():
    A = np.diag([1.0, -1.0])
    with pytest.raises(BreakdownError):
        conjugate_gradient(A, np.array([1.0, 1.0]), tol=1e-10)


def test_cg_breaks_down_at_step_1_on_a_nan_load():
    # the NaN curvature fails the positivity test at once, where CG used to
    # run to its 10 N cap and fail in the Ritz tridiagonal
    with pytest.raises(BreakdownError, match="= nan is not positive at iteration 1$"):
        conjugate_gradient(np.eye(3), np.array([np.nan, 1.0, 1.0]))


def _spd(n, seed):
    """A dense SPD matrix, eigenvalues 1e-3 to 1, and a load."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (q * np.geomspace(1e-3, 1.0, n)) @ q.T, rng.standard_normal(n)


def test_cg_stops_at_the_first_check_the_callers_residual_meets():
    # a caller residual 30 times the true one: the run checks it where the
    # recurrence crosses tol, then at each halving, until it meets tol
    a, b = _spd(80, 3)
    checks = []

    def residual(x):
        checks.append(30.0 * np.linalg.norm(b - a @ x) / np.linalg.norm(b))
        return checks[-1]

    _, report = conjugate_gradient(a, b, tol=1e-8, residual=residual)
    assert report.converged
    assert len(checks) >= 2
    assert all(c > 1e-8 for c in checks[:-1]) and checks[-1] <= 1e-8
    assert report.residuals[-1] == checks[-1]


def test_cg_ends_unconverged_when_the_callers_residual_stops_falling():
    # a residual that never falls used to run on until a breakdown; the
    # second check is not below the first, so the run ends there
    a, b = _spd(80, 4)
    checks = []

    def residual(x):
        checks.append(1.0)
        return 1.0

    _, report = conjugate_gradient(a, b, tol=1e-8, residual=residual)
    assert not report.converged
    assert len(checks) == 2
    assert report.residuals[-1] == 1.0
    assert report.iterations == len(report.residuals) < 10 * b.size


def test_cg_ritz_extremes_approximate_spectrum():
    A = np.diag([1.0, 4.0, 9.0, 16.0])
    _, report = conjugate_gradient(A, np.ones(4), tol=1e-14)
    assert abs(report.ritz_min - 1.0) < 1e-8
    assert abs(report.ritz_max - 16.0) < 1e-8


def _reference_ritz_extremes(alphas, betas):
    """The extreme Ritz values as CG once formed them at the end of every
    run, from its step lengths."""
    m = len(alphas)
    diag = np.empty(m)
    off = np.empty(max(m - 1, 0))
    diag[0] = 1.0 / alphas[0]
    for k in range(1, m):
        diag[k] = 1.0 / alphas[k] + betas[k - 1] / alphas[k - 1]
        off[k - 1] = np.sqrt(betas[k - 1]) / alphas[k - 1]
    vals = eigh_tridiagonal(diag, off, eigvals_only=True)
    return float(vals[0]), float(vals[-1])


def _reference_cg(A, b, tol):
    """The CG loop as it was before it ran in place: three fresh N-vectors
    per step and ``np.sqrt`` on the residual norm, and the extreme Ritz
    values formed at the end of the run.  Kept as the reference the
    in-place loop must reproduce bit for bit."""
    matvec = _as_matvec(A)
    norm_b = float(np.linalg.norm(b))
    x = np.zeros(b.size)
    r = b.copy()
    p = r.copy()
    rho = float(r @ r)
    history = []
    alphas, betas = [], []
    it = 0
    while it < 10 * b.size:
        q = matvec(p)
        alpha = rho / float(p @ q)
        x += alpha * p
        r -= alpha * q
        rho_new = float(r @ r)
        beta = rho_new / rho
        alphas.append(alpha)
        betas.append(beta)
        rho = rho_new
        it += 1
        rel = np.sqrt(rho) / norm_b
        history.append(rel)
        if rel <= tol:
            true_rel = float(np.linalg.norm(b - matvec(x))) / norm_b
            history[-1] = true_rel
            if true_rel <= tol:
                break
        p = r + beta * p
    return x, history, it, _reference_ritz_extremes(alphas, betas)


def _spread_spectrum_system():
    """A symmetric 300 x 300 matrix with eigenvalues from 1e-4 to 1 and a
    load: a few hundred CG steps, long enough for rounding to separate two
    loops that differ in any operation."""
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.standard_normal((300, 300)))
    a = (q * np.geomspace(1e-4, 1.0, 300)) @ q.T
    return np.tril(a) + np.tril(a, -1).T, rng.standard_normal(300)


def test_cg_in_place_loop_reproduces_the_allocating_loop_bit_for_bit():
    a, b = _spread_spectrum_system()
    x, report = conjugate_gradient(a, b, tol=1e-10)
    x_ref, history_ref, iterations_ref, _ = _reference_cg(a, b, tol=1e-10)
    assert report.converged
    assert report.iterations == iterations_ref > 100
    assert report.residuals == history_ref
    assert np.array_equal(x, x_ref)


def test_ritz_extremes_are_the_eager_values_formed_once_on_first_read(monkeypatch):
    a, b = _spread_spectrum_system()
    calls = []
    extremes = krylov._cg_ritz_extremes

    def counted(alphas, betas):
        calls.append(len(alphas))
        return extremes(alphas, betas)

    monkeypatch.setattr(krylov, "_cg_ritz_extremes", counted)
    _, report = conjugate_gradient(a, b, tol=1e-10)
    assert not calls  # a run that nobody asks for them forms none
    ritz = _reference_cg(a, b, tol=1e-10)[3]
    for _ in range(3):
        assert (report.ritz_min, report.ritz_max) == ritz
    assert calls == [report.iterations]


def test_a_report_without_steps_has_no_ritz_values():
    report = SolveReport(3, [1.0] * 3, False)
    assert report.ritz_min is None and report.ritz_max is None


def test_minres_indefinite_diagonal():
    A = np.diag([1.0, -1.0])
    x, report = minres(A, np.array([1.0, 1.0]), tol=1e-12)
    assert report.iterations <= 2
    assert np.allclose(x, [1.0, -1.0], atol=1e-10)


def test_minres_identity():
    x, report = minres(np.eye(4), np.ones(4), tol=1e-12)
    assert report.iterations == 1
    assert np.allclose(x, 1.0)


def test_minres_matches_dense_solve_indefinite():
    rng = np.random.default_rng(42)
    m = rng.standard_normal((50, 50))
    A = 0.5 * (m + m.T)  # symmetric indefinite
    b = rng.standard_normal(50)
    x, report = minres(A, b, tol=1e-10, maxit=2000)
    assert report.converged
    assert np.linalg.norm(x - np.linalg.solve(A, b)) / np.linalg.norm(x) < 1e-8


def test_minres_maxit_exhaustion_reports_not_converged():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((40, 40))
    A = 0.5 * (m + m.T)
    _, report = minres(A, rng.standard_normal(40), tol=1e-14, maxit=3)
    assert report.iterations == 3
    assert not report.converged


def test_solvers_deterministic():
    rng = np.random.default_rng(9)
    m = rng.standard_normal((30, 30))
    A = m @ m.T + 30 * np.eye(30)
    b = rng.standard_normal(30)
    x1, r1 = conjugate_gradient(A, b, tol=1e-10)
    x2, r2 = conjugate_gradient(A, b, tol=1e-10)
    assert np.array_equal(x1, x2)
    assert r1.iterations == r2.iterations


def _symmetric(a):
    """``a`` with its lower triangle mirrored onto the upper, exactly symmetric."""
    return np.tril(a) + np.tril(a, -1).T


@pytest.mark.parametrize("solver", [conjugate_gradient, minres])
def test_dense_array_takes_the_symmetric_product(solver):
    # eigenvalues of modulus 1 to 2, both signs for MINRES: well conditioned,
    # so both paths converge to the same solution well below 1e-12
    rng = np.random.default_rng(11)
    q, _ = np.linalg.qr(rng.standard_normal((60, 60)))
    d = np.linspace(1.0, 2.0, 60)
    if solver is minres:
        d[::2] *= -1.0
    a = _symmetric((q * d) @ q.T)
    b = rng.standard_normal(60)
    x, report = solver(a, b, tol=1e-14)
    x_call, report_call = solver(lambda v: a @ v, b, tol=1e-14)
    assert report.converged and report_call.converged
    assert np.linalg.norm(x - x_call) <= 1e-12 * np.linalg.norm(x_call)
    # only one triangle of the array is read
    v = rng.standard_normal(60)
    assert np.array_equal(symmetric_matvec(np.tril(a), v), symmetric_matvec(a, v))
    assert np.linalg.norm(symmetric_matvec(a, v) - a @ v) <= 1e-14 * np.linalg.norm(a @ v)


def test_block_products_read_the_triangle_that_vector_products_read():
    # one array holding two symmetric matrices, one on and below the
    # diagonal, the other strictly above it with the first one's diagonal
    rng = np.random.default_rng(12)
    a = rng.standard_normal((40, 40))
    x = rng.standard_normal((40, 3))
    for upper, stored in ((False, np.tril(a)), (True, np.triu(a))):
        full = stored + stored.T - np.diag(np.diag(a))
        block = symmetric_matvec(a, x, upper)
        columns = np.column_stack([symmetric_matvec(a, c, upper) for c in x.T])
        assert block.flags.c_contiguous
        assert np.linalg.norm(block - columns) <= 1e-14 * np.linalg.norm(columns)
        assert np.linalg.norm(block - full @ x) <= 1e-14 * np.linalg.norm(full @ x)
        assert np.array_equal(symmetric_matvec(stored, x, upper), block)
