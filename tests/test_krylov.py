import numpy as np
import pytest

from symmbem.krylov import (
    BreakdownError,
    conjugate_gradient,
    minres,
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
    x, report = conjugate_gradient(A, b, tol=1e-12, maxit=500)
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


def test_cg_ritz_extremes_approximate_spectrum():
    A = np.diag([1.0, 4.0, 9.0, 16.0])
    _, report = conjugate_gradient(A, np.ones(4), tol=1e-14)
    assert abs(report.ritz_min - 1.0) < 1e-8
    assert abs(report.ritz_max - 16.0) < 1e-8


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
