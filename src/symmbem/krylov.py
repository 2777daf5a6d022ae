"""Iterative solvers for symmetric operators.

CG's report also gives the extreme Ritz values of its Lanczos tridiagonal,
an estimate of the operator's extreme eigenvalues, computed when first
read.  All routines accept either a dense symmetric matrix or a callable
``x -> A @ x``; a dense matrix is multiplied with
:func:`symmetric_matvec`, which reads it on and below the diagonal.  Dot
products use numpy's sequential reductions, so iteration counts are
reproducible run to run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.blas import dsymm, dsymv


class BreakdownError(RuntimeError):
    """Raised when CG meets nonpositive or NaN curvature: the operator is not PSD."""


@dataclass
class SolveReport:
    """Convergence record of one Krylov solve.

    CG also keeps its step lengths ``alphas`` and ``betas``, the Lanczos
    tridiagonal in another form; :attr:`ritz_min` and :attr:`ritz_max`,
    its extreme eigenvalues, are computed from them at the first read of
    either and kept.  Without steps, as from MINRES, both are ``None``.
    """

    iterations: int
    residuals: list[float] = field(default_factory=list)
    converged: bool = False
    alphas: list[float] = field(default_factory=list, repr=False)
    betas: list[float] = field(default_factory=list, repr=False)

    @cached_property
    def _ritz_extremes(self) -> tuple[float | None, float | None]:
        return _cg_ritz_extremes(self.alphas, self.betas)

    @property
    def ritz_min(self) -> float | None:
        return self._ritz_extremes[0]

    @property
    def ritz_max(self) -> float | None:
        return self._ritz_extremes[1]


def symmetric_matvec(matrix: np.ndarray, x: np.ndarray, upper: bool = False) -> np.ndarray:
    """``S @ x`` for the symmetric matrix S that the C-ordered float64 array
    ``matrix`` holds on and below its diagonal, or with ``upper`` on and
    above it.  The other strict triangle is never read and may hold
    anything else.

    BLAS receives ``matrix.T``, the Fortran-ordered view of the array,
    without a copy (the array itself would be copied on every call); the
    view's upper triangle is the array's lower one.  A vector takes one
    ``dsymv``.  A 2-D ``x`` is a block of columns and takes one ``dsymm``,
    which streams the array once for the whole block and returns a
    C-ordered array.
    """
    lower = int(upper)
    if x.ndim == 2:
        return dsymm(1.0, matrix.T, x.T, side=1, lower=lower).T
    return dsymv(1.0, matrix.T, x, lower=lower)


def _as_matvec(A):
    """A callable as given; a dense array as the symmetric matrix on and
    below its diagonal, as :func:`symmetric_matvec`."""
    if callable(A):
        return A
    return partial(symmetric_matvec, np.ascontiguousarray(A, dtype=float))


def conjugate_gradient(A, b, tol: float = 1e-8, residual=None):
    """Conjugate gradients for a symmetric positive semi-definite operator.

    Returns ``(x, SolveReport)`` with the relative residual recorded at
    every iteration and the step lengths, from which the report gives the
    extreme Ritz values of the underlying Lanczos tridiagonal.  Nonpositive
    or NaN curvature raises :class:`BreakdownError`, which falsifies the
    PSD assumption rather than being a solver failure.

    The run stops on the caller's ``residual(x)``, ``|b - A x| / |b|`` by
    default (Arioli, Numer. Math. 2004), within 10 N steps.  It is checked,
    and recorded as the history's last entry, when the recurrence residual
    falls to a threshold: first ``tol``, then half the recurrence residual
    of each check above ``tol``, so about log2 g checks for a residual a
    factor g above the recurrence's.  A check not below the previous one
    ends the run unconverged.
    """
    matvec = _as_matvec(A)
    b = np.asarray(b, dtype=float)
    n = b.size
    norm_b = float(np.linalg.norm(b))
    if norm_b == 0.0:
        return np.zeros(n), SolveReport(0, [], True)
    if residual is None:
        def residual(x):
            return float(np.linalg.norm(b - matvec(x))) / norm_b

    x = np.zeros(n)
    r = b.copy()
    p = r.copy()
    work = np.empty(n)
    rho = float(r @ r)
    alphas: list[float] = []
    betas: list[float] = []
    history: list[float] = []
    threshold, checked = tol, math.inf
    converged = False
    it = 0
    while it < 10 * n:
        q = matvec(p)
        curvature = float(p @ q)
        if not curvature > 0.0:  # also a NaN from a non-finite operator or load
            raise BreakdownError(
                f"curvature p'Ap = {curvature:.3e} is not positive at iteration {it + 1}"
            )
        alpha = rho / curvature
        x += np.multiply(alpha, p, out=work)
        r -= np.multiply(alpha, q, out=work)
        rho_new = float(r @ r)
        beta = rho_new / rho
        alphas.append(alpha)
        betas.append(beta)
        rho = rho_new
        it += 1
        rel = math.sqrt(rho) / norm_b
        history.append(rel)
        if rel <= threshold:
            history[-1] = check = residual(x)
            converged = check <= tol
            if converged or not check < checked:
                break
            threshold, checked = rel / 2, check
        p *= beta
        p += r

    return x, SolveReport(it, history, converged, alphas, betas)


def _cg_ritz_extremes(alphas, betas):
    """Extreme eigenvalues of the Lanczos tridiagonal implied by CG."""
    m = len(alphas)
    if m == 0:
        return None, None
    diag = np.empty(m)
    off = np.empty(max(m - 1, 0))
    diag[0] = 1.0 / alphas[0]
    for k in range(1, m):
        diag[k] = 1.0 / alphas[k] + betas[k - 1] / alphas[k - 1]
        off[k - 1] = np.sqrt(betas[k - 1]) / alphas[k - 1]
    if m == 1:
        return float(diag[0]), float(diag[0])
    vals = eigh_tridiagonal(diag, off, eigvals_only=True)
    return float(vals[0]), float(vals[-1])


def minres(A, b, tol: float = 1e-8, maxit: int | None = None):
    """Minimal-residual iteration for a symmetric (possibly indefinite) operator."""
    matvec = _as_matvec(A)
    b = np.asarray(b, dtype=float)
    n = b.size
    if maxit is None:
        maxit = 10 * n
    norm_b = float(np.linalg.norm(b))
    if norm_b == 0.0:
        return np.zeros(n), SolveReport(0, [], True)

    x = np.zeros(n)
    v_old = np.zeros(n)
    v = b / norm_b
    beta = norm_b
    eta = norm_b
    c_old = c = 1.0
    s_old = s = 0.0
    w = np.zeros(n)
    w_old = np.zeros(n)
    history: list[float] = []
    converged = False
    it = 0
    while it < maxit:
        q = matvec(v)
        alpha = float(v @ q)
        q = q - alpha * v - beta * v_old
        beta_new = float(np.linalg.norm(q))

        # Givens QR update of the Lanczos tridiagonal
        delta = c * alpha - c_old * s * beta
        rho1 = np.hypot(delta, beta_new)
        rho2 = s * alpha + c_old * c * beta
        rho3 = s_old * beta
        if rho1 == 0.0:
            break
        c_new = delta / rho1
        s_new = beta_new / rho1

        w_new = (v - rho3 * w_old - rho2 * w) / rho1
        x = x + (c_new * eta) * w_new
        eta = -s_new * eta

        it += 1
        rel = abs(eta) / norm_b
        history.append(rel)
        if rel <= tol:
            true_rel = float(np.linalg.norm(b - matvec(x))) / norm_b
            history[-1] = true_rel
            if true_rel <= tol:
                converged = True
                break
        if beta_new == 0.0:  # invariant subspace reached
            true_rel = float(np.linalg.norm(b - matvec(x))) / norm_b
            history[-1] = true_rel
            converged = true_rel <= tol
            break

        v_old, v = v, q / beta_new
        w_old, w = w, w_new
        c_old, c = c, c_new
        s_old, s = s, s_new
        beta = beta_new

    return x, SolveReport(it, history, converged)
