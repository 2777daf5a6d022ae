"""Analytic references: dipole potentials, layered-sphere series, sphere spectra.

Conventions.  The free-space potential of a current dipole (moment q at
r0) in a uniform conductor sigma is ``q . (r - r0) / (4 pi sigma |r - r0|^3)``.
On the unit sphere the Gram-normalized Galerkin eigenvalues at
spherical-harmonic degree l are ``1/(2l+1)`` for the single layer,
``-1/(2(2l+1))`` for both double layers (principal value, outward normal),
``l(l+1)/(2l+1)`` for the hypersingular form assembled here (positive,
integration-by-parts convention) and ``l(l+1)`` for the surface Laplacian.

The series carry the associated Legendre functions from one degree to the
next by their three-term recurrence, one step per degree, in numpy only.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, islice
from math import ceil, factorial, log

import numpy as np

from .formulation import DipoleSource
from .geometry import TriangleMesh
from .spaces import Kind, gram_p0, gram_p1, mixed_gram_p0_p1, patch_space, pyramid_space

FOUR_PI = 4.0 * np.pi


def _degree_cap(eccentricity: float, rtol: float) -> int:
    """Degree by which a series whose terms fall like ``l e^l`` in the
    source's eccentricity e has converged to ``rtol``: ten past the degree
    where ``e^l`` reaches ``rtol^2``, so that ``l e^l < rtol / 10`` there for
    any degree below ``1 / (10 rtol)``.  A centred source (e = 0) stops
    within the ten."""
    return 10 + (ceil(2.0 * log(rtol) / log(eccentricity)) if eccentricity > 0 else 0)


def dipole_unbounded(q, r0, sigma: float, r) -> np.ndarray | float:
    """Free-space dipole potential q.(r-r0)/(4 pi sigma |r-r0|^3)."""
    q = np.asarray(q, dtype=float)
    r0 = np.asarray(r0, dtype=float)
    pts = np.atleast_2d(np.asarray(r, dtype=float))
    d = pts - r0
    dist = np.linalg.norm(d, axis=1)
    if np.any(dist == 0):
        raise ValueError("evaluation at the source point")
    vals = (d @ q) / (FOUR_PI * sigma * dist**3)
    return vals if np.asarray(r).ndim == 2 else float(vals[0])


@dataclass(frozen=True)
class SphereSpec:
    """Concentric-sphere conductor: increasing radii, one conductivity per
    shell plus the exterior value (0 = insulating)."""

    radii: tuple
    conductivities: tuple

    def __post_init__(self):
        radii = tuple(float(r) for r in self.radii)
        cond = tuple(float(s) for s in self.conductivities)
        if len(cond) != len(radii) + 1:
            raise ValueError("need one conductivity per shell plus the exterior")
        if any(r2 <= r1 for r1, r2 in zip(radii, radii[1:])) or radii[0] <= 0:
            raise ValueError("radii must be positive and strictly increasing")
        if any(s <= 0 for s in cond[:-1]) or cond[-1] < 0:
            raise ValueError("shell conductivities must be positive")
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "conductivities", cond)


def _associated_legendre(x, max_order: int):
    """Yield, for l = 0, 1, 2, ..., the associated Legendre functions
    ``P_l^m(x)`` without the Condon-Shortley phase, row m of a
    (min(l, max_order) + 1, len(x)) array for the orders m <= l, max_order.

    Each degree takes one step of the upward recurrence at fixed order,
    ``(l+1-m) P_{l+1}^m = (2l+1) x P_l^m - (l+m) P_{l-1}^m`` (with
    ``P_{l-1}^l = 0``), and opens order l + 1 with
    ``P_{l+1}^{l+1} = (2l+1) sqrt(1-x^2) P_l^l``."""
    x = np.asarray(x, dtype=float)
    sine = np.sqrt((1.0 - x) * (1.0 + x))
    prev, cur = np.zeros((0, len(x))), np.ones((1, len(x)))
    for l in count():
        yield cur
        k = len(cur)
        m = np.arange(k)[:, None]
        nxt = np.empty((min(l + 1, max_order) + 1, len(x)))
        nxt[:k] = (2 * l + 1) * x * cur
        nxt[: len(prev)] -= (l + m[: len(prev)]) * prev
        nxt[:k] /= l + 1 - m
        if k < len(nxt):
            nxt[k] = (2 * l + 1) * sine * cur[l]
        prev, cur = cur, nxt


def _canonical_frame(position, moment):
    """Rotate so the dipole sits on the +z axis with tangential moment along +x.

    Returns ``(z0, q_radial, q_tangential, rotation)`` where canonical
    coordinates of a point x are ``rotation @ x``.
    """
    position = np.asarray(position, dtype=float)
    moment = np.asarray(moment, dtype=float)
    z0 = float(np.linalg.norm(position))
    ez = position / z0 if z0 > 0 else np.array([0.0, 0.0, 1.0])
    q_r = float(moment @ ez)
    tang = moment - q_r * ez
    q_t = float(np.linalg.norm(tang))
    if q_t > 1e-14 * max(float(np.linalg.norm(moment)), 1.0):
        ex = tang / q_t
    else:
        q_t = 0.0
        trial = np.array([1.0, 0.0, 0.0])
        if abs(float(trial @ ez)) > 0.9:
            trial = np.array([0.0, 1.0, 0.0])
        ex = trial - (trial @ ez) * ez
        ex /= np.linalg.norm(ex)
    ey = np.cross(ez, ex)
    return z0, q_r, q_t, np.stack([ex, ey, ez])


def _outer_response(spec: SphereSpec, l: int) -> float:
    """Potential on the outermost sphere for the unit source profile
    ``(r_1 / rho)^(l+1)`` placed in the innermost shell.

    Each shell uses the scaled bases ``(rho/r_j)^l`` and
    ``(r_{j-1}/rho)^(l+1)`` so every matrix entry is O(1) at any degree and
    conductivity contrast; the per-degree system is solved directly.
    """
    radii = spec.radii
    cond = spec.conductivities
    n = len(radii)
    insulating = cond[-1] == 0.0

    n_unknown = (2 * n - 1) + (0 if insulating else 1)

    def ia(j):  # growing-solution coefficient of shell j (1-based)
        return 0 if j == 1 else 2 * j - 3

    def ib(j):  # decaying-solution coefficient of shell j >= 2
        return 2 * j - 2

    iext = n_unknown - 1  # exterior coefficient when conducting

    def shell_values(j, rho):
        """(u, u', w, w') of shell j's scaled bases at radius rho."""
        u = (rho / radii[j - 1]) ** l
        du = l / rho * u
        if j == 1:
            return u, du, 0.0, 0.0
        w = (radii[j - 2] / rho) ** (l + 1)
        dw = -(l + 1) / rho * w
        return u, du, w, dw

    def source_values(rho):
        s = (radii[0] / rho) ** (l + 1)
        return s, -(l + 1) / rho * s

    A = np.zeros((n_unknown, n_unknown))
    rhs = np.zeros(n_unknown)
    row = 0
    for j in range(1, n):  # interface between shells j and j+1 at radius r_j
        r = radii[j - 1]
        u, du, w, dw = shell_values(j, r)
        u1, du1, w1, dw1 = shell_values(j + 1, r)
        # potential continuity
        A[row, ia(j)] = u
        if j > 1:
            A[row, ib(j)] = w
        A[row, ia(j + 1)] = -u1
        A[row, ib(j + 1)] = -w1
        if j == 1:
            s, _ = source_values(r)
            rhs[row] = -s
        row += 1
        # radial-current continuity
        A[row, ia(j)] = cond[j - 1] * du
        if j > 1:
            A[row, ib(j)] = cond[j - 1] * dw
        A[row, ia(j + 1)] = -cond[j] * du1
        A[row, ib(j + 1)] = -cond[j] * dw1
        if j == 1:
            _, ds = source_values(r)
            rhs[row] = -cond[0] * ds
        row += 1

    r = radii[-1]
    u, du, w, dw = shell_values(n, r)
    s, ds = source_values(r) if n == 1 else (0.0, 0.0)
    if insulating:
        A[row, ia(n)] = du
        if n > 1:
            A[row, ib(n)] = dw
        rhs[row] = -ds
    else:
        # exterior basis (r_n / rho)^(l+1): value 1, derivative -(l+1)/r
        A[row, ia(n)] = u
        if n > 1:
            A[row, ib(n)] = w
        A[row, iext] = -1.0
        rhs[row] = -s
        row += 1
        A[row, ia(n)] = cond[n - 1] * du
        if n > 1:
            A[row, ib(n)] = cond[n - 1] * dw
        A[row, iext] = -cond[n] * (-(l + 1) / r)
        rhs[row] = -cond[n - 1] * ds

    coeffs = np.linalg.solve(A, rhs)
    value = coeffs[ia(n)] * u + s
    if n > 1:
        value += coeffs[ib(n)] * w
    return float(value)


def _source_coefficients(l: int, z0: float, r1: float, q_r: float, q_t: float, sigma: float):
    """Coefficients of the ``(r_1/rho)^(l+1)`` source profile per degree, for
    the zonal (radial moment) and order-one (tangential moment) parts."""
    zpow = 1.0 if l == 1 else (z0 / r1) ** (l - 1)
    base = zpow / (r1 * r1 * FOUR_PI * sigma)
    return q_r * l * base, q_t * base


def layered_sphere_potential(
    spec: SphereSpec,
    dipole: DipoleSource,
    points,
    rtol: float = 1e-10,
) -> np.ndarray:
    """Series potential on the outermost sphere of a layered conductor.

    The dipole must lie strictly inside the innermost sphere.  Truncation:
    the series stops once a degree's contribution falls below ``rtol``
    relative to the largest magnitude seen, which the geometric decay in
    (eccentricity / r_1) guarantees by :func:`_degree_cap`; a series still
    running there raises ``RuntimeError``.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    r_out = spec.radii[-1]
    if np.any(np.abs(np.linalg.norm(pts, axis=1) - r_out) > 1e-6 * r_out):
        raise ValueError("evaluation points must lie on the outermost sphere")
    z0, q_r, q_t, rot = _canonical_frame(dipole.position, dipole.moment)
    if z0 >= spec.radii[0]:
        raise ValueError("dipole must lie strictly inside the innermost sphere")

    local = pts @ rot.T
    cos_theta = np.clip(local[:, 2] / r_out, -1.0, 1.0)
    phi = np.arctan2(local[:, 1], local[:, 0])
    sigma1 = spec.conductivities[0]

    total = np.zeros(len(pts))
    running_max = 0.0
    small_streak = 0
    legendre = islice(_associated_legendre(cos_theta, 1), 1, None)
    cap = _degree_cap(z0 / spec.radii[0], rtol)
    for l, (p0, p1) in zip(range(1, cap + 1), legendre):
        s_rad, s_tan = _source_coefficients(l, z0, spec.radii[0], q_r, q_t, sigma1)
        if s_rad == 0.0 and s_tan == 0.0:
            if z0 == 0.0 and l > 1:
                return total
            continue
        response = _outer_response(spec, l)
        term = np.zeros(len(pts))
        if s_rad != 0.0:
            term += (s_rad * response) * p0
        if s_tan != 0.0:
            term += (s_tan * response) * p1 * np.cos(phi)
        total += term
        running_max = max(running_max, float(np.max(np.abs(total))))
        if running_max > 0 and float(np.max(np.abs(term))) < rtol * running_max:
            small_streak += 1
            if small_streak >= 2 and l > 2:
                return total
        else:
            small_streak = 0
    raise RuntimeError(
        f"layered-sphere series did not converge within {cap} degrees "
        "(dipole too close to an interface?)"
    )


def single_sphere_insulated_potential(
    radius: float, sigma: float, dipole: DipoleSource, points, rtol: float = 1e-12
) -> np.ndarray:
    """Closed-form series for one insulated sphere: per-degree gain (2l+1)/l
    on the free-space coefficients.  Independent of the layered transfer
    solve; pins its degenerate (contrast-one) case.  The points must lie on
    the sphere, and the series stops as :func:`layered_sphere_potential`'s
    does."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if np.any(np.abs(np.linalg.norm(pts, axis=1) - radius) > 1e-6 * radius):
        raise ValueError("evaluation points must lie on the sphere")
    z0, q_r, q_t, rot = _canonical_frame(dipole.position, dipole.moment)
    if z0 >= radius:
        raise ValueError("dipole must be inside the sphere")
    local = pts @ rot.T
    cos_theta = np.clip(local[:, 2] / radius, -1.0, 1.0)
    phi = np.arctan2(local[:, 1], local[:, 0])
    total = np.zeros(len(pts))
    running_max = 0.0
    small_streak = 0
    legendre = islice(_associated_legendre(cos_theta, 1), 1, None)
    cap = _degree_cap(z0 / radius, rtol)
    for l, (p0, p1) in zip(range(1, cap + 1), legendre):
        s_rad, s_tan = _source_coefficients(l, z0, radius, q_r, q_t, sigma)
        gain = (2 * l + 1) / l
        term = (s_rad * gain) * p0
        if s_tan != 0.0:
            term = term + (s_tan * gain) * p1 * np.cos(phi)
        total += term
        if z0 == 0.0:
            return total
        running_max = max(running_max, float(np.max(np.abs(total))))
        if running_max > 0 and float(np.max(np.abs(term))) < rtol * running_max:
            small_streak += 1
            if small_streak >= 2 and l > 2:
                return total
        else:
            small_streak = 0
    raise RuntimeError(f"single-sphere series did not converge within {cap} degrees")


def sphere_single_layer_eigenvalue(l: int) -> float:
    return 1.0 / (2 * l + 1)


def sphere_double_layer_eigenvalue(l: int) -> float:
    return -1.0 / (2 * (2 * l + 1))


def sphere_hypersingular_eigenvalue(l: int) -> float:
    return l * (l + 1) / (2 * l + 1)


def sphere_laplace_beltrami_eigenvalue(l: int) -> float:
    return float(l * (l + 1))


def real_spherical_harmonics(l: int, points) -> np.ndarray:
    """Real orthonormal spherical harmonics of degree l sampled at the given
    directions; returns an array of shape (2l+1, n_points)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    r = np.linalg.norm(pts, axis=1)
    unit = pts / r[:, None]
    ct = np.clip(unit[:, 2], -1.0, 1.0)
    phi = np.arctan2(unit[:, 1], unit[:, 0])
    orders = next(islice(_associated_legendre(ct, l), l, None))
    rows = []
    for m, plm in enumerate(orders):
        norm = np.sqrt((2 * l + 1) / (4 * np.pi) * factorial(l - m) / factorial(l + m))
        if m == 0:
            rows.append(norm * plm)
        else:
            rows.append(np.sqrt(2.0) * norm * plm * np.cos(m * phi))
            rows.append(np.sqrt(2.0) * norm * plm * np.sin(m * phi))
    return np.stack(rows)


#: The spaces of the rows and columns of each operator block, by tag.
_BLOCK_KINDS = {"S": (Kind.PATCH, Kind.PATCH), "D": (Kind.PATCH, Kind.PYRAMID),
                "Dstar": (Kind.PYRAMID, Kind.PATCH), "N": (Kind.PYRAMID, Kind.PYRAMID)}


def sphere_operator_eigenvalue(tag: str, matrix: np.ndarray, mesh: TriangleMesh, l: int) -> float:
    """Mean Gram-normalized Rayleigh quotient of the operator block ``tag``
    (``S``, ``D``, ``Dstar`` or ``N``), given as ``matrix``, over degree-l
    modes.

    The degree-l subspace is sampled at mesh vertices (pyramid dofs) or cell
    centroids (patch dofs); mixed blocks use the patch/pyramid cross Gram.
    """
    row_kind, col_kind = _BLOCK_KINDS[tag]

    def modes(kind: Kind) -> np.ndarray:
        return real_spherical_harmonics(l, mesh.centroids if kind is Kind.PATCH else mesh.vertices)

    def gram_of(kind: Kind):
        return gram_p0(patch_space(mesh)) if kind is Kind.PATCH else gram_p1(pyramid_space(mesh))

    rows, cols = modes(row_kind), modes(col_kind)
    if row_kind is col_kind:
        gram = gram_of(row_kind)
    elif row_kind is Kind.PATCH:
        gram = mixed_gram_p0_p1(mesh)
    else:
        gram = mixed_gram_p0_p1(mesh).T

    # resolution guard: sampled modes must stay independent in the Gram
    g_col = gram_of(col_kind)
    mode_gram = cols @ (g_col @ cols.T)
    ev = np.linalg.eigvalsh(mode_gram)
    if ev[0] <= 1e-3 * ev[-1]:
        raise ValueError(f"mesh too coarse to resolve degree {l}")

    quotients = []
    for u, y in zip(rows, cols):
        denom = float(u @ (gram @ y))
        quotients.append(float(u @ (matrix @ y)) / denom)
    return float(np.mean(quotients))
