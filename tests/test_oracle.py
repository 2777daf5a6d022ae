import os
import subprocess
import sys
from itertools import islice
from pathlib import Path

import numpy as np
import pytest
from scipy.special import lpmv

from symmbem import geometry, oracle
from symmbem.formulation import DipoleSource
from symmbem.oracle import (
    SphereSpec,
    dipole_unbounded,
    layered_sphere_potential,
    real_spherical_harmonics,
    single_sphere_insulated_potential,
    sphere_double_layer_eigenvalue,
    sphere_hypersingular_eigenvalue,
    sphere_single_layer_eigenvalue,
)


def unit_sphere_grid(n=50):
    """Gauss-Legendre x uniform-phi product grid with weights (integrates
    smooth functions on the sphere to high order)."""
    x, wx = np.polynomial.legendre.leggauss(n)
    phi = 2 * np.pi * (np.arange(2 * n) + 0.5) / (2 * n)
    ct, ph = np.meshgrid(x, phi, indexing="ij")
    st = np.sqrt(1 - ct**2)
    pts = np.stack([st * np.cos(ph), st * np.sin(ph), ct], axis=-1).reshape(-1, 3)
    w = np.broadcast_to(wx[:, None], ct.shape).ravel() * (2 * np.pi / (2 * n))
    return pts, w


def test_dipole_unbounded_closed_form():
    v = dipole_unbounded([0, 0, 1.0], [0, 0, 0.0], 1.0, [0, 0, 1.0])
    assert abs(v - 1.0 / (4 * np.pi)) < 1e-15
    v2 = dipole_unbounded([0, 0, 1.0], [0, 0, 0.0], 1.0, [0, 0, 2.0])
    assert abs(v2 - 1.0 / (16 * np.pi)) < 1e-15


def test_dipole_unbounded_antisymmetry():
    rng = np.random.default_rng(0)
    q = rng.standard_normal(3)
    r = rng.standard_normal(3)
    assert abs(
        dipole_unbounded(q, np.zeros(3), 2.0, r) + dipole_unbounded(q, np.zeros(3), 2.0, -r)
    ) < 1e-15


def test_dipole_unbounded_rejects_source_point():
    with pytest.raises(ValueError):
        dipole_unbounded([0, 0, 1.0], [0, 0, 0.5], 1.0, [0, 0, 0.5])


def test_sphere_spec_validation():
    with pytest.raises(ValueError):
        SphereSpec((1.0, 0.8), (1.0, 1.0, 0.0))
    with pytest.raises(ValueError):
        SphereSpec((0.8, 1.0), (1.0, 0.0))
    with pytest.raises(ValueError):
        SphereSpec((0.8, 1.0), (1.0, -1.0, 0.0))


def test_layered_contrast_one_matches_single_sphere():
    spec = SphereSpec((0.8, 0.9, 1.0), (1.0, 1.0, 1.0, 0.0))
    dip = DipoleSource([0, 0, 0.6], [0, 0, 1.0])
    pts, _ = unit_sphere_grid(12)
    a = layered_sphere_potential(spec, dip, pts)
    b = single_sphere_insulated_potential(1.0, 1.0, dip, pts)
    assert np.linalg.norm(a - b) / np.linalg.norm(b) < 1e-8


def test_layered_contrast_one_tangential_dipole():
    spec = SphereSpec((0.8, 0.9, 1.0), (2.0, 2.0, 2.0, 0.0))
    dip = DipoleSource([0.1, -0.2, 0.5], [0.3, 0.7, -0.2])
    pts, _ = unit_sphere_grid(12)
    a = layered_sphere_potential(spec, dip, pts)
    b = single_sphere_insulated_potential(1.0, 2.0, dip, pts)
    assert np.linalg.norm(a - b) / np.linalg.norm(b) < 1e-8


def test_layered_homogeneous_conducting_matches_free_space():
    spec = SphereSpec((0.8, 0.9, 1.0), (1.0, 1.0, 1.0, 1.0))
    dip = DipoleSource([0, 0, 0.55], [0.4, 0, 0.9])
    pts, _ = unit_sphere_grid(12)
    a = layered_sphere_potential(spec, dip, pts)
    b = dipole_unbounded(dip.moment, dip.position, 1.0, pts)
    assert np.linalg.norm(a - b) / np.linalg.norm(b) < 1e-8


def test_layered_axisymmetry_for_radial_dipole():
    spec = SphereSpec((0.8, 0.9, 1.0), (1.0, 1 / 80, 1.0, 0.0))
    dip = DipoleSource([0, 0, 0.6], [0, 0, 1.0])
    th = 1.1
    p1 = np.array([[np.sin(th), 0, np.cos(th)]])
    p2 = np.array([[0, np.sin(th), np.cos(th)]])
    v1 = layered_sphere_potential(spec, dip, p1)[0]
    v2 = layered_sphere_potential(spec, dip, p2)[0]
    assert abs(v1 - v2) <= 1e-12 * max(abs(v1), 1.0)


def test_layered_zero_mean():
    spec = SphereSpec((0.8, 0.9, 1.0), (1.0, 1 / 80, 1.0, 0.0))
    dip = DipoleSource([0, 0, 0.6], [0, 0, 1.0])
    pts, w = unit_sphere_grid(60)
    vals = layered_sphere_potential(spec, dip, pts)
    mean = float(w @ vals) / (4 * np.pi)
    assert abs(mean) < 1e-10 * np.abs(vals).max()


def test_layered_series_geometric_convergence():
    # successive-degree terms shrink roughly like eccentricity / r_1
    spec = SphereSpec((0.8, 0.9, 1.0), (1.0, 1 / 80, 1.0, 0.0))
    from symmbem.oracle import _outer_response, _source_coefficients

    z0, r1 = 0.6, 0.8
    mags = []
    for l in range(2, 30):
        s_rad, _ = _source_coefficients(l, z0, r1, 1.0, 0.0, 1.0)
        mags.append(abs(s_rad * _outer_response(spec, l)))
    ratios = [b / a for a, b in zip(mags, mags[1:])]
    assert max(ratios[5:]) < 0.8  # bounded by ~ z0 / r1 = 0.75 asymptotically


def test_layered_rejects_dipole_outside_inner_sphere():
    spec = SphereSpec((0.8, 1.0), (1.0, 1.0, 0.0))
    with pytest.raises(ValueError):
        layered_sphere_potential(spec, DipoleSource([0, 0, 0.9], [0, 0, 1.0]), [[0, 0, 1.0]])


@pytest.mark.parametrize("eccentricity", [0.97, 0.98, 0.99])
def test_series_converge_near_the_sphere(eccentricity):
    # the terms fall like l e^l, which reaches rtol / 10 = 1e-13 only at
    # degrees 1 216, 1 855 and 3 799
    rng = np.random.default_rng(int(100 * eccentricity))
    direction = rng.standard_normal(3)
    dip = DipoleSource(eccentricity * direction / np.linalg.norm(direction), rng.standard_normal(3))
    pts = geometry.make_icosphere(2, 1.0).vertices
    single = single_sphere_insulated_potential(1.0, 1.0, dip, pts)
    layered = layered_sphere_potential(SphereSpec((1.0,), (1.0, 0.0)), dip, pts)
    assert np.abs(layered - single).max() <= 1e-8 * np.abs(single).max()


def test_single_sphere_rejects_points_off_its_sphere():
    dip = DipoleSource([0.1, -0.2, 0.3], [0.0, 0.0, 1.0])
    inside = geometry.make_icosphere(2, 0.5).vertices
    with pytest.raises(ValueError, match="must lie on the sphere"):
        single_sphere_insulated_potential(1.0, 1.0, dip, inside)


def test_real_harmonics_orthonormal():
    pts, w = unit_sphere_grid(40)
    for l in (0, 1, 3):
        Y = real_spherical_harmonics(l, pts)
        gram = (Y * w[None, :]) @ Y.T
        assert np.abs(gram - np.eye(2 * l + 1)).max() < 1e-10


def test_analytic_eigenvalue_tables():
    assert sphere_single_layer_eigenvalue(0) == 1.0
    assert sphere_single_layer_eigenvalue(2) == 1.0 / 5.0
    assert sphere_double_layer_eigenvalue(0) == -0.5
    assert sphere_hypersingular_eigenvalue(0) == 0.0
    assert abs(sphere_hypersingular_eigenvalue(1) - 2.0 / 3.0) < 1e-15


# a grid on [-1, 1] that holds both poles exactly
LEGENDRE_GRID = np.linspace(-1.0, 1.0, 201)


def lpmv_orders(l, orders, x):
    """Associated Legendre functions of degree l without the Condon-Shortley
    phase, one row per order, from scipy's lpmv."""
    return np.array([(-1.0) ** m * lpmv(m, l, x) for m in orders])


def assert_degree_close(got, want, rtol=1e-13):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rtol * np.abs(want).max()


def test_legendre_recurrence_matches_lpmv_low_orders():
    assert LEGENDRE_GRID[0] == -1.0 and LEGENDRE_GRID[-1] == 1.0
    for l, p in zip(range(401), oracle._associated_legendre(LEGENDRE_GRID, 3)):
        assert_degree_close(p, lpmv_orders(l, range(min(l, 3) + 1), LEGENDRE_GRID))


def test_legendre_recurrence_matches_lpmv_every_order():
    # every order of a degree, as the spherical harmonics take them; lpmv
    # overflows at the top orders from l = 86
    for l, p in zip(range(81), oracle._associated_legendre(LEGENDRE_GRID, 80)):
        assert_degree_close(p, lpmv_orders(l, range(l + 1), LEGENDRE_GRID))
    for l in (0, 1, 7, 40):
        top = next(islice(oracle._associated_legendre(LEGENDRE_GRID, l), l, None))
        assert_degree_close(top, lpmv_orders(l, range(l + 1), LEGENDRE_GRID))


def test_oracle_import_leaves_scipy_special_unloaded():
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, symmbem.oracle; print('scipy.special' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"


def lpmv_series(points, dipole, radius, r1, sigma, gain, rtol):
    """The oracle's series with lpmv evaluated afresh at each degree: the
    source coefficients times ``gain(l)``, on the sphere of ``radius``,
    under the oracle's stopping rule."""
    z0, q_r, q_t, rot = oracle._canonical_frame(dipole.position, dipole.moment)
    local = points @ rot.T
    ct = np.clip(local[:, 2] / radius, -1.0, 1.0)
    phi = np.arctan2(local[:, 1], local[:, 0])
    total = np.zeros(len(points))
    running_max, small_streak = 0.0, 0
    for l in range(1, 5000):
        s_rad, s_tan = oracle._source_coefficients(l, z0, r1, q_r, q_t, sigma)
        g = gain(l)
        term = (s_rad * g) * lpmv(0, l, ct) - (s_tan * g) * lpmv(1, l, ct) * np.cos(phi)
        total += term
        running_max = max(running_max, float(np.max(np.abs(total))))
        if float(np.max(np.abs(term))) < rtol * running_max:
            small_streak += 1
            if small_streak >= 2 and l > 2:
                return total
        else:
            small_streak = 0
    raise AssertionError("reference series did not converge")


@pytest.mark.parametrize("eccentricity", [0.5, 0.8, 0.95, 0.98])
def test_series_equal_lpmv_series(eccentricity):
    rng = np.random.default_rng(int(100 * eccentricity))
    direction = rng.standard_normal(3)
    direction /= np.linalg.norm(direction)
    moment = rng.standard_normal(3)
    pts = geometry.make_icosphere(2, 1.0).vertices

    spec = SphereSpec((0.87, 0.92, 1.0), (1.0, 1 / 80, 1.0, 0.0))
    dip = DipoleSource(eccentricity * spec.radii[0] * direction, moment)
    got = layered_sphere_potential(spec, dip, pts)
    want = lpmv_series(pts, dip, 1.0, spec.radii[0], 1.0, lambda l: oracle._outer_response(spec, l), 1e-10)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    dip = DipoleSource(eccentricity * direction, moment)
    got = single_sphere_insulated_potential(1.0, 2.0, dip, pts)
    want = lpmv_series(pts, dip, 1.0, 1.0, 2.0, lambda l: (2 * l + 1) / l, 1e-12)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
