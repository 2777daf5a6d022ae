import itertools
from math import factorial

import numpy as np
import pytest

from symmbem._quadrature import (
    COINCIDENT,
    EDGE,
    TRI_RULES,
    VERTEX,
    collapsed_rule,
    gauss01,
    sauter_schwab_rule,
    tensor_pair_rule,
)
from oracles import (
    cached_single_layer_entry,
    duffy_triangle_potential,
    galerkin_single_layer_entry,
    triangle_potential,
)

TRI = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0]])


def test_triangle_rules_integrate_constants():
    for key, (pts, w) in TRI_RULES.items():
        assert abs(w.sum() - 1.0) < 1e-12, key
        assert pts.min() >= 0 and np.abs(pts.sum(axis=1) - 1).max() < 1e-12


def test_triangle_rules_polynomial_degree():
    # the 3-point rule is exact to degree 2, the 6-point rule to degree 4,
    # the 19-point rule of the 6x4 tier to degree 9
    def moment(rule, f):
        pts, w = TRI_RULES[rule]
        x = pts[:, 1]
        y = pts[:, 2]
        return float((w * f(x, y)).sum())

    exact_x2 = 1.0 / 6.0 * 2  # integral of x^2 over unit simplex is 1/12; x2 rule in bary
    # use exact simplex moments: int x^a y^b = a! b! / (a+b+2)!
    from math import factorial

    def exact(a, b):
        return 2.0 * factorial(a) * factorial(b) / factorial(a + b + 2)

    for a, b in [(1, 0), (2, 0), (1, 1)]:
        assert abs(moment(3, lambda x, y: x**a * y**b) - exact(a, b)) < 1e-14
    for a, b in [(4, 0), (2, 2), (3, 1)]:
        assert abs(moment(6, lambda x, y: x**a * y**b) - exact(a, b)) < 1e-14
    for degree in range(10):
        for a in range(degree + 1):
            value = moment("6x4", lambda x, y: x**a * y ** (degree - a))
            assert abs(value - exact(a, degree - a)) < 1e-15
    assert abs(moment("6x4", lambda x, y: x**10) - exact(10, 0)) > 1e-12
    # the collapsed n x n rule is exact to degree 2n - 1, and no further
    for n in (6, 8):
        pts, w = collapsed_rule(n)
        assert len(w) == n * n and abs(w.sum() - 1.0) < 1e-14 and pts.min() > 0
        x, y = pts[:, 1], pts[:, 2]
        for degree in range(2 * n):
            for a in range(degree + 1):
                assert abs((w * x**a * y ** (degree - a)).sum() - exact(a, degree - a)) < 1e-15
        assert abs((w * x ** (2 * n)).sum() - exact(2 * n, 0)) > 1e-12


def test_transform_measures():
    for cat in (COINCIDENT, EDGE, VERTEX):
        _, _, w = sauter_schwab_rule(cat, 5)
        assert abs(w.sum() - 0.25) < 1e-12


def test_tensor_pair_rules_integrate_polynomial_products():
    # each tier's pair rule integrates the product of a polynomial on x and
    # one on y, each up to the degree of the tier's triangle rule, exactly
    # over the pair of reference simplices, as the transforms do; the 6x4
    # tier's 19-point rule is of degree 9
    def exact(a, b):  # integral of x1^a x2^b over the reference simplex
        return factorial(a) * factorial(b) / factorial(a + b + 2)

    for rule, degree in ((3, 2), (6, 4), ("6x4", 9), ("6x16", 4)):
        bx, by, w = tensor_pair_rule(rule)
        assert len(w) == len(TRI_RULES[rule][1]) ** 2 and abs(w.sum() - 0.25) < 1e-15
        monomials = [(a, b) for a in range(degree + 1) for b in range(degree + 1 - a)]
        for (a, b), (c, d) in itertools.product(monomials, repeat=2):
            value = (w * bx[:, 1] ** a * bx[:, 2] ** b * by[:, 1] ** c * by[:, 2] ** d).sum()
            assert abs(value - exact(a, b) * exact(c, d)) < 1e-15, (rule, a, b, c, d)
        # and no further
        value = (w * bx[:, 1] ** (degree + 1)).sum()
        assert abs(value - exact(degree + 1, 0) * exact(0, 0)) > 1e-12, rule


def _brute_reference(f, n=32):
    g, gw = gauss01(n)
    u1, u2, v1, v2 = np.meshgrid(g, g, g, g, indexing="ij")
    w = (
        gw[:, None, None, None]
        * gw[None, :, None, None]
        * gw[None, None, :, None]
        * gw[None, None, None, :]
    )
    return float((w * u1 * v1 * f(u1, u1 * u2, v1, v1 * v2)).sum())


@pytest.mark.parametrize("cat", [COINCIDENT, EDGE, VERTEX])
def test_transforms_are_exact_rearrangements(cat):
    # smooth integrand: any valid decomposition reproduces the plain tensor value
    def f(x1, x2, y1, y2):
        return np.exp(-(x1 - 0.3) * (y1 - 0.7)) * (1 + x2 * y2 + 0.5 * np.sin(x1 + y2))

    ref = _brute_reference(f)
    bx, by, w = sauter_schwab_rule(cat, 12)
    x1 = bx[:, 1] + bx[:, 2]
    x2 = bx[:, 2]
    y1 = by[:, 1] + by[:, 2]
    y2 = by[:, 2]
    val = float((w * f(x1, x2, y1, y2)).sum())
    assert abs(val - ref) / abs(ref) < 1e-13


def test_coincident_regularizes_kernel():
    # frozen reference computed with the order-16/20 transform (stable to 4e-15)
    # and confirmed against a Duffy-inner / refined-outer oracle
    reference = 0.07982144690425
    bx, by, w = sauter_schwab_rule(COINCIDENT, 12)
    x = bx @ TRI
    y = by @ TRI
    r = np.linalg.norm(x - y, axis=1)
    val = float((w / (4 * np.pi * r)).sum())  # (2A)^2 = 1
    assert abs(val - reference) < 1e-9


def test_edge_value_against_adaptive_oracle():
    tri_b = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.3, -0.8, 0.2]])
    ref = cached_single_layer_entry(TRI, tri_b)  # shared with test_bem_ops
    bx, by, w = sauter_schwab_rule(EDGE, 12)
    x = bx @ TRI
    y = by @ tri_b
    r = np.linalg.norm(x - y, axis=1)
    area_b = 0.5 * np.linalg.norm(np.cross(tri_b[1] - tri_b[0], tri_b[2] - tri_b[0]))
    val = (2 * 0.5) * (2 * area_b) * float((w / (4 * np.pi * r)).sum())
    assert abs(val - ref) / abs(ref) < 1e-8


def test_vertex_value_against_adaptive_oracle():
    tri_c = np.array([[0.0, 0, 0], [-0.5, -0.7, 0.1], [0.2, -0.9, -0.3]])
    ref = galerkin_single_layer_entry(TRI, tri_c)
    bx, by, w = sauter_schwab_rule(VERTEX, 12)
    x = bx @ TRI
    y = by @ tri_c
    r = np.linalg.norm(x - y, axis=1)
    area_c = 0.5 * np.linalg.norm(np.cross(tri_c[1] - tri_c[0], tri_c[2] - tri_c[0]))
    val = (2 * 0.5) * (2 * area_c) * float((w / (4 * np.pi * r)).sum())
    assert abs(val - ref) / abs(ref) < 1e-8


def test_analytic_triangle_potential_matches_duffy():
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.normal(size=3)
        a = triangle_potential(x, TRI)
        b = duffy_triangle_potential(x, TRI, n1d=60)
        assert abs(a - b) < 1e-10 * max(abs(a), 1.0)
