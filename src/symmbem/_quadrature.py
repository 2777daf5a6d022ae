"""Quadrature rules for Galerkin double integrals over triangle pairs.

Regular pairs use tensorized symmetric Gauss rules.  Pairs that touch
(coincident, edge-adjacent, vertex-adjacent) use Sauter-Schwab regularizing
coordinate transforms: the four-dimensional integral over the pair of
reference simplices is rewritten as a sum of smooth integrals over the unit
hypercube, evaluated with a tensor Gauss-Legendre rule.  Both kinds of pair
rule come as ``(bary_x, bary_y, weights)``: the barycentric coordinates of
each point pair on the two triangles, and weights over the product of the
two reference simplices.

Reference-simplex convention: T = {(x1, x2): 0 <= x2 <= x1 <= 1} with chart
chi(x1, x2) = v1 + x1 (v2 - v1) + x2 (v3 - v2), so barycentric weights with
respect to (v1, v2, v3) are (1 - x1, x1 - x2, x2).  The Jacobian of the
chart is twice the triangle area.  For touching pairs the charts must agree
on the shared feature: the shared edge is (v1, v2) of both triangles in the
same direction, a shared vertex is v1 of both.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

COINCIDENT = "coincident"
EDGE = "edge"
VERTEX = "vertex"

# Symmetric rules on the triangle in barycentric coordinates; weights sum
# to one and are scaled by the physical area at assembly time.
TRI_RULES = {
    3: (
        np.array(
            [
                [2.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0],
                [1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0],
                [1.0 / 6.0, 1.0 / 6.0, 2.0 / 3.0],
            ]
        ),
        np.full(3, 1.0 / 3.0),
    ),
    6: None,  # filled below (degree-4 Dunavant rule)
}

_A6 = 0.445948490915965
_B6 = 0.091576213509771
_WA6 = 0.223381589678011
_WB6 = 0.109951743655322
TRI_RULES[6] = (
    np.array(
        [
            [1 - 2 * _A6, _A6, _A6],
            [_A6, 1 - 2 * _A6, _A6],
            [_A6, _A6, 1 - 2 * _A6],
            [1 - 2 * _B6, _B6, _B6],
            [_B6, 1 - 2 * _B6, _B6],
            [_B6, _B6, 1 - 2 * _B6],
        ]
    ),
    np.array([_WA6, _WA6, _WA6, _WB6, _WB6, _WB6]),
)


def _composite_rule(base_points, base_weights, levels: int):
    """Replicate a barycentric rule onto a uniform 4**levels refinement.

    Composite rules handle nearly singular pairs (surfaces closer than an
    element diameter) where a single polynomial rule stalls.
    """
    tris = [np.eye(3)]
    for _ in range(levels):
        new = []
        for t in tris:
            m01, m12, m20 = 0.5 * (t[0] + t[1]), 0.5 * (t[1] + t[2]), 0.5 * (t[2] + t[0])
            new += [
                np.array([t[0], m01, m20]),
                np.array([m01, t[1], m12]),
                np.array([m20, m12, t[2]]),
                np.array([m01, m12, m20]),
            ]
        tris = new
    scale = 0.25**levels
    pts = np.concatenate([base_points @ t for t in tris])
    wts = np.concatenate([base_weights * scale for _ in tris])
    return pts, wts


TRI_RULES["6x4"] = _composite_rule(*TRI_RULES[6], 1)
TRI_RULES["6x16"] = _composite_rule(*TRI_RULES[6], 2)


def tensor_pair_rule(rule):
    """Tensor product of ``TRI_RULES[rule]`` with itself as a rule for a
    disjoint pair, in the format of :func:`sauter_schwab_rule`:
    ``(bary_x, bary_y, weights)``, every point of x against every point of
    y, with weights over the product of the two reference simplices (they
    sum to 1/4)."""
    bary, w = TRI_RULES[rule]
    q = len(w)
    return np.repeat(bary, q, axis=0), np.tile(bary, (q, 1)), 0.25 * np.outer(w, w).ravel()


@lru_cache(maxsize=None)
def gauss01(n: int):
    """Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def _simplex_bary(x1, x2):
    """Barycentric weights of reference coordinates, stacked on last axis."""
    return np.stack([1.0 - x1, x1 - x2, x2], axis=-1)


def _gauss_radial01(n: int):
    """Gauss nodes and weights on [0, 1] for the weight u: Golub-Welsch on
    the recurrence of the Jacobi polynomials ``P_k^(0,1)``."""
    k = np.arange(n)
    diag = 1.0 / ((2 * k + 1) * (2 * k + 3))
    k = k[1:]
    off = np.sqrt(k * (k + 1.0)) / (2 * k + 1)
    x, vec = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return 0.5 * (x + 1.0), 0.5 * vec[0] ** 2


@lru_cache(maxsize=None)
def collapsed_rule(n: int):
    """Collapsed Gauss product rule on the triangle (Stroud's conical
    product), as ``(bary, weights)`` like the entries of ``TRI_RULES``.

    The unit square maps to the reference simplex by ``(x1, x2) = (u, u v)``
    with Jacobian u: n Gauss points in u for the weight u times n
    Gauss-Legendre points in v.  The n**2 points lie inside the triangle
    and integrate polynomials of degree ``2 n - 1`` exactly.
    """
    r, wr = _gauss_radial01(n)
    g, gw = gauss01(n)
    u, v = (x.ravel() for x in np.meshgrid(r, g, indexing="ij"))
    return _simplex_bary(u, u * v), 2.0 * np.outer(wr, gw).ravel()


def _coincident_maps(xi, e1, e2, e3):
    w = xi**3 * e1**2 * e2
    m = []
    x = (xi, xi * (1 - e1 + e1 * e2))
    y = (xi * (1 - e1 * e2 * e3), xi * (1 - e1))
    m.append((w, x, y))
    m.append((w, y, x))
    x = (xi, xi * e1 * (1 - e2 + e2 * e3))
    y = (xi * (1 - e1 * e2), xi * e1 * (1 - e2))
    m.append((w, x, y))
    m.append((w, y, x))
    x = (xi * (1 - e1 * e2 * e3), xi * e1 * (1 - e2 * e3))
    y = (xi, xi * e1 * (1 - e2))
    m.append((w, x, y))
    m.append((w, y, x))
    return m


def _edge_maps(xi, e1, e2, e3):
    m = []
    m.append(
        (
            xi**3 * e1**2,
            (xi, xi * e1 * e3),
            (xi * (1 - e1 * e2), xi * e1 * (1 - e2)),
        )
    )
    w = xi**3 * e1**2 * e2
    m.append(((w), (xi, xi * e1), (xi * (1 - e1 * e2 * e3), xi * e1 * e2 * (1 - e3))))
    m.append(((w), (xi * (1 - e1 * e2), xi * e1 * (1 - e2)), (xi, xi * e1 * e2 * e3)))
    m.append(((w), (xi * (1 - e1 * e2 * e3), xi * e1 * e2 * (1 - e3)), (xi, xi * e1)))
    m.append(((w), (xi * (1 - e1 * e2 * e3), xi * e1 * (1 - e2 * e3)), (xi, xi * e1 * e2)))
    return m


def _vertex_maps(xi, e1, e2, e3):
    w = xi**3 * e2
    return [
        (w, (xi, xi * e1), (xi * e2, xi * e2 * e3)),
        (w, (xi * e2, xi * e2 * e3), (xi, xi * e1)),
    ]


_MAPS = {COINCIDENT: _coincident_maps, EDGE: _edge_maps, VERTEX: _vertex_maps}


def sauter_schwab_rule(category: str, order: int):
    """Tensorized rule for a touching pair in reference coordinates.

    Returns ``(bary_x, bary_y, weights)`` where the barycentric arrays have
    shape (n_points, 3) and the weights integrate over the product of the
    two reference simplices (they sum to 1/4).  Physical Galerkin integrals
    multiply by ``(2 A_x)(2 A_y)``.
    """
    g, gw = gauss01(order)
    xi, e1, e2, e3 = (a.ravel() for a in np.meshgrid(g, g, g, g, indexing="ij"))
    w4 = (
        gw[:, None, None, None]
        * gw[None, :, None, None]
        * gw[None, None, :, None]
        * gw[None, None, None, :]
    ).ravel()
    bx, by, ws = [], [], []
    for w, x, y in _MAPS[category](xi, e1, e2, e3):
        bx.append(_simplex_bary(*x))
        by.append(_simplex_bary(*y))
        ws.append(w * w4)
    return (
        np.ascontiguousarray(np.concatenate(bx)),
        np.ascontiguousarray(np.concatenate(by)),
        np.ascontiguousarray(np.concatenate(ws)),
    )
