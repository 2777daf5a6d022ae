"""Independent numerical oracles used by the test suite.

These deliberately avoid the quadrature machinery under test: the inner
integral over a flat triangle is analytic, the outer integral is adaptive
(QUADPACK), and a Duffy-transformed rule validates the analytic formula.
"""

import functools
import math

import numpy as np
from scipy import integrate


def gauss01(n):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def triangle_potential(x, corners):
    """Analytic integral of 1/|x - y| over a flat triangle."""
    x = np.asarray(x, float)
    v = [np.asarray(c, float) for c in corners]
    n = np.cross(v[1] - v[0], v[2] - v[0])
    n = n / np.linalg.norm(n)
    h = float(np.dot(x - v[0], n))
    rho = x - h * n
    total = 0.0
    for i in range(3):
        a, b = v[i], v[(i + 1) % 3]
        t = (b - a) / np.linalg.norm(b - a)
        m = np.cross(t, n)  # outward in-plane edge normal
        p0 = float(np.dot(a - rho, m))
        sm = float(np.dot(a - rho, t))
        sp = float(np.dot(b - rho, t))
        rm = float(np.linalg.norm(x - a))
        rp = float(np.linalg.norm(x - b))
        r0sq = p0 * p0 + h * h
        num, den = rp + sp, rm + sm
        if num > 0 and den > 0:
            total += p0 * np.log(num / den)
        if h != 0.0:
            total -= abs(h) * (
                np.arctan2(p0 * sp, r0sq + abs(h) * rp)
                - np.arctan2(p0 * sm, r0sq + abs(h) * rm)
            )
    return total


def duffy_triangle_potential(x, corners, n1d=40):
    """Same integral by a Duffy-clustered tensor rule (validates the above)."""
    g, gw = gauss01(n1d)
    u, vq = np.meshgrid(g, g, indexing="ij")
    w2 = np.outer(gw, gw)
    v = [np.asarray(c, float) for c in corners]
    n = np.cross(v[1] - v[0], v[2] - v[0])
    n = n / np.linalg.norm(n)
    hub = x - np.dot(x - v[0], n) * n
    total = 0.0
    for i in range(3):
        a, b = v[i], v[(i + 1) % 3]
        e1, e2 = a - hub, b - a
        area2 = float(np.dot(np.cross(e1, e2), n))  # signed: hub may be outside
        y = hub[None, None, :] + u[..., None] * (e1[None, None, :] + vq[..., None] * e2[None, None, :])
        rr = np.linalg.norm(y - x[None, None, :], axis=-1)
        total += float((w2 * (u * area2) / rr).sum())
    return total


def galerkin_single_layer_entry(corners_test, corners_trial, tol=1e-11):
    """Adaptive outer integration of the analytic inner potential:
    independent value of the Galerkin single-layer pair integral
    (kernel 1/(4 pi r))."""
    ca = [np.asarray(c, float) for c in corners_test]

    def f(t, s):
        x = ca[0] + s * (ca[1] - ca[0]) + t * (ca[2] - ca[0])
        return triangle_potential(x, corners_trial)

    val, _ = integrate.dblquad(f, 0, 1, 0, lambda s: 1 - s, epsabs=tol, epsrel=tol)
    jac = np.linalg.norm(np.cross(ca[1] - ca[0], ca[2] - ca[0]))
    return val * jac / (4.0 * np.pi)


def cached_single_layer_entry(corners_test, corners_trial):
    """:func:`galerkin_single_layer_entry` at its default tolerance, computed
    once per test session for each pair of corner lists."""
    return _single_layer_entry(*(tuple(map(tuple, np.asarray(c, float).tolist()))
                                 for c in (corners_test, corners_trial)))


@functools.cache
def _single_layer_entry(corners_test, corners_trial):
    return galerkin_single_layer_entry(corners_test, corners_trial)


def regular_pair_integrals(corners_t, corners_s, rule):
    """Galerkin integrals of one disjoint triangle pair under the tensor
    product of a barycentric ``(points, weights)`` rule with itself.

    A plain double loop over the rule points with direct ``1/r`` and
    ``n . grad(1/r)``, every sum taken exactly with ``math.fsum``.  Returns
    ``(S, D, Dstar)``: S pairs the two patches with ``1/(4 pi r)``; ``D[j]``
    pairs the target patch with the source hat of corner j under
    ``n_s . (x - y) / (4 pi r^3)``; ``Dstar[i]`` pairs the target hat of
    corner i with the source patch under ``-n_t . (x - y) / (4 pi r^3)``.
    """
    bary, wts = rule
    ct, cs = np.asarray(corners_t, float), np.asarray(corners_s, float)

    def frame(c):
        cross = np.cross(c[1] - c[0], c[2] - c[0])
        norm = float(np.linalg.norm(cross))
        return 0.5 * norm, (cross / norm).tolist()

    area_t, (nt0, nt1, nt2) = frame(ct)
    area_s, (ns0, ns1, ns2) = frame(cs)
    xs, ys = (bary @ ct).tolist(), (bary @ cs).tolist()
    b, w = bary.tolist(), wts.tolist()
    s_terms, d_terms, ds_terms = [], ([], [], []), ([], [], [])
    for g, (x0, x1, x2) in enumerate(xs):
        for h, (y0, y1, y2) in enumerate(ys):
            d0, d1, d2 = x0 - y0, x1 - y1, x2 - y2
            r = math.sqrt(d0 * d0 + d1 * d1 + d2 * d2)
            weight = area_t * w[g] * area_s * w[h] / (4.0 * math.pi)
            s_terms.append(weight / r)
            kd = weight * (d0 * ns0 + d1 * ns1 + d2 * ns2) / r**3
            ks = -weight * (d0 * nt0 + d1 * nt1 + d2 * nt2) / r**3
            for k in range(3):
                d_terms[k].append(kd * b[h][k])
                ds_terms[k].append(ks * b[g][k])
    return (
        math.fsum(s_terms),
        np.array([math.fsum(t) for t in d_terms]),
        np.array([math.fsum(t) for t in ds_terms]),
    )


def _closest_point(x, v):
    """Point of the triangle with corners ``v`` nearest to ``x``."""
    n = np.cross(v[1] - v[0], v[2] - v[0])
    n = n / np.linalg.norm(n)
    rho = x - np.dot(x - v[0], n) * n
    inside = all(
        np.dot(np.cross(v[(i + 1) % 3] - v[i], rho - v[i]), n) >= 0 for i in range(3)
    )
    if inside:
        return rho
    best = None
    for i in range(3):
        a, b = v[i], v[(i + 1) % 3]
        t = np.clip(np.dot(x - a, b - a) / np.dot(b - a, b - a), 0.0, 1.0)
        c = a + t * (b - a)
        if best is None or np.linalg.norm(x - c) < np.linalg.norm(x - best):
            best = c
    return best


def duffy_triangle_kernels(points, corners, n1d=40):
    """Integrals over a flat triangle of ``h/|x - y|^3`` times the hat
    function of each corner (h the height of x over the plane) and of
    ``(x - y)/|x - y|^3``, at each of the points x (m, 3), by
    Duffy-collapsed tensor rules on the three triangles fanned out from the
    triangle's point nearest x.

    Returns ``(double_layer (m, 3), gradient (m, 3))``.  The fan centre
    lies in the triangle, so no part has a negative area and no part
    reaches closer to x than the triangle itself.
    """
    x = np.asarray(points, float).reshape(-1, 3)
    v = [np.asarray(c, float) for c in corners]
    g, gw = gauss01(n1d)
    u, vq = (a.ravel()[None, :, None] for a in np.meshgrid(g, g, indexing="ij"))
    w2 = np.outer(gw, gw).ravel()[None, :]
    n = np.cross(v[1] - v[0], v[2] - v[0])
    area2 = np.linalg.norm(n)
    n = n / area2
    h = (x - v[0]) @ n
    hub = np.array([_closest_point(p, v) for p in x])[:, None, :]
    double_layer, gradient = np.zeros((len(x), 3)), np.zeros((len(x), 3))
    for i in range(3):
        a, b = v[i], v[(i + 1) % 3]
        e1 = a - hub
        part2 = np.cross(e1, b - a) @ n  # (m, 1): zero where the hub is on this edge
        y = hub + u * (e1 + vq * (b - a))
        d = x[:, None, :] - y
        wgt = w2 * u[..., 0] * part2 / np.linalg.norm(d, axis=2) ** 3
        gradient += np.einsum("mq,mqc->mc", wgt, d)
        hats = [np.cross(v[(j + 1) % 3] - y, v[(j + 2) % 3] - y) @ n / area2 for j in range(3)]
        double_layer += h[:, None] * np.stack([(hat * wgt).sum(axis=1) for hat in hats], axis=1)
    return double_layer, gradient


def pair_double_layer_reference(corners_t, corners_s, n_outer=24, n1d=24):
    """Galerkin double-layer integrals of one disjoint triangle pair, with
    the conventions of :func:`regular_pair_integrals`: the inner integrals
    by :func:`duffy_triangle_kernels` and the outer one by an
    ``n_outer x n_outer`` collapsed Gauss-Legendre product rule on the
    target triangle.  Returns ``(D (3,), Dstar (3,))``."""
    ct, cs = np.asarray(corners_t, float), np.asarray(corners_s, float)
    g, gw = gauss01(n_outer)
    a, b = (x.ravel() for x in np.meshgrid(g, g, indexing="ij"))
    bary = np.stack([1.0 - a, a - a * b, a * b], axis=1)
    nt = np.cross(ct[1] - ct[0], ct[2] - ct[0])
    area2 = np.linalg.norm(nt)
    weight = np.outer(gw, gw).ravel() * a * area2 / (4.0 * np.pi)
    dl, grad = duffy_triangle_kernels(bary @ ct, cs, n1d)
    return weight @ dl, -(weight * (grad @ nt) / area2) @ bary
