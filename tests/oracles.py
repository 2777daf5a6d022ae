"""Independent numerical oracles used by the test suite.

These deliberately avoid the quadrature machinery under test: the inner
integral over a flat triangle is analytic, the outer integral is adaptive
(QUADPACK), and a Duffy-transformed rule validates the analytic formula.
"""

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
