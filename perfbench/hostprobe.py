"""A fixed unit of work that measures the host's speed next to each solve.

The benchmark runs on a few cores of a shared host whose speed drifts by
up to twofold in spells of seconds to minutes, as other tenants load the
same physical cores and caches.  A run of about a minute can sit wholly in
a slow or a fast spell, so raw solve seconds spread far more from run to
run than any change worth catching.  Timing this probe just before each
solve, on the same core, and dividing the solve's seconds by it removes
most of that drift: both slow down together.

The probe does the same kinds of work as a preconditioned solve, a Python
CG loop over a sparse Laplacian plus a dense matrix-vector product, on
fixed seeded data, and calls nothing in ``symmbem``: a change to the
program cannot change the probe.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp

GRID = 40  # sparse operator: 5-point Laplacian on a GRID x GRID grid
DENSE = 800  # dense operator: DENSE x DENSE
CG_STEPS = 20
REPEATS = 10

_rng = np.random.default_rng(0)
_path = sp.diags([-np.ones(GRID - 1), 2.0 * np.ones(GRID), -np.ones(GRID - 1)], [-1, 0, 1])
_eye = sp.identity(GRID)
_LAPLACIAN = (sp.kron(_eye, _path) + sp.kron(_path, _eye) + 0.01 * sp.identity(GRID**2)).tocsr()
_RHS = _rng.standard_normal(GRID**2)
_MATRIX = _rng.standard_normal((DENSE, DENSE))
_VECTOR = _rng.standard_normal(DENSE)


def probe_seconds() -> float:
    """Wall time of one fixed unit of probe work, about 10 ms."""
    t0 = time.perf_counter()
    for _ in range(REPEATS):
        r = _RHS.copy()
        p = r.copy()
        rr = r @ r
        for _ in range(CG_STEPS):
            ap = _LAPLACIAN @ p
            r -= (rr / (p @ ap)) * ap
            rr, rr_old = r @ r, rr
            p = r + (rr / rr_old) * p
        _MATRIX @ _VECTOR
    return time.perf_counter() - t0
