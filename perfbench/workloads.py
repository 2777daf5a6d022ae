"""Benchmark workloads: sphere head models, seeded dipole sets, accuracy gates.

Every workload is a concentric-sphere conductor, so each solution has an
analytic reference in :mod:`symmbem.oracle`.  Dipoles fill the ball of
radius ``DIPOLE_EXTENT * radii[0]`` inside the innermost sphere as a
stratified sample: the ball is cut into as many equal-volume shells as
there are dipoles and each dipole sits at the volume midpoint of its own
shell, in a direction drawn uniformly from the seed, with a moment drawn
uniformly from the seed.  The radial distribution is that of a uniform
ball, and the per-run medians and maxima, which depend mostly on the
radius, vary far less from seed to seed than with independent draws.
Every dipole is solved; none is redrawn or moved because it fails.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DIPOLE_EXTENT = 0.8

#: how often each run builds the head model; ``setup_s`` is the median
SETUPS = 2

#: a successful source is correct when its RDM and its ``|MAG - 1|``
#: against the analytic potential stay under these gates
RDM_GATE = 0.3
MAG_GATE = 0.3

SHELLS3_RADII = (0.87, 0.92, 1.0)
SHELLS3_SIGMA = (1.0, 1.0 / 80.0, 1.0, 0.0)


@dataclass(frozen=True)
class Workload:
    """One head model and the number of dipoles solved on it."""

    name: str
    radii: tuple
    conductivities: tuple
    subdivisions: int
    dipoles: int

    @property
    def single_sphere(self) -> bool:
        return len(self.radii) == 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload("shells3-sub2", SHELLS3_RADII, SHELLS3_SIGMA, 2, 16),
        Workload("sphere1-sub3", (1.0,), (1.0, 0.0), 3, 64),
    )
}


def _unit_rows(a: np.ndarray) -> np.ndarray:
    return a / np.linalg.norm(a, axis=1, keepdims=True)


def draw_dipoles(workload: Workload, seed: int):
    """The workload's dipole set for ``seed``: ``(positions, moments)``."""
    rng = np.random.default_rng(seed)
    n = workload.dipoles
    volume_fraction = (np.arange(n) + 0.5) / n
    radius = DIPOLE_EXTENT * workload.radii[0] * np.cbrt(volume_fraction)
    positions = radius[:, None] * _unit_rows(rng.standard_normal((n, 3)))
    moments = _unit_rows(rng.standard_normal((n, 3)))
    return positions, moments
