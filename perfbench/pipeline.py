"""The public symmbem pipeline as an EEG lead-field user drives it.

The head model is built once and reused for every source:
``make_icosphere -> NestedModel -> assemble_system -> conductivity_rescale
-> precond.build``.  Each source then runs ``assemble_rhs``, the
conductivity scaling, ``preconditioned_rhs``, outer CG on ``op.apply`` and
``recover_solution``.  Every call goes through a module attribute so a
traced run can wrap it from outside the package.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from dataclasses import dataclass

import numpy as np

from symmbem import formulation, geometry, krylov, oracle, precond


@dataclass
class HeadModel:
    meshes: list
    model: object
    system: object  # rescaled BlockSystem without a right-hand side
    op: object  # PrecondOperator
    scale: np.ndarray

    def fingerprint(self) -> str:
        """Digest of everything a solve reads; equal builds give equal digests."""
        h = hashlib.blake2b(digest_size=16)
        for a in (self.system.matrix, self.op.m_diag, self.op.deflation, self.scale):
            h.update(np.ascontiguousarray(a).tobytes())
        return h.hexdigest()


@dataclass
class SourceResult:
    """Outcome of one source; ``failure`` is ``None`` or ``stage:reason``."""

    index: int
    seconds: float
    iterations: int | None
    failure: str | None = None
    message: str = ""
    potential: np.ndarray | None = None  # outer-surface vertex potential


def build_head_model(workload) -> HeadModel:
    meshes = [geometry.make_icosphere(workload.subdivisions, r) for r in workload.radii]
    model = geometry.NestedModel(meshes, workload.conductivities)
    system = formulation.assemble_system(model)
    system = formulation.conductivity_rescale(system)
    op = precond.build(system, meshes)
    return HeadModel(meshes, model, system, op, system.scale_vector())


def solve_source(hm: HeadModel, index: int, source) -> SourceResult:
    """One source from right-hand side to recovered solution, timed.

    The three ways a solve can fail are recorded, not raised: CG breakdown
    (or another CG-stage ``RuntimeError``, such as an inner-solve stall),
    CG stopping unconverged, and ``recover_solution`` rejecting the
    recovered residual.
    """
    t0 = time.perf_counter()
    rhs = formulation.assemble_rhs(hm.model, [source])
    system = dataclasses.replace(hm.system, rhs=hm.scale * rhs)
    op = dataclasses.replace(hm.op, system=system)
    b = op.preconditioned_rhs()
    try:
        y, report = krylov.conjugate_gradient(op.apply, b)
    except krylov.BreakdownError as exc:
        return SourceResult(index, time.perf_counter() - t0, None, "cg:breakdown", str(exc))
    except RuntimeError as exc:
        return SourceResult(index, time.perf_counter() - t0, None, "cg:RuntimeError", str(exc))
    if not report.converged:
        return SourceResult(index, time.perf_counter() - t0, report.iterations, "cg:not-converged")
    try:
        x, _ = precond.recover_solution(op, y)
    except RuntimeError as exc:
        return SourceResult(
            index, time.perf_counter() - t0, report.iterations, "recover:residual", str(exc)
        )
    seconds = time.perf_counter() - t0
    outer = system.layout.v_slice(system.layout.num_interfaces - 1)
    return SourceResult(index, seconds, report.iterations, potential=x[outer])


def reference_potential(workload, source, points: np.ndarray) -> np.ndarray:
    if workload.single_sphere:
        return oracle.single_sphere_insulated_potential(
            workload.radii[0], workload.conductivities[0], source, points
        )
    spec = oracle.SphereSpec(workload.radii, workload.conductivities)
    return oracle.layered_sphere_potential(spec, source, points)


def rdm_mag(potential: np.ndarray, reference: np.ndarray) -> tuple[float, float]:
    """RDM and MAG of a potential against its reference, both mean-referenced."""
    v = potential - potential.mean()
    r = reference - reference.mean()
    nv, nr = np.linalg.norm(v), np.linalg.norm(r)
    return float(np.linalg.norm(v / nv - r / nr)), float(nv / nr)
