"""One workload in one process: build, solve, check, print the metrics.

``run.py`` starts this script with the thread pools already pinned in the
environment; the last line it prints is the result object.  Without
``--trace`` it reports the end-to-end metrics; with it, the same run under
the span wrappers of :mod:`layers` reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import mean, median

import numpy as np
import scipy

import hostprobe
import layers
import pipeline
import workloads
from spans import Tracer
from symmbem import formulation, krylov
from workloads import WORKLOADS, draw_dipoles

ROOT = Path(__file__).resolve().parent.parent

END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_rel_p50": "1",
    "peak_rss_mb": "MB",
    "outer_iterations_p50": "count",
    "rdm_p50": "1",
    "rdm_max": "1",
    "mag_err_max": "1",
    "solved_share": "1",
}


@dataclass
class Measurement:
    """Timings and outcomes of one build-and-solve sequence."""

    setup_times: list
    fingerprints: list
    passes: list  # one list of SourceResult per pass over the dipoles
    probes: list  # per pass, the host probe's seconds just before each solve
    head_model: pipeline.HeadModel
    accuracy: dict = field(default_factory=dict)  # source index -> (rdm, mag)

    def outcomes(self, k: int = 0) -> list:
        return [(r.iterations, r.failure) for r in self.passes[k]]

    def per_source_seconds(self) -> list:
        """Each source's mean over its repeats.

        The host runs in fast and slow spells of seconds to minutes.  The
        mean over repeats spread across the run averages them.  A fastest
        repeat depends on whether the run meets a fast spell at all, which
        is chance, so it spreads more from run to run.
        """
        return [mean(p[i].seconds for p in self.passes) for i in range(len(self.passes[0]))]

    def relative_solve_times(self) -> list:
        """Every solve's seconds over the host probe's seconds just before it."""
        return [
            r.seconds / probe
            for results, probes in zip(self.passes, self.probes)
            for r, probe in zip(results, probes)
        ]

    @property
    def setup_s(self) -> float:
        return median(self.setup_times)

    @property
    def total_s(self) -> float:
        """Mesh to all solutions: median build plus every source's mean solve."""
        return self.setup_s + sum(self.per_source_seconds())

    @property
    def attempted(self) -> int:
        return len(self.passes[0])

    @property
    def failed(self) -> int:
        return sum(r.failure is not None for r in self.passes[0])


def measure(workload, sources, seconds: float, setups: int) -> Measurement:
    """Build the head model ``setups`` times and solve every source in
    passes for ``seconds`` in all (at least one pass).

    The passes are spread over the builds: after build k they run until
    the solve time reaches (k + 1) / setups of ``seconds``.  The host's
    slow spells last seconds to minutes, so repeats spread over the whole
    run average more of them.  The host probe runs just before each solve
    so that each solve's time can be read relative to the host's speed.
    """
    setup_times, fingerprints, passes, probes = [], [], [], []
    solving = 0.0
    for k in range(setups):
        hm = None  # release the previous build before the next one
        t0 = time.perf_counter()
        hm = pipeline.build_head_model(workload)
        setup_times.append(time.perf_counter() - t0)
        fingerprints.append(hm.fingerprint())
        while not passes or solving < seconds * (k + 1) / setups:
            t0 = time.perf_counter()
            results, before = [], []
            for i, s in enumerate(sources):
                before.append(hostprobe.probe_seconds())
                results.append(pipeline.solve_source(hm, i, s))
            passes.append(results)
            probes.append(before)
            solving += time.perf_counter() - t0
    m = Measurement(setup_times, fingerprints, passes, probes, hm)
    points = hm.meshes[-1].vertices
    for r in passes[0]:
        if r.failure is None:
            reference = pipeline.reference_potential(workload, sources[r.index], points)
            m.accuracy[r.index] = pipeline.rdm_mag(r.potential, reference)
    return m


def check(workload, m: Measurement) -> list[str]:
    """Everything that makes a run incorrect, as messages."""
    problems = []
    if len(set(m.fingerprints)) != 1:
        problems.append("head-model builds of one run differ")
    for k in range(1, len(m.passes)):
        if m.outcomes(k) != m.outcomes(0):
            problems.append(f"pass {k} iterations or failures differ from pass 0")
    for i, (rdm, mag) in m.accuracy.items():
        if not (rdm <= workloads.RDM_GATE and abs(mag - 1.0) <= workloads.MAG_GATE):
            problems.append(f"source {i}: RDM {rdm:.3g}, MAG {mag:.3g} outside the gates")
    if not m.accuracy:
        problems.append("no source was solved")
    return problems


def end_to_end_metrics(m: Measurement) -> dict:
    rdm = [a[0] for a in m.accuracy.values()]
    mag_err = [abs(a[1] - 1.0) for a in m.accuracy.values()]
    iterations = [r.iterations for r in m.passes[0] if r.iterations is not None]
    return {
        "setup_s": m.setup_s,
        "solve_rel_p50": median(m.relative_solve_times()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "outer_iterations_p50": float(median(iterations)) if iterations else 0.0,
        "rdm_p50": median(rdm) if rdm else 2.0,
        "rdm_max": max(rdm, default=2.0),
        "mag_err_max": max(mag_err, default=1.0),
        "solved_share": len(m.accuracy) / m.attempted,
    }


def environment(workload, seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": workload.name,
        "seed": seed,
        "nproc": os.cpu_count(),
        "SYMMBEM_THREADS": os.environ.get("SYMMBEM_THREADS"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
    }


def run_workload(workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Measure one workload; returns the result object plus a record."""
    positions, moments = draw_dipoles(workload, seed)
    sources = [formulation.DipoleSource(p, q) for p, q in zip(positions, moments)]
    problems = []
    record = {"env": environment(workload, seed)}
    if not trace:
        m = measure(workload, sources, seconds, workloads.SETUPS)
        metrics = end_to_end_metrics(m)
        units = END_TO_END_UNITS
    else:
        # untraced reference for trace.overhead_s: one build, then warm passes
        plain = measure(workload, sources, seconds / 3, 1)
        tracer = Tracer()
        layers.install(tracer)
        try:
            m = measure(workload, sources, seconds, workloads.SETUPS)
            layers.probe_sparse_layers(tracer, m.head_model.meshes)
        finally:
            tracer.uninstall()
        if m.outcomes() != plain.outcomes():
            problems.append("traced and untraced runs differ in iterations or failures")
        census = layers.tier_census(m.head_model.meshes)
        for nt, ns, counted in census["per_surface_pair"]:
            if counted != nt * ns:
                problems.append(
                    f"the sweeps cover {counted} triangle pairs of a {nt} x {ns} surface pair"
                )
        hm = m.head_model
        rhs = hm.scale * formulation.assemble_rhs(hm.model, [sources[0]])
        t0 = time.perf_counter()
        _, raw = krylov.minres(hm.system.matrix, rhs)
        extra = {
            "krylov.minres_raw_iterations": raw.iterations,
            "krylov.minres_raw_s": time.perf_counter() - t0,
            # same sources, each at its mean over repeats, traced minus untraced
            "trace.overhead_s": sum(m.per_source_seconds()) - sum(plain.per_source_seconds()),
        }
        metrics = layers.per_layer_metrics(tracer, census, extra)
        units = {name: unit for name, unit, _, _ in layers.PER_LAYER}
        record["moves"] = layers.MOVES
        record["labels"] = layers.LABELS
        record["census"] = census
        record["overhead_passes"] = {"traced": len(m.passes), "untraced": len(plain.passes)}
        record["spans"] = tracer.to_json()
    problems += check(workload, m)
    record["sources"] = [
        {"index": r.index, "seconds": [p[r.index].seconds for p in m.passes],
         "iterations": r.iterations,
         "failure": r.failure, "message": r.message,
         "rdm_mag": m.accuracy.get(r.index)}
        for r in m.passes[0]
    ]
    record["setup_times"] = m.setup_times
    record["passes"] = len(m.passes)
    record["probe_seconds"] = m.probes
    record["solve_s_p50"] = median(m.per_source_seconds())
    record["total_s"] = m.total_s
    record["problems"] = problems
    result = {
        "correct": not problems,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    return result, record


def expected_metrics(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    result, record = run_workload(workload, args.seed, args.seconds, bool(args.trace))

    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    if emitted != expected_metrics(bool(args.trace)):
        raise RuntimeError("emitted metrics do not match BENCHMARK.json")
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    path = out / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({**record, "result": result}))

    print("env " + json.dumps(record["env"]))
    for r in record["sources"]:
        if r["failure"]:
            print(f"source {r['index']} failed ({r['failure']}): {r['message']}")
    for problem in record["problems"]:
        print(f"INCORRECT: {problem}", file=sys.stderr)
    for name, v in result["metrics"].items():
        note = ""
        if args.trace:
            label = layers.LABELS.get(name)
            note = f"  (moves {layers.MOVES[name]}{', ' + label if label else ''})"
        print(f"{name} = {v['value']:.6g} {v['unit']}{note}")
    print(f"solve_s_p50 = {record['solve_s_p50']:.6g} s  (raw seconds, not bounded: host drift)")
    print(f"record {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
