"""Benchmark of the symmbem EEG forward pipeline on concentric-sphere models.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload shells3-sub2 --seed 0 --seconds 25 --trace 0

Each workload runs in a fresh process with BLAS pinned to one thread and
``SYMMBEM_THREADS`` to at most two, so peak RSS and the tracing wrappers
stay per workload.  Without ``--workload`` every workload in
``BENCHMARK.json`` runs in sequence.  The last line printed for a workload
is its result object: ``correct``, ``attempted``, ``failed`` and the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
A full record (environment, per-source outcomes, spans) is written under
``.bench_out/``.  Self-test: ``PYTHONPATH=src python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
TIMEOUT_S = 170


def pinned_environment() -> dict:
    threads = str(min(2, os.cpu_count() or 1))
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        SYMMBEM_THREADS=threads,
        PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])),
    )
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "symmbem" / "__init__.py").is_file():
        print(f"no symmbem sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    if args.workload is not None and args.workload not in names:
        print(f"unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2

    status = 0
    for name in [args.workload] if args.workload else names:
        cmd = [sys.executable, str(WORKER), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(seconds), "--trace", str(args.trace)]
        try:
            proc = subprocess.run(cmd, env=pinned_environment(), cwd=ROOT, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"{name}: no result within {TIMEOUT_S} s", file=sys.stderr)
            return 3
        status = status or proc.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
