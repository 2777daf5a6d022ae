"""Fast self-test of the benchmark on both model shapes at subdivision 1.

Run from the checkout root: ``python3 -m pytest -q perfbench``.
"""

import dataclasses
import math

import numpy as np
import pytest

import layers
import pipeline
import worker
import workloads
from symmbem import bem_ops, geometry, krylov, precond
from workloads import WORKLOADS, Workload

SMALL = {name: dataclasses.replace(w, subdivisions=1, dipoles=3) for name, w in WORKLOADS.items()}


@pytest.fixture(autouse=True)
def small_runs(monkeypatch):
    """One build per run, and gates wide enough for subdivision-1 meshes."""
    monkeypatch.setattr(workloads, "SETUPS", 1)
    monkeypatch.setattr(workloads, "RDM_GATE", 0.5)
    monkeypatch.setattr(workloads, "MAG_GATE", 0.5)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(SMALL))
def test_result_schema(name, trace):
    result, record = worker.run_workload(SMALL[name], seed=0, seconds=0.0, trace=trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], record["problems"]
    assert result["attempted"] == 3 and 0 <= result["failed"] <= 3
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == worker.expected_metrics(trace)
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    assert [len(p) for p in record["probe_seconds"]] == [3] * record["passes"]
    if trace:
        assert set(layers.MOVES) == set(units)
        outer = [s["iterations"] for s in record["sources"] if s["iterations"] is not None]
        assert result["metrics"]["krylov.outer_iterations_max"]["value"] == max(outer)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_census_covers_every_triangle_pair(name):
    w = SMALL[name]
    hm = pipeline.build_head_model(w)
    census = layers.tier_census(hm.meshes)
    expected = 0
    for nt, ns, covered in census["per_surface_pair"]:
        assert covered == nt * ns
        expected += nt * ns
    assert sum(census["pairs"].values()) == expected
    assert len(census["per_surface_pair"]) == 2 * len(w.radii) - 1


def test_census_sees_a_pair_the_singular_sweep_drops(monkeypatch):
    real = bem_ops._touching_pairs

    def drop_one_edge_pair(mesh):
        edge_pairs, edge_charts, vertex_pairs, vertex_charts = real(mesh)
        return edge_pairs[1:], edge_charts, vertex_pairs, vertex_charts

    monkeypatch.setattr(bem_ops, "_touching_pairs", drop_one_edge_pair)
    mesh = geometry.make_icosphere(1, 1.0)
    [(nt, ns, covered)] = layers.tier_census([mesh])["per_surface_pair"]
    assert covered == nt * ns - 2


def test_injected_failures_are_counted_not_raised(monkeypatch):
    """Source 0 breaks down, source 1 stops unconverged, source 2 fails
    recovery; source 3 solves normally."""
    w = Workload("inject", (1.0,), (1.0, 0.0), 1, 4)
    monkeypatch.setattr(workloads, "RDM_GATE", 1.0)
    monkeypatch.setattr(workloads, "MAG_GATE", 1.0)
    outer_calls = []
    real_cg, real_recover = krylov.conjugate_gradient, precond.recover_solution

    def cg(A, b, **kwargs):
        if not isinstance(getattr(A, "__self__", None), precond.PrecondOperator):
            return real_cg(A, b, **kwargs)  # inner Laplacian solves run untouched
        outer_calls.append(1)
        if len(outer_calls) == 1:
            raise krylov.BreakdownError("injected breakdown")
        if len(outer_calls) == 2:
            return np.zeros_like(b), krylov.SolveReport(3, [1.0] * 3, False)
        return real_cg(A, b, **kwargs)

    def recover(op, y, **kwargs):
        if len(outer_calls) == 3:
            raise RuntimeError("recovered solution residual 1.000e-03 exceeds the limit")
        return real_recover(op, y, **kwargs)

    monkeypatch.setattr(krylov, "conjugate_gradient", cg)
    monkeypatch.setattr(precond, "recover_solution", recover)
    result, record = worker.run_workload(w, seed=0, seconds=0.0, trace=False)
    assert result["attempted"] == 4 and result["failed"] == 3
    assert [s["failure"] for s in record["sources"]] == [
        "cg:breakdown", "cg:not-converged", "recover:residual", None,
    ]
    assert result["metrics"]["solved_share"]["value"] == 0.25
    assert result["correct"], record["problems"]
