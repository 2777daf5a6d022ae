"""Per-layer accounting: the wrapped symmbem calls, the quadrature census
and the per-layer metrics derived from a traced run.

Set-up layers are reported as the median over the run's head-model builds,
per-source layers as the median over its solved sources.  ``MOVES`` names
the end-to-end metric each per-layer metric should move.
"""

from __future__ import annotations

import re
from statistics import median

import numpy as np
import scipy.sparse as sp

from symmbem import _quadrature as quad
from symmbem import bem_ops, formulation, geometry, krylov, laplacians, oracle, precond, spaces

import pipeline

TIERS = ("coincident", "edge", "vertex", "6x16", "6x4", "6", "3")

# name, unit, better, end-to-end metric it should move
PER_LAYER = [
    ("geometry.make_icosphere_s", "s", "lower", "setup_s"),
    ("geometry.nested_model_s", "s", "lower", "setup_s"),
    ("geometry.compartment_of_s", "s", "lower", "solve_rel_p50"),
    ("bem_ops.self_pair_s", "s", "lower", "setup_s"),
    ("bem_ops.self_pair_calls", "count", "lower", "setup_s"),
    ("bem_ops.cross_pair_s", "s", "lower", "setup_s"),
    ("bem_ops.cross_pair_calls", "count", "lower", "setup_s"),
    *[(f"bem_ops.pairs.{t}", "count", "lower", "setup_s") for t in TIERS],
    *[(f"bem_ops.kernel_evals.{t}", "count", "lower", "setup_s") for t in TIERS],
    ("bem_ops.dense_bytes", "bytes", "lower", "peak_rss_mb"),
    ("bem_ops.d_rowsum_defect_self", "1", "lower", "rdm_max"),
    ("bem_ops.d_rowsum_defect_cross", "1", "lower", "rdm_max"),
    ("formulation.assemble_system_s", "s", "lower", "setup_s"),
    ("formulation.assemble_system_self_s", "s", "lower", "setup_s"),
    ("formulation.conductivity_rescale_s", "s", "lower", "setup_s"),
    ("formulation.assemble_rhs_s", "s", "lower", "solve_rel_p50"),
    ("spaces.gram_p1_s", "s", "lower", "setup_s"),
    ("spaces.gram_p0_s", "s", "lower", "setup_s"),
    ("spaces.mixed_gram_dual_s", "s", "lower", "setup_s"),
    ("laplacians.primal_laplace_beltrami_s", "s", "lower", "setup_s"),
    ("laplacians.dual_laplacian_s", "s", "lower", "setup_s"),
    ("precond.build_s", "s", "lower", "setup_s"),
    ("precond.apply_s", "s", "lower", "solve_rel_p50"),
    ("precond.apply_calls", "count", "lower", "solve_rel_p50"),
    ("precond.primal_solve_s", "s", "lower", "solve_rel_p50"),
    ("precond.primal_solve_calls", "count", "lower", "solve_rel_p50"),
    ("precond.dual_solve_s", "s", "lower", "solve_rel_p50"),
    ("precond.dual_solve_calls", "count", "lower", "solve_rel_p50"),
    ("precond.dense_matvec_s", "s", "lower", "solve_rel_p50"),
    ("precond.inner_iterations_p50", "count", "lower", "solve_rel_p50"),
    ("precond.recover_solution_s", "s", "lower", "solved_share"),
    ("precond.recover_residual_max", "1", "lower", "solved_share"),
    ("krylov.cg_s", "s", "lower", "solve_rel_p50"),
    ("krylov.cg_self_s", "s", "lower", "solve_rel_p50"),
    ("krylov.outer_iterations_max", "count", "lower", "outer_iterations_p50"),
    ("krylov.ritz_min", "1", "higher", "outer_iterations_p50"),
    ("krylov.ritz_max", "1", "lower", "outer_iterations_p50"),
    ("krylov.cond", "1", "lower", "outer_iterations_p50"),
    ("krylov.minres_raw_iterations", "count", "lower", "none"),
    ("krylov.minres_raw_s", "s", "lower", "none"),
    ("oracle.reference_s", "s", "lower", "none"),
    ("trace.overhead_s", "s", "lower", "none"),
]
MOVES = {name: moves for name, _, _, moves in PER_LAYER}

#: metrics not timed or counted at a call: computed from the meshes and the
#: quadrature rules, or derived as a span minus its direct children
LABELS = {
    **{f"bem_ops.{kind}.{t}": "computed" for kind in ("pairs", "kernel_evals") for t in TIERS},
    "formulation.assemble_system_self_s": "derived",
    "precond.dense_matvec_s": "derived",
    "krylov.cg_self_s": "derived",
    "trace.overhead_s": "derived",
}

_RESIDUAL = re.compile(r"residual ([0-9.eE+-]+)")


def _rowsum_defect(span, args, blocks):
    """Double-layer row sums against the exact constant-field values, read
    before ``assemble_system`` calibrates the blocks in place."""
    mesh_t, mesh_s = args[0], args[1]
    span.attrs["dense_bytes"] = sum(b.matrix.nbytes for b in blocks.values())
    if "D" not in blocks:
        return
    d = blocks["D"].matrix
    if mesh_t is mesh_s:
        defect = np.abs(d.sum(axis=1) + 0.5 * mesh_t.areas) / mesh_t.areas
    else:  # mesh_t inside mesh_s: D rows see -1, Dstar columns see 0
        defect = np.abs(d.sum(axis=1) + mesh_t.areas) / mesh_t.areas
        if "Dstar" in blocks:
            ds = blocks["Dstar"].matrix.sum(axis=0)
            defect = np.concatenate([defect, np.abs(ds) / mesh_s.areas])
    span.attrs["defect"] = float(defect.max())


def _recover_residual(span, args, result):
    span.attrs["residual"] = float(result[1])


def _recover_error(span, args, exc):
    m = _RESIDUAL.search(str(exc))
    if m:
        span.attrs["residual"] = float(m.group(1))


def _cg_report(span, args, result):
    report = result[1]
    span.attrs.update(
        iterations=report.iterations, ritz_min=report.ritz_min, ritz_max=report.ritz_max
    )


def install(tracer):
    """Wrap the pipeline's calls into every layer; undo with ``tracer.uninstall()``."""
    tracer.wrap(pipeline, "build_head_model", "bench.setup")
    tracer.wrap(pipeline, "solve_source", "bench.source")
    tracer.wrap(geometry, "make_icosphere", "geometry.make_icosphere")
    tracer.wrap(geometry.NestedModel, "compartment_of", "geometry.compartment_of")
    tracer.wrap(geometry, "NestedModel", "geometry.nested_model")
    tracer.wrap(formulation, "assemble_system", "formulation.assemble_system")
    tracer.wrap(
        bem_ops,
        "assemble_operators",
        lambda a: "bem_ops.self_pair" if a[0] is a[1] else "bem_ops.cross_pair",
        on_return=_rowsum_defect,
    )
    tracer.wrap(formulation, "conductivity_rescale", "formulation.conductivity_rescale")

    def wrap_solvers(span, args, op):
        for solvers, name in ((op.primal_solvers, "precond.primal_solve"),
                              (op.dual_solvers, "precond.dual_solve")):
            for i, fn in enumerate(solvers):
                if fn is not None:
                    solvers[i] = tracer.traced(fn, name)

    tracer.wrap(precond, "build", "precond.build", on_return=wrap_solvers)
    tracer.wrap(formulation, "assemble_rhs", "formulation.assemble_rhs")
    tracer.wrap(precond.PrecondOperator, "apply", "precond.apply")
    tracer.wrap(
        krylov,
        "conjugate_gradient",
        lambda a: (
            "krylov.inner_cg" if "precond.primal_solve" in tracer.open_names() else "krylov.cg"
        ),
        on_return=_cg_report,
    )
    tracer.wrap(precond, "recover_solution", "precond.recover_solution",
                on_return=_recover_residual, on_error=_recover_error)
    tracer.wrap(oracle, "layered_sphere_potential", "oracle.reference")
    tracer.wrap(oracle, "single_sphere_insulated_potential", "oracle.reference")


def probe_sparse_layers(tracer, meshes, repeats: int = 3):
    """Time the sparse Gram and Laplacian builders directly on the meshes."""
    calls = (
        ("spaces.gram_p1", lambda m: spaces.gram_p1(spaces.pyramid_space(m))),
        ("spaces.gram_p0", lambda m: spaces.gram_p0(spaces.patch_space(m))),
        ("spaces.mixed_gram_dual", spaces.mixed_gram_dual),
        ("laplacians.primal_laplace_beltrami", laplacians.primal_laplace_beltrami),
        ("laplacians.dual_laplacian", laplacians.dual_laplacian),
    )
    for _ in range(repeats):
        with tracer.span("bench.probe"):
            for name, fn in calls:
                for mesh in meshes:
                    with tracer.span(name):
                        fn(mesh)


def _surface_pairs(meshes):
    """The (target, source) surface pairs ``assemble_system`` assembles."""
    pairs = [(m, m) for m in meshes]
    return pairs + [(meshes[i], meshes[i + 1]) for i in range(len(meshes) - 1)]


def tier_census(meshes, cfg=None) -> dict:
    """Ordered triangle pairs and kernel evaluations per quadrature tier.

    The regular tiers are computed from the meshes and the quadrature
    configuration with the rule ``_regular_sweep`` applies, which also
    excludes every same-surface pair that shares a vertex.  The touching
    pairs are counted from ``bem_ops._touching_pairs``, the classification
    the singular sweep runs; it visits each unordered pair once and fills
    both orientations.  ``per_surface_pair`` holds ``(n_t, n_s, covered)``:
    ``covered == n_t * n_s`` only when the two sweeps together cover every
    ordered pair exactly once.
    """
    cfg = cfg or bem_ops.DEFAULT_QUADRATURE
    thresholds = np.array([t for t, _ in cfg.near_tiers])
    rules = [rule for _, rule in cfg.near_tiers] + [cfg.far_points]
    pairs = dict.fromkeys(TIERS, 0)
    evals = dict.fromkeys(TIERS, 0)
    per_surface_pair = []
    for mesh_t, mesh_s in _surface_pairs(meshes):
        dist = np.linalg.norm(mesh_t.centroids[:, None, :] - mesh_s.centroids[None, :, :], axis=2)
        ratio = dist / np.maximum(mesh_t.diameters[:, None], mesh_s.diameters[None, :])
        tier = np.searchsorted(thresholds, ratio)
        covered = 0
        if mesh_t is mesh_s:
            nc, nv = mesh_t.num_triangles, mesh_t.num_vertices
            vinc = sp.coo_matrix(
                (np.ones(3 * nc), (mesh_t.triangles.ravel(), np.repeat(np.arange(nc), 3))),
                shape=(nv, nc),
            ).tocsr()
            tier[(vinc.T @ vinc).toarray() > 0] = -1
            edge_pairs, _, vertex_pairs, _ = bem_ops._touching_pairs(mesh_t)
            for name, visited, category in (
                ("coincident", nc, quad.COINCIDENT),
                ("edge", len(edge_pairs), quad.EDGE),
                ("vertex", len(vertex_pairs), quad.VERTEX),
            ):
                ordered = visited if name == "coincident" else 2 * visited
                n_points = len(quad.sauter_schwab_rule(category, cfg.singular_order)[2])
                pairs[name] += ordered
                evals[name] += visited * n_points
                covered += ordered
        for k, rule in enumerate(rules):
            n = int(np.count_nonzero(tier == k))
            q = len(quad.TRI_RULES[rule][1])
            pairs[str(rule)] += n
            evals[str(rule)] += n * q * q
            covered += n
        per_surface_pair.append((mesh_t.num_triangles, mesh_s.num_triangles, covered))
    return {"pairs": pairs, "kernel_evals": evals, "per_surface_pair": per_surface_pair}


def _med(values, default=0.0):
    values = list(values)
    return float(median(values)) if values else default


def per_layer_metrics(tracer, census: dict, extra: dict) -> dict:
    """Every ``PER_LAYER`` metric from the recorded spans, the census and
    the values the worker measured itself (``extra``)."""
    spans = tracer.spans
    children = tracer.children()
    root = []
    for s in spans:
        root.append(len(root) if s.parent is None else root[s.parent])

    def groups(root_name):
        """Per root span of that name: {span name: [total s, calls, self s]}."""
        out = {}
        for i, s in enumerate(spans):
            r = root[i]
            if spans[r].name != root_name:
                continue
            g = out.setdefault(r, {})
            acc = g.setdefault(s.name, [0.0, 0, 0.0])
            acc[0] += s.seconds
            acc[1] += 1
            acc[2] += tracer.self_seconds(i, children)
        return list(out.values())

    setups, sources, probes = groups("bench.setup"), groups("bench.source"), groups("bench.probe")
    dense_bytes = {}  # per build: bytes of the operator blocks it assembled
    for i, s in enumerate(spans):
        if "dense_bytes" in s.attrs:
            dense_bytes[root[i]] = dense_bytes.get(root[i], 0) + s.attrs["dense_bytes"]

    def med(groups_, name, field=0):
        return _med(g.get(name, [0.0, 0, 0.0])[field] for g in groups_)

    def attrs(name, key):
        return [s.attrs[key] for s in spans if s.name == name and s.attrs.get(key) is not None]

    m = {
        "geometry.make_icosphere_s": med(setups, "geometry.make_icosphere"),
        "geometry.nested_model_s": med(setups, "geometry.nested_model"),
        "geometry.compartment_of_s": med(sources, "geometry.compartment_of"),
        "bem_ops.self_pair_s": med(setups, "bem_ops.self_pair"),
        "bem_ops.self_pair_calls": med(setups, "bem_ops.self_pair", 1),
        "bem_ops.cross_pair_s": med(setups, "bem_ops.cross_pair"),
        "bem_ops.cross_pair_calls": med(setups, "bem_ops.cross_pair", 1),
        "bem_ops.dense_bytes": _med(dense_bytes.values()),
        "bem_ops.d_rowsum_defect_self": max(attrs("bem_ops.self_pair", "defect"), default=0.0),
        "bem_ops.d_rowsum_defect_cross": max(attrs("bem_ops.cross_pair", "defect"), default=0.0),
        "formulation.assemble_system_s": med(setups, "formulation.assemble_system"),
        "formulation.assemble_system_self_s": med(setups, "formulation.assemble_system", 2),
        "formulation.conductivity_rescale_s": med(setups, "formulation.conductivity_rescale"),
        "formulation.assemble_rhs_s": med(sources, "formulation.assemble_rhs"),
        "precond.build_s": med(setups, "precond.build"),
        "precond.apply_s": med(sources, "precond.apply"),
        "precond.apply_calls": med(sources, "precond.apply", 1),
        "precond.primal_solve_s": med(sources, "precond.primal_solve"),
        "precond.primal_solve_calls": med(sources, "precond.primal_solve", 1),
        "precond.dual_solve_s": med(sources, "precond.dual_solve"),
        "precond.dual_solve_calls": med(sources, "precond.dual_solve", 1),
        "precond.dense_matvec_s": med(sources, "precond.apply", 2),
        "precond.inner_iterations_p50": _med(attrs("krylov.inner_cg", "iterations")),
        "precond.recover_solution_s": med(sources, "precond.recover_solution"),
        "precond.recover_residual_max": max(attrs("precond.recover_solution", "residual"), default=0.0),
        "krylov.cg_s": med(sources, "krylov.cg"),
        "krylov.cg_self_s": med(sources, "krylov.cg", 2),
        "krylov.outer_iterations_max": max(attrs("krylov.cg", "iterations"), default=0),
        "krylov.ritz_min": min(attrs("krylov.cg", "ritz_min"), default=0.0),
        "krylov.ritz_max": max(attrs("krylov.cg", "ritz_max"), default=0.0),
        "oracle.reference_s": _med(s.seconds for s in spans if s.name == "oracle.reference"),
    }
    m["krylov.cond"] = m["krylov.ritz_max"] / m["krylov.ritz_min"] if m["krylov.ritz_min"] else 0.0
    for name in ("gram_p1", "gram_p0", "mixed_gram_dual"):
        m[f"spaces.{name}_s"] = med(probes, f"spaces.{name}")
    for name in ("primal_laplace_beltrami", "dual_laplacian"):
        m[f"laplacians.{name}_s"] = med(probes, f"laplacians.{name}")
    for tier in TIERS:
        m[f"bem_ops.pairs.{tier}"] = census["pairs"][tier]
        m[f"bem_ops.kernel_evals.{tier}"] = census["kernel_evals"][tier]
    m.update(extra)
    return m
