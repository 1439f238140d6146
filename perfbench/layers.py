"""Metric names, units, and how the per-layer figures are derived.

End-to-end metrics come from untraced runs.  Per-layer metrics come from a
traced worker: every ``*_s`` figure is the self time of that function's
spans (duration minus the time of traced calls it made), except
``axioms.verify_total_s`` which includes them.  Times and counts are per
pass of the job set, so they do not grow with run length.  ``cli.*`` probes
are medians over fresh interpreters; ``cli.main_ms`` is the warm
in-process ``cli.main(argv)`` call (``cli_cold`` only, 0 elsewhere).

``MOVES`` records which end-to-end metric, on which workload, each layer
metric is expected to move.
"""

import statistics

UNITS_E2E = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# metric -> (span name, what) where what is "self", "total" or "calls"
SPAN_METRICS = {
    "kernels.diagram_count_s": ("kernels.diagram_count", "self"),
    "kernels.diagram_count_calls": ("kernels.diagram_count", "calls"),
    "kernels.search_maps_s": ("kernels.search_maps", "self"),
    "kernels.search_maps_calls": ("kernels.search_maps", "calls"),
    "kernels.axiom_scan_s": ("kernels.axiom_scan", "self"),
    "kernels.axiom_scan_calls": ("kernels.axiom_scan", "calls"),
    "kernels.yang_baxter_s": ("kernels.yang_baxter", "self"),
    "axioms.verify_s": ("axioms.verify", "self"),
    "axioms.verify_total_s": ("axioms.verify", "total"),
    "axioms.verify_calls": ("axioms.verify", "calls"),
    "isomorphism.structural_iso_s": ("isomorphism.structural_iso", "self"),
    "isomorphism.brute_force_iso_s": ("isomorphism.brute_force_iso", "self"),
    "isomorphism.enumerate_s": ("isomorphism.enumerate", "self"),
    "modules.make_module_s": ("modules.make_module", "self"),
    "modules.module_isomorphisms_s": ("modules.module_isomorphisms", "self"),
    "alexander.make_alexander_s": ("alexander.make_alexander", "self"),
    "alexander.make_alexander_calls": ("alexander.make_alexander", "calls"),
    "alexander.make_switch_s": ("alexander.make_switch", "self"),
    "tables.flats_s": ("tables.flats", "self"),
    "tables.flats_calls": ("tables.flats", "calls"),
    "tables.parse_matrix_s": ("tables.parse_matrix", "self"),
    "tables.serialize_matrix_s": ("tables.serialize_matrix", "self"),
    "knot.parse_gauss_s": ("knot.parse_gauss", "self"),
    "knot.build_diagram_s": ("knot.build_diagram", "self"),
    "knot.count_homs_s": ("knot.count_homs", "self"),
}

# metric -> tracer counter, per pass
COUNT_METRICS = {
    "kernels.search_work": "search_work",
    "kernels.search_candidates": "search_candidates",
    "kernels.search_prunes": "search_prunes",
    "isomorphism.structural_candidates": "structural_candidates",
    "isomorphism.structural_prunes": "structural_prunes",
    "isomorphism.classify_calls": "classify_calls",
    "modules.submodule_isos_tried": "submodule_isos_tried",
}

RATIO_METRICS = (
    "kernels.search_success_ratio",
    "axioms.verify_cache_hit_ratio",
    "isomorphism.classify_hit_ratio",
)

PROBE_METRICS = ("cli.interp_ms", "cli.import_ms", "cli.main_ms")

TRACE_METRICS = {"trace.wall_s": "s", "trace.overhead_s": "s",
                 "trace.spans": "count"}


def _unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


UNITS_LAYER = {name: _unit(name) for name in
               (*SPAN_METRICS, *COUNT_METRICS, *RATIO_METRICS,
                *PROBE_METRICS)}
UNITS_LAYER.update(TRACE_METRICS)

# layer metric -> (end-to-end metric it should move, workloads)
MOVES = {
    "kernels.diagram_count_s": ("wall_s, job_p90_ms", "knot_count"),
    "kernels.diagram_count_calls": ("wall_s, job_p90_ms", "knot_count"),
    "kernels.search_maps_s": ("wall_s", "module_iso, enumerate"),
    "kernels.search_maps_calls": ("wall_s", "module_iso, enumerate"),
    "kernels.search_work": ("wall_s", "module_iso, enumerate"),
    "kernels.search_candidates": ("wall_s", "module_iso, enumerate"),
    "kernels.search_prunes": ("wall_s", "module_iso, enumerate"),
    "kernels.search_success_ratio": ("wall_s", "module_iso, enumerate"),
    "kernels.axiom_scan_s": ("job_p90_ms", "module_iso"),
    "kernels.axiom_scan_calls": ("job_p90_ms", "module_iso"),
    "kernels.yang_baxter_s": ("job_p90_ms", "module_iso"),
    "axioms.verify_s": ("wall_s", "enumerate"),
    "axioms.verify_total_s": ("wall_s", "enumerate"),
    "axioms.verify_calls": ("wall_s", "enumerate"),
    "axioms.verify_cache_hit_ratio": ("wall_s", "enumerate"),
    "isomorphism.structural_iso_s": ("wall_s", "module_iso"),
    "isomorphism.structural_candidates": ("wall_s", "module_iso"),
    "isomorphism.structural_prunes": ("wall_s", "module_iso"),
    "isomorphism.brute_force_iso_s": ("wall_s", "module_iso"),
    "isomorphism.enumerate_s": ("wall_s", "enumerate"),
    "isomorphism.classify_calls": ("wall_s", "enumerate"),
    "isomorphism.classify_hit_ratio": ("wall_s", "enumerate"),
    "modules.make_module_s": ("job_p50_ms", "cli_cold"),
    "modules.module_isomorphisms_s": ("wall_s", "module_iso"),
    "modules.submodule_isos_tried": ("wall_s", "module_iso"),
    "alexander.make_alexander_s": ("wall_s", "module_iso"),
    "alexander.make_alexander_calls": ("wall_s", "module_iso"),
    "alexander.make_switch_s": ("wall_s", "module_iso"),
    "tables.flats_calls": ("wall_s", "module_iso, enumerate"),
    "tables.flats_s": ("wall_s", "module_iso, enumerate"),
    "tables.parse_matrix_s": ("job_p50_ms", "cli_cold"),
    "tables.serialize_matrix_s": ("job_p50_ms", "cli_cold"),
    "knot.parse_gauss_s": ("wall_s", "knot_count"),
    "knot.build_diagram_s": ("wall_s", "knot_count"),
    "knot.count_homs_s": ("wall_s", "knot_count"),
    "cli.interp_ms": ("none (reference)", "cli_cold"),
    "cli.import_ms": ("job_p50_ms; setup_s", "cli_cold; all"),
    "cli.main_ms": ("job_p50_ms", "cli_cold"),
    "trace.wall_s": ("none (tracing cost)", "all"),
    "trace.overhead_s": ("none (tracing cost)", "all"),
    "trace.spans": ("none (tracing cost)", "all"),
}


def per_layer(workload, traced, probes, base_wall, traced_wall):
    """Per-layer metrics and self-time shares from a traced worker.

    ``probes`` holds the interpreter and import probes; ``base_wall`` and
    ``traced_wall`` are the job-set times, at the reference host speed, of
    an untraced worker and of the traced one, whose difference is the
    tracing overhead.
    """
    done = traced.done or {}
    totals = done.get("layers", {})
    counts = done.get("counts", {})
    # cli_cold traces the library only inside its in-process main rounds
    per = done.get("main_rounds") if workload == "cli_cold" else None
    per = per or max(len(traced.passes), 1)
    column = {"calls": 0, "total": 1, "self": 2}
    metrics = {}
    for name, (span, what) in SPAN_METRICS.items():
        metrics[name] = totals.get(span, [0, 0.0, 0.0])[column[what]] / per
    for name, counter in COUNT_METRICS.items():
        metrics[name] = counts.get(counter, 0) / per
    calls = totals.get("kernels.search_maps", [0])[0]
    metrics["kernels.search_success_ratio"] = \
        counts.get("search_found", 0) / calls if calls else 0.0
    lookups = done.get("verify_hits", 0) + done.get("verify_misses", 0)
    metrics["axioms.verify_cache_hit_ratio"] = \
        done.get("verify_hits", 0) / lookups if lookups else 0.0
    classified = counts.get("classify_calls", 0)
    metrics["isomorphism.classify_hit_ratio"] = \
        counts.get("classify_hits", 0) / classified if classified else 0.0
    metrics["cli.interp_ms"] = probes["interp_ms"]
    metrics["cli.import_ms"] = probes["import_ms"]
    metrics["cli.main_ms"] = done.get("main_ms", 0.0)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - base_wall
    metrics["trace.spans"] = done.get("spans", 0) / per

    # share of traced time spent in each span's own code
    shares = {}
    whole = sum(entry[2] for entry in totals.values())
    for span, (calls_, total, self_s) in totals.items():
        if whole:
            shares[span] = self_s / whole
    if workload == "cli_cold" and traced.jobs:
        cold = statistics.median(
            ms for p, _, ms, _, _ in traced.jobs if p != "main")
        shares = {"cli.interp": probes["interp_ms"] / cold,
                  "cli.import": probes["import_ms"] / cold,
                  "cli.main": metrics["cli.main_ms"] / cold}
    return metrics, shares
