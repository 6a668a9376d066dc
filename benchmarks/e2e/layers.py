"""The metric catalogue and the per-layer arithmetic of the traced run.

``END_TO_END`` and ``PER_LAYER`` are the single list of metric names;
``BENCHMARK.json`` repeats them (a test keeps the two equal) and the
README explains them.  Each per-layer row also says which layer it
belongs to and which end-to-end metric it should move on which workload —
the prediction a later performance change is checked against.
"""

from __future__ import annotations

from trace import NAME, PARENT, SIZE, aggregate, ancestor, child_sizes

STATEMENTS = ("pr", "wcc", "sssp", "tc", "ktruss", "point", "scan_filter",
              "group_agg", "join2", "join4", "triangle", "ins1", "ins8",
              "ins64", "del4")

#: (name, unit, better) — what ``--trace 0`` prints; each has a bound in
#: BENCHMARK.json.  Raw cycle seconds are measured too but are per-layer
#: (ungated): on the shared reference host they spread 0.11 between seeds
#: where the calibrated medians spread 0.06, and the host has run twice as
#: slow for minutes at a time.
END_TO_END: tuple[tuple[str, str, str], ...] = (
    ("setup_s", "s", "lower"),
    ("op_cal.p50", "cal", "lower"),
    ("default_op_cal.p50", "cal", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
)

_FIX, _CLO, _ADH, _ING = ("fixpoint_agg", "closure_pattern", "adhoc_sql",
                          "ingest_refresh")

#: (name, unit, better, layer, moves, on workloads) — ``--trace 1``.
PER_LAYER: tuple[tuple[str, str, str, str, str, str], ...] = (
    ("op_s.p50", "s", "lower", "bench", "-", "all"),
    ("default_op_s.p50", "s", "lower", "bench", "-", "all"),
    ("engine.dispatch_ms", "ms", "lower", "engine", "op_cal.p50", _ADH),
    ("sql.parse_ms", "ms", "lower", "sql", "op_cal.p50", _ADH),
    ("sql.compile_ms", "ms", "lower", "sql", "op_cal.p50", _ADH),
    ("sql.statements", "count", "lower", "sql", "-", _ADH),
    ("optimizer.join_order_ms", "ms", "lower", "optimizer",
     "op_cal.p50", f"{_ADH},{_CLO}"),
    ("optimizer.annotate_ms", "ms", "lower", "optimizer",
     "op_cal.p50", _ADH),
    ("optimizer.replans", "count", "lower", "optimizer", "op_cal.p50",
     f"{_FIX},{_CLO}"),
    ("statistics.analyze_ms", "ms", "lower", "statistics",
     "op_cal.p50", _ADH),
    ("statistics.refreshes", "count", "lower", "statistics",
     "op_cal.p50", _ADH),
    ("recursive.loop_self_ms", "ms", "lower", "recursive",
     "op_cal.p50", f"{_FIX},{_CLO}"),
    ("recursive.iterations", "count", "lower", "recursive",
     "op_cal.p50", f"{_FIX},{_CLO}"),
    ("recursive.delta_rows", "count", "lower", "recursive",
     "op_cal.p50", f"{_FIX},{_CLO}"),
    ("recursive.plans_compiled", "count", "lower", "recursive",
     "op_cal.p50", f"{_FIX},{_CLO}"),
    ("recursive.plan_cache_hits", "count", "higher", "recursive",
     "op_cal.p50", f"{_FIX},{_CLO}"),
    ("physical.join_ms", "ms", "lower", "physical", "op_cal.p50",
     f"{_FIX},{_CLO},{_ADH}"),
    ("physical.aggregate_ms", "ms", "lower", "physical", "op_cal.p50",
     f"{_FIX},{_ADH}"),
    ("physical.other_ms", "ms", "lower", "physical", "op_cal.p50",
     f"{_FIX},{_CLO},{_ADH}"),
    ("physical.join_rows_out", "count", "lower", "physical",
     "op_cal.p50", f"{_FIX},{_CLO},{_ADH}"),
    ("physical.aggregate_rows_in", "count", "lower", "physical",
     "op_cal.p50", f"{_FIX},{_ADH}"),
    ("physical.rows_examined_per_result", "x", "lower", "physical",
     "op_cal.p50", f"{_FIX},{_CLO},{_ADH}"),
    ("strategies.ubu_ms", "ms", "lower", "strategies", "op_cal.p50", _FIX),
    ("strategies.consolidate_ms", "ms", "lower", "strategies",
     "op_cal.p50", _FIX),
    ("strategies.ubu_inserted", "count", "lower", "strategies", "-", _FIX),
    ("strategies.ubu_overwritten", "count", "lower", "strategies", "-",
     _FIX),
    ("strategies.ubu_pruned", "count", "lower", "strategies",
     "op_cal.p50", _FIX),
    ("strategies.ubu_useful_ratio", "x", "higher", "strategies",
     "op_cal.p50", _FIX),
    ("table.merge_ms", "ms", "lower", "table", "op_cal.p50", _FIX),
    ("table.insert_ms", "ms", "lower", "table", "op_cal.p50",
     f"{_CLO},{_ING}"),
    ("table.delete_ms", "ms", "lower", "table", "op_cal.p50", _ING),
    ("table.resident_bytes.default", "B", "lower", "table",
     "peak_rss_mb", "all"),
    ("columnar.seal_ms", "ms", "lower", "columnar", "op_cal.p50", _CLO),
    ("columnar.blocks_sealed", "count", "lower", "columnar",
     "op_cal.p50", _CLO),
    ("columnar.decode_ms", "ms", "lower", "columnar", "op_cal.p50",
     f"{_FIX},{_ADH},{_ING}"),
    ("columnar.decodes", "count", "lower", "columnar", "op_cal.p50",
     f"{_FIX},{_ADH},{_ING}"),
    ("columnar.join_index_ms", "ms", "lower", "columnar", "op_cal.p50",
     f"{_FIX},{_ADH},{_ING}"),
    ("columnar.join_index_builds", "count", "lower", "columnar",
     "op_cal.p50", f"{_FIX},{_ADH},{_ING}"),
    ("columnar.resident_bytes", "B", "lower", "columnar", "peak_rss_mb",
     "all"),
    ("columnar.bytes_per_row", "B", "lower", "columnar", "peak_rss_mb",
     "all"),
    ("streaming.apply_self_ms", "ms", "lower", "streaming",
     "op_cal.p50", _ING),
    ("streaming.refresh_ms.pagerank", "ms", "lower", "streaming",
     "op_cal.p50", _ING),
    ("streaming.refresh_ms.wcc", "ms", "lower", "streaming",
     "op_cal.p50", _ING),
    ("streaming.refresh_ms.sssp", "ms", "lower", "streaming",
     "op_cal.p50", _ING),
    ("streaming.incremental_share", "x", "higher", "streaming",
     "op_cal.p50", _ING),
    ("streaming.full_refreshes", "count", "lower", "streaming",
     "op_cal.p50", _ING),
    *((f"stmt.{name}.{profile}_ms", "ms", "lower", "core.algorithms",
       "op_cal.p50" if profile == "best" else "default_op_cal.p50",
       "owner")
      for name in STATEMENTS for profile in ("best", "default")),
    ("stmt.adhoc.p90_ms", "ms", "lower", "core.algorithms", "-", _ADH),
    ("algorithms.load_ms", "ms", "lower", "core.algorithms", "setup_s",
     "all"),
    ("work_per_s", "1/s", "higher", "core.algorithms", "op_cal.p50", "all"),
    ("default_work_per_s", "1/s", "higher", "core.algorithms",
     "default_op_cal.p50", "all"),
    ("op_s.samples", "count", "higher", "bench", "-", "all"),
    ("default_op_s.samples", "count", "higher", "bench", "-", "all"),
    ("graphsystems.gas_pr_s", "s", "lower", "graphsystems", "-", _FIX),
    ("graphsystems.gas_wcc_s", "s", "lower", "graphsystems", "-", _FIX),
    ("graphsystems.gas_sssp_s", "s", "lower", "graphsystems", "-", _FIX),
    ("graphsystems.vs_gas_pr_x", "x", "lower", "graphsystems", "-", _FIX),
    ("parallel.pr_x", "x", "lower", "parallel", "-", _FIX),
    ("parallel.shipped_bytes", "B", "lower", "parallel", "-", _FIX),
    ("observability.telemetry_on_x", "x", "lower", "observability", "-",
     "all"),
    ("bench.trace_overhead_x", "x", "lower", "bench", "-", "all"),
    ("bench.trace_coverage", "x", "higher", "bench", "-", "all"),
    ("bench.traced_cycle_ms", "ms", "lower", "bench", "-", "all"),
    ("bench.calib_ms.p50", "ms", "lower", "bench", "-", "all"),
    ("bench.calib_spread", "x", "lower", "bench", "-", "all"),
)

#: span name -> per-layer time metric it feeds
_TIME_OF = {
    "engine.dispatch": "engine.dispatch_ms",
    "sql.parse": "sql.parse_ms",
    "sql.compile": "sql.compile_ms",
    "optimizer.join_order": "optimizer.join_order_ms",
    "optimizer.annotate": "optimizer.annotate_ms",
    "statistics.analyze": "statistics.analyze_ms",
    "recursive.loop": "recursive.loop_self_ms",
    "physical.join": "physical.join_ms",
    "physical.join.gather": "physical.join_ms",
    "physical.aggregate": "physical.aggregate_ms",
    "physical.other": "physical.other_ms",
    "strategies.ubu": "strategies.ubu_ms",
    "strategies.consolidate": "strategies.consolidate_ms",
    "table.merge": "table.merge_ms",
    "table.insert": "table.insert_ms",
    "table.delete": "table.delete_ms",
    "columnar.seal": "columnar.seal_ms",
    "columnar.decode": "columnar.decode_ms",
    "columnar.join_index": "columnar.join_index_ms",
    "streaming.apply": "streaming.apply_self_ms",
    "streaming.refresh.pagerank": "streaming.refresh_ms.pagerank",
    "streaming.refresh.wcc": "streaming.refresh_ms.wcc",
    "streaming.refresh.sssp": "streaming.refresh_ms.sssp",
}

_OPERATORS = ("physical.join", "physical.aggregate", "physical.other")


def layer_of(metric: str) -> str:
    return metric.split(".", 1)[0]


def traced_metrics(spans: list[list], kept: list[tuple],
                   cycles: int) -> dict[str, float]:
    """Per-layer numbers of the traced cycles, averaged per cycle.

    *kept* pairs a span index with the value that call returned: the
    ``WithExecutionResult`` of every recursive loop and the
    ``BatchResult`` of every ``apply_batch``.
    """
    totals = aggregate(spans)
    out = {name: 0.0 for name in set(_TIME_OF.values())}
    for span_name, metric in _TIME_OF.items():
        out[metric] += totals.get(span_name, {}).get("self_s", 0.0) \
            * 1000.0 / cycles

    def calls(span_name: str) -> float:
        return totals.get(span_name, {}).get("calls", 0) / cycles

    traced_s = sum(entry["self_s"] for entry in totals.values())
    layers_s = sum(entry["self_s"] for name, entry in totals.items()
                   if name in _TIME_OF)
    out["bench.trace_coverage"] = layers_s / traced_s if traced_s else 0.0
    out["bench.traced_cycle_ms"] = traced_s * 1000.0 / cycles

    out["sql.statements"] = calls("sql.parse")
    out["statistics.refreshes"] = calls("statistics.analyze")
    out["columnar.blocks_sealed"] = calls("columnar.seal")
    out["columnar.decodes"] = calls("columnar.decode")
    parents = {span[PARENT] for span in spans}
    out["columnar.join_index_builds"] = sum(
        1 for index, span in enumerate(spans)
        if span[NAME] == "columnar.join_index" and index in parents) / cycles

    join_rows = totals.get("physical.join", {}).get("size", 0)
    aggregate_in = child_sizes(spans, "physical.aggregate", _OPERATORS)
    out["physical.join_rows_out"] = join_rows / cycles
    out["physical.aggregate_rows_in"] = aggregate_in / cycles
    # Rows the timed statements returned: the facade calls made directly
    # under a statement span (the streaming views' own queries are not).
    result_rows = sum(
        span[SIZE] for span in spans if span[NAME] == "engine.dispatch"
        and spans[span[PARENT]][NAME].startswith("stmt:"))
    out["physical.rows_examined_per_result"] = (
        (join_rows + aggregate_in) / result_rows if result_rows else 0.0)

    # A loop used union by update iff apply_union_by_update ran inside it.
    ubu_loops = {ancestor(spans, index, ("recursive.loop",))
                 for index, span in enumerate(spans)
                 if span[NAME] == "strategies.ubu"}
    recursive = dict.fromkeys(("iterations", "delta_rows", "plans_compiled",
                               "plan_cache_hits", "replans"), 0)
    ubu = dict.fromkeys(("inserted", "overwritten", "pruned", "delta"), 0)
    modes: list[str] = []
    for index, value in kept:
        if spans[index][NAME] == "streaming.apply":
            modes.extend(value.views.values())
            continue
        recursive["iterations"] += value.iterations
        recursive["plans_compiled"] += value.plans_compiled
        recursive["plan_cache_hits"] += value.plan_cache_hits
        recursive["replans"] += value.replans
        for stat in value.per_iteration:
            recursive["delta_rows"] += stat.delta_rows
            if index in ubu_loops:
                ubu["inserted"] += stat.inserted
                ubu["overwritten"] += stat.overwritten
                ubu["pruned"] += stat.pruned
                ubu["delta"] += stat.delta_rows
    for key in ("iterations", "delta_rows", "plans_compiled",
                "plan_cache_hits"):
        out[f"recursive.{key}"] = recursive[key] / cycles
    out["optimizer.replans"] = recursive["replans"] / cycles
    for key in ("inserted", "overwritten", "pruned"):
        out[f"strategies.ubu_{key}"] = ubu[key] / cycles
    out["strategies.ubu_useful_ratio"] = (
        (ubu["inserted"] + ubu["overwritten"]) / ubu["delta"]
        if ubu["delta"] else 0.0)
    out["streaming.full_refreshes"] = modes.count("full") / cycles
    out["streaming.incremental_share"] = (
        modes.count("incremental") / len(modes) if modes else 0.0)
    return out
