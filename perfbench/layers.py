"""Per-layer metrics of a traced run, named after the repository's modules.

Times are inclusive span durations: the mean per call unless the name
says otherwise (``versioning.publish_ms`` is per settle).  A layer that
a workload never enters reports 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from perfbench.phases import percentile
from perfbench.spans import Tracer, covered

#: Every per-layer metric, with its unit, in report order.
LAYER_METRICS: dict[str, str] = {
    "spl.update_slen_ms": "ms",
    "spl.coalesce_ms": "ms",
    "spl.coalesce_partitioned_ms": "ms",
    "spl.rows_recomputed_per_delta": "rows/delta",
    "batching.plan_ms": "ms",
    "batching.compile_ms": "ms",
    "batching.compiled_away_ratio": "ratio",
    "batching.route.per_update": "count",
    "batching.route.coalesced": "count",
    "batching.route.partitioned": "count",
    "elimination.detect_ms": "ms",
    "elimination.eh_tree_ms": "ms",
    "elimination.eliminated_ratio": "ratio",
    "algorithms.subsequent_query_p50_ms": "ms",
    "algorithms.subsequent_query_total_ms": "ms",
    "matching.amend_ms": "ms",
    "matching.topk_ms": "ms",
    "matching.fanout_skip_ratio": "ratio",
    "versioning.publish_ms": "ms",
    "versioning.read_ms": "ms",
    "service.settle_ms": "ms",
    "service.ingest_wait_ms": "ms",
    "service.delta.parse_ms": "ms",
    "service.cut_to_settle_ms": "ms",
    "service.settles": "count",
    "service.deltas_per_settle": "deltas",
    "service.cuts.crossover": "count",
    "service.cuts.deadline": "count",
    "service.cuts.capacity": "count",
    "service.journal.append_ms": "ms",
    "service.journal.appends": "count",
    "service.journal.bytes_per_delta": "B/delta",
    "service.journal.checkpoint_ms": "ms",
    "service.journal.compact_ms": "ms",
    "service.journal.compactions": "count",
    "service.journal.open_ms": "ms",
    "gen.lateness_p99_ms": "ms",
    "gen.backlog_end": "count",
    "trace.overhead_pct": "%",
    "trace.unattributed_pct": "%",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    tracer: Tracer,
    stats: dict,
    paced: dict,
    overhead_pct: float,
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans, counts and the service's stats."""
    durations: dict[str, list[float]] = defaultdict(list)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in tracer.spans:
        durations[span[2]].append(span[4] - span[3])
        if span[1] is not None:
            children[span[1]].append((span[3], span[4]))

    def mean_ms(name: str) -> float:
        values = durations.get(name)
        return 1000 * statistics.fmean(values) if values else 0.0

    def total(name: str) -> float:
        return sum(durations.get(name, ()))

    counters = tracer.counters
    settles = [span for span in tracer.spans if span[2] == "service.settle"]
    settle_wall = sum(span[4] - span[3] for span in settles)
    unattributed = sum(
        (span[4] - span[3]) - covered(span[3], span[4], children.get(span[0], []))
        for span in settles
    )
    submits = len(durations.get("service.submit", ()))
    queries = durations.get("algorithms.subsequent_query", [])
    shared = stats["shared"]
    cuts = stats["cut_reasons"]
    values = {
        "spl.update_slen_ms": mean_ms("spl.update_slen"),
        "spl.coalesce_ms": mean_ms("spl.coalesce"),
        "spl.coalesce_partitioned_ms": mean_ms("spl.coalesce_partitioned"),
        "spl.rows_recomputed_per_delta": _ratio(
            counters["query.rows_recomputed"], counters["query.updates"]),
        "batching.plan_ms": mean_ms("batching.plan"),
        "batching.compile_ms": mean_ms("batching.compile"),
        "batching.compiled_away_ratio": _ratio(
            counters["compile.eliminated"], counters["compile.input"]),
        "batching.route.per_update": counters["route.per-update"],
        "batching.route.coalesced": counters["route.coalesced"],
        "batching.route.partitioned": counters["route.partitioned"],
        "elimination.detect_ms": mean_ms("elimination.detect"),
        "elimination.eh_tree_ms": mean_ms("elimination.eh_tree"),
        "elimination.eliminated_ratio": _ratio(
            counters["query.eliminated"], counters["query.updates"]),
        "algorithms.subsequent_query_p50_ms": 1000 * percentile(queries, 50) if queries else 0.0,
        "algorithms.subsequent_query_total_ms": 1000 * sum(queries),
        "matching.amend_ms": mean_ms("matching.amend"),
        "matching.topk_ms": mean_ms("matching.topk"),
        "matching.fanout_skip_ratio": _ratio(
            shared["fanout_skips"], shared["fanout_skips"] + shared["fanout_amend_passes"]),
        "versioning.publish_ms": 1000 * _ratio(
            total("versioning.fork") + total("versioning.store_publish"), len(settles)),
        "versioning.read_ms": paced["read_service_ms"],
        "service.settle_ms": mean_ms("service.settle"),
        "service.ingest_wait_ms": 1000 * _ratio(
            total("service.submit") - total("service.delta.parse")
            - total("service.journal.append"), submits),
        "service.delta.parse_ms": 1000 * _ratio(total("service.delta.parse"), submits),
        "service.cut_to_settle_ms": (
            1000 * statistics.fmean(tracer.values["cut_to_settle"])
            if tracer.values["cut_to_settle"] else 0.0),
        "service.settles": stats["settles"],
        "service.deltas_per_settle": _ratio(stats["settled"], stats["settles"]),
        "service.cuts.crossover": cuts.get("crossover", 0),
        "service.cuts.deadline": cuts.get("deadline", 0),
        "service.cuts.capacity": cuts.get("capacity", 0),
        "service.journal.append_ms": mean_ms("service.journal.append"),
        "service.journal.appends": len(durations.get("service.journal.append", ())),
        "service.journal.bytes_per_delta": _ratio(
            counters["journal.bytes"], counters["journal.deltas"]),
        "service.journal.checkpoint_ms": mean_ms("service.journal.checkpoint"),
        "service.journal.compact_ms": mean_ms("service.journal.compact"),
        "service.journal.compactions": len(durations.get("service.journal.compact", ())),
        "service.journal.open_ms": mean_ms("service.journal.open"),
        "gen.lateness_p99_ms": paced["lateness_p99_ms"],
        "gen.backlog_end": paced["backlog_end"],
        "trace.overhead_pct": overhead_pct,
        "trace.unattributed_pct": 100 * _ratio(unattributed, settle_wall),
    }
    return {name: (values[name], unit) for name, unit in LAYER_METRICS.items()}
