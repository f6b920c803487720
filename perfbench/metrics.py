"""Turn measured passes into the benchmark's named metrics."""

from __future__ import annotations

import re
import statistics
from typing import Dict, List, Sequence, Tuple

from perfbench import tracing
from perfbench.loadgen import Result, percentile, summarize

#: Metrics every workload reports with ``--trace 0`` (name, unit).
END_TO_END = (
    ("setup_s", "s"),
    ("read_p50_ms", "ms"),
    ("read_qps", "1/s"),
    ("server_rss_mb", "MiB"),
    ("ok_ratio", "ratio"),
)

#: User-facing figures that are printed with ``--trace 0`` and reported
#: with ``--trace 1`` but not gated: on a shared 2-vCPU host their
#: run-to-run spread exceeds any bound the benchmark may set (tails
#: double when neighbours load the host; reads that share the
#: interpreter lock with a fold swing by 10x). The mixed and write-path
#: figures exist on ingest_live only and read 0 elsewhere.
REPORTED = (
    ("e2e.read_tail_ms", "ms"),
    ("e2e.mixed_read_p50_ms", "ms"),
    ("e2e.mixed_read_tail_ms", "ms"),
    ("e2e.ingest_ack_p50_ms", "ms"),
    ("e2e.ingest_ack_tail_ms", "ms"),
    ("e2e.visible_p50_ms", "ms"),
    ("e2e.visible_tail_ms", "ms"),
    ("e2e.ingest_drain_eps", "1/s"),
    ("e2e.analytics_p50_ms", "ms"),
    ("e2e.follower_ready_s", "s"),
)

#: Metrics every workload reports with ``--trace 1`` (name, unit).
PER_LAYER = (
    ("core.pipeline.bipartite_s", "s"),
    ("core.pipeline.word2vec_s", "s"),
    ("core.pipeline.entity_graph_s", "s"),
    ("core.pipeline.clustering_s", "s"),
    ("core.pipeline.descriptions_s", "s"),
    ("store.persistence.save_s", "s"),
    ("serving.sharding.build_s", "s"),
    ("cli.serve_ready_s", "s"),
    ("api.aio.self_us", "us"),
    ("api.contract.encode_us", "us"),
    ("api.contract.decode_us", "us"),
    ("server.cpu_ms_per_op", "ms"),
    ("api.middleware.self_us", "us"),
    ("api.middleware.cache_hit_ratio", "ratio"),
    ("api.backends.self_us", "us"),
    ("serving.router.search_us", "us"),
    ("serving.router.probes_per_query", "count"),
    ("core.serving.search_us", "us"),
    ("core.serving.recommend_us", "us"),
    ("api.aio.hedges_per_read", "ratio"),
    ("api.aio.hedge_win_ratio", "ratio"),
    ("api.aio.events_per_flush", "count"),
    ("streaming.ingest.submit_us", "us"),
    ("streaming.wal.fsyncs_per_event", "ratio"),
    ("streaming.updater.fold_s", "s"),
    ("streaming.updater.events_per_generation", "count"),
    ("streaming.ingest.queue_depth_max", "count"),
    ("streaming.rollout.swap_s", "s"),
    ("api.middleware.invalidations", "count"),
    ("replication.shipper.publish_s", "s"),
    ("replication.shipper.delta_ratio", "ratio"),
    ("replication.follower.catch_up_s", "s"),
    ("analytics.tailer.lag_max_events", "count"),
    ("analytics.query.report_ms", "ms"),
    ("bench.gen_late_p99_ms", "ms"),
    ("bench.late_share", "ratio"),
    ("bench.tracing_overhead_ratio", "ratio"),
) + REPORTED

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: name -> (value, unit, samples)
Metrics = Dict[str, Tuple[float, str, int]]


def windowed(results: Sequence[Result], windows: int) -> Dict[str, float]:
    """Median over all results, and the median of the per-window tails
    (each window: the highest percentile with >= 10 samples beyond)."""
    lat = [r.latency_ms for r in results]
    overall = summarize(lat)
    windows = max(1, min(windows, len(lat) // 20))  # short runs: fewer windows
    size = len(lat) // windows
    tails, levels = [], set()
    for w in range(windows):
        chunk = summarize(lat[w * size:(w + 1) * size])
        tails.append(chunk["tail"])
        levels.add(chunk["tail_q"])
    return {
        "n": overall["n"],
        "p50": overall["p50"],
        "tail": statistics.median(tails),
        "tail_q": min(levels),
        "windows": windows,
        "window_n": size,
    }


def lateness(results: Sequence[Result], late_ms: float) -> Tuple[float, float]:
    """(p99 generator lateness in ms, share of sends later than late_ms)
    over open-loop requests."""
    late = sorted(r.late_s * 1000.0 for r in results)
    return percentile(late, 99.0), sum(x > late_ms for x in late) / len(late)


def open_loop(p) -> List[Result]:
    """Every request of a pass that an open-loop lane scheduled."""
    return p.reads_open + p.reads_mixed + p.analytics + [
        r for r in p.acks if r.lane == "ingest"
    ]


def upper_quartile(values: Sequence[float]) -> float:
    """The upper quartile of ``values`` (the value itself if only one)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def slice_rates(closed) -> List[float]:
    """Correct answers per second of each closed-loop slice."""
    return [
        sum(r.ok for r in results) / (max(r.done for r in results) - t0)
        for t0, _seconds, results in closed
    ]


def slice_p50s(p) -> List[float]:
    """The median latency of each open-loop slice."""
    return [percentile(sorted(r.latency_ms for r in rs), 50.0) for rs in p.open_slices]


def end_to_end(setup_times: Sequence[float], p) -> Metrics:
    correct = sum(r.ok for r in p.reads_closed)
    return {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "read_p50_ms": (statistics.median(slice_p50s(p)), "ms", len(p.reads_open)),
        "read_qps": (upper_quartile(slice_rates(p.closed)), "1/s", correct),
        "server_rss_mb": (p.rss_mb, "MiB", 1),
        "ok_ratio": ((p.ops - p.failed) / p.ops, "ratio", p.ops),
    }


def reported(p, windows: int) -> Metrics:
    """The ungated :data:`REPORTED` figures of one pass."""
    out = {name: (0.0, unit, 0) for name, unit in REPORTED}
    reads = windowed(p.reads_open, windows)
    out["e2e.read_tail_ms"] = (reads["tail"], "ms", reads["n"])
    if not p.acks:
        return out
    mixed = summarize([r.latency_ms for r in p.reads_mixed])
    acks = summarize([r.latency_ms for r in p.acks if r.lane == "ingest"])
    visible = summarize(p.visible_ms)
    out.update({
        "e2e.mixed_read_p50_ms": (mixed["p50"], "ms", mixed["n"]),
        "e2e.mixed_read_tail_ms": (mixed["tail"], "ms", mixed["n"]),
        "e2e.ingest_ack_p50_ms": (acks["p50"], "ms", acks["n"]),
        "e2e.ingest_ack_tail_ms": (acks["tail"], "ms", acks["n"]),
        "e2e.visible_p50_ms": (visible["p50"], "ms", visible["n"]),
        "e2e.visible_tail_ms": (visible["tail"], "ms", visible["n"]),
        "e2e.ingest_drain_eps": (p.drain_eps, "1/s", 1),
        "e2e.analytics_p50_ms": (
            statistics.median(r.latency_ms for r in p.analytics), "ms", len(p.analytics)
        ),
        "e2e.follower_ready_s": (p.follower_ready_s, "s", 1),
    })
    return out


def _section(m: dict, *keys, default=0):
    for key in keys:
        if not isinstance(m, dict) or key not in m:
            return default
        m = m[key]
    return m


def _delta(before: dict, after: dict, *keys) -> float:
    return float(_section(after, *keys)) - float(_section(before, *keys))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(built, plain, traced, late_ms: float, windows: int) -> Dict[str, Tuple[float, str]]:
    """Per-layer figures: timings from ``traced``'s spans, counts from
    its /v1/metrics scrapes and /proc, set-up from ``built``."""
    before, after = traced.metrics_before, traced.metrics_after
    layers = tracing.summarize(traced.spans, [traced.windows["measured"]])
    open_window = tracing.summarize(traced.spans, traced.open_windows)

    def mean_us(table, layer, field="total_s", per="calls") -> float:
        row = table.get(layer)
        return _ratio(row[field], row[per]) * 1e6 if row else 0.0

    # The edge's own cost: client round trip minus the gateway call,
    # over open-loop reads (one request in flight, nothing queued).
    gateway_ids = {
        s[1] for s in traced.spans if s[3] == "api.middleware"
    }
    read_calls = [
        s[5] - s[4] for s in traced.spans
        if s[0] in gateway_ids and tracing.inside(s[4], traced.open_windows)
    ]
    rtt = [r.rtt_ms for r in traced.reads_open if r.ok]
    aio_self = (
        (statistics.fmean(rtt) / 1000.0 - statistics.fmean(read_calls)) * 1e6
        if rtt and read_calls else 0.0
    )
    requests_open = sum(tracing.inside(r.sent, traced.open_windows) for r in open_loop(traced))
    inner_b, inner_a = _section(before, "backend", "inner"), _section(after, "backend", "inner")
    queries = _delta(inner_b, inner_a, "latency", "count")
    lookups = _delta(inner_b, inner_a, "cache", "hits") + _delta(inner_b, inner_a, "cache", "misses")
    hits = _delta(before, after, "backend", "gateway_cache", "hits")
    misses = _delta(before, after, "backend", "gateway_cache", "misses")
    reads = _delta(before, after, "edge", "reads", "count")
    launched = _delta(before, after, "edge", "hedges", "launched")
    samples = traced.samples or [after]
    fsyncs = _delta(before, after, "ingest", "wal", "fsyncs")
    appended = _delta(before, after, "ingest", "wal", "appended")
    generations = _delta(before, after, "updater", "generations")
    applied = _delta(before, after, "updater", "events_applied")
    # A follower rebuilds each shipped generation with the same fold the
    # primary runs; its per-generation catch-up cost is that fold time.
    follower = tracing.summarize(traced.follower_spans).get("streaming.updater.fold")
    stage = built.stage_seconds
    plain_p50 = summarize([r.latency_ms for r in plain.reads_open])["p50"]
    traced_p50 = summarize([r.latency_ms for r in traced.reads_open])["p50"]
    late_p99, late_share = lateness(open_loop(plain), late_ms)
    out = {
        "core.pipeline.bipartite_s": stage.get("bipartite", 0.0),
        "core.pipeline.word2vec_s": stage.get("word2vec", 0.0),
        "core.pipeline.entity_graph_s": stage.get("entity_graph", 0.0),
        "core.pipeline.clustering_s": stage.get("clustering", 0.0),
        "core.pipeline.descriptions_s": stage.get("descriptions", 0.0),
        "store.persistence.save_s": built.save_s,
        "serving.sharding.build_s": built.shard_s,
        "cli.serve_ready_s": plain.ready_s,
        "api.aio.self_us": aio_self,
        "api.contract.encode_us": _ratio(
            open_window.get("api.contract.encode", {}).get("self_s", 0.0), requests_open
        ) * 1e6,
        "api.contract.decode_us": mean_us(open_window, "api.contract.decode"),
        "server.cpu_ms_per_op": _ratio(traced.cpu_s, traced.ops) * 1000.0,
        "api.middleware.self_us": mean_us(layers, "api.middleware", "self_s"),
        "api.middleware.cache_hit_ratio": _ratio(hits, hits + misses),
        "api.backends.self_us": mean_us(layers, "api.backends", "self_s"),
        "serving.router.search_us": mean_us(layers, "serving.router", "outer_s", "outer_n"),
        "serving.router.probes_per_query": _ratio(lookups - queries, queries)
        if "n_shards" in inner_a else 0.0,
        "core.serving.search_us": mean_us(layers, "core.serving.search", "outer_s", "outer_n"),
        "core.serving.recommend_us": mean_us(layers, "core.serving.recommend", "outer_s", "outer_n"),
        "api.aio.hedges_per_read": _ratio(launched, reads),
        "api.aio.hedge_win_ratio": _ratio(_delta(before, after, "edge", "hedges", "won"), launched),
        "api.aio.events_per_flush": _ratio(
            _delta(before, after, "edge", "coalescer", "events"),
            _delta(before, after, "edge", "coalescer", "batches"),
        ),
        "streaming.ingest.submit_us": mean_us(layers, "streaming.ingest.submit"),
        "streaming.wal.fsyncs_per_event": _ratio(fsyncs, appended),
        "streaming.updater.fold_s": mean_us(layers, "streaming.updater.fold") / 1e6,
        "streaming.updater.events_per_generation": _ratio(applied, generations),
        "streaming.ingest.queue_depth_max": float(max(
            _section(s, "ingest", "queue_depth") for s in samples
        )),
        "streaming.rollout.swap_s": mean_us(layers, "streaming.rollout.swap") / 1e6,
        "api.middleware.invalidations": _delta(
            before, after, "backend", "gateway_cache", "invalidations"
        ),
        "replication.shipper.publish_s": mean_us(layers, "replication.shipper.publish") / 1e6,
        "replication.shipper.delta_ratio": _ratio(
            _section(after, "replication", "delta_bytes"),
            _section(after, "replication", "full_bytes"),
        ),
        "replication.follower.catch_up_s": _ratio(
            follower["outer_s"], traced.follower_built
        ) if follower else 0.0,
        "analytics.tailer.lag_max_events": float(max(
            _section(s, "analytics", "lag") for s in samples
        )),
        "analytics.query.report_ms": mean_us(layers, "analytics.query") / 1000.0,
        "bench.gen_late_p99_ms": late_p99,
        "bench.late_share": late_share,
        "bench.tracing_overhead_ratio": _ratio(traced_p50, plain_p50),
    }
    for name, (value, _unit, _n) in reported(plain, windows).items():
        out[name] = value
    units = dict(PER_LAYER)
    return {name: (float(out[name]), units[name]) for name, _ in PER_LAYER}
