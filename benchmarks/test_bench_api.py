"""F7 — gateway API dispatch overhead on the warm serving path.

The gateway contract only earns its keep if it is effectively free on
the hot path: a typed request through adapter + middleware stack must
cost within 1.3x of calling the raw engine's ``search_topics``
directly on a warm (cached) query. This bench times the two paths in
interleaved pairs of aggregate timings (single calls sit below timer
noise) and gates on the median per-pair ratio once it is confidently
on one side of the bound (:mod:`paired_gate`), plus records the
absolute per-dispatch cost of the full-stack path for the record.
"""

import statistics
import time

import pytest
from paired_gate import paired_ratio_gate

from repro.api import Gateway, SearchRequest, ServiceBackend, default_middlewares

OPS_PER_SAMPLE = 2_000
SAMPLES = 9  # median-of-9 aggregate timings (full-stack record)
GATE_RATIO = 1.3


@pytest.fixture(scope="module")
def api_backend(bench_model, bench_marketplace):
    return ServiceBackend.from_model(
        bench_model,
        entity_categories={
            e.entity_id: e.category_id
            for e in bench_marketplace.catalog.entities
        },
    )


@pytest.fixture(scope="module")
def scenario_query(bench_marketplace):
    return next(
        q.text
        for q in bench_marketplace.query_log.queries
        if q.intent_kind == "scenario"
    )


def _seconds(fn) -> float:
    t0 = time.perf_counter()
    for _ in range(OPS_PER_SAMPLE):
        fn()
    return time.perf_counter() - t0


def _median_seconds(fn) -> float:
    return statistics.median(_seconds(fn) for _ in range(SAMPLES))


def test_bench_gateway_dispatch_overhead(
    api_backend, scenario_query, capsys
):
    """Warm-path typed dispatch must stay under 1.3x the raw engine."""
    raw = api_backend.service
    gateway = Gateway(api_backend)  # default stack: metrics + cache
    request = SearchRequest(query=scenario_query, k=5)

    # Warm every tier: engine LRU, gateway result cache.
    expected = raw.search_topics(scenario_query, 5)
    assert list(gateway.search(request).hits) == expected

    def run_raw():
        return raw.search_topics(scenario_query, 5)

    def run_gateway():
        return gateway.search(request)

    def pair(i):
        if i % 2:
            gateway_s = _seconds(run_gateway)
            raw_s = _seconds(run_raw)
        else:
            raw_s = _seconds(run_raw)
            gateway_s = _seconds(run_gateway)
        return gateway_s / raw_s

    result = paired_ratio_gate(pair, GATE_RATIO, first=12, step=6, most=60)
    with capsys.disabled():
        print(f"\n[gateway overhead] {result.describe(GATE_RATIO)}")
    assert result.passed, (
        f"gateway dispatch is too slow against the raw warm path: "
        f"{result.describe(GATE_RATIO)}"
    )


def test_bench_full_stack_dispatch(api_backend, scenario_query, capsys):
    """Rate limit + deadline + cache + metrics, absolute cost on record.

    No hard gate beyond sanity — the full stack adds a token-bucket
    refill and two clock reads per request — but the per-dispatch cost
    must stay in the microsecond regime, nowhere near the engine's
    cold-path milliseconds.
    """
    gateway = Gateway(
        api_backend,
        default_middlewares(
            cache_size=4096, rate_limit=1e9, deadline_ms=10_000
        ),
    )
    request = SearchRequest(query=scenario_query, k=5)
    gateway.search(request)  # warm

    stack_s = _median_seconds(lambda: gateway.search(request))
    per_dispatch_us = stack_s / OPS_PER_SAMPLE * 1e6
    with capsys.disabled():
        print(f"\n[full-stack dispatch] {per_dispatch_us:.1f}us/request")
    assert per_dispatch_us < 500, (
        f"full middleware stack costs {per_dispatch_us:.0f}us per warm "
        "dispatch; expected well under 500us"
    )
