"""The asyncio edge, end to end: byte-identity, deadlines, hedging,
coalescing.

The acceptance bar for the async-edge PR lives here:

* answers served by :class:`AsyncShoalServer` are **byte-identical**
  (raw HTTP body bytes) to the threaded edge and to the in-process
  gateway, for the single service and a 4-shard cluster — hypothesis
  drives real, remixed, and nonsense queries through all three;
* a request whose deadline expires returns 504 *promptly* and the
  in-flight shard work observes the cancellation instead of running to
  completion;
* hedged requests answer byte-identically to unhedged ones and the
  hedges show up in ``/v1/metrics``;
* concurrent single-event ingests are coalesced into batched WAL
  appends — durable before ack, far fewer fsyncs than events, with the
  ``ingest_overloaded`` / ``ingest_unavailable`` backpressure contract
  intact;
* gateway cache hits answered on the event loop keep every invariant
  of the executor path: same bytes, one metrics sample, one rate-limit
  token and one cache hit or miss per request, no backend work on the
  loop thread, and no stale encoded body after an invalidation, a TTL
  expiry or a generation swap.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api import (
    BatchRequest,
    ClusterBackend,
    Gateway,
    RecommendRequest,
    SCHEMA_VERSION,
    SearchRequest,
    SearchResponse,
    ServiceBackend,
    ShoalHttpServer,
    default_middlewares,
)
from repro.api.aio import AsyncShoalServer
from repro.api.context import current_context
from repro.api.middleware import CacheMiddleware, MetricsMiddleware
from repro.data.marketplace import PROFILES, generate_marketplace
from repro.obs.histogram import Histogram
from repro.data.queries import QueryLogConfig
from repro.streaming import (
    Generation,
    GenerationSwitch,
    IngestPipe,
    WriteAheadLog,
)

from tests.streaming.conftest import BASE_LAST_DAY, make_base_inc


def _raw(method, host, port, path, payload=None) -> tuple:
    """(status, raw body bytes) — exactly what came off the wire."""
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        body = None if payload is None else json.dumps(payload).encode()
        headers = (
            {} if body is None else {"Content-Type": "application/json"}
        )
        conn.request(method, path, body=body, headers=headers)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def _search_payload(query, k, timeout_ms=None):
    out = {"version": SCHEMA_VERSION, "query": query, "k": k}
    if timeout_ms is not None:
        out["timeout_ms"] = timeout_ms
    return out


@pytest.fixture(scope="module")
def snapshot_dir(tiny_model, tiny_categories, tmp_path_factory):
    d = tmp_path_factory.mktemp("api-aio") / "snap"
    tiny_model.save(d, entity_categories=tiny_categories)
    return d


@pytest.fixture(scope="module")
def single_edges(snapshot_dir):
    """(threaded server, async server, in-process gateway) — one model."""
    threaded = ShoalHttpServer(
        Gateway(ServiceBackend.from_snapshot(snapshot_dir)), port=0
    ).start()
    asynced = AsyncShoalServer(
        Gateway(ServiceBackend.from_snapshot(snapshot_dir)), port=0
    ).start()
    local = Gateway(ServiceBackend.from_snapshot(snapshot_dir))
    try:
        yield threaded, asynced, local
    finally:
        threaded.shutdown()
        asynced.shutdown()
        local.close()


@pytest.fixture(scope="module")
def cluster_edges(tiny_model, tiny_categories):
    """Same three tiers over a 4-shard cluster backend."""

    def cluster():
        return ClusterBackend.from_model(
            tiny_model, 4, entity_categories=tiny_categories
        )

    threaded = ShoalHttpServer(Gateway(cluster()), port=0).start()
    asynced = AsyncShoalServer(Gateway(cluster()), port=0).start()
    local = Gateway(cluster())
    try:
        yield threaded, asynced, local
    finally:
        threaded.shutdown()
        asynced.shutdown()
        local.close()


@pytest.fixture(scope="module")
def query_pool(tiny_marketplace):
    return sorted({q.text for q in tiny_marketplace.query_log.queries})


aio_settings = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def wire_queries(draw, pool):
    """Real log queries, token remixes, and raw noise — wire-safe."""
    kind = draw(st.integers(min_value=0, max_value=2))
    if kind == 0:
        return draw(st.sampled_from(pool))
    if kind == 1:
        tokens = sorted({t for q in pool for t in q.split()})
        picked = draw(
            st.lists(st.sampled_from(tokens), min_size=1, max_size=4)
        )
        return " ".join(picked)
    return draw(
        st.text(
            alphabet="abcdefghijklmnopqrstuvwxyz0123456789 -!,",
            min_size=1,
            max_size=30,
        )
    )


class TestByteIdentity:
    """The async edge is transparent: same bytes as every other tier."""

    def _assert_identical(self, edges, endpoint, payload, local_call):
        threaded, asynced, local = edges
        t_status, t_body = _raw(
            "POST", threaded.host, threaded.port, endpoint, payload
        )
        a_status, a_body = _raw(
            "POST", asynced.host, asynced.port, endpoint, payload
        )
        assert (a_status, a_body) == (t_status, t_body)
        if t_status == 200:
            want = json.dumps(
                local_call().to_dict(), ensure_ascii=False
            ).encode("utf-8")
            assert a_body == want

    @aio_settings
    @given(data=st.data(), k=st.integers(min_value=1, max_value=8))
    def test_search_single_service(self, single_edges, query_pool, data, k):
        query = data.draw(wire_queries(query_pool))
        self._assert_identical(
            single_edges,
            "/v1/search",
            _search_payload(query, k),
            lambda: single_edges[2].search(SearchRequest(query=query, k=k)),
        )

    @aio_settings
    @given(data=st.data(), k=st.integers(min_value=1, max_value=8))
    def test_search_4_shard_cluster(
        self, cluster_edges, query_pool, data, k
    ):
        query = data.draw(wire_queries(query_pool))
        self._assert_identical(
            cluster_edges,
            "/v1/search",
            _search_payload(query, k),
            lambda: cluster_edges[2].search(SearchRequest(query=query, k=k)),
        )

    @aio_settings
    @given(data=st.data(), k=st.integers(min_value=1, max_value=10))
    def test_recommend_both_topologies(
        self, single_edges, cluster_edges, query_pool, data, k
    ):
        query = data.draw(wire_queries(query_pool))
        payload = {"version": SCHEMA_VERSION, "query": query, "k": k}
        for edges in (single_edges, cluster_edges):
            threaded, asynced, _ = edges
            t = _raw("POST", threaded.host, threaded.port,
                     "/v1/recommend", payload)
            a = _raw("POST", asynced.host, asynced.port,
                     "/v1/recommend", payload)
            assert a == t

    def test_batch_and_errors_identical(self, single_edges, query_pool):
        threaded, asynced, _ = single_edges
        probes = [
            ("/v1/batch", {
                "version": SCHEMA_VERSION,
                "queries": query_pool[:4],
                "k": 5,
                "kind": "search",
            }),
            ("/v1/search", {"version": SCHEMA_VERSION, "query": "x", "k": 0}),
            ("/v1/search", {"version": 99, "query": "x"}),
            ("/v1/nope", {"query": "x"}),
        ]
        for endpoint, payload in probes:
            t = _raw("POST", threaded.host, threaded.port, endpoint, payload)
            a = _raw("POST", asynced.host, asynced.port, endpoint, payload)
            assert a == t, f"divergence on {endpoint}"

    def test_keep_alive_connection_reuse(self, single_edges, query_pool):
        _, asynced, local = single_edges
        conn = http.client.HTTPConnection(
            asynced.host, asynced.port, timeout=10
        )
        try:
            for query in query_pool[:3]:
                body = json.dumps(_search_payload(query, 5)).encode()
                conn.request(
                    "POST", "/v1/search", body=body,
                    headers={"Content-Type": "application/json"},
                )
                resp = conn.getresponse()
                assert resp.status == 200
                want = local.search(SearchRequest(query=query, k=5))
                assert json.loads(resp.read()) == want.to_dict()
        finally:
            conn.close()


class TestOperationalSurface:
    def test_health_and_stats(self, single_edges):
        _, asynced, _ = single_edges
        status, body = _raw("GET", asynced.host, asynced.port, "/v1/health")
        assert status == 200
        assert json.loads(body)["status"] == "ok"
        status, body = _raw("GET", asynced.host, asynced.port, "/v1/stats")
        assert status == 200
        assert json.loads(body)["backend"] == "gateway"

    def test_metrics_has_the_async_edge_section(self, single_edges):
        _, asynced, _ = single_edges
        status, body = _raw("GET", asynced.host, asynced.port, "/v1/metrics")
        assert status == 200
        edge = json.loads(body)["edge"]
        assert edge["kind"] == "async"
        assert edge["connections"]["total"] >= 1
        assert {"launched", "won"} <= set(edge["hedges"])

    def test_threaded_edge_has_no_edge_section(self, single_edges):
        threaded, _, _ = single_edges
        status, body = _raw(
            "GET", threaded.host, threaded.port, "/v1/metrics"
        )
        assert status == 200
        assert "edge" not in json.loads(body)

    def test_bare_metrics_alias_is_gone_here_too(self, single_edges):
        _, asynced, _ = single_edges
        status, body = _raw("GET", asynced.host, asynced.port, "/metrics")
        assert status == 404
        assert json.loads(body)["error"]["code"] == "not_found"

    def test_get_unknown_path_is_404(self, single_edges):
        _, asynced, _ = single_edges
        status, _ = _raw("GET", asynced.host, asynced.port, "/v1/zzz")
        assert status == 404


class _SlowBackend:
    """Delegates to a real gateway, but search crawls in small slices,
    polling the ambient context the way the engine tiers do — so the
    test can observe whether cancellation actually reached the work."""

    def __init__(self, inner, delay_s=3.0, slices=60):
        self._inner = inner
        self._delay_s = delay_s
        self._slices = slices
        self.cancel_observed = threading.Event()
        self.completed = threading.Event()

    def search(self, request):
        request.validate()
        ctx = current_context()
        for _ in range(self._slices):
            time.sleep(self._delay_s / self._slices)
            if ctx is not None and ctx.done:
                self.cancel_observed.set()
                ctx.raise_if_done()
        self.completed.set()
        return self._inner.search(request)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestDeadlinePropagation:
    @pytest.fixture()
    def slow_served(self, snapshot_dir):
        slow = _SlowBackend(
            Gateway(ServiceBackend.from_snapshot(snapshot_dir))
        )
        server = AsyncShoalServer(
            slow, port=0, hedge_after_ms=60_000.0
        ).start()
        try:
            yield server, slow
        finally:
            server.shutdown()

    def test_expiry_cancels_inflight_shard_work(self, slow_served):
        """The tentpole guarantee: 504 now, work abandoned — not 504
        after the slow tier finished an answer nobody reads."""
        server, slow = slow_served
        t0 = time.perf_counter()
        status, body = _raw(
            "POST", server.host, server.port, "/v1/search",
            _search_payload("beach", 5, timeout_ms=120.0),
        )
        elapsed = time.perf_counter() - t0
        assert status == 504
        assert json.loads(body)["error"]["code"] == "deadline_exceeded"
        # Answered at the deadline, not after the 3s the backend wanted.
        assert elapsed < 1.5
        # ... and the executor-side work notices the cancellation.
        assert slow.cancel_observed.wait(timeout=2.0)
        assert not slow.completed.is_set()

    def test_default_timeout_applies_without_request_field(
        self, snapshot_dir
    ):
        slow = _SlowBackend(
            Gateway(ServiceBackend.from_snapshot(snapshot_dir))
        )
        server = AsyncShoalServer(
            slow, port=0, hedge_after_ms=60_000.0, default_timeout_ms=120.0
        ).start()
        try:
            status, body = _raw(
                "POST", server.host, server.port, "/v1/search",
                _search_payload("beach", 5),
            )
            assert status == 504
            assert json.loads(body)["error"]["code"] == "deadline_exceeded"
            assert slow.cancel_observed.wait(timeout=2.0)
        finally:
            server.shutdown()

    def test_generous_deadline_still_answers(self, single_edges):
        _, asynced, local = single_edges
        status, body = _raw(
            "POST", asynced.host, asynced.port, "/v1/search",
            _search_payload("beach", 5, timeout_ms=30_000.0),
        )
        assert status == 200
        want = local.search(SearchRequest(query="beach", k=5))
        assert json.loads(body) == want.to_dict()


class _SleepyBackend:
    """Deterministic answers, but every search dawdles first — slow
    enough that a zero hedge delay always fires the hedge."""

    def __init__(self, inner, delay_s=0.03):
        self._inner = inner
        self._delay_s = delay_s

    def search(self, request):
        time.sleep(self._delay_s)
        return self._inner.search(request)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestHedging:
    def test_hedged_answers_equal_unhedged_and_are_counted(
        self, snapshot_dir, query_pool
    ):
        hedged = AsyncShoalServer(
            _SleepyBackend(
                Gateway(ServiceBackend.from_snapshot(snapshot_dir))
            ),
            port=0,
            hedge_after_ms=0.0,
        ).start()
        plain = AsyncShoalServer(
            Gateway(ServiceBackend.from_snapshot(snapshot_dir)),
            port=0,
            hedge_after_ms=60_000.0,
        ).start()
        try:
            for query in query_pool[:6]:
                payload = _search_payload(query, 5)
                h = _raw("POST", hedged.host, hedged.port,
                         "/v1/search", payload)
                u = _raw("POST", plain.host, plain.port,
                         "/v1/search", payload)
                assert h == u, f"hedged answer diverged for {query!r}"
            _, body = _raw("GET", hedged.host, hedged.port, "/v1/metrics")
            hedges = json.loads(body)["edge"]["hedges"]
            assert hedges["launched"] >= 1
            assert hedges["won"] >= 0
        finally:
            hedged.shutdown()
            plain.shutdown()

    def test_adaptive_delay_is_derived_per_window_never_on_hits(
        self, snapshot_dir, query_pool
    ):
        """The adaptive delay is re-derived from the read recorder once
        every _HEDGE_MIN_SAMPLES reads, by a miss; hits never pay."""
        summaries = []

        class CountingHistogram(Histogram):
            def summary(self, elapsed_s=None):
                summaries.append(self.count)
                return super().summary(elapsed_s)

        server = AsyncShoalServer(
            Gateway(ServiceBackend.from_snapshot(snapshot_dir)), port=0
        )
        server._stats.read_stats = CountingHistogram()
        server.start()
        conn = http.client.HTTPConnection(
            server.host, server.port, timeout=10
        )

        def search(query):
            conn.request(
                "POST", "/v1/search",
                body=json.dumps(_search_payload(query, 5)),
                headers={"Content-Type": "application/json"},
            )
            resp = conn.getresponse()
            resp.read()
            assert resp.status == 200

        try:
            for _ in range(150):
                search(query_pool[0])  # one miss, then hits
            assert summaries == [0]  # only the first read derived it
            for query in query_pool[1:61]:
                search(query)  # misses
            # Refreshed by the first miss after 50 reads, then again
            # 50 reads later.
            assert summaries == [0, 150, 200]
            assert server._hedge_delay_s() is not None
        finally:
            conn.close()
            server.shutdown()

    def test_rejects_negative_hedge_delay(self, tiny_backend):
        with pytest.raises(ValueError):
            AsyncShoalServer(tiny_backend, port=0, hedge_after_ms=-1.0)


def _ingest_world(snapshot_dir, tmp_path, **pipe_kwargs):
    wal = WriteAheadLog(tmp_path / "wal", fsync="always")
    pipe = IngestPipe(wal, **pipe_kwargs)
    server = AsyncShoalServer(
        Gateway(ServiceBackend.from_snapshot(snapshot_dir)),
        port=0,
        ingest_pipe=pipe,
        coalesce_max_events=32,
        coalesce_max_delay_ms=10.0,
    ).start()
    return server, pipe, wal


class TestIngestCoalescing:
    def test_concurrent_singles_coalesce_but_all_ack_durably(
        self, snapshot_dir, tmp_path
    ):
        n = 120
        server, pipe, wal = _ingest_world(
            snapshot_dir, tmp_path, max_queue=10_000
        )
        try:
            def post(i):
                return _raw(
                    "POST", server.host, server.port, "/v1/ingest",
                    {"day": 7, "user_id": i, "query_id": 1, "clicked": []},
                )

            with ThreadPoolExecutor(32) as pool:
                results = list(pool.map(post, range(n)))
            assert all(status == 200 for status, _ in results)
            acks = [json.loads(body) for _, body in results]
            assert all(a["accepted"] == 1 for a in acks)
            seqs = sorted(a["last_seq"] for a in acks)
            assert seqs == list(range(1, n + 1))  # no loss, no dupes
            stats = wal.stats()
            assert stats["appended"] == n
            # The whole point: far fewer fsyncs than events.
            assert stats["fsyncs"] < 0.5 * n
        finally:
            server.shutdown()

    def test_overload_backpressure_survives_coalescing(
        self, snapshot_dir, tmp_path
    ):
        server, pipe, wal = _ingest_world(
            snapshot_dir, tmp_path, max_queue=2, overflow="shed"
        )
        try:
            def post(i):
                return _raw(
                    "POST", server.host, server.port, "/v1/ingest",
                    {"day": 7, "user_id": i, "query_id": 1, "clicked": []},
                )

            with ThreadPoolExecutor(8) as pool:
                results = list(pool.map(post, range(8)))
            by_status = {}
            for status, body in results:
                by_status.setdefault(status, []).append(json.loads(body))
            assert len(by_status.get(200, [])) == 2  # the queue's worth
            rejected = by_status.get(429, [])
            assert len(rejected) == 6
            assert all(
                r["error"]["code"] == "ingest_overloaded" for r in rejected
            )
        finally:
            server.shutdown()

    def test_closed_pipe_is_503_unavailable(self, snapshot_dir, tmp_path):
        server, pipe, wal = _ingest_world(
            snapshot_dir, tmp_path, max_queue=100
        )
        try:
            pipe.close()
            status, body = _raw(
                "POST", server.host, server.port, "/v1/ingest",
                {"day": 7, "user_id": 1, "query_id": 1, "clicked": []},
            )
            assert status == 503
            assert (
                json.loads(body)["error"]["code"] == "ingest_unavailable"
            )
        finally:
            server.shutdown()

    def test_no_pipe_is_404(self, single_edges):
        _, asynced, _ = single_edges
        status, body = _raw(
            "POST", asynced.host, asynced.port, "/v1/ingest",
            {"day": 7, "user_id": 1, "query_id": 1, "clicked": []},
        )
        assert status == 404

    def test_invalid_event_rejected_before_coalescing(
        self, snapshot_dir, tmp_path
    ):
        """A bad event must fail alone — not poison a shared batch."""
        server, pipe, wal = _ingest_world(
            snapshot_dir, tmp_path, max_queue=100
        )
        try:
            status, body = _raw(
                "POST", server.host, server.port, "/v1/ingest",
                {"user_id": 1},  # missing day/query_id
            )
            assert status == 400
            ok, _ = _raw(
                "POST", server.host, server.port, "/v1/ingest",
                {"day": 7, "user_id": 1, "query_id": 1, "clicked": []},
            )
            assert ok == 200
            assert wal.stats()["appended"] == 1
        finally:
            server.shutdown()

    def test_multi_event_post_still_batches(self, snapshot_dir, tmp_path):
        server, pipe, wal = _ingest_world(
            snapshot_dir, tmp_path, max_queue=100
        )
        try:
            events = [
                {"day": 7, "user_id": i, "query_id": 1, "clicked": []}
                for i in range(5)
            ]
            status, body = _raw(
                "POST", server.host, server.port, "/v1/ingest",
                {"events": events},
            )
            assert status == 200
            ack = json.loads(body)
            assert ack["accepted"] == 5
            assert ack["last_seq"] == 5
        finally:
            server.shutdown()


class TestLifecycle:
    def test_context_manager_and_double_shutdown(self, snapshot_dir):
        with AsyncShoalServer(
            Gateway(ServiceBackend.from_snapshot(snapshot_dir)), port=0
        ) as server:
            status, _ = _raw("GET", server.host, server.port, "/v1/health")
            assert status == 200
        server.shutdown()  # idempotent

    def test_shutdown_drains_coalesced_events(self, snapshot_dir, tmp_path):
        """Events acked (or even just buffered) before shutdown must be
        on disk afterwards — durable-before-ack includes the drain."""
        server, pipe, wal = _ingest_world(
            snapshot_dir, tmp_path, max_queue=100
        )
        statuses = [
            _raw(
                "POST", server.host, server.port, "/v1/ingest",
                {"day": 7, "user_id": i, "query_id": 1, "clicked": []},
            )[0]
            for i in range(3)
        ]
        server.shutdown()
        assert statuses == [200, 200, 200]
        assert wal.stats()["appended"] == 3


def _wire(response) -> bytes:
    """The exact body any edge writes for a read answer."""
    return json.dumps(
        response.to_dict(), ensure_ascii=False, allow_nan=False
    ).encode("utf-8")


class _OffLoopBackend:
    """Delegates to a real backend, but every call must run on one of
    the edge's executor workers: backend work on the event-loop thread
    (or anywhere else) is recorded and fails the request."""

    def __init__(self, inner):
        self._inner = inner
        self._lock = threading.Lock()
        self.calls = 0
        self.offenders = []

    def _on_worker(self) -> None:
        name = threading.current_thread().name
        with self._lock:
            self.calls += 1
            if not name.startswith("shoal-aio-worker"):
                self.offenders.append(name)
        assert name.startswith("shoal-aio-worker"), (
            f"backend work ran on {name}"
        )

    def search(self, request):
        self._on_worker()
        return self._inner.search(request)

    def recommend(self, request):
        self._on_worker()
        return self._inner.recommend(request)

    def batch(self, request):
        self._on_worker()
        return self._inner.batch(request)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _count_dispatches(server) -> list:
    """Record every read the edge sends to the executor."""
    seen = []
    dispatch = server.core.dispatch_request

    def counted(request, **kwargs):
        seen.append(request)
        return dispatch(request, **kwargs)

    server.core.dispatch_request = counted
    return seen


def _cache_counts(gateway) -> tuple:
    stats = gateway.cache_stats()
    return stats.hits, stats.misses


class TestLoopThreadHits:
    """Cache hits answered on the event loop, against the executor
    path's invariants."""

    def test_one_keep_alive_connection_mixed_traffic(
        self, snapshot_dir, query_pool
    ):
        stub = _OffLoopBackend(ServiceBackend.from_snapshot(snapshot_dir))
        gateway = Gateway(
            stub,
            default_middlewares(
                cache_size=4096,
                rate_limit=1e6,
                burst=10**6,
                deadline_ms=30_000.0,
            ),
        )
        server = AsyncShoalServer(
            gateway, port=0, hedge_after_ms=60_000.0
        ).start()
        threaded = ShoalHttpServer(
            Gateway(ServiceBackend.from_snapshot(snapshot_dir)), port=0
        ).start()
        local = Gateway(ServiceBackend.from_snapshot(snapshot_dir))
        dispatched = _count_dispatches(server)

        hot = query_pool[:12]
        batch = {
            "version": SCHEMA_VERSION, "queries": hot[:4], "k": 5,
            "kind": "search",
        }
        rng = random.Random(11)
        plan = []
        for i in range(220):
            query = hot[min(int(rng.expovariate(0.4)), len(hot) - 1)]
            plan.append(("POST", "/v1/search", _search_payload(query, 5)))
            if i in (20, 150):
                plan.append(("POST", "/v1/batch", batch))
            if i == 40:
                plan.append(("POST", "/v1/search", _search_payload("x", 0)))
            if i == 60:
                plan.append(("POST", "/v1/nope", {"query": "x"}))
            if i == 80:
                plan.append(("GET", "/v1/metrics", None))
            if i in (100, 101):
                plan.append((
                    "POST", "/v1/search",
                    _search_payload(hot[0], 5, timeout_ms=30_000.0),
                ))
            if i in (120, 121):
                plan.append((
                    "POST", "/v1/recommend",
                    {"version": SCHEMA_VERSION, "query": hot[1], "k": 4},
                ))

        def local_body(path, payload):
            if path == "/v1/search":
                request = SearchRequest(
                    query=payload["query"], k=payload["k"]
                )
                return _wire(local.search(request))
            if path == "/v1/recommend":
                request = RecommendRequest(
                    query=payload["query"], k=payload["k"]
                )
                return _wire(local.recommend(request))
            request = BatchRequest(
                queries=tuple(payload["queries"]), k=payload["k"],
                kind=payload["kind"],
            )
            return _wire(local.batch(request))

        threaded_answers = {}
        conn = http.client.HTTPConnection(
            server.host, server.port, timeout=10
        )
        try:
            sock = None
            reads = 0
            keys = set()
            for method, path, payload in plan:
                body = None if payload is None else json.dumps(payload)
                conn.request(
                    method, path, body=body,
                    headers={"Content-Type": "application/json"},
                )
                resp = conn.getresponse()
                status, got = resp.status, resp.read()
                assert not resp.will_close
                sock = sock or conn.sock
                assert conn.sock is sock, "the connection was not reused"
                if method == "GET":
                    assert status == 200
                    assert json.loads(got)["edge"]["kind"] == "async"
                    continue
                key = (path, json.dumps(payload, sort_keys=True))
                if key not in threaded_answers:
                    threaded_answers[key] = _raw(
                        "POST", threaded.host, threaded.port, path, payload
                    )
                assert (status, got) == threaded_answers[key], path
                if status == 200:
                    assert got == local_body(path, payload), path
                    reads += 1
                    keys.add(
                        (path, payload["query"] if "query" in payload
                         else tuple(payload["queries"]), payload["k"])
                    )
        finally:
            conn.close()
            server.shutdown()
            threaded.shutdown()
            local.close()

        assert len(plan) >= 200
        assert stub.offenders == []
        # Only misses reached the executor, and only they reached the
        # backend: every hit was answered on the loop.
        misses = len(keys)
        assert len(dispatched) == misses == stub.calls
        # One cache lookup, one metrics sample and one rate-limit token
        # per read request, hit or miss.
        assert _cache_counts(gateway) == (reads - misses, misses)
        metrics = next(
            mw for mw in gateway.middlewares
            if isinstance(mw, MetricsMiddleware)
        )
        samples = sum(
            metrics.latency(name).count
            for name in ("search", "recommend", "batch")
        )
        assert samples == reads
        assert gateway.stats()["rate_limit"]["admitted"] == reads

    def test_misses_evicting_keys_never_put_backend_work_on_the_loop(
        self, snapshot_dir, query_pool
    ):
        stub = _OffLoopBackend(ServiceBackend.from_snapshot(snapshot_dir))
        # A tiny cache: concurrent misses keep evicting the hot keys
        # that loop-thread hits are probing.
        gateway = Gateway(stub, default_middlewares(cache_size=4))
        server = AsyncShoalServer(
            gateway, port=0, hedge_after_ms=60_000.0
        ).start()
        local = Gateway(ServiceBackend.from_snapshot(snapshot_dir))
        pool = query_pool[:40]
        expected = {
            q: _wire(local.search(SearchRequest(query=q, k=5))) for q in pool
        }
        n_clients, n_requests = 6, 60

        def client(seed):
            rng = random.Random(seed)
            conn = http.client.HTTPConnection(
                server.host, server.port, timeout=10
            )
            try:
                for _ in range(n_requests):
                    if rng.random() < 0.5:
                        query = pool[rng.randrange(3)]
                    else:
                        query = rng.choice(pool)
                    conn.request(
                        "POST", "/v1/search",
                        body=json.dumps(_search_payload(query, 5)),
                        headers={"Content-Type": "application/json"},
                    )
                    resp = conn.getresponse()
                    assert (resp.status, resp.read()) == (
                        200, expected[query]
                    )
            finally:
                conn.close()

        try:
            with ThreadPoolExecutor(n_clients) as clients:
                list(clients.map(client, range(n_clients)))
        finally:
            server.shutdown()
            local.close()
        total = n_clients * n_requests
        assert stub.offenders == []
        hits, misses = _cache_counts(gateway)
        assert hits + misses == total
        assert misses == stub.calls
        assert hits > 0  # the loop path was exercised
        assert gateway.cache_stats().size <= 4

    def test_eviction_after_the_probe_cannot_reach_the_backend(
        self, snapshot_dir, query_pool
    ):
        """The deterministic form of the race above: a stage above the
        cache empties it on every request, i.e. right after a loop-side
        probe found the entry. The held entry is still what answers."""
        cache = CacheMiddleware(64)

        class EvictAll:
            name = "evict"

            def handle(self, request, call_next):
                cache.invalidate()
                return call_next(request)

        stub = _OffLoopBackend(ServiceBackend.from_snapshot(snapshot_dir))
        gateway = Gateway(stub, [MetricsMiddleware(), EvictAll(), cache])
        server = AsyncShoalServer(
            gateway, port=0, hedge_after_ms=60_000.0
        ).start()
        local = Gateway(ServiceBackend.from_snapshot(snapshot_dir))
        query = query_pool[0]
        want = _wire(local.search(SearchRequest(query=query, k=5)))
        try:
            for _ in range(6):
                assert _raw(
                    "POST", server.host, server.port, "/v1/search",
                    _search_payload(query, 5),
                ) == (200, want)
        finally:
            server.shutdown()
            local.close()
        # Each miss refills the entry; the next request holds it, is
        # served from it, and its eviction forces the next miss.
        assert stub.offenders == []
        assert _cache_counts(gateway) == (3, 3)
        assert stub.calls == 3

    def test_no_stale_body_after_invalidation_or_ttl(
        self, snapshot_dir, query_pool
    ):
        class Generations:
            """Answers that change with a switchable generation."""

            def __init__(self, inner):
                self._inner = inner
                self.generation = 0

            def search(self, request):
                hits = self._inner.search(request).hits
                return SearchResponse(hits=hits[: len(hits) - self.generation])

            def __getattr__(self, name):
                return getattr(self._inner, name)

        inner = ServiceBackend.from_snapshot(snapshot_dir)
        query = next(
            q for q in query_pool
            if len(inner.search(SearchRequest(query=q, k=5)).hits) >= 3
        )
        request = SearchRequest(query=query, k=5)
        backend = Generations(inner)
        now = [0.0]
        cache = CacheMiddleware(64, ttl_seconds=10.0, clock=lambda: now[0])
        gateway = Gateway(backend, [MetricsMiddleware(), cache])
        server = AsyncShoalServer(
            gateway, port=0, hedge_after_ms=60_000.0
        ).start()

        def served() -> bytes:
            status, body = _raw(
                "POST", server.host, server.port, "/v1/search",
                _search_payload(query, 5),
            )
            assert status == 200
            return body

        try:
            first = _wire(backend.search(request))
            # Miss, then hits: the second fills the stored body and the
            # third reuses it.
            assert [served() for _ in range(3)] == [first] * 3
            assert _cache_counts(gateway) == (2, 1)

            backend.generation = 1
            gateway.invalidate_cache()
            second = _wire(backend.search(request))
            assert second != first
            assert [served() for _ in range(3)] == [second] * 3
            assert _cache_counts(gateway) == (4, 2)

            backend.generation = 2  # no invalidation: only TTL saves us
            now[0] += 11.0
            third = _wire(backend.search(request))
            assert third not in (first, second)
            assert [served() for _ in range(3)] == [third] * 3
            assert _cache_counts(gateway) == (6, 3)
        finally:
            server.shutdown()

    def test_no_stale_body_after_a_generation_swap(self):
        market = generate_marketplace(
            dataclasses.replace(
                PROFILES["tiny"],
                query_log=QueryLogConfig(n_days=9, events_per_day=300),
            )
        )
        inputs = (
            {e.entity_id: e.title for e in market.catalog.entities},
            {q.query_id: q.text for q in market.query_log.queries},
            {e.entity_id: e.category_id for e in market.catalog.entities},
        )
        inc = make_base_inc(market, inputs)
        base = Generation(
            number=0, model=inc.model,
            entity_categories=inc.entity_categories,
            last_day=BASE_LAST_DAY,
        )
        update = inc.advance(market.query_log, last_day=BASE_LAST_DAY + 2)
        nxt = Generation(
            number=1, model=update.model,
            entity_categories=inc.entity_categories,
            last_day=BASE_LAST_DAY + 2,
        )

        def backend_for(gen):
            return ServiceBackend.from_model(
                gen.model, entity_categories=gen.entity_categories
            )

        queries = sorted({q.text for q in market.query_log.queries})[:60]
        old, new = Gateway(backend_for(base)), Gateway(backend_for(nxt))

        def answers(gateway):
            return {
                q: _wire(gateway.search(SearchRequest(query=q, k=5)))
                for q in queries
            }

        before, after = answers(old), answers(new)
        changed = [q for q in queries if before[q] != after[q]]
        assert changed, "the two generations must answer differently"

        gateway = Gateway(backend_for(base))
        switch = GenerationSwitch(baseline=base).attach(gateway)
        server = AsyncShoalServer(
            gateway, port=0, hedge_after_ms=60_000.0
        ).start()

        def served(q) -> bytes:
            status, body = _raw(
                "POST", server.host, server.port, "/v1/search",
                _search_payload(q, 5),
            )
            assert status == 200
            return body

        try:
            for _ in range(2):  # miss, then a hit that stores the body
                assert {q: served(q) for q in changed} == {
                    q: before[q] for q in changed
                }
            switch.swap(nxt)
            for _ in range(2):
                assert {q: served(q) for q in changed} == {
                    q: after[q] for q in changed
                }
        finally:
            server.shutdown()
            old.close()
            new.close()
