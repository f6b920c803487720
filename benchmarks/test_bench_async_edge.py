"""F8 — the async edge holds 10x the connections with a flat read tail,
and coalesced ingest amortizes fsyncs.

Two gates, both against live sockets:

* **Tail flatness.** The same open-loop bursty workload (fixed total
  arrival rate — so the offered load does not change) is replayed
  through N and through 10N persistent keep-alive connections, in
  interleaved pairs of short slices over the same queries. Holding 10x
  the sockets must not inflate read p99 beyond 1.3x (with a small
  absolute floor so scheduler noise on a quiet box cannot fail the
  gate); the gate is on the median per-pair ratio, sampled until it is
  confidently on one side of the bound (:mod:`paired_gate`). A
  closed-loop driver could not express this property: its offered load
  scales with connection count, conflating "many connections" with
  "10x the traffic".

* **Fsync amortization.** The same event volume is ingested twice under
  ``fsync="always"``: sequentially through the threaded edge (one
  durable append per event) and concurrently through the async edge's
  coalescer (batched appends, one fsync per flush). The coalesced run
  must spend < 0.2x the fsyncs — the whole point of coalescing — while
  still acking every event with a unique contiguous sequence number.
"""

from __future__ import annotations

import http.client
import json
import threading
import time

import pytest
from paired_gate import paired_ratio_gate

from repro.api import Gateway, ServiceBackend, ShoalHttpServer
from repro.api.aio import AsyncShoalServer
from repro.serving import WorkloadConfig, build_workload
from repro.streaming import IngestPipe, WriteAheadLog

BASE_CONNECTIONS = 4
SCALE = 10  # the satellite's 10x
ARRIVAL_RATE = 150.0  # total requests/s, identical at both scales
SLICE_READS = 60  # per scale and pair: 0.4s of open-loop traffic
FIRST_PAIRS, PAIR_STEP, MOST_PAIRS = 12, 6, 36
TAIL_GATE = 1.3
TAIL_FLOOR_MS = 5.0  # p99s below this are scheduler noise, not signal

N_EVENTS = 200
FSYNC_GATE = 0.2


@pytest.fixture(scope="module")
def make_backend(bench_model, bench_marketplace):
    """A factory: server shutdown closes its backend, so each edge in
    this bench gets its own adapter over the shared fitted model."""
    categories = {
        e.entity_id: e.category_id
        for e in bench_marketplace.catalog.entities
    }

    def build() -> ServiceBackend:
        return ServiceBackend.from_model(
            bench_model, entity_categories=categories
        )

    return build


@pytest.fixture(scope="module")
def bursty_workload(bench_marketplace):
    return build_workload(
        bench_marketplace.query_log.queries,
        bench_marketplace.scenarios,
        WorkloadConfig(
            n_requests=SLICE_READS * MOST_PAIRS, profile="bursty", seed=7
        ),
    )


def _search(conn, query) -> int:
    body = json.dumps({"query": query, "k": 5}).encode()
    conn.request(
        "POST", "/v1/search", body=body,
        headers={"Content-Type": "application/json"},
    )
    resp = conn.getresponse()
    resp.read()
    return resp.status


def _open_loop_p99_ms(conns, workload, rate) -> float:
    """Drive the edge through the given persistent connections at a
    fixed total arrival rate; return read p99 measured from each
    request's *scheduled* instant (queueing counted, no coordinated
    omission)."""
    latencies = []
    lock = threading.Lock()
    schedule = threading.Semaphore(0)
    cursor = {"i": 0}

    def worker(conn):
        while True:
            schedule.acquire()
            with lock:
                i = cursor["i"]
                if i >= len(workload):
                    return
                cursor["i"] = i + 1
                due = t0 + i / rate
            status = _search(conn, workload[i])
            done = time.perf_counter()
            assert status == 200
            with lock:
                latencies.append((done - due) * 1000.0)

    threads = [
        threading.Thread(target=worker, args=(c,), daemon=True)
        for c in conns
    ]
    for t in threads:
        t.start()
    t0 = time.perf_counter()  # after the starts: no request waits on them
    for i in range(len(workload)):
        delay = (t0 + i / rate) - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        schedule.release()
    for _ in threads:  # wake everyone for the exit check
        schedule.release()
    for t in threads:
        t.join(timeout=60)
    assert len(latencies) == len(workload)
    ordered = sorted(latencies)
    return ordered[max(0, int(0.99 * len(ordered)) - 1)]


def test_bench_p99_flat_across_10x_connections(
    make_backend, bursty_workload, capsys
):
    server = AsyncShoalServer(Gateway(make_backend()), port=0).start()
    scales = {
        n: [
            http.client.HTTPConnection(server.host, server.port, timeout=30)
            for _ in range(n)
        ]
        for n in (BASE_CONNECTIONS, BASE_CONNECTIONS * SCALE)
    }
    p99s = []

    def pair(i):
        # Both scales replay the same slice, in alternating order.
        queries = bursty_workload[i * SLICE_READS:(i + 1) * SLICE_READS]
        order = sorted(scales, reverse=bool(i % 2))
        p99 = {
            n: _open_loop_p99_ms(scales[n], queries, ARRIVAL_RATE)
            for n in order
        }
        base, scaled = p99[BASE_CONNECTIONS], p99[BASE_CONNECTIONS * SCALE]
        p99s.append((base, scaled))
        return scaled / max(base, TAIL_FLOOR_MS)

    try:
        for conns in scales.values():
            for conn in conns:
                conn.connect()  # no slice pays for TCP setup
        # Warm the caches so both scales measure the same warm tier.
        warm = scales[BASE_CONNECTIONS][0]
        for query in sorted(set(bursty_workload)):
            assert _search(warm, query) == 200
        result = paired_ratio_gate(
            pair, TAIL_GATE,
            first=FIRST_PAIRS, step=PAIR_STEP, most=MOST_PAIRS,
        )
    finally:
        for conns in scales.values():
            for conn in conns:
                conn.close()
        server.shutdown()

    base_ms = sorted(b for b, _ in p99s)[len(p99s) // 2]
    scaled_ms = sorted(s for _, s in p99s)[len(p99s) // 2]
    with capsys.disabled():
        print(
            f"\n[async edge tail] median slice p99@{BASE_CONNECTIONS}conn="
            f"{base_ms:.2f}ms p99@{BASE_CONNECTIONS * SCALE}conn="
            f"{scaled_ms:.2f}ms; {result.describe(TAIL_GATE)} "
            f"(floor {TAIL_FLOOR_MS}ms)"
        )
    assert result.passed, (
        f"read p99 degraded {SCALE}x-ing connections: "
        f"{result.describe(TAIL_GATE)} (floor {TAIL_FLOOR_MS}ms)"
    )


def _event(i):
    return {"day": 7, "user_id": i, "query_id": 1, "clicked": []}


def test_bench_coalesced_ingest_amortizes_fsyncs(
    make_backend, tmp_path_factory, capsys
):
    tmp = tmp_path_factory.mktemp("bench-coalesce")

    # Uncoalesced reference: one durable append (and fsync) per event,
    # sequentially through the threaded edge.
    wal_seq = WriteAheadLog(tmp / "wal-seq", fsync="always")
    threaded = ShoalHttpServer(
        Gateway(make_backend()),
        port=0,
        ingest_pipe=IngestPipe(wal_seq, max_queue=10 * N_EVENTS),
    ).start()
    try:
        conn = http.client.HTTPConnection(
            threaded.host, threaded.port, timeout=30
        )
        for i in range(N_EVENTS):
            conn.request(
                "POST", "/v1/ingest",
                body=json.dumps(_event(i)).encode(),
                headers={"Content-Type": "application/json"},
            )
            resp = conn.getresponse()
            resp.read()
            assert resp.status == 200
        conn.close()
        fsyncs_seq = wal_seq.stats()["fsyncs"]
        assert wal_seq.stats()["appended"] == N_EVENTS
    finally:
        # The edge owns the pipe/WAL; shutdown closes both.
        threaded.shutdown()

    # Coalesced run: the same volume, concurrent single-event posts.
    wal_co = WriteAheadLog(tmp / "wal-co", fsync="always")
    asynced = AsyncShoalServer(
        Gateway(make_backend()),
        port=0,
        ingest_pipe=IngestPipe(wal_co, max_queue=10 * N_EVENTS),
        coalesce_max_events=64,
        coalesce_max_delay_ms=5.0,
    ).start()
    try:
        from concurrent.futures import ThreadPoolExecutor

        def post(i):
            conn = http.client.HTTPConnection(
                asynced.host, asynced.port, timeout=30
            )
            try:
                conn.request(
                    "POST", "/v1/ingest",
                    body=json.dumps(_event(i)).encode(),
                    headers={"Content-Type": "application/json"},
                )
                resp = conn.getresponse()
                body = resp.read()
                assert resp.status == 200
                return json.loads(body)["last_seq"]
            finally:
                conn.close()

        with ThreadPoolExecutor(32) as pool:
            seqs = sorted(pool.map(post, range(N_EVENTS)))
        assert seqs == list(range(1, N_EVENTS + 1))  # durable, no loss
        fsyncs_co = wal_co.stats()["fsyncs"]
        assert wal_co.stats()["appended"] == N_EVENTS
    finally:
        asynced.shutdown()

    ratio = fsyncs_co / max(fsyncs_seq, 1)
    with capsys.disabled():
        print(
            f"\n[ingest coalescing] {N_EVENTS} events: "
            f"sequential={fsyncs_seq} fsyncs, coalesced={fsyncs_co} "
            f"fsyncs, ratio={ratio:.3f}x (gate {FSYNC_GATE}x)"
        )
    assert fsyncs_seq >= N_EVENTS  # the reference really is per-event
    assert ratio < FSYNC_GATE, (
        f"coalescing saved too little: {fsyncs_co}/{fsyncs_seq} "
        f"= {ratio:.2f}x (gate {FSYNC_GATE}x)"
    )
