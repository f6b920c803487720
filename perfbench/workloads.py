"""The benchmark's workloads: set-up, traffic phases, checks and metrics.

Every rate, pool and phase share comes from ``spec.json``. The model is
always the ``default`` profile fitted with seed 0; ``--seed`` only
shapes the traffic (query draws, panel composition, ingest events), and
the servers receive nothing but those generated requests.
"""

from __future__ import annotations

import json
import random
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from perfbench import tracing
from perfbench.loadgen import (
    Lane,
    Result,
    json_body,
    post_json,
    request_bytes,
    run_lanes,
)
from perfbench.procs import Server, Workspace, cpu_seconds, rss_hwm_mb

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE / "spec.json").read_text())
WORKLOADS = tuple(SPEC["workloads"])
LAUNCHER = HERE / "launcher.py"
#: Seconds to wait for the write path or a follower to catch up.
SETTLE_TIMEOUT_S = 60.0


class CheckFailed(Exception):
    """An answer or a durability invariant did not hold."""


@dataclass
class Built:
    """One fitted model saved (and sharded) into the workspace."""

    market: object
    snapshot: Path
    cluster: Optional[Path]
    stage_seconds: Dict[str, float]
    save_s: float
    shard_s: float


def build_model(ws: Workspace, tag: str, shards: int) -> Built:
    """Fit the spec's model through the public pipeline and save it."""
    from repro import ShoalPipeline
    from repro.data.marketplace import PROFILES, generate_marketplace
    from repro.serving import ShardPlanner

    profile, seed = SPEC["model"]["profile"], SPEC["model"]["seed"]
    market = generate_marketplace(PROFILES[profile].with_seed(seed))
    model = ShoalPipeline().fit(market)
    cats = {e.entity_id: e.category_id for e in market.catalog.entities}
    meta = {"profile": profile, "seed": seed}
    snapshot = ws.path(f"snapshot-{tag}")
    t0 = time.perf_counter()
    model.save(snapshot, entity_categories=cats, metadata=meta)
    save_s = time.perf_counter() - t0
    cluster, shard_s = None, 0.0
    if shards:
        cluster = ws.path(f"cluster-{tag}")
        t0 = time.perf_counter()
        shard_set = ShardPlanner(shards).partition(model, cats)
        ShardPlanner.save_shard_set(shard_set, cluster, metadata=meta)
        shard_s = time.perf_counter() - t0
    return Built(market, snapshot, cluster, dict(model.stage_seconds), save_s, shard_s)


@dataclass
class Pass:
    """What one pass of a workload against one server measured."""

    reads_open: List[Result] = field(default_factory=list)
    #: the open-loop reads of each slice, and each slice's (start, end)
    open_slices: List[List[Result]] = field(default_factory=list)
    open_windows: List[Tuple[float, float]] = field(default_factory=list)
    #: open-loop reads that shared the server with the write path
    reads_mixed: List[Result] = field(default_factory=list)
    #: (start, seconds, results) of each closed-loop phase
    closed: List[Tuple[float, float, List[Result]]] = field(default_factory=list)
    acks: List[Result] = field(default_factory=list)
    analytics: List[Result] = field(default_factory=list)
    visible_ms: List[float] = field(default_factory=list)
    drain_eps: float = 0.0
    follower_ready_s: float = 0.0
    follower_built: int = 0
    rss_mb: float = 0.0
    cpu_s: float = 0.0
    ops: int = 0
    failed: int = 0
    ready_s: float = 0.0
    metrics_before: dict = field(default_factory=dict)
    metrics_after: dict = field(default_factory=dict)
    samples: List[dict] = field(default_factory=list)
    spans: List[tracing.Span] = field(default_factory=list)
    follower_spans: List[tracing.Span] = field(default_factory=list)
    windows: Dict[str, Tuple[float, float]] = field(default_factory=dict)

    @property
    def reads_closed(self) -> List[Result]:
        return [r for _t0, _s, results in self.closed for r in results]


class CheckpointWatch:
    """Background poller of the WAL's CHECKPOINT.json (and, optionally,
    of ``/v1/metrics``): records when each applied_seq was first seen."""

    def __init__(self, wal_dir: Path, server: Server, scrape_s: Optional[float]):
        self.wal_dir = wal_dir
        self.server = server
        self.scrape_s = scrape_s
        self.seen: List[Tuple[float, int]] = []
        self.samples: List[dict] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="checkpoint-watch")
        self.error: Optional[BaseException] = None

    def __enter__(self) -> "CheckpointWatch":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join(timeout=10.0)

    def _loop(self) -> None:
        from repro.streaming.wal import read_checkpoint

        last_seq = -1
        next_scrape = 0.0
        try:
            while not self._stop.is_set():
                now = time.perf_counter()
                checkpoint = read_checkpoint(self.wal_dir) or {}
                seq = int(checkpoint.get("applied_seq", 0))
                if seq != last_seq:
                    self.seen.append((now, seq))
                    last_seq = seq
                if self.scrape_s is not None and now >= next_scrape:
                    self.samples.append(self.server.metrics())
                    next_scrape = now + self.scrape_s
                self._stop.wait(0.005)
        except BaseException as exc:  # surfaced by the caller
            self.error = exc

    def applied(self) -> int:
        return self.seen[-1][1] if self.seen else 0

    def covered_at(self, seq: int) -> Optional[float]:
        for t, applied in self.seen:
            if applied >= seq:
                return t
        return None

    def wait_for(self, seq: int, timeout_s: float = SETTLE_TIMEOUT_S) -> float:
        deadline = time.perf_counter() + timeout_s
        while time.perf_counter() < deadline:
            if self.error is not None:
                raise self.error
            t = self.covered_at(seq)
            if t is not None:
                return t
            time.sleep(0.005)
        raise CheckFailed(f"checkpoint never covered acked seq {seq}")


class Runner:
    """One invocation: ``--workload`` at ``--seed`` for ``--seconds``."""

    def __init__(self, ws: Workspace, workload: str, seed: int, seconds: float):
        if workload not in SPEC["workloads"]:
            raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
        self.ws = ws
        self.name = workload
        self.cfg = SPEC["workloads"][workload]
        self.seed = seed
        self.seconds = float(seconds)
        self.k = SPEC["model"]["k"]
        self.problems: List[str] = []
        self._refs: Dict[Path, tuple] = {}
        self._streams: Dict[int, List[str]] = {}

    # -- set-up ---------------------------------------------------------------

    def _paths(self, built: Built, tag: str) -> Dict[str, str]:
        return {
            "snapshot": str(built.snapshot),
            "cluster": str(built.cluster) if built.cluster else "",
            "wal": str(self.ws.path(f"wal-{tag}")),
            "analytics_db": str(self.ws.path(f"analytics-{tag}.db")),
            "feed": str(self.ws.path(f"feed-{tag}")),
            "follower_dir": str(self.ws.path(f"follower-{tag}")),
        }

    def _spawn(self, template: Sequence[str], paths: Dict[str, str], tag: str,
               traced: bool) -> Server:
        args = [a.format(**paths) for a in template]
        args += ["--port", "0", "--quiet", "--trace-capacity", "0"]
        if traced:
            spans = self.ws.path(f"spans-{tag}.json")
            return self.ws.spawn([str(LAUNCHER), str(spans), *args], f"{tag}.log")
        return self.ws.spawn(["-m", "repro.cli", *args], f"{tag}.log")

    # -- inputs ---------------------------------------------------------------

    def _stream(self, market) -> List[str]:
        """A long ``build_workload`` stream with the spec's fixed rank seed.

        ``build_workload`` shuffles the pool with its seed before ranking
        it, so a seed also decides which strings are hot. The strings of
        the pool differ in cost by an order of magnitude (a variant
        repeats its first word up to 63 times), so a per-run ranking would
        make the cost of a run depend on its seed. The ranking is
        therefore fixed, and ``--seed`` only draws from it.
        """
        key = id(market)
        if key not in self._streams:
            from repro.serving import WorkloadConfig, build_workload

            inputs = self.cfg["inputs"]
            self._streams[key] = build_workload(
                market.query_log.queries,
                market.scenarios,
                WorkloadConfig(
                    n_requests=inputs["stream_requests"],
                    profile=inputs["traffic_profile"],
                    zipf_exponent=inputs["zipf_exponent"],
                    pool_variants=inputs["pool_variants"],
                    seed=inputs["rank_seed"],
                ),
            )
        return self._streams[key]

    def queries(self, market, n: int, salt: int) -> List[str]:
        """``n`` Zipf draws for ``--seed`` and ``salt``."""
        stream = self._stream(market)
        rng = random.Random(self.seed * 1000 + salt)
        return [stream[rng.randrange(len(stream))] for _ in range(n)]

    def read_payloads(self, market, n: int, salt: int) -> List[Tuple[str, dict]]:
        """``n`` (path, payload) reads of this workload's read kind."""
        if self.cfg["read"] == "search":
            return [
                ("/v1/search", {"query": q, "k": self.k})
                for q in self.queries(market, n, salt)
            ]
        size = self.cfg["inputs"]["panel_queries"]
        kinds = self.cfg["inputs"]["panel_kinds"]
        flat = self.queries(market, n * size, salt)
        return [
            ("/v1/batch", {
                "queries": flat[i * size:(i + 1) * size],
                "k": self.k,
                "kind": kinds[i % len(kinds)],
            })
            for i in range(n)
        ]

    def events(self, market, n: int) -> List[dict]:
        from repro.serving.replay import build_write_workload

        last_day = market.query_log.days()[-1]
        return build_write_workload(
            market.query_log, n, day=last_day + 1, seed=self.seed
        )

    # -- phases ---------------------------------------------------------------

    def _open_times(self, rate: float, seconds: float) -> List[float]:
        return [i / rate for i in range(int(round(rate * seconds)))]

    def _warm(self, server: Server, market) -> None:
        pool = sorted({q.text for q in market.query_log.queries})
        if self.cfg["read"] == "search":
            reqs = [
                request_bytes("POST", "/v1/search", json_body({"query": q, "k": self.k}))
                for q in pool
            ]
        else:
            reqs = [
                request_bytes("POST", p, json_body(b))
                for p, b in self.read_payloads(market, 64, salt=9)
            ]
        lane = Lane("warm", reqs, due=[0.0] * len(reqs))
        run_lanes(server.host, server.port, [lane])
        bad = [r for r in lane.results if not r.ok]
        if bad:
            raise CheckFailed(f"warm-up read failed with HTTP {bad[0].status}")

    def _closed_lanes(self, payloads: List[Tuple[str, dict]], seconds: float) -> List[Lane]:
        n = self.cfg["closed"]["connections"]
        return [
            Lane(
                f"closed-{j}",
                [request_bytes("POST", p, json_body(b)) for p, b in payloads[j::n]],
                stop_s=seconds,
            )
            for j in range(n)
        ]

    def slices(self) -> int:
        """Read slices in one run: its read share of ``--seconds``, cut
        into slices of one open-loop and one closed-loop phase each."""
        cfg = self.cfg["slices"]
        per = self.cfg["open"]["slice_s"] + self.cfg["closed"]["slice_s"]
        return max(cfg["min"], int(self.seconds * cfg["read_share"] / per))

    def run_plain(self, repeats: int) -> Tuple[Pass, List[float], Built]:
        """Fit, save, shard and start a plain server ``repeats`` times.

        Each set-up is timed until /v1/health is ok; each server then
        serves its share of the read slices, so process-level variation
        (thread placement, hash seeds) is sampled within one run. The
        last server also runs the write path phases.
        """
        out, times = Pass(), []
        total = self.slices()
        for i in range(repeats):
            t0 = time.perf_counter()
            built = build_model(self.ws, str(i), self.cfg.get("shards", 0))
            paths = self._paths(built, str(i))
            server = self._spawn(self.cfg["server"], paths, f"server-{i}", False)
            server.wait_ready()
            times.append(time.perf_counter() - t0)
            share = total // repeats + (i < total % repeats)
            self._measure(server, built, paths, out, share, i == repeats - 1,
                          traced=False, tag=str(i))
        return out, times, built

    def run_traced(self, built: Built) -> Pass:
        """Every phase once against a server started by the launcher."""
        paths = self._paths(built, "traced")
        server = self._spawn(self.cfg["server"], paths, "server-traced", True)
        server.wait_ready()
        out = Pass()
        self._measure(server, built, paths, out, self.slices(), True, traced=True,
                      tag="traced")
        return out

    def _measure(self, server: Server, built: Built, paths: Dict[str, str], out: Pass,
                 slices: int, last: bool, traced: bool, tag: str) -> None:
        """Run ``slices`` read slices (and, when ``last``, the write
        path phases) against ``server``, then stop it.

        Open- and closed-loop phases alternate in short slices, so both
        kinds of read sample the whole run; the metrics are taken over
        slices (see ``metrics.end_to_end``).
        """
        out.ready_s = server.ready_s
        self._refs.clear()  # only this server's snapshot is compared now
        self._warm(server, built.market)
        out.metrics_before = server.metrics()
        cpu0 = cpu_seconds(server.pid)
        start = time.perf_counter()
        for _ in range(slices):
            salt = 10 * len(out.closed)
            self._open_reads(server, built, out, salt)
            self._closed_reads(server, built, out, salt)
        if self.name == "ingest_live" and last:
            self._ingest_phases(server, built, paths, traced, out)
        out.cpu_s += cpu_seconds(server.pid) - cpu0
        out.windows["measured"] = (start, time.perf_counter())
        out.metrics_after = server.metrics()
        out.rss_mb = max(out.rss_mb, rss_hwm_mb(server.pid))
        if self.name == "ingest_live" and last:
            self._check_analytics(server, out)
            self._check_follower(built, paths, tag, traced, server, out)
        code = self.ws.stop(server)
        if code != 0:
            raise CheckFailed(f"server exited with {code} on shutdown")
        if traced:
            out.spans = tracing.load(self.ws.path(f"spans-server-{tag}.json"))
        if self.name == "ingest_live" and last:
            self._check_wal(Path(paths["wal"]), out)

    def _open_reads(self, server: Server, built: Built, out: Pass, salt: int) -> None:
        open_cfg = self.cfg["open"]
        due = self._open_times(open_cfg["rate_per_s"], open_cfg["slice_s"])
        payloads = self.read_payloads(built.market, len(due), salt=salt + 1)
        lane = Lane(
            "open",
            [request_bytes("POST", p, json_body(b)) for p, b in payloads],
            due=due,
        )
        t0 = run_lanes(server.host, server.port, [lane])
        out.open_windows.append((t0, time.perf_counter()))
        self._verify(built, payloads, [lane])
        out.reads_open += lane.results
        out.open_slices.append(lane.results)
        out.ops += len(lane.results)
        out.failed += sum(not r.ok for r in lane.results)

    def _closed_reads(self, server: Server, built: Built, out: Pass, salt: int) -> None:
        seconds = self.cfg["closed"]["slice_s"]
        # Closed lanes cycle through their lists; size them so that even
        # 10k answers/s would not wrap (a wrap would repeat panels).
        per_s = 10_000 if self.cfg["read"] == "search" else 2_000
        payloads = self.read_payloads(built.market, int(per_s * seconds), salt=salt + 2)
        lanes = self._closed_lanes(payloads, seconds)
        t0 = run_lanes(server.host, server.port, lanes)
        results = [r for lane in lanes for r in lane.results]
        self._verify(built, payloads, lanes)
        out.closed.append((t0, seconds, results))
        out.ops += len(results)
        out.failed += sum(not r.ok for r in results)

    # -- correctness ----------------------------------------------------------

    def _reference(self, built: Built):
        """The in-process backend on the snapshot ``built`` saved."""
        path = built.cluster or built.snapshot
        if path not in self._refs:
            from repro.api import open_backend

            scheme = "cluster" if built.cluster else "snapshot"
            self._refs[path] = (open_backend(f"{scheme}:{path}", cache_size=0), {})
        return self._refs[path]

    def _expected(self, built: Built, path: str, payload: dict) -> bytes:
        from repro.api import BatchRequest, RecommendRequest, SearchRequest

        backend, memo = self._reference(built)
        key = json.dumps(payload, sort_keys=True)
        if key not in memo:
            if path == "/v1/search":
                response = backend.search(SearchRequest(**payload))
            elif path == "/v1/recommend":
                response = backend.recommend(RecommendRequest(**payload))
            else:
                response = backend.batch(BatchRequest(
                    queries=tuple(payload["queries"]),
                    k=payload["k"],
                    kind=payload["kind"],
                ))
            memo[key] = json_body(response.to_dict())
        return memo[key]

    def _verify_reads(self, built: Built, payloads, results: Sequence[Result]) -> None:
        """Byte-compare answers with the in-process backend: every answer
        of a search workload, an evenly spaced sample of panels."""
        ok = [(i, r) for i, r in enumerate(results) if r.ok]
        if self.cfg["read"] == "panel":
            want = self.cfg["inputs"]["verified_panels"]
            step = max(1, len(ok) // want)
            ok = ok[::step][:want]
        for i, r in ok:
            path, payload = payloads[i]
            if r.body != self._expected(built, path, payload):
                self.problems.append(
                    f"{path} answer differs from the in-process backend for "
                    f"{json.dumps(payload)[:120]}"
                )
                return

    def _verify(self, built: Built, payloads, lanes: Sequence[Lane]) -> None:
        """Verify each lane's answers; lane ``j`` of ``n`` sent
        ``payloads[j::n]``, cycling when it is closed-loop."""
        n = len(lanes)
        for j, lane in enumerate(lanes):
            mine = payloads[j::n]
            self._verify_reads(
                built, [mine[r.index % len(mine)] for r in lane.results], lane.results
            )

    def _verify_shape(self, results: Sequence[Result]) -> None:
        """Reads on a hot-swapping server: a well-formed search answer."""
        for r in results:
            if r.ok and set(json.loads(r.body)) != {"version", "hits"}:
                self.problems.append(f"malformed search answer {r.body[:120]!r}")
                return

    # -- the live write path --------------------------------------------------

    def _ingest_phases(self, server, built, paths, traced, out: Pass) -> None:
        """Open-loop mixed traffic, then a burst drained under a
        continuing trickle of live events."""
        mixed_cfg, drain_cfg = self.cfg["mixed"], self.cfg["drain"]
        rate, ingest_rate = mixed_cfg["rate_per_s"], mixed_cfg["ingest_per_s"]

        # The first warm_s seconds of mixed traffic only bring the updater
        # into its periodic regime: their reads are checked and counted
        # but not timed.
        warm_s = mixed_cfg["warm_s"]
        steady_s = warm_s + self.seconds * (1.0 - self.cfg["slices"]["read_share"])
        read_due = self._open_times(rate, steady_s)
        ingest_due = self._open_times(ingest_rate, steady_s)
        # Offset so reports do not always land on a read's due time.
        report_due = [
            t + 0.5 / rate for t in self._open_times(mixed_cfg["analytics_per_s"], steady_s)
        ]
        n_burst, per_post = drain_cfg["events"], drain_cfg["batch_events"]
        trickle_due = self._open_times(ingest_rate, SETTLE_TIMEOUT_S)
        events = self.events(
            built.market, len(ingest_due) + n_burst + len(trickle_due)
        )
        steady_events = events[:len(ingest_due)]
        burst = events[len(ingest_due):len(ingest_due) + n_burst]
        trickle = events[len(ingest_due) + n_burst:]
        reads = self.read_payloads(built.market, len(read_due), salt=3)

        def ingest_lane(name, items, due, stop_when=None):
            return Lane(
                name,
                [request_bytes("POST", "/v1/ingest", json_body(e)) for e in items],
                due=due,
                stop_when=stop_when,
            )

        read_lane = Lane(
            "mixed",
            [request_bytes("POST", p, json_body(b)) for p, b in reads],
            due=read_due,
        )
        steady_lane = ingest_lane("ingest", steady_events, ingest_due)
        report = json_body({"report": self.cfg["inputs"]["analytics_report"]})
        report_lane = Lane(
            "analytics",
            [request_bytes("POST", "/v1/analytics", report)] * len(report_due),
            due=report_due,
        )
        posts = [
            {"events": burst[i:i + per_post]} for i in range(0, n_burst, per_post)
        ]
        burst_lane = ingest_lane("drain", posts, [0.0] * len(posts))
        wal_dir = Path(paths["wal"])
        with CheckpointWatch(wal_dir, server, 0.2 if traced else None) as watch:

            def drained() -> bool:
                if len(burst_lane.results) < len(posts):
                    return False
                last = max(json.loads(r.body)["last_seq"] for r in burst_lane.results)
                return watch.covered_at(last) is not None

            # Live traffic keeps arriving while the burst drains: the
            # updater folds only once min_batch_events are pending, so
            # without it the burst's tail could wait forever.
            trickle_lane = ingest_lane("trickle", trickle, trickle_due, drained)
            run_lanes(server.host, server.port, [read_lane, steady_lane, report_lane])
            run_lanes(server.host, server.port, [burst_lane, trickle_lane])
            acks = steady_lane.results + burst_lane.results + trickle_lane.results
            refused = [r for r in acks if not r.ok]
            if refused:
                raise CheckFailed(
                    f"ingest refused with HTTP {refused[0].status}: {refused[0].body[:200]!r}"
                )
            last_burst = max(json.loads(r.body)["last_seq"] for r in burst_lane.results)
            covered = watch.wait_for(last_burst)
            out.drain_eps = n_burst / (covered - burst_lane.results[0].sent)
            for r in steady_lane.results:
                seq = json.loads(r.body)["last_seq"]
                out.visible_ms.append(max(0.0, watch.covered_at(seq) - r.done) * 1000.0)
            self._wait_idle(server, watch, max(json.loads(r.body)["last_seq"] for r in acks))
            out.samples = watch.samples
        skip = sum(t < warm_s for t in read_due)
        out.reads_mixed = read_lane.results[skip:]
        out.acks = acks
        out.analytics = report_lane.results
        self._verify_shape(read_lane.results)
        every = read_lane.results + acks + out.analytics
        out.ops += len(every)
        out.failed += sum(not r.ok for r in every)

    def _wait_idle(self, server: Server, watch: CheckpointWatch, last_seq: int) -> None:
        """Wait until every acked event is in the updater's store and
        fewer than min_batch_events remain unfolded, so no fold runs
        and the served generation is final."""
        floor = self.cfg["drain"]["min_batch_events"]
        deadline = time.perf_counter() + SETTLE_TIMEOUT_S
        while True:
            applied = server.metrics()["updater"]["applied_seq"]
            if applied >= last_seq and last_seq - watch.applied() < floor:
                return
            if time.perf_counter() > deadline:
                raise CheckFailed(
                    f"updater never settled: store at {applied}, checkpoint "
                    f"at {watch.applied()}, last ack {last_seq}"
                )
            time.sleep(0.02)

    def _acked(self, out: Pass) -> Tuple[int, List[int]]:
        """(events acknowledged, last_seq of every ack)."""
        bodies = [json.loads(r.body) for r in out.acks if r.ok]
        return sum(b["accepted"] for b in bodies), [b["last_seq"] for b in bodies]

    def _check_analytics(self, server: Server, out: Pass) -> None:
        total, seqs = self._acked(out)
        deadline = time.perf_counter() + SETTLE_TIMEOUT_S
        while server.metrics()["analytics"]["applied_seq"] < max(seqs):
            if time.perf_counter() > deadline:
                raise CheckFailed("analytics tailer never caught up with the acks")
            time.sleep(0.02)
        status, body = post_json(
            server.host, server.port, "/v1/analytics",
            {"sql": "SELECT COUNT(*) AS n FROM events"},
        )
        rows = json.loads(body).get("rows") if status == 200 else None
        if not rows or rows[0][0] != total:
            self.problems.append(
                f"analytics holds {rows and rows[0][0]} events, {total} were acked"
            )

    def _check_follower(self, built, paths, tag, traced, primary: Server, out: Pass) -> None:
        """Start a follower on the feed, time it until it serves the
        primary's generation, and byte-compare sampled answers."""
        target = primary.metrics()["updater"]["switch"]["current_generation"]
        follower = self._spawn(self.cfg["follower"], paths, f"follower-{tag}", traced)
        follower.wait_ready()
        deadline = time.perf_counter() + SETTLE_TIMEOUT_S
        while True:
            replication = follower.metrics()["replication"]
            if replication["serving_generation"] >= target:
                break
            if time.perf_counter() > deadline:
                raise CheckFailed(
                    f"follower never served generation {target}: {replication}"
                )
            time.sleep(0.01)
        out.follower_ready_s = time.perf_counter() - follower.started
        if replication["serving_generation"] != target:
            self.problems.append(
                f"follower serves generation {replication['serving_generation']}, "
                f"primary {target}"
            )
        out.follower_built = replication["built_generation"]
        pool = sorted({q.text for q in built.market.query_log.queries})
        rng = random.Random(self.seed)
        for q in rng.sample(pool, self.cfg["follower_compare_queries"]):
            for path in ("/v1/search", "/v1/recommend"):
                payload = {"query": q, "k": self.k}
                a = post_json(primary.host, primary.port, path, payload)
                b = post_json(follower.host, follower.port, path, payload)
                if a != b:
                    self.problems.append(f"follower answer differs for {path} {q!r}")
                    break
        code = self.ws.stop(follower)
        if code != 0:
            raise CheckFailed(f"follower exited with {code} on shutdown")
        if traced:
            out.follower_spans = tracing.load(self.ws.path(f"spans-follower-{tag}.json"))

    def _check_wal(self, wal_dir: Path, out: Pass) -> None:
        """Every acked seq appears exactly once in a replay of the WAL."""
        from repro.streaming.wal import WriteAheadLog

        total, last_seqs = self._acked(out)
        with WriteAheadLog(wal_dir) as wal:
            seqs = [e.seq for e in wal.replay()]
        if len(seqs) != len(set(seqs)):
            self.problems.append("the WAL replays a seq more than once")
        missing = set(last_seqs) - set(seqs)
        if missing:
            self.problems.append(f"acked seqs missing from the WAL: {sorted(missing)[:5]}")
        if len(seqs) != total:
            self.problems.append(f"the WAL holds {len(seqs)} events, {total} were acked")
