"""Composable middleware around any :class:`~repro.api.backends.ShoalBackend`.

A :class:`Gateway` wraps a backend with an ordered middleware stack and
is itself a backend, so stacks compose and every frontend (CLI, HTTP
edge, replayer, benches) gets the same cross-cutting behaviour from one
place:

* :class:`MetricsMiddleware` — per-endpoint p50/p95/p99 latency (the
  same :class:`~repro.serving.stats.RequestStats` recorders the cluster
  router uses) plus error counts by stable code;
* :class:`RateLimitMiddleware` — token-bucket admission control,
  rejecting excess traffic with ``rate_limited`` before it costs any
  backend work;
* :class:`DeadlineMiddleware` — per-request deadlines carried by an
  explicit :class:`~repro.api.context.RequestContext`: the request's own
  ``timeout_ms`` (or the configured default) arms the ambient context —
  creating one when no edge did — so the layers below can *cancel* work
  at their check points, and any overrun that survives to completion is
  still surfaced as ``deadline_exceeded``;
* :class:`CacheMiddleware` — a gateway-level result LRU (the shared
  :class:`~repro.api.cache.LRUCache`) keyed on each request's
  ``cache_key()``.

**Ordering.** :func:`default_middlewares` composes
``metrics → rate-limit → deadline → cache`` outermost-first: metrics
must observe rejections, the rate limiter must reject before any work
is done, the deadline must cover cache misses *and* hits, and the cache
sits innermost so a hit costs one locked dict probe.

**Cache-only dispatch.** :meth:`Gateway.handle_cached` answers a
request only if the result cache already holds it, running every stage
above the cache but nothing below it; the async edge uses it to serve
hits on its event-loop thread, where no backend work may run.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro.api.backends import ShoalBackend
from repro.api.cache import MISS, CacheStats, LRUCache
from repro.api.context import RequestContext, current_context
from repro.api.contract import (
    ERROR_CODES,
    ApiError,
    BatchRequest,
    BatchResponse,
    RecommendRequest,
    RecommendResponse,
    SearchRequest,
    SearchResponse,
)
from repro.obs.histogram import Histogram, LatencySummary
from repro.obs.tracer import default_tracer, traced

__all__ = [
    "Middleware",
    "CacheMiddleware",
    "RateLimitMiddleware",
    "DeadlineMiddleware",
    "MetricsMiddleware",
    "Gateway",
    "default_middlewares",
]

Request = Union[SearchRequest, RecommendRequest, BatchRequest]
Response = Union[SearchResponse, RecommendResponse, BatchResponse]
Handler = Callable[[Request], Response]


class Middleware:
    """One layer of the stack: observe/short-circuit, then ``call_next``."""

    #: Short name used for the middleware's trace span (``mw.<name>``).
    name = "middleware"

    def handle(self, request: Request, call_next: Handler) -> Response:
        raise NotImplementedError

    def stats(self) -> Dict[str, Any]:
        """JSON-able counters merged into :meth:`Gateway.stats`."""
        return {}


class CachedAnswer:
    """One gateway-cache entry: the response and, once an edge has
    asked for it, its encoded wire body.

    The body lives in the same entry as the response, so epoch
    invalidation and TTL expiry drop both together. It is filled on
    the first :meth:`Gateway.handle_cached` hit, never on put, so a
    miss-heavy cache holds no bodies nobody reads.
    """

    __slots__ = ("response", "body")

    def __init__(self, response: Response):
        self.response = response
        self.body: Optional[bytes] = None


class CacheMiddleware(Middleware):
    """Gateway-level result cache over the shared locked LRU module.

    ``ttl_seconds`` ages entries out (see :class:`~repro.api.cache.LRUCache`)
    so the gateway cache drains naturally after a generation hot-swap
    instead of requiring a full invalidation; ``clock`` is injectable
    for deterministic tests.
    """

    name = "cache"

    def __init__(
        self,
        max_size: int = 4096,
        *,
        ttl_seconds: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self._cache = LRUCache(max_size, ttl_seconds=ttl_seconds, clock=clock)
        # Epoch-stamped keys make invalidation race-proof: a request
        # that computed its response against the pre-invalidation
        # backend finishes its put under the OLD epoch, where no new
        # lookup can ever find it — the same stale-put defence the
        # serving engine's version-stamped state keys provide.
        self._epoch = 0

    def handle(self, request: Request, call_next: Handler) -> Response:
        key = (self._epoch, request.cache_key())
        cached = self._cache.get(key)
        if cached is not MISS:
            return cached.response
        response = call_next(request)
        self._cache.put(key, CachedAnswer(response))
        return response

    def handle_observed(
        self, request: Request, call_next: Handler
    ) -> Response:
        """The traced-chain variant: additionally tags the ambient
        request context with the hit/miss outcome so the access log
        and the span tree can show where the answer came from."""
        key = (self._epoch, request.cache_key())
        cached = self._cache.get(key)
        ctx = current_context()
        if cached is not MISS:
            if ctx is not None:
                ctx.tags["cache"] = "hit"
            return cached.response
        if ctx is not None:
            ctx.tags["cache"] = "miss"
        response = call_next(request)
        self._cache.put(key, CachedAnswer(response))
        return response

    def probe(self, request: Request) -> Optional["CachedAnswer"]:
        """The cached answer for ``request``, or None — counting
        neither. The caller holds the entry, so a concurrent eviction
        cannot take it away; :class:`_HeldAnswer` counts the hit when
        the request actually reaches this stage."""
        entry = self._cache.probe((self._epoch, request.cache_key()))
        return None if entry is MISS else entry

    def count_hit(self) -> None:
        self._cache.count_hit()

    def invalidate(self) -> None:
        self._epoch += 1
        self._cache.clear()

    def cache_stats(self) -> CacheStats:
        return self._cache.stats()

    def stats(self) -> Dict[str, Any]:
        return {"gateway_cache": self._cache.stats().to_dict()}


class _HeldAnswer(Middleware):
    """The cache stage of a :meth:`Gateway.handle_cached` chain: it
    serves an entry already taken out of the cache and never calls the
    stage below it, so no backend work can follow a held hit."""

    name = CacheMiddleware.name

    def __init__(self, cache: CacheMiddleware, entry: CachedAnswer):
        self._cache = cache
        self._entry = entry

    def handle(self, request: Request, call_next: Handler) -> Response:
        self._cache.count_hit()
        return self._entry.response

    def handle_observed(
        self, request: Request, call_next: Handler
    ) -> Response:
        ctx = current_context()
        if ctx is not None:
            ctx.tags["cache"] = "hit"
        return self.handle(request, call_next)


def _unreachable(request: Request) -> Response:
    raise AssertionError("a held cache answer never reaches the backend")


class RateLimitMiddleware(Middleware):
    """Token-bucket admission control.

    ``rate`` tokens/second refill a bucket of ``burst`` capacity; each
    request spends one token or is rejected with ``rate_limited``.
    ``clock`` is injectable (monotonic seconds) so tests can drive time.
    """

    name = "rate_limit"

    def __init__(
        self,
        rate: float,
        burst: Optional[int] = None,
        *,
        clock: Callable[[], float] = time.monotonic,
    ):
        if rate <= 0:
            raise ValueError(f"rate must be > 0 req/s, got {rate}")
        self._rate = float(rate)
        self._capacity = float(burst if burst is not None else max(rate, 1))
        if self._capacity < 1:
            raise ValueError(f"burst must be >= 1, got {burst}")
        self._clock = clock
        self._tokens = self._capacity
        self._refilled_at = clock()
        self._rejected = 0
        self._admitted = 0
        self._lock = threading.Lock()

    def handle(self, request: Request, call_next: Handler) -> Response:
        now = self._clock()
        with self._lock:
            elapsed = max(now - self._refilled_at, 0.0)
            self._tokens = min(
                self._capacity, self._tokens + elapsed * self._rate
            )
            self._refilled_at = now
            if self._tokens < 1.0:
                self._rejected += 1
                raise ApiError(
                    "rate_limited",
                    f"rate limit of {self._rate:g} req/s exceeded",
                )
            self._tokens -= 1.0
            self._admitted += 1
        return call_next(request)

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "rate_limit": {
                    "rate_per_s": self._rate,
                    "burst": self._capacity,
                    "admitted": self._admitted,
                    "rejected": self._rejected,
                }
            }


class DeadlineMiddleware(Middleware):
    """Per-request deadline enforcement through the request context.

    The effective deadline is the request's ``timeout_ms`` when set,
    else ``default_timeout_ms`` (``None`` leaves any inherited deadline
    alone). When an edge already installed a
    :class:`~repro.api.context.RequestContext`, the limit *arms* it
    (tighten-only) so the cancellation-aware layers below — backend
    entry, router shard loops — can abandon work mid-flight; when no
    context is ambient (in-process callers), the middleware owns one
    for the duration of the call. An overrun that survives to
    completion is still surfaced as ``deadline_exceeded`` and the
    context cancelled, so nothing downstream keeps polishing an answer
    nobody will read.
    """

    name = "deadline"

    def __init__(
        self,
        default_timeout_ms: Optional[float] = None,
        *,
        clock: Callable[[], float] = time.perf_counter,
    ):
        if default_timeout_ms is not None and default_timeout_ms <= 0:
            raise ValueError(
                f"default_timeout_ms must be > 0, got {default_timeout_ms}"
            )
        self._default_ms = default_timeout_ms
        self._clock = clock
        self._expired = 0
        self._lock = threading.Lock()

    def handle(self, request: Request, call_next: Handler) -> Response:
        limit_ms = (
            request.timeout_ms
            if request.timeout_ms is not None
            else self._default_ms
        )
        ctx = current_context()
        owned = False
        if ctx is None:
            if limit_ms is None:
                return call_next(request)
            ctx = RequestContext.for_request(
                timeout_ms=limit_ms, clock=self._clock
            )
            owned = True
        elif limit_ms is not None:
            ctx.arm(limit_ms)

        t0 = self._clock()
        try:
            if owned:
                with ctx.use():
                    response = call_next(request)
            else:
                response = call_next(request)
        except ApiError as exc:
            # Count expiries detected below us (a cancellation check
            # point fired mid-flight) exactly like our own.
            if exc.code == "deadline_exceeded":
                with self._lock:
                    self._expired += 1
            raise
        if ctx.expired:
            elapsed_ms = (self._clock() - t0) * 1000.0
            with self._lock:
                self._expired += 1
            ctx.cancel("deadline expired")
            shown = (
                f"{limit_ms:g}ms" if limit_ms is not None
                else "inherited from the edge"
            )
            raise ApiError(
                "deadline_exceeded",
                f"request took {elapsed_ms:.1f}ms; deadline was {shown}",
            )
        return response

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "deadline": {
                    "default_timeout_ms": self._default_ms,
                    "expired": self._expired,
                }
            }


_ENDPOINT_OF = {
    SearchRequest: "search",
    RecommendRequest: "recommend",
    BatchRequest: "batch",
}


class MetricsMiddleware(Middleware):
    """Unified request metrics: per-endpoint latency + errors by code.

    Latency lands in the shared fixed-bucket
    :class:`~repro.obs.histogram.Histogram` (the same recorder the
    router and the async edge use); :meth:`histograms` hands the live
    recorders to the OpenMetrics exposition layer so ``?format=prom``
    can render real cumulative buckets, not pre-digested percentiles.
    """

    name = "metrics"

    def __init__(self):
        self._stats: Dict[str, Histogram] = {
            name: Histogram() for name in ("search", "recommend", "batch")
        }
        self._errors: Dict[str, int] = {}
        self._lock = threading.Lock()

    def handle(self, request: Request, call_next: Handler) -> Response:
        endpoint = _ENDPOINT_OF.get(type(request), "search")
        t0 = time.perf_counter()
        try:
            response = call_next(request)
        except ApiError as exc:
            with self._lock:
                self._errors[exc.code] = self._errors.get(exc.code, 0) + 1
            self._stats[endpoint].record(time.perf_counter() - t0)
            raise
        self._stats[endpoint].record(time.perf_counter() - t0)
        return response

    def latency(self, endpoint: str) -> LatencySummary:
        return self._stats[endpoint].summary()

    def histograms(self) -> Dict[str, Histogram]:
        """Live per-endpoint recorders, keyed for exposition."""
        return {
            f"gateway_{name}_latency_ms": recorder
            for name, recorder in self._stats.items()
            if recorder.count > 0
        }

    def error_counts(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._errors)

    def stats(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"errors": self.error_counts()}
        latencies = {}
        for name, recorder in self._stats.items():
            summary = recorder.summary()
            if summary.count == 0:
                continue
            latencies[name] = {
                "count": summary.count,
                "qps": summary.qps,
                "mean_ms": summary.mean_ms,
                "p50_ms": summary.p50_ms,
                "p95_ms": summary.p95_ms,
                "p99_ms": summary.p99_ms,
                "max_ms": summary.max_ms,
            }
        out["latency"] = latencies
        return out


def default_middlewares(
    *,
    cache_size: int = 4096,
    cache_ttl_s: Optional[float] = None,
    rate_limit: Optional[float] = None,
    burst: Optional[int] = None,
    deadline_ms: Optional[float] = None,
) -> List[Middleware]:
    """The canonical stack, outermost first (see module docstring)."""
    stack: List[Middleware] = [MetricsMiddleware()]
    if rate_limit is not None:
        stack.append(RateLimitMiddleware(rate_limit, burst))
    if deadline_ms is not None:
        stack.append(DeadlineMiddleware(deadline_ms))
    if cache_size > 0:
        stack.append(CacheMiddleware(cache_size, ttl_seconds=cache_ttl_s))
    return stack


class Gateway(ShoalBackend):
    """A backend wrapped in a middleware stack — and itself a backend.

    ``middlewares`` is ordered outermost-first; ``None`` installs
    :func:`default_middlewares` with its standard cache + metrics.
    """

    kind = "gateway"

    def __init__(
        self,
        backend: ShoalBackend,
        middlewares: Optional[Sequence[Middleware]] = None,
        *,
        access_log=None,
    ):
        self._backend = backend
        self._middlewares: List[Middleware] = list(
            default_middlewares() if middlewares is None else middlewares
        )
        #: File-like sink for one structured JSON line per request
        #: (``serve-http --access-log``); None disables logging.
        self._access_log = access_log
        self._access_log_lock = threading.Lock()

        def terminal(request: Request) -> Response:
            if isinstance(request, SearchRequest):
                return self._backend.search(request)
            if isinstance(request, RecommendRequest):
                return self._backend.recommend(request)
            if isinstance(request, BatchRequest):
                return self._backend.batch(request)
            raise ApiError(
                "bad_request", f"not an API request: {type(request).__name__}"
            )

        # Two pre-composed chains: the bare one is the tracing-off hot
        # path (no span handles, no ambient lookups per stage), the
        # traced one wraps every stage in an ``mw.<name>`` span. Which
        # one runs is decided once per request in :meth:`_observed`.
        chain: Handler = terminal
        traced_chain: Handler = terminal
        for mw in reversed(self._middlewares):
            chain = _bind_plain(mw, chain)
            traced_chain = _bind(mw, traced_chain)
        self._chain = chain
        self._traced_chain = traced_chain
        # The outermost result cache and the stages above it: what a
        # held hit (handle_cached) runs. Stages below it never run on a
        # hit, exactly as in the plain chains.
        self._front_cache: Optional[CacheMiddleware] = None
        self._above_cache: List[Middleware] = []
        for i, mw in enumerate(self._middlewares):
            if isinstance(mw, CacheMiddleware):
                self._front_cache = mw
                self._above_cache = self._middlewares[:i]
                break

    @property
    def backend(self) -> ShoalBackend:
        return self._backend

    @property
    def middlewares(self) -> List[Middleware]:
        return list(self._middlewares)

    def handle(
        self,
        request: Request,
        context: Optional[RequestContext] = None,
    ) -> Response:
        """Dispatch any typed request through the full stack.

        ``context`` installs an explicit :class:`RequestContext` as the
        ambient one for the call (edges pass the context they minted);
        omitted, whatever context is already ambient — or none — flows
        through unchanged.
        """
        request.validate()
        if context is not None:
            with context.use():
                return self._observed(request, context, None)
        ctx = current_context()
        if (
            (ctx is None or ctx.tracer is None)
            and self._access_log is None
            and default_tracer() is None
        ):
            # Tracing and logging both off: straight down the bare
            # pre-composed chain, nothing per-request to observe.
            return self._chain(request)
        return self._observed(request, ctx, None)

    def handle_cached(
        self,
        request: Request,
        encode: Callable[[Response], bytes],
        context: Optional[RequestContext] = None,
    ) -> Optional[bytes]:
        """Answer ``request`` from the result cache alone, as encoded
        bytes — or return None, having done nothing, when the cache
        does not hold it.

        The cache is probed once and the entry held, so an eviction
        racing this call cannot turn the hit into backend work. The
        hit then runs every stage above the cache (metrics, rate
        limit, deadline, tracing, access log) exactly as
        :meth:`handle` would, with a cache stage that serves the held
        entry and has no stage below it. ``encode`` must be a pure
        function of the response: its bytes are stored in the entry on
        the first hit and reused by every later one.
        """
        cache = self._front_cache
        if cache is None:
            return None
        request.validate()
        entry = cache.probe(request)
        if entry is None:
            return None
        held = _HeldAnswer(cache, entry)
        if context is not None:
            with context.use():
                response = self._observed(request, context, held)
        else:
            response = self._observed(request, current_context(), held)
        if response is not entry.response:  # a stage above swapped it
            return encode(response)
        body = entry.body
        if body is None:
            body = entry.body = encode(response)
        return body

    def _run(
        self, request: Request, traced: bool, held: Optional[_HeldAnswer]
    ) -> Response:
        if held is None:
            chain = self._traced_chain if traced else self._chain
            return chain(request)
        bind = _bind if traced else _bind_plain
        chain = bind(held, _unreachable)
        for mw in reversed(self._above_cache):
            chain = bind(mw, chain)
        return chain(request)

    def _observed(
        self,
        request: Request,
        ctx: Optional[RequestContext],
        held: Optional[_HeldAnswer],
    ) -> Response:
        """Run the middleware chain under a ``gateway`` span and emit
        the per-request access-log line — the one place every edge and
        every hedge attempt funnels through.

        The tracer is resolved exactly once here; with tracing and
        logging both off the request takes the bare pre-composed chain
        with zero per-request instrumentation cost. ``held`` is a
        :meth:`handle_cached` hit, served in place of the cache stage.
        """
        tracer = ctx.tracer if ctx is not None else None
        if tracer is None:
            tracer = default_tracer()
        if tracer is None and self._access_log is None:
            return self._run(request, False, held)
        endpoint = _ENDPOINT_OF.get(type(request), "search")
        if self._access_log is None:
            with tracer.span(
                "gateway", context=ctx, tags={"endpoint": endpoint}
            ):
                return self._run(request, True, held)
        t0 = time.perf_counter()
        status = 200
        error: Optional[str] = None
        try:
            if tracer is None:
                # No spans open, but the observed stages still tag the
                # cache outcome this request's log line reports.
                return self._run(request, True, held)
            with tracer.span(
                "gateway", context=ctx, tags={"endpoint": endpoint}
            ):
                return self._run(request, True, held)
        except ApiError as exc:
            status = ERROR_CODES.get(exc.code, 500)
            error = exc.code
            raise
        finally:
            self._log_request(
                ctx, endpoint, status, (time.perf_counter() - t0) * 1000.0,
                error,
            )

    def _log_request(
        self,
        ctx: Optional[RequestContext],
        endpoint: str,
        status: int,
        duration_ms: float,
        error: Optional[str],
    ) -> None:
        tags = ctx.tags if ctx is not None else {}
        record = {
            "ts": round(time.time(), 6),
            "request_id": ctx.request_id if ctx is not None else None,
            "endpoint": endpoint,
            "status": status,
            "duration_ms": round(duration_ms, 3),
            "attempt": tags.get("attempt", "primary"),
            "cache": tags.get("cache"),
            "edge": tags.get("edge"),
        }
        if error is not None:
            record["error"] = error
        line = json.dumps(record, separators=(",", ":")) + "\n"
        try:
            with self._access_log_lock:
                self._access_log.write(line)
                flush = getattr(self._access_log, "flush", None)
                if flush is not None:
                    flush()
        except (OSError, ValueError):  # pragma: no cover - sink went away
            pass

    def search(self, request: SearchRequest) -> SearchResponse:
        return self.handle(request)

    def recommend(self, request: RecommendRequest) -> RecommendResponse:
        return self.handle(request)

    def batch(self, request: BatchRequest) -> BatchResponse:
        return self.handle(request)

    def health(self) -> Dict[str, Any]:
        inner = self._backend.health()
        inner["backend"] = f"gateway({inner.get('backend', '?')})"
        return inner

    def stats(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"backend": self.kind}
        for mw in self._middlewares:
            out.update(mw.stats())
        out["inner"] = self._backend.stats()
        return out

    def invalidate_cache(self) -> None:
        """Drop every gateway-level cached result."""
        for mw in self._middlewares:
            if isinstance(mw, CacheMiddleware):
                mw.invalidate()

    def cache_stats(self) -> Optional[CacheStats]:
        """The gateway-level result-cache counters (None if no cache
        middleware is installed); the replayer probes this."""
        for mw in self._middlewares:
            if isinstance(mw, CacheMiddleware):
                return mw.cache_stats()
        return None

    def histograms(self) -> Dict[str, Histogram]:
        """Live latency recorders for OpenMetrics exposition."""
        out: Dict[str, Histogram] = {}
        for mw in self._middlewares:
            if isinstance(mw, MetricsMiddleware):
                out.update(mw.histograms())
        return out

    def close(self) -> None:
        self._backend.close()


def _bind(mw: Middleware, call_next: Handler) -> Handler:
    # Duck-typed stages (tests) may not declare a name.
    span_name = f"mw.{getattr(mw, 'name', type(mw).__name__.lower())}"
    # A middleware may carry an observed variant of its handler with
    # extra context tagging that the plain chain must not pay for.
    handler = getattr(mw, "handle_observed", mw.handle)

    def bound(request: Request) -> Response:
        with traced(span_name):
            return handler(request, call_next)

    return bound


def _bind_plain(mw: Middleware, call_next: Handler) -> Handler:
    def bound(request: Request) -> Response:
        return mw.handle(request, call_next)

    return bound
