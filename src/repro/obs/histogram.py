"""The one latency histogram every tier reports through.

Before this module existed the repo had three hand-rolled latency
aggregators — ``serving/stats.py:RequestStats`` (unbounded sample
list + nearest-rank percentiles), the ``MetricsMiddleware`` copy, and
the router's — each with subtly different QPS and percentile
semantics. :class:`Histogram` replaces all of them: a fixed-bucket,
geometrically-spaced latency histogram with O(1) memory, exact
count/sum/max tracking, and a :class:`LatencySummary` view that keeps
the external API of the old recorder byte-for-byte compatible in
shape.

Bucket layout
-------------
Bounds grow by :data:`BUCKET_GROWTH` (10%) per bucket from
:data:`BUCKET_FIRST_MS` to :data:`BUCKET_LAST_MS`, so any reported
percentile is within one bucket (≤10% relative error) of the true
nearest-rank value. The top percentile is additionally clamped to the
exact observed maximum, so ``p99`` of a 5-sample recorder still reads
the true slowest sample. The bounds are module constants — every
histogram in the process shares them, which is what makes merge and
OpenMetrics exposition trivial.

:func:`percentile` — the exact nearest-rank helper the replayer uses
on small in-memory sample lists — also lives here so there is exactly
one percentile definition in the codebase.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "BUCKET_BOUNDS_MS",
    "Histogram",
    "LatencySummary",
    "percentile",
]

BUCKET_FIRST_MS = 0.01
BUCKET_LAST_MS = 120_000.0
BUCKET_GROWTH = 1.10


def _build_bounds() -> Tuple[float, ...]:
    bounds: List[float] = []
    ub = BUCKET_FIRST_MS
    while ub < BUCKET_LAST_MS:
        bounds.append(float(f"{ub:.6g}"))  # clean `le` labels
        ub *= BUCKET_GROWTH
    bounds.append(BUCKET_LAST_MS)
    return tuple(bounds)


#: Upper bounds (milliseconds) of the shared fixed buckets; an
#: implicit +Inf bucket follows the last bound.
BUCKET_BOUNDS_MS: Tuple[float, ...] = _build_bounds()
_N_BUCKETS = len(BUCKET_BOUNDS_MS) + 1  # +Inf overflow bucket

#: Unfolded samples tolerated before ``record`` folds inline. This
#: bounds a recorder that nothing reads between scrapes (a hot path no
#: summary folds for minutes) at ~32 KiB of boxed floats. The
#: per-request cost stays one list append; the inline fold every 1024
#: samples costs a few hundred microseconds, under a microsecond per
#: sample.
_FOLD_AT = 1024


def _bucket_index(ms: float) -> int:
    """Index of the bucket whose upper bound is the smallest >= ms.

    ``bisect_left`` returns the first index whose bound is >= ms;
    ``len(bounds)`` means the +Inf overflow bucket. The C bisect keeps
    ``record_ms`` cheap enough for the per-request hot path.
    """
    return bisect_left(BUCKET_BOUNDS_MS, ms)


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending-sorted sequence.

    Exact — used by the replayer on raw sample lists. Returns 0.0 for
    an empty sequence.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q!r}")
    if not sorted_values:
        return 0.0
    rank = max(1, int(-(-q * len(sorted_values) // 100)))  # ceil
    return float(sorted_values[min(rank, len(sorted_values)) - 1])


@dataclass(frozen=True)
class LatencySummary:
    """Immutable latency roll-up — the external view of a recorder.

    Kept field-for-field compatible with the pre-histogram
    ``serving.stats.LatencySummary`` so every stats dict, bench, and
    replay report keeps its shape.
    """

    count: int
    elapsed_seconds: float
    qps: float
    mean_ms: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    max_ms: float

    @property
    def total_seconds(self) -> float:
        """Total busy time (sum of recorded latencies) in seconds."""
        return self.mean_ms * self.count / 1000.0

    def summary(self) -> str:
        return (
            f"{self.count} requests in {self.elapsed_seconds:.3f}s "
            f"({self.qps:.1f} qps) mean={self.mean_ms:.3f}ms "
            f"p50={self.p50_ms:.3f}ms "
            f"p95={self.p95_ms:.3f}ms p99={self.p99_ms:.3f}ms "
            f"max={self.max_ms:.3f}ms"
        )


class Histogram:
    """Thread-safe fixed-bucket latency recorder.

    Drop-in replacement for the old ``RequestStats``: ``record()``
    takes seconds, ``summary()`` returns a :class:`LatencySummary`,
    and QPS is measured over the wall-clock window from the first to
    the most recent ``record()`` call. On top of that it exposes the
    raw cumulative buckets (:meth:`buckets`) for OpenMetrics
    exposition and :meth:`merge` for cross-shard roll-ups.
    """

    __slots__ = (
        "_lock",
        "_clock",
        "_counts",
        "_count",
        "_sum_ms",
        "_max_ms",
        "_started_at",
        "_last_at",
        "_pending",
    )

    def __init__(self, clock=time.monotonic) -> None:
        self._lock = threading.Lock()
        self._clock = clock
        self._counts = [0] * _N_BUCKETS
        self._count = 0
        self._sum_ms = 0.0
        self._max_ms = 0.0
        self._started_at: Optional[float] = None
        self._last_at = 0.0
        # Recording appends here and bucketing happens lazily on the
        # next read (or every _FOLD_AT samples): the hot path pays one
        # list append like the old recorder, not a bisect per request.
        self._pending: List[float] = []

    # -- recording ---------------------------------------------------------

    def record(self, seconds: float) -> None:
        """Record one request latency, in seconds.

        Lock-free: ``list.append`` is atomic under the GIL and the
        fold only ever consumes a prefix it measured (see
        :meth:`_fold_locked`), so the per-request cost is one append
        plus a clock read — a recorder never blocks behind a scrape.
        """
        now = self._clock()
        pending = self._pending
        pending.append(seconds * 1000.0)
        if self._started_at is None:
            # Backdate to the request's start so a single sample
            # reads as qps = 1/latency — what an external load
            # generator would measure (matches the old recorder).
            self._started_at = now - seconds
        self._last_at = now
        if len(pending) >= _FOLD_AT:
            with self._lock:
                self._fold_locked()

    def record_ms(self, ms: float) -> None:
        """Record one request latency, in milliseconds."""
        now = self._clock()
        pending = self._pending
        pending.append(ms)
        if self._started_at is None:
            self._started_at = now - ms / 1000.0
        self._last_at = now
        if len(pending) >= _FOLD_AT:
            with self._lock:
                self._fold_locked()

    def _fold_locked(self) -> None:
        """Bucket the pending samples; call with the lock held.

        Recording appends without the lock, so the fold snapshots the
        first ``n`` samples and deletes exactly those — an append that
        races past ``n`` simply survives for the next fold, no sample
        is ever dropped or double-counted. Negative latencies (clock
        skew on an injected recorder) clamp to zero here, off the
        per-request path.
        """
        pending = self._pending
        n = len(pending)
        if n == 0:
            return
        chunk = pending[:n]
        counts = self._counts
        sum_ms = 0.0
        max_ms = self._max_ms
        for ms in chunk:
            if ms < 0.0:
                ms = 0.0
            counts[bisect_left(BUCKET_BOUNDS_MS, ms)] += 1
            sum_ms += ms
            if ms > max_ms:
                max_ms = ms
        self._count += n
        self._sum_ms += sum_ms
        self._max_ms = max_ms
        del pending[:n]

    def reset(self) -> None:
        with self._lock:
            self._counts = [0] * _N_BUCKETS
            self._count = 0
            self._sum_ms = 0.0
            self._max_ms = 0.0
            self._started_at = None
            self._last_at = 0.0
            self._pending.clear()

    def merge(self, other: "Histogram") -> None:
        """Fold ``other``'s samples into this recorder."""
        with other._lock:
            other._fold_locked()
            counts = list(other._counts)
            count = other._count
            sum_ms = other._sum_ms
            max_ms = other._max_ms
            started = other._started_at
            last = other._last_at
        with self._lock:
            self._fold_locked()
            for i, c in enumerate(counts):
                self._counts[i] += c
            self._count += count
            self._sum_ms += sum_ms
            if max_ms > self._max_ms:
                self._max_ms = max_ms
            if started is not None and (
                self._started_at is None or started < self._started_at
            ):
                self._started_at = started
            if last > self._last_at:
                self._last_at = last

    # -- views -------------------------------------------------------------

    @property
    def count(self) -> int:
        with self._lock:
            return self._count + len(self._pending)

    def _percentile_ms_locked(self, q: float) -> float:
        if self._count == 0:
            return 0.0
        rank = max(1, int(-(-q * self._count // 100)))
        seen = 0
        for i, c in enumerate(self._counts):
            seen += c
            if seen >= rank:
                ub = (
                    BUCKET_BOUNDS_MS[i]
                    if i < len(BUCKET_BOUNDS_MS)
                    else self._max_ms
                )
                # Never report a percentile above the exact observed
                # maximum — makes the top percentile of small recorders
                # exact instead of one-bucket high.
                return min(ub, self._max_ms)
        return self._max_ms

    def percentile_ms(self, q: float) -> float:
        """Nearest-rank percentile (ms), ≤10% high, clamped to max."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q!r}")
        with self._lock:
            self._fold_locked()
            return self._percentile_ms_locked(q)

    def summary(self, elapsed_s: Optional[float] = None) -> LatencySummary:
        """Roll everything up into a :class:`LatencySummary`.

        ``elapsed_s`` overrides the measured first-to-last wall-clock
        window (the replayer passes its own measured window).
        """
        with self._lock:
            self._fold_locked()
            n = self._count
            if n == 0:
                return LatencySummary(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
            if elapsed_s is None:
                started = (
                    self._started_at
                    if self._started_at is not None
                    else self._last_at
                )
                elapsed_s = max(self._last_at - started, 0.0)
            return LatencySummary(
                count=n,
                elapsed_seconds=elapsed_s,
                qps=n / elapsed_s if elapsed_s > 0 else 0.0,
                mean_ms=self._sum_ms / n,
                p50_ms=self._percentile_ms_locked(50.0),
                p95_ms=self._percentile_ms_locked(95.0),
                p99_ms=self._percentile_ms_locked(99.0),
                max_ms=self._max_ms,
            )

    def buckets(self) -> List[Tuple[float, int]]:
        """Cumulative ``(upper_bound_ms, count)`` pairs for exposition.

        Empty leading buckets (except the one just below the first
        sample) and everything past the bucket containing the maximum
        are trimmed, so quiet histograms stay cheap to render. The
        final pair is always ``(inf, total_count)``.
        """
        with self._lock:
            self._fold_locked()
            counts = list(self._counts)
            total = self._count
        out: List[Tuple[float, int]] = []
        cum = 0
        for i, ub in enumerate(BUCKET_BOUNDS_MS):
            cum += counts[i]
            if cum == 0 and i + 1 < len(counts) and counts[i + 1] == 0:
                continue
            out.append((ub, cum))
            if cum >= total:
                break
        out.append((float("inf"), total))
        return out

    def sum_ms(self) -> float:
        with self._lock:
            self._fold_locked()
            return self._sum_ms

    def to_dict(self) -> Dict[str, float]:
        """Flat numeric dict for the JSON metrics tree."""
        s = self.summary()
        return {
            "count": s.count,
            "qps": round(s.qps, 3),
            "mean_ms": round(s.mean_ms, 3),
            "p50_ms": round(s.p50_ms, 3),
            "p95_ms": round(s.p95_ms, 3),
            "p99_ms": round(s.p99_ms, 3),
            "max_ms": round(s.max_ms, 3),
        }
