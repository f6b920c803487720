"""Benchmark-side spans at the serving stack's layer boundaries.

:func:`install` wraps public methods *on their classes* — the gateway
call the edge makes, the gateway's own entry points, the backend
adapters, the cluster router, the engine, the contract codecs, the
ingest pipe, the incremental fold, the generation switch, the shipper
hook, the follower catch-up and the analytics engine. Wrapping the
class rather than handing out proxy objects keeps every instance's
type intact, so code that dispatches on type (the generation switch
classifies its targets that way) behaves exactly as in an unwrapped
process, and no layer needs an isolated timing pass.

Each call records ``(id, parent, request_id, layer, start, end, n)``
in memory; ``parent`` is the innermost wrapped call open on the same
thread, ``n`` the number of queries a batch call carries. A layer's
self time is its duration minus the part of it covered by its
children (:func:`summarize`).
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["Span", "SpanStore", "install", "load", "summarize"]

#: (id, parent id or -1, request id, layer, start, end, n)
Span = Tuple[int, int, str, str, float, float, int]

#: layer -> [(module, class, method), ...]
BOUNDARIES = {
    "api.aio.gateway_call": [("repro.api.http", "GatewayCore", "dispatch_request")],
    "api.contract.decode": [("repro.api.http", "GatewayCore", "decode_post")],
    "api.contract.encode": [
        ("repro.api.contract", "SearchResponse", "to_dict"),
        ("repro.api.contract", "RecommendResponse", "to_dict"),
        ("repro.api.contract", "BatchResponse", "to_dict"),
    ],
    "api.middleware": [
        ("repro.api.middleware", "Gateway", "search"),
        ("repro.api.middleware", "Gateway", "recommend"),
        ("repro.api.middleware", "Gateway", "batch"),
    ],
    "api.backends": [
        ("repro.api.backends", cls, method)
        for cls in ("ServiceBackend", "ClusterBackend")
        for method in ("search", "recommend", "batch")
    ],
    "serving.router": [
        ("repro.serving.router", "ClusterRouter", method)
        for method in (
            "search_topics",
            "search_topics_batch",
            "recommend_entities_for_query",
            "recommend_batch",
        )
    ],
    "core.serving.search": [
        ("repro.core.serving", "ShoalService", method)
        for method in ("search_topics", "search_tokens", "search_topics_batch")
    ],
    "core.serving.recommend": [
        ("repro.core.serving", "ShoalService", method)
        for method in ("recommend_entities_for_query", "recommend_batch")
    ],
    "streaming.ingest.submit": [
        ("repro.streaming.ingest", "IngestPipe", "submit"),
        ("repro.streaming.ingest", "IngestPipe", "submit_many"),
    ],
    "streaming.updater.fold": [
        ("repro.core.incremental", "IncrementalShoal", "advance")
    ],
    "streaming.rollout.swap": [
        ("repro.streaming.rollout", "GenerationSwitch", "swap")
    ],
    "replication.shipper.publish": [
        ("repro.replication.shipper", "SegmentShipper", "publish_generation")
    ],
    "replication.follower.catch_up": [
        ("repro.replication.follower", "Follower", "catch_up")
    ],
    "analytics.query": [("repro.analytics.query", "QueryEngine", "query")],
}

#: Module-level JSON encoders the async edge writes bodies with.
ENCODERS = [("repro.api.aio", "_json_bytes")]


class SpanStore:
    """Finished spans of one process, kept in memory until :meth:`dump`."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, fn, batch_arg: bool = False):
        store = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = store._stack()
            sid = next(store._ids)
            if stack:
                parent, rid = stack[-1]
            else:
                parent = -1
                ctx = kwargs.get("context")
                rid = getattr(ctx, "request_id", None) or f"t{sid}"
            n = 1
            if batch_arg and len(args) > 1:
                try:
                    n = len(args[1])
                except TypeError:
                    n = 1
            stack.append((sid, rid))
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                store.spans.append((sid, parent, rid, layer, start, end, n))

        return timed

    def dump(self, path: Path) -> None:
        Path(path).write_text(json.dumps(self.spans))


def install(store: SpanStore) -> List[str]:
    """Wrap every boundary in :data:`BOUNDARIES`; returns what was wrapped."""
    import importlib

    wrapped = []
    for layer, targets in BOUNDARIES.items():
        for module_name, cls_name, method in targets:
            cls = getattr(importlib.import_module(module_name), cls_name)
            fn = cls.__dict__.get(method) or getattr(cls, method)
            batch = method.endswith("_batch")
            setattr(cls, method, store.wrap(layer, fn, batch_arg=batch))
            wrapped.append(f"{layer} <- {cls_name}.{method}")
    for module_name, name in ENCODERS:
        module = importlib.import_module(module_name)
        setattr(module, name, store.wrap("api.contract.encode", getattr(module, name)))
        wrapped.append(f"api.contract.encode <- {module_name}.{name}")
    return wrapped


def load(path: Path) -> List[Span]:
    return [tuple(s) for s in json.loads(Path(path).read_text())]


def _covered(start: float, end: float, children: Iterable[Tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of child intervals."""
    total = 0.0
    cursor = start
    for c0, c1 in sorted(children):
        c0, c1 = max(c0, cursor), min(c1, end)
        if c1 > c0:
            total += c1 - c0
            cursor = c1
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    children = defaultdict(list)
    for sid, parent, _rid, _layer, start, end, _n in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return {
        sid: (end - start) - _covered(start, end, children.get(sid, ()))
        for sid, _parent, _rid, _layer, start, end, _n in spans
    }


def inside(t: float, windows: Sequence[Tuple[float, float]]) -> bool:
    """Whether ``t`` falls in one of the (start, end) ``windows``."""
    return any(start <= t <= end for start, end in windows)


def summarize(
    spans: Sequence[Span], windows: Optional[Sequence[Tuple[float, float]]] = None
) -> Dict[str, Dict[str, float]]:
    """Per layer: calls, queries carried, total and self seconds of the
    spans that start in one of ``windows`` (all spans when None).

    ``outer_*`` counts only calls not nested in a call of the same
    layer (the engine's search entry points call each other).
    """
    selfs = self_times(spans)
    layer_of = {s[0]: s[3] for s in spans}
    out: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "n": 0, "total_s": 0.0, "self_s": 0.0,
                 "outer_calls": 0, "outer_n": 0, "outer_s": 0.0}
    )
    for sid, parent, _rid, layer, start, end, n in spans:
        if windows is not None and not inside(start, windows):
            continue
        row = out[layer]
        row["calls"] += 1
        row["n"] += n
        row["total_s"] += end - start
        row["self_s"] += selfs[sid]
        if layer_of.get(parent) != layer:
            row["outer_calls"] += 1
            row["outer_n"] += n
            row["outer_s"] += end - start
    return dict(out)
