"""Open- and closed-loop load generation over raw keep-alive HTTP/1.1.

One thread drives any number of *lanes*. A lane is one persistent TCP
connection with its own request stream: an **open** lane sends request
``i`` at its scheduled instant (or as soon as the connection is free,
if the previous answer is late) and its latency is measured from the
scheduled instant, so a stall is charged to every request queued
behind it; a **closed** lane sends its next request as soon as the
previous answer arrives, until a stop time.

The generator sleeps with ``select`` (microsecond timeouts) and spins
for the last ``SPIN_S`` before a due time, because ``time.sleep``
pacing alone overshoots by a few hundred microseconds. Its own
lateness — send time minus the later of the due time and the moment
the connection became free — is recorded for every open-loop request.
"""

from __future__ import annotations

import gc
import json
import math
import select
import socket
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "FAILED_MS",
    "LADDER",
    "Lane",
    "Result",
    "get_json",
    "json_body",
    "percentile",
    "post_json",
    "request_bytes",
    "run_lanes",
    "summarize",
    "tail_level",
]

#: Spin (instead of sleeping) for this long before a due time.
SPIN_S = 0.0002
#: Latency charged to a failed or refused operation: beyond every limit.
FAILED_MS = 10_000.0
#: Percentile levels a tail may be reported at.
LADDER = (50.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.9, 99.95, 99.99)
#: Seconds a lane waits for one answer before the run is abandoned.
IO_TIMEOUT_S = 30.0


def request_bytes(method: str, path: str, body: Optional[bytes] = None) -> bytes:
    """One HTTP/1.1 request that keeps the connection open."""
    head = f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
    if body is None:
        return (head + "\r\n").encode("latin-1")
    return (
        head
        + "Content-Type: application/json\r\n"
        + f"Content-Length: {len(body)}\r\n\r\n"
    ).encode("latin-1") + body


def json_body(payload) -> bytes:
    """The body encoding the server itself uses for JSON."""
    return json.dumps(payload, ensure_ascii=False, allow_nan=False).encode(
        "utf-8"
    )


def _connect(host: str, port: int, timeout: float) -> socket.socket:
    sock = socket.create_connection((host, port), timeout=timeout)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def _parse(buf: bytearray) -> Optional[Tuple[int, bytes, int]]:
    """(status, body, consumed) for one complete response in ``buf``."""
    end = buf.find(b"\r\n\r\n")
    if end < 0:
        return None
    head = bytes(buf[:end]).decode("latin-1").split("\r\n")
    status = int(head[0].split(None, 2)[1])
    length = 0
    for line in head[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    total = end + 4 + length
    if len(buf) < total:
        return None
    return status, bytes(buf[end + 4:total]), total


def _one_shot(host, port, raw, timeout) -> Tuple[int, bytes]:
    """One request on a fresh blocking connection; (status, body)."""
    with _connect(host, port, timeout) as sock:
        sock.sendall(raw)
        buf = bytearray()
        while (parsed := _parse(buf)) is None:
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection")
            buf += chunk
    return parsed[0], parsed[1]


def get_json(host: str, port: int, path: str, timeout: float = 10.0):
    """GET ``path`` on a fresh connection; (status, decoded JSON)."""
    status, body = _one_shot(host, port, request_bytes("GET", path), timeout)
    return status, json.loads(body.decode("utf-8"))


def post_json(host: str, port: int, path: str, payload, timeout: float = 30.0):
    """POST ``payload`` on a fresh connection; (status, raw body bytes)."""
    raw = request_bytes("POST", path, json_body(payload))
    return _one_shot(host, port, raw, timeout)


@dataclass
class Result:
    """One answered (or failed) request of a lane."""

    lane: str
    index: int
    due: float
    sent: float
    done: float
    status: int
    body: bytes
    late_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == 200

    @property
    def latency_ms(self) -> float:
        """Milliseconds from the scheduled instant to the last byte."""
        if not self.ok:
            return FAILED_MS
        return (self.done - self.due) * 1000.0

    @property
    def rtt_ms(self) -> float:
        """Milliseconds from the send to the last byte."""
        return (self.done - self.sent) * 1000.0


@dataclass
class Lane:
    """One connection's request stream.

    ``requests`` are pre-encoded request bytes. An open lane pairs them
    with ``due`` offsets (seconds from the run's start); a closed lane
    cycles through them until ``stop_s`` seconds after the start. Either
    kind sends nothing more once ``stop_when()`` returns True.
    """

    name: str
    requests: Sequence[bytes]
    due: Optional[Sequence[float]] = None
    stop_s: Optional[float] = None
    stop_when: Optional[Callable[[], bool]] = None
    results: List[Result] = field(default_factory=list)

    def __post_init__(self) -> None:
        if (self.due is None) == (self.stop_s is None):
            raise ValueError("a lane is either open (due) or closed (stop_s)")
        if self.due is not None and len(self.due) != len(self.requests):
            raise ValueError("one due time per open-loop request")
        if not self.requests:
            raise ValueError("a lane needs at least one request")

    @property
    def closed(self) -> bool:
        return self.stop_s is not None


class _LaneState:
    def __init__(self, lane: Lane, sock: socket.socket, t0: float):
        self.lane = lane
        self.sock = sock
        self.buf = bytearray()
        self.next = 0
        self.free_at = t0
        self.inflight: Optional[Tuple[int, float, float, float]] = None
        self.t0 = t0

    def next_due(self) -> Optional[float]:
        """Absolute due time of the next request, None when finished."""
        lane = self.lane
        if lane.stop_when is not None and lane.stop_when():
            return None
        if lane.closed:
            return self.free_at if self.free_at < self.t0 + lane.stop_s else None
        if self.next >= len(lane.requests):
            return None
        return self.t0 + lane.due[self.next]


def run_lanes(
    host: str, port: int, lanes: Sequence[Lane], *, start_delay_s: float = 0.05
) -> float:
    """Drive every lane to completion from this thread; returns t0.

    Connections are opened before ``t0`` so connect time is not charged
    to the first request. Results land in each ``lane.results``.
    """
    socks = [_connect(host, port, IO_TIMEOUT_S) for _ in lanes]
    # A collector pause here would be charged to the server.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for s in socks:
            s.setblocking(False)
        t0 = time.perf_counter() + start_delay_s
        states = [_LaneState(lane, s, t0) for lane, s in zip(lanes, socks)]
        by_fd = {s.fileno(): st for s, st in zip(socks, states)}
        active = list(states)
        while active:
            now = time.perf_counter()
            wake = math.inf
            for st in active:
                if st.inflight is not None:
                    continue
                due = st.next_due()
                if due is None:
                    continue
                if due <= now:
                    _send(st, due)
                else:
                    wake = min(wake, due)
            waiting = [st.sock for st in active if st.inflight is not None]
            if not waiting and wake is math.inf:
                break
            timeout = max(0.0, wake - time.perf_counter() - SPIN_S)
            if timeout > IO_TIMEOUT_S:
                timeout = IO_TIMEOUT_S
            readable, _, _ = select.select(waiting, [], [], timeout)
            for sock in readable:
                _receive(by_fd[sock.fileno()])
            active = [
                st for st in active
                if st.inflight is not None or st.next_due() is not None
            ]
            if not readable and waiting and timeout >= IO_TIMEOUT_S:
                raise TimeoutError("no answer within the I/O timeout")
        return t0
    finally:
        if gc_was_enabled:
            gc.enable()
        for s in socks:
            s.close()


def _send(st: _LaneState, due: float) -> None:
    lane = st.lane
    raw = lane.requests[st.next % len(lane.requests)]
    sent = time.perf_counter()
    late = 0.0 if lane.closed else sent - max(due, st.free_at)
    st.sock.setblocking(True)
    st.sock.sendall(raw)
    st.sock.setblocking(False)
    st.inflight = (st.next, due if not lane.closed else sent, sent, late)
    st.next += 1


def _receive(st: _LaneState) -> None:
    try:
        chunk = st.sock.recv(1 << 20)
    except BlockingIOError:
        return
    if not chunk:
        raise ConnectionError(f"lane {st.lane.name}: server closed the connection")
    st.buf += chunk
    parsed = _parse(st.buf)
    if parsed is None:
        return
    done = time.perf_counter()
    status, body, used = parsed
    del st.buf[:used]
    index, due, sent, late = st.inflight
    st.lane.results.append(
        Result(st.lane.name, index, due, sent, done, status, body, late)
    )
    st.inflight = None
    st.free_at = done


def _rank(q: float, n: int) -> int:
    """Nearest rank (1-based) of percentile ``q`` among ``n`` samples,
    in integer arithmetic so that e.g. p99.9 of 10000 is rank 9990."""
    basis = round(q * 100)
    return max(1, -(-basis * n // 10000))


def tail_level(n: int) -> Optional[float]:
    """The highest :data:`LADDER` percentile with >= 10 samples beyond it."""
    best = None
    for q in LADDER:
        if n - _rank(q, n) >= 10:
            best = q
    return best


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of already sorted values."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    return sorted_values[_rank(q, len(sorted_values)) - 1]


def summarize(values_ms: Sequence[float]) -> Dict[str, float]:
    """Median and the highest supported tail of one latency sample."""
    values = sorted(values_ms)
    n = len(values)
    level = tail_level(n)
    if level is None:
        raise ValueError(f"{n} samples cannot support a median and a tail")
    return {
        "n": n,
        "p50": percentile(values, 50.0),
        "tail": percentile(values, level),
        "tail_q": level,
    }
