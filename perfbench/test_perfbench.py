"""Fast checks of the benchmark's own code (its entry points are not run here)."""

from __future__ import annotations

import json
import shutil
import signal
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from perfbench import loadgen, metrics, tracing
from perfbench.procs import Workspace
from perfbench.workloads import SPEC, Runner

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


@pytest.fixture(scope="module")
def market():
    from repro.data.marketplace import PROFILES, generate_marketplace

    return generate_marketplace(PROFILES["tiny"].with_seed(0))


@pytest.mark.parametrize("workload", sorted(SPEC["workloads"]))
def test_inputs_are_a_function_of_the_seed(market, workload):
    def inputs(seed):
        runner = Runner(None, workload, seed, 1.0)
        return (
            runner.read_payloads(market, 40, salt=1),
            runner.read_payloads(market, 40, salt=2),
            runner.events(market, 20),
        )

    assert inputs(3) == inputs(3)
    assert inputs(3) != inputs(4)


def test_metric_names_match_the_benchmark_file():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(metrics.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(SPEC["workloads"])
    names = [name for name, _ in metrics.END_TO_END + metrics.PER_LAYER]
    assert len(names) == len(set(names))
    for name in names:
        assert metrics.NAME.match(name), name
    assert bench["paths"] == ["perfbench"]
    assert {m["name"] for m in bench["end_to_end"]} >= {"setup_s"}


@pytest.mark.parametrize(
    "n, level",
    [(19, None), (20, 50.0), (199, 90.0), (200, 95.0), (500, 98.0),
     (1000, 99.0), (1999, 99.0), (2000, 99.5), (10000, 99.9), (200000, 99.99)],
)
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, level):
    assert loadgen.tail_level(n) == level
    values = list(range(n))
    if level is not None:
        tail = loadgen.percentile(values, level)
        assert sum(v > tail for v in values) >= 10
        for q in (q for q in loadgen.LADDER if q > level):
            assert sum(v > loadgen.percentile(values, q) for v in values) < 10


def test_summarize_reports_median_and_tail():
    values = [float(v) for v in range(1, 1001)]
    out = loadgen.summarize(list(reversed(values)))
    assert out == {"n": 1000, "p50": 500.0, "tail": 990.0, "tail_q": 99.0}
    with pytest.raises(ValueError):
        loadgen.summarize([1.0] * 5)


def _result(done, ok=True, latency_ms=1.0):
    return loadgen.Result("x", 0, done - latency_ms / 1000, done, done, 200 if ok else 503, b"")


def test_slice_rates_count_correct_answers_until_the_last_one():
    # A slice from t0=1.0 whose last answer lands at 1.5 (one failure).
    results = [_result(1.0 + 0.05 * i) for i in range(1, 11)] + [_result(1.2, ok=False)]
    assert metrics.slice_rates([(1.0, 0.4, results)]) == [pytest.approx(20.0)]


def test_upper_quartile():
    assert metrics.upper_quartile([5.0, 1.0, 4.0, 2.0, 3.0]) == 4.0
    assert metrics.upper_quartile([7.0]) == 7.0


def test_inputs_rank_is_fixed_across_seeds(market):
    # The hot strings are the same whatever the seed; only draws differ.
    def head(seed):
        runner = Runner(None, "panel_cold", seed, 1.0)
        counts = {}
        for q in runner.queries(market, 4000, salt=1):
            counts[q] = counts.get(q, 0) + 1
        return max(counts, key=counts.get)

    assert head(1) == head(2) == head(3)


def test_windowed_tail_is_the_median_of_window_tails():
    slow = [_result(1.0, latency_ms=v) for v in range(1, 21)]
    fast = [_result(1.0, latency_ms=v / 10) for v in range(1, 21)]
    out = metrics.windowed(fast + slow + fast, 3)
    assert out["n"] == 60 and out["window_n"] == 20 and out["tail_q"] == 50.0
    assert out["tail"] == pytest.approx(1.0)


def test_failed_requests_miss_every_limit():
    failed = loadgen.Result("x", 0, 0.0, 0.0, 0.001, 503, b"")
    assert failed.latency_ms == loadgen.FAILED_MS


def test_self_time_subtracts_covered_child_time():
    spans = [
        (1, -1, "r", "outer", 0.0, 10.0, 1),
        (2, 1, "r", "child", 1.0, 4.0, 1),
        (3, 1, "r", "child", 3.0, 5.0, 1),  # overlaps its sibling
        (4, 2, "r", "leaf", 1.5, 2.0, 1),
    ]
    selfs = tracing.self_times(spans)
    assert selfs[1] == pytest.approx(6.0)
    assert selfs[2] == pytest.approx(2.5)
    summary = tracing.summarize(spans)
    assert summary["child"]["calls"] == 2
    assert summary["child"]["outer_calls"] == 2


class _Stub:
    """A keep-alive HTTP/1.1 responder with a fixed body."""

    BODY = b'{"ok": true}'

    def __init__(self):
        self.sock = socket.socket()
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen()
        self.port = self.sock.getsockname()[1]
        self.threads = []
        accept = threading.Thread(target=self._accept, daemon=True)
        accept.start()

    def _accept(self):
        while True:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            t = threading.Thread(target=self._serve, args=(conn,), daemon=True)
            t.start()
            self.threads.append(t)

    def _serve(self, conn):
        buf = b""
        with conn:
            while True:
                while b"\r\n\r\n" not in buf:
                    chunk = conn.recv(65536)
                    if not chunk:
                        return
                    buf += chunk
                head, _, buf = buf.partition(b"\r\n\r\n")
                length = 0
                for line in head.split(b"\r\n")[1:]:
                    if line.lower().startswith(b"content-length:"):
                        length = int(line.split(b":")[1])
                while len(buf) < length:
                    buf += conn.recv(65536)
                buf = buf[length:]
                conn.sendall(
                    b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s"
                    % (len(self.BODY), self.BODY)
                )

    def close(self):
        self.sock.close()


def test_lanes_keep_their_schedule_and_order():
    stub = _Stub()
    try:
        raw = loadgen.request_bytes("POST", "/v1/search", b"{}")
        open_lane = loadgen.Lane("open", [raw] * 50, due=[i / 1000 for i in range(50)])
        closed_lane = loadgen.Lane("closed", [raw], stop_s=0.05)
        t0 = loadgen.run_lanes("127.0.0.1", stub.port, [open_lane, closed_lane])
    finally:
        stub.close()
    assert [r.index for r in open_lane.results] == list(range(50))
    assert all(r.ok and r.body == _Stub.BODY for r in open_lane.results)
    for i, r in enumerate(open_lane.results):
        assert r.due == pytest.approx(t0 + i / 1000)
        assert r.sent >= r.due
        assert r.latency_ms >= r.rtt_ms
    assert closed_lane.results
    assert all(r.due == r.sent for r in closed_lane.results)
    with pytest.raises(ValueError):
        loadgen.Lane("bad", [raw], due=[0.0], stop_s=1.0)


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_workspace_tears_down_on_failure_or_interrupt(tmp_path, error):
    with pytest.raises(error):
        with Workspace(root=tmp_path) as ws:
            server = ws.spawn(["-c", "import time; time.sleep(120)"], "sleeper.log")
            workdir = ws.dir
            assert server.proc.poll() is None
            raise error("boom")
    assert server.proc.poll() is not None
    assert not workdir.exists()
    assert not (tmp_path / ".perfbench_work").exists()


def test_sigterm_becomes_an_interrupt():
    from perfbench import run

    with pytest.raises(KeyboardInterrupt):
        run._interrupt(signal.SIGTERM, None)


def test_runner_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search_hot",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_entry_points_are_not_collected_by_pytest():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q",
         "-p", "no:cacheprovider", str(HERE)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    ids = [line for line in proc.stdout.splitlines() if "::" in line]
    assert ids
    assert all(line.startswith("perfbench/test_perfbench.py::") for line in ids)
