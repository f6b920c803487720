"""Server processes and working space owned by one benchmark run.

:class:`Workspace` is the only place the benchmark writes: a directory
under the checkout that holds snapshots, WALs, feeds and server logs.
Leaving its ``with`` block — normally, on an exception, or on
``KeyboardInterrupt`` — stops every process it started (SIGINT, then
SIGKILL after a grace period), waits for each, and removes the
directory.
"""

from __future__ import annotations

import os
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Sequence

from perfbench.loadgen import get_json

__all__ = ["Server", "Workspace", "cpu_seconds", "rss_hwm_mb"]

ROOT = Path(__file__).resolve().parent.parent
_URL = re.compile(r"http://([0-9.]+):([0-9]+)")
_CLK_TCK = os.sysconf("SC_CLK_TCK")


class Server:
    """One started server process and the address it announced."""

    def __init__(self, proc: subprocess.Popen, log: Path, started: float):
        self.proc = proc
        self.log = log
        self.started = started
        self.host = ""
        self.port = 0
        self.ready_s = 0.0

    @property
    def pid(self) -> int:
        return self.proc.pid

    def wait_ready(self, timeout_s: float = 120.0) -> "Server":
        """Block until the banner names a port and /v1/health is ok."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.proc.returncode}:\n"
                    + self.log.read_text(errors="replace")[-2000:]
                )
            if not self.port:
                match = _URL.search(self.log.read_text(errors="replace"))
                if match:
                    self.host, self.port = match.group(1), int(match.group(2))
            if self.port:
                try:
                    status, body = get_json(self.host, self.port, "/v1/health")
                except OSError:
                    status, body = 0, {}
                if status == 200 and body.get("status") == "ok":
                    self.ready_s = time.perf_counter() - self.started
                    return self
            time.sleep(0.01)
        raise TimeoutError(f"server not healthy within {timeout_s}s")

    def metrics(self) -> dict:
        status, body = get_json(self.host, self.port, "/v1/metrics")
        if status != 200:
            raise RuntimeError(f"/v1/metrics answered {status}")
        return body

    def stop(self, grace_s: float = 20.0) -> int:
        """SIGINT (graceful shutdown), then SIGKILL; returns the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=grace_s)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        return self.proc.returncode


class Workspace:
    """Working directory plus every process started in it."""

    def __init__(self, root: Path = ROOT):
        self.dir = root / ".perfbench_work" / f"run-{os.getpid()}-{time.time_ns()}"
        self.servers: List[Server] = []

    def __enter__(self) -> "Workspace":
        self.dir.mkdir(parents=True)
        (self.dir / "tmp").mkdir()
        return self

    def __exit__(self, *exc_info) -> None:
        try:
            while self.servers:
                self.servers.pop().stop()
        finally:
            shutil.rmtree(self.dir, ignore_errors=True)
            try:
                self.dir.parent.rmdir()
            except OSError:
                pass  # another run's workspace is still there

    def path(self, name: str) -> Path:
        return self.dir / name

    def env(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        # Servers that create temp dirs (generation snapshots, follower
        # workdirs) create them inside the workspace.
        env["TMPDIR"] = str(self.dir / "tmp")
        return env

    def spawn(self, argv: Sequence[str], log_name: str) -> Server:
        """Start ``python <argv>`` with stdout/stderr to a log file."""
        log = self.dir / log_name
        with open(log, "wb") as fh:
            started = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv],
                stdout=fh,
                stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL,
                cwd=str(self.dir),
                env=self.env(),
            )
        server = Server(proc, log, started)
        self.servers.append(server)
        return server

    def stop(self, server: Server) -> int:
        code = server.stop()
        self.servers.remove(server)
        return code


def rss_hwm_mb(pid: int) -> float:
    """Peak resident set size (VmHWM) of a live process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def cpu_seconds(pid: int) -> float:
    """User plus system CPU seconds a live process has used."""
    stat = Path(f"/proc/{pid}/stat").read_text()
    fields = stat[stat.rindex(")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK
