"""Keep-alive HTTP client and the server-process handle of the HTTP workloads."""

from __future__ import annotations

import asyncio
import json
import select
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Optional, Tuple

from stats import cpu_seconds, memory_mb

#: Seconds a request may take before it counts as failed.
REQUEST_TIMEOUT = 60.0

#: Seconds the server may take to start or to drain and exit.
PROCESS_TIMEOUT = 60.0


class Connection:
    """One HTTP/1.1 keep-alive connection (requests run one at a time)."""

    def __init__(self, reader, writer, host: str, port: int):
        self._reader = reader
        self._writer = writer
        self.host = host
        self.port = port

    @classmethod
    async def open(cls, host: str, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection(host, port, limit=1 << 24)
        return cls(reader, writer, host, port)

    async def request(self, method: str, path: str, body: Optional[bytes] = None) -> Tuple[int, Any]:
        """Send one request and read its response; returns (status, json)."""
        payload = body or b""
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n\r\n"
        )
        self._writer.write(head.encode("latin-1") + payload)
        await self._writer.drain()
        status_line = await self._reader.readline()
        parts = status_line.split()
        if len(parts) < 2 or not parts[0].startswith(b"HTTP/"):
            raise ConnectionError(f"malformed status line {status_line!r}")
        length = 0
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        raw = await self._reader.readexactly(length) if length else b"{}"
        return int(parts[1]), json.loads(raw)

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class ServerProcess:
    """The server under test, started by ``perfbench/server.py``."""

    def __init__(self, *, history: Optional[Path] = None, trace: Optional[Path] = None):
        command = [sys.executable, str(Path(__file__).with_name("server.py"))]
        if history is not None:
            command += ["--history", str(history)]
        if trace is not None:
            command += ["--trace", str(trace)]
        self.trace_path = trace
        started = time.perf_counter()
        self._process = subprocess.Popen(
            command,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )
        try:
            ready, _, _ = select.select([self._process.stdout], [], [], PROCESS_TIMEOUT)
            line = self._process.stdout.readline().decode("ascii", "replace").split() if ready else []
            if len(line) != 2 or line[0] != "READY":
                raise RuntimeError(f"server failed to start: {line!r}")
        except BaseException:
            self.stop()
            raise
        #: Seconds from spawning the process until it served requests.
        self.setup_seconds = time.perf_counter() - started
        self.port = int(line[1])
        self.pid = self._process.pid

    def cpu_seconds(self) -> float:
        return cpu_seconds(self.pid)

    def memory_mb(self) -> dict:
        return memory_mb(self.pid)

    def stop(self) -> int:
        """Close its input (the drain signal) and wait until it has exited."""
        process = self._process
        if process.poll() is None:
            try:
                process.stdin.close()
            except OSError:
                pass
            try:
                process.wait(timeout=PROCESS_TIMEOUT)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        process.stdout.close()
        return process.returncode

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


async def open_pool(port: int, size: int) -> "asyncio.Queue[Connection]":
    pool: asyncio.Queue = asyncio.Queue()
    for _ in range(size):
        pool.put_nowait(await Connection.open("127.0.0.1", port))
    return pool


async def close_pool(pool: "asyncio.Queue[Connection]") -> None:
    while not pool.empty():
        await pool.get_nowait().close()
