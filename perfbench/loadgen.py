"""Open-loop load generation from one process with at most ``nproc`` threads.

Request ``i`` is due at ``start + i / rate`` whatever happened to earlier
requests.  Worker threads (each with its own connection) take the next
due request from a shared counter, wait until it is due, and send it; a
worker that falls behind sends at once.  Every latency is measured from
the request's *scheduled* time, so a stall is charged to every request
it delays, and the generator's own lateness (send time minus scheduled
time) is kept so that a lagging generator is visible.
"""

from __future__ import annotations

import itertools
import os
import re
import socket
import statistics
import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

_CONTENT_LENGTH = re.compile(rb"content-length:\s*(\d+)", re.I)


def max_threads() -> int:
    """Load threads and connections are capped at the core count."""
    return max(1, min(2, os.cpu_count() or 1))


@dataclass
class Sample:
    """One scheduled operation and what became of it."""

    index: int
    scheduled: float
    sent: float
    done: float
    result: object = None
    error: Optional[str] = None

    @property
    def latency(self) -> float:
        """Seconds from the scheduled time to completion."""
        return self.done - self.scheduled

    @property
    def late(self) -> float:
        """Seconds the generator sent this operation after it was due."""
        return max(0.0, self.sent - self.scheduled)


def run_open_loop(
    make_op: Callable[[], Callable[[int], object]],
    count: int,
    rate: float,
    threads: int,
) -> List[Sample]:
    """Send ``count`` operations at ``rate`` per second; return samples.

    ``make_op()`` is called once per worker thread and returns the
    operation ``op(index)``; a raised exception marks the sample failed.
    An operation with a ``close`` method is closed when its thread ends.
    """
    threads = max(1, min(int(threads), max_threads()))
    counter = itertools.count()
    samples: List[Sample] = []
    lock = threading.Lock()
    start = time.perf_counter() + 0.02

    def worker() -> None:
        op = make_op()
        local: List[Sample] = []
        try:
            while True:
                index = next(counter)
                if index >= count:
                    break
                scheduled = start + index / rate
                delay = scheduled - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                try:
                    result = op(index)
                    error = None
                except Exception as exc:  # a failed operation is a sample
                    result, error = None, f"{type(exc).__name__}: {exc}"
                local.append(
                    Sample(index, scheduled, sent, time.perf_counter(),
                           result, error)
                )
        finally:
            close = getattr(op, "close", None)
            if close is not None:
                close()
            with lock:
                samples.extend(local)

    workers = [threading.Thread(target=worker, daemon=True) for _ in range(threads)]
    for thread in workers:
        thread.start()
    for thread in workers:
        thread.join()
    samples.sort(key=lambda s: s.index)
    return samples


class HttpConnection:
    """One keep-alive HTTP/1.1 connection with minimal response parsing."""

    def __init__(self, port: int, timeout: float = 30.0):
        self._sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = b""

    def get(self, target: str, request_id: Optional[str] = None):
        """Send one GET; return ``(status, body bytes)``."""
        rid = b"" if request_id is None else b"X-Request-Id: %s\r\n" % request_id.encode()
        self._sock.sendall(
            b"GET %s HTTP/1.1\r\nHost: perfbench\r\n%sConnection: keep-alive\r\n\r\n"
            % (target.encode(), rid)
        )
        while b"\r\n\r\n" not in self._buffer:
            self._buffer += self._recv()
        head, _, self._buffer = self._buffer.partition(b"\r\n\r\n")
        status = int(head.split(b" ", 2)[1])
        match = _CONTENT_LENGTH.search(head)
        length = int(match.group(1)) if match else 0
        while len(self._buffer) < length:
            self._buffer += self._recv()
        body, self._buffer = self._buffer[:length], self._buffer[length:]
        return status, body

    def _recv(self) -> bytes:
        chunk = self._sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection mid-response")
        return chunk

    def close(self) -> None:
        """Close the socket."""
        try:
            self._sock.close()
        except OSError:
            pass


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (nearest rank) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, int(-(-q * len(ordered) // 100)))
    return ordered[min(rank, len(ordered)) - 1]


def windowed_median(samples: Sequence[Sample], window: float) -> float:
    """Median over ``window``-second windows of each window's median latency.

    Samples fall in windows by scheduled time.  A host stall of a few
    seconds moves the few windows it covers, not the run's figure.
    """
    first = min(s.scheduled for s in samples)
    windows = {}
    for sample in samples:
        windows.setdefault(int((sample.scheduled - first) // window), []).append(
            sample.latency
        )
    return statistics.median(percentile(values, 50) for values in windows.values())
