"""Shared settings, child processes of the benchmark and what ``/proc`` says."""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from typing import List, Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(ROOT, "src")

TOPK_K = 10
"""Every top-k request of every workload asks for this many candidates."""

SETUP_REPEATS = 3
"""Set-ups per run; ``setup_s`` is their median."""

_BANNER = re.compile(r"on http://[^:]+:(\d+)")


def declared() -> dict:
    """``BENCHMARK.json`` as a dict."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def child_env() -> dict:
    """Environment for a child: the program's sources on the import path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC_DIR, BENCH_DIR, env.get("PYTHONPATH", "")) if p
    )
    env.pop("REPRO_CHAOS", None)
    return env


def run_child(script: str, options: dict) -> dict:
    """Run ``script`` with ``options`` in a child process; return its result.

    The child reads its options from ``argv[1]`` (JSON) and writes its
    result as JSON to ``options["out"]``.
    """
    completed = subprocess.run(
        [sys.executable, script, json.dumps(options)], env=child_env(), timeout=170
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"{os.path.basename(script)} exited with {completed.returncode}"
        )
    with open(options["out"], "r", encoding="utf-8") as handle:
        return json.load(handle)


def cpu_seconds(pid: int) -> float:
    """CPU seconds the process's live threads have run so far.

    Summed from each thread's ``schedstat`` (nanoseconds), which resolves
    far finer than the clock-tick ``utime``/``stime`` counters.
    """
    total = 0
    task_dir = f"/proc/{pid}/task"
    for tid in os.listdir(task_dir):
        try:
            with open(f"{task_dir}/{tid}/schedstat", "r") as handle:
                total += int(handle.read().split()[0])
        except FileNotFoundError:
            continue  # the thread ended between listing and reading
    return total / 1e9


def peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of the process, in MiB."""
    with open(f"/proc/{pid}/status", "r") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class ServerProcess:
    """``repro.serving serve`` with CLI defaults, in its own process.

    Untraced, the child is the shipped entry point
    (``python -m repro.serving serve``).  Traced, ``serve_traced.py``
    installs the span wrappers first and then calls the same ``main``.
    """

    def __init__(self, store: str, spans_path: Optional[str] = None):
        if spans_path is None:
            head = [sys.executable, "-u", "-m", "repro.serving"]
        else:
            head = [sys.executable, "-u",
                    os.path.join(BENCH_DIR, "serve_traced.py"), spans_path]
        command = head + ["serve", "--store", store, "--port", "0"]
        self.launched = time.perf_counter()
        self.proc = subprocess.Popen(
            command,
            env=child_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        self.port: Optional[int] = None
        self.output: List[str] = []
        self._bound = threading.Event()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            if len(self.output) < 200:
                self.output.append(line.rstrip())
            if self.port is None:
                match = _BANNER.search(line)
                if match:
                    self.port = int(match.group(1))
                    self._bound.set()
        self._bound.set()

    def wait_bound(self, timeout: float = 120.0) -> int:
        """Block until the banner names the bound port; return it."""
        self._bound.wait(timeout)
        if self.port is None:
            self.stop()
            raise RuntimeError(
                "server did not start:\n" + "\n".join(self.output[-20:])
            )
        return self.port

    @property
    def pid(self) -> int:
        """Process id of the server."""
        return self.proc.pid

    def stop(self) -> int:
        """SIGTERM (the server drains), wait, and return its exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=10)
        return self.proc.returncode
