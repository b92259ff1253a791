"""serve-hot and serve-cold: the shipped HTTP server over a factored artifact.

The server runs in its own process with the CLI defaults (asyncio front
end, sampling tracer, 2 ms micro-batcher, 1024-entry ranking cache) over
an ``npy``-layout factored artifact that ``ArtifactStore`` memory-maps.
Load comes from this process: a rate ladder for the sustained rate, then
open-loop ``/v1/topk`` traffic at the workload's fixed rate.
"""

from __future__ import annotations

import gc
import os
import statistics
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import checks
import inputs
import layers
import loadgen
from procs import SETUP_REPEATS, TOPK_K, ServerProcess, cpu_seconds, peak_rss_mb

SLO_P99_S = 0.250
"""The serving SLO the repository already gates on (p99 within 250 ms)."""

LADDER_STEP = 1.1
"""Ratio between neighbouring rungs of a rate ladder."""

WINDOW_S = 1.0
"""Span of the windows whose medians give ``read_p50_ms``."""

HELD_OUT_SHARE = 0.1
"""Share of the graph's links kept out of the served estimate, for ``heldout_auc``."""


@dataclass(frozen=True)
class ServeSpec:
    """Sizes and traffic of one serving workload.

    ``fitted`` serves the shipped refitter's own estimate of the graph;
    otherwise an estimate of the same shape (see ``inputs``), because a
    fit at that size takes about a minute.  The ladder's rungs are
    ``ladder_low * LADDER_STEP ** i``, ``i < ladder_rungs``.
    """

    n_users: int
    communities: int
    degree: float
    fitted: bool
    skewed: bool
    rate: float
    ladder_low: float
    ladder_rungs: int

    @property
    def ladder(self) -> Tuple[float, ...]:
        """The fixed rate ladder, ascending."""
        return tuple(round(self.ladder_low * LADDER_STEP ** i, 1)
                     for i in range(self.ladder_rungs))


SPECS = {
    "serve-hot": ServeSpec(5000, 8, 10.0, True, True, 150.0, 300.0, 15),
    "serve-cold": ServeSpec(50000, 256, 10.0, False, False, 200.0, 160.0, 15),
}

TINY = {
    name: ServeSpec(600, 8, 6.0, spec.fitted, spec.skewed, 100.0, 50.0, 3)
    for name, spec in SPECS.items()
}


class _TopkOp:
    """One load thread's connection, sending the scheduled requests."""

    def __init__(self, port: int, users: Sequence[int], prefix: str):
        self.conn = loadgen.HttpConnection(port)
        self.users = users
        self.prefix = prefix

    def __call__(self, index: int):
        user = int(self.users[index])
        status, body = self.conn.get(
            f"/v1/topk?user={user}&k={TOPK_K}", f"{self.prefix}{index}"
        )
        if status != 200:
            raise RuntimeError(f"HTTP {status}: {body[:200]!r}")
        return user, body

    def close(self) -> None:
        self.conn.close()


def _scrape(port: int, path: str) -> bytes:
    conn = loadgen.HttpConnection(port)
    try:
        status, body = conn.get(path)
    finally:
        conn.close()
    if status != 200:
        raise RuntimeError(f"{path} answered HTTP {status}")
    return body


def _boot(store: str, spans_path=None) -> Tuple[ServerProcess, float]:
    """Launch a server; return it and seconds until its first answer."""
    server = ServerProcess(store, spans_path)
    port = server.wait_bound()
    conn = loadgen.HttpConnection(port)
    try:
        status, body = conn.get(f"/v1/topk?user=0&k={TOPK_K}")
    finally:
        conn.close()
    ready = time.perf_counter() - server.launched
    if status != 200:
        server.stop()
        raise RuntimeError(f"first top-k answered HTTP {status}: {body[:200]!r}")
    return server, ready


def _phase(port, users, rate, prefix) -> List[loadgen.Sample]:
    # This process only generates load: a collector pause here would
    # stall both load threads and read as server latency.
    gc.collect()
    gc.disable()
    try:
        return loadgen.run_open_loop(
            lambda: _TopkOp(port, users, prefix),
            len(users),
            rate,
            loadgen.max_threads(),
        )
    finally:
        gc.enable()


class ServeRun:
    """Inputs, servers and results of one serving run."""

    def __init__(self, name: str, seed: int, seconds: float, workdir: str, tiny: bool):
        self.name = name
        self.spec = (TINY if tiny else SPECS)[name]
        self.seconds = float(seconds)
        self.rng = np.random.default_rng(seed)
        self.store = os.path.join(workdir, "store")
        self.workdir = workdir
        spec = self.spec
        self.graph = inputs.block_graph(
            self.rng, spec.n_users, spec.communities, spec.degree
        )
        kept, self.held = inputs.holdout(self.rng, self.graph, HELD_OUT_SHARE)
        self.negatives = inputs.non_links(self.rng, self.graph, len(self.held))
        self.known = self.graph.csr(kept)
        if spec.fitted:
            self.predictor = inputs.fitted_predictor(self.known)
        else:
            self.predictor = inputs.fit_shaped_predictor(self.rng, self.graph, self.known)
        inputs.publish_factored(self.store, self.predictor, self.known)
        self.tally = checks.Tally()

    def users(self, count: int) -> np.ndarray:
        """The workload's user stream: Zipf-skewed (hot) or uniform (cold)."""
        n = self.spec.n_users
        if self.spec.skewed:
            return inputs.zipf_users(self.rng, n, count)
        return inputs.uniform_users(self.rng, n, count)

    # -- correctness ------------------------------------------------------
    def account(self, samples: Sequence[loadgen.Sample]) -> None:
        """Check every answer; failures and wrong answers count as failed."""
        self.tally.attempted += len(samples)
        n = self.spec.n_users
        for sample in samples:
            problem = sample.error
            if problem is None:
                user, body = sample.result
                answered_for, ranking = checks.parse_topk_body(body)
                problem = checks.topk_problem(
                    user, TOPK_K, ranking, self.known.indptr, self.known.indices, n
                )
                if answered_for != user:
                    problem = f"asked for user {user}, answered user {answered_for}"
                sample.result = (user, ranking)
            if problem is not None:
                self.tally.fail(problem)

    def check_reference(self, samples: Sequence[loadgen.Sample]) -> float:
        """Check the served artifact; return its ``heldout_auc``.

        A seeded sample of answers must equal rankings from the factors,
        and the published artifact must score the held-out pairs exactly
        as the estimate it was published from.
        """
        from repro.serving.artifacts import ArtifactStore

        served = ArtifactStore(self.store).load().predictor
        estimate = served.factored_estimate
        answered = {s.result[0]: s.result[1] for s in samples if s.error is None}
        for user in checks.sample_users(self.rng, list(answered), 25):
            problem = checks.matches_reference(
                estimate, self.known, user, TOPK_K, answered[user]
            )
            if problem is not None:
                self.tally.fail(problem)
        auc, published = (
            checks.heldout_auc(p, self.held, self.negatives)
            for p in (served, self.predictor)
        )
        self.tally.attempted += 1
        if auc != published:
            self.tally.fail(f"served AUC {auc} != published estimate's {published}")
        return auc

    # -- phases -----------------------------------------------------------
    def warm(self, port: int) -> None:
        """Let the cache fill and lazy set-up finish before timing.

        900 requests carry a fresh server past its first full garbage
        collection, a one-off pause of tens of milliseconds.
        """
        rate = min(2 * self.spec.rate, 300.0)
        samples = _phase(port, self.users(int(3 * rate)), rate, "w")
        self.account(samples)

    def fixed(self, server: ServerProcess, duration: float, prefix: str):
        """The fixed-rate phase: its samples and server CPU seconds per answer."""
        users = self.users(max(1, int(self.spec.rate * duration)))
        cpu_before = cpu_seconds(server.pid)
        samples = _phase(server.port, users, self.spec.rate, prefix)
        cpu = cpu_seconds(server.pid) - cpu_before
        self.account(samples)
        answered = sum(1 for s in samples if s.error is None)
        return samples, cpu / max(1, answered)

    def rung(self, port: int, rate: float, seconds: float) -> Tuple[bool, float]:
        """One ladder rung: whether it meets the SLO, and its achieved rate.

        A rung passes when its p99 is within the SLO, at most 1 % of its
        requests fail, and it achieved at least 0.9 of the offered rate
        (a growing backlog drags the achieved rate below that).
        """
        samples = _phase(port, self.users(max(1, int(rate * seconds))), rate,
                         f"l{int(rate)}-")
        self.account(samples)
        ok = [s for s in samples if s.error is None]
        elapsed = max(s.done for s in samples) - min(s.scheduled for s in samples)
        achieved = len(ok) / elapsed
        p99 = loadgen.percentile([s.latency for s in samples], 99)
        errors = 1.0 - len(ok) / len(samples)
        passed = p99 <= SLO_P99_S and errors <= 0.01 and achieved >= 0.9 * rate
        return passed, achieved

    def ladder(self, port: int, rung_seconds: float) -> float:
        """Achieved rate of the highest rung meeting the SLO.

        Bisects the fixed ladder (its rungs ``LADDER_STEP`` apart), so
        ``ceil(log2(rungs + 1))`` rungs are probed, each for
        ``rung_seconds``.  A rung that misses the SLO runs once more and
        fails only if it misses again, so a host stall of a second or two
        does not decide the knee.  If even the lowest rung misses the SLO
        that is a failed operation and its achieved rate is reported.
        """
        rungs = self.spec.ladder
        lo, hi = -1, len(rungs)
        sustained: Optional[float] = None
        floor = 0.0
        while hi - lo > 1:
            mid = (lo + hi) // 2
            passed, achieved = self.rung(port, rungs[mid], rung_seconds)
            if not passed:
                passed, achieved = self.rung(port, rungs[mid], rung_seconds)
            if passed:
                lo, sustained = mid, achieved
            else:
                hi = mid
                floor = achieved
        if sustained is None:
            self.tally.fail(f"{self.name}: even {rungs[0]}/s misses the SLO")
            return floor
        return sustained


def run(name: str, seed: int, seconds: float, trace: bool, workdir: str,
        tiny: bool = False) -> Dict:
    """One serving run: its metrics and tally (see ``checks.Tally.result``)."""
    bench = ServeRun(name, seed, seconds, workdir, tiny)
    metrics = _traced(bench) if trace else _untraced(bench)
    return bench.tally.result(metrics)


def _untraced(bench: ServeRun) -> Dict[str, float]:
    setups = []
    server = None
    for _ in range(SETUP_REPEATS):
        if server is not None:
            server.stop()
        server, ready = _boot(bench.store)
        setups.append(ready)
    try:
        # The ladder's thousands of requests also warm the server (cache,
        # first full collection) for the fixed-rate phase after it.
        sustained = bench.ladder(server.port, 0.125 * bench.seconds)
        samples, cpu_per_answer = bench.fixed(server, 0.4 * bench.seconds, "f")
        rss = peak_rss_mb(server.pid)
    finally:
        code = server.stop()
    if code != 0:
        bench.tally.fail(f"server exited with code {code} after drain")
    return {
        "setup_s": statistics.median(setups),
        "read_p50_ms": loadgen.windowed_median(samples, WINDOW_S) * 1e3,
        "cpu_ms_per_op": cpu_per_answer * 1e3,
        "heldout_auc": bench.check_reference(samples),
        "peak_rss_mb": rss,
        "read_p99_ms": loadgen.percentile([s.latency for s in samples], 99) * 1e3,
        "sustained_qps": sustained,
    }


def _traced(bench: ServeRun) -> Dict[str, float]:
    """Untraced then traced fixed-rate phase; per-layer figures from spans."""
    half = 0.45 * bench.seconds
    server, _ = _boot(bench.store)
    try:
        bench.warm(server.port)
        plain, _ = bench.fixed(server, half, "p")
    finally:
        server.stop()
    spans_path = os.path.join(bench.workdir, "server-spans.json")
    server, _ = _boot(bench.store, spans_path)
    try:
        bench.warm(server.port)
        traced, _ = bench.fixed(server, half, "t")
        metrics_text = _scrape(server.port, "/metrics").decode()
    finally:
        code = server.stop()
    if code != 0:
        bench.tally.fail(f"traced server exited with code {code}")
    import spans as spans_module

    recorded = spans_module.load(spans_path)
    return layers.serve_layers(recorded, plain, traced, metrics_text)
