"""stream-refit: fsynced ingest, warm factored refits and reads in one process.

The pipeline and the service are co-deployed in one process, so the
whole system under test runs in a child process (this module run as a
script) and reports back through a JSON file.  In it:

* a ``StreamingPipeline`` (fsynced WAL, factored ``WarmRefitter``,
  ``npy`` artifact store) recovers a seed graph from its WAL and
  publishes a first version;
* a ``LinkPredictionService`` behind a ``MicroBatcher`` serves it and is
  hot-swapped after every publish;
* one load thread submits ``link.add`` deltas open-loop at a fixed rate,
  another sends top-k reads open-loop at a fixed rate, and the
  pipeline ticks on a fixed cadence from its own thread.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

import checks
import inputs
import layers
import loadgen
import procs
from procs import SETUP_REPEATS, TOPK_K


@dataclass(frozen=True)
class StreamSpec:
    """Sizes and rates of the streaming workload."""

    n_users: int
    communities: int
    degree: float
    write_rate: float
    read_rate: float
    tick_every_s: float


# A tick every 4 s keeps refits to about a seventh of the time, so a read's
# median is not read off the edge between reads beside a refit and reads
# without one; at 2 s it swung by a quarter as host speed changed.
SPEC = StreamSpec(5000, 8, 10.0, 100.0, 100.0, 4.0)
TINY = StreamSpec(300, 4, 6.0, 20.0, 40.0, 0.5)


def run(seed, seconds, trace, workdir, tiny=False) -> Dict:
    """Run the system in a child process; its metrics and tally."""
    return procs.run_child(os.path.abspath(__file__), {
        "seed": seed, "seconds": seconds, "trace": trace, "workdir": workdir,
        "tiny": tiny, "out": os.path.join(workdir, "stream-result.json"),
    })


def tick_problem(outcome: Dict) -> Optional[str]:
    """Why a ``StreamingPipeline.tick`` outcome is a failed tick, or ``None``.

    The pipeline catches a failed refit or publish itself (it records the
    failure on its refit breaker and publishes nothing), so a tick that
    returns normally has still failed unless it published a version with
    the breaker closed.
    """
    if outcome["published_version"] is None or outcome["breaker"] != "closed":
        return (f"tick {outcome['tick']}: published {outcome['published_version']}"
                f" with the refit breaker {outcome['breaker']}")
    return None


class StreamSystem:
    """One co-deployed pipeline + service + batcher over a seeded WAL."""

    def __init__(self, spec: StreamSpec, template: str, home: str):
        from repro.serving.artifacts import ArtifactStore
        from repro.serving.batcher import MicroBatcher
        from repro.serving.service import LinkPredictionService
        from repro.streaming import StreamingPipeline
        from repro.streaming.refit import WarmRefitter

        shutil.copytree(template, os.path.join(home, "stream"))
        started = time.perf_counter()
        store = ArtifactStore(os.path.join(home, "store"), layout="npy")
        self.pipeline = StreamingPipeline(
            os.path.join(home, "stream"), n_users=spec.n_users, store=store,
            refitter=WarmRefitter(factored=True),
        )
        self.pipeline.tick()
        self.service = LinkPredictionService(store)
        self.pipeline.service = self.service
        self.batcher = MicroBatcher(self.service).start()
        self.first = self.batcher.submit(0, TOPK_K)
        self.setup_s = time.perf_counter() - started

    def close(self) -> None:
        self.batcher.stop()
        self.pipeline.close()


class _Ticker:
    """The pipeline's own cadence: tick every ``every`` seconds until stopped."""

    def __init__(self, system: StreamSystem, every: float, tally: checks.Tally):
        self.system = system
        self.every = every
        self.tally = tally
        self.records: List[Dict] = []
        self.lag_max = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def start(self) -> "_Ticker":
        self._thread.start()
        return self

    def _run(self) -> None:
        pipeline = self.system.pipeline
        next_at = time.perf_counter() + self.every
        while not self._stop.wait(max(0.0, next_at - time.perf_counter())):
            next_at += self.every
            self.lag_max = max(self.lag_max, pipeline.ingestor.lag())
            started = time.perf_counter()
            self.tally.attempted += 1
            try:
                problem = tick_problem(pipeline.tick())
            except Exception as exc:  # a failed tick is a failed operation
                problem = f"tick: {type(exc).__name__}: {exc}"
            if problem is not None:
                self.tally.fail(problem)
                continue
            meta = self.system.service.artifact.manifest.get("meta", {})
            self.records.append({
                "start": started,
                "end": time.perf_counter(),
                "served_seq": int(meta.get("applied_seq", 0)),
            })

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()


class StreamRun:
    """Inputs and measurement of one stream-refit run (inside the child)."""

    def __init__(self, seed: int, seconds: float, workdir: str, tiny: bool):
        from repro.streaming import link_add
        from repro.streaming.wal import WriteAheadLog

        self.spec = TINY if tiny else SPEC
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)
        spec = self.spec
        self.graph = inputs.block_graph(self.rng, spec.n_users, spec.communities, spec.degree)
        kept, self.held = inputs.holdout(self.rng, self.graph, 0.1)
        order = self.rng.permutation(len(kept))
        n_stream = int(spec.write_rate * seconds) + 1
        self.seed_edges = kept[np.sort(order[n_stream:])]
        self.stream_edges = kept[order[:n_stream]]
        self.negatives = inputs.non_links(self.rng, self.graph, len(self.held))
        self.seed_known = self.graph.csr(self.seed_edges)
        self.template = os.path.join(workdir, "template")
        wal = WriteAheadLog(os.path.join(self.template, "wal"), fsync=False)
        for u, v in self.seed_edges.tolist():
            wal.append(link_add(u, v).encode())
        wal.close()
        self.tally = checks.Tally()

    def boot(self, index: int) -> StreamSystem:
        home = os.path.join(self.workdir, f"system-{index}")
        os.makedirs(home)
        system = StreamSystem(self.spec, self.template, home)
        self.tally.attempted += 1
        problem = checks.topk_problem(0, TOPK_K, system.first, self.seed_known.indptr,
                                      self.seed_known.indices, self.spec.n_users)
        if problem:
            self.tally.fail(problem)
        return system

    def measure(self, system: StreamSystem, duration: float, edges) -> Dict:
        """Writes, reads and ticks together for ``duration`` seconds.

        ``cpu_s`` is the CPU the whole process spent meanwhile: ingest,
        refits, publishes, reloads, reads and the two load threads.
        """
        from repro.streaming import link_add

        spec = self.spec
        n_writes = min(len(edges), max(1, int(spec.write_rate * duration)))
        n_reads = max(1, int(spec.read_rate * duration))
        users = inputs.zipf_users(self.rng, spec.n_users, n_reads)
        pipeline, batcher = system.pipeline, system.batcher
        writes: List[loadgen.Sample] = []
        reads: List[loadgen.Sample] = []

        def write_op():
            return lambda i: pipeline.submit(link_add(*(int(x) for x in edges[i])))

        def read_op():
            return lambda i: (int(users[i]), batcher.submit(int(users[i]), TOPK_K))

        cpu_before = time.process_time()
        ticker = _Ticker(system, spec.tick_every_s, self.tally).start()
        writer = threading.Thread(target=lambda: writes.extend(
            loadgen.run_open_loop(write_op, n_writes, spec.write_rate, 1)))
        reader = threading.Thread(target=lambda: reads.extend(
            loadgen.run_open_loop(read_op, n_reads, spec.read_rate, 1)))
        writer.start()
        reader.start()
        writer.join()
        reader.join()
        ticker.stop()
        cpu = time.process_time() - cpu_before
        self._account(writes, reads)
        return {"writes": writes, "reads": reads, "ticks": ticker.records,
                "lag_max": ticker.lag_max, "cpu_s": cpu}

    def _account(self, writes, reads) -> None:
        n = self.spec.n_users
        self.tally.attempted += len(writes) + len(reads)
        for sample in writes:
            if sample.error:
                self.tally.fail(f"ack: {sample.error}")
        for sample in reads:
            problem = sample.error
            if problem is None:
                user, ranking = sample.result
                problem = checks.topk_problem(user, TOPK_K, ranking, self.seed_known.indptr,
                                              self.seed_known.indices, n)
            if problem:
                self.tally.fail(f"read: {problem}")

    def auc(self, predictor) -> float:
        """AUC of ``predictor`` on the held-out links vs sampled non-links."""
        return checks.heldout_auc(predictor, self.held, self.negatives)

    def finish(self, system: StreamSystem, writes) -> Dict[str, float]:
        """Publish everything acked, check the served state, score it.

        Returns the served version's AUC and ``heldout_auc``: the AUC of a
        cold factored refit of the final served state.  The served
        version comes from warm refits whose number and contents follow
        the wall-clock tick cadence, so only the cold refit's AUC is
        reproducible per seed; it is fitted twice and must agree.
        """
        from repro.streaming import link_add
        from repro.streaming.deltas import StreamState
        from repro.streaming.refit import WarmRefitter

        self.tally.attempted += 1
        problem = tick_problem(system.pipeline.tick())
        if problem is not None:
            self.tally.fail(problem)
        meta = system.service.artifact.manifest.get("meta", {})
        acked = system.pipeline.wal.last_seq
        if int(meta.get("applied_seq", -1)) != acked:
            self.tally.fail(f"served applied_seq {meta.get('applied_seq')} != acked {acked}")
        reference = StreamState(self.spec.n_users)
        records = [(seq, link_add(u, v))
                   for seq, (u, v) in enumerate(self.seed_edges.tolist(), start=1)]
        records += [(s.result, link_add(*(int(x) for x in self.stream_edges[s.index])))
                    for s in writes if s.error is None]
        reference.apply_many(records)
        if meta.get("state_digest") != reference.digest():
            self.tally.fail("served state digest does not cover the acked deltas")
        served = self.auc(system.service.artifact.predictor)
        final = system.pipeline.state.to_csr()
        cold = [self.auc(WarmRefitter(factored=True).refit(final)) for _ in range(2)]
        self.tally.attempted += 1
        if cold[0] != cold[1]:
            self.tally.fail(f"cold-refit AUC differs between identical refits: {cold}")
        return {"served_auc": served, "heldout_auc": cold[0]}


def _delta_to_servable(writes, ticks) -> List[float]:
    """Seconds from each ack to the end of the first tick serving it."""
    out = []
    for sample in writes:
        if sample.error is not None:
            continue
        seq = sample.result
        for tick in ticks:
            if tick["end"] >= sample.done and tick["served_seq"] >= seq:
                out.append(tick["end"] - sample.done)
                break
    return out


def child(options: Dict) -> Dict:
    bench = StreamRun(options["seed"], options["seconds"], options["workdir"],
                      options["tiny"])
    seconds = options["seconds"]
    if options["trace"]:
        return bench.tally.result(_traced(bench, seconds))
    setups, system = [], None
    for index in range(SETUP_REPEATS):
        if system is not None:
            system.close()
        system = bench.boot(index)
        setups.append(system.setup_s)
    result = bench.measure(system, seconds, bench.stream_edges)
    aucs = bench.finish(system, result["writes"])
    system.close()
    servable = _delta_to_servable(result["writes"], result["ticks"])
    if not servable:
        raise RuntimeError("no acked delta became servable during the run")
    reads = [s.latency * 1e3 for s in result["reads"]]
    acks = [s.latency * 1e3 for s in result["writes"]]
    operations = len(result["reads"]) + len(result["writes"])
    return bench.tally.result({
        "setup_s": statistics.median(setups),
        # One window per tick period, so every window holds one tick's
        # worth of refit contention and their medians are alike.
        "read_p50_ms": loadgen.windowed_median(
            result["reads"], bench.spec.tick_every_s) * 1e3,
        "cpu_ms_per_op": result["cpu_s"] / operations * 1e3,
        "peak_rss_mb": procs.peak_rss_mb(os.getpid()),
        "read_p99_ms": loadgen.percentile(reads, 99),
        "ack_p50_ms": loadgen.percentile(acks, 50),
        "ack_p99_ms": loadgen.percentile(acks, 99),
        "delta_to_servable_p50_s": statistics.median(servable),
        **aucs,
    })


def _traced(bench: StreamRun, seconds: float) -> Dict[str, float]:
    """An untraced then a traced half; per-layer figures from the spans."""
    import spans as spans_module

    system = bench.boot(0)
    half = len(bench.stream_edges) // 2
    plain = bench.measure(system, seconds / 2, bench.stream_edges[:half])
    recorder = spans_module.SpanRecorder()
    spans_module.install(recorder)
    start = time.perf_counter()
    traced = bench.measure(system, seconds / 2, bench.stream_edges[half:])
    end = time.perf_counter()
    shed = system.pipeline.ingestor.shed
    system.close()
    return layers.stream_layers(recorder.spans, plain, traced, start, end, shed)


if __name__ == "__main__":
    options = json.loads(sys.argv[1])
    result = child(options)
    with open(options["out"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
