"""fit-transfer: the full SLAMPRED transfer fit, published, loaded, answered.

Runs in a child process (this module run as a script) so that its peak
memory is the fit's own.  Set-up is the world generation and the
held-out split; each timed repetition goes from the ``TransferTask``
through ``SlamPred(factored=True).fit``, an ``npy`` publish and a
``LinkPredictionService`` load to the first top-k answer.  The last
loaded version then answers open-loop top-k reads through a
``MicroBatcher``, as a co-deployed service would.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Dict

import numpy as np

import checks
import layers
import loadgen
import procs
from procs import SETUP_REPEATS, TOPK_K

MIN_FITS = 2

READ_SHARE = 0.2
"""Share of ``--seconds`` spent reading the last loaded version."""

READ_RATE = 200.0
"""Offered rate of those reads, per second."""

READ_WINDOW_S = 0.5
"""Span of the windows whose medians give ``read_p50_ms``."""


@dataclass(frozen=True)
class FitSpec:
    """World size and solver budget of the transfer fit."""

    scale: int
    svd_rank: int
    inner_iterations: int
    outer_iterations: int


SPEC = FitSpec(400, 60, 10, 10)
TINY = FitSpec(60, 20, 3, 2)


def run(seed, seconds, trace, workdir, tiny=False) -> Dict:
    """Run the system in a child process; its metrics and tally."""
    return procs.run_child(os.path.abspath(__file__), {
        "seed": seed, "seconds": seconds, "trace": trace, "workdir": workdir,
        "tiny": tiny, "out": os.path.join(workdir, "fit-result.json"),
    })


class FitRun:
    """World, split and repetitions of one fit-transfer run (in the child)."""

    def __init__(self, seed: int, workdir: str, tiny: bool):
        self.spec = TINY if tiny else SPEC
        self.seed = seed
        self.workdir = workdir
        self.tally = checks.Tally()
        self.fits = 0
        self.cpu = []
        self.known = None

    def setup(self) -> float:
        """Generate the aligned world and its held-out fold; returns seconds."""
        from repro.evaluation.splits import k_fold_link_splits
        from repro.networks.social import SocialGraph
        from repro.synth.generator import generate_aligned_pair

        started = time.perf_counter()
        self.aligned = generate_aligned_pair(scale=self.spec.scale, random_state=self.seed)
        graph = SocialGraph.from_network(self.aligned.target)
        self.split = k_fold_link_splits(graph, n_folds=5, random_state=self.seed)[0]
        return time.perf_counter() - started

    def task(self):
        """A fresh task per fit, so every fit sees the same random stream."""
        from repro.models.base import TransferTask

        return TransferTask(
            target=self.aligned.target,
            training_graph=self.split.training_graph,
            sources=list(self.aligned.sources),
            anchors=list(self.aligned.anchors),
            random_state=np.random.default_rng(self.seed),
        )

    def graph_to_servable(self):
        """Fit, publish, load, answer; returns (seconds, service)."""
        from scipy import sparse

        from repro.models.slampred import SlamPred
        from repro.serving.artifacts import ArtifactStore
        from repro.serving.service import LinkPredictionService

        spec = self.spec
        task = self.task()
        store_dir = os.path.join(self.workdir, f"store-{self.fits}")
        self.fits += 1
        self.tally.attempted += 1
        cpu_before = time.process_time()
        started = time.perf_counter()
        model = SlamPred(
            factored=True,
            svd_rank=spec.svd_rank,
            inner_iterations=spec.inner_iterations,
            outer_iterations=spec.outer_iterations,
        ).fit(task)
        store = ArtifactStore(store_dir, layout="npy")
        known = sparse.csr_matrix(task.training_graph.adjacency)
        store.publish(model, graph=known, meta={"source": "perfbench", "seed": self.seed})
        service = LinkPredictionService(store)
        first = service.top_k(0, TOPK_K)
        elapsed = time.perf_counter() - started
        self.cpu.append(time.process_time() - cpu_before)
        self.known = known
        problem = checks.topk_problem(0, TOPK_K, first, known.indptr, known.indices,
                                      service.n_users)
        if problem is None:
            estimate = service.artifact.predictor.factored_estimate
            problem = checks.matches_reference(estimate, known, 0, TOPK_K, first)
        if problem:
            self.tally.fail(problem)
        return elapsed, service

    def auc(self, service) -> float:
        """AUC of the served version on the held-out fold."""
        from repro.evaluation.metrics import auc_score

        scores = service.artifact.predictor.score_pairs(self.split.test_pairs)
        return float(auc_score(scores, self.split.test_labels))

    def reads(self, service, seconds: float):
        """Open-loop top-k reads of the loaded version through a ``MicroBatcher``.

        Uniform users at ``READ_RATE``; every answer is checked.  Every
        user is ranked once first, so the timed reads find the cache
        filled and the median is not read off the edge between hits and
        misses.
        """
        from repro.serving.batcher import MicroBatcher

        n = service.n_users
        count = max(1, int(READ_RATE * seconds))
        users = np.random.default_rng(self.seed).integers(0, n, size=count)
        service.batch_top_k(list(range(n)), TOPK_K)
        batcher = MicroBatcher(service).start()
        try:
            samples = loadgen.run_open_loop(
                lambda: lambda i: batcher.submit(int(users[i]), TOPK_K),
                count, READ_RATE, 1,
            )
        finally:
            batcher.stop()
        self.tally.attempted += len(samples)
        for sample in samples:
            problem = sample.error or checks.topk_problem(
                int(users[sample.index]), TOPK_K, sample.result,
                self.known.indptr, self.known.indices, n,
            )
            if problem:
                self.tally.fail(f"read: {problem}")
        return samples


def child(options: Dict) -> Dict:
    bench = FitRun(options["seed"], options["workdir"], options["tiny"])
    seconds = options["seconds"]
    setups = [bench.setup() for _ in range(SETUP_REPEATS)]
    if options["trace"]:
        metrics = _traced(bench)
    else:
        times, aucs = [], []
        fit_seconds = (1.0 - READ_SHARE) * seconds
        started = time.perf_counter()
        # Start another fit only while it should end within its share of time.
        while (len(times) < MIN_FITS or time.perf_counter() - started
               + statistics.median(times) <= fit_seconds):
            elapsed, service = bench.graph_to_servable()
            times.append(elapsed)
            aucs.append(bench.auc(service))
        if len(set(aucs)) != 1:
            bench.tally.fail(f"held-out AUC differs between identical fits: {aucs}")
        reads = bench.reads(service, READ_SHARE * seconds)
        metrics = {
            "setup_s": statistics.median(setups),
            "read_p50_ms": loadgen.windowed_median(reads, READ_WINDOW_S) * 1e3,
            "cpu_ms_per_op": statistics.median(bench.cpu) * 1e3,
            "heldout_auc": aucs[0],
            "peak_rss_mb": procs.peak_rss_mb(os.getpid()),
            "graph_to_servable_s": statistics.median(times),
        }
    return bench.tally.result(metrics)


def _traced(bench: FitRun) -> Dict[str, float]:
    """An untraced then a traced repetition; per-layer figures from the spans."""
    import spans as spans_module

    plain, _ = bench.graph_to_servable()
    recorder = spans_module.SpanRecorder()
    spans_module.install(recorder)
    start = time.perf_counter()
    traced, _ = bench.graph_to_servable()
    end = time.perf_counter()
    return layers.fit_layers(recorder.spans, plain, traced, start, end)


if __name__ == "__main__":
    options = json.loads(sys.argv[1])
    result = child(options)
    with open(options["out"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
