"""Outside-in span recording around the program's public calls.

The program under test carries no benchmark code.  A traced run instead
replaces selected public methods with thin wrappers that record a span
per call: name, start, end, the span that was open on the same thread
when the call began (its parent) and the request id bound by the
outermost wrapper.  Spans stay in memory and are written out once, when
the traced process ends.

``install(recorder)`` wraps every layer boundary the benchmark reports;
``self_times`` and ``union_length`` turn the raw spans into the per-layer
figures.
"""

from __future__ import annotations

import bisect
import itertools
import json
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

# One span: (id, name, start, end, parent id or -1, request id or "", attrs)
Span = Tuple[int, str, float, float, int, str, Dict]


class SpanRecorder:
    """Collects spans from any thread into one in-memory list."""

    def __init__(self):
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.rid = ""
        return stack

    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        rid_arg: Optional[int] = None,
        attrs: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``rid_arg`` names the positional argument (counting ``self``)
        that carries the request id; the wrapper binds it for every span
        opened below it on the same thread.  ``attrs(args, result)`` runs
        after the span's end time is taken and returns the span's
        attributes.
        """
        original = getattr(owner, attr)
        recorder = self

        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            local = recorder._local
            parent = stack[-1] if stack else -1
            span_id = next(recorder._ids)
            outer_rid = local.rid
            if rid_arg is not None and len(args) > rid_arg:
                local.rid = str(args[rid_arg] or "")
            stack.append(span_id)
            result = None
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                extra = attrs(args, result) if attrs is not None else {}
                recorder.spans.append(
                    (span_id, name, start, end, parent, local.rid, extra)
                )
                local.rid = outer_rid

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)

    def dump(self, path: str) -> None:
        """Write every span as JSON (called once, at the end of a run)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([list(span) for span in self.spans], handle)


def load(path: str) -> List[Span]:
    """Spans written by :meth:`SpanRecorder.dump`."""
    with open(path, "r", encoding="utf-8") as handle:
        return [tuple(span) for span in json.load(handle)]


class _FsyncShim:
    """Stands in for ``os`` inside the WAL module so fsync gets a span."""

    def __init__(self, module, fsync):
        self._module = module
        self.fsync = fsync

    def __getattr__(self, name):
        return getattr(self._module, name)


def install(recorder: SpanRecorder) -> None:
    """Wrap the public calls of every layer the benchmark reports."""
    from repro.adaptation.adapter import DomainAdapter
    from repro.factored.estimate import FactoredEstimate
    from repro.factored.solver import FactoredSolver
    from repro.features.intimacy import IntimacyFeatureExtractor
    from repro.models.slampred import SlamPred
    from repro.observability.cells import CellBank
    from repro.optim.proximal import L1Prox, TraceNormProx
    from repro.perf.warm_svt import WarmStartSVT
    from repro.serving import artifacts as artifacts_module
    from repro.serving.batcher import MicroBatcher
    from repro.serving.cache import RankingCache
    from repro.serving.http import EndpointRouter
    from repro.serving.service import LinkPredictionService
    from repro.streaming import wal as wal_module
    from repro.streaming.pipeline import StreamingPipeline
    from repro.streaming.refit import WarmRefitter

    wrap = recorder.wrap
    wrap(EndpointRouter, "dispatch", "router.dispatch", rid_arg=5)
    wrap(
        MicroBatcher, "submit", "batcher.submit",
        attrs=lambda a, r: {"user": int(a[1])},
    )
    wrap(
        LinkPredictionService, "batch_top_k_mixed", "service.batch",
        attrs=lambda a, r: {"users": [int(u) for u in a[1]]},
    )
    wrap(LinkPredictionService, "top_k", "service.top_k")
    wrap(LinkPredictionService, "reload", "service.reload")
    wrap(
        RankingCache, "get", "cache.get",
        attrs=lambda a, r: {"hit": r is not None},
    )
    wrap(RankingCache, "put", "cache.put")
    wrap(RankingCache, "invalidate", "cache.invalidate")
    wrap(FactoredEstimate, "rows", "factored.rows")
    wrap(FactoredSolver, "solve", "factored.solve")

    def svt_attrs(args, result):
        stats = args[0].stats
        return {
            "engine": id(args[0]),
            "dense_fallbacks": stats.get("dense_fallbacks", 0),
            "unverified_accepts": stats.get("unverified_accepts", 0),
        }

    wrap(WarmStartSVT, "apply_factored", "svt.apply", attrs=svt_attrs)
    wrap(TraceNormProx, "apply_factored", "optim.trace_prox")
    wrap(L1Prox, "apply_values", "optim.l1_prox")
    wrap(IntimacyFeatureExtractor, "extract", "features.extract")
    wrap(IntimacyFeatureExtractor, "extract_many", "features.extract")
    wrap(DomainAdapter, "fit", "adaptation.fit")
    wrap(DomainAdapter, "transform", "adaptation.transform")
    wrap(SlamPred, "fit", "models.fit")

    def publish_attrs(args, result):
        store, version = args[0], result
        if version is None:
            return {"bytes": 0}
        files = store.manifest(version).get("files", {})
        return {"bytes": sum(int(e.get("bytes", 0)) for e in files.values())}

    store_cls = artifacts_module.ArtifactStore
    wrap(store_cls, "publish", "artifacts.publish", attrs=publish_attrs)
    wrap(store_cls, "load", "artifacts.load")
    wrap(wal_module.WriteAheadLog, "append", "wal.append")
    shim_os = _FsyncShim(wal_module.os, wal_module.os.fsync)
    wrap(shim_os, "fsync", "wal.fsync")
    wal_module.os = shim_os
    wrap(StreamingPipeline, "submit", "stream.submit")
    wrap(StreamingPipeline, "tick", "stream.tick")
    wrap(StreamingPipeline, "apply_pending", "stream.apply")
    wrap(StreamingPipeline, "snapshot", "stream.snapshot")
    wrap(WarmRefitter, "refit", "stream.refit")
    wrap(CellBank, "drain", "telemetry.drain")


# -- analysis --------------------------------------------------------------
def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by a set of intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def clipped_union(
    intervals: Iterable[Tuple[float, float]], lo: float, hi: float
) -> float:
    """Length of ``[lo, hi]`` covered by the intervals."""
    return union_length(
        (max(s, lo), min(e, hi)) for s, e in intervals if e > lo and s < hi
    )


def link_batches(spans: Sequence[Span]) -> None:
    """Record on each ``batcher.submit`` span the batch that served it.

    The batch runs on the batcher's worker thread, so it has no parent on
    its own thread.  A submit span's batch is the one that served its user
    and ran inside the submit's interval; its id lands in the submit's
    ``batch`` attribute.
    """
    batches = [s for s in spans if s[1] == "service.batch" and s[4] == -1]
    batches.sort(key=lambda s: s[2])
    starts = [s[2] for s in batches]
    for span in spans:
        if span[1] != "batcher.submit":
            continue
        user = span[6].get("user")
        index = bisect.bisect_left(starts, span[2])
        while index < len(batches) and batches[index][2] <= span[3]:
            batch = batches[index]
            if batch[3] <= span[3] and user in batch[6].get("users", ()):
                span[6]["batch"] = batch[0]
                break
            index += 1


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the part its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    by_id = {s[0]: s for s in spans}
    for span in spans:
        parent = span[4]
        if parent == -1:
            continue
        children.setdefault(parent, []).append((span[2], span[3]))
    for span in spans:
        batch = span[6].get("batch") if span[1] == "batcher.submit" else None
        if batch is not None and batch in by_id:
            other = by_id[batch]
            children.setdefault(span[0], []).append((other[2], other[3]))
    return {
        s[0]: (s[3] - s[2]) - clipped_union(children.get(s[0], ()), s[2], s[3])
        for s in spans
    }
