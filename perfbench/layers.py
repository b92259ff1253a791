"""Per-layer figures of a traced run, computed from the recorded spans.

Every traced run reports every per-layer metric; a layer the workload
never calls reads 0.  Times are means per call unless the name says
otherwise; a *self* time is the span's duration minus the part its
children cover.  ``SHOULD_MOVE`` records, for every per-layer metric,
which end-to-end metric on which workload it is expected to move.
"""

from __future__ import annotations

import re
import statistics
from typing import Dict, Iterable, List, Sequence

import loadgen
import spans as spans_module

SHOULD_MOVE = {
    "aio.transport_self_ms": "read_p50_ms, sustained_qps (not gated), cpu_ms_per_op on serve-hot; ~none on serve-cold",
    "aio.executor_wait_ms": "read_p50_ms, sustained_qps (not gated) on serve-hot",
    "aio.loop_lag_ms": "read_p99_ms (not gated) on serve-hot and serve-cold",
    "aio.shed": "sustained_qps (not gated) on serve-hot and serve-cold",
    "router.dispatch_self_ms": "read_p50_ms, cpu_ms_per_op on serve-hot",
    "batcher.wait_ms": "read_p50_ms, sustained_qps (not gated) on serve-hot and serve-cold",
    "batcher.batch_size_mean": "sustained_qps (not gated) on serve-hot and serve-cold",
    "cache.hit_ratio": "read_p50_ms on serve-hot; read_p99_ms (not gated) on stream-refit",
    "cache.lookup_us": "read_p50_ms on serve-hot",
    "cache.invalidations": "read_p99_ms (not gated) on stream-refit",
    "service.rank_self_ms": "read_p50_ms, cpu_ms_per_op on serve-cold",
    "service.reload_ms": "cpu_ms_per_op, delta_to_servable_p50_s (not gated) on stream-refit",
    "factored.rows_ms": "read_p50_ms, cpu_ms_per_op on serve-cold",
    "factored.solve_s": "cpu_ms_per_op, graph_to_servable_s (not gated) on fit-transfer; cpu_ms_per_op, delta_to_servable_p50_s (not gated) on stream-refit",
    "factored.fb_iterations": "cpu_ms_per_op, graph_to_servable_s (not gated) on fit-transfer; cpu_ms_per_op, delta_to_servable_p50_s (not gated) on stream-refit",
    "svt.apply_ms": "cpu_ms_per_op, graph_to_servable_s (not gated) on fit-transfer; cpu_ms_per_op, delta_to_servable_p50_s (not gated) on stream-refit; none on serve-*",
    "svt.applies": "cpu_ms_per_op, graph_to_servable_s (not gated) on fit-transfer; cpu_ms_per_op, delta_to_servable_p50_s (not gated) on stream-refit",
    "svt.dense_fallbacks": "cpu_ms_per_op, graph_to_servable_s (not gated) on fit-transfer; cpu_ms_per_op, delta_to_servable_p50_s (not gated) on stream-refit",
    "svt.unverified_accepts": "heldout_auc on stream-refit (quality guard)",
    "optim.trace_prox_self_ms": "cpu_ms_per_op, graph_to_servable_s (not gated) on fit-transfer; cpu_ms_per_op, delta_to_servable_p50_s (not gated) on stream-refit",
    "optim.l1_prox_ms": "cpu_ms_per_op, graph_to_servable_s (not gated) on fit-transfer; cpu_ms_per_op, delta_to_servable_p50_s (not gated) on stream-refit",
    "features.extract_s": "cpu_ms_per_op, graph_to_servable_s (not gated) on fit-transfer only",
    "adaptation.fit_s": "cpu_ms_per_op, graph_to_servable_s (not gated) on fit-transfer only",
    "adaptation.transform_s": "cpu_ms_per_op, graph_to_servable_s (not gated) on fit-transfer only",
    "models.intimacy_self_s": "cpu_ms_per_op, graph_to_servable_s (not gated) on fit-transfer",
    "artifacts.publish_ms": "cpu_ms_per_op, delta_to_servable_p50_s (not gated) on stream-refit; cpu_ms_per_op, graph_to_servable_s (not gated) on fit-transfer",
    "artifacts.load_ms": "setup_s on serve-*; cpu_ms_per_op on stream-refit and fit-transfer",
    "artifacts.bytes_written": "cpu_ms_per_op, delta_to_servable_p50_s (not gated) on stream-refit; cpu_ms_per_op, graph_to_servable_s (not gated) on fit-transfer",
    "wal.append_ms": "ack_p50_ms, ack_p99_ms (not gated) on stream-refit",
    "wal.fsync_ms": "ack_p50_ms, ack_p99_ms (not gated) on stream-refit",
    "stream.apply_ms": "cpu_ms_per_op, delta_to_servable_p50_s (not gated) on stream-refit",
    "stream.snapshot_ms": "cpu_ms_per_op, delta_to_servable_p50_s (not gated) on stream-refit",
    "stream.refit_s": "cpu_ms_per_op, delta_to_servable_p50_s (not gated) on stream-refit",
    "stream.ingest_lag_max": "ack_p99_ms (not gated) on stream-refit",
    "stream.shed": "ack_p99_ms (not gated) on stream-refit",
    "telemetry.drain_ms": "cpu_ms_per_op on serve-hot",
    "loadgen.late_p99_ms": "diagnostic: validates the run, not claimable",
    "trace.unattributed_share": "diagnostic: validates the run, not claimable",
    "trace.overhead_pct": "diagnostic: validates the run, not claimable",
}

NAMES = tuple(SHOULD_MOVE)


def _mean(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def _named(recorded, name) -> List[tuple]:
    return [s for s in recorded if s[1] == name]


def _durations(recorded, name) -> List[float]:
    return [s[3] - s[2] for s in recorded if s[1] == name]


def _in_window(recorded, start, end) -> List[tuple]:
    return [s for s in recorded if start <= s[2] <= end]


def _prom(text: str, series: str) -> float:
    """Value of one unlabeled series in Prometheus text (0 when absent)."""
    match = re.search(rf"^{re.escape(series)} (\S+)$", text, re.M)
    return float(match.group(1)) if match else 0.0


def empty() -> Dict[str, float]:
    """Every per-layer metric at 0 (for layers a workload never calls)."""
    return {name: 0.0 for name in NAMES}


def common(recorded: Sequence[tuple], selfs: Dict[int, float]) -> Dict[str, float]:
    """Layer figures any workload can produce from its spans."""
    out: Dict[str, float] = {}
    gets = _named(recorded, "cache.get")
    out["cache.hit_ratio"] = (
        sum(1 for s in gets if s[6].get("hit")) / len(gets) if gets else 0.0
    )
    out["cache.lookup_us"] = _mean(s[3] - s[2] for s in gets) * 1e6
    out["cache.invalidations"] = float(len(_named(recorded, "cache.invalidate")))
    ranks = [s for s in recorded if s[1] in ("service.batch", "service.top_k")]
    out["service.rank_self_ms"] = _mean(selfs[s[0]] for s in ranks) * 1e3
    out["service.reload_ms"] = _mean(_durations(recorded, "service.reload")) * 1e3
    out["factored.rows_ms"] = _mean(_durations(recorded, "factored.rows")) * 1e3
    solves = _named(recorded, "factored.solve")
    out["factored.solve_s"] = _mean(s[3] - s[2] for s in solves)
    per_solve = max(1, len(solves))
    applies = _named(recorded, "svt.apply")
    out["factored.fb_iterations"] = len(_named(recorded, "optim.trace_prox")) / per_solve
    out["svt.apply_ms"] = _mean(s[3] - s[2] for s in applies) * 1e3
    out["svt.applies"] = len(applies) / per_solve
    engines: Dict[int, Dict] = {}
    for span in applies:  # the engine's counters are cumulative
        engines[span[6]["engine"]] = span[6]
    for key in ("dense_fallbacks", "unverified_accepts"):
        out[f"svt.{key}"] = float(sum(e[key] for e in engines.values()))
    out["optim.trace_prox_self_ms"] = _mean(
        selfs[s[0]] for s in _named(recorded, "optim.trace_prox")
    ) * 1e3
    out["optim.l1_prox_ms"] = _mean(_durations(recorded, "optim.l1_prox")) * 1e3
    out["artifacts.publish_ms"] = _mean(_durations(recorded, "artifacts.publish")) * 1e3
    out["artifacts.load_ms"] = _mean(_durations(recorded, "artifacts.load")) * 1e3
    out["artifacts.bytes_written"] = _mean(
        s[6].get("bytes", 0) for s in _named(recorded, "artifacts.publish")
    )
    out["telemetry.drain_ms"] = _mean(_durations(recorded, "telemetry.drain")) * 1e3
    return out


def overhead_pct(plain: float, traced: float) -> float:
    """Traced minus untraced end-to-end figure, as a percentage of untraced."""
    return (traced - plain) / plain * 100.0


def serve_layers(
    recorded: Sequence[tuple],
    plain: Sequence[loadgen.Sample],
    traced: Sequence[loadgen.Sample],
    metrics_text: str,
) -> Dict[str, float]:
    """Per-layer figures of a traced serving phase.

    A request's end-to-end time runs from its scheduled send to its
    answer.  The part covered by the server's own layer spans (router,
    batcher with the batch that served it, service, cache) is attributed;
    transport, the event loop, the executor hop and generator lateness
    are not, so ``trace.unattributed_share`` rises when a layer on the
    request path goes unwrapped.
    """
    spans_module.link_batches(recorded)
    selfs = spans_module.self_times(recorded)
    boot = [s for s in recorded if s[1] == "artifacts.load"]
    window = _in_window(recorded, min(s.scheduled for s in traced),
                        max(s.done for s in traced))
    rids = {f"t{s.index}": s for s in traced if s.error is None}
    by_rid: Dict[str, List[tuple]] = {}
    for span in window:
        if span[5] in rids:
            by_rid.setdefault(span[5], []).append(span)
    batches = {s[0]: s for s in window if s[1] == "service.batch"}
    out = empty()
    out.update(common(window + boot, selfs))
    transport, covered, total = [], 0.0, 0.0
    for rid, sample in rids.items():
        own = by_rid.get(rid, [])
        dispatch = [s for s in own if s[1] == "router.dispatch"]
        if dispatch:
            transport.append((sample.done - sample.sent) - (dispatch[0][3] - dispatch[0][2]))
        intervals = [(s[2], s[3]) for s in own]
        intervals += [
            (batches[s[6]["batch"]][2], batches[s[6]["batch"]][3])
            for s in own if s[6].get("batch") in batches
        ]
        covered += spans_module.clipped_union(intervals, sample.scheduled, sample.done)
        total += sample.done - sample.scheduled
    out["aio.transport_self_ms"] = _mean(transport) * 1e3
    wait_count = _prom(metrics_text, "repro_serving_executor_wait_seconds_count")
    out["aio.executor_wait_ms"] = (
        _prom(metrics_text, "repro_serving_executor_wait_seconds_sum") / wait_count * 1e3
        if wait_count else 0.0
    )
    out["aio.loop_lag_ms"] = _prom(metrics_text, "repro_serving_loop_lag_seconds") * 1e3
    out["aio.shed"] = _prom(metrics_text, "repro_reliability_shed_requests_total")
    out["router.dispatch_self_ms"] = _mean(
        selfs[s[0]] for s in window if s[1] == "router.dispatch" and s[5] in rids
    ) * 1e3
    out["batcher.wait_ms"] = _mean(
        selfs[s[0]] for s in window if s[1] == "batcher.submit" and s[5] in rids
    ) * 1e3
    out["batcher.batch_size_mean"] = _mean(len(s[6]["users"]) for s in batches.values())
    out["loadgen.late_p99_ms"] = loadgen.percentile([s.late for s in traced], 99) * 1e3
    out["trace.unattributed_share"] = 1.0 - covered / total if total else 0.0
    out["trace.overhead_pct"] = overhead_pct(
        loadgen.percentile([s.latency for s in plain], 50),
        loadgen.percentile([s.latency for s in traced], 50),
    )
    return out


def _entry_coverage(recorded: Sequence[tuple], entries: Sequence[tuple]) -> float:
    """Seconds of the entry spans covered by layer spans below them.

    An entry span is the call an operation starts with (a read's
    ``batcher.submit``, an ack's ``stream.submit``, a ``stream.tick``).
    Its own time is not coverage: only its descendants and, for a batcher
    submit, the batch that served it count.
    """
    by_id = {s[0]: s for s in recorded}
    children: Dict[int, List[tuple]] = {}
    for span in recorded:
        children.setdefault(span[4], []).append(span)
    covered = 0.0
    for entry in entries:
        below, stack = [], list(children.get(entry[0], ()))
        batch = by_id.get(entry[6].get("batch"))
        if batch is not None:
            stack.append(batch)
        while stack:
            span = stack.pop()
            below.append((span[2], span[3]))
            stack.extend(children.get(span[0], ()))
        covered += spans_module.clipped_union(below, entry[2], entry[3])
    return covered


def stream_layers(recorded, plain, traced, start, end, shed) -> Dict[str, float]:
    """Per-layer figures of a traced stream-refit phase.

    ``trace.unattributed_share`` is the share of the reads', acks' and
    ticks' end-to-end time (reads and acks from their scheduled time) that
    no layer span below the operation's entry call covers.  A read enters
    through ``MicroBatcher.submit`` itself, so here the batcher's window
    counts as unattributed; the batch that served the read does not.
    """
    recorded = list(recorded)
    spans_module.link_batches(recorded)
    selfs = spans_module.self_times(recorded)
    window = _in_window(recorded, start, end)
    batches = {s[0]: s for s in window if s[1] == "service.batch"}
    out = empty()
    out.update(common(window, selfs))
    out["batcher.wait_ms"] = _mean(
        selfs[s[0]] for s in window if s[1] == "batcher.submit"
    ) * 1e3
    out["batcher.batch_size_mean"] = _mean(len(s[6]["users"]) for s in batches.values())
    out["wal.append_ms"] = _mean(_durations(window, "wal.append")) * 1e3
    out["wal.fsync_ms"] = _mean(_durations(window, "wal.fsync")) * 1e3
    out["stream.apply_ms"] = _mean(_durations(window, "stream.apply")) * 1e3
    out["stream.snapshot_ms"] = _mean(_durations(window, "stream.snapshot")) * 1e3
    out["stream.refit_s"] = _mean(_durations(window, "stream.refit"))
    out["stream.ingest_lag_max"] = float(traced["lag_max"])
    out["stream.shed"] = float(shed)
    entries = [s for s in window
               if s[1] in ("batcher.submit", "stream.submit", "stream.tick")]
    covered = _entry_coverage(recorded, entries)
    total = sum(s.latency for s in traced["reads"] + traced["writes"])
    total += sum(s[3] - s[2] for s in entries if s[1] == "stream.tick")
    out["trace.unattributed_share"] = 1.0 - covered / total if total else 0.0
    out["loadgen.late_p99_ms"] = loadgen.percentile(
        [s.late for s in traced["reads"] + traced["writes"]], 99
    ) * 1e3
    out["trace.overhead_pct"] = overhead_pct(
        loadgen.percentile([s.latency for s in plain["reads"]], 50),
        loadgen.percentile([s.latency for s in traced["reads"]], 50),
    )
    return out


def fit_layers(recorded, plain: float, traced: float, start: float,
               end: float) -> Dict[str, float]:
    """Per-layer figures of one traced graph-to-servable repetition."""
    recorded = list(recorded)
    selfs = spans_module.self_times(recorded)
    out = empty()
    out.update(common(recorded, selfs))
    out["features.extract_s"] = spans_module.union_length(
        (s[2], s[3]) for s in _named(recorded, "features.extract")
    )
    out["adaptation.fit_s"] = sum(_durations(recorded, "adaptation.fit"))
    out["adaptation.transform_s"] = sum(_durations(recorded, "adaptation.transform"))
    for fit in _named(recorded, "models.fit"):
        inner = [(s[2], s[3]) for s in recorded
                 if s[1] in ("factored.solve", "features.extract", "adaptation.fit",
                             "adaptation.transform") and fit[2] <= s[2] <= fit[3]]
        out["models.intimacy_self_s"] += (
            fit[3] - fit[2] - spans_module.clipped_union(inner, fit[2], fit[3])
        )
    covered = spans_module.clipped_union(
        [(s[2], s[3]) for s in recorded if s[4] == -1], start, end
    )
    out["trace.unattributed_share"] = 1.0 - covered / (end - start)
    out["trace.overhead_pct"] = overhead_pct(plain, traced)
    return out
