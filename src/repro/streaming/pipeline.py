"""The streaming pipeline: ingest → WAL → apply → warm refit → publish.

:class:`StreamingPipeline` composes the subsystem's pieces around one
directory::

    <directory>/
    ├── wal/          segmented write-ahead log (the durability source)
    └── state.npz     latest StreamState snapshot (a replay accelerator)

**Recovery protocol** (runs in the constructor, and after any crash):

1. load ``state.npz`` if present and intact — a corrupt or torn snapshot
   is *discarded*, never trusted, because the WAL can always rebuild it;
2. open the WAL (which truncates a torn tail on the newest segment);
3. replay every record with ``seq > state.applied_seq`` into the state.

Because acknowledgement happens only after fsync, and apply is
idempotent per sequence number, the recovered state is bit-identical
(same :meth:`~repro.streaming.deltas.StreamState.digest`) to the state
an uninterrupted process would have reached over the acknowledged
prefix — that is the subsystem's headline guarantee, enforced by the
SIGKILL crash test.

**Continuous publish**: :meth:`tick` applies pending records, snapshots
and compacts on a cadence, then warm-refits and publishes through the
existing :class:`~repro.serving.artifacts.ArtifactStore` →
:meth:`~repro.serving.service.LinkPredictionService.reload` hot-swap
path.  Refit/publish failures feed a circuit breaker; once it opens the
pipeline engages the serving layer's degraded tier until a later tick
succeeds.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, Optional

from repro.exceptions import ArtifactCorruptError
from repro.observability.logging import get_logger
from repro.observability.metrics import NULL_REGISTRY
from repro.reliability.breaker import OPEN, CircuitBreaker
from repro.streaming.deltas import Delta, StreamState
from repro.streaming.ingest import StreamIngestor
from repro.streaming.refit import WarmRefitter
from repro.streaming.wal import WriteAheadLog

_log = get_logger("repro.streaming.pipeline")

_STAGES = ("apply", "snapshot", "refit", "publish", "reload")


class StreamingPipeline:
    """Durable ingest plus cadenced warm-refit-and-publish.

    Parameters
    ----------
    directory:
        Home of the WAL segments and the state snapshot.
    n_users:
        Fixed user population of the stream.
    store:
        Optional :class:`~repro.serving.artifacts.ArtifactStore`; when
        ``None`` the pipeline ingests and refits without publishing.
    refitter:
        The :class:`~repro.streaming.refit.WarmRefitter` to run each
        cadence tick (a small dense one is built when omitted).
    service:
        Optional :class:`~repro.serving.service.LinkPredictionService`
        to hot-swap after each publish (and to push into degraded mode
        when the refit breaker opens).
    registry:
        Metrics sink shared with the other streaming components.
    max_pending / submit_timeout:
        Backpressure window and default shed timeout of the ingest API.
    snapshot_every:
        Snapshot + compact the WAL every this many ticks.
    refit_breaker:
        Circuit breaker guarding refit+publish (3 consecutive failures
        open it by default).

    Examples
    --------
    >>> import tempfile
    >>> from repro.streaming.deltas import link_add
    >>> pipeline = StreamingPipeline(tempfile.mkdtemp(), n_users=6)
    >>> pipeline.submit(link_add(0, 1))
    1
    >>> pipeline.apply_pending()
    1
    >>> pipeline.state.n_links
    1
    """

    def __init__(
        self,
        directory: str,
        n_users: int,
        store=None,
        refitter: Optional[WarmRefitter] = None,
        service=None,
        registry=None,
        max_pending: int = 4096,
        submit_timeout: float = 0.5,
        snapshot_every: int = 1,
        refit_breaker: Optional[CircuitBreaker] = None,
        segment_max_bytes: int = 4 << 20,
    ):
        self.directory = str(directory)
        self.store = store
        self.service = service
        self.registry = registry if registry is not None else NULL_REGISTRY
        self.submit_timeout = float(submit_timeout)
        self.snapshot_every = max(1, int(snapshot_every))
        self.state_path = os.path.join(self.directory, "state.npz")
        os.makedirs(self.directory, exist_ok=True)
        self.state = self._recover_state(int(n_users))
        self.wal = WriteAheadLog(
            os.path.join(self.directory, "wal"),
            segment_max_bytes=segment_max_bytes,
            registry=self.registry,
        )
        self._g_applied = self.registry.gauge(
            "streaming.applied_seq",
            help="Newest WAL sequence number folded into the stream state.",
        )
        self._g_staleness = self.registry.gauge(
            "streaming.staleness_seconds",
            help="Seconds the published model trails the acknowledged stream.",
        )
        self._h_stage = self.registry.histogram(
            "streaming.stage_seconds",
            help="Per-stage latency of the streaming tick.",
            labels=("stage",),
        )
        replayed = self._replay()
        if replayed:
            _log.info(
                "recovered stream state from WAL",
                replayed_records=replayed,
                applied_seq=self.state.applied_seq,
            )
        self.ingestor = StreamIngestor(
            self.wal,
            applied_seq_fn=lambda: self.state.applied_seq,
            max_pending=max_pending,
            registry=self.registry,
        )
        self.refitter = refitter if refitter is not None else WarmRefitter()
        self.refit_breaker = refit_breaker or CircuitBreaker(
            "streaming.refit",
            failure_threshold=3,
            recovery_timeout=5.0,
            registry=self.registry,
        )
        self.ticks = 0
        self.publishes = 0
        self.published_seq = 0
        self.last_refit_error: Optional[str] = None
        self._last_publish_at = time.monotonic()
        self._degraded_engaged = False
        self._tick_lock = threading.Lock()

    # -- recovery -------------------------------------------------------
    def _recover_state(self, n_users: int) -> StreamState:
        """Load the snapshot, discarding it when torn or corrupt."""
        if os.path.exists(self.state_path):
            try:
                state = StreamState.load(self.state_path)
                if state.n_users == n_users:
                    return state
                _log.warning(
                    "snapshot has wrong user count; rebuilding from WAL",
                    snapshot_users=state.n_users,
                    expected_users=n_users,
                )
            except ArtifactCorruptError as exc:
                _log.warning(
                    "discarding corrupt state snapshot; replaying full WAL",
                    error=str(exc),
                )
        return StreamState(n_users)

    def _replay(self) -> int:
        """Fold every WAL record newer than the state into the state."""
        applied = self.state.apply_many(
            (seq, Delta.decode(payload))
            for seq, payload in self.wal.replay(self.state.applied_seq)
        )
        self._g_applied.set(float(self.state.applied_seq))
        return applied

    # -- ingest ---------------------------------------------------------
    def submit(self, delta: Delta, timeout: Optional[float] = None) -> int:
        """Durably acknowledge one delta (see :meth:`StreamIngestor.submit`)."""
        return self.ingestor.submit(
            delta, timeout=self.submit_timeout if timeout is None else timeout
        )

    # -- the tick -------------------------------------------------------
    def apply_pending(self) -> int:
        """Fold acknowledged-but-unapplied WAL records into the state."""
        started = time.monotonic()
        applied = self._replay()
        if applied:
            self.ingestor.notify_applied()
        self._h_stage.labels(stage="apply").observe(time.monotonic() - started)
        return applied

    def snapshot(self) -> int:
        """Durably snapshot the state, then compact covered WAL segments."""
        started = time.monotonic()
        self.state.save(self.state_path)
        removed = self.wal.truncate_through(self.state.applied_seq)
        self._h_stage.labels(stage="snapshot").observe(
            time.monotonic() - started
        )
        return removed

    def update_staleness(self) -> float:
        """Refresh the staleness gauge.

        Zero while nothing acknowledged is unpublished; otherwise the time
        since the last successful publish (the published model's age
        relative to the stream's head).
        """
        if self.wal.last_seq <= self.published_seq:
            staleness = 0.0
        else:
            staleness = time.monotonic() - self._last_publish_at
        self._g_staleness.set(staleness)
        return staleness

    def refit_and_publish(self) -> Optional[int]:
        """Warm-refit on the current state and publish the new version.

        Returns the published version number, or ``None`` when the refit
        breaker refused the attempt or the refit/publish failed (the
        failure is recorded on the breaker; once it opens, the serving
        layer's degraded tier is engaged until a tick succeeds again).
        """
        if not self.refit_breaker.allow():
            self.last_refit_error = "refit circuit breaker is open"
            self._sync_degraded()
            return None
        try:
            started = time.monotonic()
            predictor = self.refitter.refit(self.state.to_csr())
            self._h_stage.labels(stage="refit").observe(
                time.monotonic() - started
            )
            version = None
            if self.store is not None:
                started = time.monotonic()
                version = self.store.publish(
                    predictor,
                    graph=self.state.to_csr(),
                    meta={
                        "source": "streaming",
                        "applied_seq": self.state.applied_seq,
                        "state_digest": self.state.digest(),
                    },
                )
                self._h_stage.labels(stage="publish").observe(
                    time.monotonic() - started
                )
        except Exception as exc:  # breaker boundary: count, degrade, report
            self.refit_breaker.record_failure()
            self.last_refit_error = str(exc)
            self._sync_degraded()
            _log.warning("streaming refit/publish failed", error=str(exc))
            return None
        self.refit_breaker.record_success()
        self.last_refit_error = None
        self.publishes += 1
        self.published_seq = self.state.applied_seq
        self._last_publish_at = time.monotonic()
        self._sync_degraded()
        if self.service is not None:
            started = time.monotonic()
            self.service.reload()
            self._h_stage.labels(stage="reload").observe(
                time.monotonic() - started
            )
        self.update_staleness()
        return version

    def _sync_degraded(self) -> None:
        """Engage/disengage the serving degraded tier from breaker state."""
        if self.service is None:
            return
        should_engage = self.refit_breaker.state == OPEN
        if should_engage and not self._degraded_engaged:
            self.service.engage_degraded("streaming refit breaker open")
            self._degraded_engaged = True
        elif not should_engage and self._degraded_engaged:
            self.service.disengage_degraded()
            self._degraded_engaged = False

    def tick(self) -> Dict:
        """One cadence step: apply → (snapshot+compact) → refit → publish.

        Serialized against :meth:`close` (and concurrent ticks) by a
        lock, so a graceful drain can never observe a half-finished
        publish: either the tick's ``store.publish`` completed — the
        version directory was atomically renamed into place — or it
        never started.  mmap-safety rides on the same ordering: the
        store never deletes old version directories, so factor arrays
        mapped from a previous version stay valid pages while a new one
        is staged and swapped in.
        """
        with self._tick_lock:
            self.ticks += 1
            applied = self.apply_pending()
            compacted = 0
            if self.ticks % self.snapshot_every == 0:
                compacted = self.snapshot()
            version = self.refit_and_publish()
            return {
                "tick": self.ticks,
                "applied": applied,
                "compacted_segments": compacted,
                "published_version": version,
                "staleness_seconds": self.update_staleness(),
                "breaker": self.refit_breaker.state,
            }

    # -- introspection --------------------------------------------------
    def stats(self) -> Dict:
        """JSON-compatible snapshot for tests and the chaos smoke."""
        return {
            "acked_seq": self.wal.last_seq,
            "applied_seq": self.state.applied_seq,
            "published_seq": self.published_seq,
            "publishes": self.publishes,
            "ticks": self.ticks,
            "n_links": self.state.n_links,
            "state_digest": self.state.digest(),
            "staleness_seconds": self.update_staleness(),
            "refit_breaker": self.refit_breaker.state,
            "last_refit_error": self.last_refit_error,
            "ingest": self.ingestor.stats(),
            "torn_tail_truncations": self.wal.torn_tail_truncations,
        }

    def close(self, drain: bool = True) -> None:
        """Release the WAL append handle (state stays recoverable on disk).

        With ``drain`` (the default) the call first takes the tick lock,
        blocking until any in-flight :meth:`tick` — including its
        publish-and-rename — has completed, so shutdown never abandons a
        staging directory or tears a publish mid-swap.
        """
        if drain:
            with self._tick_lock:
                self.wal.close()
        else:
            self.wal.close()
