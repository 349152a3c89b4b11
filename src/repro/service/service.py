"""The deployable annotation surface: sessions, store, live queries, save/load.

:class:`AnnotationService` wraps a fitted :class:`repro.core.protocol.Annotator`
together with a :class:`repro.service.store.SemanticsStore` and exposes:

* :meth:`AnnotationService.session` — a :class:`StreamSession` per moving
  object, ingesting positioning records one at a time and publishing
  m-semantics to the store as they become final;
* :meth:`AnnotationService.annotate_batch` — the batch path through the same
  store, for backfills and offline workloads;
* :meth:`AnnotationService.query_popular_regions` /
  :meth:`query_frequent_pairs` — the paper's TkPRQ and TkFRPQ evaluated
  live over everything published so far, in-flight sessions included;
  with :meth:`enable_index` the store carries a live
  :class:`repro.index.SemanticsIndex` and these answer from the postings
  (bit-identically) instead of scanning every published m-semantics;
* :meth:`AnnotationService.save` / :meth:`AnnotationService.load` — JSON
  persistence of the trained model and service settings (built on
  :mod:`repro.persistence`), so a trained service ships without retraining.

Only the model and settings are persisted; the store *contents* and active
sessions are runtime state (persist a plain store separately with
``service.store.save(path)``).  The store *shape* is persisted: a service
backed by a :class:`repro.store.ShardedSemanticsStore` records its shard
count, partitioner and durability config, so :meth:`AnnotationService.load`
reopens the same sharded layout — and, when the store is durable, recovers
its contents from the per-shard WAL + snapshots.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.core.protocol import Annotator
from repro.crf.batch import plan_batch
from repro.index import SemanticsIndex
from repro.mobility.records import MSemantics, PositioningSequence
from repro.runtime import ExecutionPolicy, Executor
from repro.queries.tkfrpq import RegionPair, TkFRPQ
from repro.queries.tkprq import TkPRQ
from repro.service.session import StreamSession
from repro.service.store import SemanticsStore

PathLike = Union[str, Path]

SERVICE_FORMAT = "repro.annotation-service/1"


class AnnotationService:
    """Streaming + batch annotation over one venue, backed by one store."""

    DEFAULT_WINDOW = 48

    def __init__(
        self,
        annotator: Annotator,
        *,
        store: Optional[SemanticsStore] = None,
        window: int = DEFAULT_WINDOW,
        guard: Optional[int] = None,
        policy: Optional[ExecutionPolicy] = None,
        indexed: bool = False,
    ):
        if not annotator.is_fitted:
            raise ValueError(
                "AnnotationService requires a fitted annotator; "
                "fit() it or load() a persisted one"
            )
        if window < 2:
            raise ValueError("window must be at least 2 records")
        self.annotator = annotator
        self.store = store if store is not None else SemanticsStore()
        self.window = window
        self.guard = guard
        self.policy = policy if policy is not None else ExecutionPolicy()
        self._sessions: Dict[str, StreamSession] = {}
        # Guards the service-level mutable state (the session registry and
        # index toggling) against concurrent callers — the HTTP front door
        # (:mod:`repro.net.server`) runs handlers on a thread pool, so
        # session create/evict and enable/disable_index must be atomic.
        # Re-entrant because finishing a session evicts it via callback
        # while ``finish_all`` holds the lock.  The lock intentionally does
        # NOT serialise decoding: per-session record ingestion is the
        # caller's ordering responsibility (the HTTP layer keeps one lock
        # per session) and the store has its own lock for publishes.
        self._lock = threading.RLock()
        if indexed:
            self.store.attach_index()

    # -------------------------------------------------------------- sessions
    def session(
        self,
        object_id: str,
        *,
        window: Optional[int] = None,
        guard: Optional[int] = None,
        exact: bool = False,
        keep_history: bool = False,
    ) -> StreamSession:
        """Open a streaming session for one object.

        One live session per object id; finished sessions are evicted from
        the service automatically, so long-running services hold only the
        in-flight ones.  ``window``/``guard`` default to the service-level
        settings; ``exact=True`` re-decodes the full sequence on every
        record (the exact but O(n)-per-record fallback);
        ``keep_history=True`` makes the session retain all records and
        labels instead of dropping published, out-of-window prefixes.
        """
        with self._lock:
            existing = self._sessions.get(object_id)
            if existing is not None and not existing.is_closed:
                raise ValueError(f"object {object_id!r} already has a live session")
            session = StreamSession(
                self.annotator,
                object_id,
                self.store,
                window=window if window is not None else self.window,
                guard=guard if guard is not None else self.guard,
                exact=exact,
                keep_history=keep_history,
                on_finish=self._evict_session,
            )
            self._sessions[object_id] = session
            return session

    def _evict_session(self, session: StreamSession) -> None:
        with self._lock:
            if self._sessions.get(session.object_id) is session:
                del self._sessions[session.object_id]

    def get_session(self, object_id: str) -> Optional[StreamSession]:
        """The live session of one object, or None (finished sessions evict)."""
        with self._lock:
            session = self._sessions.get(object_id)
            return session if session is not None and not session.is_closed else None

    def live_sessions(self) -> List[StreamSession]:
        """The currently open sessions."""
        with self._lock:
            return [s for s in self._sessions.values() if not s.is_closed]

    def finish_all(self) -> List[MSemantics]:
        """Finish every live session; return everything that flushed.

        Safe against concurrent session churn: the snapshot is taken under
        the service lock and sessions that finish concurrently flush empty.
        """
        flushed: List[MSemantics] = []
        for session in self.live_sessions():
            flushed.extend(session.finish())
        return flushed

    # ----------------------------------------------------------------- batch
    def annotate_batch(
        self,
        sequences: Sequence[PositioningSequence],
        *,
        policy: Optional[ExecutionPolicy] = None,
    ) -> List[List[MSemantics]]:
        """Annotate complete p-sequences and publish them to the store.

        The batch counterpart of the streaming path — same store, same
        query surface — for backfilling historical traffic.  ``policy``
        defaults to the service-level :class:`ExecutionPolicy`; a process
        policy shards length buckets across the persistent worker pool
        (the annotator is broadcast through shared memory), which is how
        large backfills use every core.  Batched policies plan the batch
        once with :func:`repro.crf.batch.plan_batch` (identical sequences
        decode once; each duplicate publishes its own copy).  Results are
        published through a **chunked streaming gather**: each bucket's
        m-semantics land in the store as soon as that bucket finishes
        decoding, so queries see a long backfill progressively instead of
        after one big barrier.  Streaming sessions always decode
        in-process: their incremental windows are far too small to
        amortise inter-process dispatch.
        """
        executor = Executor(policy if policy is not None else self.policy)
        policy = executor.policy
        sequences = list(sequences)
        results: List[List[MSemantics]] = [[] for _ in sequences]
        if policy.batch:
            plan = plan_batch(sequences, policy)
            method, items = "annotate_bucket", plan.bucket_items()

            def landed(start: int, stop: int, chunk: list):
                return plan.fan_out(plan.buckets[start:stop], chunk)

        else:
            method, items = "annotate", sequences

            def landed(start: int, stop: int, chunk: list):
                return zip(range(start, stop), chunk)

        chunks = executor.map_broadcast_stream(self.annotator, method, items)
        for start, stop, chunk in chunks:
            # Decoding runs unlocked (it is pure compute); each completed
            # chunk's publishes are grouped under the service lock so they
            # land atomically with respect to enable/disable_index and
            # other batches.
            with self._lock:
                for position, entries in landed(start, stop, chunk):
                    results[position] = entries
                    self.store.publish(sequences[position].object_id, entries)
        return results

    # ---------------------------------------------------------- live queries
    def enable_index(self) -> SemanticsIndex:
        """Attach a live semantic-region index to this service's store.

        Subsequent ``query_*`` calls are answered from the index (updated on
        every publish, under the store's lock discipline) instead of a full
        scan; results stay bit-identical.  Idempotent.
        """
        with self._lock:
            return self.store.attach_index()

    def disable_index(self) -> None:
        """Detach the store's index; queries fall back to the linear scan."""
        with self._lock:
            self.store.detach_index()

    @property
    def index(self) -> Optional[SemanticsIndex]:
        """The store's live index, if enabled (None for sharded stores,
        which carry one index per shard instead of a single one)."""
        return getattr(self.store, "live_index", None)

    def query_popular_regions(
        self,
        k: int,
        *,
        query_regions: Optional[Set[int]] = None,
        start: Optional[float] = None,
        end: Optional[float] = None,
    ) -> List[Tuple[int, int]]:
        """TkPRQ over everything published so far (in-flight traffic included)."""
        query = TkPRQ(k, query_regions=query_regions, start=start, end=end)
        return query.evaluate(self.store)

    def query_frequent_pairs(
        self,
        k: int,
        *,
        query_regions: Optional[Set[int]] = None,
        start: Optional[float] = None,
        end: Optional[float] = None,
    ) -> List[Tuple[RegionPair, int]]:
        """TkFRPQ over everything published so far (in-flight traffic included)."""
        query = TkFRPQ(k, query_regions=query_regions, start=start, end=end)
        return query.evaluate(self.store)

    # Historical names, kept as thin delegates.
    popular_regions = query_popular_regions
    frequent_pairs = query_frequent_pairs

    # ----------------------------------------------------------- persistence
    def save(self, path: PathLike) -> None:
        """Write the trained model and service settings to a JSON file.

        Only C2MN-family annotators carry persistable weights; saving a
        service wrapping a baseline raises ``TypeError`` (baselines are
        parameter-light — refit them instead).
        """
        from repro.persistence.atomic import atomic_write_text
        from repro.persistence.serializers import annotator_to_dict

        payload = {
            "format": SERVICE_FORMAT,
            "window": self.window,
            "guard": self.guard,
            "policy": self.policy.to_dict(),
            "indexed": getattr(self.store, "is_indexed", False),
            "annotator": annotator_to_dict(self.annotator),
        }
        store_config = getattr(self.store, "to_config", None)
        if callable(store_config):
            payload["store"] = store_config()
        atomic_write_text(path, json.dumps(payload))

    @classmethod
    def load(
        cls,
        path: PathLike,
        space,
        *,
        oracle=None,
        store: Optional[SemanticsStore] = None,
        store_root: Optional[PathLike] = None,
    ) -> "AnnotationService":
        """Rebuild a service written by :meth:`save`.

        The indoor space is code, not data, so the caller supplies it.  The
        restored annotator carries the saved weights and config and decodes
        bitwise-identically to the one that was saved.  C2MN-family models
        round-trip this way; baselines are parameter-light and are simply
        refit instead.

        When the save file records a sharded store and no explicit
        ``store`` is passed, the same layout is rebuilt — and a durable
        layout *recovers*: each shard replays its snapshot + WAL tail, so a
        service that died mid-stream comes back with everything it had
        durably published.  ``store_root`` relocates the durability root
        (for save files that moved between machines).

        A file without a persisted policy, or whose policy names a backend
        that no longer exists, raises :class:`ValueError`.
        """
        from repro.persistence.serializers import annotator_from_dict

        payload = json.loads(Path(path).read_text())
        if payload.get("format") != SERVICE_FORMAT:
            raise ValueError(f"not an annotation-service file: {path}")
        if "policy" not in payload:
            raise ValueError(f"{path} predates execution policies (no 'policy' entry)")
        policy = ExecutionPolicy.from_dict(payload["policy"])
        annotator = annotator_from_dict(payload["annotator"], space, oracle=oracle)
        store_config = payload.get("store")
        if store is None and store_config is not None and store_config.get("kind") == "sharded":
            # Imported lazily: repro.store imports this package's store
            # module, so a top-level import would be circular.
            from repro.store import ShardedSemanticsStore

            store = ShardedSemanticsStore.from_config(store_config, root=store_root)
        return cls(
            annotator,
            store=store,
            window=payload.get("window", cls.DEFAULT_WINDOW),
            guard=payload.get("guard"),
            policy=policy,
            indexed=payload.get("indexed", False),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"AnnotationService({self.annotator.name!r}, window={self.window}, "
            f"objects={len(self.store)}, live={len(self.live_sessions())})"
        )
