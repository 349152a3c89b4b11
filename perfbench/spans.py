"""In-memory span recorder for the traced benchmark run.

The recorder wraps public functions of the program at the names their
callers look up (a module global such as ``repro.core.annotator.decode_icm``
or a class attribute such as ``FeatureExtractor.prepare``).  Each call
records one span ``(name, start, end, parent, root, size)`` into a list
owned by the calling thread; the parent is the innermost open span of the
same thread and the root id is shared by every span under one outermost
span.  Nothing is written until :meth:`Tracer.dump` at the end of the run.

A layer's self time is its span's duration minus the part of that
interval its child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: One recorded span: (name, start, end, parent index or -1, root id, size).
Span = Tuple[str, float, float, int, int, int]


class _ThreadLog:
    def __init__(self, thread_index: int):
        self.thread_index = thread_index
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.counts: Dict[str, int] = {}
        self.roots = 0


class Tracer:
    """Per-thread span lists plus exact call counters."""

    def __init__(self):
        self._local = threading.local()
        self._logs: List[_ThreadLog] = []
        self._guard = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            with self._guard:
                log = _ThreadLog(len(self._logs))
                self._logs.append(log)
            self._local.log = log
        return log

    # ------------------------------------------------------------ wrapping
    def span(self, name: str, func: Callable, size: Optional[Callable] = None,
             when: Optional[Callable] = None) -> Callable:
        """``func`` wrapped to record one span per call.

        ``size(*args, **kwargs)`` gives the span's work count (records
        prepared, sequences per batch, ...); it defaults to 0.  With
        ``when``, only calls for which ``when(*args, **kwargs)`` is true
        are recorded.
        """
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if when is not None and not when(*args, **kwargs):
                return func(*args, **kwargs)
            log = tracer._log()
            parent = log.stack[-1] if log.stack else -1
            if parent < 0:
                log.roots += 1
                root = log.thread_index << 32 | log.roots
            else:
                root = log.spans[parent][4]
            entry = [name, 0.0, 0.0, parent, root, size(*args, **kwargs) if size else 0]
            log.spans.append(entry)
            log.stack.append(len(log.spans) - 1)
            entry[1] = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                entry[2] = time.perf_counter()
                log.stack.pop()

        return wrapper

    def counter(self, name: str, func: Callable) -> Callable:
        """``func`` wrapped to count its calls without recording spans."""
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            counts = tracer._log().counts
            counts[name] = counts.get(name, 0) + 1
            return func(*args, **kwargs)

        return wrapper

    def patch(self, owner, attribute: str, wrapper: Callable) -> None:
        """Replace ``owner.attribute`` (a module or class) by ``wrapper``."""
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, wrapper)

    def unpatch(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------- results
    def spans(self) -> List[Span]:
        """Every span of every thread, parent indices made global."""
        merged: List[Span] = []
        with self._guard:
            logs = list(self._logs)
        for log in logs:
            base = len(merged)
            for name, start, end, parent, root, size in log.spans:
                merged.append(
                    (name, start, end, parent + base if parent >= 0 else -1, root, size)
                )
        return merged

    def counts(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        with self._guard:
            logs = list(self._logs)
        for log in logs:
            for name, value in log.counts.items():
                totals[name] = totals.get(name, 0) + value
        return totals

    def dump(self, path) -> None:
        """Write the spans and counters as one JSON document."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans(), "counts": self.counts()}, handle)


def covered_length(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(start, lo), min(end, hi)) for start, end in intervals if end > lo and start < hi
    )
    total = 0.0
    cursor = lo
    for start, end in clipped:
        if end <= cursor:
            continue
        total += end - max(start, cursor)
        cursor = end
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for name, start, end, parent, root, size in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    result = []
    for index, (name, start, end, parent, root, size) in enumerate(spans):
        covered = covered_length(children.get(index, ()), start, end)
        result.append(max(0.0, end - start - covered))
    return result


def summarise(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, summed self and total time (s), summed size."""
    table: Dict[str, Dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        row = table.setdefault(span[0], {"calls": 0, "self_s": 0.0, "total_s": 0.0, "size": 0})
        row["calls"] += 1
        row["self_s"] += own
        row["total_s"] += span[2] - span[1]
        row["size"] += span[5]
    return table


def _attr(path: str):
    module_name, _, attribute = path.rpartition(":")
    owner = importlib.import_module(module_name)
    for part in attribute.split(".")[:-1]:
        owner = getattr(owner, part)
    return owner, attribute.split(".")[-1]


def _length(_self, sequence, *args, **kwargs) -> int:
    return len(sequence)


def _one(*args, **kwargs) -> int:
    return 1


def _second_length(_model, datas, *args, **kwargs) -> int:
    return len(datas)


def _unbuilt(_self, data, *args, **kwargs) -> bool:
    return data.potentials is None


def _entries(_self, _seq, _op, _object_id, entries=None, **kwargs) -> int:
    return len(entries) if entries is not None else 0


#: ``module:Owner.attribute`` -> (span name, size function[, condition]).
#: Module-level names are patched where the caller looks them up, not
#: where they are defined.
SPANS: Dict[str, tuple] = {
    # net: the wire format as the server's handlers call it
    "repro.net.server:record_from_wire": ("net.wire_decode", None),
    "repro.net.server:sequence_from_wire": ("net.wire_decode", None),
    "repro.net.server:parse_query_params": ("net.wire_decode", None),
    "repro.net.server:semantics_to_wire": ("net.wire_encode", None),
    "repro.net.server:regions_to_wire": ("net.wire_encode", None),
    "repro.net.server:pairs_to_wire": ("net.wire_encode", None),
    # service: sessions, batch, queries
    "repro.service.session:StreamSession.extend": ("service.extend", None),
    "repro.service.session:StreamSession.finish": ("service.finish", None),
    "repro.service.service:AnnotationService.annotate_batch": ("service.annotate_batch", None),
    "repro.service.service:AnnotationService.query_popular_regions": ("service.query", None),
    "repro.service.service:AnnotationService.query_frequent_pairs": ("service.query", None),
    # crf: prepare -> tables -> ICM
    "repro.crf.features:FeatureExtractor.prepare": ("crf.prepare", _length),
    # potential_tables returns a cached table after the first call per
    # sequence; only the calls that build one are spans.
    "repro.crf.features:FeatureExtractor.potential_tables": ("crf.tables", None, _unbuilt),
    "repro.core.annotator:decode_icm": ("crf.icm", _one),
    "repro.core.annotator:decode_icm_many": ("crf.icm", _second_length),
    # queries
    "repro.queries.tkprq:TkPRQ.evaluate": ("queries.tkprq", None),
    "repro.queries.tkfrpq:TkFRPQ.evaluate": ("queries.tkfrpq", None),
    # store: publish, WAL, snapshots; index
    "repro.store.sharded:ShardedSemanticsStore.publish": ("store.publish", None),
    "repro.store.sharded:ShardedSemanticsStore.flush": ("store.flush", None),
    "repro.service.store:SemanticsStore.publish": ("store.memory_publish", None),
    "repro.store.wal:ShardLog.append": ("store.wal_append", _entries),
    "repro.store.wal:ShardLog.sync": ("store.wal_sync", None),
    "repro.store.wal:ShardLog.write_snapshot": ("store.snapshot", None),
    "repro.index.engine:SemanticsIndex.add": ("index.add", None),
}

#: Hot calls that are counted, not spanned.
COUNTERS: Dict[str, str] = {
    "repro.crf.engine:VectorizedEngine.best_label": "crf.icm_node_updates",
    "repro.core.annotator:C2MNAnnotator.predict_labels": "core.predict_labels_calls",
}


def install(tracer: Tracer) -> Tracer:
    """Wrap every function of :data:`SPANS` and :data:`COUNTERS`."""
    for path, (name, size, *when) in SPANS.items():
        owner, attribute = _attr(path)
        tracer.patch(owner, attribute, tracer.span(name, owner.__dict__[attribute], size, *when))
    for path, name in COUNTERS.items():
        owner, attribute = _attr(path)
        tracer.patch(owner, attribute, tracer.counter(name, owner.__dict__[attribute]))
    return tracer


def wal_bytes(tracer: Tracer) -> Callable[[], int]:
    """Count bytes appended to shard WALs (from the file offsets)."""
    from repro.store.wal import ShardLog

    total = [0]
    lock = threading.Lock()
    traced_append = ShardLog.__dict__["append"]

    @functools.wraps(traced_append)
    def append(self, *args, **kwargs):
        if self._handle is not None:
            before = self._handle.tell()
        else:
            before = self.wal_path.stat().st_size if self.wal_path.exists() else 0
        result = traced_append(self, *args, **kwargs)
        with lock:
            total[0] += self._handle.tell() - before
        return result

    tracer.patch(ShardLog, "append", append)
    return lambda: total[0]
