"""The execution policy shared by every batch surface.

Every batch entry point in the codebase — the ``*_many`` protocol
methods, the evaluation harness, the experiment runners, the service
batch path, the fuzz oracles and the bench CLI — takes one frozen
:class:`ExecutionPolicy` describing *how* batch work executes:

``backend`` / ``workers``
    The execution backend (:data:`repro.runtime.executor.BACKEND_NAMES`)
    and its fan-out width.
``batch``
    Whether ``*_many`` calls route through the length-bucketed batch
    decoder (:mod:`repro.crf.batch`).  Batching coalesces bitwise-identical
    sequences so duplicated traffic is decoded once, then groups the
    distinct ones into buckets of at most :data:`DEFAULT_BUCKET_SIZE`
    similar-length sequences so one dispatch covers a whole bucket.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any, Dict, Optional

from repro.runtime.executor import resolve_backend, validate_workers

#: Sequences per length bucket.  Large enough that the tiny/small
#: workloads fit in a handful of buckets (amortising dispatch); parallel
#: runs shrink it so every worker gets several buckets to balance
#: (:meth:`ExecutionPolicy.effective_bucket_size`).
DEFAULT_BUCKET_SIZE = 32


@dataclass(frozen=True)
class ExecutionPolicy:
    """How batch annotation work executes, as one immutable value.

    The default is serial, batched execution.
    """

    backend: str = "serial"
    workers: Optional[int] = None
    batch: bool = True

    def __post_init__(self):
        resolve_backend(self.backend)
        validate_workers(self.workers)
        if not isinstance(self.batch, bool):
            raise TypeError(f"batch must be a bool, got {self.batch!r}")

    # ---------------------------------------------------------- constructors
    @classmethod
    def serial(cls, **overrides: Any) -> "ExecutionPolicy":
        """A strictly in-process, single-worker policy."""
        return cls(backend="serial", workers=None, **overrides)

    @classmethod
    def processes(cls, workers: int, **overrides: Any) -> "ExecutionPolicy":
        """A process-pool policy with ``workers`` worker processes."""
        return cls(backend="process", workers=workers, **overrides)

    # -------------------------------------------------------------- accessors
    @property
    def effective_workers(self) -> int:
        """The normalised worker count (``None`` means 1)."""
        return validate_workers(self.workers)

    def effective_bucket_size(self, n_items: int) -> int:
        """The bucket cap actually used for a batch of ``n_items``.

        Serial and single-worker runs use :data:`DEFAULT_BUCKET_SIZE` —
        bigger buckets mean less dispatch overhead.  Parallel runs shrink
        the cap so the batch splits into enough buckets to keep every
        worker busy (matching the executor's shards-per-worker fan-out).
        """
        from repro.runtime.executor import _SHARDS_PER_WORKER

        workers = self.effective_workers
        if workers <= 1 or self.backend == "serial" or n_items <= 1:
            return DEFAULT_BUCKET_SIZE
        balanced = -(-n_items // (workers * _SHARDS_PER_WORKER))  # ceil div
        return max(1, min(DEFAULT_BUCKET_SIZE, balanced))

    def with_(self, **changes: Any) -> "ExecutionPolicy":
        """A copy with the given fields replaced (validation re-runs)."""
        return replace(self, **changes)

    # ------------------------------------------------------------ persistence
    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serialisable mapping (inverse of :meth:`from_dict`)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ExecutionPolicy":
        """Rebuild a policy from :meth:`to_dict` output.

        Unknown keys are ignored so files that carry retired fields still
        load; missing keys take the field default.  A backend that no
        longer exists raises :class:`ValueError` naming the valid ones.
        """
        known = {f.name for f in fields(cls)}
        return cls(**{key: value for key, value in payload.items() if key in known})


__all__ = [
    "DEFAULT_BUCKET_SIZE",
    "ExecutionPolicy",
]
