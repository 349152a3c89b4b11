"""Backend-pluggable parallel mapping with sharding and ordered gathering.

Two backends cover the execution regimes of this codebase:

``"serial"``
    A plain loop in the calling thread.  Zero overhead, always available,
    the default, and the reference semantics the process backend must
    reproduce exactly.
``"process"``
    A persistent :class:`~concurrent.futures.ProcessPoolExecutor` over
    contiguous shards of the input (see :mod:`repro.runtime.pool`).  The
    only backend that scales GIL-bound decoding across cores.  The target
    object (e.g. a fitted annotator) is broadcast through a content-
    addressed shared-memory segment: one pickle per distinct payload, one
    unpickle per worker — per-shard tasks ship only the items.

An :class:`Executor` is configured by an
:class:`~repro.runtime.policy.ExecutionPolicy`.

Every backend returns results in input order regardless of completion
order (:meth:`Executor.map_broadcast_stream` additionally exposes chunks
in *completion* order, tagged with their input position), and every
backend produces bit-identical results for deterministic functions — the
process backend merely moves the computation, it never changes it
(asserted by the protocol conformance suite).
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (policy imports us)
    from repro.runtime.policy import ExecutionPolicy

ItemT = TypeVar("ItemT")
ResultT = TypeVar("ResultT")

#: Valid values of :attr:`ExecutionPolicy.backend`.
BACKEND_NAMES: Tuple[str, str] = ("serial", "process")

#: Shards per worker for the process backend.  More shards than workers
#: smooths imbalance between shards (sequences differ in length) while the
#: once-per-pool broadcast keeps the per-shard overhead to the items alone.
_SHARDS_PER_WORKER = 4


def validate_workers(workers: Optional[int]) -> int:
    """Normalise and validate a ``workers`` argument.

    ``None`` means "no parallelism requested" and normalises to 1.  Any
    explicit value below 1 is rejected — uniformly, before any work-size
    fast path, so ``workers=0`` fails the same way for empty, single-item
    and large batches.
    """
    if workers is None:
        return 1
    if not isinstance(workers, int) or isinstance(workers, bool):
        raise TypeError(f"workers must be an int or None, got {workers!r}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    return workers


def resolve_backend(backend: str) -> str:
    """Validate a ``backend`` name against :data:`BACKEND_NAMES`."""
    if backend not in BACKEND_NAMES:
        raise ValueError(f"backend must be one of {BACKEND_NAMES}, got {backend!r}")
    return backend


def shard_indices(n_items: int, shards: int) -> List[Tuple[int, int]]:
    """Split ``range(n_items)`` into at most ``shards`` contiguous slices.

    Returns ``(start, stop)`` pairs that cover the range exactly once, in
    order, with sizes differing by at most one (the first ``n_items %
    shards`` shards get the extra item).  Empty input yields no shards.
    """
    if shards < 1:
        raise ValueError(f"shards must be at least 1, got {shards}")
    shards = min(shards, n_items)
    bounds: List[Tuple[int, int]] = []
    start = 0
    for k in range(shards):
        size = n_items // shards + (1 if k < n_items % shards else 0)
        bounds.append((start, start + size))
        start += size
    return bounds


class Executor:
    """Maps an object's method over datasets through a selectable backend.

    An :class:`Executor` is cheap to construct: it is a thin view over an
    :class:`~repro.runtime.policy.ExecutionPolicy` (serial by default;
    anything else raises :class:`TypeError`).
    The serial backend holds no state between calls; the process backend
    borrows the interpreter-wide persistent pool from
    :mod:`repro.runtime.pool`, so repeated batches reuse warm workers —
    call :func:`repro.runtime.pool.shutdown_pools` to reclaim them early,
    or let the :mod:`atexit` hook do it.

    A worker count of ``None`` or 1 runs serially whatever the backend
    (there is nothing to fan out).
    """

    def __init__(self, policy: Optional["ExecutionPolicy"] = None):
        from repro.runtime.policy import ExecutionPolicy

        if policy is None:
            policy = ExecutionPolicy()
        elif not isinstance(policy, ExecutionPolicy):
            raise TypeError(f"policy must be an ExecutionPolicy, got {policy!r}")
        self.policy = policy

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Executor(policy={self.policy!r})"

    # ------------------------------------------------------------- execution
    def _effective_workers(self, n_items: int) -> int:
        if self.policy.backend == "serial":
            return 1
        return max(1, min(self.policy.effective_workers, n_items))

    def map_broadcast(
        self,
        obj: Any,
        method: str,
        items: Sequence[ItemT],
        **kwargs: Any,
    ) -> List[ResultT]:
        """Map ``getattr(obj, method)(item, **kwargs)`` over ``items``.

        The workhorse of the batch annotation paths.  For the process
        backend, ``obj`` (typically a fitted annotator), the method name
        and the keyword arguments are published to a shared-memory
        broadcast segment **once per distinct payload**; per-shard tasks
        carry only their slice of ``items`` and warm workers cache the
        unpickled object across calls.  Results keep input order.
        """
        items = list(items)
        results: List[ResultT] = [None] * len(items)  # type: ignore[list-item]
        for start, stop, chunk in self.map_broadcast_stream(
            obj, method, items, **kwargs
        ):
            results[start:stop] = chunk
        return results

    def map_broadcast_stream(
        self,
        obj: Any,
        method: str,
        items: Sequence[ItemT],
        **kwargs: Any,
    ) -> Iterator[Tuple[int, int, List[ResultT]]]:
        """Stream ``map_broadcast`` results chunk by chunk as they finish.

        Yields ``(start, stop, results)`` triples where ``results`` covers
        ``items[start:stop]``.  Chunks arrive in *completion* order (input
        order under the serial backend), so a consumer can publish partial
        results while later shards are still computing — the chunked
        streaming gather behind :meth:`AnnotationService.annotate_batch`.
        Every input position is covered exactly once.
        """
        # Validate eagerly (this is not a generator function) so typos and
        # bad arguments surface at the call, before any pool spins up.
        call = getattr(obj, method)
        items = list(items)
        return self._stream(call, obj, method, items, kwargs)

    def _stream(
        self,
        call: Callable[..., ResultT],
        obj: Any,
        method: str,
        items: List[ItemT],
        kwargs: dict,
    ) -> Iterator[Tuple[int, int, List[ResultT]]]:
        if not items:
            return
        workers = self._effective_workers(len(items))
        bounds = shard_indices(len(items), workers * _SHARDS_PER_WORKER)
        if workers == 1:
            for start, stop in bounds:
                yield start, stop, [call(items[i], **kwargs) for i in range(start, stop)]
            return
        from repro.runtime import pool as pool_mod

        shards = [items[start:stop] for start, stop in bounds]
        for index, shard_result in pool_mod.iter_broadcast_shards(
            obj, method, kwargs, shards, workers=workers
        ):
            start, stop = bounds[index]
            yield start, stop, shard_result

