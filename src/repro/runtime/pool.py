"""Persistent process pools with shared-memory model broadcast.

Spawning a pool and shipping the pickled annotator on every call would
cost more than the decode on small batches, so the process backend keeps
both as persistent state:

* **Pools persist.**  :func:`get_pool` keeps one pool per worker count
  alive for the life of the interpreter; repeated batch calls reuse warm
  workers instead of paying spawn + import per call.
* **Broadcasts are content-addressed shared memory.**  The pickled
  ``(obj, method, kwargs)`` payload is written once into a
  :class:`multiprocessing.shared_memory.SharedMemory` segment keyed by its
  content digest (the *epoch*).  Tasks carry only ``(epoch, name, size)``;
  each worker attaches the segment, unpickles once, and caches the result
  by epoch — so N calls with the same fitted annotator unpickle it once
  per worker, not once per call, and the payload bytes never travel
  through the task pipe at all.

Lifecycle is a first-class concern (nothing may leak ``/dev/shm``
segments or zombie workers):

* :func:`shutdown_pools` tears everything down — it runs on interpreter
  exit via :mod:`atexit` and may be called any time to reclaim resources;
* a :class:`~concurrent.futures.process.BrokenProcessPool` (worker
  crashed or was OOM-killed) disposes the broken pool and the failed
  call's broadcast segment before the error propagates, so a failed run
  cleans up after itself and the next call starts fresh;
* worker-side attachments read the payload through raw ``shm_open`` +
  ``mmap`` (never touching the :mod:`multiprocessing.resource_tracker`,
  which fork-mode workers share with the parent), so only the parent
  ever tracks or unlinks a segment.
"""

from __future__ import annotations

import atexit
import hashlib
import pickle
import threading
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import shared_memory
from typing import Any, Callable, Dict, List, Sequence, Tuple

#: Maximum distinct broadcast payloads kept alive at once.  Two covers the
#: common A/B pattern (e.g. comparing two fitted annotators) without letting
#: a sweep over many models accumulate segments.
_MAX_BROADCASTS = 2


class SharedBroadcast:
    """One pickled payload living in a parent-owned shared-memory segment."""

    def __init__(self, epoch: str, payload: bytes):
        self.epoch = epoch
        self.size = len(payload)
        self._shm = shared_memory.SharedMemory(create=True, size=max(1, self.size))
        self._shm.buf[: self.size] = payload

    @property
    def name(self) -> str:
        return self._shm.name

    def handle(self) -> Tuple[str, str, int]:
        """The ``(epoch, segment name, payload size)`` triple tasks carry."""
        return (self.epoch, self._shm.name, self.size)

    def destroy(self) -> None:
        """Close and unlink the segment (idempotent)."""
        try:
            self._shm.close()
        except Exception:
            pass
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass
        except Exception:
            pass


# Parent-side registries, guarded by one lock: worker-count -> pool and
# epoch -> broadcast segment (insertion-ordered for LRU eviction).
_LOCK = threading.Lock()
_POOLS: Dict[int, ProcessPoolExecutor] = {}
_BROADCASTS: Dict[str, SharedBroadcast] = {}


def _payload_epoch(payload: bytes) -> str:
    return hashlib.blake2b(payload, digest_size=16).hexdigest()


def publish_broadcast(obj: Any, method: str, kwargs: Dict[str, Any]) -> Tuple[str, str, int]:
    """Place ``(obj, method, kwargs)`` in shared memory; return its handle.

    Content-addressed: publishing the same logical payload twice reuses the
    existing segment (one pickle, zero new segments).  At most
    :data:`_MAX_BROADCASTS` segments are kept; older ones are unlinked —
    workers re-attach lazily if an evicted epoch comes back.
    """
    payload = pickle.dumps((obj, method, kwargs))
    epoch = _payload_epoch(payload)
    with _LOCK:
        existing = _BROADCASTS.get(epoch)
        if existing is not None:
            # Re-insert to refresh LRU order.
            _BROADCASTS.pop(epoch)
            _BROADCASTS[epoch] = existing
            return existing.handle()
        broadcast = SharedBroadcast(epoch, payload)
        _BROADCASTS[epoch] = broadcast
        while len(_BROADCASTS) > _MAX_BROADCASTS:
            oldest = _BROADCASTS.pop(next(iter(_BROADCASTS)))
            oldest.destroy()
        return broadcast.handle()


def get_pool(workers: int) -> ProcessPoolExecutor:
    """The persistent process pool for ``workers``, created on first use."""
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    with _LOCK:
        pool = _POOLS.get(workers)
        if pool is None:
            pool = ProcessPoolExecutor(max_workers=workers)
            _POOLS[workers] = pool
        return pool


def discard_pool(workers: int) -> None:
    """Shut down and forget the pool for ``workers`` (no-op when absent)."""
    with _LOCK:
        pool = _POOLS.pop(workers, None)
    if pool is not None:
        pool.shutdown(wait=True, cancel_futures=True)


def active_pool_workers() -> List[int]:
    """Worker counts with a live persistent pool (introspection for tests)."""
    with _LOCK:
        return sorted(_POOLS)


def active_broadcast_epochs() -> List[str]:
    """Epochs with a live shared-memory segment (introspection for tests)."""
    with _LOCK:
        return list(_BROADCASTS)


def shutdown_pools() -> None:
    """Tear down every persistent pool and unlink every broadcast segment.

    Registered with :mod:`atexit`; also the explicit "release the cores and
    /dev/shm now" API for long-lived services.  Safe to call repeatedly —
    pools and segments recreate lazily on the next use.
    """
    with _LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
        broadcasts = list(_BROADCASTS.values())
        _BROADCASTS.clear()
    for pool in pools:
        try:
            pool.shutdown(wait=True, cancel_futures=True)
        except Exception:
            pass
    for broadcast in broadcasts:
        broadcast.destroy()


atexit.register(shutdown_pools)


def iter_broadcast_shards(
    obj: Any,
    method: str,
    kwargs: Dict[str, Any],
    shards: Sequence[Sequence[Any]],
    *,
    workers: int,
):
    """Yield ``(shard_index, results)`` pairs in *completion* order.

    The streaming workhorse behind the process backend: the target object
    is published to shared memory once (per content epoch), each shard
    becomes one task carrying only its items on the persistent pool for
    ``workers``, and finished shards are yielded as soon as they land —
    no barrier across the whole batch.
    """
    handle = publish_broadcast(obj, method, kwargs)
    pool = get_pool(workers)
    futures = {
        pool.submit(_run_shard, handle, list(shard)): index
        for index, shard in enumerate(shards)
    }
    try:
        for future in as_completed(futures):
            yield futures[future], future.result()
    except BrokenProcessPool:
        # A worker died (crash, OOM kill, os._exit).  Dispose of the
        # broken pool and the call's broadcast segment *before*
        # propagating, so nothing leaks out of the failed run.
        discard_pool(workers)
        _destroy_broadcast(handle[0])
        raise


def run_broadcast_shards(
    obj: Any,
    method: str,
    kwargs: Dict[str, Any],
    shards: Sequence[Sequence[Any]],
    *,
    workers: int,
) -> List[List[Any]]:
    """Gathering wrapper over :func:`iter_broadcast_shards` (shard order)."""
    results: List[List[Any]] = [[] for _ in shards]
    for index, shard_result in iter_broadcast_shards(
        obj, method, kwargs, shards, workers=workers
    ):
        results[index] = shard_result
    return results


def _destroy_broadcast(epoch: str) -> None:
    with _LOCK:
        broadcast = _BROADCASTS.pop(epoch, None)
    if broadcast is not None:
        broadcast.destroy()


# --------------------------------------------------------------------------
# Worker-side plumbing.  One cache entry per broadcast epoch: the first task
# of an epoch attaches the segment, unpickles, closes the attachment and
# caches the bound call; every later task of that epoch is a dict hit.
# --------------------------------------------------------------------------
_WORKER_CACHE: Dict[str, Tuple[Callable, Dict[str, Any]]] = {}


def _attach_payload(name: str, size: int) -> bytes:
    """Read a broadcast payload out of shared memory without tracking it.

    The attachment must stay invisible to the :mod:`multiprocessing`
    resource tracker: under the ``fork`` start method workers share the
    parent's tracker, so a worker-side register (Python < 3.13 auto-tracks
    attachments) or unregister would corrupt the parent's bookkeeping of
    the segment it owns.  On POSIX the payload is therefore read through
    the raw ``shm_open``/``mmap`` calls; elsewhere the
    :class:`~multiprocessing.shared_memory.SharedMemory` attachment is
    used with ``track=False`` where available.  Only the parent ever
    unlinks.
    """
    if size == 0:
        return b""
    try:
        import _posixshmem  # POSIX-only CPython accelerator module
    except ImportError:
        _posixshmem = None
    if _posixshmem is not None:
        import mmap
        import os

        fd = _posixshmem.shm_open("/" + name, os.O_RDONLY, mode=0o600)
        try:
            with mmap.mmap(fd, size, prot=mmap.PROT_READ) as view:
                return bytes(view[:size])
        finally:
            os.close(fd)
    try:
        shm = shared_memory.SharedMemory(name=name, track=False)  # type: ignore[call-arg]
    except TypeError:  # Python < 3.13: no track= parameter
        shm = shared_memory.SharedMemory(name=name)
    try:
        return bytes(shm.buf[:size])
    finally:
        shm.close()


def _run_shard(handle: Tuple[str, str, int], items: List[Any]) -> List[Any]:
    """Execute one shard inside a worker against the cached broadcast."""
    epoch, name, size = handle
    cached = _WORKER_CACHE.get(epoch)
    if cached is None:
        obj, method, kwargs = pickle.loads(_attach_payload(name, size))
        cached = (getattr(obj, method), kwargs)
        while len(_WORKER_CACHE) >= _MAX_BROADCASTS:  # keep worker memory flat
            _WORKER_CACHE.pop(next(iter(_WORKER_CACHE)))
        _WORKER_CACHE[epoch] = cached
    call, kwargs = cached
    return [call(item, **kwargs) for item in items]
