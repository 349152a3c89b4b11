"""Process-sharded execution runtime.

The runtime layer is the one place batch work is parallelised.  It offers:

* :class:`ExecutionPolicy` — the one frozen value object describing *how*
  batch work executes (backend, workers, length-bucketed batching).
  Every batch surface in the codebase (the ``*_many`` protocol methods,
  the evaluation harness, the experiment runners, the service batch path
  and the bench CLI) accepts ``policy=``;
* :class:`Executor` — a backend-pluggable mapper (``"serial"``,
  ``"process"``) with contiguous dataset sharding, ordered result
  gathering, chunked streaming gather
  (:meth:`Executor.map_broadcast_stream`) and shared-memory model
  broadcast;
* the persistent-pool machinery (:mod:`repro.runtime.pool`) — one warm
  :class:`~concurrent.futures.ProcessPoolExecutor` per worker count for
  the life of the interpreter, with content-addressed shared-memory
  broadcast segments and :func:`shutdown_pools` for explicit teardown
  (also registered with :mod:`atexit`);
* the content fingerprints (:func:`fingerprint`,
  :func:`sequence_fingerprint`, :func:`space_fingerprint`) that key
  duplicate coalescing and the scenario catalogue.
"""

from repro.runtime.executor import (
    BACKEND_NAMES,
    Executor,
    resolve_backend,
    shard_indices,
    validate_workers,
)
from repro.runtime.fingerprint import (
    fingerprint,
    sequence_fingerprint,
    space_fingerprint,
)
from repro.runtime.policy import (
    DEFAULT_BUCKET_SIZE,
    ExecutionPolicy,
)
from repro.runtime.pool import (
    active_broadcast_epochs,
    active_pool_workers,
    shutdown_pools,
)

__all__ = [
    "BACKEND_NAMES",
    "DEFAULT_BUCKET_SIZE",
    "ExecutionPolicy",
    "Executor",
    "active_broadcast_epochs",
    "active_pool_workers",
    "fingerprint",
    "resolve_backend",
    "sequence_fingerprint",
    "shard_indices",
    "shutdown_pools",
    "space_fingerprint",
    "validate_workers",
]
