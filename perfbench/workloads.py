"""The benchmark workloads.

Each ``run_*`` function makes its inputs from the workload seed, measures
for the given number of seconds, checks the program's outputs and returns
a :class:`Run`.  ``trace=True`` wraps the layers' public functions while
the run measures (see :mod:`spans`) and keeps their spans.

The HTTP workloads drive a server in its own process
(:class:`client.ServerProcess`) over two keep-alive connections;
store-durable drives a durable sharded store in this process from one
closed loop.
"""

from __future__ import annotations

import asyncio
import dataclasses
import gc
import itertools
import json
import os
import random
import shutil
import statistics
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple
from urllib.parse import quote

from client import REQUEST_TIMEOUT, Connection, ServerProcess, close_pool, open_pool
from spans import Tracer, install, wal_bytes
from stats import cpu_seconds, due_latency, memory_mb

#: serve-mixed's keep-alive connections: ``nproc``, at most 2.
PARALLEL = min(2, os.cpu_count() or 1)

#: serve-mixed: fixed offered rate (ops/s), about half the 18.5 ops/s
#: capacity measured on a 2-core machine when the benchmark was defined.
SERVE_RATE = 9.0
#: serve-mixed: objects of the scaled-up mall-tiny spec (half held out),
#: enough that no annotate body repeats within a run.
SERVE_OBJECTS = 128

#: stream-sessions: objects of the scaled-up spec (half held out).
STREAM_OBJECTS = 64
#: stream-sessions: records one session streams, a consecutive piece of a
#: held-out sequence.  Per-record decode cost differs between sequences by
#: up to 2x, so a run streams many short sessions rather than a few long
#: ones: its cost is then an average over many sequences, not a draw of a
#: few.  The first 48 records of a session fill the decode window.
STREAM_SESSION_RECORDS = 96
#: stream-sessions: ground-truth objects pre-loaded into the store.
STREAM_HISTORY = 12
#: stream-sessions: reads per second, sent on a fixed schedule.  Reads sent
#: back to back took an unsteady share of the server's interpreter lock
#: from the pushes; a fixed rate makes their share the same in every run.
STREAM_READ_RATE = 4.0

#: backfill-http: distinct sequences per annotate request.
BACKFILL_BATCH = 2
#: backfill-http: objects of the scaled-up spec the sequences come from.
BACKFILL_OBJECTS = 320

#: store-durable: synthetic objects, and how many are published before the run.
STORE_SCALE = "small"
STORE_PRELOAD = 10_000
#: store-durable: objects one write publishes before it waits for them to
#: be durable.
STORE_PUBLISHES_PER_WRITE = 10
#: store-durable: writes between two reads.
STORE_WRITES_PER_READ = 15
#: store-durable: k of the queries one read evaluates.
STORE_READ_K = 10

#: Times the program is set up per run; setup_s is their median.  A
#: server start takes seconds; a store reopen under a second and varies
#: more, so it is repeated more often.
SETUP_REPEATS = 3
STORE_SETUP_REPEATS = 7

#: A generator running later than this behind schedule invalidates a run.
LAG_LIMIT_S = 0.05

_HTTP_ERRORS = (ConnectionError, OSError, asyncio.TimeoutError, ValueError)


@dataclasses.dataclass
class Sample:
    """One operation: its kind, when it was due and done, and its outcome."""

    kind: str
    due: float
    done: float
    ok: bool
    items: int = 0

    @property
    def latency(self) -> float:
        return due_latency(self.due, self.done)


@dataclasses.dataclass
class Run:
    """What one workload run measured and checked."""

    workload: str
    samples: List[Sample]
    window_s: float
    checks: Dict[str, bool]
    write_kind: Tuple[str, ...]
    read_kind: Tuple[str, ...] = ("popular", "pairs")
    setup_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    lags: List[float] = dataclasses.field(default_factory=list)
    rss_samples: List[float] = dataclasses.field(default_factory=list)
    handler_ms: Dict[str, float] = dataclasses.field(default_factory=dict)
    sent: Dict[str, int] = dataclasses.field(default_factory=dict)
    repeated_share: float = 0.0
    spans: Optional[list] = None
    counts: Dict[str, int] = dataclasses.field(default_factory=dict)
    wal_bytes: int = 0

    @property
    def attempted(self) -> int:
        return len(self.samples)

    @property
    def failed(self) -> int:
        return sum(1 for sample in self.samples if not sample.ok)

    @property
    def items(self) -> int:
        """Records (HTTP) or m-semantics entries (store) acknowledged."""
        return sum(s.items for s in self.samples if s.ok)

    def latencies_ms(self, kinds) -> List[float]:
        return [s.latency * 1000.0 for s in self.samples if s.kind in kinds and s.ok]


# ------------------------------------------------------------------ shared
def _scaled_mall(objects: int, seed: int):
    """mall-tiny scaled to ``objects`` objects, materialised under ``seed``."""
    from repro.scenarios.registry import get_scenario

    return dataclasses.replace(get_scenario("mall-tiny"), objects=objects).materialize(seed)


def _split_with_history(scenario):
    """The held-out half, and the other half's ground truth as store history."""
    from repro.core.merge import merge_record_labels
    from repro.mobility.dataset import train_test_split
    from repro.persistence.serializers import semantics_to_dicts

    train, test = train_test_split(scenario.dataset, train_fraction=0.5, seed=5)
    history = [
        [f"history/{labeled.object_id}",
         semantics_to_dicts(merge_record_labels(
             labeled.sequence, labeled.region_labels, labeled.event_labels))]
        for labeled in train.sequences
    ]
    return test, history


def _median_setup(start, repeats: int = SETUP_REPEATS) -> Tuple[float, object]:
    """Set up ``repeats`` times; keep the last, return the median time."""
    times = []
    for attempt in range(repeats):
        handle = start()
        times.append(handle.setup_seconds)
        if attempt < repeats - 1:
            handle.stop()
    return statistics.median(times), handle


def _means(snapshot) -> Dict[str, float]:
    """Mean handler latency per endpoint from a ``/metrics`` snapshot."""
    means = {}
    for endpoint, histogram in snapshot.get("latency_ms", {}).items():
        count = sum(histogram["counts"])
        means[endpoint] = histogram["sum"] / count if count else 0.0
    return means


def _query_path(position: int) -> Tuple[str, str]:
    """The ``position``-th read: alternating TkPRQ / TkFRPQ at cycling k."""
    kind = "popular" if position % 2 == 0 else "pairs"
    endpoint = "popular-regions" if kind == "popular" else "frequent-pairs"
    return kind, f"/v1/queries/{endpoint}?k={(1, 5, 10)[position // 2 % 3]}"


async def _send(pool, method: str, path: str, body: Optional[bytes] = None):
    """One request on a pooled connection; a broken connection is replaced."""
    connection = await pool.get()
    try:
        return await asyncio.wait_for(connection.request(method, path, body), REQUEST_TIMEOUT)
    except _HTTP_ERRORS:
        await connection.close()
        connection = await Connection.open(connection.host, connection.port)
        raise
    finally:
        pool.put_nowait(connection)


async def _sample_rss(pid: int, into: List[float], period: float = 0.25) -> None:
    while True:
        into.append(memory_mb(pid)["rss"])
        await asyncio.sleep(period)


def _http_run(workload: str, traffic: Callable, *, trace: bool, workdir: Path,
              history: Optional[list] = None, **fields) -> Run:
    """Start the server, run ``traffic(port)`` against it, read /proc and spans.

    ``traffic`` is a coroutine function returning ``(samples, window_s,
    checks, extras)``; ``extras`` may set any other :class:`Run` field.
    """
    history_path = None
    if history is not None:
        history_path = workdir / "history.json"
        history_path.write_text(json.dumps(history))
    trace_path = workdir / f"{workload}-spans.json" if trace else None

    def start():
        return ServerProcess(history=history_path, trace=trace_path)

    setup_s, server = (0.0, start()) if trace else _median_setup(start)
    rss: List[float] = []
    with server:
        cpu_before = server.cpu_seconds()

        async def drive():
            sampler = asyncio.ensure_future(_sample_rss(server.pid, rss))
            try:
                return await traffic(server.port)
            finally:
                sampler.cancel()
                try:
                    await sampler
                except asyncio.CancelledError:
                    pass

        samples, window, checks, extras = asyncio.run(drive())
        cpu = server.cpu_seconds() - cpu_before
        peak = server.memory_mb()["hwm"]
    run = Run(workload=workload, samples=samples, window_s=window, checks=checks,
              setup_s=setup_s, cpu_s=cpu, peak_rss_mb=peak, rss_samples=rss,
              **fields, **extras)
    if trace_path is not None:
        document = json.loads(trace_path.read_text())
        run.spans, run.counts = document["spans"], document["counts"]
    return run


async def _finish_checks(connection: Connection, pushed: Dict[str, int],
                         counted: Dict[str, int]) -> Tuple[Dict[str, bool], dict]:
    """Session bookkeeping checks, and the server's own /metrics."""
    status, health = await asyncio.wait_for(
        connection.request("GET", "/healthz"), REQUEST_TIMEOUT)
    _, snapshot = await asyncio.wait_for(
        connection.request("GET", "/metrics"), REQUEST_TIMEOUT)
    checks = {
        "record_counts_match": bool(pushed) and set(pushed) <= set(counted) and all(
            pushed.get(object_id, 0) == count for object_id, count in counted.items()),
        "no_live_sessions": status == 200 and health["live_sessions"] == 0,
    }
    return checks, snapshot


# -------------------------------------------------------------- serve-mixed
def _serve_plan(seed: int, seconds: float):
    """The open-loop schedule: exactly ``SERVE_RATE * seconds`` op groups.

    ``build_plan`` lays out a longer Poisson schedule; its first arrivals,
    rescaled so the next one falls at ``seconds``, are a Poisson process
    conditioned on that count.  Each op kind takes its exact
    ``DEFAULT_MIX`` share, drawn in build order from the plan's groups of
    that kind (so stream chunks keep feed order), in a seeded random order.
    """
    from repro.net.loadgen import DEFAULT_MIX, STREAM_CHUNK, build_plan, parse_mix

    scenario = _scaled_mall(SERVE_OBJECTS, seed)
    total = round(SERVE_RATE * seconds)
    plan = build_plan("mall-tiny", rate=SERVE_RATE, duration=3 * seconds, seed=seed,
                      scenario=scenario)
    shares = parse_mix(DEFAULT_MIX)
    wanted = {kind: round(total * share) for kind, share in shares.items()}
    wanted["stream"] += total - sum(wanted.values())
    by_kind: Dict[str, list] = {kind: [] for kind in shares}
    for group in plan.groups:
        by_kind["stream" if group[0].kind.startswith("stream") else group[0].kind].append(group)
    if len(plan.arrivals) <= total or any(len(by_kind[k]) < n for k, n in wanted.items()):
        raise RuntimeError("the long schedule is too short to draw the run from")
    order = [kind for kind, count in wanted.items() for _ in range(count)]
    random.Random(seed).shuffle(order)
    cursors = {kind: iter(groups) for kind, groups in by_kind.items()}
    groups = [next(cursors[kind]) for kind in order]
    opened = [op.object_id for group in groups for op in group if op.kind == "stream-open"]
    finished = {op.object_id for group in groups for op in group if op.kind == "stream-finish"}
    scale = seconds / plan.arrivals[total]
    schedule = dataclasses.replace(
        plan, duration=seconds, groups=groups,
        arrivals=[arrival * scale for arrival in plan.arrivals[:total]],
        unfinished_objects=[oid for oid in opened if oid not in finished],
    )
    test, history = _split_with_history(scenario)
    chunks = sum(-(-len(labeled.sequence) // STREAM_CHUNK) for labeled in test.sequences)
    sent = {kind: order.count(kind) for kind in shares}
    checks = {"feed_not_exhausted": sent["stream"] < chunks}
    repeated = max(0, sent["annotate"] - len(test.sequences)) / max(1, sent["annotate"])
    return schedule, history, checks, {"sent": sent, "repeated_share": repeated}


def _wire_request(op) -> Tuple[str, str, Optional[bytes], int]:
    """(method, path, body, records) of one loadgen op."""
    kind = op.kind.replace("stream-", "")
    if kind in ("open", "push", "finish"):
        target = quote(op.object_id, safe="")
        path = {"open": "/v1/sessions", "push": f"/v1/sessions/{target}/records",
                "finish": f"/v1/sessions/{target}/finish"}[kind]
        records = len(op.body["records"]) if kind == "push" else 0
        return "POST", path, json.dumps(op.body or {}).encode(), records
    if kind == "annotate":
        records = len(op.body["sequences"][0]["records"])
        return "POST", "/v1/annotate", json.dumps(op.body).encode(), records
    return "GET", op.path, None, 0


async def _serve_traffic(port: int, plan):
    """Fire the plan open-loop over ``PARALLEL`` keep-alive connections.

    Every op is timed from its group's due time, and a group touching an
    object starts only after that object's previous group has finished.
    """
    from repro.net.loadgen import _Op

    loop = asyncio.get_running_loop()
    pool = await open_pool(port, PARALLEL)
    samples: List[Sample] = []
    pushed: Dict[str, int] = {}
    counted: Dict[str, int] = {}
    previous: Dict[str, asyncio.Future] = {}

    async def fire(group, due: float, after: Optional[asyncio.Future], done_future):
        try:
            if after is not None:
                await after
            for op in group:
                method, path, body, records = _wire_request(op)
                kind = op.kind.replace("stream-", "")
                try:
                    status, payload = await _send(pool, method, path, body)
                    ok = status in (200, 201)
                except _HTTP_ERRORS:
                    ok, payload = False, {}
                samples.append(Sample(kind, due, loop.time(), ok, records))
                if ok and kind == "push":
                    pushed[op.object_id] = pushed.get(op.object_id, 0) + records
                if ok and kind == "finish":
                    counted[op.object_id] = payload["record_count"]
        finally:
            if done_future is not None:
                done_future.set_result(None)

    def schedule(group, due):
        object_id = group[0].object_id
        if object_id is None:
            return asyncio.ensure_future(fire(group, due, None, None))
        done_future = loop.create_future()
        after, previous[object_id] = previous.get(object_id), done_future
        return asyncio.ensure_future(fire(group, due, after, done_future))

    origin = loop.time() + 0.05
    lags: List[float] = []
    tasks = []
    for arrival, group in zip(plan.arrivals, plan.groups):
        due = origin + arrival
        if due > loop.time():
            await asyncio.sleep(due - loop.time())
        lags.append(loop.time() - due)
        tasks.append(schedule(group, due))
    await asyncio.gather(*tasks)
    window = loop.time() - origin
    # Drain: finish every session the schedule left open.
    await asyncio.gather(*(
        schedule([_Op(kind="stream-finish", object_id=object_id)], loop.time())
        for object_id in plan.unfinished_objects))
    connection = await pool.get()
    checks, snapshot = await _finish_checks(connection, pushed, counted)
    pool.put_nowait(connection)
    await close_pool(pool)
    checks["generator_on_time"] = max(lags, default=0.0) <= LAG_LIMIT_S
    return samples, window, checks, {"lags": lags, "handler_ms": _means(snapshot)}


def run_serve_mixed(seed: int, seconds: float, *, trace: bool, workdir: Path) -> Run:
    plan, history, checks, extras = _serve_plan(seed, seconds)

    async def traffic(port):
        samples, window, more, found = await _serve_traffic(port, plan)
        return samples, window, {**checks, **more}, {**extras, **found}

    return _http_run("serve-mixed", traffic, trace=trace, workdir=workdir, history=history,
                     write_kind=("push",))


# ------------------------------------------------- closed-loop HTTP workloads
@dataclasses.dataclass
class _Write:
    kind: str
    path: str
    body: bytes
    records: int = 0
    object_id: str = ""


async def _write_and_read(port: int, writes: List[_Write], seconds: float, on_reply,
                          read_rate: Optional[float] = None):
    """A closed-loop writer and a reader, one connection each.

    The writer sends ``writes`` in order until ``seconds`` have passed;
    meanwhile the reader queries TkPRQ / TkFRPQ back to back, or, with
    ``read_rate``, on a fixed schedule of that many reads per second, each
    timed from when it was due.  Returns the samples, the window (until the
    last write returned) and how many writes were sent.
    """
    loop = asyncio.get_running_loop()
    writer = await Connection.open("127.0.0.1", port)
    reader = await Connection.open("127.0.0.1", port)
    samples: List[Sample] = []
    origin = loop.time()
    deadline = origin + seconds
    sent = [0]
    last_done = [origin]

    async def timed(connection, kind, method, path, body=None, records=0, due=None):
        started = loop.time() if due is None else due
        try:
            status, payload = await asyncio.wait_for(
                connection.request(method, path, body), REQUEST_TIMEOUT)
            ok = status in (200, 201)
        except _HTTP_ERRORS:
            ok, payload = False, {}
        samples.append(Sample(kind, started, loop.time(), ok, records))
        return ok, payload

    async def write() -> None:
        for write in writes:
            if loop.time() >= deadline:
                return
            sent[0] += 1
            ok, payload = await timed(writer, write.kind, "POST", write.path, write.body,
                                      write.records)
            last_done[0] = loop.time()
            if ok:
                on_reply(write, payload)

    async def read() -> None:
        for position in itertools.count():
            due = None
            if read_rate:
                due = origin + (position + 0.5) / read_rate
                if due >= deadline:
                    return
                await asyncio.sleep(max(0.0, due - loop.time()))
            elif loop.time() >= deadline:
                return
            kind, path = _query_path(position)
            await timed(reader, kind, "GET", path, due=due)

    await asyncio.gather(write(), read())
    return samples, last_done[0] - origin, sent[0], (writer, reader)


def _stream_writes(sequences, seed: int) -> List[_Write]:
    """Sessions of ``STREAM_SESSION_RECORDS`` consecutive records each.

    Every held-out sequence is cut into such pieces (a shorter remainder is
    dropped); the pieces are streamed in a seeded order, each as one
    session: open, pushes, finish.
    """
    from repro.net.loadgen import STREAM_CHUNK
    from repro.net.wire import record_to_wire

    size = STREAM_SESSION_RECORDS
    pieces = [
        (f"stream/{sequence.object_id}@{start}", list(sequence)[start:start + size])
        for sequence in sequences
        for start in range(0, len(sequence) - size + 1, size)
    ]
    random.Random(seed).shuffle(pieces)
    writes = []
    for object_id, piece_records in pieces:
        target = quote(object_id, safe="")
        writes.append(_Write("open", "/v1/sessions",
                             json.dumps({"object_id": object_id}).encode(), 0, object_id))
        records = [record_to_wire(record) for record in piece_records]
        for start in range(0, len(records), STREAM_CHUNK):
            piece = records[start:start + STREAM_CHUNK]
            writes.append(_Write("push", f"/v1/sessions/{target}/records",
                                 json.dumps({"records": piece}).encode(), len(piece),
                                 object_id))
        writes.append(_Write("finish", f"/v1/sessions/{target}/finish", b"{}", 0, object_id))
    return writes


def run_stream_sessions(seed: int, seconds: float, *, trace: bool, workdir: Path) -> Run:
    test, history = _split_with_history(_scaled_mall(STREAM_OBJECTS, seed))
    writes = _stream_writes([labeled.sequence for labeled in test.sequences], seed)
    history = history[:STREAM_HISTORY]

    async def traffic(port):
        pushed: Dict[str, int] = {}
        counted: Dict[str, int] = {}

        def on_reply(write, payload):
            if write.kind == "push":
                pushed[write.object_id] = pushed.get(write.object_id, 0) + write.records
            elif write.kind == "finish":
                counted[write.object_id] = payload["record_count"]

        samples, window, sent, (writer, reader) = await _write_and_read(
            port, writes, seconds, on_reply, read_rate=STREAM_READ_RATE)
        last = writes[sent - 1]
        if last.kind != "finish":  # finish the session the deadline cut short
            loop = asyncio.get_running_loop()
            started = loop.time()
            status, payload = await asyncio.wait_for(writer.request(
                "POST", f"/v1/sessions/{quote(last.object_id, safe='')}/finish", b"{}"),
                REQUEST_TIMEOUT)
            samples.append(Sample("finish", started, loop.time(), status == 200))
            if status == 200:
                counted[last.object_id] = payload["record_count"]
        checks, snapshot = await _finish_checks(reader, pushed, counted)
        checks["inputs_not_exhausted"] = sent < len(writes)
        await writer.close()
        await reader.close()
        kinds = [s.kind for s in samples]
        extras = {"handler_ms": _means(snapshot),
                  "sent": {"stream": kinds.count("push"), "popular": kinds.count("popular"),
                           "pairs": kinds.count("pairs")}}
        return samples, window, checks, extras

    return _http_run("stream-sessions", traffic, trace=trace, workdir=workdir,
                     history=history, write_kind=("push",))


def _backfill_writes(seed: int) -> List[_Write]:
    """Batches of ``BACKFILL_BATCH`` distinct full-length sequences."""
    from repro.net.wire import sequence_to_wire

    wires = []
    for position, labeled in enumerate(_scaled_mall(BACKFILL_OBJECTS, seed).dataset.sequences):
        wire = sequence_to_wire(labeled.sequence)
        wire["object_id"] = f"{wire['object_id']}#{position}"
        wires.append(wire)
    return [
        _Write("annotate", "/v1/annotate",
               json.dumps({"sequences": wires[start:start + BACKFILL_BATCH]}).encode(),
               sum(len(wire["records"]) for wire in wires[start:start + BACKFILL_BATCH]))
        for start in range(0, len(wires) - BACKFILL_BATCH + 1, BACKFILL_BATCH)
    ]


def _check_backfill(seed: int, writes: List[_Write], answers: Dict[int, list]) -> bool:
    """A seeded sample of responses equals in-process annotate of the same model."""
    from repro.net.__main__ import build_service
    from repro.net.wire import semantics_to_wire, sequence_from_wire

    if not answers:
        return False
    service, _ = build_service("mall-tiny")
    rng = random.Random(seed)
    for index in rng.sample(sorted(answers), min(3, len(answers))):
        batch = json.loads(writes[index].body)["sequences"]
        slot = rng.randrange(len(batch))
        local = service.annotator.annotate(sequence_from_wire(batch[slot]))
        if json.loads(json.dumps(semantics_to_wire(local))) != answers[index][slot]:
            return False
    return True


def run_backfill_http(seed: int, seconds: float, *, trace: bool, workdir: Path) -> Run:
    writes = _backfill_writes(seed)
    answers: Dict[int, list] = {}
    slot_of = {id(write): index for index, write in enumerate(writes)}

    async def traffic(port):
        def on_reply(write, payload):
            answers[slot_of[id(write)]] = payload["semantics"]

        samples, window, sent, (writer, reader) = await _write_and_read(
            port, writes, seconds, on_reply)
        _, snapshot = await asyncio.wait_for(reader.request("GET", "/metrics"), REQUEST_TIMEOUT)
        await writer.close()
        await reader.close()
        kinds = [s.kind for s in samples]
        extras = {"handler_ms": _means(snapshot),
                  "sent": {kind: kinds.count(kind) for kind in ("annotate", "popular", "pairs")}}
        return samples, window, {"inputs_not_exhausted": sent < len(writes)}, extras

    run = _http_run("backfill-http", traffic, trace=trace, workdir=workdir,
                    write_kind=("annotate",))
    run.checks["responses_match_in_process"] = _check_backfill(seed, writes, answers)
    return run


# ------------------------------------------------------------ store-durable
class _StoreHandle:
    """A durable store opened (recovered) from ``root``, with its index."""

    def __init__(self, root: Path):
        from repro.store import DurabilityConfig, ShardedSemanticsStore

        started = time.perf_counter()
        self.store = ShardedSemanticsStore(durability=DurabilityConfig(root=root))
        self.store.attach_index()
        self.setup_seconds = time.perf_counter() - started

    def stop(self) -> None:
        self.store.close()


def _entry_key(entries) -> list:
    return [(ms.region_id, ms.start_time, ms.end_time, ms.event, ms.record_count)
            for ms in entries]


def _store_ops(store, stream, queries, seconds: float):
    """One closed loop: ``STORE_WRITES_PER_READ`` writes, then a read.

    A write publishes ``STORE_PUBLISHES_PER_WRITE`` objects one after
    another, then waits until they are durable (``flush()`` returned).  One
    durability wait per write keeps the write's time mostly the store's own
    work: waiting for each publish alone made a write a string of fsync
    round trips, which follow the disk's load rather than the program.
    About one write in 25 waits for a WAL snapshot.  A read evaluates TkPRQ and TkFRPQ over
    every interval shape of the standard query set.  Returns the samples,
    the acknowledged publishes, whether the inputs ran out, and the errors.
    """
    samples: List[Sample] = []
    acked: List[Tuple[str, list]] = []
    errors: List[BaseException] = []
    items = iter(stream)
    deadline = time.perf_counter() + seconds

    def timed(kind: str, work, count: int = 0) -> bool:
        started = time.perf_counter()
        try:
            work()
            ok = True
        except Exception as error:  # noqa: BLE001 - counted as a failed op
            errors.append(error)
            ok = False
        samples.append(Sample(kind, started, time.perf_counter(), ok, count))
        return ok

    def write(batch) -> None:
        for object_id, entries in batch:
            store.publish(object_id, entries)
        store.flush()

    for position in itertools.count():
        if time.perf_counter() >= deadline:
            break
        if position % (STORE_WRITES_PER_READ + 1) == STORE_WRITES_PER_READ:
            timed("read", lambda: [query.evaluate(store) for query in queries])
            continue
        batch = list(itertools.islice(items, STORE_PUBLISHES_PER_WRITE))
        if len(batch) < STORE_PUBLISHES_PER_WRITE:
            return samples, acked, True, errors
        if timed("publish", lambda: write(batch), sum(len(e) for _, e in batch)):
            acked.extend(batch)
    return samples, acked, False, errors


def run_store_durable(seed: int, seconds: float, *, trace: bool, workdir: Path) -> Run:
    from repro.bench.queries import build_query_set
    from repro.bench.store import STORE_REGIONS, build_store_workload
    from repro.queries import TkFRPQ, TkPRQ

    workload = build_store_workload(STORE_SCALE, seed=seed)
    preload, stream = workload[:STORE_PRELOAD], workload[STORE_PRELOAD:]
    # The inputs live in the process under test: keep the collector from
    # rescanning them, as it would not in a process that held only a store.
    gc.collect()
    gc.freeze()
    root = workdir / "store"
    shutil.rmtree(root, ignore_errors=True)
    loader = _StoreHandle(root)
    for object_id, entries in preload:
        loader.store.publish(object_id, entries)
    loader.stop()
    queries = [
        query(STORE_READ_K, query_regions=regions, start=start, end=end)
        for query in (TkPRQ, TkFRPQ)
        for start, end, regions in build_query_set(dict(preload), range(STORE_REGIONS))
    ]

    setup_s, handle = (0.0, _StoreHandle(root)) if trace else _median_setup(
        lambda: _StoreHandle(root), STORE_SETUP_REPEATS)
    tracer = install(Tracer()) if trace else None
    count_bytes = wal_bytes(tracer) if trace else None
    pid = os.getpid()
    cpu_before = cpu_seconds(pid)
    started = time.perf_counter()
    try:
        samples, acked, exhausted, errors = _store_ops(handle.store, stream, queries, seconds)
        window = time.perf_counter() - started
        cpu = cpu_seconds(pid) - cpu_before
    finally:
        if tracer is not None:
            tracer.unpatch()
        handle.stop()
    for error in errors[:3]:
        print(f"store-durable op failed: {error!r}", flush=True)
    reads = sum(1 for s in samples if s.kind == "read")
    run = Run(
        workload="store-durable", samples=samples, window_s=window,
        checks={"inputs_not_exhausted": not exhausted}, write_kind=("publish",),
        read_kind=("read",), setup_s=setup_s, cpu_s=cpu,
        peak_rss_mb=memory_mb(pid)["hwm"],
        sent={"publish": (len(samples) - reads) * STORE_PUBLISHES_PER_WRITE,
              "popular": reads * len(queries) // 2,
              "pairs": reads * len(queries) // 2},
    )
    if tracer is not None:
        run.spans, run.counts, run.wal_bytes = tracer.spans(), tracer.counts(), count_bytes()

    reopened = _StoreHandle(root)
    try:
        recovered = reopened.store.as_dict()
        run.checks["acknowledged_publishes_recovered"] = all(
            _entry_key(recovered.get(object_id, ())) == _entry_key(entries)
            for object_id, entries in itertools.chain(preload, acked)
        )
        plain = dict(recovered)
        run.checks["indexed_equals_scan"] = all(
            query.evaluate(reopened.store) == query.evaluate(plain)
            for query in random.Random(seed).sample(queries, 8)
        )
    finally:
        reopened.stop()
        gc.unfreeze()
    return run


RUNNERS = {
    "serve-mixed": run_serve_mixed,
    "stream-sessions": run_stream_sessions,
    "backfill-http": run_backfill_http,
    "store-durable": run_store_durable,
}
