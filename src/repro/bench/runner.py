"""Build the runtime benchmark workload, time it, and emit the JSON report.

The measured workload is deliberately the production shape: fit a C2MN on a
training split, then ``annotate_many`` a decode set under each
:class:`~repro.runtime.ExecutionPolicy`.  The decode set replicates the
test split a few times so even the tiny scale has enough sequences to
shard meaningfully — and so the duplicate-coalescing batched decoder has
realistic repeated traffic to coalesce.  The reference row is the
*unbatched* serial pass (``ExecutionPolicy.serial(batch=False)`` — the
pre-batching per-sequence loop); every other variant is compared bitwise
against its labels.  A variant that disagrees is broken, and the report
records that as ``"agreement": false`` (which ``tools/check_bench.py``
treats as a hard failure).

Rows carry a ``phase`` marker: ``"warmup"`` rows time the first call
against cold state (an empty process pool) and
``"steady"`` rows time the warmed path — the perf gate compares like with
like instead of mixing pool spin-up into steady-state numbers.  Batched
rows additionally record ``bucket_sizes``, the post-coalescing length
buckets the batch actually dispatched.

Wall-clock numbers from shared CI runners are noisy by nature; the report
therefore records the environment (CPU count, python, platform) next to the
numbers, and the perf *assertions* live in ``benchmarks/test_perf_runtime.py``
where they are gated on core count and the ``REPRO_PERF_FLOOR`` relaxation.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.core.annotator import C2MNAnnotator
from repro.core.config import C2MNConfig
from repro.crf.batch import plan_batch
from repro.evaluation.experiments import ExperimentScale, build_real_style_dataset
from repro.mobility.dataset import train_test_split
from repro.runtime import ExecutionPolicy, shutdown_pools
from repro.scenarios import materialize as materialize_scenario
from repro.scenarios import scenario_names

#: Schema identifier written to (and required in) every report.
BENCH_SCHEMA = "repro.bench/1"

#: Keys every report must carry at the top level.
REQUIRED_TOP_KEYS = (
    "schema",
    "suite",
    "created_at",
    "python",
    "platform",
    "cpu_count",
    "scale",
    "workers",
    "workload",
    "results",
)

#: Keys every entry of ``results`` must carry.
REQUIRED_RESULT_KEYS = (
    "name",
    "backend",
    "workers",
    "seconds",
    "speedup_vs_serial",
    "agreement",
)

#: How many times the test split is replicated into the decode workload —
#: large enough that pool start-up and broadcast costs amortise away.
REPLICATION = 8

#: The model configuration shared by all benchmark runs (scaled-down fit).
_BENCH_CONFIG = dict(max_iterations=3, mcmc_samples=6, lbfgs_iterations=4)


def bench_annotator(space) -> C2MNAnnotator:
    """An unfitted annotator with the benchmark model configuration."""
    return C2MNAnnotator(space, config=C2MNConfig.fast(**_BENCH_CONFIG))


def build_workload(
    scale: Union[str, ExperimentScale] = "tiny",
    *,
    name: str = "bench",
    replication: int = REPLICATION,
):
    """Build the canonical runtime benchmark workload.

    Returns ``(annotator, decode, fit_seconds)``: a C2MN fitted on the
    training half of a mall dataset at ``scale`` and the decode set (the
    test half replicated ``replication`` times).  Shared by
    :func:`run_runtime_benchmarks` and ``benchmarks/test_perf_runtime.py``
    so the CI artifact and the asserted perf contract measure the same
    workload.
    """
    dataset = build_real_style_dataset(_resolve_scale(scale), name=name)
    train, test = train_test_split(dataset, train_fraction=0.5, seed=5)
    decode = [labeled.sequence for labeled in test.sequences] * replication
    annotator = bench_annotator(dataset.space)
    fit_start = time.perf_counter()
    annotator.fit(train.sequences)
    fit_seconds = time.perf_counter() - fit_start
    return annotator, decode, fit_seconds


def _resolve_scale(scale: Union[str, ExperimentScale]) -> ExperimentScale:
    if isinstance(scale, ExperimentScale):
        return scale
    factories = {
        "tiny": ExperimentScale.tiny,
        "small": ExperimentScale.small,
        "medium": ExperimentScale.medium,
    }
    if scale not in factories:
        raise ValueError(f"scale must be one of {sorted(factories)}, got {scale!r}")
    return factories[scale]()


def _best_of(repeats: int, func) -> float:
    """Minimum wall-clock over ``repeats`` runs (the least-noise estimator)."""
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def _unique_count(sequences) -> int:
    """Distinct sequences by content fingerprint (the coalescing unit)."""
    return len(plan_batch(sequences).uniques)


def _bucket_layout(sequences, policy: ExecutionPolicy) -> List[int]:
    """The bucket sizes a batched run dispatches after duplicate coalescing.

    Uses the same :func:`repro.crf.batch.plan_batch` plan ``annotate_many``
    runs, so the report records exactly how the batch was carved up.
    """
    return [len(bucket) for bucket in plan_batch(sequences, policy).buckets]


def run_runtime_benchmarks(
    scale: Union[str, ExperimentScale] = "tiny",
    *,
    workers: int = 4,
    repeats: int = 1,
    scale_name: Optional[str] = None,
) -> Dict[str, Any]:
    """Run the runtime benchmark suite and return the report as a dict.

    The reference row is the unbatched serial ``annotate_many`` pass — the
    per-sequence loop that predates batching.  Against it the suite times
    the batched serial decoder and the process policy (split into a
    cold-pool ``warmup`` row and a warm-pool ``steady`` row).  Every
    variant is asserted bitwise identical to the reference labels, and the
    report packages the environment metadata the CI artifact needs.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    name = scale_name or (scale if isinstance(scale, str) else "custom")
    annotator, decode, fit_seconds = build_workload(scale, name=f"bench-{name}")

    reference_policy = ExecutionPolicy.serial(batch=False)
    batched_policy = ExecutionPolicy.serial()
    process_policy = ExecutionPolicy.processes(workers)

    # Warm the shared geometry caches (distance oracle, candidate queries) so
    # the serial reference is not penalised by first-touch costs the parallel
    # runs then inherit through the broadcast annotator.
    serial_labels = annotator.annotate_many(decode, policy=reference_policy)

    results: List[Dict[str, Any]] = []

    def record(run_name: str, backend: str, run_workers: int, seconds: float,
               serial_seconds: float, labels: Any, *, phase: str = "steady",
               **extra: Any) -> None:
        row = {
            "name": run_name,
            "backend": backend,
            "workers": run_workers,
            "seconds": round(seconds, 6),
            "speedup_vs_serial": round(serial_seconds / seconds, 4)
            if seconds > 0
            else 0.0,
            "agreement": labels == serial_labels,
            "phase": phase,
        }
        row.update(extra)
        results.append(row)

    serial_seconds = _best_of(
        repeats, lambda: annotator.annotate_many(decode, policy=reference_policy)
    )
    record("annotate_many", "serial", 1, serial_seconds, serial_seconds, serial_labels)

    batched_out: List[Any] = []
    batched_seconds = _best_of(
        repeats,
        lambda: batched_out.append(
            annotator.annotate_many(decode, policy=batched_policy)
        ),
    )
    record("annotate_many_batched", "serial", 1, batched_seconds, serial_seconds,
           batched_out[-1], bucket_sizes=_bucket_layout(decode, batched_policy))

    # Process rows come in a pair: the warmup row pays pool spawn plus the
    # shared-memory broadcast from a cold start, the steady row reuses the
    # persistent pool and the per-worker unpickled annotator.
    shutdown_pools()
    warmup_start = time.perf_counter()
    warmup_labels = annotator.annotate_many(decode, policy=process_policy)
    warmup_seconds = time.perf_counter() - warmup_start
    record("annotate_many_warmup", "process", workers, warmup_seconds,
           serial_seconds, warmup_labels, phase="warmup",
           bucket_sizes=_bucket_layout(decode, process_policy))
    process_out: List[Any] = []
    process_seconds = _best_of(
        repeats,
        lambda: process_out.append(
            annotator.annotate_many(decode, policy=process_policy)
        ),
    )
    record("annotate_many", "process", workers, process_seconds, serial_seconds,
           process_out[-1], bucket_sizes=_bucket_layout(decode, process_policy))

    return {
        "schema": BENCH_SCHEMA,
        "suite": "runtime",
        "created_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count() or 1,
        "scale": name,
        "workers": workers,
        "repeats": max(1, repeats),
        "fit_seconds": round(fit_seconds, 6),
        "workload": {
            "sequences": len(decode),
            "unique_sequences": _unique_count(decode),
            "records": sum(len(sequence) for sequence in decode),
            "replication": REPLICATION,
        },
        "results": results,
    }


def run_scenario_benchmarks(
    names: Sequence[str],
    *,
    workers: int = 4,
    repeats: int = 1,
    seed: Optional[int] = None,
    replication: int = 4,
) -> Dict[str, Any]:
    """Time the annotation pipeline over registered scenarios.

    For every scenario: materialise it (timed, batch *and* streaming via
    ``materialize_iter`` — the constant-memory generator must not cost more
    than the batch path it mirrors), fit the benchmark C2MN on half of it
    (timed), then ``annotate_many`` the replicated other half through the
    unbatched serial reference policy and the batched process policy with
    bitwise agreement checks.  The report
    shares the ``repro.bench/1`` schema with the classic runtime suite —
    per-scenario rows land in ``results`` (named
    ``<scenario>:annotate_many``) and materialise/fit timings plus the
    content fingerprint land in the ``scenarios`` section, so the CI
    artifact records when a scenario's workload drifts.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if repeats < 1:
        raise ValueError(f"repeats must be at least 1, got {repeats}")
    if replication < 1:
        raise ValueError(f"replication must be at least 1, got {replication}")
    if not names:
        raise ValueError("need at least one scenario name")
    results: List[Dict[str, Any]] = []
    details: List[Dict[str, Any]] = []
    total_sequences = 0
    total_unique = 0
    total_records = 0

    for name in names:
        mat_start = time.perf_counter()
        scenario = materialize_scenario(name, seed)
        mat_seconds = time.perf_counter() - mat_start
        stream_start = time.perf_counter()
        streamed = sum(
            1
            for _ in scenario.spec.materialize_iter(
                scenario.seed, space=scenario.space
            )
        )
        stream_seconds = time.perf_counter() - stream_start
        if streamed != len(scenario.dataset.sequences):
            raise RuntimeError(
                f"streaming materialisation of {name!r} yielded {streamed} "
                f"sequences, batch produced {len(scenario.dataset.sequences)}"
            )
        train, test = train_test_split(scenario.dataset, train_fraction=0.5, seed=5)
        decode = [labeled.sequence for labeled in test.sequences] * replication
        annotator = bench_annotator(scenario.space)
        fit_start = time.perf_counter()
        annotator.fit(train.sequences)
        fit_seconds = time.perf_counter() - fit_start

        reference_policy = ExecutionPolicy.serial(batch=False)
        process_policy = ExecutionPolicy.processes(workers)
        serial_labels = annotator.annotate_many(decode, policy=reference_policy)
        serial_seconds = _best_of(
            repeats, lambda: annotator.annotate_many(decode, policy=reference_policy)
        )
        results.append(
            {
                "name": f"{name}:annotate_many",
                "backend": "serial",
                "workers": 1,
                "seconds": round(serial_seconds, 6),
                "speedup_vs_serial": 1.0,
                "agreement": True,
                "phase": "steady",
            }
        )
        process_out: List[Any] = []
        process_seconds = _best_of(
            repeats,
            lambda: process_out.append(
                annotator.annotate_many(decode, policy=process_policy)
            ),
        )
        results.append(
            {
                "name": f"{name}:annotate_many",
                "backend": "process",
                "workers": workers,
                "seconds": round(process_seconds, 6),
                "speedup_vs_serial": round(serial_seconds / process_seconds, 4)
                if process_seconds > 0
                else 0.0,
                "agreement": process_out[-1] == serial_labels,
                "phase": "steady",
                "bucket_sizes": _bucket_layout(decode, process_policy),
            }
        )
        details.append(
            {
                "name": name,
                "seed": scenario.seed,
                "fingerprint": scenario.fingerprint,
                "materialize_seconds": round(mat_seconds, 6),
                "stream_materialize_seconds": round(stream_seconds, 6),
                "fit_seconds": round(fit_seconds, 6),
                "sequences": len(decode),
                "unique_sequences": _unique_count(decode),
                "records": sum(len(sequence) for sequence in decode),
            }
        )
        total_sequences += len(decode)
        total_unique += _unique_count(decode)
        total_records += sum(len(sequence) for sequence in decode)

    return {
        "schema": BENCH_SCHEMA,
        "suite": "scenarios",
        "created_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count() or 1,
        "scale": "scenario",
        "workers": workers,
        "repeats": max(1, repeats),
        "workload": {
            "sequences": total_sequences,
            "unique_sequences": total_unique,
            "records": total_records,
            "replication": replication,
        },
        "scenarios": details,
        "results": results,
    }


def write_report(report: Dict[str, Any], path: Union[str, Path]) -> Path:
    """Write a benchmark report as pretty-printed JSON; return the path."""
    target = Path(path)
    if target.parent != Path("."):
        target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(report, indent=2, sort_keys=False) + "\n")
    return target


def format_summary(report: Dict[str, Any]) -> str:
    """A short human-readable rendering of a report for terminal output."""
    lines = [
        f"suite={report['suite']} scale={report['scale']} "
        f"workers={report['workers']} cpu_count={report['cpu_count']}",
        f"workload: {report['workload']['sequences']} sequences, "
        f"{report['workload']['records']} records"
        + (
            f" (fit {report['fit_seconds']:.2f}s)"
            if "fit_seconds" in report
            else ""
        ),
    ]
    for detail in report.get("scenarios", []):
        if "materialize_seconds" in detail:
            stream = detail.get("stream_materialize_seconds")
            lines.append(
                f"  scenario {detail['name']:22s} materialise {detail['materialize_seconds']:6.3f}s  "
                + (f"stream {stream:6.3f}s  " if stream is not None else "")
                + f"fit {detail['fit_seconds']:6.3f}s  fingerprint {detail['fingerprint'][:16]}"
            )
        else:
            lines.append(
                f"  scenario {detail['name']:22s} objects {detail['objects']:5d}  "
                f"postings {detail['postings']:6d}  "
                f"index build {detail['index_build_seconds']:6.3f}s"
            )
    for detail in report.get("service", []):
        loadtest = detail["loadtest"]
        lines.append(
            f"  scenario {detail['name']:22s} fit {detail['fit_seconds']:6.3f}s  "
            f"loadtest {loadtest['throughput_rps']:7.1f} rps  "
            f"p95 {loadtest['p95_latency_ms']:7.1f}ms  "
            f"failures {loadtest['failures']}"
        )
    store = report.get("store")
    if isinstance(store, dict):
        recovery = store["recovery"]
        lines.append(
            f"  store: shards={store['shards']}  scatter over {store['shard_counts']}  "
            f"recovery exact={'ok' if recovery['exact'] else 'FAIL'} "
            f"(replayed {recovery['replayed_records']})  "
            f"pending after flush={store['pending_after_flush']}"
        )
    for entry in report["results"]:
        line = (
            f"  {entry['name']:28s} {entry['backend']:8s} x{entry['workers']:<2d} "
            f"{entry['seconds']:8.3f}s  speedup {entry['speedup_vs_serial']:6.2f}x  "
            f"agreement={'ok' if entry['agreement'] else 'FAIL'}"
        )
        if entry.get("phase") == "warmup":
            line += "  [warmup]"
        if "bucket_sizes" in entry:
            line += f"  buckets={entry['bucket_sizes']}"
        lines.append(line)
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI driver of ``python -m repro.bench``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Run the runtime performance benchmarks and write a "
        "schema-versioned JSON report (the CI perf artifact).",
    )
    parser.add_argument(
        "--scale",
        choices=("tiny", "small", "medium"),
        default=None,
        help="workload scale (default: tiny, the CI setting)",
    )
    parser.add_argument(
        "--tiny",
        action="store_const",
        const="tiny",
        dest="scale",
        help="shorthand for --scale tiny",
    )
    parser.add_argument(
        "--scenario",
        action="append",
        default=None,
        metavar="NAME",
        choices=sorted(scenario_names()) + ["all"],
        help="benchmark a registered scenario instead of the classic runtime "
        "workload (repeatable; 'all' runs the whole catalogue)",
    )
    parser.add_argument(
        "--queries",
        action="store_true",
        help="run the query suite (indexed vs scan TkPRQ/TkFRPQ) instead of "
        "the annotation runtime workload; --scale sets the replication and "
        "--scenario restricts the scenario set",
    )
    parser.add_argument(
        "--service",
        action="store_true",
        help="run the serving suite (HTTP front door vs in-process, plus an "
        "open-loop loadtest); --scenario restricts the scenario set "
        "(default: mall-tiny)",
    )
    parser.add_argument(
        "--store",
        action="store_true",
        help="run the store suite (sharded ingest, WAL durability + recovery, "
        "scatter-gather top-k vs the single store); --scale sets the object "
        "count and --workers the shard count of the ingest rows",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=4,
        help="worker count for the process runs (default: 4)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=1,
        help="timing repetitions per variant; best-of is reported (default: 1)",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="output path (default: BENCH_runtime.json, or "
        "BENCH_scenarios.json with --scenario)",
    )
    args = parser.parse_args(argv)
    if sum(1 for flag in (args.queries, args.service, args.store) if flag) > 1:
        parser.error("--queries, --service and --store are mutually exclusive")
    if args.scenario and args.scale is not None and not args.queries:
        parser.error("--scale/--tiny do not apply to --scenario runs")
    if args.service and args.scale is not None:
        parser.error("--scale/--tiny do not apply to --service runs")
    if args.store and args.scenario:
        parser.error("--scenario does not apply to --store runs "
                     "(the store workload is synthetic)")
    if args.out is None:
        if args.queries:
            args.out = "BENCH_queries.json"
        elif args.service:
            args.out = "BENCH_service.json"
        elif args.store:
            args.out = "BENCH_store.json"
        elif args.scenario:
            args.out = "BENCH_scenarios.json"
        else:
            args.out = "BENCH_runtime.json"

    names = (
        scenario_names()
        if not args.scenario or "all" in args.scenario
        else list(dict.fromkeys(args.scenario))
    )
    if args.service:
        from repro.bench.service import run_service_benchmarks

        report = run_service_benchmarks(
            names if args.scenario else None, repeats=args.repeats
        )
    elif args.store:
        from repro.bench.store import run_store_benchmarks

        report = run_store_benchmarks(
            args.scale or "tiny", shards=args.workers, repeats=args.repeats
        )
    elif args.queries:
        from repro.bench.queries import run_query_benchmarks

        report = run_query_benchmarks(
            names, scale=args.scale or "tiny", repeats=args.repeats
        )
    elif args.scenario:
        report = run_scenario_benchmarks(
            names, workers=args.workers, repeats=args.repeats
        )
    else:
        report = run_runtime_benchmarks(
            args.scale or "tiny", workers=args.workers, repeats=args.repeats
        )
    path = write_report(report, args.out)
    print(format_summary(report))
    print(f"wrote {path}")
    if not all(entry["agreement"] for entry in report["results"]):
        print("FAIL: at least one backend disagrees with the serial labels",
              file=sys.stderr)
        return 1
    return 0
