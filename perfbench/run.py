"""The repository's benchmark: three workloads, end to end and layer by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload stream-sessions --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the workload untraced and prints the end-to-end
metrics.  ``--trace 1`` runs it twice for half the time each, untraced then
traced, and prints the per-layer metrics plus the tracing overhead.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Metric definitions per workload
are in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

#: Percentile of each workload's tail latencies (``write_tail_ms``,
#: ``read_tail_ms``): about the highest with at least ten samples beyond it
#: at a 30 s run, with room for a slower machine.  Each run prints its
#: sample counts.
TAIL_PCT = {
    "stream-sessions": {"write": 90, "read": 90},
    "backfill-http": {"write": 85, "read": 97},
    "store-durable": {"write": 99, "read": 85},
    "serve-mixed": {"write": 90, "read": 85},
}

#: Where runs keep their scratch files, relative to the checkout root.
WORKDIR = Path(".perfbench-work")


def _end_to_end(run) -> dict:
    from stats import beyond, highest_tail, mean, percentile

    metrics = {"setup_s": (run.setup_s, "s")}
    metrics["throughput_per_s"] = (run.items / run.window_s, "1/s")
    for side, kinds in (("write", run.write_kind), ("read", run.read_kind)):
        values = run.latencies_ms(kinds)
        metrics[f"{side}_mean_ms"] = (mean(values), "ms")
        tail = TAIL_PCT[run.workload][side]
        metrics[f"{side}_tail_ms"] = (percentile(values, tail), "ms")
        print(f"  {side}_tail_ms is p{tail}: {len(values)} samples, "
              f"{beyond(len(values), tail)} beyond it, "
              f"highest tail with 10 beyond: p{highest_tail(len(values))}")
    for kind in sorted({sample.kind for sample in run.samples}):
        values = run.latencies_ms((kind,))
        if len(values) > 1:
            print(f"  op {kind}: n={len(values)} mean={mean(values):.3f} ms "
                  f"p50={percentile(values, 50):.3f} ms "
                  f"p90={percentile(values, 90):.3f} ms")
    metrics["cpu_ms_per_item"] = (run.cpu_s * 1000.0 / run.items, "ms")
    metrics["peak_rss_mb"] = (run.peak_rss_mb, "MB")
    return metrics


def _per_layer(base, traced) -> dict:
    from spans import summarise
    from stats import highest_tail, mean, percentile

    table = summarise(traced.spans or [])
    counts = traced.counts

    def row(name):
        return table.get(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "size": 0})

    def ms(name):
        found = row(name)
        return found["self_s"] * 1000.0 / found["calls"] if found["calls"] else 0.0

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    records = traced.items if traced.workload != "store-durable" else 0
    appended = row("store.wal_append")["size"]
    updates = counts.get("crf.icm_node_updates", 0)
    metrics = {
        "crf.prepare_ms": (ms("crf.prepare"), "ms"),
        "crf.prepare_calls": (row("crf.prepare")["calls"], "count"),
        "crf.prepared_records": (row("crf.prepare")["size"], "count"),
        "crf.prepare_amplification": (ratio(row("crf.prepare")["size"], records), "ratio"),
        "crf.tables_ms": (ms("crf.tables"), "ms"),
        "crf.icm_ms": (ms("crf.icm"), "ms"),
        "crf.icm_node_updates": (updates, "count"),
        "crf.icm_updates_per_record": (ratio(updates, records), "ratio"),
        "crf.batch_sequences_per_call": (
            ratio(row("crf.icm")["size"], row("crf.icm")["calls"]), "ratio"),
        "core.predict_labels_calls": (counts.get("core.predict_labels_calls", 0), "count"),
        "net.wire_decode_ms": (ms("net.wire_decode"), "ms"),
        "net.wire_encode_ms": (ms("net.wire_encode"), "ms"),
    }
    for endpoint in ("annotate", "sessions.create", "sessions.records", "sessions.finish",
                     "queries.popular-regions", "queries.frequent-pairs"):
        metrics[f"net.handler_ms_mean.{endpoint}"] = (traced.handler_ms.get(endpoint, 0.0), "ms")
    service_span = {"push": "service.extend", "annotate": "service.annotate_batch",
                    "query": "service.query"}
    for kind, kinds in (("push", ("push",)), ("annotate", ("annotate",)),
                        ("query", ("popular", "pairs"))):
        client = traced.latencies_ms(kinds)
        service = row(service_span[kind])
        wait = (mean(client) - service["total_s"] * 1000.0 / service["calls"]
                if client and service["calls"] else 0.0)
        metrics[f"net.wait_ms_mean.{kind}"] = (wait, "ms")
    metrics.update({
        "service.extend_ms": (ms("service.extend"), "ms"),
        "service.finish_ms": (ms("service.finish"), "ms"),
        "service.annotate_batch_ms": (ms("service.annotate_batch"), "ms"),
        "service.query_ms": (ms("service.query"), "ms"),
        "queries.tkprq_ms": (ms("queries.tkprq"), "ms"),
        "queries.tkfrpq_ms": (ms("queries.tkfrpq"), "ms"),
        "store.publish_ms": (ms("store.publish"), "ms"),
        "store.publish_calls": (row("store.publish")["calls"], "count"),
        "store.memory_publish_ms": (ms("store.memory_publish"), "ms"),
        "store.flush_ms": (ms("store.flush"), "ms"),
        "store.wal_append_ms": (ms("store.wal_append"), "ms"),
        "store.wal_sync_ms": (ms("store.wal_sync"), "ms"),
        "store.wal_syncs": (row("store.wal_sync")["calls"], "count"),
        "store.entries_per_sync": (ratio(appended, row("store.wal_sync")["calls"]), "ratio"),
        "store.wal_bytes_per_entry": (ratio(traced.wal_bytes, appended), "B"),
        "store.snapshot_ms": (ms("store.snapshot"), "ms"),
        "index.add_ms": (ms("index.add"), "ms"),
        "proc.cpu_util": (ratio(traced.cpu_s, traced.window_s), "ratio"),
        "proc.rss_mb": (mean(traced.rss_samples), "MB"),
        "loadgen.lag_tail_ms": (
            percentile(traced.lags, highest_tail(len(traced.lags))) * 1000.0
            if traced.lags else 0.0, "ms"),
    })
    for kind in ("stream", "annotate", "popular", "pairs", "publish"):
        metrics[f"loadgen.ops_sent.{kind}"] = (traced.sent.get(kind, 0), "count")
    metrics["loadgen.repeated_share"] = (traced.repeated_share, "ratio")
    base_cost = base.cpu_s / base.items
    metrics["trace.overhead_pct"] = ((traced.cpu_s / traced.items / base_cost - 1.0) * 100.0, "%")
    metrics["trace.spans"] = (len(traced.spans or []), "count")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not Path("src/repro").is_dir():
        print("run from the root of a checkout: src/repro is missing", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    sys.path.insert(0, str(Path("src").resolve()))
    from workloads import RUNNERS

    if args.workload not in RUNNERS:
        parser.error(f"--workload must be one of {sorted(RUNNERS)}")
    runner = RUNNERS[args.workload]
    workdir = WORKDIR / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            half = args.seconds / 2.0
            runs = [runner(args.seed, half, trace=False, workdir=workdir),
                    runner(args.seed, half, trace=True, workdir=workdir)]
            metrics = _per_layer(*runs)
        else:
            runs = [runner(args.seed, args.seconds, trace=False, workdir=workdir)]
            metrics = _end_to_end(runs[0])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORKDIR.is_dir() and not any(WORKDIR.iterdir()):
            WORKDIR.rmdir()
    checks = {}
    for run in runs:
        for name, ok in run.checks.items():
            checks[name] = checks.get(name, True) and ok
    for name, ok in checks.items():
        print(f"  check {name}: {'ok' if ok else 'FAILED'}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.4f} {unit}")
    correct = all(checks.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(run.attempted for run in runs),
        "failed": sum(run.failed for run in runs),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
