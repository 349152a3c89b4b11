"""Tests of the benchmark's own arithmetic: self time, tails, due-time latency.

Run from the root of a checkout: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from spans import Tracer, covered_length, self_times, summarise  # noqa: E402
from stats import beyond, due_latency, highest_tail, percentile  # noqa: E402


def _span(name, start, end, parent=-1, root=1, size=0):
    return (name, start, end, parent, root, size)


def test_self_time_subtracts_children():
    spans = [
        _span("outer", 0.0, 10.0),
        _span("a", 1.0, 3.0, parent=0),
        _span("b", 5.0, 9.0, parent=0),
        _span("leaf", 6.0, 7.0, parent=2),
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span("outer", 0.0, 10.0),
        _span("a", 2.0, 6.0, parent=0),
        _span("b", 4.0, 8.0, parent=0),
        _span("c", 9.0, 12.0, parent=0),  # clipped to the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)
    assert covered_length([(2.0, 6.0), (4.0, 8.0)], 0.0, 10.0) == pytest.approx(6.0)


def test_tracer_nests_spans_per_thread_and_counts_calls():
    tracer = Tracer()
    inner = tracer.span("inner", lambda: None)
    outer = tracer.span("outer", lambda: inner(), size=lambda: 3)
    counted = tracer.counter("calls", lambda: None)

    def work():
        outer()
        counted()
        counted()

    threads = [threading.Thread(target=work) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)
    spans = tracer.spans()
    assert len(spans) == 4
    for index, (name, start, end, parent, root, size) in enumerate(spans):
        if name == "inner":
            assert spans[parent][0] == "outer" and spans[parent][4] == root
        else:
            assert parent == -1 and size == 3
    assert len({span[4] for span in spans}) == 2
    assert tracer.counts() == {"calls": 4}
    table = summarise(spans)
    assert table["outer"]["calls"] == 2 and table["outer"]["size"] == 6


def test_patch_and_unpatch_restore_the_original():
    class Owner:
        def method(self):
            return 7

    original = Owner.__dict__["method"]
    tracer = Tracer()
    tracer.patch(Owner, "method", tracer.span("m", original))
    assert Owner().method() == 7 and len(tracer.spans()) == 1
    tracer.unpatch()
    assert Owner.__dict__["method"] is original


def test_nearest_rank_percentile_and_samples_beyond():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(list(reversed(values)), 99) == 99
    assert beyond(100, 90) == 10
    assert beyond(99, 90) == 9


def test_highest_tail_keeps_ten_samples_beyond():
    assert highest_tail(100) == 90
    assert highest_tail(1000) == 99
    assert highest_tail(200) == 95
    assert highest_tail(60) == 83
    for count in (20, 57, 133, 999):
        pct = highest_tail(count)
        assert beyond(count, pct) >= 10 and beyond(count, pct + 1) < 10


def test_due_latency_counts_time_before_sending():
    # Due at 1.0, held behind a busy connection until 1.3, answered at 1.5.
    assert due_latency(1.0, 1.5) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        due_latency(2.0, 1.0)
