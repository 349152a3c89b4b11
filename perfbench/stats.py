"""Small measurement helpers: percentiles, due-time latency, /proc readers."""

from __future__ import annotations

import math
import os
from typing import Dict, List, Sequence

#: Samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (``pct`` in 0..100) of unsorted values."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def beyond(count: int, pct: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank ``pct``."""
    return count - max(1, math.ceil(pct / 100.0 * count))


def highest_tail(count: int, minimum: int = TAIL_BEYOND) -> int:
    """The highest whole percentile with at least ``minimum`` samples beyond it."""
    for pct in range(99, 0, -1):
        if beyond(count, pct) >= minimum:
            return pct
    return 0


def due_latency(due: float, done: float) -> float:
    """Latency of an open-loop op, timed from when it was due to be sent.

    Waiting for a free connection, for the same object's previous push or
    for a late generator all count, because ``due`` is the schedule's
    instant, not the moment the request left.
    """
    if done < due:
        raise ValueError("an op cannot finish before it is due")
    return done - due


# ------------------------------------------------------------------- /proc
_TICKS = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds consumed so far by process ``pid``."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # Fields after the command name start at field 3 (state); utime and
    # stime are fields 14 and 15.
    return (int(fields[11]) + int(fields[12])) / _TICKS


def memory_mb(pid: int) -> Dict[str, float]:
    """Current (``rss``) and peak (``hwm``) resident set size in MiB."""
    found: Dict[str, float] = {}
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(("VmRSS:", "VmHWM:")):
                name, value = line.split()[:2]
                found["rss" if name == "VmRSS:" else "hwm"] = int(value) / 1024.0
    return found


def mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0
