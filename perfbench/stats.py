"""Summary statistics for op latencies."""

from __future__ import annotations

import math
import statistics

# Percentiles a tail may be reported at, lowest first.
LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def rank(n: int, q: float) -> int:
    """Nearest-rank position (1-based) of percentile q among n sorted samples."""
    # rounding first keeps 99.9% of 10000 at 9990, not 9991
    return max(1, math.ceil(round(q * n / 100.0, 9)))


def tail_percentile(n: int, cap: float) -> float | None:
    """Highest ladder percentile, at most cap, with MIN_BEYOND samples above its rank.

    cap freezes the percentile a workload reports, so that a faster program,
    which completes more ops in the same run length, is still compared at the
    same percentile.  None when even the median has too few samples beyond it.
    """
    best = None
    for q in LADDER:
        if q <= cap and n - rank(n, q) >= MIN_BEYOND:
            best = q
    return best


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[rank(len(ordered), q) - 1]


def scaled_latencies(passes, refs, nominal: float) -> list:
    """Latencies by op position, scaled to the host speed of the reference.

    passes[k][j] is the latency of op j in pass k (None when it failed), and
    refs[k][j] the time of the reference work timed beside it.  Each latency
    is multiplied by nominal / refs[k][j], so that a stretch in which the
    shared host runs slow scales the op and its reference alike and drops out.
    """
    by_position = [[] for _ in passes[0]] if passes else []
    for times, op_refs in zip(passes, refs):
        for j, (t, r) in enumerate(zip(times, op_refs)):
            if t is not None:
                by_position[j].append(t * nominal / r)
    return by_position


def position_medians(by_position) -> list:
    """One latency per completed op: the median at the op's position."""
    out = []
    for times in by_position:
        if times:
            out.extend([statistics.median(times)] * len(times))
    return out
