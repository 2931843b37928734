"""Statistics and bookkeeping shared by the benchmark's workloads.

Kept free of numpy and of the slotwalks package so the unit tests in
test_bench.py exercise it on hand-built inputs.
"""

from __future__ import annotations

import json
import math
import re
import statistics
from dataclasses import dataclass, field

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# a percentile is only reported when at least this many samples lie above it
MIN_TAIL_SAMPLES = 10

# p90 when 100 samples allow it, else p75 (40 samples)
TAIL_PERCENTILES = (90, 75)


def contract_metrics(benchmark_json, trace: bool) -> list[tuple[str, str]]:
    """(name, unit) of the metrics BENCHMARK.json lists for this kind of run."""
    with open(benchmark_json) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def valid_metric_name(name: str) -> bool:
    """Names are 1-64 characters of [A-Za-z0-9_.-], starting with a letter or digit."""
    return _NAME.fullmatch(name) is not None


def percentile(samples, q: float) -> float | None:
    """Nearest-rank q-th percentile, or None when fewer than ten samples exceed it.

    A p90 therefore needs at least 100 samples, a p75 at least 40.
    """
    n = len(samples)
    if n == 0:
        return None
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < MIN_TAIL_SAMPLES:
        return None
    return sorted(samples)[rank - 1]


def tail(samples) -> tuple[int, float] | None:
    """The highest of TAIL_PERCENTILES the sample count supports, as (q, value)."""
    for q in TAIL_PERCENTILES:
        value = percentile(samples, q)
        if value is not None:
            return q, value
    return None


def median(samples) -> float:
    return float(statistics.median(samples))


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of the (start, end) intervals, clipped to [lo, hi]."""
    clipped = sorted((max(s, lo), min(e, hi)) for s, e in intervals if e > lo and s < hi)
    total = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_time(start: float, end: float, children) -> float:
    """A span's duration minus the part of it that its child spans cover."""
    return (end - start) - union_length(children, start, end)


@dataclass
class Tally:
    """Operations attempted and failed; a failed check also records why."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def ops(self, n: int = 1) -> None:
        """Count n operations that completed (steps, scenes, file reads or writes)."""
        self.attempted += n

    def check(self, ok: bool, what: str) -> bool:
        """Count one correctness check; a false one is a failed operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
