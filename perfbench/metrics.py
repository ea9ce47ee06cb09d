"""Pure reductions behind run.py: percentiles, spreads, span self time and
the sweep row comparisons. Kept free of I/O so test_metrics.py can pin them."""

import math
import statistics

# Candidate percentiles for a tail metric, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

# Sweep-row fields that legitimately differ between a cold and a warm run.
VOLATILE_ROW_FIELDS = ("cached", "wall_ms", "rss_kb")


def tail_percentile(n, min_beyond=10):
    """The highest candidate percentile with at least `min_beyond` of `n`
    samples beyond it, or None when even the median has too few."""
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= min_beyond - 1e-9:
            return p
    return None


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def spread(values):
    """Distance between the first and third quartile as a share of the
    median (0 for fewer than two samples)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else 0.0


def covered_ns(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0
    end_so_far = None
    for start, end in sorted(intervals):
        if end_so_far is None or start > end_so_far:
            total += end - start
            end_so_far = end
        elif end > end_so_far:
            total += end - end_so_far
            end_so_far = end
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of it that its
    child spans cover. Children may overlap each other (jobs on several
    workers), so the covered part is the union of the clipped children."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        clipped = [
            (max(c["start_ns"], s["start_ns"]), min(c["end_ns"], s["end_ns"]))
            for c in children.get(s["id"], [])
        ]
        clipped = [(a, b) for a, b in clipped if b > a]
        out[s["id"]] = (s["end_ns"] - s["start_ns"]) - covered_ns(clipped)
    return out


def warm_row_mismatch(cold, warm):
    """Why a warm sweep row does not reproduce its cold row, or None. A warm
    row must be a cache hit and equal the cold row apart from the volatile
    timing fields."""
    if warm.get("cached") is not True:
        return "not a cache hit"
    strip = lambda row: {k: v for k, v in row.items() if k not in VOLATILE_ROW_FIELDS}
    a, b = strip(cold), strip(warm)
    if a != b:
        keys = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
        return "fields differ: " + ", ".join(keys)
    return None
