"""Arithmetic behind the benchmark's metrics, kept apart from the runner
so that perfbench/test_stats.py can check it on hand-made inputs.

Percentile rule: a timing is reported as its median and the highest
percentile that still has at least ten samples beyond it, together
with the sample count.
"""

import math

# Percentiles a timing may be reported at, from the highest down.
TAIL_PERCENTILES = (99.99, 99.9, 99.0, 90.0, 50.0)
MIN_BEYOND = 10
# A rung's backlog grows when its last tenth of requests was sent this
# much later than its first tenth (generator lateness, microseconds).
BACKLOG_GROWTH_US = 5000.0


def rank(q, n):
    """1-based nearest rank of quantile ``q`` among ``n`` samples. The
    epsilon keeps float error (0.999 * 10000 = 9990.000000000002) from
    moving the rank up by one."""
    return max(1, math.ceil(q * n - 1e-9))


def quantile(values, q):
    """Nearest-rank quantile of ``values`` at ``q`` in [0, 1]."""
    if not values:
        raise ValueError("quantile of no values")
    return sorted(values)[rank(q, len(values)) - 1]


def samples_beyond(n, percentile):
    """How many of ``n`` samples lie above the given percentile."""
    return n - rank(percentile / 100.0, n)


def tail_percentile(n):
    """Highest reportable percentile for ``n`` samples, or None."""
    for p in TAIL_PERCENTILES:
        if samples_beyond(n, p) >= MIN_BEYOND:
            return p
    return None


def timing_summary(values):
    """Median, the highest supported tail percentile and the count."""
    n = len(values)
    tail = tail_percentile(n)
    return {
        "n": n,
        "p50": quantile(values, 0.5) if n else None,
        "tail_percentile": tail,
        "tail": quantile(values, tail / 100.0) if tail else None,
    }


def geomean(values):
    """Geometric mean of positive numbers."""
    values = list(values)
    if not values or any(v <= 0 for v in values):
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def speedup_geomeans(triples):
    """(orderlight, louvre) geomeans of fence exec over each backend's
    exec, from [workload, ts, fence_ms, orderlight_ms, louvre_ms] rows."""
    ol = geomean(t[2] / t[3] for t in triples)
    louvre = geomean(t[2] / t[4] for t in triples)
    return ol, louvre


def self_times(spans):
    """Self time of every span: its duration minus the part of it that
    its child spans cover. ``spans`` holds [name, parent, start, end]
    rows where parent indexes the row list (-1 for a root). Returns a
    list of (name, self, total) in the spans' units."""
    children = [[] for _ in spans]
    for i, (_, parent, _, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (name, _, start, end) in enumerate(spans):
        intervals = sorted(
            (max(spans[c][2], start), min(spans[c][3], end))
            for c in children[i])
        covered = 0
        cur_start = cur_end = None
        for lo, hi in intervals:
            if hi <= lo:
                continue
            if cur_end is None or lo > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = lo, hi
            else:
                cur_end = max(cur_end, hi)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append((name, (end - start) - covered, end - start))
    return out


def span_table(spans):
    """Per span name: count, self and total time (summed), and the
    per-call self and total times (lists)."""
    table = {}
    for name, own, total in self_times(spans):
        row = table.setdefault(
            name, {"count": 0, "self": 0, "total": 0,
                   "self_calls": [], "total_calls": []})
        row["count"] += 1
        row["self"] += own
        row["total"] += total
        row["self_calls"].append(own)
        row["total_calls"].append(total)
    return table


def count_failures(ops, rungs):
    """(attempted, failed, first failure details). ``ops`` holds
    [kind, ok, detail] rows; every serving request is one more
    operation, failed unless its sample's ok flag is set."""
    attempted = failed = 0
    details = []
    for kind, ok, detail in ops:
        attempted += 1
        if not ok:
            failed += 1
            details.append(f"{kind}: {detail}")
    for rung in rungs:
        for sample in rung["samples"]:
            attempted += 1
            if not sample[2]:
                failed += 1
                if len(details) < 20:
                    details.append(
                        f"serve request at {rung['rate']:g} rps")
    return attempted, failed, details[:20]


def rung_latencies(rung):
    """Latencies in microseconds, failed requests as infinity: a
    refused or failed request misses any latency limit."""
    return [s[0] if s[2] else math.inf for s in rung["samples"]]


def backlog_grows(lateness_us):
    """Whether the generator fell further behind over the rung."""
    n = len(lateness_us)
    k = max(1, n // 10)
    if n < 2 * k:
        return False
    first = quantile(lateness_us[:k], 0.5)
    last = quantile(lateness_us[-k:], 0.5)
    return last - first > BACKLOG_GROWTH_US


def pool_rates(slices):
    """The serving ladder per offered rate, in the order first offered.
    A run offers each rate in several slices spread over it; a rate
    pools its slices' seconds and samples and keeps each slice's
    samples apart in ``slices`` for the slice median and the backlog
    check."""
    rates = {}
    for piece in slices:
        rung = rates.setdefault(piece["rate"], {
            "rate": piece["rate"], "seconds": 0.0, "samples": [],
            "slices": []})
        rung["seconds"] += piece["seconds"]
        rung["samples"].extend(piece["samples"])
        rung["slices"].append(piece["samples"])
    return list(rates.values())


def slice_median(rung):
    """Median latency of a pooled rate, as the median of its slices'
    medians: a host slow-down over part of the run moves only the
    slices it covers, and shifts this less than the pooled median."""
    return quantile([quantile(rung_latencies({"samples": piece}), 0.5)
                     for piece in rung["slices"]], 0.5)


def rate_backlog_grows(rung):
    """Whether the backlog grows at a pooled rate: in more than half of
    its slices the generator fell further behind."""
    grows = sum(backlog_grows([s[1] for s in piece])
                for piece in rung["slices"])
    return 2 * grows > len(rung["slices"])


def slo_rate(points, limit):
    """Highest offered rate that meets the latency limit with no
    growing backlog. ``points`` holds (rate, tail_latency, grows) in
    rising rate order; the search stops at the first rate that misses.
    Between the last rate met and the first missed by latency, the rate
    is interpolated linearly in tail latency; a rate missed only by its
    backlog gives the last rate met; below the first rate the rate is
    scaled by limit / tail latency."""
    last = None
    for rate, tail, grows in points:
        if tail <= limit and not grows:
            last = (rate, tail)
            continue
        if last is None:
            if not math.isfinite(tail):
                return 0.0
            return rate * min(1.0, limit / tail)
        if not math.isfinite(tail) or tail <= max(limit, last[1]):
            return last[0]
        share = (limit - last[1]) / (tail - last[1])
        return last[0] + share * (rate - last[0])
    return last[0]
