"""Pure helpers of the benchmark: percentiles, fault intervals, medians.

Nothing here touches the simulator, so the rules the benchmark reports
by can be unit tested on hand-made numbers (``perfbench/tests``).
"""

import math

#: percentiles the benchmark may report, lowest first
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)

#: samples a percentile needs beyond it before it may be reported
MIN_BEYOND = 10


def highest_percentile(count, beyond=MIN_BEYOND, ladder=PERCENTILE_LADDER):
    """The highest ladder percentile with at least ``beyond`` samples above it.

    ``count`` samples leave ``count * (1 - p/100)`` of them beyond the
    ``p``-th percentile.  Returns ``None`` when not even the lowest
    rung qualifies.
    """
    best = None
    for p in ladder:
        # round() absorbs float noise such as 1000 * (1 - 0.99) = 9.999...
        if round(count * (100.0 - p) / 100.0, 6) >= beyond:
            best = p
    return best


def percentile(values, p):
    """Nearest-rank ``p``-th percentile of ``values`` (not necessarily sorted)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values):
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def outage_interval(crash_at, invocations):
    """Seconds from ``crash_at`` to the first completion of an invocation
    due at or after it.

    ``invocations`` is an iterable of ``(due, done)`` pairs, ``done``
    being ``None`` for an invocation that never completed.  Invocations
    due before the crash do not count: they may complete on a token
    that left the crashed processor before it stopped.  Returns
    ``None`` when nothing due after the crash completed.
    """
    best = None
    for due, done in invocations:
        if due >= crash_at and done is not None:
            if best is None or done < best:
                best = done
    return None if best is None else best - crash_at


def detection_interval(fault_at, culprit, installs):
    """Seconds from ``fault_at`` to the first installed membership without
    ``culprit``.

    ``installs`` is an iterable of ``(time, members)`` in the order they
    were observed.  Installations before the fault do not count.
    Returns ``None`` when no later installation excludes the culprit.
    """
    for time, members in installs:
        if time >= fault_at and culprit not in members:
            return time - fault_at
    return None


def capacity_window(offered_from, completions, total, warmup, tail_share=0.1):
    """The steady window of a saturating phase: ``(start, end, count)``.

    The phase offers ``total`` invocations from ``offered_from`` faster
    than the system completes them, so a backlog builds and then
    drains.  The window opens ``warmup`` seconds in and closes when all
    but ``tail_share`` of the phase has completed: the backlog is
    non-empty throughout, so the system runs at capacity.
    ``completions`` are the phase's completion times.  ``count`` is the
    number of completions inside the window.
    """
    done = sorted(completions)
    close_rank = total - int(total * tail_share)
    if len(done) < close_rank or close_rank < 1:
        raise ValueError("saturating phase completed %d of %d" % (len(done), total))
    start = offered_from + warmup
    end = done[close_rank - 1]
    if end <= start:
        raise ValueError("saturating phase drained before its window opened")
    count = sum(1 for t in done if start <= t <= end)
    return start, end, count


def latency_trend(samples):
    """Least-squares slope of latency against due time, in seconds of
    latency per second of the phase.

    ``samples`` are ``(due, latency)`` pairs.  A reference rate below
    capacity gives a slope near zero; a backlog that grows through the
    phase gives a slope near ``1 - capacity / rate``.
    """
    n = len(samples)
    if n < 2:
        raise ValueError("a trend needs two samples")
    mean_x = sum(x for x, _ in samples) / n
    mean_y = sum(y for _, y in samples) / n
    sxx = sum((x - mean_x) ** 2 for x, _ in samples)
    if sxx == 0:
        raise ValueError("all samples share one due time")
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in samples)
    return sxy / sxx
