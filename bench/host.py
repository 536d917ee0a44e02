"""The host's speed, from a fixed reference computation timed during each run.

The benchmark runs on a few cores of a shared machine.  For seconds to
minutes at a time the machine slows every computation on it, by up to
half again or more, and then recovers.  A fixed computation timed
beside the server rises and falls with the server's latency: over 1 s
slices of one run their correlation was 0.99, and over whole runs the
mean probe time explained nearly all the run-to-run spread of every
timing (correlation 0.95-0.96 with throughput).  Ten runs of one
workload that straddled such a phase spread 20-40% on latency medians
and throughput however long the window.

So every end-to-end time is expressed at a reference host speed: an op
is divided by the *host factor* around it — the median time of the
probe runs from half a second before the op started to half a second
after it ended, over ``REFERENCE_S`` — and throughput counts ops per
second of reference time.  ``REFERENCE_S`` is about what the probe
takes on a calm host with the server busy beside it, so on a calm host
the adjusted numbers are the measured ones.  Each run also prints its
measured values and its factor (bench/README.md).
"""

from __future__ import annotations

import bisect
import statistics
import time

#: The probe's time on a calm host (seconds); a factor of 1.
REFERENCE_S = 0.0002
#: Probe runs around an op that count towards its factor (seconds).
AROUND_S = 0.5


def reference_work() -> int:
    """About a fifth of a millisecond of set work, always the same."""
    seen = set()
    for i in range(2000):
        seen.add(i * 7919 % 100003)
    return len(seen)


class HostProbe:
    """Times ``reference_work`` every ``PERIOD_S`` while the caller waits.

    The load loop runs it while a request is out, so it delays a
    response by at most its own fraction of a millisecond, on about one
    op in fifty.
    """

    PERIOD_S = 0.02

    def __init__(self):
        #: start and duration (seconds) of each probe run, in start order
        self.starts: list[float] = []
        self.times: list[float] = []
        self.next_at = 0.0

    def run(self, now: float) -> None:
        if now < self.next_at:
            return
        self.next_at = now + self.PERIOD_S
        start = time.perf_counter()
        reference_work()
        self.times.append(time.perf_counter() - start)
        self.starts.append(start)

    def _between(self, start: float, end: float) -> list[float]:
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        return self.times[lo:hi]

    def factor(self, start: float, end: float, around: float = AROUND_S) -> float:
        """Host factor over [start - around, end + around]: 1 on a calm host."""
        times = self._between(start - around, end + around)
        return statistics.median(times) / REFERENCE_S if times else 1.0

    def reference_seconds(self, start: float, end: float) -> float:
        """[start, end] in reference time: wall time over the factor at each moment.

        The probe runs are evenly spaced, so this is the wall time times
        the mean of REFERENCE_S over each probe's time.
        """
        times = self._between(start, end)
        if not times:
            return end - start
        return (end - start) * statistics.fmean(REFERENCE_S / t for t in times)
