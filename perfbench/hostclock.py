"""Host-speed calibration for timed measurements.

The hosts this benchmark runs on are shared: the same pure-Python loop
can take 1.0x or 1.8x its usual time depending on what the neighbours
are doing, and the slow phases last from seconds to minutes.  Raw
wall-clock medians therefore wander by more than any useful regression
bound.

While a timed pass runs, an interval timer interrupts it every
:data:`SAMPLE_INTERVAL_S` and times a short fixed calibration loop that
is independent of the program under test (an integer spin).  An
interval's *calibrated* time is its raw time, less the time spent in
the sampler, scaled by ``REF_CAL_S / (median calibration sample around
the interval)``: host seconds at the reference speed.  A change that
slows the simulator raises calibrated time exactly as it raises raw
time; a host that slows everything at once moves the interval and its
calibration samples together and largely cancels out.  On the reference
host this cut the run-to-run spread of ``train``'s ``wall_s`` from 0.28
to 0.04 (quartile distance over median, five runs each).
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from typing import Dict, List, Tuple

__all__ = ["REF_CAL_S", "SAMPLE_INTERVAL_S", "calibrate", "Meter"]

#: Typical duration of :func:`calibrate` on the reference host (2 vCPU
#: x86-64 Xeon at 2.1 GHz, CPython 3.11.7; it reads 1.0-1.9 ms there
#: across quiet and busy phases), so calibrated seconds read as host
#: seconds on that machine at a middling speed.
REF_CAL_S = 0.0013

#: Seconds between two calibration samples during a timed pass.
SAMPLE_INTERVAL_S = 0.1

#: Samples within this many seconds of an interval also calibrate it, so
#: intervals shorter than the sampling period still get samples.
WINDOW_S = 0.5


def _spin() -> int:
    x = 0
    for i in range(20_000):
        x += i * i
    return x


def calibrate(n: int = 9) -> float:
    """Median raw seconds of ``n`` calibration loops run now (used
    around intervals that cannot be sampled: traced passes, set-up
    probes)."""
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        _spin()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Meter:
    """Times the intervals of one pass against in-pass calibration.

    Usage::

        m = Meter(); m.start_sampling()
        t = m.start(); ...work...; m.stop(t, key)     # per interval
        m.stop_sampling(); m.flush() -> {key: calibrated seconds}

    Intervals recorded under one key are summed.
    """

    def __init__(self) -> None:
        #: (time at sample end, sample duration)
        self.samples: List[Tuple[float, float]] = []
        self._sampler_s = 0.0       # cumulative time spent sampling
        self._intervals: List[Tuple[str, float, float, float]] = []
        self._old_handler = None
        self.raw: Dict[str, float] = {}

    def _sample(self, _signum, _frame) -> None:
        t0 = time.perf_counter()
        _spin()
        t1 = time.perf_counter()
        self.samples.append((t1, t1 - t0))
        self._sampler_s += time.perf_counter() - t0

    def start_sampling(self) -> None:
        self._sample(None, None)
        self._old_handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)

    def stop_sampling(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
        self._sample(None, None)

    def start(self) -> Tuple[float, float]:
        return time.perf_counter(), self._sampler_s

    def stop(self, mark: Tuple[float, float], key: str) -> float:
        """Close an interval opened by :meth:`start`; returns raw seconds
        net of sampling."""
        t1, s1 = time.perf_counter(), self._sampler_s
        t0, s0 = mark
        raw = (t1 - t0) - (s1 - s0)
        self._intervals.append((key, t0, t1, raw))
        return raw

    def flush(self) -> Dict[str, float]:
        """Calibrated seconds per key."""
        times = [t for t, _ in self.samples]
        out: Dict[str, float] = {}
        for key, t0, t1, raw in self._intervals:
            lo = bisect.bisect_left(times, t0 - WINDOW_S)
            hi = bisect.bisect_right(times, t1 + WINDOW_S)
            window = [d for _, d in self.samples[lo:hi]] or \
                [d for _, d in self.samples]
            out[key] = out.get(key, 0.0) + \
                raw * REF_CAL_S / statistics.median(window)
            self.raw[key] = self.raw.get(key, 0.0) + raw
        return out
