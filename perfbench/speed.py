"""Wall time rescaled to a reference CPU speed.

On a shared machine the speed one process gets drifts by tens of
percent within seconds, from load outside it.  While a timed call
runs, a SIGALRM every TICK_S seconds runs a small fixed piece of pure
Python (the probe) and times it.  The call's time less the probes'
time is its net wall time; divided by the mean probe time and
multiplied by REF_PROBE_S it is the time the call would take at the
reference speed, the speed at which one probe takes REF_PROBE_S.  A
probe also runs just before and just after the call, so every call has
at least two samples.

The probes take about 0.4% of a call's time.  A change to colsym moves
the scaled time as it moves the wall time; only the speed of the
machine, which the probes see too, is divided out.
"""
from __future__ import annotations

import signal
import time

TICK_S = 0.025
PROBE_STEPS = 300
REF_PROBE_S = 100e-6


def _probe() -> int:
    d: dict[int, int] = {}
    s = 0
    for i in range(PROBE_STEPS):
        k = (i * 7919) & 255
        d[k] = d.get(k, 0) + i
        s += i * i % 7
    return s


class Timed:
    """`with Timed() as t: call()` sets t.wall_s (net of probes) and t.ref_s."""

    def __enter__(self) -> Timed:
        self.samples: list[float] = []
        self.inside = 0.0
        self._sample()
        self._old = signal.signal(signal.SIGALRM, self._on_tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        t1 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._sample()
        self.wall_s = t1 - self._t0 - self.inside
        self.ref_s = self.wall_s * REF_PROBE_S * len(self.samples) / sum(self.samples)

    def _sample(self) -> float:
        t0 = time.perf_counter()
        _probe()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        return dt

    def _on_tick(self, signum, frame) -> None:
        self.inside += self._sample()
