"""Host-speed probe and the meter that turns wall time into probe units.

The 2-core shared host this benchmark was tuned on changes speed in phases
of a few hundred milliseconds to minutes (other tenants share its cores), by
up to 40% between phases.  Raw wall time therefore moves with the host, not
with the program.  The probe is a fixed piece of code owned by the benchmark
(it never calls wyinfo): a pure-Python integer loop, eigendecompositions of
15 small fixed Hermitian matrices, and numpy calls on scalars, about 1 ms in
all.  The numpy-scalar part was added because the pure-Python loop alone
tracked the speed of wyinfo's numpy-heavy code worst of the references
tried: over six repetitions of six operations on that host, normalising by
the loop alone left 8.2% variation on average, by eigh plus numpy scalar
calls 7.7%, against 10-20% for raw wall time.  Both commits of a
comparison run the same probe, so an operation's *cost* -- its own time
divided by the probe time measured around it -- is comparable across them.

The meter runs the probe immediately before and after every timed operation
and, while an operation runs, once every ``SAMPLE_INTERVAL_S`` from a
SIGALRM handler.  A single probe before and after a 10 s operation samples
two instants of a host whose speed changes many times within it; the median
of all samples around and inside the operation tracks the speed the
operation actually saw.  Probe time spent inside an in-process operation is
subtracted from its wall time, and ``Meter.clock`` leaves it out too, so a
tracer timing spans with that clock does not count it in any layer.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Bound at import, before any tracing wrapper replaces numpy.linalg.eigh.
_EIGH = np.linalg.eigh

# Nominal probe time: a cost in probe units times this reads as seconds on a
# host where the probe takes 1 ms (about its median on the 2-core host the
# benchmark was tuned on).
REFERENCE_PROBE_S = 0.001
LOOP_ITERATIONS = 3000
SCALAR_CALLS = 60
SAMPLE_INTERVAL_S = 0.05


def _probe_matrices():
    rng = np.random.default_rng(12345)
    mats = []
    for n in (2, 3, 4, 6, 8):
        for _ in range(3):
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            mats.append(g + g.conj().T)
    return tuple(mats)


_MATS = _probe_matrices()


def probe() -> float:
    """Run the fixed probe once; return its wall time in seconds."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(LOOP_ITERATIONS):
        acc = (acc * 31 + i) % 1000003
    for m in _MATS:
        _EIGH(m)
    for i in range(SCALAR_CALLS):
        x = i + 0.5
        a = np.asarray(x)
        float(np.where(a > 1.0, np.sqrt(x), 0.0) + np.log(x))
    return time.perf_counter() - t0


class Measurement:
    """One timed operation: raw wall, own time, probe reference and cost."""

    __slots__ = ("wall_s", "own_s", "probe_s", "cost")

    def __init__(self, wall_s, own_s, probe_s):
        self.wall_s = wall_s
        self.own_s = own_s
        self.probe_s = probe_s
        self.cost = own_s / probe_s


class Meter:
    """Times operations and expresses them in probe units.

    ``in_process`` says whether the operation runs on this thread; then the
    probe samples taken inside it paused it, and their time is subtracted.
    An operation in a child process keeps running while this process
    probes, so nothing is subtracted.
    """

    def __init__(self):
        self._active = False
        self._samples: list = []
        self._paused_s = 0.0
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame):
        if self._active:
            t0 = time.perf_counter()
            self._samples.append(probe())
            self._paused_s += time.perf_counter() - t0

    def clock(self) -> float:
        """perf_counter() minus the time spent in probe samples so far."""
        return time.perf_counter() - self._paused_s

    def measure(self, fn, in_process: bool = True):
        """Run ``fn()``; return (its result, a Measurement).

        An exception from ``fn`` propagates after the timer is stopped.
        """
        before = probe()
        self._samples = []
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        t0 = time.perf_counter()
        try:
            out = fn()
            wall = time.perf_counter() - t0
        finally:
            self._active = False
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        inside = self._samples
        after = probe()
        own = wall - sum(inside) if in_process else wall
        return out, Measurement(wall, own, statistics.median([before, *inside, after]))
