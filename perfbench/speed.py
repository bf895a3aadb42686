"""Machine-speed probe sampled while the benchmark's operations run.

The benchmark runs on a few cores of a shared host, whose speed drifts with
its other tenants' load: a fixed loop takes from 0.75x to several times its
median time from one second to the next, and even 40 s averages move by 20%
or more.  A wall time alone then mostly measures the neighbours.

While a `SpeedProbe` is entered, an interval timer interrupts the program
every `INTERVAL` seconds of wall time and runs one fixed snippet twice: a few
small numpy calls of the kind the library makes (a stacked 4x4 `slogdet`, an
elementwise `exp` and a sum).  Only the second run is timed.  The first one
refills the caches the program's own work evicted: timed cold, the snippet
read 0.64-0.94 of the reference speed depending on which workload it
interrupted, so a change to the program's memory use would have moved the
scale; timed warm, it read within about 10% of the snippet run alone, on every
workload.  The samples track the machine's speed at the same moments and on
the same core as the program's own work.
`reference_seconds(wall)` converts a wall time measured under the probe into
the time the same work takes at a fixed reference speed, the one at which the
snippet takes `REF_SNIPPET_S` seconds:

    reference = (wall - probe time) * mean(REF_SNIPPET_S / sample)

where the probe time counts both runs of every snippet.

The mean of the speed ratios, not of the sample times, is the right average,
because the work done in an interval is its length times the speed.  Of the
snippets tried (a pure-Python integer loop, a random walk over a large list,
and this one), this one cancelled the drift best on work units of all three
workloads: the coefficient of variation of 3-12 s sums fell from 7.5-8.6% to
2.6-3.8%.  Only the program's own speed enters the figure: a change that
halves its work halves the reference time whatever the host did.
"""

import signal
import time

import numpy as np

INTERVAL = 0.01
# about the snippet's uncontended time on the reference machine (2-vCPU Xeon
# at 2.1 GHz, Python 3.11, numpy 2.4, one BLAS thread); it only sets the
# unit, every comparison between runs is a ratio
REF_SNIPPET_S = 150e-6

_A = np.random.default_rng(0).random((16, 4, 4))
# bound now: the tracer replaces numpy.linalg.slogdet while it is installed
_slogdet = np.linalg.slogdet


def _snippet():
    for _ in range(10):
        _slogdet(_A)
        np.exp(_A).sum()


class SpeedProbe:
    """Samples the snippet's time on SIGALRM while entered; reusable."""

    def __init__(self):
        self.samples = []
        self.probe_seconds = 0.0  # wall time spent in the handler
        self._old = None

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        _snippet()
        t1 = time.perf_counter()
        _snippet()
        t2 = time.perf_counter()
        self.samples.append(t2 - t1)
        self.probe_seconds += t2 - t0

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def scale(self):
        """Mean speed while entered, relative to the reference speed."""
        if not self.samples:
            raise RuntimeError("the speed probe took no sample")
        return sum(REF_SNIPPET_S / s for s in self.samples) / len(self.samples)

    def reference_seconds(self, wall):
        """`wall`, measured under the probe, less the probe's own time,
        at the reference speed."""
        return (wall - self.probe_seconds) * self.scale()
