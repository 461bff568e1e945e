"""The speed of the core a run is on, sampled while the run works.

The host's speed drifts: a fixed piece of Python runs up to 1.7x slower or
faster from one second to the next, in CPU time as in wall time, and not in
step on the two cores (README.md, "Noise").  A run's raw wall time carries
that drift, and ten runs of the same code spread by up to 30%.

A Speedometer interrupts the process every INTERVAL seconds (SIGALRM) and
times a fixed reference step: Fraction arithmetic on small integers, as in
the library's own hot loops.  The samples fall evenly over wall time, so
their mean is the run's average slowness; a measured time is scaled by
REF_S / mean, that is, to the speed at which the reference step takes REF_S.
The reference's own time is taken out of the measured time.  Scaled op times
of one op repeated for a minute spread 5% (quartile distance over median),
where raw ones spread 21%.

The reference is benchmark code, so no change to the library moves it; a
library change that is slower by some share shows as that share.
"""

import gc
import signal
from fractions import Fraction
from time import perf_counter

INTERVAL = 0.01  # seconds between reference steps: ~4% of the run
REF_S = 0.0004  # seconds of one reference step at the nominal speed


def reference_step():
    s = Fraction(0)
    for i in range(1, 60):
        s += Fraction(1, i) * Fraction(i + 1, i + 2)
    return s


class Speedometer:
    """Samples the reference step's time while started; scales the time of
    the spans it was started in.  One at a time per process."""

    def __init__(self):
        self.samples = []  # seconds of each reference step
        self.spent = 0.0  # seconds spent in the handler, reference included

    def _tick(self, signum, frame):
        start = perf_counter()
        enabled = gc.isenabled()
        gc.disable()  # a collection of the library's garbage is not the reference's time
        try:
            t = perf_counter()
            reference_step()
            self.samples.append(perf_counter() - t)
        finally:
            if enabled:
                gc.enable()
            self.spent += perf_counter() - start

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, seconds):
        """seconds, less the sampler's own time in them, at the nominal speed;
        None when there is no sample."""
        if not self.samples:
            return None
        return (seconds - self.spent) * REF_S * len(self.samples) / sum(self.samples)
