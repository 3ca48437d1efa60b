"""CPU speed probe: rescales measured times to a reference CPU speed.

The benchmark's host is shared, and the speed a process gets changes over
time.  On the 2-CPU host it was written on, a fixed pure-Python loop moved
between a fast and a slow regime (about 1.6 times slower) every few seconds,
and the share of slow time drifted over minutes, so two identical passes
could differ by 25% or more in wall time.  Sampling a fixed probe during a
pass and dividing it out removes most of this.

The probe is a frozen copy of the kind of code the verifier spends its time
in: a truncated product of two series whose coefficients are table indices,
done with list-of-lists lookups as in the pure-Python kernel.  It imports
nothing from u21hecke, so a change to the program leaves the probe's speed
alone and still shows in full, while a slower or busier machine does not.
It allocates almost nothing, so it never pays for the pass's garbage
collection.  Of the three probes tried (this one, an arithmetic loop, and
filling a dict of tuples), it tracked the passes most closely.

SpeedProbe runs the probe once at start() and then every PERIOD_S seconds
from a SIGALRM handler, so samples are spread evenly in time over whatever
the process is doing.  ref_seconds(a, b) is the time from a to b, minus the
probes taken inside it, rescaled to the speed at which one probe takes
REFERENCE_S (about the host's fast regime):

    ref_seconds = (b - a - probe time) * REFERENCE_S * mean(1 / probe)
"""

import signal
import statistics
import time
from array import array

REPS = 36
REFERENCE_S = 1.0e-3
PERIOD_S = 0.2

_Q = 25
_ADD = [[(i + j) % _Q for j in range(_Q)] for i in range(_Q)]
_MUL = [[(i * j) % _Q for j in range(_Q)] for i in range(_Q)]
_A = tuple((7 * i + 3) % _Q for i in range(24))
_B = tuple((11 * i + 5) % _Q for i in range(24))


def _loop():
    n = len(_A)
    for _ in range(REPS):
        out = [0] * n
        for i, ci in enumerate(_A):
            if ci == 0:
                continue
            mrow = _MUL[ci]
            for j in range(n - i):
                cj = _B[j]
                if cj:
                    out[i + j] = _ADD[out[i + j]][mrow[cj]]
    return tuple(out)


class SpeedProbe:
    def __init__(self):
        self.at = array("d")
        self.took = array("d")
        self._running = False

    def sample(self, *_):
        # a SIGALRM landing inside an explicit call is dropped, so that no
        # probe is ever timed with another one nested in it
        if self._running:
            return
        self._running = True
        try:
            t0 = time.perf_counter()
            _loop()
            self.took.append(time.perf_counter() - t0)
            self.at.append(t0)
        finally:
            self._running = False

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self.sample()

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def _took(self, a, b):
        took = [d for t, d in zip(self.at, self.took) if a <= t <= b]
        if not took:
            raise ValueError("no speed probe inside the interval")
        return took

    def factor(self, a, b):
        """Reference seconds per second of this process from a to b."""
        took = self._took(a, b)
        return REFERENCE_S * statistics.fmean(1.0 / d for d in took)

    def ref_seconds(self, a, b):
        """Seconds from a to b, less the probes inside, at the reference
        speed; at least one probe must have started inside [a, b]."""
        return ((b - a) - sum(self._took(a, b))) * self.factor(a, b)

    def mean_probe_s(self, a, b):
        return statistics.fmean(self._took(a, b))
