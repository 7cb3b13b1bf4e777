"""Host-speed sampling, so that timings do not follow the host's speed phases.

On a shared host a vCPU runs at one of two speeds, and the speed switches
within tenths of a second or holds for minutes.  All work slows with it,
by about 1.3x (arrays of hundreds of kB) to 1.9x (numpy calls on small
arrays), so a wall time mostly says which phase the run met.

While a repetition runs, a timer signal every PERIOD_S runs a fixed
reference kernel, which does not use g2flow, and records how long the
kernel took.  ``scaled(t0, t1)`` turns the wall time of an interval into
its time at the reference speed: the wall time, less the kernel's own
time inside the interval, times (REF / median kernel time in the
interval) ** EXPONENT.  The median, not the mean, so that one kernel call
that the host happened to preempt does not rescale the whole interval.
A change to g2flow leaves the kernel alone, so it moves the scaled time as
much as it moves the wall time; a change of host phase moves both the
interval and the kernel, and mostly cancels.

The kernel mixes the program's kinds of work: a pure-Python loop, numpy
calls on 32-element arrays, and a roll of a 6 x 64 x 64 field.  The roll
takes the fields in turn from a ring of FIELDS, 2.4 MB in all, more than
one core's L2 cache, so its field is never still cached from the last
sample however small the program's own working set is.  Before
numpy is imported (during set-up) only the Python part runs, and set-up
is scaled by that part alone.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.01
PY_ITERATIONS = 300
SMALL_CALLS = 5
FIELDS = 12

# Kernel times in the fast phase of a 2-vCPU Intel Xeon guest.  They only
# set the scale of the reported times (scaled times read within about 2x
# of wall times there); comparisons made with the same benchmark code
# cancel them.
REF_PY_S = 1.7e-5
REF_FULL_S = 1.4e-4

# The program slows less with the host phase than the kernel does: over
# about 500 repetitions of the three workloads, log wall time against
# log kernel time had slopes of 0.55-1.15, most near 0.75 (run) and 1.0
# (set-up).  A full correction (1.0) made scaled times fall as the host
# slowed; 0.8 leaves the least dependence on the phase across workloads.
EXPONENT = 0.8


class SpeedSampler:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        # (start, python part s, numpy part s or None, whole handler s)
        self.samples: list[tuple] = []
        self._arrays = None
        self._next_field = 0
        self._previous = None

    def use_numpy(self) -> None:
        """Add the numpy part to the kernel.  Call once numpy is imported,
        and before anything patches numpy (the tracer wraps numpy.roll)."""
        import numpy

        small = numpy.linspace(0.0, 1.0, 32)
        fields = numpy.random.default_rng(0).random((FIELDS, 6, 64, 64))
        self._arrays = (small, fields, numpy.exp, numpy.zeros_like, numpy.roll)

    def _kernel_py(self) -> int:
        total = 0
        for i in range(PY_ITERATIONS):
            total += i
        return total

    def _kernel_numpy(self) -> None:
        small, fields, exp, zeros_like, roll = self._arrays
        for _ in range(SMALL_CALLS):
            w = zeros_like(small)
            z = small + 0.5
            w += 0.3 * exp(-z * z / 0.01)
        roll(fields[self._next_field], 1, axis=1)
        self._next_field = (self._next_field + 1) % FIELDS

    def _handler(self, signum, frame) -> None:
        clock = self.clock
        start = clock()
        self._kernel_py()
        mid = clock()
        numpy_s = None
        if self._arrays is not None:
            self._kernel_numpy()
            numpy_s = clock() - mid
        self.samples.append((start, mid - start, numpy_s, clock() - start))

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds that [t0, t1] would take at the reference speed.

        Uses the full kernel where every sample in the interval has its
        numpy part, else the Python part.  Raises ValueError when no sample
        fell in the interval (it was shorter than about PERIOD_S).
        """
        inside = [s for s in self.samples if t0 <= s[0] <= t1]
        if not inside:
            raise ValueError(f"no speed sample in an interval of {t1 - t0:.4f} s")
        handler_s = sum(s[3] for s in inside)
        if all(s[2] is not None for s in inside):
            kernel = statistics.median(s[1] + s[2] for s in inside)
            ref = REF_FULL_S
        else:
            kernel = statistics.median(s[1] for s in inside)
            ref = REF_PY_S
        return (t1 - t0 - handler_s) * (ref / kernel) ** EXPONENT
