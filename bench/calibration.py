"""Machine-speed sampling, so reported times do not move with the host's load.

On a shared host the CPU speed a process gets changes from one second to
the next: for stretches of 0.3-2 s it runs at about half speed, and the
share of such stretches drifts over minutes.  While a command runs,
``SpeedSampler`` interrupts it every ``INTERVAL_S`` of wall time and times
one run of a small fixed pure-Python job (big-int bit operations and
small arithmetic, the kind of work the highgirth commands spend their
time on).  The mean job time over the timed phase is the mean
slowdown the commands met, so ``scale`` turns a time measured under load
into the time at the reference speed, while a change in the program
still moves it one for one.  The sampling itself costs about 2% of every
command, the same share on every commit.
"""

from __future__ import annotations

import signal
import statistics
import time

#: Job time at full speed on the machine the baseline was recorded on.
REFERENCE_S = 0.0015
INTERVAL_S = 0.1


def job() -> int:
    # Allocates no container: a job that did would trigger collections of
    # the interrupted command's young objects and charge them to the job.
    acc, big = 0, (1 << 900) - 1
    for i in range(8_000):
        acc += (big >> (i % 900)).bit_count() + i * i % 7
    return acc


def timed_job() -> float:
    start = time.perf_counter()
    job()
    return time.perf_counter() - start


class SpeedSampler:
    """Collects job times every ``INTERVAL_S`` while inside ``with``.

    Uses SIGALRM, so it must be entered on the main thread; the handler
    runs between bytecodes of whatever the main thread is executing.
    """

    def __init__(self):
        self.samples: list[float] = []

    def _on_alarm(self, signum, frame):
        self.samples.append(timed_job())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def speed(samples: list[float]) -> float:
    """Mean job time; one unmeasured job if there are no samples yet."""
    return statistics.fmean(samples) if samples else timed_job()


def scale(seconds: float, job_time: float) -> float:
    """``seconds`` as they would read with the job taking REFERENCE_S."""
    return seconds * REFERENCE_S / job_time
