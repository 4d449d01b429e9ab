"""Host-speed calibration for timings taken on a shared machine.

The hosts this benchmark runs on are shared: identical work measured
minutes apart differed by 40% in wall time (the four-app analysis took
12.6 s in one run and 17.5 s in another).  Wall times are therefore
scaled to a reference host.  A fixed pure-Python kernel, which calls
nothing of the program, is timed right before and after each measured
block and, from a ``SIGALRM`` interval timer, every ``INTERVAL_S``
inside it; the block's wall time, minus the time those samples took, is
multiplied by the mean host speed they saw.  No change to the program
can change the kernel's speed, so a slower program still reads slower.
The kernel runs with the garbage collector off: a collection that the
program's own allocations have made due waits for the program and is
charged to it, not to a host-speed sample.
"""

from __future__ import annotations

import gc
import json
import signal
import time

clock = time.perf_counter

#: Seconds between samples inside a measured block.
INTERVAL_S = 0.05

#: Seconds one kernel run takes on the reference host.  The machine
#: described in ``ledger.json`` takes about 1.1 ms (median of 2000 runs).
KERNEL_REF_S = 0.001

_DATA = [((i * 7919) % 1009, f"k{i}") for i in range(2_000)]
_NAMES = [name for _key, name in _DATA]
_RECORDS = [{"key": name, "value": key, "tags": [key, name]} for key, name in _DATA[:150]]


def _kernel() -> int:
    """Sorting, dict inserts and lookups, and a JSON round trip, over fixed
    data: the interpreter work and the C codec work the workloads do."""
    index = {}
    for key, name in sorted(_DATA):
        index[name] = key
    total = 0
    for name in _NAMES:
        total += index[name]
    return total + len(json.loads(json.dumps(_RECORDS)))


def _timed_kernel() -> float:
    """Seconds one kernel run takes, with no garbage collection inside it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = clock()
        _kernel()
        return clock() - started
    finally:
        if enabled:
            gc.enable()


def sample() -> float:
    """Host speed right now: 1.0 is the reference host, 2.0 twice as fast."""
    return KERNEL_REF_S / _timed_kernel()


class SpeedSampler:
    """Samples host speed on the measured thread while a block runs.

    ``start``/``stop`` bracket one block; ``stop`` returns the mean speed
    over the samples and the seconds the in-block samples took.  Signal
    handlers run on the main thread between bytecodes, so the samples
    interleave with the measured code on the same core.  With ``inside``
    false only the two samples around the block are taken (traced runs,
    whose spans would otherwise absorb the in-block samples).
    """

    def __init__(self, inside: bool = True) -> None:
        self._inside = inside
        self._samples: list[float] = []
        self._stolen = 0.0
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        started = clock()
        self._samples.append(KERNEL_REF_S / _timed_kernel())
        self._stolen += clock() - started

    def start(self) -> None:
        self._samples = [sample()]
        self._stolen = 0.0
        if self._inside:
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> tuple[float, float, float]:
        """Disarm; returns when that was, the mean speed and the stolen seconds."""
        if self._inside:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        stopped = clock()
        if self._inside:
            signal.signal(signal.SIGALRM, self._previous)
        self._samples.append(sample())
        return stopped, sum(self._samples) / len(self._samples), self._stolen
