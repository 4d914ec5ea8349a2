"""Host speed, measured with a fixed loop between operations.

The shared 2-core host this benchmark was built on changes speed by up to
1.6x within a minute while CPU time stays equal to wall time: another
tenant's load, not this process, sets the pace (see README.md).  Every
timed workload therefore samples a fixed pure-Python loop (the
*yardstick*) between its operations, when nothing else of the benchmark
runs, and reports each operation's time scaled by ``NOMINAL_S`` over the
yardstick time around it: the time the operation would have taken at the
host's nominal speed.

The loop touches no ``repro`` code and allocates no container objects, so
no change to the program (nor its heap, through garbage collection) can
change the yardstick.
"""

from __future__ import annotations

import time

from stats import median

#: yardstick seconds at nominal host speed (the fastest steady regime
#: measured on the reference host, a 2-vCPU Xeon guest)
NOMINAL_S = 0.0018
_LOOPS = 20000
_TABLE = [(i * 7919) % 251 for i in range(256)]


def _loop() -> int:
    table = _TABLE
    acc = 0
    for i in range(_LOOPS):
        acc = (acc + table[(i ^ acc) & 255]) & 0xFFFF
    return acc


class HostSpeed:
    """Yardstick samples taken between operations."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> None:
        # best of two back-to-back runs: one run can absorb an interrupt
        best = float("inf")
        for _ in range(2):
            t0 = time.perf_counter()
            _loop()
            best = min(best, time.perf_counter() - t0)
        self.samples.append(best)

    def normalize(self, raw_s: float) -> float:
        """Sample again and scale ``raw_s``, the time of what ran since the
        previous sample, by nominal over the mean of the two samples."""
        self.sample()
        before, after = self.samples[-2:]
        return raw_s * NOMINAL_S * 2 / (before + after)

    def slowdown(self) -> float:
        """Median yardstick time over nominal (1.0 = nominal speed)."""
        return median(self.samples) / NOMINAL_S
