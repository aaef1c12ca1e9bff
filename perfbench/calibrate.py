"""Machine-speed calibration of operation times.

The benchmark runs on shared machines whose speed for the same code drifts.
On the 2-core virtual machine the benchmark was written on, with nothing else
running inside it, the same pass over a workload took from 1x to 1.4x its
fastest time between runs minutes apart, and a fixed loop slowed by up to 2x
at the same times. Raw wall times spread by 20-35% between runs.

So while operations run, a ``Sampler`` executes a short fixed loop every 0.1 s
of process CPU time (from a SIGPROF handler, between two bytecodes of whatever
runs) and once after each operation; the set-up is sampled every 5 ms. An
operation's calibrated time is its wall time, less the time spent in the
samples, times the loop's reference duration over the mean duration of the
samples taken during it and next to it. A slow period slows the loop and the operation alike and cancels; a change
to the program moves only the operation, since the loops use only the standard
library and numpy. Each workload uses the loop closest to its hot path.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction


def fraction_elimination(n: int = 6) -> None:
    """Exact Gauss-Jordan elimination on a fixed n x n rational matrix, the
    arithmetic of the analyzer's exact LP and linear solves."""
    a = [[Fraction((i * 7 + j * 13) % 11 - 5, (i + j) % 5 + 1) for j in range(n)] + [Fraction(i)] for i in range(n)]
    for c in range(n):
        p = next(r for r in range(c, n) if a[r][c] != 0)
        a[c], a[p] = a[p], a[c]
        pv = a[c][c]
        a[c] = [x / pv for x in a[c]]
        for r in range(n):
            if r != c and a[r][c] != 0:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]


def scalar_steps(steps: int = 256) -> None:
    """Draws picked and applied one at a time, the simulator's scalar path."""
    import numpy as np

    words = np.random.Philox(key=np.array([3, 4], dtype=np.uint64)).random_raw(steps)
    thresholds = np.array([1 << 63], dtype=np.uint64)
    cur, peak, updates = [5, 5], [5, 5], [(1, -1), (-1, 1)]
    for k in range(steps):
        i = int(np.searchsorted(thresholds, np.uint64(int(words[k])), side="right"))
        cur = [c + u for c, u in zip(cur, updates[i])]
        for j, c in enumerate(cur):
            if c > peak[j]:
                peak[j] = c


def block_steps(blocks: int = 8) -> None:
    """Blocks of 4096 draws mapped to branches and summed vectorized, the
    simulator's self-loop fast path."""
    import numpy as np

    bg = np.random.Philox(key=np.array([1, 2], dtype=np.uint64))
    thresholds = np.array([1 << 62, 1 << 63, 3 << 62], dtype=np.uint64)
    updates = np.array([[1], [-1], [2], [-2]], dtype=np.int64)
    for _ in range(blocks):
        idx = np.searchsorted(thresholds, bg.random_raw(4096), side="right")
        pos = np.cumsum(updates[idx], axis=0)
        (pos < -50).any(axis=1)
        pos.max(axis=0)
        np.bincount(idx, minlength=4)


# Each loop with its reference duration in seconds (about its typical time on
# the machine the benchmark was written on, so calibrated times read as
# seconds) and the process CPU time between samples. "setup" samples the
# set-up, which lasts only about 0.1 s, with a smaller loop more often.
LOOPS = {
    "fraction": (fraction_elimination, 0.0016, 0.1),
    "scalar": (scalar_steps, 0.0016, 0.1),
    "block": (block_steps, 0.0015, 0.1),
    "setup": (lambda: fraction_elimination(4), 0.0004, 0.005),
}


class Sampler:
    """Samples of one loop's duration, taken during and between operations.
    Single-threaded use only."""

    def __init__(self, kind: str):
        self.kind = kind
        self.loop, self.reference_s, self.interval_s = LOOPS[kind]
        self.samples: list[tuple[float, float]] = []  # (end time, duration)

    def sample(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        self.loop()
        t1 = time.perf_counter()
        self.samples.append((t1, t1 - t0))

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, self.interval_s, self.interval_s)
        self.sample()

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_IGN)

    def window(self, t0: float, t1: float) -> tuple[float, float]:
        """For an operation that ran from t0 to t1, followed by ``sample()``:
        the time its samples took, and the factor that scales its remaining
        time to the reference speed."""
        inside = [d for end, d in self.samples if t0 < end <= t1]
        before = [d for end, d in self.samples if end <= t0][-1:]
        after = [d for end, d in self.samples if end > t1][:1]
        around = before + inside + after
        return sum(inside), self.reference_s * len(around) / sum(around)

    def median_s(self) -> float:
        durations = sorted(d for _, d in self.samples)
        return durations[len(durations) // 2] if durations else 0.0
