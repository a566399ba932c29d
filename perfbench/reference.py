"""Fixed reference work, timed beside the ops to gauge the host's speed.

The shared host this benchmark runs on changes speed by 1.3x to 3x for
seconds to minutes at a time.  Each run also times work that does not touch
selfsim: the kernel below before and after every pass of in-process ops, and
the start of a Python process that imports numpy before every other cli op
and every set-up.  End-to-end times are scaled by nominal / measured time of
the reference beside them, i.e. reported in seconds at the host speed where
the reference takes its nominal time.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

# about the fastest time of each reference on a 2-vCPU Xeon host; the scale
# they set is arbitrary, what matters is that it never changes
KERNEL_NOMINAL_S = 0.0125
SPAWN_NOMINAL_S = 0.11

_MID = np.random.default_rng(20261017).random(1 << 15)
_BIG = np.random.default_rng(20261018).random(1 << 19)
_PERM = np.random.default_rng(20261019).permutation(1 << 19)


def kernel() -> float:
    """The library's three kinds of work, in fixed amounts: 1000 calls on
    3-element arrays, sort and interpolation of 32768 floats, and a random
    gather and cumulative sum over 524288 floats (4 MiB)."""
    total = 0.0
    for i in range(1000):
        a = np.array((float(i), 1.0, 2.0))
        total += float(a @ a)
    y = np.sort(_MID)
    total += float(np.abs(np.diff(np.interp(_MID, y, _MID))).sum())
    return total + float(np.cumsum(_BIG[_PERM])[-1])


def time_kernel(repeats: int = 3) -> float:
    """Fastest of `repeats` runs of the kernel, in seconds."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def time_spawn(env: dict, repeats: int = 1) -> float:
    """Fastest of `repeats` starts of `python -c "import numpy"`, in seconds."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy"], env=env, check=True, timeout=60)
        best = min(best, time.perf_counter() - t0)
    return best
