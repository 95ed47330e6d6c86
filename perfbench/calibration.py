"""Machine-speed reference for the benchmark's end-to-end timings.

On a shared host the speed of a core drifts: on the 2-core Xeon the bounds
were set on, the same rigiform command took anywhere from 0.6x to 1.1x its
median time, in spells that last from seconds to minutes.  A 25 s run can
sit wholly inside a slow spell, so wall times of the same code spread by
more than any useful regression bound.

The drift hits interpreter-bound work, many small Python and numpy calls,
hardest.  So the benchmark times a fixed reference loop of that kind, which
imports nothing from rigiform, right before and after every command.  A
command's reported time is its wall time scaled by REFERENCE_S over the
loop's time around it: the time the command would have taken had the core
run at the speed at which the loop takes REFERENCE_S.  A change to rigiform
cannot change the loop, so the scaled time moves with the program exactly as
the wall time does.  Bulk array work is barely slowed by the spells, so
command kinds dominated by it are left unscaled (`UNSCALED` in
workloads.py).  Raw wall times are reported beside the scaled ones in the
run's `info` line.
"""

from __future__ import annotations

from time import perf_counter

# About the loop's time in the fast spells of the 2-core Xeon (2.1 GHz) the
# bounds were set on, where scaled times then read close to wall times.
# Only ratios between runs matter; this fixes the scale.
REFERENCE_S = 2.0e-3
REPEATS = 3  # a sample is the fastest of this many loops, which drops preemptions
ROUNDS = 160


def reference_loop() -> float:
    """Fixed work in the mix rigiform's commands do: Python calls and
    dict and list handling around small numpy array operations."""
    import numpy as np  # here, so that importing this module leaves BLAS unpinned

    base = np.linspace(0.1, 1.0, 10).reshape(5, 2)
    x = base
    turn = np.array([[0.8, -0.6], [0.6, 0.8]])
    seen: dict[int, float] = {}
    total = 0.0
    for i in range(ROUNDS):
        y = x @ turn
        y = y - y.mean(axis=0)
        norms = np.sqrt((y * y).sum(axis=1))
        x = y / (1.0 + norms[:, None]) + 0.1 * base
        total += float(norms.sum())
        seen[i % 13] = total
        total = sum(v for v in seen.values()) / len(seen)
    return total


def sample() -> float:
    """Seconds of one reference loop at the core's current speed."""
    best = float("inf")
    for _ in range(REPEATS):
        start = perf_counter()
        reference_loop()
        best = min(best, perf_counter() - start)
    return best


def scale(wall: float, before: float, after: float) -> float:
    """Wall time scaled to the reference speed, given the loop samples
    taken right before and right after it."""
    return wall * REFERENCE_S / (0.5 * (before + after))
