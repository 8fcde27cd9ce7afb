"""Frozen host-speed probe.  NEVER EDIT THIS FILE AFTER THE PR THAT ADDED IT.

Every host-time metric of the benchmark is reported as
``time * CALIB_REF_MS / slice_ms`` (README.md, "Normalisation"), where
the slices are taken on the CPU that does the work, between operations.
Changing the loop body, ``ITERATIONS`` or ``CALIB_REF_MS`` re-bases every
number ever recorded and makes old and new results incomparable.  If the
probe must change, that is a new benchmark: record a new baseline and
say so.

The loop is pure Python on purpose (no numpy): the simulator is
interpreter-bound, and the probe must slow down and speed up with the
interpreter, not with a BLAS kernel.  A slice is timed in thread CPU
time, so another runnable process on the same CPU stretches the wall but
not the reading.

``python3 probe.py --selfcheck`` takes 20 readings and prints their
spread, to show how steady the yardstick itself is on this host.
"""

import sys
import time

#: Loop trips per slice; fixed.
ITERATIONS = 100_000
#: The slice reading, in ms, that "1.0x host speed" means: the fast-state
#: reading of the box the baseline was recorded on.  A reading of
#: 2 * CALIB_REF_MS means this CPU currently runs Python at half speed.
CALIB_REF_MS = 11.0


def slice_ms() -> float:
    """CPU milliseconds this thread needs for one fixed slice of work."""
    table = list(range(64))
    lookup = {i: i * 3 for i in range(32)}
    acc = 0
    start = time.thread_time()
    for i in range(ITERATIONS):
        acc = (acc + table[i & 63] * 3 + lookup[i & 31]) & 0xFFFFFF
        if acc & 1:
            acc ^= i
    return (time.thread_time() - start) * 1000.0


def probe_ms() -> float:
    """One reading: the fastest of three slices."""
    return min(slice_ms(), slice_ms(), slice_ms())


def _selfcheck() -> int:
    import statistics

    readings = [probe_ms() for _ in range(20)]
    q1, med, q3 = statistics.quantiles(readings, n=4)
    print(f"probe: median {med:.3f} ms, quartiles {q1:.3f}..{q3:.3f} ms, "
          f"min {min(readings):.3f}, max {max(readings):.3f}, "
          f"iqr/median {100.0 * (q3 - q1) / med:.2f} %, "
          f"CALIB_REF_MS {CALIB_REF_MS}")
    return 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--selfcheck"]:
        sys.exit(_selfcheck())
    print(f"{probe_ms():.3f}")
