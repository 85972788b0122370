"""Host-speed reference for the benchmark's timings.

The 2-core virtual machine the benchmark was built on runs 15-50% slower
for minutes at a time while neighbouring machines are busy; no steal time
is reported, so the slowdown cannot be subtracted.  The benchmark
therefore times a fixed pure-Python loop just before and just after every
timed section and scales the section's wall time by NOMINAL_S over the
mean loop time: the result is what the section would have taken at the
loop's nominal speed.  Raw wall times are printed beside the scaled ones.
"""
import time

LOOP = 60_000
NOMINAL_S = 0.004      # the loop's time on an idle Intel Xeon at 2.0 GHz, Python 3.11


def loop_s() -> float:
    """Wall time of the reference loop, now."""
    start = time.perf_counter()
    total = 0
    for i in range(LOOP):
        total += i * i
    return time.perf_counter() - start


def scale(wall_s: float, before_s: float, after_s: float) -> float:
    """wall_s at nominal host speed, given loop times measured around it."""
    return wall_s * NOMINAL_S / (0.5 * (before_s + after_s))
