"""Time one fresh set-up: import numpy and every semicov module, build the jobs.

Prints the elapsed seconds, then the same at nominal host speed
(hostspeed.py).  run.py starts this script several times and reports the
median as setup_s.

    python3 perfbench/setup_probe.py --workload circle-batch --seed 0
"""
import time

import hostspeed

BEFORE = hostspeed.loop_s()
START = time.perf_counter()

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy  # noqa: E402,F401
import semicov.cli  # noqa: E402,F401  (imports every semicov module)

import workloads  # noqa: E402

if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    workloads.build_jobs(args.workload, args.seed)
    took = time.perf_counter() - START
    print(repr(took), repr(hostspeed.scale(took, BEFORE, hostspeed.loop_s())))
