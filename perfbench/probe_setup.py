"""Time one workload set-up in this fresh process. Prints the set-up time
and then the median of three reference_loop() times, in seconds.

    python3 perfbench/probe_setup.py <workload> <seed> <workdir>

run.py starts several of these to take the median set-up time, because a
process imports adasub only once.
"""

import statistics
import sys
import time
from pathlib import Path

import workloads

if __name__ == "__main__":
    workload, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    start = time.perf_counter()
    workloads.setup(workload, seed, workdir)
    elapsed = time.perf_counter() - start
    ref = statistics.median(workloads.reference_loop() for _ in range(3))
    print(elapsed, ref)
