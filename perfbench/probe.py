"""Set-up probe: import the package, warm up each operation kind, print the time.

Run by run.py as a fresh process; the parent subtracts its spawn time from
the CLOCK_MONOTONIC stamp printed here, which makes one set-up sample.
Usage: python3 perfbench/probe.py <tables|zeros> <seed>
"""

import sys
import time

import tracelaurent

from workloads import call, tables_ops, warmup_ops, zeros_ops

if __name__ == "__main__":
    workload, seed = sys.argv[1], int(sys.argv[2])
    ops = {"tables": tables_ops, "zeros": zeros_ops}[workload](seed)
    for op in warmup_ops(ops):
        try:
            call(tracelaurent, op)
        except Exception:  # a warm-up that hits a known fault still warms up
            pass
    print(time.clock_gettime(time.CLOCK_MONOTONIC))
