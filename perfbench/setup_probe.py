"""Set-up probe: a fresh interpreter imports spolyreg, runs one workload's
first operation and prints time.monotonic() when it has finished.

    python3 perfbench/setup_probe.py <workload> <seed> <workdir>

run.py starts this script several times per run and subtracts the
monotonic time at which it started the process.  The workload inputs
must already be in <workdir>.
"""
import sys
import time


def main() -> int:
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    import workloads

    workloads.WORKLOADS[name](seed, workdir).first_op()
    print(repr(time.monotonic()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
