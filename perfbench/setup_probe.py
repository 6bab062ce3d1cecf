"""Time one set-up of a workload in a fresh process; prints seconds.

    python3 perfbench/setup_probe.py <workload> <seed> <workdir>

Set-up is importing planarcp (with numpy and scipy), parsing the
workload's scenario file from <workdir> and one warm-up operation.
run.py starts this several times and reports the median as setup_s.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402


def main():
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    workload = workloads.make(name, seed, workdir)
    P = workloads.load_program()
    workload.setup(P)
    workload.warm_up(P)
    print(repr(time.perf_counter() - T0))


if __name__ == "__main__":
    main()
