"""Time one workload's set-up in a fresh interpreter; print the seconds
of the set-up and of one ``host_gauge.gauge()`` run after it.

    python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR

Run by ``run.py`` several times per run, because imports can only be
timed once per process. The clock starts before the first repro import
and stops when the workload is ready for its first call; tearing the
set-up down again is not timed. The gauge runs after the teardown, so
no service thread is left to compete with it.
"""

import sys
from pathlib import Path
from time import perf_counter


def main() -> int:
    workload, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    here = Path(__file__).resolve().parent
    sys.path[:0] = [str(here.parent / "src"), str(here)]
    start = perf_counter()
    import bench_workloads

    teardown = bench_workloads.WORKLOADS[workload].setup(seed, workdir)
    elapsed = perf_counter() - start
    teardown()
    from host_gauge import gauge

    print(repr(elapsed), repr(gauge()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
