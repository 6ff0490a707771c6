"""Pin the DES workload's outputs for a set of seeds in reference.json.

    python3 perfbench/make_reference.py [--workload NAME] 0 1 2 ...

For every seed, runs each full-size DES workload once and records the
event-log digest and counters of every ``run_*`` call. The benchmark
then fails any run whose output differs for a pinned seed. Regenerate
only when a change is meant to alter simulated output, and say so.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv: list[str]) -> int:
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    import bench_workloads as bw

    names = list(bw.SIM_CASES)
    if argv[:1] == ["--workload"]:
        names, argv = argv[1:2], argv[2:]
    seeds = [int(s) for s in argv] or list(range(10))
    reference = json.loads(bw.REFERENCE_PATH.read_text()) if bw.REFERENCE_PATH.is_file() else {}
    for name in names:
        make = bw.SIM_CASES[name]
        # A workload's pins are replaced whole: its calls may have changed.
        pinned = reference[name] = {}
        for seed in seeds:
            entry = {}
            for case in make(seed):
                result = case.build()()
                problems = bw.check_pattern(result, case.expect)
                if problems:
                    raise SystemExit(f"{name} seed {seed} {case.label}: {problems}")
                entry[case.label] = bw.result_summary(result)
                del result
            pinned[str(seed)] = entry
            print(name, seed, {k: v["records"] for k, v in entry.items()}, flush=True)
    bw.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
