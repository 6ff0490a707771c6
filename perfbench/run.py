"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics: set-up time (median of
several fresh interpreters), then as many repetitions of the workload as
fit in ``--seconds`` (at least one), reporting times in reference
seconds (see ``host_gauge.py``). ``--trace 1`` makes one untraced and
one traced repetition and reports the per-layer metrics, the tracing
overhead, a per-layer self-time table and a Chrome trace (written under
``perfbench/out/``). The metric names and units are the ones
``BENCHMARK.json`` lists. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
from host_gauge import REFERENCE_S, gauge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
#: Fresh interpreters timed per run for ``setup_s`` (after one that
#: only fills ``__pycache__``).
SETUP_RUNS = 7


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def measure_setup(workload: str, seed: int, workdir: Path) -> tuple[float, float]:
    """(set-up in reference seconds, in host seconds): medians over
    ``SETUP_RUNS`` fresh interpreters, after one that only fills
    ``__pycache__``. Each set-up is divided by the gauge run that follows
    it in the same interpreter."""
    ratios, times = [], []
    for probe in range(SETUP_RUNS + 1):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(workdir)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        setup_s, gauge_s = map(float, done.stdout.split()[-2:])
        if probe:
            ratios.append(setup_s / gauge_s)
            times.append(setup_s)
    return REFERENCE_S * statistics.median(ratios), statistics.median(times)


def check_repeats(reps) -> None:
    """Every repetition of one seed must reproduce the first's outputs."""
    first = reps[0].digests
    for rep in reps[1:]:
        for label, digest in rep.digests.items():
            if digest != first.get(label):
                rep.failed += 1
                rep.problems.append(f"{label}: output differs from the first repetition")


def end_to_end(wl, seed: int, seconds: int, workdir: Path) -> tuple[dict, list]:
    setup_s, setup_host_s = measure_setup(wl.name, seed, workdir)
    start = perf_counter()
    reps = [wl.repetition(seed, workdir, gauge=gauge)]
    longest = perf_counter() - start
    # The high-water mark of set-up plus one repetition, so it does not
    # depend on how many repetitions fit in the run.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # Start another repetition only while it should still end in time.
    while perf_counter() - start + longest <= seconds:
        began = perf_counter()
        reps.append(wl.repetition(seed, workdir, gauge=gauge))
        longest = max(longest, perf_counter() - began)
    check_repeats(reps)
    metrics = {
        "points_per_ref_s": gauged_rate(reps),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s,
        # Reported in the fingerprint only.
        "setup_host_s": setup_host_s,
        "fastest_points_per_s": fastest_rate(reps),
    }
    return metrics, reps


def gauged_rate(reps) -> float:
    """Work items per reference second over the segments that do counted
    work.

    Each segment (one call, or one drain chunk) meets the same input in
    every repetition of a seed. Its time is divided by the gauge run
    timed right after it, the median of that ratio over the repetitions
    is taken, and ``host_gauge.REFERENCE_S`` turns the sum of the
    medians back into seconds: seconds on a host that runs the gauge in
    ``REFERENCE_S``.
    """
    ratios: dict[str, list[float]] = {}
    for rep in reps:
        for label, seconds, _, gauge_s in rep.segments:
            ratios.setdefault(label, []).append(seconds / gauge_s)
    counted = [(label, work) for label, _, work, _ in reps[0].segments if work]
    ref_s = REFERENCE_S * sum(statistics.median(ratios[label]) for label, _ in counted)
    return sum(work for _, work in counted) / ref_s


def fastest_rate(reps) -> float:
    """Work items per host second, each counted segment at its fastest
    over the repetitions (not gated: it moves with the host)."""
    best: dict[str, float] = {}
    for rep in reps:
        for label, seconds, _, _ in rep.segments:
            best[label] = min(seconds, best.get(label, seconds))
    counted = [(label, work) for label, _, work, _ in reps[0].segments if work]
    return sum(work for _, work in counted) / sum(best[label] for label, _ in counted)


def traced(wl, seed: int, workdir: Path) -> tuple[dict, list]:
    from bench_trace import Tracing, layer_metrics, self_time_table, write_trace

    base = wl.repetition(seed, workdir)
    tracing = Tracing()
    rep = wl.repetition(seed, workdir, tracing=tracing)
    reps = [base, rep]
    check_repeats(reps)
    metrics = layer_metrics(tracing)
    # SUBMIT latency as users see it: from the untraced pass.
    submits = np.array(base.submits_s) * 1e3
    for q in (50, 90):
        metrics[f"submit_ms.p{q}"] = float(np.percentile(submits, q)) if len(submits) else 0.0
    metrics["trace.overhead_s"] = rep.wall_s - base.wall_s
    stem = OUT / f"{wl.name}-seed{seed}"
    table = self_time_table(tracing, rep.wall_s)
    Path(f"{stem}.layers.txt").write_text(table)
    write_trace(tracing, f"{stem}.trace.json")
    print(table)
    print(f"chrome trace: {stem}.trace.json (python -m repro trace-summary)")
    return metrics, reps


def metric_units(trace: bool) -> dict[str, str]:
    """name -> unit of the metrics a run reports, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def result_line(values: dict, reps: list, units: dict[str, str]) -> dict:
    failed = sum(r.failed for r in reps)
    return {
        "correct": failed == 0,
        "attempted": sum(r.attempted for r in reps),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if "REPRO_DES_CORE" in os.environ:
        print("refusing to run: REPRO_DES_CORE is set; the benchmark measures the "
              "default heap core", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import bench_workloads
    from repro.benchreport import environment_info
    from repro.des.core import default_core

    if args.workload not in bench_workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(bench_workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if default_core() != "heap":
        print(f"refusing to run: default DES core is {default_core()!r}", file=sys.stderr)
        return 2
    units = metric_units(bool(args.trace))

    wl = bench_workloads.WORKLOADS[args.workload]
    workdir = OUT / "work"
    workdir.mkdir(parents=True, exist_ok=True)
    # Keep SQLite's and Python's temporary files inside the checkout too.
    os.environ["TMPDIR"] = os.environ["SQLITE_TMPDIR"] = str(workdir)
    if args.trace:
        values, reps = traced(wl, args.seed, workdir)
    else:
        values, reps = end_to_end(wl, args.seed, args.seconds, workdir)
    for rep in reps:
        for problem in rep.problems:
            print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({"fingerprint": {
        "workload": wl.name,
        "seed": args.seed,
        "des_core": default_core(),
        "environment": environment_info(),
        "repetitions": len(reps),
        "repetition_wall_s": [rep.wall_s for rep in reps],
        **{k: values[k] for k in ("setup_host_s", "fastest_points_per_s") if k in values},
        "reference_seed": str(args.seed) in bench_workloads.load_reference(wl.name),
        "digests": reps[0].digests,
    }}, sort_keys=True))
    print(json.dumps(result_line(values, reps, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
