"""Self-test of the benchmark on scaled-down workloads.

    python3 -m pytest perfbench -q

Checks that every workload completes, that a run reports exactly the
metrics BENCHMARK.json names with their units, that per-layer counts
repeat exactly for one seed, and that corrupted outputs count as failed
operations.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import bench_workloads as bw  # noqa: E402
import run  # noqa: E402
from bench_trace import Tracing  # noqa: E402

SMALL_SERVICE = bw.ServiceSpec(grids=6, points_per_grid=5, tenants=2, drain_chunk=10, drain_deadline_s=30.0)


def small_workloads() -> dict[str, bw.Workload]:
    """The workloads at a size that runs in about a second each
    (the full-size outputs pinned in reference.json do not apply)."""
    full = bw.WORKLOADS
    return {
        "many2one-fs128": bw.sim_workload(
            "many2one-fs128",
            lambda seed: bw.many2one_cases(seed, n_simulations=15, train_iterations=40, calls=2),
            pinned=False,
        ),
        "one2one-fig3-512": bw.sim_workload(
            "one2one-fig3-512",
            lambda seed: bw.one2one_cases(seed, train_iterations=200),
            pinned=False,
        ),
        "service-backlog": bw.Workload(
            "service-backlog", full["service-backlog"].setup,
            lambda seed, workdir, tracing=None, gauge=None: bw.service_repetition(
                seed, workdir, SMALL_SERVICE, tracing, gauge
            ),
        ),
    }


SMALL = small_workloads()


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_known_workloads():
    assert {w["name"] for w in spec()["workloads"]} <= set(bw.WORKLOADS)


@pytest.mark.parametrize("name", list(SMALL))
def test_small_workload_completes_and_reports_every_metric(name, tmp_path):
    wl = SMALL[name]
    values, reps = run.end_to_end(wl, 3, 1, tmp_path)
    line = run.result_line(values, reps, run.metric_units(False))
    assert line["correct"], [p for r in reps for p in r.problems]
    assert line["attempted"] >= 1 and line["failed"] == 0
    assert {n: m["unit"] for n, m in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec()["end_to_end"]
    }
    assert all(m["value"] > 0 for m in line["metrics"].values())

    values, reps = run.traced(wl, 3, tmp_path)
    line = run.result_line(values, reps, run.metric_units(True))
    assert line["correct"], [p for r in reps for p in r.problems]
    assert {n: m["unit"] for n, m in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec()["per_layer"]
    }
    assert list(tmp_path.iterdir()) == []  # service stores are removed


def _rep(*segments) -> bw.Rep:
    return bw.Rep(0.0, 1, 0, segments=list(segments))


def test_rate_divides_each_segment_by_its_gauge():
    # Segment "a" ran on a host twice as slow in the second repetition:
    # the gauge slowed as much, so both ratios are 10.
    reps = [
        _rep(("a", 1.0, 10, 0.1), ("b", 0.5, 30, 0.1), ("idle", 9.0, 0, 0.1)),
        _rep(("a", 2.0, 10, 0.2), ("b", 1.0, 30, 0.05), ("idle", 0.5, 0, 0.1)),
        _rep(("a", 1.0, 10, 0.1), ("b", 0.6, 30, 0.1), ("idle", 0.5, 0, 0.1)),
    ]
    ref = run.REFERENCE_S
    assert run.gauged_rate(reps) == pytest.approx(40 / (ref * (10 + 6)))
    assert run.fastest_rate(reps) == pytest.approx(40 / (1.0 + 0.5))


def test_gauge_leaves_the_gc_as_it_found_it():
    import gc
    from host_gauge import gauge

    assert gc.isenabled()
    assert gauge() > 0
    assert gc.isenabled()


def test_service_drain_is_timed_in_chunks(tmp_path):
    rep = bw.service_repetition(0, tmp_path, SMALL_SERVICE)
    assert rep.failed == 0, rep.problems
    chunks = [(label, work) for label, _, work, _ in rep.segments if label.startswith("drain-")]
    assert chunks == [("drain-0", 10), ("drain-1", 10), ("drain-2", 10)]


def _counts(wl, seed, workdir) -> dict:
    from bench_trace import layer_metrics

    tracing = Tracing()
    rep = wl.repetition(seed, workdir, tracing=tracing)
    assert rep.failed == 0, rep.problems
    units = run.metric_units(True)
    return {k: v for k, v in layer_metrics(tracing).items() if units[k] == "count"}


@pytest.mark.parametrize("name", list(SMALL))
def test_per_layer_counts_repeat_for_one_seed(name, tmp_path):
    first = _counts(SMALL[name], 5, tmp_path)
    assert first == _counts(SMALL[name], 5, tmp_path)
    assert any(first.values())


def test_tracing_restores_the_program(tmp_path):
    from repro.des import Environment
    from repro.transport.redis_backend import MiniRedisConnection

    before = (Environment.__init__, Environment.run, MiniRedisConnection.command)
    with Tracing():
        assert Environment.run is not before[1]
    assert (Environment.__init__, Environment.run, MiniRedisConnection.command) == before


def _corrupting(monkeypatch, func_name: str, corrupt) -> None:
    import repro.workloads.patterns as patterns

    original = getattr(patterns, func_name)

    def run_and_corrupt(*args, **kwargs):
        result = original(*args, **kwargs)
        return dataclasses.replace(result, log=corrupt(result.log))

    monkeypatch.setattr(patterns, func_name, run_and_corrupt)


@pytest.mark.parametrize("func_name, cases", [
    ("run_many_to_one", lambda: bw.many2one_cases(1, n_simulations=7, train_iterations=20, calls=2)),
    ("run_one_to_one", lambda: bw.one2one_cases(1, train_iterations=200)),
])
def test_corrupted_log_is_a_failed_operation(monkeypatch, func_name, cases):
    from repro.telemetry.events import EventKind, EventLog

    def drop_first_write(log):
        victim = next(r for r in log if r.kind is EventKind.WRITE)
        return EventLog(r for r in log if r is not victim)

    _corrupting(monkeypatch, func_name, drop_first_write)
    rep = bw.sim_repetition(cases())
    assert rep.attempted == len(cases())
    assert rep.failed == rep.attempted


def test_log_differing_from_reference_is_a_failed_operation(monkeypatch):
    from repro.telemetry.events import EventLog

    cases = bw.many2one_cases(2, n_simulations=7, train_iterations=30, calls=1)
    clean = bw.sim_repetition(cases)
    assert clean.failed == 0
    reference = {label: {"digest": d} for label, d in clean.digests.items()}
    assert bw.sim_repetition(cases, reference).failed == 0

    def nudge_last(log):
        records = list(log)
        records[-1] = dataclasses.replace(records[-1], duration=records[-1].duration + 1e-12)
        return EventLog(records)

    _corrupting(monkeypatch, "run_many_to_one", nudge_last)
    rep = bw.sim_repetition(bw.many2one_cases(2, n_simulations=7, train_iterations=30, calls=1), reference)
    assert (rep.attempted, rep.failed) == (1, 1)


def test_corrupted_payload_is_a_failed_operation(monkeypatch, tmp_path):
    from repro.sweep.dist.service import ServiceClient

    original = ServiceClient.results

    def corrupt_results(self, grid, decode=True):
        out = original(self, grid, decode=decode)
        first = min(out["results"])
        out["results"][first] = out["results"][first][:-1] + b"\x00"
        return out

    monkeypatch.setattr(ServiceClient, "results", corrupt_results)
    rep = bw.service_repetition(0, tmp_path, SMALL_SERVICE)
    assert rep.attempted == 2 * SMALL_SERVICE.grids + SMALL_SERVICE.grids * SMALL_SERVICE.points_per_grid
    assert rep.failed == SMALL_SERVICE.grids


def _bench(cwd: Path, env: dict | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "many2one-fs128",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def test_refuses_a_pinned_des_core():
    done = _bench(ROOT, env={**os.environ, "REPRO_DES_CORE": "calendar"})
    assert done.returncode != 0 and done.stdout == ""


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _bench(tmp_path)
    assert done.returncode != 0 and done.stdout == ""
