"""The benchmark's workloads: seeded inputs, timed public calls, output checks.

Each workload has two steps:

* ``setup(seed, workdir)`` — what a user pays before the first call:
  imports plus model construction, or a service start;
* ``repetition(seed, workdir, tracing)`` — one timed pass, returning a
  :class:`Rep` whose output checks ran outside the timed region.

Inputs are a pure function of the seed, so two passes with one seed see
identical inputs (and, the program being deterministic, produce
identical outputs).

Only public entry points are timed: ``repro.workloads.patterns.run_*``
for the DES workloads, ``ServiceClient`` / ``WorkerAgent`` against an
in-process ``SweepService`` for the service workload. Repro modules are
imported inside the functions so ``setup`` times its own imports.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import shutil
import tempfile
import threading
from collections import Counter
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Optional

import numpy as np

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

#: Simulated-time slack when comparing a write's end with a read's start.
_EPS = 1e-9


@dataclass
class Rep:
    """One timed repetition of a workload, with its output checks."""

    wall_s: float
    attempted: int
    failed: int
    #: Host seconds of each SUBMIT round trip (service workload).
    submits_s: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    #: label -> event-log digest (DES workloads).
    digests: dict[str, str] = field(default_factory=dict)
    #: (label, host seconds, work items, gauge seconds) per timed
    #: segment. A label names the same work in every repetition of one
    #: seed; the work items are event-log records (DES calls) or
    #: DONE-acknowledged points (drain chunks), 0 for other segments;
    #: the gauge seconds are one ``host_gauge.gauge()`` run timed right
    #: after the segment (0.0 when no gauge was passed).
    segments: list[tuple[str, float, int, float]] = field(default_factory=list)


def _traced(tracing) -> Any:
    return tracing if tracing is not None else contextlib.nullcontext()


def _gauged(gauge: Optional[Callable[[], float]]) -> float:
    return gauge() if gauge is not None else 0.0


@contextlib.contextmanager
def _stopped(timer: threading.Timer):
    """Cancel ``timer`` on exit and wait for its thread if it started."""
    try:
        yield timer
    finally:
        timer.cancel()
        if timer.is_alive():
            timer.join()


# -- the DES workloads -------------------------------------------------------
@dataclass(frozen=True)
class SimCase:
    """One ``run_*`` call: ``build()`` constructs fresh models and returns
    the zero-argument call; ``expect`` holds its seed-independent counts."""

    label: str
    build: Callable[[], Callable[[], Any]]
    expect: dict


def _measured_jitter():
    """The nekRS / GNN iteration-time lognormals of Table 3."""
    from repro.workloads.nekrs import NekrsValidationSetup

    original = NekrsValidationSetup().original_config()
    return original.sim_iter_time, original.ai_iter_time


def many2one_cases(
    seed: int, n_simulations: int = 127, train_iterations: int = 100, calls: int = 10
) -> list[SimCase]:
    """Pattern 2 as fig6's 128-node, 1 MB, filesystem cell, with jitter:
    ``calls`` runs of ``train_iterations`` each, every one on its own
    seed derived from ``seed``.

    Short calls let a run time each one many times, each beside its own
    gauge run (see ``host_gauge.py``), so the ratio of the two follows
    the host's speed from second to second.
    """
    from repro.experiments.common import backend_models
    from repro.sweep.point import derive_seed
    from repro.transport.models import MB, TransportOpContext
    from repro.workloads.patterns import ManyToOneConfig, run_many_to_one

    sim_time, ai_time = _measured_jitter()
    base = ManyToOneConfig(
        n_simulations=n_simulations,
        train_iterations=train_iterations,
        snapshot_nbytes=1 * MB,
        sim_iter_time=sim_time,
        ai_iter_time=ai_time,
    )
    # fig6_scaling.sweep_point's contexts: one writer per producer node
    # plus the trainer's reader lanes share the staging servers.
    lanes = min(base.reader_lanes, n_simulations)
    n_clients = n_simulations + lanes
    write_ctx = TransportOpContext(local=True, clients_per_server=12, concurrent_clients=n_clients)
    read_ctx = TransportOpContext(
        local=False,
        clients_per_server=12,
        fan_in=n_simulations,
        concurrent_peers=lanes,
        concurrent_clients=n_clients,
    )
    updates = train_iterations // base.read_interval
    expect = {
        "train_iterations": train_iterations,
        "train_records": train_iterations,
        "init_records": 0,
        "reads": updates * n_simulations,
        "write_nbytes": 1 * MB,
        "arrays": 1,
        "all_writes_counted": True,
    }

    def case(index: int) -> SimCase:
        config = dataclasses.replace(base, seed=derive_seed(seed, "perfbench-many2one", index))

        def build():
            model = backend_models()["filesystem"]
            return lambda: run_many_to_one(model, config, write_ctx=write_ctx, read_ctx=read_ctx)

        return SimCase(f"filesystem-{index}", build, expect)

    return [case(index) for index in range(calls)]


def one2one_cases(seed: int, train_iterations: int = 5000) -> list[SimCase]:
    """Pattern 1 as Fig 3(b)'s 1.2 MB column at 512 nodes, with jitter:
    one call per backend, in the paper's order."""
    from repro.experiments.common import PATTERN1_BACKENDS, backend_models, pattern1_context
    from repro.workloads.patterns import OneToOneConfig, run_one_to_one

    sim_time, ai_time = _measured_jitter()
    config = OneToOneConfig(
        sim_iter_time=sim_time,
        ai_iter_time=ai_time,
        write_interval=100,
        read_interval=10,
        train_iterations=train_iterations,
        snapshot_nbytes=1.2e6,
        arrays_per_snapshot=2,
        ranks_per_component=6,
        seed=seed,
    )
    ctx = pattern1_context(512)
    expect = {
        "train_iterations": train_iterations,
        "train_records": train_iterations * config.ranks_per_component,
        "init_records": 2,
        "reads": None,
        "write_nbytes": config.snapshot_nbytes,
        "arrays": config.arrays_per_snapshot,
        "all_writes_counted": False,
    }

    def case(backend: str) -> SimCase:
        def build():
            model = backend_models()[backend]
            return lambda: run_one_to_one(model, config, ctx=ctx)

        return SimCase(backend, build, expect)

    return [case(backend) for backend in PATTERN1_BACKENDS]


def log_digest(log) -> str:
    """SHA-256 over every field of every record, column by column.

    ``EventLog.to_jsonl()`` costs about as much as the run; this covers
    the same fields in a fraction of that (floats by their exact bits).
    """
    records = list(log)
    h = hashlib.sha256()
    for name, dtype in (("start", np.float64), ("duration", np.float64),
                        ("nbytes", np.float64), ("rank", np.int64)):
        h.update(np.fromiter(map(attrgetter(name), records), dtype, len(records)).tobytes())
    for name in ("component", "kind.value", "key"):
        h.update("\n".join(map(attrgetter(name), records)).encode())
    h.update("\n".join(
        json.dumps(r.meta, sort_keys=True) if r.meta else "" for r in records
    ).encode())
    return h.hexdigest()


def result_summary(result) -> dict:
    """The counters a reference pins for one call."""
    return {
        "digest": log_digest(result.log),
        "records": len(result.log),
        "written": result.snapshots_written,
        "read": result.snapshots_read,
        "sim_iterations": result.sim_iterations,
        "train_iterations": result.train_iterations,
    }


def check_pattern(result, expect: dict) -> list[str]:
    """Seed-independent invariants of one healthy pattern run."""
    from repro.telemetry.events import EventKind

    problems = []
    if result.resilience is not None:
        problems.append("fault machinery engaged on a healthy run")
    log = result.log
    kinds = Counter(r.kind for r in log)
    if result.train_iterations != expect["train_iterations"]:
        problems.append(f"{result.train_iterations} train iterations, expected {expect['train_iterations']}")
    if kinds[EventKind.TRAIN] != expect["train_records"]:
        problems.append(f"{kinds[EventKind.TRAIN]} train records, expected {expect['train_records']}")
    if kinds[EventKind.INIT] != expect["init_records"]:
        problems.append(f"{kinds[EventKind.INIT]} init records, expected {expect['init_records']}")
    if expect["reads"] is not None and kinds[EventKind.READ] != expect["reads"]:
        problems.append(f"{kinds[EventKind.READ]} reads, expected {expect['reads']}")
    if expect["all_writes_counted"] and kinds[EventKind.WRITE] != result.snapshots_written:
        problems.append(f"{kinds[EventKind.WRITE]} write records, {result.snapshots_written} counted")
    arrays = expect["arrays"]
    if kinds[EventKind.WRITE] % arrays or kinds[EventKind.READ] % arrays:
        problems.append(f"{kinds[EventKind.WRITE]} writes, {kinds[EventKind.READ]} reads: not whole snapshots of {arrays} arrays")
    written: dict[str, float] = {}
    for r in log:
        if r.kind is EventKind.WRITE:
            if r.nbytes != expect["write_nbytes"]:
                problems.append(f"write {r.key} of {r.nbytes} bytes")
                break
            written[r.key] = r.start + r.duration
    for r in log:
        if r.kind is EventKind.READ:
            end = written.get(r.key)
            if end is None or end > r.start + _EPS:
                problems.append(f"read of {r.key} at {r.start} before it was written")
                break
    if kinds[EventKind.READ] > kinds[EventKind.POLL]:
        problems.append(f"{kinds[EventKind.READ]} reads after only {kinds[EventKind.POLL]} polls")
    return problems


def load_reference(workload: str) -> dict:
    """seed -> label -> pinned counters for the full-size workload."""
    if not REFERENCE_PATH.is_file():
        return {}
    return json.loads(REFERENCE_PATH.read_text()).get(workload, {})


def sim_repetition(
    cases: list[SimCase],
    reference: Optional[dict] = None,
    tracing=None,
    gauge: Optional[Callable[[], float]] = None,
) -> Rep:
    """Run each case once; time only the ``run_*`` calls.

    ``reference`` maps label -> pinned counters (digest included) for
    this seed; without it, the seed-independent invariants still apply.
    A call fails when any check on its output fails. ``gauge``, if
    given, runs right after each call.
    """
    rep = Rep(wall_s=0.0, attempted=0, failed=0)
    for case in cases:
        call = case.build()
        with _traced(tracing):
            start = perf_counter()
            result = call()
            elapsed = perf_counter() - start
        rep.attempted += 1
        rep.wall_s += elapsed
        rep.segments.append((case.label, elapsed, len(result.log), _gauged(gauge)))
        problems = check_pattern(result, case.expect)
        summary = result_summary(result)
        del result
        rep.digests[case.label] = summary["digest"]
        pinned = (reference or {}).get(case.label)
        if pinned is not None:
            for key, want in pinned.items():
                if summary[key] != want:
                    problems.append(f"{key} {summary[key]!r} != reference {want!r}")
        if problems:
            rep.failed += 1
            rep.problems += [f"{case.label}: {p}" for p in problems]
    return rep


# -- the service workload ----------------------------------------------------
@dataclass(frozen=True)
class ServiceSpec:
    grids: int = 100
    points_per_grid: int = 20
    tenants: int = 4
    #: The drain is timed in chunks of this many points, one
    #: ``WorkerAgent.run`` each, so each chunk is timed beside its own
    #: gauge run and compared only with itself over the repetitions
    #: (chunk ``k`` meets the same store state in every repetition).
    drain_chunk: int = 100
    #: A drain that has not finished by then is cut, and its unacked
    #: points count as failed.
    drain_deadline_s: float = 60.0


def service_grids(seed: int, spec: ServiceSpec) -> list[tuple[str, str, list]]:
    """(name, tenant, points) per grid, tenants interleaved in order."""
    from repro.sweep.dist.loadgen import tenant_grid

    out = []
    for g in range(spec.grids):
        tenant, index = g % spec.tenants, g // spec.tenants
        points = tenant_grid(seed, tenant, index, spec.points_per_grid)
        out.append((f"t{tenant}-g{index}", f"tenant{tenant}", points))
    return out


def start_service(store_dir: Path, seed: int):
    from repro.sweep.dist.service import SweepService

    service = SweepService(store_dir / "store.sqlite", host="127.0.0.1", port=0, seed=seed)
    service.start()
    return service


def stop_service(service) -> None:
    service.request_stop()
    service.stop()


def service_repetition(
    seed: int,
    workdir: Path,
    spec: ServiceSpec = ServiceSpec(),
    tracing=None,
    gauge: Optional[Callable[[], float]] = None,
) -> Rep:
    """SUBMIT every grid, drain all points with one worker, fetch RESULTS.

    The service starts on a fresh store under ``workdir`` before the
    timed phases and is stopped (and its store removed) after them. The
    worker drains in chunks of ``spec.drain_chunk`` points, one agent
    (and one connection) per chunk, one after the other. ``gauge``, if
    given, runs right after each timed phase and chunk.
    """
    from repro.errors import SweepError, TransportError
    from repro.sweep.dist import WorkerAgent, WorkerOptions
    from repro.sweep.dist.loadgen import grid_expected
    from repro.sweep.dist.service import ServiceClient
    from repro.sweep.dist.store import JOB_DONE

    grids = service_grids(seed, spec)
    expected = [grid_expected(points) for _, _, points in grids]
    n_points = spec.grids * spec.points_per_grid
    store_dir = Path(tempfile.mkdtemp(prefix="service-", dir=workdir))
    service = start_service(store_dir, seed)
    problems: list[str] = []
    errors = 0
    segments: list[tuple[str, float, int, float]] = []
    reports = []
    agents: list = []
    cut = threading.Event()

    def cut_drain() -> None:
        cut.set()
        agents[-1].request_drain()

    try:
        address = f"{service.host}:{service.port}"
        client = ServiceClient(address, op_timeout=10.0, reconnect_budget=10.0, seed=seed)
        watchdog = threading.Timer(spec.drain_deadline_s, cut_drain)
        submits: list[float] = []
        signatures: list[Optional[str]] = []
        fetched: list[Optional[dict]] = []
        with _traced(tracing), _stopped(watchdog):
            for name, tenant, points in grids:
                start = perf_counter()
                try:
                    reply = client.submit(name, points, tenant=tenant, capture=False)
                except (TransportError, SweepError) as exc:
                    errors += 1
                    problems.append(f"SUBMIT {name}: {exc}")
                    reply = {}
                submits.append(perf_counter() - start)
                signatures.append(reply.get("grid"))
            segments.append(("submit", sum(submits), 0, _gauged(gauge)))
            acked = 0
            for chunk in range(-(-n_points // spec.drain_chunk)):
                size = min(spec.drain_chunk, n_points - chunk * spec.drain_chunk)
                agents.append(WorkerAgent(
                    address,
                    WorkerOptions(max_points=size, seed=seed, op_timeout=10.0, reconnect_budget=10.0),
                    worker_id="perfbench-worker",
                ))
                if chunk == 0:
                    watchdog.start()
                if cut.is_set():
                    break
                start = perf_counter()
                report = agents[-1].run()
                elapsed = perf_counter() - start
                segments.append((f"drain-{chunk}", elapsed,
                                 report.completed - report.duplicates, _gauged(gauge)))
                reports.append(report)
                acked += report.completed - report.duplicates
            start = perf_counter()
            for (name, _, _), grid in zip(grids, signatures):
                if grid is None:
                    fetched.append(None)
                    continue
                try:
                    fetched.append(client.results(grid, decode=False))
                except (TransportError, SweepError) as exc:
                    errors += 1
                    problems.append(f"RESULTS {name}: {exc}")
                    fetched.append(None)
            segments.append(("results", perf_counter() - start, 0, _gauged(gauge)))
    finally:
        stop_service(service)
        shutil.rmtree(store_dir, ignore_errors=True)

    errors += client.busy_refusals + sum(r.busy + r.rejected + r.failed for r in reports)
    unacked = n_points - acked
    if cut.is_set():
        problems.append(f"drain cut after {spec.drain_deadline_s:g} s")
    mismatched = 0
    for (name, _, _), want, got in zip(grids, expected, fetched):
        if got is None:
            continue
        if got["state"] != JOB_DONE:
            problems.append(f"{name} ended {got['state']!r}")
            errors += 1
        bad = sum(1 for i, blob in want.items() if got["results"].get(i) != blob)
        bad += len(set(got["results"]) - set(want))
        if bad:
            problems.append(f"{name}: {bad} result payloads differ from the expected bytes")
            mismatched += bad
    if errors:
        problems.append(f"{errors} -ERR/-BUSY replies or failed requests")
    if unacked:
        problems.append(f"{unacked} points never acknowledged")
    return Rep(
        wall_s=sum(t for _, t, _, _ in segments),
        submits_s=submits,
        segments=segments,
        attempted=spec.grids + n_points + spec.grids,
        failed=errors + unacked + mismatched,
        problems=problems,
    )


# -- the registry ------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    name: str
    #: Returns the call that tears the set-up down again (untimed).
    setup: Callable[[int, Path], Callable[[], None]]
    repetition: Callable[..., Rep]


def sim_workload(name: str, cases: Callable[[int], list[SimCase]], pinned: bool = True) -> Workload:
    """``pinned``: compare outputs with ``reference.json`` for its seeds."""

    def setup(seed: int, workdir: Path) -> Callable[[], None]:
        calls = [case.build() for case in cases(seed)]
        return calls.clear

    def repetition(seed: int, workdir: Path, tracing=None, gauge=None) -> Rep:
        reference = load_reference(name).get(str(seed)) if pinned else None
        return sim_repetition(cases(seed), reference, tracing, gauge)

    return Workload(name, setup, repetition)


def _service_setup(seed: int, workdir: Path) -> Callable[[], None]:
    store_dir = Path(tempfile.mkdtemp(prefix="setup-", dir=workdir))
    try:
        service = start_service(store_dir, seed)
    except BaseException:
        shutil.rmtree(store_dir, ignore_errors=True)
        raise

    def teardown() -> None:
        stop_service(service)
        shutil.rmtree(store_dir, ignore_errors=True)

    return teardown


#: The DES workloads' full-size calls, by workload name.
SIM_CASES = {"many2one-fs128": many2one_cases, "one2one-fig3-512": one2one_cases}

WORKLOADS = {
    w.name: w
    for w in (
        *(sim_workload(name, cases) for name, cases in SIM_CASES.items()),
        Workload(
            "service-backlog",
            _service_setup,
            lambda seed, workdir, tracing=None, gauge=None: service_repetition(
                seed, workdir, tracing=tracing, gauge=gauge
            ),
        ),
    )
}
