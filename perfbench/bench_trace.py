"""The traced run: spans recorded around public calls, from outside.

Nothing under ``src/`` knows about this module. For one traced
repetition, :class:`Tracing` replaces public functions and methods of
the measured program with thin wrappers that record a span per call
(name, start, end, parent, thread) and restores the originals after.
Spans live in per-thread ``array`` buffers, so a sim run's ~1.5 million
spans cost tens of megabytes, not a Python object each. A per-thread
stack gives each span its parent, and a span's self time is its
duration minus the durations of its children.

DES-core calls that happen ~400k times per run and are cheap
(``Environment.timeout`` and ``Environment.process``) are counted, not
timed: a span around each would cost more than the call it measures,
and their time stays in the caller's self time.
"""

from __future__ import annotations

import functools
import threading
from array import array
from time import perf_counter
from typing import Any, Callable, Iterator

import numpy as np

#: Span-name prefix -> the module (layer) whose public call it wraps.
LAYERS = {
    "des.": "des",
    "eventlog.": "telemetry.events",
    "dist.": "config.distributions",
    "simstore.": "transport.simstore",
    "model.": "transport.models",
    "rtt.": "transport.redis_backend",
    "store.": "sweep.dist.store",
    "service.": "sweep.dist.service",
    "protocol.": "sweep.dist.protocol",
}

#: The Chrome trace keeps this many longest spans of each name; the
#: self-time table and every metric cover all spans.
TRACE_SPANS_PER_NAME = 500


def layer_of(name: str) -> str:
    for prefix, layer in LAYERS.items():
        if name.startswith(prefix):
            return layer
    raise KeyError(name)


class _ThreadSpans:
    """One thread's spans, as parallel arrays, plus its open-span stack."""

    __slots__ = ("tid", "names", "starts", "ends", "parents", "stack", "counts")

    def __init__(self, tid: int) -> None:
        self.tid = tid
        self.names = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}


class SpanRecorder:
    """In-memory span store; each thread appends to its own buffer."""

    def __init__(self) -> None:
        self._ids: dict[str, int] = {}
        self.names: list[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self.threads: list[_ThreadSpans] = []
        #: Named latency samples (seconds) measured across calls.
        self.samples: dict[str, list[float]] = {}

    def name_id(self, name: str) -> int:
        with self._lock:
            nid = self._ids.get(name)
            if nid is None:
                nid = self._ids[name] = len(self.names)
                self.names.append(name)
            return nid

    def buffer(self) -> _ThreadSpans:
        try:
            return self._local.buf
        except AttributeError:
            with self._lock:
                buf = _ThreadSpans(len(self.threads))
                self.threads.append(buf)
            self._local.buf = buf
            return buf

    def begin(self, nid: int) -> tuple[_ThreadSpans, int]:
        buf = self.buffer()
        idx = len(buf.names)
        stack = buf.stack
        buf.names.append(nid)
        buf.parents.append(stack[-1] if stack else -1)
        buf.ends.append(0.0)
        buf.starts.append(perf_counter())
        stack.append(idx)
        return buf, idx

    @staticmethod
    def end(buf: _ThreadSpans, idx: int) -> None:
        buf.ends[idx] = perf_counter()
        buf.stack.pop()

    def count(self, name: str) -> None:
        counts = self.buffer().counts
        counts[name] = counts.get(name, 0) + 1

    def sample(self, name: str, seconds: float) -> None:
        self.samples.setdefault(name, []).append(seconds)

    # -- analysis -------------------------------------------------------------
    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        n = len(self.names)
        calls = np.zeros(n)
        total = np.zeros(n)
        own = np.zeros(n)
        for buf in self.threads:
            names = np.frombuffer(buf.names, dtype=np.int32)
            if not len(names):
                continue
            dur = np.frombuffer(buf.ends) - np.frombuffer(buf.starts)
            parents = np.frombuffer(buf.parents, dtype=np.int64)
            nested = parents >= 0
            children = np.bincount(
                parents[nested], weights=dur[nested], minlength=len(dur)
            )
            calls += np.bincount(names, minlength=n)
            total += np.bincount(names, weights=dur, minlength=n)
            own += np.bincount(names, weights=dur - children, minlength=n)
        return {
            name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for buf in self.threads:
            for name, value in buf.counts.items():
                out[name] = out.get(name, 0) + value
        return out

    def durations(self, name: str) -> np.ndarray:
        """Every duration (seconds) of spans called ``name``."""
        nid = self._ids.get(name)
        parts = []
        if nid is not None:
            for buf in self.threads:
                names = np.frombuffer(buf.names, dtype=np.int32)
                mask = names == nid
                parts.append((np.frombuffer(buf.ends) - np.frombuffer(buf.starts))[mask])
        return np.concatenate(parts) if parts else np.zeros(0)

    def longest(self, per_name: int) -> Iterator[tuple[str, int, float, float, str]]:
        """(name, thread, start, end, parent name) of each name's longest spans."""
        for buf in self.threads:
            names = np.frombuffer(buf.names, dtype=np.int32)
            if not len(names):
                continue
            starts = np.frombuffer(buf.starts)
            ends = np.frombuffer(buf.ends)
            parents = np.frombuffer(buf.parents, dtype=np.int64)
            dur = ends - starts
            for nid in np.unique(names):
                idx = np.flatnonzero(names == nid)
                if len(idx) > per_name:
                    idx = idx[np.argpartition(dur[idx], -per_name)[-per_name:]]
                for i in idx:
                    parent = parents[i]
                    yield (
                        self.names[nid],
                        buf.tid,
                        float(starts[i]),
                        float(ends[i]),
                        self.names[names[parent]] if parent >= 0 else "",
                    )


# -- wrappers ----------------------------------------------------------------
def timed(rec: SpanRecorder, name: str, fn: Callable) -> Callable:
    """``fn`` with one span per call."""
    nid = rec.name_id(name)
    begin, end = rec.begin, rec.end

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        buf, idx = begin(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            end(buf, idx)

    return wrapper


def timed_generator(rec: SpanRecorder, name: str, fn: Callable) -> Callable:
    """A generator function whose every resume is one span.

    The DES drives these generators with ``yield from``; a resume is the
    host work between two simulated waits, so the span never includes
    simulated time. Each call also counts once under ``name``.
    """
    nid = rec.name_id(name)
    begin, end = rec.begin, rec.end

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.count(name)
        gen = fn(*args, **kwargs)
        value: Any = None
        error: BaseException | None = None
        while True:
            buf, idx = begin(nid)
            try:
                yielded = gen.send(value) if error is None else gen.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                end(buf, idx)
            try:
                value = yield yielded
                error = None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # delivered into the wrapped generator
                value, error = None, exc

    return wrapper


def counted(rec: SpanRecorder, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.count(name)
        return fn(*args, **kwargs)

    return wrapper


class Tracing:
    """Install the wrappers on enter, restore the originals on exit."""

    def __init__(self) -> None:
        self.rec = SpanRecorder()
        self.probes: list = []
        self._saved: list[tuple[Any, str, Any]] = []

    def _replace(self, owner: Any, attr: str, new: Any) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _wrap_method(self, cls: type, attr: str, make: Callable, name: str) -> None:
        self._replace(cls, attr, make(self.rec, name, cls.__dict__[attr]))

    def __enter__(self) -> "Tracing":
        try:
            self._install()
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)

    def _install(self) -> None:
        from repro.config.distributions import Distribution
        from repro.des import CountingProbe, Environment
        from repro.sweep.dist import protocol, service, store
        from repro.telemetry.events import EventLog
        from repro.transport.models import BackendModel
        from repro.transport.redis_backend import MiniRedisConnection
        from repro.transport.simstore import SimDataStore

        rec = self.rec
        probes = self.probes
        init = Environment.__dict__["__init__"]

        @functools.wraps(init)
        def env_init(env, initial_time=0.0, probe=None, core=None):
            if probe is None:
                probe = CountingProbe()
                probes.append(probe)
            init(env, initial_time, probe, core)

        self._replace(Environment, "__init__", env_init)
        self._wrap_method(Environment, "run", timed, "des.run")
        self._wrap_method(Environment, "timeout", counted, "des.timeouts")
        self._wrap_method(Environment, "process", counted, "des.processes")
        self._wrap_method(EventLog, "add", timed, "eventlog.add")
        for cls in _with_attr(Distribution, "sample"):
            self._wrap_method(cls, "sample", timed, "dist.sample")
        for op in ("write", "read"):
            self._wrap_method(SimDataStore, f"stage_{op}", timed_generator, f"simstore.{op}")
        self._wrap_method(SimDataStore, "poll_staged_data", timed_generator, "simstore.poll")
        for attr in ("write_time", "read_time", "poll_time"):
            for cls in _with_attr(BackendModel, attr):
                self._wrap_method(cls, attr, timed, f"model.{attr}")
        self._replace(MiniRedisConnection, "command", self._command_wrapper(
            MiniRedisConnection.__dict__["command"]
        ))
        for attr in ("record_done", "submit_job", "done_payloads"):
            self._wrap_method(store.SweepStore, attr, timed, f"store.{attr}")
        self._wrap_method(service.SweepService, "submit", timed, "service.submit")
        for attr in (
            "dump_result", "load_result", "dump_submission", "load_submission",
            "dump_results_reply", "load_results_reply",
        ):
            wrapped = timed(rec, f"protocol.{attr}", protocol.__dict__[attr])
            # Modules that imported the name bind their own reference.
            for module in (protocol, service):
                if attr in module.__dict__:
                    self._replace(module, attr, wrapped)
        assignment = protocol.Assignment
        self._wrap_method(assignment, "to_bytes", timed, "protocol.assignment_to_bytes")
        from_bytes = assignment.__dict__["from_bytes"].__func__
        self._replace(assignment, "from_bytes", classmethod(
            timed(rec, "protocol.assignment_from_bytes", from_bytes)
        ))

    def _command_wrapper(self, command: Callable) -> Callable:
        """One ``rtt.<COMMAND>`` span per round trip, plus the worker's
        CLAIM-sent-to-DONE-acked time per point."""
        rec = self.rec
        local = threading.local()

        @functools.wraps(command)
        def wrapper(conn, *parts):
            name = str(parts[0])
            buf, idx = rec.begin(rec.name_id(f"rtt.{name}"))
            start = buf.starts[idx]
            try:
                reply = command(conn, *parts)
            finally:
                rec.end(buf, idx)
            if name == "CLAIM" and isinstance(reply, (bytes, bytearray)):
                local.claimed = start
            elif name == "DONE" and getattr(local, "claimed", None) is not None:
                rec.sample("worker.point", buf.ends[idx] - local.claimed)
                local.claimed = None
            return reply

        return wrapper


def _with_attr(base: type, attr: str) -> list[type]:
    """``base`` and every subclass that defines ``attr`` itself."""
    out, todo = [], [base]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if attr in cls.__dict__ and cls not in out:
            out.append(cls)
    return out


# -- reporting ---------------------------------------------------------------
def _ms(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q) * 1e3) if len(values) else 0.0


def layer_metrics(tracing: Tracing) -> dict[str, float]:
    """The per-layer metrics of one traced repetition (before overhead)."""
    rec = tracing.rec
    totals = rec.totals()
    counts = rec.counts()

    def calls(prefix: str) -> int:
        return sum(v["calls"] for n, v in totals.items() if n.startswith(prefix))

    def self_s(prefix: str) -> float:
        return sum(v["self_s"] for n, v in totals.items() if n.startswith(prefix))

    dur = rec.durations
    worker = np.asarray(rec.samples.get("worker.point", []))
    return {
        "des.events": sum(p.processed for p in tracing.probes),
        "des.timeouts": counts.get("des.timeouts", 0),
        "des.processes": counts.get("des.processes", 0),
        "des.run_self_s": self_s("des.run"),
        "eventlog.adds": calls("eventlog."),
        "eventlog.add_s": self_s("eventlog."),
        "dist.samples": calls("dist."),
        "dist.sample_s": self_s("dist."),
        "simstore.writes": counts.get("simstore.write", 0),
        "simstore.reads": counts.get("simstore.read", 0),
        "simstore.polls": counts.get("simstore.poll", 0),
        "simstore.op_s": self_s("simstore."),
        "model.calls": calls("model."),
        "model.s": self_s("model."),
        "rtt.commands": calls("rtt."),
        "rtt.claim_ms.p50": _ms(dur("rtt.CLAIM"), 50),
        "rtt.claim_ms.p99": _ms(dur("rtt.CLAIM"), 99),
        "rtt.done_ms.p50": _ms(dur("rtt.DONE"), 50),
        "rtt.done_ms.p99": _ms(dur("rtt.DONE"), 99),
        "rtt.spans_ms.p50": _ms(dur("rtt.SPANS"), 50),
        "rtt.results_ms.p50": _ms(dur("rtt.RESULTS"), 50),
        "rtt.results_ms.p90": _ms(dur("rtt.RESULTS"), 90),
        "worker.point_ms.p50": _ms(worker, 50),
        "worker.point_ms.p99": _ms(worker, 99),
        "store.record_done_ms.p50": _ms(dur("store.record_done"), 50),
        "store.record_done_ms.p99": _ms(dur("store.record_done"), 99),
        "store.submit_job_ms.p50": _ms(dur("store.submit_job"), 50),
        "store.done_payloads_ms.p50": _ms(dur("store.done_payloads"), 50),
        "service.submit_ms.p50": _ms(dur("service.submit"), 50),
        "protocol.calls": calls("protocol."),
        "protocol.pickle_s": self_s("protocol."),
    }


def self_time_table(tracing: Tracing, wall_s: float) -> str:
    """Per-layer and per-span calls, total and self seconds, as text."""
    totals = {n: v for n, v in tracing.rec.totals().items() if v["calls"]}
    by_layer: dict[str, list[float]] = {}
    for name, v in totals.items():
        row = by_layer.setdefault(layer_of(name), [0, 0.0])
        row[0] += v["calls"]
        row[1] += v["self_s"]
    lines = [f"traced wall {wall_s:.3f} s", "", f"{'layer':<26}{'calls':>11}{'self s':>10}{'share':>8}"]
    for layer, (n, own) in sorted(by_layer.items(), key=lambda kv: -kv[1][1]):
        lines.append(f"{layer:<26}{n:>11}{own:>10.3f}{own / wall_s:>8.1%}")
    lines += ["", f"{'span':<34}{'calls':>11}{'total s':>10}{'self s':>10}"]
    for name, v in sorted(totals.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(f"{name:<34}{v['calls']:>11}{v['total_s']:>10.3f}{v['self_s']:>10.3f}")
    counts = tracing.rec.counts()
    if counts:
        lines += ["", "calls counted: " + ", ".join(f"{k} {v}" for k, v in sorted(counts.items()))]
    return "\n".join(lines) + "\n"


def write_trace(tracing: Tracing, path: str) -> int:
    """Write each name's longest spans as Chrome trace-event JSON.

    One track (pid) per layer, one thread row per recording thread, so
    ``python -m repro trace-summary`` lists the slowest calls per layer.
    """
    from repro.telemetry.chrome_trace import write_chrome_trace
    from repro.telemetry.tracing import Tracer

    spans = list(tracing.rec.longest(TRACE_SPANS_PER_NAME))
    origin = min((span[2] for span in spans), default=0.0)
    tracer = Tracer(clock=lambda: 0.0)
    for name, tid, start, end, parent in spans:
        tracer.add_span(
            name, start - origin, end - start,
            category=layer_of(name), pid=layer_of(name), tid=tid, parent=parent,
        )
    return write_chrome_trace(path, tracer=tracer)
