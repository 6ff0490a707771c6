"""The discrete-event simulation core: :class:`Environment` and :class:`Process`.

The :class:`Environment` owns the event calendar (a binary heap keyed on
``(time, priority, sequence)``) and the simulation clock. Processes are
Python generators that ``yield`` events; the value sent back into the
generator is the event's value, so simulated code reads naturally::

    def producer(env, store):
        while True:
            yield env.timeout(1.0)
            yield store.put("item")

Determinism: given the same process structure and the same seeded RNG
streams, event ordering is fully deterministic because ties are broken by a
monotonically increasing sequence number.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import TYPE_CHECKING, Any, Generator, Iterable, Optional

from repro.des.events import (
    NORMAL,
    AllOf,
    AnyOf,
    Event,
    Initialize,
    Interrupt,
    Timeout,
)
from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.des.probe import Probe

ProcessGenerator = Generator[Event, Any, Any]


def default_core() -> str:
    """Name of the event core. The binary heap is the only one; this stays
    so run fingerprints that record the core keep their field."""
    return "heap"


class EmptySchedule(SimulationError):
    """Raised by :meth:`Environment.step` when no events remain."""


class StopProcess(Exception):
    """Raised internally to abort :meth:`Environment.run` at ``until``."""


def _detached(event: "Event") -> None:
    """No-op callback left behind when a process detaches from an event.

    Detaching swaps the process's resume callback for this sentinel
    instead of calling ``list.remove``: no tail shifting, and the other
    callbacks keep their exact positions, so run order is bit-identical
    to a removal.
    """


class Process(Event):
    """A process wraps a generator of events and is itself an event.

    The process event triggers with the generator's return value when the
    generator terminates, so other processes can wait on it ("join").
    """

    __slots__ = ("_generator", "_target", "name", "_resume_cb")

    def __init__(
        self,
        env: "Environment",
        generator: ProcessGenerator,
        name: Optional[str] = None,
    ) -> None:
        if not hasattr(generator, "throw"):
            raise SimulationError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        # One bound method reused for every wait: appending self._resume
        # directly would allocate a fresh bound-method object per yield.
        self._resume_cb = self._resume
        # The event the process is currently waiting on (None when resuming).
        self._target: Optional[Event] = Initialize(env)
        self._target.callbacks.append(self._resume_cb)

    @property
    def target(self) -> Optional[Event]:
        """The event this process is currently waiting for."""
        return self._target

    @property
    def is_alive(self) -> bool:
        """True while the process generator has not terminated."""
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a dead process is an error; interrupting a process
        waiting on an event detaches it from that event.
        """
        if not self.is_alive:
            raise SimulationError(f"cannot interrupt dead process {self.name!r}")
        if self is self.env.active_process:
            raise SimulationError("a process cannot interrupt itself")
        # Deliver via an urgent event so interrupt ordering is deterministic.
        event = Event(self.env)
        event._ok = False
        event._value = Interrupt(cause)
        event._triggered = True
        self.env.schedule(event, priority=0)
        assert event.callbacks is not None
        event.callbacks.append(self._resume_interrupt)

    # -- generator driving ------------------------------------------------
    def _resume_interrupt(self, event: Event) -> None:
        if not self.is_alive:
            return  # terminated before the interrupt was delivered
        # Detach from the event we were waiting on (sentinel swap, see
        # :func:`_detached`).
        if self._target is not None and self._target.callbacks is not None:
            callbacks = self._target.callbacks
            try:
                callbacks[callbacks.index(self._resume_cb)] = _detached
            except ValueError:
                pass
        self._target = None
        self._resume(event)

    def _resume(self, event: Event) -> None:
        env = self.env
        env._active_proc = self
        if env.probe is not None:
            env.probe.on_process_switch(env, self)
        send = self._generator.send
        throw = self._generator.throw
        try:
            while True:
                try:
                    if event._ok:
                        next_event = send(event._value)
                    else:
                        # Mark the failure as handled: the process sees it.
                        next_event = throw(event._value)
                except StopIteration as exc:
                    self._ok = True
                    self._value = exc.value
                    self._triggered = True
                    env.schedule(self)
                    break
                except BaseException as exc:
                    self._ok = False
                    self._value = exc
                    self._triggered = True
                    env.schedule(self)
                    break

                if not isinstance(next_event, Event):
                    exc2 = SimulationError(
                        f"process {self.name!r} yielded a non-event: {next_event!r}"
                    )
                    try:
                        next_event = self._generator.throw(exc2)
                        continue
                    except StopIteration as stop:
                        self._ok = True
                        self._value = stop.value
                        self._triggered = True
                        env.schedule(self)
                        break
                    except BaseException as exc3:
                        self._ok = False
                        self._value = exc3
                        self._triggered = True
                        env.schedule(self)
                        break

                if next_event._processed:
                    # Already happened: resume immediately with its value.
                    event = next_event
                    continue

                self._target = next_event
                next_event.callbacks.append(self._resume_cb)
                break
        finally:
            env._active_proc = None


class Environment:
    """A simulation environment: clock + event calendar + process factory.

    An optional :class:`~repro.des.probe.Probe` observes scheduling,
    steps, and process switches (see :mod:`repro.des.probe`). With no
    probe attached the hook sites cost one ``is None`` check each, and
    event ordering is bit-identical to an unprobed environment either
    way — probes observe, they never schedule.
    """

    def __init__(
        self,
        initial_time: float = 0.0,
        probe: Optional["Probe"] = None,
        core: Optional[str] = None,
    ) -> None:
        # ``core`` only keeps callers that pass it positionally working;
        # the heap is the sole event core.
        if core not in (None, "heap"):
            raise ValueError(f"unknown DES core {core!r}; the only core is 'heap'")
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        self._active_proc: Optional[Process] = None
        self.probe = probe

    # -- clock ------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_proc

    # -- event factories ----------------------------------------------------
    def event(self) -> Event:
        """Create a new untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: ProcessGenerator, name: Optional[str] = None) -> Process:
        """Start a new process driving ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that triggers when all of ``events`` have triggered."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that triggers when any of ``events`` has triggered."""
        return AnyOf(self, events)

    # -- scheduling ---------------------------------------------------------
    def schedule(self, event: Event, priority: int = NORMAL, delay: float = 0.0) -> None:
        """Push a triggered event onto the calendar ``delay`` from now."""
        at = self._now + delay
        seq = self._seq
        self._seq = seq + 1
        heappush(self._queue, (at, priority, seq, event))
        if self.probe is not None:
            self.probe.on_schedule(self, event, at, priority)

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process the next event on the calendar."""
        queue = self._queue
        if not queue:
            raise EmptySchedule("no scheduled events remain")
        self._now, _, _, event = heappop(queue)

        if self.probe is not None:
            self.probe.on_step(self, self._now, event)

        callbacks = event.callbacks
        event.callbacks = None  # callbacks added after processing are an error
        event._processed = True
        for callback in callbacks:
            callback(event)

        # An unhandled failure (no process waited on the event) must surface.
        if not event._ok and not callbacks:
            raise event._value

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until the calendar drains), a number
        (run until that simulated time), or an :class:`Event` (run until it
        is processed and return its value; raise if it failed).
        """
        stop_event: Optional[Event] = None
        if until is not None:
            if isinstance(until, Event):
                stop_event = until
            else:
                at = float(until)
                if at < self._now:
                    raise SimulationError(
                        f"until={at} lies in the past (now={self._now})"
                    )
                stop_event = Event(self)
                stop_event._ok = True
                stop_event._value = None
                stop_event._triggered = True
                heappush(self._queue, (at, 0, -1, stop_event))

        if stop_event is not None:
            if stop_event._processed:
                if not stop_event._ok:
                    raise stop_event._value
                return stop_event._value
            assert stop_event.callbacks is not None
            stop_event.callbacks.append(self._stop_callback)

        # The event loop is inlined here (rather than calling self.step()
        # per event) — at hundreds of thousands of events per run the
        # method-call overhead dominates. Semantics are identical to
        # step(); the probe hook keeps its exact call points.
        queue = self._queue
        pop = heappop
        try:
            while True:
                if not queue:
                    raise EmptySchedule("no scheduled events remain")
                self._now, _, _, event = pop(queue)

                if self.probe is not None:
                    self.probe.on_step(self, self._now, event)

                callbacks = event.callbacks
                event.callbacks = None
                event._processed = True
                for callback in callbacks:
                    callback(event)

                if not event._ok and not callbacks:
                    raise event._value
        except EmptySchedule:
            if stop_event is not None and not stop_event._processed:
                if isinstance(until, Event):
                    raise SimulationError(
                        "simulation drained before the until-event triggered"
                    ) from None
            return None
        except StopProcess:
            assert stop_event is not None
            if not stop_event._ok:
                raise stop_event._value
            return stop_event._value

    @staticmethod
    def _stop_callback(event: Event) -> None:
        raise StopProcess()
