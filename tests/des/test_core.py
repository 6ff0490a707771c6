"""Tests for the DES engine core: Environment, Process, run semantics."""

import pytest

from repro.des import EmptySchedule, Environment, Interrupt
from repro.des.core import default_core
from repro.errors import SimulationError


def test_environment_starts_at_zero():
    assert Environment().now == 0.0


def test_environment_initial_time():
    assert Environment(5.0).now == 5.0


def test_timeout_advances_clock():
    env = Environment()
    times = []

    def proc(env):
        yield env.timeout(2.5)
        times.append(env.now)

    env.process(proc(env))
    env.run()
    assert times == [2.5]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1.0)


def test_timeout_carries_value():
    env = Environment()
    seen = []

    def proc(env):
        value = yield env.timeout(1.0, value="payload")
        seen.append(value)

    env.process(proc(env))
    env.run()
    assert seen == ["payload"]


def test_run_until_time_stops_clock_exactly():
    env = Environment()

    def proc(env):
        while True:
            yield env.timeout(1.0)

    env.process(proc(env))
    env.run(until=3.5)
    assert env.now == 3.5


def test_run_until_and_step():
    env = Environment()
    ticks = []

    def clock():
        while True:
            yield env.timeout(1.0)
            ticks.append(env.now)

    env.process(clock())
    env.run(until=3.5)
    assert ticks == [1.0, 2.0, 3.0]
    # step() keeps working after run(until): the 4.0 tick is pending.
    env.step()
    env.step()
    assert ticks[-2:] == [4.0, 5.0]


def test_heap_is_the_only_core():
    assert default_core() == "heap"
    assert Environment(0.0, None, "heap").now == 0.0
    with pytest.raises(ValueError):
        Environment(core="calendar")


def test_run_until_past_raises():
    env = Environment(10.0)
    with pytest.raises(SimulationError):
        env.run(until=5.0)


def test_run_drains_when_no_until():
    env = Environment()

    def proc(env):
        yield env.timeout(4.0)

    env.process(proc(env))
    env.run()
    assert env.now == 4.0


def test_step_on_empty_schedule_raises():
    with pytest.raises(EmptySchedule):
        Environment().step()


def test_process_return_value_via_run_until_event():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)
        return 42

    p = env.process(proc(env))
    assert env.run(until=p) == 42


def test_process_join_semantics():
    env = Environment()
    order = []

    def child(env):
        yield env.timeout(2.0)
        order.append("child")
        return "result"

    def parent(env):
        value = yield env.process(child(env))
        order.append(("parent", value, env.now))

    env.process(parent(env))
    env.run()
    assert order == ["child", ("parent", "result", 2.0)]


def test_two_processes_interleave_deterministically():
    env = Environment()
    log = []

    def ticker(env, name, period):
        while True:
            yield env.timeout(period)
            log.append((name, env.now))

    env.process(ticker(env, "a", 1.0))
    env.process(ticker(env, "b", 0.7))
    env.run(until=3.0)
    assert [(n, round(t, 6)) for n, t in log] == [
        ("b", 0.7),
        ("a", 1.0),
        ("b", 1.4),
        ("a", 2.0),
        ("b", 2.1),
        ("b", 2.8),
    ]


def test_simultaneous_events_fifo_by_creation_order():
    env = Environment()
    log = []

    def proc(env, name):
        yield env.timeout(1.0)
        log.append(name)

    env.process(proc(env, "first"))
    env.process(proc(env, "second"))
    env.process(proc(env, "third"))
    env.run()
    assert log == ["first", "second", "third"]


def test_unhandled_process_exception_propagates_from_run():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)
        raise ValueError("boom")

    env.process(proc(env))
    with pytest.raises(ValueError, match="boom"):
        env.run()


def test_waiting_process_receives_exception():
    env = Environment()
    caught = []

    def child(env):
        yield env.timeout(1.0)
        raise ValueError("child failed")

    def parent(env):
        try:
            yield env.process(child(env))
        except ValueError as exc:
            caught.append(str(exc))

    env.process(parent(env))
    env.run()
    assert caught == ["child failed"]


def test_event_succeed_wakes_waiter():
    env = Environment()
    done = []

    def waiter(env, evt):
        value = yield evt
        done.append((env.now, value))

    def trigger(env, evt):
        yield env.timeout(3.0)
        evt.succeed("go")

    evt = env.event()
    env.process(waiter(env, evt))
    env.process(trigger(env, evt))
    env.run()
    assert done == [(3.0, "go")]


def test_event_fail_raises_in_waiter():
    env = Environment()

    def waiter(env, evt):
        yield evt

    def trigger(env, evt):
        yield env.timeout(1.0)
        evt.fail(RuntimeError("nope"))

    evt = env.event()
    env.process(waiter(env, evt))
    env.process(trigger(env, evt))
    with pytest.raises(RuntimeError, match="nope"):
        env.run()


def test_event_double_trigger_rejected():
    env = Environment()
    evt = env.event()
    evt.succeed(1)
    with pytest.raises(SimulationError):
        evt.succeed(2)


def test_event_value_unavailable_before_trigger():
    env = Environment()
    evt = env.event()
    with pytest.raises(SimulationError):
        _ = evt.value


def test_yield_non_event_raises_inside_process():
    env = Environment()
    caught = []

    def proc(env):
        try:
            yield "not an event"
        except SimulationError as exc:
            caught.append(str(exc))

    env.process(proc(env))
    env.run()
    assert caught and "non-event" in caught[0]


def test_yield_already_processed_event_resumes_immediately():
    env = Environment()
    log = []

    def proc(env, evt):
        yield env.timeout(2.0)
        value = yield evt  # triggered at t=0, long since processed
        log.append((env.now, value))

    evt = env.event()
    evt.succeed("early")
    env.process(proc(env, evt))
    env.run()
    assert log == [(2.0, "early")]


def test_interrupt_wakes_sleeping_process():
    env = Environment()
    log = []

    def sleeper(env):
        try:
            yield env.timeout(100.0)
        except Interrupt as exc:
            log.append((env.now, exc.cause))

    def interrupter(env, victim):
        yield env.timeout(1.0)
        victim.interrupt("wake up")

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    env.run()
    assert log == [(1.0, "wake up")]


def test_interrupt_dead_process_raises():
    env = Environment()

    def quick(env):
        yield env.timeout(0.1)

    def late(env, victim):
        yield env.timeout(1.0)
        victim.interrupt()

    victim = env.process(quick(env))
    env.process(late(env, victim))
    with pytest.raises(SimulationError):
        env.run()


def test_interrupted_process_can_continue():
    env = Environment()
    log = []

    def sleeper(env):
        try:
            yield env.timeout(100.0)
        except Interrupt:
            pass
        yield env.timeout(1.0)
        log.append(env.now)

    def interrupter(env, victim):
        yield env.timeout(2.0)
        victim.interrupt()

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    env.run()
    assert log == [3.0]


def test_process_is_alive_lifecycle():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)

    p = env.process(proc(env))
    assert p.is_alive
    env.run()
    assert not p.is_alive


def test_process_requires_generator():
    env = Environment()
    with pytest.raises(SimulationError):
        env.process(lambda: None)  # type: ignore[arg-type]


def test_peek_reports_next_event_time():
    env = Environment()
    assert env.peek() == float("inf")

    def proc(env):
        yield env.timeout(7.0)

    env.process(proc(env))
    assert env.peek() == 0.0  # the Initialize event
    env.step()
    assert env.peek() == 7.0


def test_run_until_event_already_processed_returns_value():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)
        return "x"

    p = env.process(proc(env))
    env.run()
    assert env.run(until=p) == "x"


def test_run_until_never_triggered_event_raises():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)

    env.process(proc(env))
    never = env.event()
    with pytest.raises(SimulationError):
        env.run(until=never)


def test_nested_process_spawning():
    env = Environment()
    log = []

    def leaf(env, n):
        yield env.timeout(n)
        return n * 10

    def root(env):
        results = []
        for n in (1, 2):
            results.append((yield env.process(leaf(env, n))))
        log.append((env.now, results))

    env.process(root(env))
    env.run()
    assert log == [(3.0, [10, 20])]


def test_many_processes_scale():
    env = Environment()
    counter = []

    def proc(env, i):
        yield env.timeout(i % 10)
        counter.append(i)

    for i in range(500):
        env.process(proc(env, i))
    env.run()
    assert len(counter) == 500
    assert sorted(counter) == list(range(500))
