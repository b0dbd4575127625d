"""Event primitive semantics: the contract everything else relies on."""

import pytest

from repro.sim import Environment, Interrupt


@pytest.fixture
def env():
    return Environment()


class TestEvent:
    def test_starts_untriggered(self, env):
        event = env.event()
        assert not event.triggered
        assert not event.processed

    def test_value_before_trigger_raises(self, env):
        event = env.event()
        with pytest.raises(RuntimeError, match="not been triggered"):
            _ = event.value

    def test_succeed_sets_value(self, env):
        event = env.event()
        event.succeed(42)
        assert event.triggered
        assert event.ok
        assert event.value == 42

    def test_succeed_twice_raises(self, env):
        event = env.event()
        event.succeed()
        with pytest.raises(RuntimeError, match="already been triggered"):
            event.succeed()

    def test_fail_then_succeed_raises(self, env):
        event = env.event()
        event.fail(ValueError("boom"))
        with pytest.raises(RuntimeError, match="already been triggered"):
            event.succeed()

    def test_fail_requires_exception(self, env):
        event = env.event()
        with pytest.raises(TypeError):
            event.fail("not an exception")

    def test_callbacks_run_on_processing(self, env):
        event = env.event()
        seen = []
        event.add_callback(seen.append)
        event.succeed("x")
        assert seen == []  # not yet processed
        env.run()
        assert seen == [event]
        assert event.processed

    def test_callback_after_processed_runs_immediately(self, env):
        event = env.event()
        event.succeed()
        env.run()
        seen = []
        event.add_callback(seen.append)
        assert seen == [event]

    def test_unhandled_failure_surfaces(self, env):
        event = env.event()
        event.fail(ValueError("boom"))
        with pytest.raises(ValueError, match="boom"):
            env.run()

    def test_defused_failure_is_silent(self, env):
        event = env.event()
        event.fail(ValueError("boom"))
        event.defuse()
        env.run()  # no raise


class TestTimeout:
    def test_fires_at_delay(self, env):
        times = []
        env.timeout(5).add_callback(lambda e: times.append(env.now))
        env.run()
        assert times == [5.0]

    def test_negative_delay_rejected(self, env):
        with pytest.raises(ValueError):
            env.timeout(-1)

    def test_carries_value(self, env):
        result = env.run(env.timeout(3, value="done"))
        assert result == "done"

    def test_zero_delay_is_valid(self, env):
        assert env.run(env.timeout(0, value="now")) == "now"
        assert env.now == 0.0

    def test_cannot_be_manually_triggered(self, env):
        timeout = env.timeout(1)
        with pytest.raises(RuntimeError):
            timeout.succeed()


class TestProcess:
    def test_return_value_becomes_event_value(self, env):
        def proc():
            yield env.timeout(1)
            return "result"

        assert env.run(env.process(proc())) == "result"

    def test_yielding_processed_event_continues_immediately(self, env):
        timeout = env.timeout(1)

        def proc():
            yield env.timeout(2)  # timeout already processed by now
            value = yield timeout
            return (env.now, value)

        assert env.run(env.process(proc())) == (2.0, None)

    def test_exception_propagates_to_waiter(self, env):
        def failing():
            yield env.timeout(1)
            raise RuntimeError("inner")

        def waiter():
            with pytest.raises(RuntimeError, match="inner"):
                yield env.process(failing())
            return "handled"

        assert env.run(env.process(waiter())) == "handled"

    def test_unhandled_process_exception_surfaces(self, env):
        def failing():
            yield env.timeout(1)
            raise RuntimeError("inner")

        env.process(failing())
        with pytest.raises(RuntimeError, match="inner"):
            env.run()

    def test_is_alive(self, env):
        def proc():
            yield env.timeout(5)

        process = env.process(proc())
        assert process.is_alive
        env.run()
        assert not process.is_alive

    def test_yield_non_event_raises(self, env):
        def proc():
            yield 42

        env.process(proc())
        with pytest.raises(RuntimeError, match="non-event"):
            env.run()

    def test_two_processes_interleave(self, env):
        log = []

        def ticker(name, period):
            for _ in range(3):
                yield env.timeout(period)
                log.append((env.now, name))

        env.process(ticker("a", 2))
        env.process(ticker("b", 3))
        env.run()
        # At t=6 both fire; b's timeout was scheduled earlier (at t=3,
        # vs t=4 for a's), so it is processed first.
        assert log == [
            (2.0, "a"),
            (3.0, "b"),
            (4.0, "a"),
            (6.0, "b"),
            (6.0, "a"),
            (9.0, "b"),
        ]


class TestInterrupt:
    def test_interrupt_wakes_process(self, env):
        def sleeper():
            try:
                yield env.timeout(100)
                return "slept"
            except Interrupt as interrupt:
                return ("interrupted", env.now, interrupt.cause)

        process = env.process(sleeper())

        def killer():
            yield env.timeout(3)
            process.interrupt("reason")

        env.process(killer())
        assert env.run(process) == ("interrupted", 3.0, "reason")

    def test_interrupt_dead_process_raises(self, env):
        def quick():
            yield env.timeout(1)

        process = env.process(quick())
        env.run()
        with pytest.raises(RuntimeError, match="terminated"):
            process.interrupt()

    def test_original_target_still_fires_for_others(self, env):
        timeout = env.timeout(10, value="late")

        def sleeper():
            try:
                yield timeout
            except Interrupt:
                pass
            return "done"

        def other():
            value = yield timeout
            return (env.now, value)

        victim = env.process(sleeper())

        def killer():
            yield env.timeout(1)
            victim.interrupt()

        env.process(killer())
        other_proc = env.process(other())
        assert env.run(other_proc) == (10.0, "late")

