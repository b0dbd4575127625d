"""Edge cases across modules that the main suites don't reach."""

import pytest

from repro.arch import Chip, ChipConfig
from repro.balancing import SingleQueue, SoftwareSingleQueue
from repro.experiments.common import ExperimentResult
from repro.sim import Environment, Interrupt, RngRegistry, Store
from repro.workloads import MicrobenchCosts, MicrobenchProgram


class TestKernelEdges:
    def test_interrupt_while_blocked_on_store(self):
        env = Environment()
        store = Store(env)
        outcomes = []

        def consumer():
            try:
                yield store.get()
            except Interrupt as interrupt:
                outcomes.append(("interrupted", interrupt.cause))
                return
            outcomes.append(("got",))

        process = env.process(consumer())

        def killer():
            yield env.timeout(5)
            process.interrupt("shutdown")

        env.process(killer())
        env.run()
        assert outcomes == [("interrupted", "shutdown")]
        # The interrupted consumer detached: a later put stays stored.
        store.put("orphan")
        env.run()
        assert store.items == ["orphan"]

    def test_active_process_visible_during_execution(self):
        env = Environment()
        seen = []

        def proc():
            seen.append(env.active_process)
            yield env.timeout(1)

        process = env.process(proc())
        env.run()
        assert seen == [process]
        assert env.active_process is None

    def test_store_getter_priority_over_late_putter(self):
        env = Environment()
        store = Store(env)
        order = []

        def consumer(name):
            item = yield store.get()
            order.append((name, item))

        env.process(consumer("first"))
        env.process(consumer("second"))

        def producer():
            yield env.timeout(1)
            yield store.put("a")
            yield store.put("b")

        env.process(producer())
        env.run()
        assert order == [("first", "a"), ("second", "b")]


class TestDispatcherDelays:
    def build(self, scheme):
        env = Environment()
        chip = Chip(
            env, ChipConfig(), MicrobenchProgram(MicrobenchCosts.lean()),
            RngRegistry(0),
        )
        scheme.install(chip, RngRegistry(0).stream("dispatch"))
        return chip

    def test_software_dispatcher_has_memory_latencies(self):
        chip = self.build(SoftwareSingleQueue())
        dispatcher = chip.dispatchers[0]
        # The software queue lives in memory: no mesh indirection, and
        # delivery costs one LLC access.
        assert dispatcher.completion_forward_delay_ns(0) == 0.0
        assert dispatcher.replenish_delay_ns(5) == 0.0
        assert dispatcher.delivery_delay_ns(5) == pytest.approx(
            chip.config.llc_latency_ns
        )

    def test_hardware_dispatcher_mesh_latencies(self):
        chip = self.build(SingleQueue())
        dispatcher = chip.dispatchers[0]
        assert dispatcher.home_backend_id == 0
        # Forwarding from its own backend is free; from others it isn't.
        assert dispatcher.completion_forward_delay_ns(0) == 0.0
        assert dispatcher.completion_forward_delay_ns(3) > 0.0
        assert dispatcher.delivery_delay_ns(15) > dispatcher.delivery_delay_ns(0)


class TestExperimentResult:
    def test_table_includes_findings(self):
        result = ExperimentResult(
            "exp-x", "A title", tables=["row-data"], findings=["insight"]
        )
        text = result.table()
        assert "== exp-x: A title ==" in text
        assert "row-data" in text
        assert "- insight" in text

    def test_table_without_findings(self):
        result = ExperimentResult("exp-y", "T", tables=["t"])
        assert "Findings" not in result.table()


class TestPresetsEdges:
    def test_make_system_explicit_costs_override_defaults(self):
        from repro.core import make_system

        system = make_system(
            "1x16", "synthetic-fixed", costs=MicrobenchCosts.lean()
        )
        # Explicit costs win over the synthetic default.
        assert system.costs.total_ns == pytest.approx(220.0)

    def test_scheme_names_constant_matches_factory(self):
        from repro.core import SCHEME_NAMES, make_scheme

        for name in SCHEME_NAMES:
            assert make_scheme(name) is not None


class TestAbandonSemantics:
    """Interrupted waiters must withdraw their pending claims."""

    def test_interrupted_putter_withdraws(self):
        env = Environment()
        store = Store(env, capacity=1)
        store.put("filler")

        def blocked_producer():
            yield store.put("blocked-item")

        producer = env.process(blocked_producer())

        def killer():
            yield env.timeout(1)
            producer.interrupt()

        env.process(killer())
        with pytest.raises(Interrupt):
            env.run(until=producer)
        # The withdrawn put must not land when space frees up.
        assert store.try_get() == "filler"
        env.run()
        assert store.items == []

    def test_interrupted_resource_waiter_loses_place(self):
        # The resource is a one-token Store: a get claims it, a put
        # hands it back.
        env = Environment()
        lock = Store(env)
        lock.put("token")
        grants = []

        def holder():
            token = yield lock.get()
            yield env.timeout(10)
            yield lock.put(token)

        def waiter(name):
            try:
                token = yield lock.get()
            except Interrupt:
                return
            grants.append(name)
            yield lock.put(token)

        env.process(holder())
        victim = env.process(waiter("victim"))
        env.process(waiter("survivor"))

        def killer():
            yield env.timeout(1)
            victim.interrupt()

        env.process(killer())
        env.run()
        # The interrupted waiter never got the resource; the survivor did.
        assert grants == ["survivor"]
        assert lock.items == ["token"]
