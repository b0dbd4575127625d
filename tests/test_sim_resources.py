"""Store semantics."""

import pytest

from repro.sim import Environment, Store


@pytest.fixture
def env():
    return Environment()


class TestStore:
    def test_put_then_get_fifo(self, env):
        store = Store(env)
        results = []

        def consumer():
            for _ in range(3):
                results.append((yield store.get()))

        for item in ("a", "b", "c"):
            store.put(item)
        env.process(consumer())
        env.run()
        assert results == ["a", "b", "c"]

    def test_get_blocks_until_put(self, env):
        store = Store(env)

        def consumer():
            item = yield store.get()
            return (env.now, item)

        def producer():
            yield env.timeout(5)
            yield store.put("late")

        process = env.process(consumer())
        env.process(producer())
        assert env.run(process) == (5.0, "late")

    def test_capacity_blocks_putters(self, env):
        store = Store(env, capacity=1)
        progress = []

        def producer():
            yield store.put("first")
            progress.append(("first stored", env.now))
            yield store.put("second")
            progress.append(("second stored", env.now))

        def consumer():
            yield env.timeout(10)
            item = yield store.get()
            return item

        env.process(producer())
        env.process(consumer())
        env.run()
        assert progress == [("first stored", 0.0), ("second stored", 10.0)]

    def test_invalid_capacity(self, env):
        with pytest.raises(ValueError):
            Store(env, capacity=0)

    def test_len_and_items(self, env):
        store = Store(env)
        store.put(1)
        store.put(2)
        env.run()
        assert len(store) == 2
        assert store.items == [1, 2]

    def test_try_get(self, env):
        store = Store(env)
        assert store.try_get() is None
        store.put("x")
        env.run()
        assert store.try_get() == "x"
        assert store.try_get() is None

    def test_try_get_with_blocked_getters_raises(self, env):
        store = Store(env)

        def consumer():
            yield store.get()

        env.process(consumer())
        env.run()
        with pytest.raises(RuntimeError):
            store.try_get()

    def test_waiting_counts(self, env):
        store = Store(env, capacity=1)
        store.put("a")
        store.put("b")  # blocked
        store.get()

        def noop():
            yield env.timeout(0)

        env.process(noop())
        env.run()
        # "a" got taken by the getter, then "b" moved in.
        assert store.waiting_putters == 0
        assert store.waiting_getters == 0
        assert store.items == ["b"]

