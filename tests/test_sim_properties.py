"""Property-based tests (hypothesis) on the DES kernel."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment, Store


@given(st.lists(st.floats(min_value=0.0, max_value=1e6), max_size=50))
@settings(max_examples=200, deadline=None)
def test_timeouts_fire_in_sorted_order(delays):
    env = Environment()
    fired = []
    for delay in delays:
        env.timeout(delay).add_callback(lambda e, d=delay: fired.append(d))
    env.run()
    assert fired == sorted(delays)
    assert len(fired) == len(delays)


@given(st.lists(st.integers(), max_size=60))
@settings(max_examples=200, deadline=None)
def test_store_preserves_fifo_order(items):
    env = Environment()
    store = Store(env)
    received = []

    def producer():
        for item in items:
            yield store.put(item)
            yield env.timeout(1)

    def consumer():
        for _ in items:
            received.append((yield store.get()))

    env.process(producer())
    env.process(consumer())
    env.run()
    assert received == items


@given(
    st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=100.0),
                  st.floats(min_value=0.0, max_value=10.0)),
        max_size=40,
    )
)
@settings(max_examples=150, deadline=None)
def test_capacity_one_store_conserves_items(schedule):
    """Bounded store: every put eventually matched by exactly one get."""
    env = Environment()
    store = Store(env, capacity=1)
    received = []

    def producer():
        for delay, _hold in schedule:
            yield env.timeout(delay)
            yield store.put(delay)

    def consumer():
        for _ in schedule:
            item = yield store.get()
            received.append(item)

    env.process(producer())
    env.process(consumer())
    env.run()
    assert len(received) == len(schedule)
    assert len(store) == 0
