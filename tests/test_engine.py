"""Event queue, energy accounting, and the wireless neighbor index."""

from __future__ import annotations

import math
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridmon import engine
from gridmon.engine import (
    EnergyModel,
    EngineError,
    EventQueue,
    NeighborIndex,
    RadioModel,
    Role,
    SimNode,
)


def relay(nid, pos=(0.0, 0.0), battery=1.0):
    return SimNode(id=nid, role=Role.RELAY, position=pos, battery_j=battery)


def harvester(nid, pos=(0.0, 0.0), battery=0.5, cap=1.0, watts=0.1):
    return SimNode(
        id=nid, role=Role.EHRN, position=pos,
        battery_j=battery, capacity_j=cap, rechargeable=True, recharge_w=watts,
    )


# ===== event queue =====


def test_queue_fires_in_time_order():
    q = EventQueue()
    fired = []
    q.schedule(3.0, fired.append, "c")
    q.schedule(1.0, fired.append, "a")
    q.schedule(2.0, fired.append, "b")
    assert q.run_all() == 3
    assert fired == ["a", "b", "c"]
    assert q.now == 3.0


def test_queue_ties_fire_in_scheduling_order():
    q = EventQueue()
    fired = []
    for tag in ("first", "second", "third"):
        q.schedule(1.0, fired.append, tag)
    q.run_all()
    assert fired == ["first", "second", "third"]


def test_queue_rejects_scheduling_into_the_past():
    q = EventQueue()
    q.schedule(5.0, lambda: None)
    q.run_all()
    with pytest.raises(EngineError):
        q.schedule(4.999, lambda: None)
    with pytest.raises(EngineError):
        q.schedule(math.nan, lambda: None)
    q.schedule(5.0, lambda: None)  # exactly "now" is allowed


def test_queue_events_may_schedule_more_events():
    q = EventQueue()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 4:
            q.schedule(q.now + 1.0, chain, n + 1)

    q.schedule(0.0, chain, 0)
    assert q.run_all() == 5
    assert fired == [0, 1, 2, 3, 4]
    assert q.processed == 5


@given(st.lists(st.floats(0, 100, allow_nan=False), min_size=1, max_size=30))
def test_queue_never_runs_time_backwards(times):
    q = EventQueue()
    seen = []
    for t in times:
        q.schedule(t, lambda t=t: seen.append(q.now))
    q.run_all()
    assert seen == sorted(seen)


class CountingQueue(EventQueue):
    """Counts ``schedule`` calls, as the benchmark's wrapper does."""

    calls = 0

    def schedule(self, *args, **kwargs):
        self.calls += 1
        super().schedule(*args, **kwargs)


# Half-second steps are exact in binary, so equal times tie exactly.
_GRID = st.integers(0, 4).map(lambda k: k * 0.5)


@given(
    st.sampled_from([2, 3, engine.FEED_RUN]),
    st.lists(_GRID, max_size=4),
    st.lists(st.tuples(_GRID, st.lists(_GRID, max_size=2)), max_size=25),
    st.lists(_GRID, max_size=4),
)
def test_schedule_all_fires_as_scheduling_one_by_one(run, before, plan, after):
    """Events scheduled before and after the plan, and children their handlers
    schedule at ``now + dt`` onto the times of pending planned events, all
    fire in the order of scheduling every event separately.  Cut into runs
    of two or three events, the plan's exact ties fall across run bounds."""

    def replay(fed):
        q = CountingQueue()
        log = []

        def fire(label, spawn):
            log.append((q.now, label))
            for j, dt in enumerate(spawn):
                q.schedule(q.now + dt, fire, (label, j), ())

        for i, t in enumerate(before):
            q.schedule(t, fire, ("before", i), ())
        events = [(t, fire, (("plan", i), spawn)) for i, (t, spawn) in enumerate(plan)]
        if fed:
            q.schedule_all(events)
        else:
            for t, fn, args in events:
                q.schedule(t, fn, *args)
        for i, t in enumerate(after):
            q.schedule(t, fire, ("after", i), ())
        assert q.run_all() == q.processed == len(log) == q.calls
        return log

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "FEED_RUN", run)
        assert replay(fed=True) == replay(fed=False)


def test_schedule_all_takes_one_block_of_sequence_numbers():
    q = CountingQueue()
    fired = []
    q.schedule(1.0, fired.append, "a")
    q.schedule_all([(1.0, fired.append, ("b",)), (0.5, fired.append, ("x",)),
                    (1.0, fired.append, ("c",))])
    assert len(q) == 2  # only the earliest planned event waits on the heap
    q.schedule(1.0, fired.append, "d")
    q.schedule_all([])
    q.schedule(1.0, fired.append, "e")
    assert q.run_all() == 6 == q.calls
    assert fired == ["x", "a", "b", "c", "d", "e"]


def test_schedule_all_rejects_a_past_time_at_call_time(monkeypatch):
    monkeypatch.setattr(engine, "FEED_RUN", 2)  # the bad time sits in the plan's last run
    q = CountingQueue()
    q.schedule(5.0, lambda: None)
    q.run_all()
    for bad in (4.999, math.nan):
        with pytest.raises(EngineError):
            q.schedule_all([(6.0, print, ())] * 4 + [(bad, print, ())])
    # Nothing from a rejected plan is scheduled, and it takes no sequence number.
    assert len(q) == 0 and q._seq == 1 and q.calls == 1
    fired = []
    q.schedule_all([(5.0, fired.append, ("now",))])
    q.schedule(5.0, fired.append, "next")
    q.run_all()
    assert fired == ["now", "next"]


def test_schedule_all_keeps_a_planned_event_in_a_few_words():
    """A 100,000-event plan costs at most 48 bytes per event once scheduled
    and 64 during the call; one tuple, float and int per event cost ~136."""
    n = 100_000
    q = EventQueue()

    def plan():
        for i in range(n):
            yield (i * 7919 % n) * 1e-4, print, ()

    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        q.schedule_all(plan())
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    assert (kept - base) / n <= 48
    assert (peak - base) / n <= 64
    assert len(q) == -(-n // engine.FEED_RUN)


# ===== energy model =====


def test_radio_transmit_cost_classic_constants():
    model = EnergyModel(50e-9, 100e-12)  # 50 nJ/bit electronics, 100 pJ/bit/m^2 amplifier
    assert model.tx_cost_j(1000, 100.0) == pytest.approx(1.05e-3)
    assert model.rx_cost_j(1000) == pytest.approx(5.0e-5)
    assert model.tx_cost_j(0, 500.0) == 0.0
    # quadratic in distance: doubling range quadruples the amplifier term
    amp_only = lambda d: model.tx_cost_j(1, d) - model.e_elec_j_per_bit
    assert amp_only(200.0) == pytest.approx(4 * amp_only(100.0))


def test_spend_shortfall_drains_to_zero():
    node = relay(1, battery=1e-3)
    assert not node.spend(EnergyModel(50e-9, 100e-12).tx_cost_j(1000, 100.0), now=0.0)  # 1.05e-3 > 1e-3
    assert node.battery_j == 0.0
    assert node.consumed_j == 1e-3  # the remainder is booked as consumed
    assert not node.alive(0.0)


def test_spend_exact_bookkeeping():
    node = relay(1, battery=1.0)
    model = EnergyModel(50e-9, 100e-12)
    assert node.spend(model.tx_cost_j(1000, 100.0), now=0.0)
    assert node.spend(model.tx_cost_j(2000, 50.0), now=0.0)
    expected = 1.05e-3 + (50e-9 * 2000 + 100e-12 * 2000 * 2500)
    assert node.consumed_j == pytest.approx(expected)
    assert node.battery_j == pytest.approx(1.0 - expected)


def test_spend_on_mains_stays_infinite_but_books_the_cost():
    mains = SimNode(id=10, role=Role.GATEWAY, position=(0, 0))
    assert mains.spend(2.5, now=0.0)
    assert math.isinf(mains.battery_j)
    assert mains.consumed_j == 2.5


def test_spend_fails_on_a_drained_node_even_at_zero_cost():
    node = relay(1, battery=0.0)
    assert not node.spend(0.0, now=0.0)
    assert node.battery_j == 0.0
    assert node.consumed_j == 0.0


def test_spend_after_lazy_refresh_revives_a_harvester():
    node = harvester(1, battery=0.0, cap=1.0, watts=0.1)
    assert not node.spend(0.05, now=0.0)
    assert node.spend(0.05, now=1.0)  # 0.1 J harvested in the meantime
    assert node.battery_j == pytest.approx(0.05)
    assert node.consumed_j == pytest.approx(0.05)


def test_lazy_refresh_revives_a_drained_harvester():
    node = harvester(1, battery=0.0, cap=1.0, watts=0.1)
    assert not node.alive(0.0)
    assert node.alive(3.0)  # 0.3 J harvested in the meantime
    assert node.battery_j == pytest.approx(0.3)
    node.refresh(3.0)  # idempotent at the same instant
    assert node.battery_j == pytest.approx(0.3)


def test_refresh_never_rewinds():
    node = harvester(1, battery=0.2, cap=1.0, watts=0.1)
    node.refresh(5.0)
    b = node.battery_j
    node.refresh(2.0)  # stale time must not add or remove charge
    assert node.battery_j == b


@given(
    st.floats(0, 1, allow_nan=False),
    st.lists(st.floats(0, 10, allow_nan=False), min_size=1, max_size=10),
)
def test_harvester_battery_stays_in_range(start, instants):
    node = harvester(1, battery=start, cap=1.0, watts=0.25)
    for t in sorted(instants):
        node.refresh(t)
        assert 0.0 <= node.battery_j <= 1.0


# ===== neighbor index =====


def test_alive_within_boundary_inclusive_and_sorted():
    radio = RadioModel(range_m=10_000.0, bitrate_bps=250_000.0, mac_overhead_s=0.002)  # 10 km
    nodes = {
        n.id: n
        for n in [
            relay(5, (10.0, 0.0)),   # exactly on the boundary
            relay(3, (3.0, 4.0)),    # 5 km out
            relay(8, (10.1, 0.0)),   # just outside
            relay(1, (0.0, 0.0)),    # at the query point
        ]
    }
    idx = NeighborIndex(nodes, radio)
    found = [n.id for n in idx.alive_within((0.0, 0.0), now=0.0)]
    assert found == [1, 3, 5]


def test_alive_within_excludes_requested_and_dead():
    radio = RadioModel(range_m=10_000.0, bitrate_bps=250_000.0, mac_overhead_s=0.002)
    dead = relay(2, (1.0, 0.0), battery=0.0)
    nodes = {n.id: n for n in [relay(1, (0.0, 0.0)), dead, relay(3, (2.0, 0.0))]}
    idx = NeighborIndex(nodes, radio)
    # The dead relay is left out; the node at the query point counts itself,
    # which Simulation._connectivity subtracts.
    assert [n.id for n in idx.alive_within((0.0, 0.0), now=0.0)] == [1, 3]


def test_alive_within_ignores_wired_roles():
    radio = RadioModel(range_m=10_000.0, bitrate_bps=250_000.0, mac_overhead_s=0.002)
    nodes = {
        1: relay(1, (0.0, 0.0)),
        2: SimNode(id=2, role=Role.GATEWAY, position=(1.0, 0.0)),
        3: SimNode(id=3, role=Role.RS, position=(2.0, 0.0)),
    }
    idx = NeighborIndex(nodes, radio)
    assert [n.id for n in idx.alive_within((0.0, 0.0), now=0.0)] == [1]


def test_revived_harvester_reappears_in_queries():
    radio = RadioModel(range_m=10_000.0, bitrate_bps=250_000.0, mac_overhead_s=0.002)
    node = harvester(4, (1.0, 1.0), battery=0.0, watts=0.1)
    idx = NeighborIndex({4: node}, radio)
    assert idx.alive_within((0.0, 0.0), now=0.0) == []
    assert [n.id for n in idx.alive_within((0.0, 0.0), now=2.0)] == [4]


def test_a_repeated_query_sees_who_died_and_who_recharged_since():
    radio = RadioModel(range_m=10_000.0, bitrate_bps=250_000.0, mac_overhead_s=0.002)
    doomed = relay(1, (1.0, 0.0), battery=1.0)
    revived = harvester(2, (0.0, 1.0), battery=0.5, cap=1.0, watts=0.1)
    idx = NeighborIndex({1: doomed, 2: revived, 3: relay(3, (2.0, 0.0))}, radio)
    assert [n.id for n in idx.alive_within((0.0, 0.0), now=0.0)] == [1, 2, 3]
    assert not doomed.spend(2.0, now=1.0)  # drained for good
    assert not revived.spend(2.0, now=1.0)  # drained, recharging at 0.1 W
    assert [n.id for n in idx.alive_within((0.0, 0.0), now=1.0)] == [3]
    assert [n.id for n in idx.alive_within((0.0, 0.0), now=3.0)] == [2, 3]
    assert revived.battery_j == pytest.approx(0.2)


@given(st.data())
def test_neighbor_index_matches_linear_scan(data):
    n = data.draw(st.integers(1, 25))
    coords = data.draw(
        st.lists(
            st.tuples(st.floats(0, 200, allow_nan=False), st.floats(0, 200, allow_nan=False)),
            min_size=n, max_size=n,
        )
    )
    range_km = data.draw(st.floats(1, 120, allow_nan=False))
    nodes = {i + 1: relay(i + 1, pos) for i, pos in enumerate(coords)}
    idx = NeighborIndex(
        nodes, RadioModel(range_m=range_km * 1000.0, bitrate_bps=250_000.0, mac_overhead_s=0.002)
    )
    query = data.draw(st.tuples(st.floats(0, 200, allow_nan=False), st.floats(0, 200, allow_nan=False)))

    def scan():
        return sorted(
            nid for nid, nd in nodes.items()
            if nd.battery_j > 0.0
            and math.hypot(nd.position[0] - query[0], nd.position[1] - query[1]) <= range_km
        )

    assert [nd.id for nd in idx.alive_within(query, now=0.0)] == scan()
    # The same position again, after a drawn subset ran dry.
    for nid in data.draw(st.sets(st.sampled_from(sorted(nodes)))):
        nodes[nid].spend(math.inf, now=1.0)
    assert [nd.id for nd in idx.alive_within(query, now=1.0)] == scan()


def test_hop_latency_includes_mac_overhead():
    radio = RadioModel(range_m=30_000.0, bitrate_bps=250_000.0, mac_overhead_s=0.002)
    assert radio.hop_latency_s(2500) == pytest.approx(0.002 + 0.01)
    assert radio.range_km == 30.0
