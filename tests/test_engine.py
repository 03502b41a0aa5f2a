"""Event queue, energy accounting, and the wireless neighbor index."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

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


# ===== energy model =====


def test_radio_transmit_cost_classic_constants():
    model = EnergyModel()  # 50 nJ/bit electronics, 100 pJ/bit/m^2 amplifier
    assert model.tx_cost_j(1000, 100.0) == pytest.approx(1.05e-3)
    assert model.rx_cost_j(1000) == pytest.approx(5.0e-5)
    assert model.tx_cost_j(0, 500.0) == 0.0
    # quadratic in distance: doubling range quadruples the amplifier term
    amp_only = lambda d: model.tx_cost_j(1, d) - model.e_elec_j_per_bit
    assert amp_only(200.0) == pytest.approx(4 * amp_only(100.0))


def test_spend_shortfall_drains_to_zero():
    node = relay(1, battery=1e-3)
    assert not node.spend(EnergyModel().tx_cost_j(1000, 100.0), now=0.0)  # 1.05e-3 > 1e-3
    assert node.battery_j == 0.0
    assert node.consumed_j == 1e-3  # the remainder is booked as consumed
    assert not node.alive(0.0)


def test_spend_exact_bookkeeping():
    node = relay(1, battery=1.0)
    model = EnergyModel()
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
    radio = RadioModel(range_m=10_000.0)  # 10 km
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
    radio = RadioModel(range_m=10_000.0)
    dead = relay(2, (1.0, 0.0), battery=0.0)
    nodes = {n.id: n for n in [relay(1, (0.0, 0.0)), dead, relay(3, (2.0, 0.0))]}
    idx = NeighborIndex(nodes, radio)
    assert [n.id for n in idx.alive_within((0.0, 0.0), now=0.0, exclude_id=1)] == [3]


def test_alive_within_ignores_wired_roles():
    radio = RadioModel(range_m=10_000.0)
    nodes = {
        1: relay(1, (0.0, 0.0)),
        2: SimNode(id=2, role=Role.GATEWAY, position=(1.0, 0.0)),
        3: SimNode(id=3, role=Role.RS, position=(2.0, 0.0)),
    }
    idx = NeighborIndex(nodes, radio)
    assert [n.id for n in idx.alive_within((0.0, 0.0), now=0.0)] == [1]


def test_revived_harvester_reappears_in_queries():
    radio = RadioModel(range_m=10_000.0)
    node = harvester(4, (1.0, 1.0), battery=0.0, watts=0.1)
    idx = NeighborIndex({4: node}, radio)
    assert idx.alive_within((0.0, 0.0), now=0.0) == []
    assert [n.id for n in idx.alive_within((0.0, 0.0), now=2.0)] == [4]


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
    idx = NeighborIndex(nodes, RadioModel(range_m=range_km * 1000.0))
    query = data.draw(st.tuples(st.floats(0, 200, allow_nan=False), st.floats(0, 200, allow_nan=False)))
    got = [nd.id for nd in idx.alive_within(query, now=0.0)]
    want = sorted(
        nid for nid, nd in nodes.items()
        if math.hypot(nd.position[0] - query[0], nd.position[1] - query[1]) <= range_km
    )
    assert got == want


def test_hop_latency_includes_mac_overhead():
    radio = RadioModel(range_m=30_000.0, bitrate_bps=250_000.0, mac_overhead_s=0.002)
    assert radio.hop_latency_s(2500) == pytest.approx(0.002 + 0.01)
    assert radio.range_km == 30.0
