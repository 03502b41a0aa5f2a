"""Deterministic discrete-event core plus radio and energy models.

Events fire in (time, insertion order) so runs with equal seeds replay
byte-identically.  A plan known up front (the trust-bootstrap probes, the
aggregation-window ticks) is kept off the heap in sorted flat runs: each run
holds its times in an array and its handlers in tuples, and only its next
event sits on the heap, under the sequence number taken when it was planned.
The heap merges the runs, so the firing order is the one scheduling each
event at once would give, while a planned event costs a few machine words
rather than a tuple, a float and an int of its own.
Batteries follow the first-order radio model; rechargeable nodes regain
charge lazily, computed from elapsed time at the next access, which keeps
the event queue free of housekeeping ticks.  Positions never change, so the
neighbor index lists each queried position's nodes in range once.
"""

from __future__ import annotations

import heapq
import math
from array import array
from dataclasses import dataclass, field
from itertools import islice

from .topology import WIRELESS_ROLES, Role, Topology


class EngineError(ValueError):
    pass


# Events per sorted run of a planned feed; only each run's next event is on the heap.
FEED_RUN = 1024


# ===== event queue =====


class EventQueue:
    """Min-heap of (fire_at, seq) with a monotone clock."""

    def __init__(self):
        self._heap: list = []
        self._seq = 0
        self.now = 0.0
        self.processed = 0

    def schedule(self, fire_at: float, fn, *args, seq: int | None = None) -> None:
        """Fire ``fn(*args)`` at ``fire_at``; ``seq`` is one ``schedule_all`` reserved."""
        if not fire_at >= self.now:  # NaN too
            raise EngineError(f"cannot schedule at {fire_at:.6f}, clock is at {self.now:.6f}")
        if seq is None:
            seq = self._seq
            self._seq += 1
        heapq.heappush(self._heap, (fire_at, seq, fn, args))

    def schedule_all(self, events) -> None:
        """Schedule an iterable of ``(fire_at, fn, args)`` events as ``schedule``
        would one by one in order: same checks now, same sequence numbers,
        same firing order.  The plan is cut into runs of ``FEED_RUN`` events,
        each stored flat (times in an ``array('d')``, the stable by-time order
        of its plan offsets in an ``array('i')``, ``fn``s and ``args`` in two
        tuples), so exact ties stay in seq order.  Only each run's next event
        sits on the heap and pushes the run's following one when it fires, so
        the heap merges the runs.  A rejected plan schedules nothing and takes
        no sequence number.  Iterating ``events`` must not schedule anything."""
        now = self.now
        base = self._seq
        runs = []
        events = iter(events)
        while chunk := list(islice(events, FEED_RUN)):
            times, fns, args = zip(*chunk)
            for fire_at in times:
                if not fire_at >= now:  # NaN too
                    raise EngineError(f"cannot schedule at {fire_at:.6f}, clock is at {now:.6f}")
            times = array("d", times)
            order = array("i", sorted(range(len(times)), key=times.__getitem__))
            runs.append((times, order, fns, args, base))
            base += len(times)
        self._seq = base
        for run in runs:
            times, order, _, _, run_base = run
            self.schedule(times[order[0]], self._fire_fed, run, 0, seq=run_base + order[0])

    def _fire_fed(self, run: tuple, i: int) -> None:
        times, order, fns, args, base = run
        k = order[i]
        i += 1
        if i < len(order):
            after = order[i]
            self.schedule(times[after], self._fire_fed, run, i, seq=base + after)
        fns[k](*args[k])

    def __len__(self) -> int:
        """Events on the heap; of a planned run, only its next event is counted."""
        return len(self._heap)

    def run_all(self) -> int:
        """Drain the queue completely."""
        heap, pop = self._heap, heapq.heappop
        count = 0
        while heap:
            fire_at, _, fn, args = pop(heap)
            self.now = fire_at
            fn(*args)
            count += 1
        self.processed += count
        return count


# ===== radio and energy models =====


@dataclass(frozen=True)
class RadioModel:
    range_m: float
    bitrate_bps: float
    mac_overhead_s: float

    def hop_latency_s(self, bits: int) -> float:
        return self.mac_overhead_s + bits / self.bitrate_bps

    @property
    def range_km(self) -> float:
        return self.range_m / 1000.0


@dataclass(frozen=True)
class EnergyModel:
    e_elec_j_per_bit: float
    e_amp_j_per_bit_m2: float

    def tx_cost_j(self, bits: int, distance_m: float) -> float:
        return self.e_elec_j_per_bit * bits + self.e_amp_j_per_bit_m2 * bits * distance_m**2

    def rx_cost_j(self, bits: int) -> float:
        return self.e_elec_j_per_bit * bits


# ===== runtime node state =====


@dataclass
class SimNode:
    id: int
    role: Role
    position: tuple[float, float]
    battery_j: float = math.inf
    capacity_j: float = math.inf
    rechargeable: bool = False
    recharge_w: float = 0.0
    region: int | None = None
    consumed_j: float = 0.0
    _last_refresh: float = 0.0
    sent: int = 0  # packets handed to this node to carry
    delivered: int = 0  # of those, confirmed intact at a sink
    seq: int = 0  # last sequence number this node stamped
    wireless: bool = field(init=False)

    def __post_init__(self) -> None:
        self.wireless = self.role in WIRELESS_ROLES

    def refresh(self, now: float) -> None:
        """Apply lazy recharge up to ``now``; a drained harvester can revive."""
        if self.rechargeable and now > self._last_refresh:
            self.battery_j = min(
                self.capacity_j,
                self.battery_j + self.recharge_w * (now - self._last_refresh),
            )
        self._last_refresh = max(self._last_refresh, now)

    def alive(self, now: float) -> bool:
        if self.rechargeable:
            self.refresh(now)
        return self.battery_j > 0.0

    def spend(self, cost_j: float, now: float) -> bool:
        """Debit ``cost_j`` of radio energy at ``now``.

        A drained node, or one that cannot cover the cost, spends what it
        has left and fails; mains-powered nodes never run out.
        """
        if self.rechargeable and now > self._last_refresh:
            self.refresh(now)
        if self.battery_j <= 0.0 or self.battery_j < cost_j:
            self.consumed_j += self.battery_j
            self.battery_j = 0.0
            return False
        self.battery_j -= cost_j
        self.consumed_j += cost_j
        return True


def build_sim_nodes(
    topo: Topology,
    relay_battery_j: float,
    ehrn_capacity_j: float,
    ehrn_recharge_w: float,
) -> dict[int, SimNode]:
    """Instantiate runtime state for deployed nodes.

    Field nodes carry finite batteries; mains-powered infrastructure is
    unbounded.  Harvesters start at full capacity.
    """
    nodes: dict[int, SimNode] = {}
    for dn in topo.nodes:
        if dn.role is Role.RELAY:
            node = SimNode(dn.id, dn.role, dn.position, battery_j=relay_battery_j,
                           capacity_j=relay_battery_j)
        elif dn.role is Role.EHRN:
            node = SimNode(dn.id, dn.role, dn.position, battery_j=ehrn_capacity_j,
                           capacity_j=ehrn_capacity_j, rechargeable=True,
                           recharge_w=ehrn_recharge_w)
        else:
            node = SimNode(dn.id, dn.role, dn.position)
        node.region = dn.region
        nodes[dn.id] = node
    return nodes


# ===== neighbor queries =====


class NeighborIndex:
    """Grid-bucket index over wireless nodes; positions are static."""

    def __init__(self, nodes: dict[int, SimNode], radio: RadioModel):
        self.radio = radio
        self.cell_km = max(radio.range_km, 1e-9)
        self._cells: dict[tuple[int, int], list[SimNode]] = {}
        for node in nodes.values():
            if node.wireless:
                self._cells.setdefault(self._cell(node.position), []).append(node)
        self._in_range: dict[tuple[float, float], tuple[SimNode, ...]] = {}

    def _cell(self, pos: tuple[float, float]) -> tuple[int, int]:
        return (int(math.floor(pos[0] / self.cell_km)), int(math.floor(pos[1] / self.cell_km)))

    def alive_within(self, pos: tuple[float, float], now: float) -> list[SimNode]:
        """Alive wireless nodes within radio range of ``pos`` (boundary inclusive),
        ordered by id; a node at ``pos`` counts itself."""
        near = self._in_range.get(pos)
        if near is None:
            cx, cy = self._cell(pos)
            range_km = self.radio.range_km
            found: list[SimNode] = []
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    for node in self._cells.get((cx + dx, cy + dy), ()):
                        if math.hypot(node.position[0] - pos[0], node.position[1] - pos[1]) <= range_km:
                            found.append(node)
            found.sort(key=lambda n: n.id)
            near = self._in_range[pos] = tuple(found)
        return [node for node in near if node.alive(now)]
