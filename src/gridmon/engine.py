"""Deterministic discrete-event core plus radio and energy models.

Events fire in (time, insertion order) so runs with equal seeds replay
byte-identically.  Batteries follow the first-order radio model; rechargeable
nodes regain charge lazily, computed from elapsed time at the next access,
which keeps the event queue free of housekeeping ticks.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

from .topology import WIRELESS_ROLES, Role, Topology


class EngineError(ValueError):
    pass


# ===== event queue =====


class EventQueue:
    """Min-heap of (fire_at, seq) with a monotone clock."""

    def __init__(self):
        self._heap: list = []
        self._seq = 0
        self.now = 0.0
        self.processed = 0

    def schedule(self, fire_at: float, fn, *args) -> None:
        if fire_at < self.now:
            raise EngineError(f"cannot schedule at {fire_at:.6f}, clock is at {self.now:.6f}")
        heapq.heappush(self._heap, (fire_at, self._seq, fn, args))
        self._seq += 1

    def __len__(self) -> int:
        return len(self._heap)

    def run_all(self) -> int:
        """Drain the queue completely."""
        count = 0
        while self._heap:
            fire_at, _, fn, args = heapq.heappop(self._heap)
            self.now = fire_at
            fn(*args)
            count += 1
        self.processed += count
        return count


# ===== radio and energy models =====


@dataclass(frozen=True)
class RadioModel:
    range_m: float = 30000.0
    bitrate_bps: float = 250000.0
    mac_overhead_s: float = 0.002

    def hop_latency_s(self, bits: int) -> float:
        return self.mac_overhead_s + bits / self.bitrate_bps

    @property
    def range_km(self) -> float:
        return self.range_m / 1000.0


@dataclass(frozen=True)
class EnergyModel:
    e_elec_j_per_bit: float = 50e-9
    e_amp_j_per_bit_m2: float = 100e-12

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
    substation: int | None = None
    region: int | None = None
    consumed_j: float = 0.0
    _last_refresh: float = 0.0
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
        self.refresh(now)
        return self.battery_j > 0.0

    def spend(self, cost_j: float, now: float) -> bool:
        """Debit ``cost_j`` of radio energy at ``now``.

        A drained node, or one that cannot cover the cost, spends what it
        has left and fails; mains-powered nodes never run out.
        """
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
        node.substation = dn.substation
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
        for bucket in self._cells.values():
            bucket.sort(key=lambda n: n.id)

    def _cell(self, pos: tuple[float, float]) -> tuple[int, int]:
        return (int(math.floor(pos[0] / self.cell_km)), int(math.floor(pos[1] / self.cell_km)))

    def alive_within(
        self, pos: tuple[float, float], now: float, exclude_id: int | None = None
    ) -> list[SimNode]:
        """Alive wireless nodes within radio range of ``pos`` (boundary inclusive),
        ordered by id."""
        cx, cy = self._cell(pos)
        range_km = self.radio.range_km
        found: list[SimNode] = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for node in self._cells.get((cx + dx, cy + dy), ()):
                    if node.id == exclude_id:
                        continue
                    if math.hypot(node.position[0] - pos[0], node.position[1] - pos[1]) <= range_km:
                        if node.alive(now):
                            found.append(node)
        found.sort(key=lambda n: n.id)
        return found
