"""Builds the monitoring infrastructure over a power-grid case.

A case file describes buses, branches, and the grouping of buses into
substations with planar coordinates.  From that we derive:

* control centers: the two best-connected substations,
* monitoring regions: a distance-threshold partition grown from the border,
* sensor placement: one measurement point per bus plus a greedy phasor cover,
* deployed nodes: gateways, relays, rechargeable relays, region sinks,
  and the optical ring that joins region sinks to the control centers.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass, field


class CaseError(ValueError):
    """Raised for unparseable or structurally invalid case files."""


class Role(enum.Enum):
    GATEWAY = "gateway"
    RELAY = "relay"
    EHRN = "ehrn"
    RS = "rs"
    PDC = "pdc"
    CC_GATEWAY = "cc_gateway"
    CC_SERVER = "cc_server"


# Battery-powered wireless field nodes; everything else has mains power.
WIRELESS_ROLES = frozenset({Role.RELAY, Role.EHRN})


@dataclass(frozen=True)
class Substation:
    id: int
    position: tuple[float, float]
    buses: tuple[int, ...]


@dataclass
class PowerCase:
    name: str
    buses: list[int]
    branches: list[tuple[int, int]]
    substations: dict[int, Substation]

    def substation_of(self, bus: int) -> int:
        return self._bus_to_sub[bus]

    def __post_init__(self):
        self._bus_to_sub = {
            bus: sub.id for sub in self.substations.values() for bus in sub.buses
        }


@dataclass(frozen=True)
class Region:
    id: int
    anchor: int
    members: tuple[int, ...]  # substation ids, ascending


@dataclass(frozen=True)
class DeployedNode:
    id: int
    role: Role
    position: tuple[float, float]
    substation: int | None = None
    region: int | None = None


@dataclass
class Topology:
    case: PowerCase
    d_km: float
    main_cc: int
    backup_cc: int
    regions: list[Region]
    pmu_buses: list[int]
    nodes: list[DeployedNode]
    rs_ring: list[int]   # node ids: [main cc gateway, sinks..., backup cc gateway]
    pdc_ring: list[int]
    gateway_of_substation: dict[int, int] = field(default_factory=dict)
    rs_of_region: dict[int, int] = field(default_factory=dict)
    pdc_of_region: dict[int, int] = field(default_factory=dict)
    region_of_substation: dict[int, int] = field(default_factory=dict)
    cc_gateways: tuple[int, int] = (0, 0)  # (main, backup) node ids
    cc_servers: tuple[int, int] = (0, 0)

    def index(self) -> None:
        for n in self.nodes:
            if n.role is Role.GATEWAY:
                self.gateway_of_substation[n.substation] = n.id
            elif n.role is Role.RS:
                self.rs_of_region[n.region] = n.id
            elif n.role is Role.PDC:
                self.pdc_of_region[n.region] = n.id
        for region in self.regions:
            for sid in region.members:
                self.region_of_substation[sid] = region.id


def distance(p: tuple[float, float], q: tuple[float, float]) -> float:
    return math.hypot(p[0] - q[0], p[1] - q[1])


# ===== case file parsing =====


def parse_power_case(text: str, name: str = "<case>") -> PowerCase:
    """Parse the line-oriented case format.

    Directives: ``bus <id>``, ``branch <a> <b>``,
    ``substation <id> <x_km> <y_km> : <bus> ...``.  ``#`` starts a comment.
    Every bus must belong to exactly one substation.
    """
    buses: list[int] = []
    branches: list[tuple[int, int]] = []
    substations: dict[int, Substation] = {}

    def fail(lineno: int, msg: str):
        raise CaseError(f"{name}:{lineno}: {msg}")

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "bus":
            if len(parts) != 2 or not parts[1].isdigit():
                fail(lineno, f"malformed bus line: {raw.strip()!r}")
            bus = int(parts[1])
            if bus in buses:
                fail(lineno, f"duplicate bus {bus}")
            buses.append(bus)
        elif kind == "branch":
            if len(parts) != 3 or not (parts[1].isdigit() and parts[2].isdigit()):
                fail(lineno, f"malformed branch line: {raw.strip()!r}")
            a, b = int(parts[1]), int(parts[2])
            if a == b:
                fail(lineno, f"branch {a}-{b} is a self loop")
            for endpoint in (a, b):
                if endpoint not in buses:
                    fail(lineno, f"branch references unknown bus {endpoint}")
            branches.append((a, b))
        elif kind == "substation":
            if len(parts) < 6 or parts[4] != ":":
                fail(lineno, f"malformed substation line: {raw.strip()!r}")
            try:
                sid = int(parts[1])
                x, y = float(parts[2]), float(parts[3])
            except ValueError:
                fail(lineno, f"malformed substation line: {raw.strip()!r}")
            if not (math.isfinite(x) and math.isfinite(y)):
                fail(lineno, f"substation {parts[1]} position is not finite")
            if sid in substations:
                fail(lineno, f"duplicate substation id {sid}")
            members = []
            for tok in parts[5:]:
                if not tok.isdigit():
                    fail(lineno, f"malformed bus list entry {tok!r}")
                bus = int(tok)
                if bus not in buses:
                    fail(lineno, f"substation {sid} references unknown bus {bus}")
                members.append(bus)
            if not members:
                fail(lineno, f"substation {sid} has no buses")
            substations[sid] = Substation(sid, (x, y), tuple(members))
        else:
            fail(lineno, f"unknown directive {kind!r}")

    if not buses:
        raise CaseError(f"{name}: case defines no buses")
    seen: dict[int, int] = {}
    for sub in substations.values():
        for bus in sub.buses:
            if bus in seen:
                raise CaseError(
                    f"{name}: bus {bus} assigned to substations {seen[bus]} and {sub.id}"
                )
            seen[bus] = sub.id
    orphans = [b for b in buses if b not in seen]
    if orphans:
        raise CaseError(f"{name}: buses {orphans} belong to no substation")
    return PowerCase(name, buses, branches, substations)


def load_power_case(path: str) -> PowerCase:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_power_case(fh.read(), name=path)


# ===== control-center selection =====


def substation_connectivity(case: PowerCase, substation_id: int) -> int:
    """Number of distinct other substations tied to this one by any branch."""
    if substation_id not in case.substations:
        raise CaseError(f"unknown substation {substation_id}")
    neighbors = set()
    for a, b in case.branches:
        sa, sb = case.substation_of(a), case.substation_of(b)
        if sa == substation_id and sb != substation_id:
            neighbors.add(sb)
        elif sb == substation_id and sa != substation_id:
            neighbors.add(sa)
    return len(neighbors)


def select_control_centers(case: PowerCase) -> tuple[int, int]:
    """Main and backup control center: the two best-connected substations.

    Ties break toward the lower substation id.
    """
    if len(case.substations) < 2:
        raise CaseError("need at least two substations to pick control centers")
    ranked = sorted(
        case.substations,
        key=lambda sid: (-substation_connectivity(case, sid), sid),
    )
    return ranked[0], ranked[1]


# ===== region partition =====


def border_substations(case: PowerCase) -> tuple[int, ...]:
    """Substations sitting on the convex hull of all substation positions."""
    subs = sorted(case.substations.values(), key=lambda s: (s.position, s.id))
    if len(subs) <= 2:
        return tuple(sorted(s.id for s in subs))

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    # Andrew's monotone chain; collinear points interior to an edge are not
    # hull vertices.
    def half(points):
        chain = []
        for s in points:
            while len(chain) >= 2 and cross(chain[-2].position, chain[-1].position, s.position) <= 0:
                chain.pop()
            chain.append(s)
        return chain

    lower = half(subs)
    upper = half(list(reversed(subs)))
    hull_ids = {s.id for s in lower[:-1]} | {s.id for s in upper[:-1]}
    return tuple(sorted(hull_ids))


def partition_regions(case: PowerCase, d_km: float) -> list[Region]:
    """Grow regions of radius d_km from successive anchors.

    The first anchor is the best-connected border substation.  Each region
    absorbs every unassigned substation within d_km of its anchor; the next
    anchor is the unassigned substation closest to the current anchor.
    Ties break toward the lower substation id.
    """
    if d_km <= 0:
        raise CaseError(f"region distance must be positive, got {d_km}")
    border = border_substations(case)
    anchor = min(border, key=lambda sid: (-substation_connectivity(case, sid), sid))
    unassigned = set(case.substations)
    regions: list[Region] = []
    while True:
        anchor_pos = case.substations[anchor].position
        members = sorted(
            sid
            for sid in unassigned
            if distance(case.substations[sid].position, anchor_pos) <= d_km
        )
        unassigned.difference_update(members)
        regions.append(Region(len(regions) + 1, anchor, tuple(members)))
        if not unassigned:
            return regions
        anchor = min(
            unassigned,
            key=lambda sid: (distance(case.substations[sid].position, anchor_pos), sid),
        )


# ===== phasor sensor placement =====


def place_pmus(case: PowerCase) -> list[int]:
    """Greedy observability cover: a phasor sensor sees its bus and neighbors.

    Repeatedly place at the bus covering the most still-uncovered buses,
    ties toward the lower bus id, until every bus is covered.  Returns buses
    in placement order.
    """
    adjacency: dict[int, set[int]] = {bus: {bus} for bus in case.buses}
    for a, b in case.branches:
        adjacency[a].add(b)
        adjacency[b].add(a)
    uncovered = set(case.buses)
    placed: list[int] = []
    while uncovered:
        bus = min(case.buses, key=lambda c: (-len(adjacency[c] & uncovered), c))
        placed.append(bus)
        uncovered -= adjacency[bus]
    return placed


# ===== node deployment =====


def region_centroid(case: PowerCase, region: Region) -> tuple[float, float]:
    xs = [case.substations[sid].position[0] for sid in region.members]
    ys = [case.substations[sid].position[1] for sid in region.members]
    return (sum(xs) / len(xs), sum(ys) / len(ys))


def deploy_nodes(
    case: PowerCase,
    regions: list[Region],
    main_cc: int,
    backup_cc: int,
    relay_count: int,
    ehrn_count: int,
    rng: random.Random,
) -> list[DeployedNode]:
    """Place infrastructure deterministically and field nodes uniformly.

    Gateways sit at their substation, one sink pair (RS + PDC) at each region
    centroid, control-center gear at the CC substations.  Relays and
    rechargeable relays are drawn uniformly over the substation bounding box
    from ``rng``; infrastructure positions never depend on the seed.
    """
    region_of: dict[int, int] = {}
    for region in regions:
        for sid in region.members:
            region_of[sid] = region.id

    nodes: list[DeployedNode] = []
    next_id = 1

    def add(role, pos, substation=None, region=None):
        nonlocal next_id
        nodes.append(DeployedNode(next_id, role, pos, substation, region))
        next_id += 1

    for sid in sorted(case.substations):
        add(Role.GATEWAY, case.substations[sid].position, substation=sid, region=region_of[sid])
    for region in regions:
        add(Role.RS, region_centroid(case, region), region=region.id)
    for region in regions:
        add(Role.PDC, region_centroid(case, region), region=region.id)
    for sid in (main_cc, backup_cc):
        add(Role.CC_GATEWAY, case.substations[sid].position, substation=sid, region=region_of[sid])
    for sid in (main_cc, backup_cc):
        add(Role.CC_SERVER, case.substations[sid].position, substation=sid, region=region_of[sid])

    positions = [s.position for s in case.substations.values()]
    x_lo, x_hi = min(p[0] for p in positions), max(p[0] for p in positions)
    y_lo, y_hi = min(p[1] for p in positions), max(p[1] for p in positions)
    for _ in range(relay_count):
        add(Role.RELAY, (rng.uniform(x_lo, x_hi), rng.uniform(y_lo, y_hi)))
    for _ in range(ehrn_count):
        add(Role.EHRN, (rng.uniform(x_lo, x_hi), rng.uniform(y_lo, y_hi)))
    return nodes


def build_ring(
    start: DeployedNode, end: DeployedNode, sinks: list[DeployedNode]
) -> list[int]:
    """Nearest-neighbor tour over sinks from the main CC gateway.

    Returns node ids ``[start, sinks in visiting order, end]``; the ring
    closes implicitly from the last entry back to the first.  Ties break
    toward the lower node id.
    """
    if not sinks:
        raise CaseError("ring needs at least one sink")
    order = [start.id]
    pos = start.position
    remaining = {s.id: s for s in sinks}
    while remaining:
        nid = min(remaining, key=lambda i: (distance(remaining[i].position, pos), i))
        pos = remaining[nid].position
        order.append(nid)
        del remaining[nid]
    order.append(end.id)
    return order


def build_topology(
    case: PowerCase,
    d_km: float,
    relay_count: int,
    ehrn_count: int,
    rng: random.Random,
) -> Topology:
    """Assemble the full infrastructure graph for a case."""
    main_cc, backup_cc = select_control_centers(case)
    regions = partition_regions(case, d_km)
    pmu_buses = place_pmus(case)
    nodes = deploy_nodes(case, regions, main_cc, backup_cc, relay_count, ehrn_count, rng)

    by_role: dict[Role, list[DeployedNode]] = {}
    for n in nodes:
        by_role.setdefault(n.role, []).append(n)
    main_gw, backup_gw = by_role[Role.CC_GATEWAY]
    rs_ring = build_ring(main_gw, backup_gw, by_role[Role.RS])
    pdc_ring = build_ring(main_gw, backup_gw, by_role[Role.PDC])

    topo = Topology(
        case=case,
        d_km=d_km,
        main_cc=main_cc,
        backup_cc=backup_cc,
        regions=regions,
        pmu_buses=pmu_buses,
        nodes=nodes,
        rs_ring=rs_ring,
        pdc_ring=pdc_ring,
    )
    topo.cc_gateways = (main_gw.id, backup_gw.id)
    servers = by_role[Role.CC_SERVER]
    topo.cc_servers = (servers[0].id, servers[1].id)
    topo.index()
    return topo


def export_topology(topo: Topology, path: str) -> None:
    """Write the built graph as a line-oriented node/edge list.

    Node lines carry role and position; edge lines carry the link kind.
    Wireless links are range-dependent and therefore not listed.
    """
    lines = [f"# topology for {topo.case.name}"]
    lines.append(
        f"# main_cc={topo.main_cc} backup_cc={topo.backup_cc} "
        f"regions={len(topo.regions)} d_km={topo.d_km:g}"
    )
    for n in topo.nodes:
        extra = ""
        if n.substation is not None:
            extra += f" substation={n.substation}"
        if n.region is not None:
            extra += f" region={n.region}"
        lines.append(f"node {n.id} {n.role.value} {n.position[0]:.6f} {n.position[1]:.6f}{extra}")
    for ring in (topo.rs_ring, topo.pdc_ring):
        for a, b in zip(ring, ring[1:] + ring[:1]):
            lines.append(f"edge {a} {b} optical")
    lines.append(f"edge {topo.cc_gateways[0]} {topo.cc_gateways[1]} dedicated")
    for region in topo.regions:
        rs = topo.rs_of_region[region.id]
        pdc = topo.pdc_of_region[region.id]
        for sid in region.members:
            gw = topo.gateway_of_substation[sid]
            lines.append(f"edge {gw} {rs} serves")
            lines.append(f"edge {gw} {pdc} serves")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
