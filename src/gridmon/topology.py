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
import os
import random
from dataclasses import dataclass


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
    """A grid case and its graph, built once when the case is made.

    Every bus belongs to exactly one substation.  ``neighborhood`` maps each
    bus to itself and the buses one branch away, ``ties`` each substation to
    the other substations a branch reaches; both hold frozensets.
    """

    name: str
    buses: list[int]
    branches: list[tuple[int, int]]
    substations: dict[int, Substation]

    def substation_of(self, bus: int) -> int:
        return self._bus_to_sub[bus]

    def __post_init__(self):
        owner: dict[int, int] = {}
        for sub in self.substations.values():
            for bus in sub.buses:
                if bus in owner:
                    raise CaseError(
                        f"{self.name}: bus {bus} assigned to substations {owner[bus]} and {sub.id}"
                    )
                owner[bus] = sub.id
        orphans = [b for b in self.buses if b not in owner]
        if orphans:
            raise CaseError(f"{self.name}: buses {orphans} belong to no substation")
        near = {bus: {bus} for bus in self.buses}
        ties: dict[int, set[int]] = {sid: set() for sid in self.substations}
        for a, b in self.branches:
            for end in (a, b):
                if end not in near:
                    raise CaseError(f"{self.name}: branch references unknown bus {end}")
            near[a].add(b)
            near[b].add(a)
            ties[owner[a]].add(owner[b])
            ties[owner[b]].add(owner[a])
        self._bus_to_sub = owner
        self.neighborhood = {bus: frozenset(buses) for bus, buses in near.items()}
        self.ties = {sid: frozenset(subs - {sid}) for sid, subs in ties.items()}


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
    gateway_of_substation: dict[int, int]
    rs_of_region: dict[int, int]
    pdc_of_region: dict[int, int]
    cc_gateways: tuple[int, int]  # (main, backup) node ids
    cc_servers: tuple[int, int]


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
    return PowerCase(name, buses, branches, substations)


def load_power_case(path: str) -> PowerCase:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CaseError(f"cannot read case file {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise CaseError(f"cannot read case file {path}: not UTF-8 ({exc.reason})") from None
    return parse_power_case(text, name=path)


# ===== control-center selection =====


def substation_connectivity(case: PowerCase, substation_id: int) -> int:
    """Number of distinct other substations tied to this one by any branch."""
    if substation_id not in case.substations:
        raise CaseError(f"unknown substation {substation_id}")
    return len(case.ties[substation_id])


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
    if not d_km > 0:  # NaN too: no substation would ever join a region
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
    near = case.neighborhood
    uncovered = set(case.buses)
    placed: list[int] = []
    while uncovered:
        bus = min(case.buses, key=lambda c: (-len(near[c] & uncovered), c))
        placed.append(bus)
        uncovered -= near[bus]
    return placed


# ===== node deployment =====


def region_centroid(case: PowerCase, region: Region) -> tuple[float, float]:
    # Left to right, as sum() added floats before Python 3.12 compensated it.
    x = y = 0.0
    for sid in region.members:
        px, py = case.substations[sid].position
        x += px
        y += py
    return (x / len(region.members), y / len(region.members))


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
    """Assemble the full infrastructure graph for a case.

    Gateways sit at their substation, one sink pair (RS + PDC) at each region
    centroid, control-center gear at the CC substations.  Relays, then
    rechargeable relays, are drawn uniformly over the substation bounding box
    from ``rng``; infrastructure positions never depend on the seed.
    """
    main_cc, backup_cc = select_control_centers(case)
    regions = partition_regions(case, d_km)
    region_of = {sid: region.id for region in regions for sid in region.members}
    nodes: list[DeployedNode] = []

    def add(role, pos, substation=None, region=None) -> DeployedNode:
        nodes.append(DeployedNode(len(nodes) + 1, role, pos, substation, region))
        return nodes[-1]

    def at_substation(role, sid) -> DeployedNode:
        return add(role, case.substations[sid].position, substation=sid, region=region_of[sid])

    gateways = [at_substation(Role.GATEWAY, sid) for sid in sorted(case.substations)]
    rs = [add(Role.RS, region_centroid(case, r), region=r.id) for r in regions]
    pdc = [add(Role.PDC, region_centroid(case, r), region=r.id) for r in regions]
    main_gw, backup_gw = [at_substation(Role.CC_GATEWAY, sid) for sid in (main_cc, backup_cc)]
    main_srv, backup_srv = [at_substation(Role.CC_SERVER, sid) for sid in (main_cc, backup_cc)]

    positions = [s.position for s in case.substations.values()]
    x_lo, x_hi = min(p[0] for p in positions), max(p[0] for p in positions)
    y_lo, y_hi = min(p[1] for p in positions), max(p[1] for p in positions)
    for role, count in ((Role.RELAY, relay_count), (Role.EHRN, ehrn_count)):
        for _ in range(count):
            add(role, (rng.uniform(x_lo, x_hi), rng.uniform(y_lo, y_hi)))

    return Topology(
        case=case,
        d_km=d_km,
        main_cc=main_cc,
        backup_cc=backup_cc,
        regions=regions,
        pmu_buses=place_pmus(case),
        nodes=nodes,
        rs_ring=build_ring(main_gw, backup_gw, rs),
        pdc_ring=build_ring(main_gw, backup_gw, pdc),
        gateway_of_substation={n.substation: n.id for n in gateways},
        rs_of_region={n.region: n.id for n in rs},
        pdc_of_region={n.region: n.id for n in pdc},
        cc_gateways=(main_gw.id, backup_gw.id),
        cc_servers=(main_srv.id, backup_srv.id),
    )


def export_topology(topo: Topology, path: str) -> None:
    """Write the built graph as a line-oriented node/edge list.

    Node lines carry role and position; edge lines carry the link kind.
    Wireless links are range-dependent and therefore not listed.
    """
    lines = [f"# topology for {os.path.basename(topo.case.name)}"]
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
