"""End-to-end run orchestration.

Wires topology, engine, crypto, protocol, and attacks into one seeded run:

1. setup: key agreement, key distribution over the optical rings, trust
   bootstrap with test traffic through every candidate node,
2. election of cluster heads and first routes at the end of setup; each
   (gateway, kind) flow that carries readings is one ``Flow``: its pairwise
   key, its sink, its exclusions, and its route, kept as the route's hop
   table until a reroute,
3. measured traffic for the configured duration (event-driven readings plus
   fixed-rate phasor frames), windows aggregated at the sinks and sealed to
   the control centers over the ring,
4. drain: the queue runs dry, then metrics are assembled.

Separate named child seeds drive deployment, traffic, attacks, bootstrap
jitter, and key generation, so e.g. attack selection never perturbs traffic.

A route is its hop table: per hop the sending and receiving node, transmit
and receive energy and latency, computed once per (route, packet size) from
the same radio and energy model calls a hop would make.  A packet never
changes size on its way (tampering keeps the ciphertext length), so a flow's
route is one table for a sealed reading's size, each probe target's table is
shared by its ``k_test`` probes, and a reroute request builds one for the
data packet's hops reversed.  Sensor, data and reroute packets carry their
``SensorReading``.  One event per hop, ``_walk``, lands the previous hop and
sends the next.  Every wireless packet, delivered or lost, ends in one call to
``_end(pkt, idx, cause)``, where ``idx`` is the number of its hops it landed.
The wired plane walks stored routes of node ids, one ``_wire`` event per hop;
each sink's two routes to the control-center servers are built at start-up.
Only the plan's attackers are asked how they forward, from their activation
time on, set-up included.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field

from . import protocol
from .attacks import AttackError, apply_attack, tamper_bytes
from .crypto import (
    CryptoError, CryptoMemo, derive_key, fixed_base_batch, keypair_generate, pk_decrypt, pk_encrypt,
)
from .crypto import ecdh_shared  # not called here; perfbench's tests check its tracer wraps this binding
from .engine import EventQueue, NeighborIndex, SimNode, build_sim_nodes
from .metrics import (
    DROP_CAUSES,
    AuditError,
    MetricsRecord,
    ReadingLedger,
    TraceLog,
    mean,
    p95,
)
from .protocol import Packet, PacketKind, SensorReading
from .scenario import ScenarioConfig, ScenarioError
from .topology import Role, Topology, distance

_MAX_GREEDY_HOPS = 64
# Bound once: _walk, _end and _deliver read them on every event, and a global
# read costs a tenth of an enum member's lookup.
_REROUTE, _TEST = PacketKind.REROUTE, PacketKind.TEST
_MAX_RETRANSMITS = 5


def child_rng(seed: int, stream: str) -> random.Random:
    return random.Random(f"{seed}:{stream}")


@dataclass(slots=True)
class Flow:
    """One (gateway, kind) flow with sensors behind it."""

    key: bytes  # pairwise with the sink
    sink: SimNode
    excluded: set[int] = field(default_factory=set)  # for good
    hops: tuple | None = None  # the route, as its hop table, until a reroute request


class Simulation:
    """One seeded run over a built topology."""

    def __init__(self, topo: Topology, cfg: ScenarioConfig, seed: int,
                 trace: TraceLog | None = None):
        self.topo = topo
        self.cfg = cfg
        self.seed = seed
        self.trace = trace
        self.radio = cfg.radio()
        self.energy = cfg.energy()
        self.curve = cfg.curve_obj()
        self.queue = EventQueue()

        self.rng_traffic = child_rng(seed, "traffic")
        self.rng_attack = child_rng(seed, "attack")
        self.rng_bootstrap = child_rng(seed, "bootstrap")
        self.rng_crypto = child_rng(seed, "crypto")

        self.nodes: dict[int, SimNode] = build_sim_nodes(
            topo, cfg.relay_battery_j, cfg.ehrn_capacity_j, cfg.ehrn_recharge_w
        )
        self.index = NeighborIndex(self.nodes, self.radio)
        # SCADA readings go to their region's RS, phasor frames to its PDC.
        self._sinks = {PacketKind.SCADA: topo.rs_of_region, PacketKind.PMU: topo.pdc_of_region}

        self.ledger = ReadingLedger()
        self.packet_drops = {cause: 0 for cause in DROP_CAUSES}
        self.reroutes = 0
        self._reading_seq = 0
        self._aggregate_seq = 0
        # Keystreams and ECDH keys a seal computed, for its opens: an aggregate's
        # ECDH key is computed once for its seal and both server opens.
        # Emptied when the run ends.
        self._crypto_memo = CryptoMemo()
        self._cn_cache: dict[int, tuple[float, int]] = {}

        self.group_key = hashlib.sha256(f"group:{seed}".encode()).digest()[:16]

        # Attack plan over the wireless population.
        wireless_ids = [n.id for n in self.nodes.values() if n.wireless]
        relay_ids = [n.id for n in self.nodes.values() if n.role is Role.RELAY]
        try:
            self.plan = apply_attack(cfg.attack, wireless_ids, relay_ids, self.rng_attack)
        except AttackError as exc:
            raise ScenarioError(f"[attack] {exc}") from None
        # Only these nodes ever misbehave; the walk asks the plan about no other.
        self._attackers = self.plan.blackholes | frozenset(self.plan.grayholes) | self.plan.tampers

        # Sensing plane: one measurement sensor per bus, a data unit per
        # substation, a phasor sensor at each placed bus.
        self._setup_sensors()

        # Control-center key pair, and a pairwise key for each sensed flow.
        self._setup_keys()

        self._sink_buffer: dict[int, list[SensorReading]] = {
            nid: [] for sinks in self._sinks.values() for nid in sinks.values()
        }
        # Per sink, its wired routes to the main and the backup server: the
        # shorter arc of its ring to that center's gateway (a ring closes from
        # its last node back to its first), the forward one on a tie, as min
        # keeps the first of equal lengths, then the server.
        main_srv, backup_srv = topo.cc_servers
        self._server_routes = {
            ring[i]: ((*min(ring[i:] + ring[:1], ring[i::-1], key=len), main_srv),
                      (*min(ring[i:], ring[i::-1] + ring[-1:], key=len), backup_srv))
            for ring in (topo.rs_ring, topo.pdc_ring) for i in range(1, len(ring) - 1)
        }
        self.keyed: set[int] = set()  # nodes that key distribution reached

        self.metrics: MetricsRecord | None = None

    # ----- construction helpers -----

    def _setup_keys(self) -> None:
        topo = self.topo
        n = self.curve.n
        # The control center's public key is sealed for.  Sinks and gateways
        # only need their private keys, drawn as keypair_generate draws them.
        self.cc_keypair = keypair_generate(self.curve, self.rng_crypto)
        sink_private = {}
        for sinks in self._sinks.values():
            for rid in sorted(sinks):
                sink_private[sinks[rid]] = self.rng_crypto.randrange(1, n)
        # A gateway shares one pairwise key with the sink of each kind it has
        # sensors for, bound to the flow's label so small-curve ECDH
        # collisions stay apart.  Every gateway draws a private key, so later
        # draws from the crypto stream do not depend on which flows are sensed.
        sensed = {(route[-1], kind) for kind, route, _, _ in self.sensors}
        pending = []  # (gateway, kind, sink, gw private * sink private mod n) per sensed flow
        for sid in sorted(topo.gateway_of_substation):
            gw = topo.gateway_of_substation[sid]
            gw_private = self.rng_crypto.randrange(1, n)
            for kind, sinks in self._sinks.items():
                if (gw, kind) in sensed:
                    sink_id = sinks[self.nodes[gw].region]
                    pending.append((gw, kind, sink_id, gw_private * sink_private[sink_id] % n))
        # One batched pass over G's window table serves every key:
        # (gw private * sink private mod n) * G = gw private * sink public.
        shared = fixed_base_batch(self.curve, [k for *_, k in pending])
        self.flows: dict[tuple[int, PacketKind], Flow] = {}
        for (gw, kind, sink_id, k), point in zip(pending, shared):
            if point is None:  # k is below n, so only k = 0 lands here
                raise CryptoError(f"pairwise scalar {k} gives the point at infinity")
            label = f"pair:{gw}:{kind.value}:".encode()
            key = hashlib.sha256(label + derive_key(self.curve, point)).digest()[:16]
            self.flows[(gw, kind)] = Flow(key, self.nodes[sink_id])

    def _setup_sensors(self) -> None:
        """Number the wired sensing plane after the deployed nodes: RTUs,
        then measurement sensors, then phasor sensors.  These mains-powered
        nodes only name the ends of wired hops in the trace.  A sensor is
        (kind, wired route to its gateway, bus, substation)."""
        case = self.topo.case
        gateway = self.topo.gateway_of_substation
        next_id = max(self.nodes) + 1
        rtu = {sid: next_id + i for i, sid in enumerate(sorted(case.substations))}
        next_id += len(rtu)
        self.sensors: list[tuple[PacketKind, tuple[int, ...], int, int]] = []
        for kind, buses in ((PacketKind.SCADA, case.buses), (PacketKind.PMU, self.topo.pmu_buses)):
            for bus in sorted(buses):
                sid = case.substation_of(bus)
                via = (rtu[sid],) if kind is PacketKind.SCADA else ()
                self.sensors.append((kind, (next_id, *via, gateway[sid]), bus, sid))
                next_id += 1

    # ----- small utilities -----

    def _next_seq(self, node_id: int) -> int:
        node = self.nodes[node_id]
        node.seq += 1
        return node.seq

    def _trace(self, ev: str, pkt: Packet, src: int, dst: int) -> None:
        """Log one packet event; callers check that tracing is on."""
        self.trace.event(self.queue.now, ev, pkt.seq, src, dst, pkt.kind.value)

    def _connectivity(self, node: SimNode) -> int:
        cached = self._cn_cache.get(node.id)
        if cached is not None and cached[0] == self.queue.now:
            return cached[1]
        # Less the node itself: _route only asks about a candidate alive_within just found alive.
        count = len(self.index.alive_within(node.position, self.queue.now)) - 1
        self._cn_cache[node.id] = (self.queue.now, count)
        return count

    # ----- routing -----

    def _greedy(self, start_pos, target: SimNode, role: Role, excluded=frozenset()) -> list[SimNode] | None:
        """Greedy geographic chain of ``role`` nodes toward ``target``, avoiding ``excluded`` ids.

        Returns the intermediate nodes (possibly none if the target is in
        range), or None when progress stalls.  Every step strictly cuts the
        distance to the target, so no node on the chain, nor one at the start,
        can be picked twice.
        """
        now = self.queue.now
        range_km = self.radio.range_km
        pos = start_pos
        chain: list[SimNode] = []
        for _ in range(_MAX_GREEDY_HOPS):
            here = distance(pos, target.position)
            if here <= range_km:
                return chain
            best, best_d = None, here
            # Candidates come in id order, so a tie on distance keeps the lower id.
            for cand in self.index.alive_within(pos, now):
                if cand.role is not role or cand.id in excluded:
                    continue
                d = distance(cand.position, target.position)
                if d < best_d:
                    best, best_d = cand, d
            if best is None:
                return None
            chain.append(best)
            pos = best.position
        return None

    def _route(self, gw_id: int, kind: PacketKind, flow: Flow) -> tuple | None:
        """The flow's stored hop table, or a new route's, stored until a reroute request.

        SCADA elects a head among the relays in range that the flow has not
        excluded, then walks relays greedily from it excluding nothing: an
        excluded relay never heads again but may still relay further on.
        Phasor frames walk harvesters from the gateway, avoiding all excluded.
        """
        if flow.hops is not None:
            return flow.hops
        gw = self.nodes[gw_id]
        sink, excluded = flow.sink, flow.excluded
        route = None
        if kind is PacketKind.PMU:
            mid = self._greedy(gw.position, sink, Role.EHRN, excluded)
            if mid is not None:
                route = (gw, *mid, sink)
        else:
            scores: dict[int, float] = {}
            for cand in self.index.alive_within(gw.position, self.queue.now):
                if cand.role is not Role.RELAY or cand.id in excluded:
                    continue
                scores[cand.id] = protocol.candidate_value(
                    100.0 * cand.battery_j / cand.capacity_j,
                    protocol.trust_value(cand.delivered, cand.sent),
                    self._connectivity(cand),
                )
            # Walk candidates in election order until one has a live route.
            while scores:
                head = protocol.elect_cluster_head(scores)
                if head is None:
                    break
                head_node = self.nodes[head]
                mid = self._greedy(head_node.position, sink, Role.RELAY)
                if mid is not None:
                    route = (gw, head_node, *mid, sink)
                    break
                del scores[head]
        if route is not None:
            flow.hops = self._hop_table(route, protocol.SEALED_READING_BITS)
        return flow.hops

    # ----- wireless walk -----

    def _hop_table(self, route, bits: int) -> tuple:
        """Hop i of a ``bits``-bit packet along the nodes of ``route``:
        (sender, receiver, transmit J, receive J, latency s)."""
        rx_j = self.energy.rx_cost_j(bits)
        latency_s = self.radio.hop_latency_s(bits)
        hops = []
        for sender, receiver in zip(route, route[1:]):
            dist_m = distance(sender.position, receiver.position) * 1000.0
            hops.append((sender, receiver, self.energy.tx_cost_j(bits, dist_m), rx_j, latency_s))
        return tuple(hops)

    def _walk(self, pkt: Packet, idx: int) -> None:
        """Land hop ``idx - 1`` of ``pkt.hops`` when ``idx > 0``, paying receive
        energy, then send hop ``idx``, paying transmit energy at the sender."""
        hops = pkt.hops
        now = self.queue.now
        if idx:
            prev, node, _, rx_j, _ = hops[idx - 1]
            if not node.spend(rx_j, now):
                self._end(pkt, idx - 1, "dead_battery")
                return
            if self.trace is not None:
                self._trace("recv", pkt, prev.id, node.id)
            if idx == len(hops):
                if node.id != pkt.dst:
                    self._end(pkt, idx, "no_route")
                else:
                    self._deliver(node, pkt)
                return
            # Attacks may be active during set-up, so probes pass this check too.
            if node.id in self._attackers:
                behavior = self.plan.behavior(node.id, now)
                # A drop's cause is the behavior's name.
                if behavior == "blackhole" or (
                    behavior == "grayhole" and self.rng_attack.random() < self.plan.grayholes[node.id]
                ):
                    self._end(pkt, idx, behavior)
                    return
                if behavior == "tamper" and pkt.ciphertext:
                    pkt.ciphertext = tamper_bytes(pkt.ciphertext, self.rng_attack)
        sender, receiver, tx_j, _, latency_s = hops[idx]
        if not sender.spend(tx_j, now):
            self._end(pkt, idx, "dead_battery")
            return
        if self.trace is not None:
            self._trace("send", pkt, sender.id, receiver.id)
        # Trust counts monitoring traffic only: reroute requests earn no credit.
        if receiver.wireless and pkt.kind is not _REROUTE:
            receiver.sent += 1
        self.queue.schedule(now + latency_s, self._walk, pkt, idx + 1)

    def _end(self, pkt: Packet, idx: int, cause: str | None = None) -> None:
        """Settle a wireless packet that landed ``idx`` of its hops, delivered if ``cause`` is
        None: the one place that credits trust, books its reading, and counts and traces a loss."""
        if cause is None:
            if pkt.reading is not None:
                if pkt.kind is _REROUTE:
                    return  # control plane: no credit, and its reading is not at a sink
                self.ledger.at_sink(pkt.reading.id)
            for _, receiver, _, _, _ in pkt.hops[:idx]:
                if receiver.wireless:
                    receiver.delivered += 1
            return
        self.packet_drops[cause] += 1
        # A lost reroute request's reading is already dropped as rejected.
        if pkt.reading is not None:
            self.ledger.dropped(pkt.reading.id, cause)
        if self.trace is not None:
            if cause == "rejected" or not pkt.hops:  # the sink's rejection, or no route at dispatch
                src, dst = pkt.src, pkt.dst
            elif cause == "dead_battery":  # the ends of the hop it did not land
                src, dst = pkt.hops[idx][0].id, pkt.hops[idx][1].id
            elif cause == "no_route":  # a probe stalled at its last receiver
                src, dst = pkt.hops[idx - 1][0].id, pkt.hops[idx - 1][1].id
            else:  # the blackhole or grayhole that dropped it
                src, dst = pkt.hops[idx - 1][1].id, pkt.dst
            self._trace("reject" if cause == "rejected" else "drop", pkt, src, dst)

    # ----- sink side -----

    def _deliver(self, node: SimNode, pkt: Packet) -> None:
        """``pkt`` landed its last hop, at its destination ``node``."""
        if pkt.kind is _TEST:
            self._end(pkt, len(pkt.hops))
            return
        if pkt.kind is _REROUTE:  # the sink rejected this reading
            self._end(pkt, len(pkt.hops))
            self.reroutes += 1
            flow = self.flows[(node.id, pkt.reading.kind)]
            # Blame its last sender, the first node past the gateway (a tamperer is mid-route).
            flow.excluded.add(pkt.hops[-1][0].id)
            flow.hops = None
            if self.ledger.entries[pkt.reading.id].retransmits < _MAX_RETRANSMITS:
                self.ledger.resent(pkt.reading.id)
                self._dispatch(node.id, pkt.reading)
            return
        key = self.flows[(pkt.src, pkt.kind)].key
        try:
            plaintext = protocol.open_sealed(
                key, self.group_key, pkt.seq, pkt.ciphertext, pkt.tag, memo=self._crypto_memo
            )
        except protocol.TamperRejected:
            self._end(pkt, len(pkt.hops), "rejected")
            # Ask the gateway to reroute, back along the data packet's hops.
            back = Packet(self._next_seq(node.id), node.id, pkt.src, PacketKind.REROUTE, reading=pkt.reading)
            back.hops = self._hop_table((node, *(hop[0] for hop in reversed(pkt.hops))), back.size_bits())
            if self.trace is not None:
                self._trace("reroute", back, node.id, pkt.src)
            self._walk(back, 0)
            return
        self._end(pkt, len(pkt.hops))
        self._sink_buffer[node.id].append(protocol.deserialize_reading(plaintext))

    # ----- gateway side -----

    def _dispatch(self, gw_id: int, reading: SensorReading) -> None:
        kind = reading.kind
        flow = self.flows[(gw_id, kind)]
        hops = self._route(gw_id, kind, flow)
        seq = self._next_seq(gw_id)
        if hops is None:
            self._end(Packet(seq, gw_id, flow.sink.id, kind, reading=reading), 0, "no_route")
            return
        ciphertext, tag = protocol.seal(
            flow.key, self.group_key, seq, protocol.serialize_reading(reading),
            memo=self._crypto_memo,
        )
        self._walk(Packet(seq, gw_id, flow.sink.id, kind, ciphertext, tag, reading, hops), 0)

    # ----- sensing plane -----

    def _gap(self, kind: PacketKind) -> float:
        """Time to a sensor's next reading: exponential for SCADA, one frame
        period for phasors."""
        if kind is PacketKind.SCADA:
            return self.rng_traffic.expovariate(1.0 / self.cfg.scada_interval_s)
        return 1.0 / self.cfg.pmu_rate_hz

    def _fire(self, sensor: tuple[PacketKind, tuple[int, ...], int, int]) -> None:
        """A reading leaves its sensor over the substation's wired links."""
        kind, route, bus, substation = sensor
        now = self.queue.now
        self._reading_seq += 1
        reading = SensorReading(
            self._reading_seq, kind, bus, substation, now, self.rng_traffic.random()
        )
        self.ledger.generated(reading)
        pkt = Packet(reading.id, route[0], route[-1], kind, reading=reading)
        self._wire(pkt, route, 0, self.cfg.intra_substation_latency_s)
        nxt = now + self._gap(kind)
        if nxt < self._traffic_end:
            self.queue.schedule(nxt, self._fire, sensor)

    # ----- wired walk, aggregation and the optical plane -----

    def _wire(self, pkt: Packet, route: tuple[int, ...], idx: int, latency_s: float) -> None:
        """Land wired hop ``idx - 1`` of ``route`` (node ids) when ``idx > 0``,
        then send hop ``idx``; the route's last node handles the packet."""
        if idx:
            node_id, kind = route[idx], pkt.kind
            if self.trace is not None:
                self._trace("recv", pkt, route[idx - 1], node_id)
            if kind is PacketKind.KEYDIST:
                self.keyed.add(node_id)
            if idx == len(route) - 1:
                if kind is PacketKind.AGGREGATE:
                    self._server_receive(node_id, pkt)
                elif kind is not PacketKind.KEYDIST:
                    self._dispatch(node_id, pkt.reading)
                return
        if self.trace is not None:
            self._trace("send", pkt, route[idx], route[idx + 1])
        self.queue.schedule(self.queue.now + latency_s, self._wire, pkt, route, idx + 1, latency_s)

    def _flush_sink(self, sink_id: int, window_start: float, window_end: float) -> None:
        buffered = self._sink_buffer[sink_id]
        if not buffered or sink_id not in self.keyed:
            return  # until the control-center key arrives, readings wait
        readings = list(buffered)
        buffered.clear()
        self._aggregate_seq += 1
        ids = tuple(r.id for r in readings)
        self.ledger.aggregated(ids, self._aggregate_seq)
        sink = self.nodes[sink_id]
        blob = protocol.build_aggregate(sink.region, window_start, window_end, readings)
        sealed = pk_encrypt(
            self.curve, self.cc_keypair.public, blob, self.rng_crypto, self._aggregate_seq,
            memo=self._crypto_memo,
        )
        for route in self._server_routes[sink_id]:
            pkt = Packet(self._next_seq(sink_id), sink_id, route[-1], PacketKind.AGGREGATE,
                         ciphertext=sealed)
            self._wire(pkt, route, 0, self.cfg.wired_latency_s)

    def _server_receive(self, server_id: int, pkt: Packet) -> None:
        backup = server_id == self.topo.cc_servers[1]
        # Never true today: equal wired hops bring the backup its key after 3, any aggregate after >= 4.
        if backup and server_id not in self.keyed:
            raise ScenarioError("backup server got an aggregate before the shared private key")
        blob = pk_decrypt(
            self.curve, self.cc_keypair.private, pkt.ciphertext, memo=self._crypto_memo
        )
        _, _, _, readings = protocol.parse_aggregate(blob)
        self.ledger.delivered([r.id for r in readings], self.queue.now, backup=backup)

    # ----- setup phases -----

    def _distribute_keys(self) -> None:
        """Push the CC public key around both rings and the private key to
        the backup server, all over wired links."""
        main_gw, backup_gw = self.topo.cc_gateways
        main_srv, backup_srv = self.topo.cc_servers
        latency = self.cfg.wired_latency_s
        for ring in (self.topo.rs_ring, self.topo.pdc_ring):
            pkt = Packet(self._next_seq(main_srv), main_srv, ring[-1], PacketKind.KEYDIST)
            self._wire(pkt, (main_srv, *ring), 0, latency)
        pkt = Packet(self._next_seq(main_srv), main_srv, backup_srv, PacketKind.KEYDIST)
        self._wire(pkt, (main_srv, main_gw, backup_gw, backup_srv), 0, latency)

    def _trust_probes(self):
        """The trust-bootstrap plan: ``k_test`` test packets from every gateway
        through every candidate in range, yielded as they are drawn.  Delivery
        feeds the nodes' trust counts before the first election."""
        window = self.cfg.setup_s * 0.5
        bits = Packet(0, 0, 0, PacketKind.TEST).size_bits()  # probes carry no payload
        send = self._send_test
        for sid in sorted(self.topo.gateway_of_substation):
            gw_id = self.topo.gateway_of_substation[sid]
            gw = self.nodes[gw_id]
            for cand in self.index.alive_within(gw.position, 0.0):
                kind = PacketKind.SCADA if cand.role is Role.RELAY else PacketKind.PMU
                flow = self.flows.get((gw_id, kind))
                if flow is None:
                    continue
                sink = flow.sink
                mid = self._greedy(cand.position, sink, cand.role)
                # With no chain onward, the walk stalls at the candidate.
                route = (gw, cand) if mid is None else (gw, cand, *mid, sink)
                args = (gw, sink.id, self._hop_table(route, bits))
                for _ in range(self.cfg.k_test):
                    # window * random() is what uniform(0.0, window) computes.
                    yield window * self.rng_bootstrap.random(), send, args

    def _send_test(self, gw: SimNode, sink_id: int, hops: tuple) -> None:
        gw.seq += 1
        self._walk(Packet(gw.seq, gw.id, sink_id, PacketKind.TEST, None, None, None, hops), 0)

    def _initial_election(self) -> None:
        for (gw_id, kind), flow in self.flows.items():
            self._route(gw_id, kind, flow)

    def _start_traffic(self) -> None:
        """Measurement sensors first fire at a random offset into traffic,
        phasor sensors at its very start."""
        for sensor in self.sensors:
            first = self.cfg.setup_s
            if sensor[0] is PacketKind.SCADA:
                first += self._gap(PacketKind.SCADA)
            if first < self._traffic_end:
                self.queue.schedule(first, self._fire, sensor)

    def _window_ticks(self):
        """Every sink flushes its buffer at the end of each aggregation window."""
        window = self.cfg.aggregation_window_s
        horizon = self.cfg.duration_s + self.cfg.settle_s
        ticks = int(math.ceil(horizon / window)) + 1
        flush = self._flush_sink
        for k in range(1, ticks + 1):
            at = self.cfg.setup_s + k * window
            for sink_id in self._sink_buffer:
                yield at, flush, (sink_id, at - window, at)

    # ----- run -----

    def run(self) -> MetricsRecord:
        self._traffic_end = self.cfg.setup_s + self.cfg.duration_s
        self._distribute_keys()
        self.queue.schedule_all(self._trust_probes())
        self.queue.schedule(self.cfg.setup_s, self._initial_election)
        self._start_traffic()
        self.queue.schedule_all(self._window_ticks())
        self.queue.run_all()
        self._crypto_memo.clear()
        self.metrics = self._collect()
        return self.metrics

    def _collect(self) -> MetricsRecord:
        end = self.queue.now
        scada = self.ledger.summarize(PacketKind.SCADA)
        pmu = self.ledger.summarize(PacketKind.PMU)
        dead_relays = dead_ehrns = 0
        energy_total = 0.0
        for node in self.nodes.values():
            energy_total += node.consumed_j
            if node.role is Role.RELAY and node.battery_j <= 0.0:
                dead_relays += 1
            elif node.role is Role.EHRN and not node.alive(end):
                dead_ehrns += 1
        ratio = lambda got, total: (got / total) if total else 1.0
        return MetricsRecord(
            seed=self.seed,
            duration_s=self.cfg.duration_s,
            scada_generated=scada["generated"],
            scada_delivered=scada["delivered"],
            scada_in_flight=scada["in_flight"],
            scada_dropped_blackhole=scada["drops"]["blackhole"],
            scada_dropped_grayhole=scada["drops"]["grayhole"],
            scada_dropped_dead_battery=scada["drops"]["dead_battery"],
            scada_dropped_no_route=scada["drops"]["no_route"],
            scada_dropped_rejected=scada["drops"]["rejected"],
            delivery_ratio=ratio(scada["delivered"], scada["generated"]),
            delay_mean_s=mean(scada["delays"]),
            delay_p95_s=p95(scada["delays"]),
            pmu_generated=pmu["generated"],
            pmu_delivered=pmu["delivered"],
            pmu_in_flight=pmu["in_flight"],
            pmu_delivery_ratio=ratio(pmu["delivered"], pmu["generated"]),
            pmu_delay_mean_s=mean(pmu["delays"]),
            # A rejection is a reading's loss but not a packet drop.
            packet_drops_total=sum(self.packet_drops.values()) - self.packet_drops["rejected"],
            packet_drops_blackhole=self.packet_drops["blackhole"],
            packet_drops_grayhole=self.packet_drops["grayhole"],
            packet_drops_dead_battery=self.packet_drops["dead_battery"],
            packet_drops_no_route=self.packet_drops["no_route"],
            tamper_rejections=self.packet_drops["rejected"],
            reroutes=self.reroutes,
            retransmissions=sum(s.retransmits for s in self.ledger.entries.values()),
            energy_consumed_j=energy_total,
            dead_relays=dead_relays,
            dead_ehrns=dead_ehrns,
            events_processed=self.queue.processed,
        )

    # ----- audits -----

    def audit(self) -> None:
        """Closure and dual-delivery audit; raises AuditError on any leak."""
        self.ledger.audit_closure(r.id for held in self._sink_buffer.values() for r in held)
        for state in self.ledger.entries.values():
            if state.status == "delivered" and not state.delivered_backup:
                raise AuditError(
                    f"reading {state.reading.id} reached the main server only"
                )
