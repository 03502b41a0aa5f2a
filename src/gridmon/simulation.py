"""End-to-end run orchestration.

Wires topology, engine, crypto, protocol, and attacks into one seeded run:

1. setup (attack-free): key agreement, key distribution over the optical
   rings, trust bootstrap with test traffic through every candidate node,
2. election of cluster heads and first routes at the end of setup,
3. measured traffic for the configured duration (event-driven readings plus
   fixed-rate phasor frames), windows aggregated at the sinks and sealed to
   the control centers over the ring,
4. drain: the queue runs dry, then metrics are assembled.

Separate named child seeds drive deployment, traffic, attacks, bootstrap
jitter, and key generation, so e.g. attack selection never perturbs traffic.
"""

from __future__ import annotations

import hashlib
import math
import random

from . import protocol
from .attacks import AttackPlan, apply_attack, tamper_bytes
from .crypto import ecdh_shared, keypair_generate, pk_decrypt, pk_encrypt
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
from .protocol import Packet, PacketKind, RoutingTable, SensorReading, TrustLedger
from .scenario import ScenarioConfig
from .topology import Role, Topology, distance

_MAX_GREEDY_HOPS = 64
_MAX_RETRANSMITS = 5


def child_rng(seed: int, stream: str) -> random.Random:
    return random.Random(f"{seed}:{stream}")


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

        self.trust = TrustLedger()
        self.ledger = ReadingLedger()
        self.routing: dict[int, RoutingTable] = {}
        self.packet_drops = {cause: 0 for cause in DROP_CAUSES}
        self.tamper_rejections = 0
        self.reroutes = 0
        self.retransmissions = 0
        self._seq: dict[int, int] = {}
        self._reading_seq = 0
        self._aggregate_seq = 0
        self._cn_cache: dict[int, tuple[float, int]] = {}

        self.group_key = hashlib.sha256(f"group:{seed}".encode()).digest()[:16]

        # Attack plan over the wireless population.
        wireless_ids = [n.id for n in self.nodes.values() if n.wireless]
        relay_ids = [n.id for n in self.nodes.values() if n.role is Role.RELAY]
        self.plan: AttackPlan = apply_attack(cfg.attack, wireless_ids, relay_ids, self.rng_attack)

        # Pairwise keys, control-center key pair, sink state.
        self._setup_keys()

        # Sensing plane: one measurement sensor per bus, a data unit per
        # substation, a phasor sensor at each placed bus.
        self._setup_sensors()

        self._sink_buffer: dict[int, list[SensorReading]] = {
            nid: [] for sinks in self._sinks.values() for nid in sinks.values()
        }
        self.sink_cc_pub: dict[int, tuple[int, int] | None] = {
            nid: None for nid in self._sink_buffer
        }
        self.backup_private: int | None = None

        self.metrics: MetricsRecord | None = None

    # ----- construction helpers -----

    def _setup_keys(self) -> None:
        topo = self.topo
        self.cc_keypair = keypair_generate(self.curve, self.rng_crypto)
        sink_keys = {}
        for sinks in self._sinks.values():
            for rid in sorted(sinks):
                sink_keys[sinks[rid]] = keypair_generate(self.curve, self.rng_crypto)
        # Each gateway shares one pairwise key with each of its region's sinks.
        self.pair_key: dict[tuple[int, PacketKind], bytes] = {}
        for sid in sorted(topo.gateway_of_substation):
            gw = topo.gateway_of_substation[sid]
            gw_kp = keypair_generate(self.curve, self.rng_crypto)
            for kind in self._sinks:
                sink_public = sink_keys[self._sink(gw, kind)].public
                self.pair_key[(gw, kind)] = ecdh_shared(self.curve, gw_kp.private, sink_public)
            self.routing[gw] = RoutingTable()

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
        self.pmu_gateways = {
            route[-1] for kind, route, _, _ in self.sensors if kind is PacketKind.PMU
        }

    # ----- small utilities -----

    def _next_seq(self, node_id: int) -> int:
        self._seq[node_id] = self._seq.get(node_id, 0) + 1
        return self._seq[node_id]

    def _trace(self, ev: str, pkt: Packet, src: int, dst: int) -> None:
        if self.trace is not None:
            self.trace.event(self.queue.now, ev, pkt.seq, src, dst, pkt.kind.value)

    def _drop(self, pkt: Packet, at_src: int, at_dst: int, cause: str) -> None:
        self._trace("drop", pkt, at_src, at_dst)
        self.packet_drops[cause] += 1
        if pkt.reading_ids:
            self.ledger.dropped(pkt.reading_ids, cause)

    def _connectivity(self, node: SimNode) -> int:
        cached = self._cn_cache.get(node.id)
        if cached is not None and cached[0] == self.queue.now:
            return cached[1]
        count = len(self.index.alive_within(node.position, self.queue.now, exclude_id=node.id))
        self._cn_cache[node.id] = (self.queue.now, count)
        return count

    def _sink(self, gw_id: int, kind: PacketKind) -> int:
        """The sink that takes ``kind`` readings from this gateway's region."""
        return self._sinks[kind][self.nodes[gw_id].region]

    def _battery_pct(self, node: SimNode) -> float:
        if math.isinf(node.battery_j):
            return 100.0
        return 100.0 * node.battery_j / node.capacity_j

    # ----- routing -----

    def _greedy(self, start_pos, target: SimNode, role: Role, excluded: set[int]) -> list[int] | None:
        """Greedy geographic chain of ``role`` nodes toward ``target``.

        Returns intermediate node ids (possibly empty if the target is in
        range), or None when progress stalls.
        """
        now = self.queue.now
        range_km = self.radio.range_km
        pos = start_pos
        hops: list[int] = []
        seen: set[int] = set(excluded)
        for _ in range(_MAX_GREEDY_HOPS):
            here = distance(pos, target.position)
            if here <= range_km:
                return hops
            best = None
            best_key = None
            for cand in self.index.alive_within(pos, now):
                if cand.role is not role or cand.id in seen:
                    continue
                d = distance(cand.position, target.position)
                if d < here:
                    key = (d, cand.id)
                    if best_key is None or key < best_key:
                        best, best_key = cand, key
            if best is None:
                return None
            hops.append(best.id)
            seen.add(best.id)
            pos = best.position
        return None

    def _ensure_scada_route(self, gw_id: int) -> tuple[int, ...] | None:
        rt = self.routing[gw_id]
        if rt.scada_path:
            return rt.scada_path
        gw = self.nodes[gw_id]
        now = self.queue.now
        rs = self.nodes[self._sink(gw_id, PacketKind.SCADA)]
        scores: dict[int, float] = {}
        for cand in self.index.alive_within(gw.position, now):
            if cand.role is not Role.RELAY or cand.id in rt.excluded_scada:
                continue
            scores[cand.id] = protocol.candidate_value(
                self._battery_pct(cand),
                self.trust.trust_value(cand.id),
                self._connectivity(cand),
            )
        # Walk candidates in election order until one has a live route.
        while scores:
            head = protocol.elect_cluster_head(scores)
            if head is None:
                return None
            mid = self._greedy(self.nodes[head].position, rs, Role.RELAY, {head})
            if mid is not None:
                rt.head = head
                rt.scada_path = (gw_id, head, *mid, rs.id)
                return rt.scada_path
            del scores[head]
        return None

    def _ensure_pmu_route(self, gw_id: int) -> tuple[int, ...] | None:
        rt = self.routing[gw_id]
        if rt.pmu_path:
            return rt.pmu_path
        gw = self.nodes[gw_id]
        pdc = self.nodes[self._sink(gw_id, PacketKind.PMU)]
        mid = self._greedy(gw.position, pdc, Role.EHRN, rt.excluded_pmu)
        if mid is None:
            return None
        rt.pmu_path = (gw_id, *mid, pdc.id)
        return rt.pmu_path

    # ----- wireless walk -----

    def _transmit(self, pkt: Packet, idx: int) -> None:
        """Send hop idx -> idx+1 of ``pkt.path``, paying transmit energy at the sender."""
        path = pkt.path
        sender = self.nodes[path[idx]]
        nxt = self.nodes[path[idx + 1]]
        bits = pkt.size_bits()
        dist_m = distance(sender.position, nxt.position) * 1000.0
        if not sender.spend(self.energy.tx_cost_j(bits, dist_m), self.queue.now):
            self._drop(pkt, sender.id, nxt.id, "dead_battery")
            return
        self._trace("send", pkt, sender.id, nxt.id)
        # Trust counts monitoring traffic only; reroute requests are control
        # plane and earn no credit either way.
        if nxt.wireless and pkt.kind is not PacketKind.REROUTE:
            self.trust.record_sent(nxt.id)
        self.queue.schedule(
            self.queue.now + self.radio.hop_latency_s(bits), self._hop_arrive, pkt, idx + 1
        )

    def _hop_arrive(self, pkt: Packet, idx: int) -> None:
        path = pkt.path
        node = self.nodes[path[idx]]
        prev = path[idx - 1]
        now = self.queue.now
        if not node.spend(self.energy.rx_cost_j(pkt.size_bits()), now):
            self._drop(pkt, prev, node.id, "dead_battery")
            return
        self._trace("recv", pkt, prev, node.id)

        if idx == len(path) - 1:
            if node.id != pkt.dst:
                self._drop(pkt, prev, node.id, "no_route")
                return
            self._deliver(node, pkt)
            return

        behavior = self.plan.behavior(node.id, now) if node.wireless else None
        if behavior == "blackhole":
            self._drop(pkt, node.id, pkt.dst, "blackhole")
            return
        if behavior == "grayhole":
            if self.rng_attack.random() < self.plan.grayholes[node.id]:
                self._drop(pkt, node.id, pkt.dst, "grayhole")
                return
        elif behavior == "tamper" and pkt.ciphertext:
            pkt.ciphertext = tamper_bytes(pkt.ciphertext, self.rng_attack)
        self._transmit(pkt, idx)

    def _credit_path(self, pkt: Packet) -> None:
        for nid in pkt.path:
            if self.nodes[nid].wireless:
                self.trust.record_delivered(nid)

    # ----- sink side -----

    def _deliver(self, node: SimNode, pkt: Packet) -> None:
        if pkt.kind is PacketKind.TEST:
            self._credit_path(pkt)
            return
        if pkt.kind is PacketKind.REROUTE:
            self._handle_reroute(node.id, pkt)
            return
        key = self.pair_key.get((pkt.src, pkt.kind))
        if key is None:
            self._drop(pkt, pkt.src, node.id, "no_route")
            return
        try:
            plaintext = protocol.open_sealed(key, self.group_key, pkt.seq, pkt.ciphertext, pkt.tag)
        except protocol.TamperRejected:
            self._reject(node, pkt)
            return
        reading = protocol.deserialize_reading(
            plaintext, substation=self.nodes[pkt.src].substation or 0
        )
        self._credit_path(pkt)
        self.ledger.at_sink([reading.id])
        self._sink_buffer[node.id].append(reading)

    def _reject(self, sink: SimNode, pkt: Packet) -> None:
        """Tampered payload: refuse it and ask the sender to reroute."""
        self.tamper_rejections += 1
        self._trace("reject", pkt, pkt.src, sink.id)
        self.ledger.dropped(pkt.reading_ids, "rejected")
        back = Packet(
            seq=self._next_seq(sink.id),
            src=sink.id,
            dst=pkt.src,
            kind=PacketKind.REROUTE,
            path=tuple(reversed(pkt.path)),
            ref=pkt.reading_ids[0],
        )
        self._trace("reroute", back, sink.id, pkt.src)
        self._transmit(back, 0)

    def _handle_reroute(self, gw_id: int, pkt: Packet) -> None:
        """The sink rejected reading ``pkt.ref``: route around the culprit and resend."""
        self.reroutes += 1
        rt = self.routing[gw_id]
        state = self.ledger.entries[pkt.ref]
        # The first relay or harvester past the gateway takes the blame.
        culprit = pkt.path[-2] if len(pkt.path) > 2 else None
        if state.reading.kind is PacketKind.SCADA:
            if culprit is not None:
                rt.excluded_scada.add(culprit)
            rt.head = None
            rt.scada_path = ()
        else:
            if culprit is not None:
                rt.excluded_pmu.add(culprit)
            rt.pmu_path = ()
        if state.retransmits < _MAX_RETRANSMITS:
            self.ledger.resent(pkt.ref)
            self.retransmissions += 1
            self._dispatch(gw_id, state.reading)

    # ----- gateway side -----

    def _dispatch(self, gw_id: int, reading: SensorReading) -> None:
        kind = reading.kind
        scada = kind is PacketKind.SCADA
        path = self._ensure_scada_route(gw_id) if scada else self._ensure_pmu_route(gw_id)
        seq = self._next_seq(gw_id)
        if path is None:
            sink = self._sink(gw_id, kind)
            doomed = Packet(seq, gw_id, sink, kind, reading_ids=(reading.id,))
            self._drop(doomed, gw_id, sink, "no_route")
            return
        ciphertext, tag = protocol.seal(
            self.pair_key[(gw_id, kind)], self.group_key, seq, protocol.serialize_reading(reading)
        )
        pkt = Packet(
            seq=seq,
            src=gw_id,
            dst=path[-1],
            kind=kind,
            ciphertext=ciphertext,
            tag=tag,
            path=path,
            reading_ids=(reading.id,),
        )
        self._transmit(pkt, 0)

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
        pkt = Packet(reading.id, route[0], route[-1], kind)
        self._wired_send(pkt, route, 0, self.cfg.intra_substation_latency_s)
        nxt = now + self._gap(kind)
        if nxt < self._traffic_end:
            self.queue.schedule(nxt, self._fire, sensor)

    # ----- wired walk, aggregation and the optical plane -----

    def _wired_send(self, pkt: Packet, route: tuple[int, ...], idx: int, latency_s: float) -> None:
        self._trace("send", pkt, route[idx], route[idx + 1])
        self.queue.schedule(
            self.queue.now + latency_s, self._wired_arrive, pkt, route, idx + 1, latency_s
        )

    def _wired_arrive(self, pkt: Packet, route: tuple[int, ...], idx: int, latency_s: float) -> None:
        node_id = route[idx]
        kind = pkt.kind
        self._trace("recv", pkt, route[idx - 1], node_id)
        if kind is PacketKind.KEYDIST:
            self._store_key(node_id)
        if idx < len(route) - 1:
            self._wired_send(pkt, route, idx, latency_s)
        elif kind is PacketKind.AGGREGATE:
            self._server_receive(node_id, pkt)
        elif kind is not PacketKind.KEYDIST:
            # A sensor packet's seq is its reading id.
            self._dispatch(node_id, self.ledger.entries[pkt.seq].reading)

    def _ring_route(self, ring: list[int], from_id: int, to_id: int) -> list[int]:
        i, j = ring.index(from_id), ring.index(to_id)
        n = len(ring)
        fwd_steps = (j - i) % n
        back_steps = (i - j) % n
        if fwd_steps <= back_steps:
            return [ring[(i + k) % n] for k in range(fwd_steps + 1)]
        return [ring[(i - k) % n] for k in range(back_steps + 1)]

    def _flush_sink(self, sink_id: int, window_start: float, window_end: float) -> None:
        buffered = self._sink_buffer[sink_id]
        cc_pub = self.sink_cc_pub[sink_id]
        if not buffered or cc_pub is None:
            return  # until the control-center key arrives, readings wait
        readings = list(buffered)
        buffered.clear()
        self._aggregate_seq += 1
        ids = tuple(r.id for r in readings)
        self.ledger.aggregated(ids, self._aggregate_seq)
        sink = self.nodes[sink_id]
        blob = protocol.build_aggregate(sink.region, window_start, window_end, readings)
        sealed = pk_encrypt(self.curve, cc_pub, blob, self.rng_crypto)
        ring = self.topo.rs_ring if sink.role is Role.RS else self.topo.pdc_ring
        main_gw, backup_gw = self.topo.cc_gateways
        main_srv, backup_srv = self.topo.cc_servers
        for cc_gw, server in ((main_gw, main_srv), (backup_gw, backup_srv)):
            pkt = Packet(
                seq=self._next_seq(sink_id),
                src=sink_id,
                dst=server,
                kind=PacketKind.AGGREGATE,
                ciphertext=sealed,
                reading_ids=ids,
            )
            route = tuple(self._ring_route(ring, sink_id, cc_gw)) + (server,)
            self._wired_send(pkt, route, 0, self.cfg.wired_latency_s)

    def _server_receive(self, server_id: int, pkt: Packet) -> None:
        backup = server_id == self.topo.cc_servers[1]
        private = self.backup_private if backup else self.cc_keypair.private
        assert private is not None, "backup server is missing the shared private key"
        blob = pk_decrypt(self.curve, private, pkt.ciphertext)
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
            self._wired_send(pkt, (main_srv, *ring), 0, latency)
        pkt = Packet(self._next_seq(main_srv), main_srv, backup_srv, PacketKind.KEYDIST)
        self._wired_send(pkt, (main_srv, main_gw, backup_gw, backup_srv), 0, latency)

    def _store_key(self, node_id: int) -> None:
        """Key distribution reached ``node_id``: sinks keep the CC public
        key, the backup server the private key."""
        if node_id in self.sink_cc_pub:
            self.sink_cc_pub[node_id] = self.cc_keypair.public
        elif node_id == self.topo.cc_servers[1]:
            self.backup_private = self.cc_keypair.private

    def _bootstrap_trust(self) -> None:
        """Probe every candidate with test packets; delivery feeds the trust
        ledger before the first election."""
        window = self.cfg.setup_s * 0.5
        for sid in sorted(self.topo.gateway_of_substation):
            gw_id = self.topo.gateway_of_substation[sid]
            gw = self.nodes[gw_id]
            plans: list[tuple[int, tuple[int, ...]]] = []
            for cand in self.index.alive_within(gw.position, 0.0):
                if cand.role is Role.RELAY:
                    kind = PacketKind.SCADA
                elif gw_id in self.pmu_gateways:
                    kind = PacketKind.PMU
                else:
                    continue
                sink = self.nodes[self._sink(gw_id, kind)]
                mid = self._greedy(cand.position, sink, cand.role, {cand.id})
                if mid is None:
                    path = (gw_id, cand.id)  # walk will stall at the candidate
                else:
                    path = (gw_id, cand.id, *mid, sink.id)
                plans.append((sink.id, path))
            for sink_id, path in plans:
                for _ in range(self.cfg.k_test):
                    at = self.rng_bootstrap.uniform(0.0, window)
                    self.queue.schedule(at, self._send_test, gw_id, sink_id, path)

    def _send_test(self, gw_id: int, sink_id: int, path: tuple[int, ...]) -> None:
        pkt = Packet(
            seq=self._next_seq(gw_id),
            src=gw_id,
            dst=sink_id,
            kind=PacketKind.TEST,
            path=path,
        )
        self._transmit(pkt, 0)

    def _initial_election(self) -> None:
        for sid in sorted(self.topo.gateway_of_substation):
            gw_id = self.topo.gateway_of_substation[sid]
            self._ensure_scada_route(gw_id)
            if gw_id in self.pmu_gateways:
                self._ensure_pmu_route(gw_id)

    def _start_traffic(self) -> None:
        """Measurement sensors first fire at a random offset into traffic,
        phasor sensors at its very start."""
        for sensor in self.sensors:
            first = self.cfg.setup_s
            if sensor[0] is PacketKind.SCADA:
                first += self._gap(PacketKind.SCADA)
            if first < self._traffic_end:
                self.queue.schedule(first, self._fire, sensor)

    def _schedule_windows(self) -> None:
        window = self.cfg.aggregation_window_s
        horizon = self.cfg.duration_s + self.cfg.settle_s
        ticks = int(math.ceil(horizon / window)) + 1
        for k in range(1, ticks + 1):
            at = self.cfg.setup_s + k * window
            for sink_id in self._sink_buffer:
                self.queue.schedule(at, self._flush_sink, sink_id, at - window, at)

    # ----- run -----

    def run(self) -> MetricsRecord:
        self._traffic_end = self.cfg.setup_s + self.cfg.duration_s
        self._distribute_keys()
        self._bootstrap_trust()
        self.queue.schedule(self.cfg.setup_s, self._initial_election)
        self._start_traffic()
        self._schedule_windows()
        self.queue.run_all()
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
            packet_drops_total=sum(self.packet_drops.values()),
            packet_drops_blackhole=self.packet_drops["blackhole"],
            packet_drops_grayhole=self.packet_drops["grayhole"],
            packet_drops_dead_battery=self.packet_drops["dead_battery"],
            packet_drops_no_route=self.packet_drops["no_route"],
            tamper_rejections=self.tamper_rejections,
            reroutes=self.reroutes,
            retransmissions=self.retransmissions,
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
