"""Protocol mechanics: framing, trust accounting, election, sealing.

Gateways seal each reading with the pairwise RC5 key they share with their
region sink and tag it with a nested HMAC (group key over pairwise key), so
a sink can both decrypt and prove the sender held the pairwise key.  Trust
is pure delivery bookkeeping: nodes earn credit when traffic they carried
arrives intact, and lose standing when it does not.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field

from .crypto import RC5_BLOCK_BYTES, nested_hmac, rc5_ctr, tags_equal


class ProtocolError(ValueError):
    pass


class TamperRejected(ProtocolError):
    """A sealed payload failed authentication at the sink."""


class PacketKind(enum.Enum):
    SCADA = "scada"
    PMU = "pmu"
    TEST = "test"
    AGGREGATE = "aggregate"
    REROUTE = "reroute"
    KEYDIST = "keydist"


# Fixed framing overhead per packet: addressing, sequence, kind, checksums.
HEADER_BYTES = 24


@dataclass
class Packet:
    seq: int
    src: int
    dst: int
    kind: PacketKind
    ciphertext: bytes | None = None
    tag: bytes | None = None
    path: tuple[int, ...] = ()
    reading_ids: tuple[int, ...] = ()   # simulation bookkeeping, not wire data
    ref: int | None = None              # reroute: id of the rejected reading

    def size_bits(self) -> int:
        size = HEADER_BYTES + len(self.ciphertext or b"") + len(self.tag or b"")
        if self.ref is not None:
            size += 8
        return size * 8


# ===== readings =====

_READING_FMT = "<BHIdd"  # kind, bus, reading id, timestamp, value
READING_BYTES = struct.calcsize(_READING_FMT)
_KIND_CODE = {PacketKind.SCADA: 0, PacketKind.PMU: 1}
_CODE_KIND = {v: k for k, v in _KIND_CODE.items()}


@dataclass(frozen=True)
class SensorReading:
    id: int
    kind: PacketKind  # SCADA or PMU
    bus: int
    substation: int
    timestamp: float
    value: float


def serialize_reading(reading: SensorReading) -> bytes:
    return struct.pack(
        _READING_FMT,
        _KIND_CODE[reading.kind],
        reading.bus,
        reading.id,
        reading.timestamp,
        reading.value,
    )


def deserialize_reading(data: bytes, substation: int = 0) -> SensorReading:
    if len(data) != READING_BYTES:
        raise ProtocolError(f"reading record must be {READING_BYTES} bytes, got {len(data)}")
    code, bus, rid, timestamp, value = struct.unpack(_READING_FMT, data)
    if code not in _CODE_KIND:
        raise ProtocolError(f"unknown reading kind code {code}")
    return SensorReading(rid, _CODE_KIND[code], bus, substation, timestamp, value)


# ===== sealing =====


def _counter_base(seq: int, length: int) -> int:
    """First RC5-CTR counter block (NIST SP 800-38A, App. B): a 48-bit sequence
    number above a 16-bit block index, so two messages never share a block."""
    if not 0 <= seq < 1 << 48:
        raise ProtocolError(f"sequence number {seq} outside [0, 2**48)")
    if length > RC5_BLOCK_BYTES << 16:
        raise ProtocolError(f"{length}-byte message exceeds 2**16 RC5 blocks")
    return seq << 16


def seal(pairwise_key: bytes, group_key: bytes, nonce: int, plaintext: bytes) -> tuple[bytes, bytes]:
    """Encrypt under the pairwise key and tag with the nested HMAC; ``nonce``: sequence number."""
    ciphertext = rc5_ctr(pairwise_key, _counter_base(nonce, len(plaintext)), plaintext)
    tag = nested_hmac(group_key, pairwise_key, ciphertext)
    return ciphertext, tag


def open_sealed(
    pairwise_key: bytes, group_key: bytes, nonce: int, ciphertext: bytes, tag: bytes
) -> bytes:
    """Verify the nested tag, then decrypt; any bit flip raises TamperRejected."""
    expect = nested_hmac(group_key, pairwise_key, ciphertext)
    if not tags_equal(expect, tag):
        raise TamperRejected("nested authentication tag mismatch")
    return rc5_ctr(pairwise_key, _counter_base(nonce, len(ciphertext)), ciphertext)


# ===== aggregates =====

_AGG_HEADER_FMT = "<HddI"  # region, window start, window end, reading count


def build_aggregate(
    region: int, window_start: float, window_end: float, readings: list[SensorReading]
) -> bytes:
    blob = struct.pack(_AGG_HEADER_FMT, region, window_start, window_end, len(readings))
    for reading in readings:
        blob += serialize_reading(reading)
    return blob


def parse_aggregate(blob: bytes) -> tuple[int, float, float, list[SensorReading]]:
    header = struct.calcsize(_AGG_HEADER_FMT)
    if len(blob) < header:
        raise ProtocolError("aggregate truncated")
    region, window_start, window_end, count = struct.unpack(_AGG_HEADER_FMT, blob[:header])
    body = blob[header:]
    if len(body) != count * READING_BYTES:
        raise ProtocolError(
            f"aggregate body is {len(body)} bytes, expected {count} readings"
        )
    readings = [
        deserialize_reading(body[i * READING_BYTES : (i + 1) * READING_BYTES])
        for i in range(count)
    ]
    return region, window_start, window_end, readings


# ===== trust =====


class TrustLedger:
    """Per-node delivery bookkeeping behind the trust formula.

    ``sent`` counts packets handed to a node to carry; ``delivered`` counts
    those confirmed intact at a sink.  Trust is the delivered percentage; a
    node nothing was ever routed through starts at full trust.
    """

    def __init__(self):
        self._sent: dict[int, int] = {}
        self._delivered: dict[int, int] = {}

    def record_sent(self, node_id: int, count: int = 1) -> None:
        self._sent[node_id] = self._sent.get(node_id, 0) + count

    def record_delivered(self, node_id: int, count: int = 1) -> None:
        self._delivered[node_id] = self._delivered.get(node_id, 0) + count

    def counts(self, node_id: int) -> tuple[int, int]:
        return self._sent.get(node_id, 0), self._delivered.get(node_id, 0)

    def trust_value(self, node_id: int) -> float:
        sent, delivered = self.counts(node_id)
        return trust_value(delivered, sent) if sent else 100.0


def trust_value(messages_delivered: int, messages_sent: int) -> float:
    """Delivered share as a percentage of messages routed through a node."""
    if messages_sent < 0 or messages_delivered < 0:
        raise ProtocolError("message counts must be non-negative")
    if messages_delivered > messages_sent:
        raise ProtocolError("delivered count exceeds sent count")
    if messages_sent == 0:
        raise ProtocolError("trust undefined with no messages sent")
    return 100.0 * messages_delivered / messages_sent


def candidate_value(battery_pct: float, trust: float, connectivity: int) -> float:
    """Head-election score: battery share times trust times connectivity."""
    if battery_pct < 0 or trust < 0 or connectivity < 0:
        raise ProtocolError("candidate factors must be non-negative")
    return battery_pct * trust * connectivity


def elect_cluster_head(scores: dict[int, float]) -> int | None:
    """Argmax score over candidates with positive score; ties to lower id.

    Returns None when no candidate has a positive score.
    """
    best_id = None
    best = 0.0
    for nid in sorted(scores):
        if scores[nid] > best:
            best = scores[nid]
            best_id = nid
    return best_id


# ===== per-gateway routing state =====


@dataclass
class RoutingTable:
    """A gateway's current forwarding choices, kept until a reroute request."""

    head: int | None = None
    scada_path: tuple[int, ...] = ()
    pmu_path: tuple[int, ...] = ()
    excluded_scada: set[int] = field(default_factory=set)
    excluded_pmu: set[int] = field(default_factory=set)
