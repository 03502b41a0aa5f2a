"""Trust math, head election, sealed packets, and wire formats."""

from __future__ import annotations

import dataclasses
import hashlib
import hmac as stdlib_hmac
import itertools

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gridmon import protocol
from gridmon.protocol import (
    HEADER_BYTES,
    Packet,
    PacketKind,
    ProtocolError,
    RoutingTable,
    SensorReading,
    TamperRejected,
    TrustLedger,
    build_aggregate,
    candidate_value,
    deserialize_reading,
    elect_cluster_head,
    nested_hmac,
    open_sealed,
    parse_aggregate,
    seal,
    serialize_reading,
    tags_equal,
    trust_value,
)
from gridmon.runner import run_scenario
from gridmon.scenario import load_scenario

KEY_A = bytes(range(16))
KEY_B = bytes(range(16, 32))


# ===== trust =====


def test_trust_value_exact_points():
    assert trust_value(10, 10) == 100.0
    assert trust_value(95, 100) == 95.0
    assert trust_value(0, 7) == 0.0
    assert trust_value(1, 3) == pytest.approx(100.0 / 3.0)


def test_trust_value_domain_errors():
    with pytest.raises(ProtocolError):
        trust_value(5, 0)
    with pytest.raises(ProtocolError):
        trust_value(-1, 5)
    with pytest.raises(ProtocolError):
        trust_value(5, -1)
    with pytest.raises(ProtocolError):
        trust_value(6, 5)


@given(st.integers(1, 10_000), st.data())
def test_trust_value_bounded_and_monotone(sent, data):
    delivered = data.draw(st.integers(0, sent))
    t = trust_value(delivered, sent)
    assert 0.0 <= t <= 100.0
    if delivered < sent:
        assert trust_value(delivered + 1, sent) > t


def test_trust_ledger_counts_and_defaults():
    ledger = TrustLedger()
    assert ledger.trust_value(42) == 100.0  # untried nodes start at full trust
    assert ledger.counts(42) == (0, 0)
    ledger.record_sent(42, count=4)
    ledger.record_delivered(42, count=3)
    assert ledger.counts(42) == (4, 3)
    assert ledger.trust_value(42) == 75.0
    ledger.record_sent(42)
    assert ledger.trust_value(42) == 60.0  # lost packet drags trust down


# ===== candidate value and election =====


def test_candidate_value_is_the_three_way_product():
    assert candidate_value(50.0, 80.0, 3) == 12_000.0
    assert candidate_value(0.0, 100.0, 9) == 0.0
    with pytest.raises(ProtocolError):
        candidate_value(-1.0, 50.0, 2)
    with pytest.raises(ProtocolError):
        candidate_value(10.0, -0.5, 2)
    with pytest.raises(ProtocolError):
        candidate_value(10.0, 50.0, -1)


def test_candidate_value_monotone_in_each_factor():
    grid = [10.0 * k for k in range(1, 11)]
    conn = list(range(1, 11))
    for b, t in itertools.product(grid, grid):
        base = candidate_value(b, t, 5)
        assert candidate_value(b + 5.0, t, 5) > base
        assert candidate_value(b, t + 5.0, 5) > base
    for c in conn[:-1]:
        assert candidate_value(40.0, 60.0, c + 1) > candidate_value(40.0, 60.0, c)


def test_elect_cluster_head_argmax_with_low_id_ties():
    assert elect_cluster_head({3: 10.0, 1: 30.0, 2: 20.0}) == 1
    assert elect_cluster_head({7: 5.0, 4: 5.0, 9: 5.0}) == 4
    assert elect_cluster_head({1: 0.0, 2: 0.0}) is None
    assert elect_cluster_head({}) is None


@given(
    st.dictionaries(
        st.integers(1, 50),
        st.tuples(st.floats(1, 100), st.floats(1, 100), st.integers(1, 8)),
        min_size=1, max_size=12,
    ),
    st.integers(-3, 3).map(lambda k: 2.0**k),
)
# Equal products (5.5 * 1.5 == 1.5 * 5.5) tie exactly; scaled by 6.1655 they
# differ by one ulp and the election flips.  A power-of-two scale is exact in
# floating point, so ties stay ties.
@example(factors={1: (5.5, 1.5, 1), 2: (1.5, 5.5, 1)}, scale=4.0)
def test_election_invariant_under_common_scaling(factors, scale):
    # Scaling every candidate's battery by the same constant reorders nothing.
    base = {nid: candidate_value(b, t, c) for nid, (b, t, c) in factors.items()}
    scaled = {nid: candidate_value(b * scale, t, c) for nid, (b, t, c) in factors.items()}
    assert elect_cluster_head(base) == elect_cluster_head(scaled)


# ===== sealing =====


def test_seal_open_roundtrip():
    for size in (0, 1, 8, 23, 100):
        pt = bytes(range(size % 251)) * 1 + b"x" * max(0, size - (size % 251))
        pt = pt[:size]
        ct, tag = seal(KEY_A, KEY_B, nonce=7, plaintext=pt)
        assert len(tag) == 32
        assert open_sealed(KEY_A, KEY_B, 7, ct, tag) == pt


def test_seal_hides_plaintext():
    pt = b"substation 9 breaker open"
    ct, _ = seal(KEY_A, KEY_B, nonce=1, plaintext=pt)
    assert ct != pt and len(ct) == len(pt)
    ct2, _ = seal(KEY_A, KEY_B, nonce=2, plaintext=pt)
    assert ct != ct2  # fresh nonce, fresh keystream


def test_any_ciphertext_bit_flip_is_rejected():
    pt = b"0123456789abcdef"
    ct, tag = seal(KEY_A, KEY_B, nonce=3, plaintext=pt)
    for byte_idx in range(len(ct)):
        for bit in (0, 3, 7):
            bad = bytearray(ct)
            bad[byte_idx] ^= 1 << bit
            with pytest.raises(TamperRejected):
                open_sealed(KEY_A, KEY_B, 3, bytes(bad), tag)


def test_tag_tampering_and_wrong_keys_are_rejected():
    ct, tag = seal(KEY_A, KEY_B, nonce=5, plaintext=b"telemetry")
    bad_tag = bytes([tag[0] ^ 0x80]) + tag[1:]
    with pytest.raises(TamperRejected):
        open_sealed(KEY_A, KEY_B, 5, ct, bad_tag)
    with pytest.raises(TamperRejected):
        open_sealed(KEY_B, KEY_B, 5, ct, tag)  # wrong pairwise key
    with pytest.raises(TamperRejected):
        open_sealed(KEY_A, KEY_A, 5, ct, tag)  # wrong group key
    with pytest.raises(TamperRejected):
        open_sealed(KEY_A, KEY_B, 5, ct, tag[:16])  # truncated tag


def test_nested_hmac_matches_composed_oracle():
    msg = b"nested authentication"
    inner = stdlib_hmac.new(KEY_A, msg, hashlib.sha256).digest()
    outer = stdlib_hmac.new(KEY_B, inner, hashlib.sha256).digest()
    assert nested_hmac(KEY_B, KEY_A, msg) == outer


def test_nested_hmac_requires_both_keys():
    msg = b"m"
    t = nested_hmac(KEY_B, KEY_A, msg)
    assert nested_hmac(KEY_B, KEY_B, msg) != t
    assert nested_hmac(KEY_A, KEY_A, msg) != t
    assert nested_hmac(KEY_A, KEY_B, msg) != t  # order matters


def test_tags_equal_semantics():
    assert tags_equal(b"\x01" * 32, b"\x01" * 32)
    assert not tags_equal(b"\x01" * 32, b"\x01" * 31 + b"\x02")
    assert not tags_equal(b"", b"\x00")


@given(st.binary(max_size=256), st.integers(0, 2**48 - 1))
def test_seal_roundtrip_property(pt, nonce):
    ct, tag = seal(KEY_A, KEY_B, nonce, pt)
    assert open_sealed(KEY_A, KEY_B, nonce, ct, tag) == pt


def keystream_blocks(pt: bytes, ct: bytes) -> list[bytes]:
    pad = bytes(a ^ b for a, b in zip(pt, ct))
    return [pad[i : i + 8] for i in range(0, len(pad), 8)]


def test_consecutive_seals_share_no_keystream_block():
    # A serialized reading spans 3 RC5 blocks, so counter blocks seq + i of
    # consecutive readings would overlap in 2.
    pt = bytes(23)
    first = keystream_blocks(pt, seal(KEY_A, KEY_B, 10, pt)[0])
    second = keystream_blocks(pt, seal(KEY_A, KEY_B, 11, pt)[0])
    assert len(first) == len(second) == 3
    assert not set(first) & set(second)


def test_seal_rejects_sequence_numbers_and_lengths_outside_the_counter_block():
    for seq in (-1, 2**48):
        with pytest.raises(ProtocolError):
            seal(KEY_A, KEY_B, seq, b"reading")
        ct = b"\x00" * 7
        with pytest.raises(ProtocolError):
            open_sealed(KEY_A, KEY_B, seq, ct, nested_hmac(KEY_B, KEY_A, ct))
    ct, tag = seal(KEY_A, KEY_B, 2**48 - 1, b"last sequence number")
    assert open_sealed(KEY_A, KEY_B, 2**48 - 1, ct, tag) == b"last sequence number"
    with pytest.raises(ProtocolError):
        seal(KEY_A, KEY_B, 0, bytes(8 * 2**16 + 1))


def test_a_whole_run_never_reuses_a_counter_block_under_a_key(monkeypatch, scenarios_dir):
    real = protocol.rc5_ctr
    sealed = set()   # (key, nonce, ciphertext) of every seal, so its open is recognised
    used = {}        # (key, counter block) -> nonce of the seal that used it

    def recording_ctr(key, nonce, data):
        out = real(key, nonce, data)
        if (key, nonce, data) not in sealed:
            sealed.add((key, nonce, out))
            for i in range(-(-len(data) // 8)):
                block = (key, (nonce + i) % 2**64)
                assert block not in used, (nonce, used[block])
                used[block] = nonce
        return out

    monkeypatch.setattr(protocol, "rc5_ctr", recording_ctr)
    # On toy17 the 19-point group leaves ieee14's 22 (gateway, kind) pairs 8
    # distinct keys, so gateways share a key and their sequence numbers; the
    # counter layout cannot separate those (ROADMAP item 1).  secp256k1 gives
    # every pair its own key.
    cfg = dataclasses.replace(load_scenario(str(scenarios_dir / "ieee14.ini")), curve="secp256k1")
    record = run_scenario(cfg)
    assert len(sealed) == record.scada_generated + record.pmu_generated > 0
    assert len(used) == 3 * len(sealed)


# ===== wire formats =====


def test_reading_roundtrip_keeps_fields_except_substation():
    reading = SensorReading(
        id=77, kind=PacketKind.PMU, bus=12, substation=4, timestamp=1.625, value=-3.5
    )
    blob = serialize_reading(reading)
    back = deserialize_reading(blob, substation=4)
    assert back == reading
    # substation rides in the envelope, not the record
    assert deserialize_reading(blob).substation == 0


def test_reading_deserialize_errors():
    blob = serialize_reading(
        SensorReading(1, PacketKind.SCADA, 2, 0, 0.0, 1.0)
    )
    with pytest.raises(ProtocolError):
        deserialize_reading(blob[:-1])
    with pytest.raises(ProtocolError):
        deserialize_reading(b"\xff" + blob[1:])  # unknown kind code


@given(
    st.integers(0, 2**31 - 1),
    st.sampled_from([PacketKind.SCADA, PacketKind.PMU]),
    st.integers(0, 60_000),
    st.floats(0, 1e6, allow_nan=False),
    st.floats(-1e12, 1e12, allow_nan=False),
)
def test_reading_roundtrip_property(rid, kind, bus, ts, value):
    reading = SensorReading(rid, kind, bus, 0, ts, value)
    assert deserialize_reading(serialize_reading(reading)) == reading


def test_aggregate_roundtrip():
    readings = [
        SensorReading(i, PacketKind.SCADA if i % 2 else PacketKind.PMU, i, 0, i * 0.5, float(i))
        for i in range(6)
    ]
    blob = build_aggregate(3, 10.0, 11.0, readings)
    region, ws, we, back = parse_aggregate(blob)
    assert (region, ws, we) == (3, 10.0, 11.0)
    assert back == readings


def test_aggregate_parse_errors():
    blob = build_aggregate(1, 0.0, 1.0, [SensorReading(1, PacketKind.PMU, 1, 0, 0.5, 2.0)])
    with pytest.raises(ProtocolError):
        parse_aggregate(blob[:4])  # truncated header
    with pytest.raises(ProtocolError):
        parse_aggregate(blob[:-1])  # body shorter than the declared count
    with pytest.raises(ProtocolError):
        parse_aggregate(blob + b"\x00" * 3)  # body longer than declared


def test_packet_size_accounts_for_payload_and_reroute_ref():
    pkt = Packet(seq=1, src=2, dst=3, kind=PacketKind.SCADA,
                 ciphertext=b"\x00" * 23, tag=b"\x00" * 32)
    assert pkt.size_bits() == (HEADER_BYTES + 23 + 32) * 8
    bare = Packet(seq=1, src=2, dst=3, kind=PacketKind.TEST)
    assert bare.size_bits() == HEADER_BYTES * 8
    rr = Packet(seq=2, src=3, dst=2, kind=PacketKind.REROUTE, ref=9)
    assert rr.size_bits() == (HEADER_BYTES + 8) * 8


def test_routing_table_defaults_are_empty():
    table = RoutingTable()
    assert table.head is None and table.scada_path == ()
    assert table.pmu_path == ()
    assert table.excluded_scada == set() and table.excluded_pmu == set()
