"""Crypto primitives: known-answer vectors, group-law oracles, roundtrips."""

from __future__ import annotations

import dataclasses
import hashlib
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gridmon import crypto, protocol
from gridmon.crypto import (
    CURVES,
    CryptoError,
    CryptoMemo,
    derive_key,
    ecdh_shared,
    hmac_tag,
    is_on_curve,
    keypair_from_private,
    keypair_generate,
    nested_hmac,
    pk_decrypt,
    pk_encrypt,
    point_add,
    rc5_ctr,
    rc5_encrypt_block,
    rc5_key_schedule,
    scalar_mult,
    tags_equal,
)
from gridmon.runner import run_simulation
from gridmon.scenario import load_scenario

TOY = CURVES["toy17"]
SECP = CURVES["secp256k1"]
KEY16 = bytes(range(16))

# ===== RC5-32/12/16 known answers =====

# Published chained test vectors: each case encrypts the previous ciphertext
# under a fresh key.
RC5_VECTORS = [
    ("00000000000000000000000000000000", "0000000000000000", "21a5dbee154b8f6d"),
    ("915f4619be41b2516355a50110a9ce91", "21a5dbee154b8f6d", "f7c013ac5b2b8952"),
    ("783348e75aeb0f2fd7b169bb8dc16787", "f7c013ac5b2b8952", "2f42b3b70369fc92"),
    ("dc49db1375a5584f6485b413b5f12baf", "2f42b3b70369fc92", "65c178b284d197cc"),
    ("5269f149d41ba0152497574d7f153125", "65c178b284d197cc", "eb44e415da319824"),
]


M32 = 0xFFFFFFFF


def rotl(x, s):
    s &= 31
    return ((x << s) | (x >> (32 - s))) & M32


def rotr(x, s):
    s &= 31
    return ((x >> s) | (x << (32 - s))) & M32


def reference_encrypt_block(S, block):
    """RC5-32/12 encryption, round by round (Rivest 1994)."""
    A = (int.from_bytes(block[0:4], "little") + S[0]) & M32
    B = (int.from_bytes(block[4:8], "little") + S[1]) & M32
    for i in range(1, 13):
        A = (rotl(A ^ B, B) + S[2 * i]) & M32
        B = (rotl(B ^ A, A) + S[2 * i + 1]) & M32
    return A.to_bytes(4, "little") + B.to_bytes(4, "little")


def reference_decrypt_block(S, block):
    """RC5-32/12 decryption: the block function's inverse, which CTR never needs."""
    A = int.from_bytes(block[0:4], "little")
    B = int.from_bytes(block[4:8], "little")
    for i in range(12, 0, -1):
        B = rotr((B - S[2 * i + 1]) & M32, A) ^ A
        A = rotr((A - S[2 * i]) & M32, B) ^ B
    A = (A - S[0]) & M32
    B = (B - S[1]) & M32
    return A.to_bytes(4, "little") + B.to_bytes(4, "little")


def reference_ctr(S, nonce, data):
    """Byte-by-byte CTR over the reference block: counter nonce + i mod 2**64."""
    out = bytearray(len(data))
    for i in range(0, len(data), 8):
        counter = ((nonce + i // 8) % 2**64).to_bytes(8, "little")
        ks = reference_encrypt_block(S, counter)
        for j, byte in enumerate(data[i : i + 8]):
            out[i + j] = byte ^ ks[j]
    return bytes(out)


@pytest.mark.parametrize("key_hex,pt_hex,ct_hex", RC5_VECTORS)
def test_rc5_known_answers(key_hex, pt_hex, ct_hex):
    schedule = rc5_key_schedule(bytes.fromhex(key_hex))
    assert rc5_encrypt_block(schedule, bytes.fromhex(pt_hex)).hex() == ct_hex
    assert reference_encrypt_block(schedule, bytes.fromhex(pt_hex)).hex() == ct_hex
    assert reference_decrypt_block(schedule, bytes.fromhex(ct_hex)).hex() == pt_hex


def test_rc5_key_and_block_sizes():
    with pytest.raises(CryptoError):
        rc5_key_schedule(b"short")
    schedule = rc5_key_schedule(b"\x00" * 16)
    with pytest.raises(CryptoError):
        rc5_encrypt_block(schedule, b"\x00" * 7)
    with pytest.raises(CryptoError):
        rc5_encrypt_block(schedule, b"\x00" * 9)


def test_rc5_key_schedule_is_memoized_and_bounded():
    for _ in range(2):  # an exception is not memoized
        with pytest.raises(CryptoError):
            rc5_key_schedule(b"\x00" * 15)
    key = bytes(range(16))
    schedule = rc5_key_schedule(key)
    assert isinstance(schedule, tuple) and len(schedule) == 26
    assert rc5_key_schedule(bytes(bytearray(key))) is schedule  # an equal key, another object
    assert rc5_ctr(bytearray(key), 3, b"a reading") == rc5_ctr(key, 3, b"a reading")
    assert isinstance(rc5_key_schedule.cache_info().maxsize, int)  # None would be unbounded


def textbook_key_schedule(key):
    """RC5-32/12/16 key expansion as Rivest (1994) writes it, with its own rotl."""
    L = [int.from_bytes(key[i : i + 4], "little") for i in range(0, 16, 4)]
    t = 26
    S = [0xB7E15163]
    for _ in range(t - 1):
        S.append((S[-1] + 0x9E3779B9) & M32)
    A = B = i = j = 0
    for _ in range(3 * t):
        A = S[i] = rotl((S[i] + A + B) & M32, 3)
        B = L[j] = rotl((L[j] + A + B) & M32, A + B)
        i = (i + 1) % t
        j = (j + 1) % 4
    return tuple(S)


@given(key=st.binary(min_size=16, max_size=16))
@example(key=bytes(16))
@example(key=b"\xff" * 16)
def test_rc5_key_schedule_matches_the_textbook_expansion(key):
    assert rc5_key_schedule.__wrapped__(key) == textbook_key_schedule(key)


@given(
    key=st.binary(min_size=16, max_size=16),
    nonce=st.one_of(st.integers(0, 2**64 - 1), st.integers(2**64 - 40, 2**64 - 1)),
    data=st.binary(max_size=300),
    form=st.sampled_from(["key", "list", "tuple"]),
)
@example(key=bytes(16), nonce=2**64 - 1, data=bytes(17), form="key")
@example(key=bytes(16), nonce=2**64 - 2, data=bytes(300), form="list")
@example(key=bytes(16), nonce=0, data=b"", form="tuple")
def test_rc5_ctr_matches_the_block_by_block_reference(key, nonce, data, form):
    schedule = rc5_key_schedule(key)
    arg = {"key": key, "list": list(schedule), "tuple": schedule}[form]
    assert rc5_ctr(arg, nonce, data) == reference_ctr(schedule, nonce, data)


@pytest.mark.parametrize("length", [0, 1, 7, 8, 15, 16, 17, 1000])
def test_rc5_ctr_roundtrip(length):
    rng = random.Random(length)
    key = rng.randbytes(16)
    data = rng.randbytes(length)
    ct = rc5_ctr(key, 5, data)
    assert len(ct) == length
    assert rc5_ctr(key, 5, ct) == data
    if length:
        assert rc5_ctr(key, 6, data) != ct  # nonce separates keystreams


def test_rc5_ctr_accepts_precomputed_schedule():
    key = bytes(range(16))
    schedule = rc5_key_schedule(key)
    data = b"keystream caching must not change bytes"
    assert rc5_ctr(schedule, 9, data) == rc5_ctr(key, 9, data)


# ===== HMAC-SHA256 standard vectors (RFC 4231 cases 1, 2, 7) =====

HMAC_VECTORS = [
    (b"\x0b" * 20, b"Hi There",
     "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"),
    (b"Jefe", b"what do ya want for nothing?",
     "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"),
    (b"\xaa" * 131,
     b"This is a test using a larger than block-size key and a larger "
     b"than block-size data. The key needs to be hashed before being used by "
     b"the HMAC algorithm.",
     "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"),
]


@pytest.mark.parametrize("key,msg,digest_hex", HMAC_VECTORS)
def test_hmac_known_answers(key, msg, digest_hex):
    assert hmac_tag(key, msg).hex() == digest_hex


def test_nested_hmac_composition():
    group, pairwise, msg = b"g" * 16, b"p" * 16, b"payload"
    assert nested_hmac(group, pairwise, msg) == hmac_tag(group, hmac_tag(pairwise, msg))


@given(
    group=st.binary(max_size=100), pairwise=st.binary(max_size=100), message=st.binary(max_size=80),
    key_type=st.sampled_from([bytes, bytearray]), with_memo=st.booleans(),
)
# 64 bytes is the longest key that is zero-filled to SHA-256's block, not hashed.
@example(
    group=bytes(range(64)), pairwise=bytes(range(64, 128)), message=b"a reading",
    key_type=bytes, with_memo=False,
)
def test_nested_hmac_matches_the_stdlib_oracle(group, pairwise, message, key_type, with_memo):
    memo = CryptoMemo() if with_memo else None
    tag = nested_hmac(key_type(group), key_type(pairwise), message, memo=memo)
    assert tag == hmac_tag(group, hmac_tag(pairwise, message))


@given(
    group=st.binary(max_size=100), pairwise=st.binary(max_size=100), message=st.binary(max_size=80),
    key_type=st.sampled_from([bytes, bytearray]),
)
@example(group=bytes(64), pairwise=bytes(65), message=b"", key_type=bytes)  # either side of the block
@example(group=KEY16, pairwise=KEY16, message=b"one key for both layers", key_type=bytearray)
def test_nested_hmac_with_a_memo_equals_nested_hmac_without(group, pairwise, message, key_type):
    memo = CryptoMemo()
    expected = hmac_tag(group, hmac_tag(pairwise, message))
    assert nested_hmac(key_type(group), key_type(pairwise), message, memo=memo) == expected
    # The memo's keyed states are copied, never consumed by a tag, and a key
    # of the other type finds the entry this one's tag built.
    built = memo.hmac_pads.cache_info().misses
    other = bytes if key_type is bytearray else bytearray
    assert nested_hmac(other(group), other(pairwise), message, memo=memo) == expected
    assert memo.hmac_pads.cache_info().misses == built


def test_a_memo_never_serves_one_keys_hmac_state_for_another():
    base = random.Random(9).randbytes(16)
    keys = [
        base, base[:15], base + b"\x00", bytes([base[0] ^ 1]) + base[1:], bytes(16),
        bytes(64), bytes(65), b"",
    ]
    memo = CryptoMemo()
    for _ in range(2):
        for group in keys:
            for pairwise in keys:
                tag = nested_hmac(group, pairwise, b"a reading", memo=memo)
                assert tag == hmac_tag(group, hmac_tag(pairwise, b"a reading"))
    info = memo.hmac_pads.cache_info()
    assert (info.misses, info.currsize) == (len(keys), len(keys))  # one build per key


def test_tags_equal_is_order_insensitive_comparison():
    a = hmac_tag(b"k", b"m")
    assert tags_equal(a, bytes(a))
    assert not tags_equal(a, a[:-1] + bytes([a[-1] ^ 1]))


# ===== toy curve group law against a brute-force table =====


def toy_affine_points():
    pts = []
    for x in range(TOY.p):
        for y in range(TOY.p):
            if (y * y - (x**3 + TOY.a * x + TOY.b)) % TOY.p == 0:
                pts.append((x, y))
    return pts


def test_toy_curve_point_census():
    pts = toy_affine_points()
    assert len(pts) == 18  # plus infinity = group order 19
    assert all(is_on_curve(TOY, p) for p in pts)
    assert TOY.g in pts


def test_toy_group_law_exhaustive():
    """Every sum lands on the curve and satisfies the chord/tangent relation."""
    pts = toy_affine_points()
    p, a = TOY.p, TOY.a
    for pt1 in pts:
        for pt2 in pts:
            out = point_add(TOY, pt1, pt2)
            x1, y1 = pt1
            x2, y2 = pt2
            if x1 == x2 and (y1 + y2) % p == 0:
                assert out is None  # inverse pair
                continue
            assert out is not None and is_on_curve(TOY, out)
            x3, y3 = out
            if pt1 == pt2:
                slope = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
            else:
                slope = (y2 - y1) * pow(x2 - x1, -1, p) % p
            # (x3, -y3) lies on the chord/tangent through pt1 and pt2
            assert (-y3 - y1) % p == slope * (x3 - x1) % p
            assert x3 == (slope * slope - x1 - x2) % p


def test_toy_group_axioms():
    pts = [None] + toy_affine_points()
    add = lambda u, v: point_add(TOY, u, v)
    for u in pts:
        assert add(u, None) == u and add(None, u) == u
        for v in pts:
            assert add(u, v) == add(v, u)
    rng = random.Random(0)
    for _ in range(500):
        u, v, w = rng.choice(pts), rng.choice(pts), rng.choice(pts)
        assert add(add(u, v), w) == add(u, add(v, w))


def test_toy_scalar_multiples():
    # Frozen small multiples of the generator, verified by repeated addition.
    assert scalar_mult(TOY, 1, TOY.g) == (5, 1)
    assert scalar_mult(TOY, 2, TOY.g) == (6, 3)
    assert scalar_mult(TOY, 3, TOY.g) == (10, 6)
    assert scalar_mult(TOY, 7, TOY.g) == (0, 6)
    assert scalar_mult(TOY, TOY.n, TOY.g) is None  # group order annihilates
    acc = None
    for k in range(1, TOY.n + 1):
        acc = point_add(TOY, acc, TOY.g)
        assert scalar_mult(TOY, k, TOY.g) == acc


def test_scalar_mult_rejects_negative():
    for curve in (TOY, SECP):
        for point in (curve.g, point_add(curve, curve.g, curve.g), None):
            with pytest.raises(CryptoError):
                scalar_mult(curve, -1, point)


# ===== scalar multiplication against the affine double-and-add oracle =====


def affine_scalar_mult(curve, k, point):
    """Right-to-left double-and-add over point_add: one inversion per step."""
    result = None
    addend = point
    while k:
        if k & 1:
            result = point_add(curve, result, addend)
        addend = point_add(curve, addend, addend)
        k >>= 1
    return result


def test_scalar_mult_matches_oracle_on_every_toy_point():
    for point in [None] + toy_affine_points():
        for k in range(3 * TOY.n + 1):
            assert scalar_mult(TOY, k, point) == affine_scalar_mult(TOY, k, point), (k, point)


SECP_OTHER_BASE = affine_scalar_mult(SECP, 0xC0FFEE, SECP.g)

# Scalars that meet each case of the signed 5-bit recoding: 16 is the largest
# digit without a carry and 17 the first with one; 31 is -1 with a carry and
# 32 a zero digit below a one; then 51 digits of 16 (no carry anywhere) and
# of 17 (a carry out of every digit), both below n.
RECODING_EDGES = [
    16, 17, 31, 32, sum(16 << 5 * i for i in range(51)), sum(17 << 5 * i for i in range(51)),
]
assert max(RECODING_EDGES) < SECP.n


def at_recoding_edges(**others):
    """Add an example at each recoding edge, with ``others`` as the test's other arguments."""
    def add(test):
        for k in RECODING_EDGES:
            test = example(k=k, **others)(test)
        return test
    return add


@pytest.mark.parametrize("base", ["G", "other", "drawn"])
@given(k=st.integers(0, 2**256 - 1), k0=st.integers(1, SECP.n - 1))
@at_recoding_edges(k0=7)
@example(k=0, k0=1)
@example(k=1, k0=2)
@example(k=SECP.n - 1, k0=3)
@example(k=SECP.n, k0=SECP.n - 1)
@example(k=SECP.n + 1, k0=5)
@example(k=SECP.n + 17, k0=6)
@example(k=2**256 - 1, k0=0xC0FFEE)
def test_scalar_mult_matches_oracle_on_secp256k1(base, k, k0):
    if base == "drawn":
        point = affine_scalar_mult(SECP, k0, SECP.g)
    else:
        point = SECP.g if base == "G" else SECP_OTHER_BASE
    assert scalar_mult(SECP, k, point) == affine_scalar_mult(SECP, k, point)


def test_off_curve_secp256k1_point_matches_the_oracle():
    # (1, 1) fails is_on_curve; like every point but G that comes without a
    # table, it goes by double-and-add on the unreduced k.
    point = (1, 1)
    assert not is_on_curve(SECP, point)
    rng = random.Random(8)
    for k in [rng.randrange(2**256) for _ in range(30)]:
        assert scalar_mult(SECP, k, point) == affine_scalar_mult(SECP, k, point), k


def row_by_row_table(curve, point):
    """Row i holds j * 32**i * P for j in 1..16, each entry one point_add from the last."""
    rows, base = [], point
    for _ in range(curve.n.bit_length() // 5 + 1):
        row = [base]
        for _ in range(15):
            row.append(point_add(curve, row[-1], base))
        rows.append(tuple(row))
        base = point_add(curve, row[-1], row[-1])  # 32 * base
    return tuple(rows)


@pytest.mark.parametrize("curve", [TOY, SECP], ids=lambda c: c.name)
def test_the_table_builder_matches_a_row_by_row_table(curve):
    assert crypto._g_table(curve) == row_by_row_table(curve, curve.g)
    other = affine_scalar_mult(curve, 7, curve.g)
    assert crypto._window_table(curve, other) == row_by_row_table(curve, other)


@pytest.mark.parametrize("curve, rows", [(TOY, 2), (SECP, 52)], ids=["toy17", "secp256k1"])
def test_a_table_holds_16_points_per_signed_digit(curve, rows):
    table = crypto._window_table(curve, affine_scalar_mult(curve, 7, curve.g))
    for t in (table, crypto._g_table(curve)):
        assert len(t) == rows and {len(row) for row in t} == {16}
        assert all(entry is not None and is_on_curve(curve, entry) for row in t for entry in row)


def test_table_multiplication_matches_the_oracle_on_every_toy_point():
    for point in toy_affine_points():
        table = crypto._window_table(TOY, point)
        for k in range(3 * TOY.n + 1):
            assert scalar_mult(TOY, k, point, table) == affine_scalar_mult(TOY, k, point), (k, point)


SECP_OTHER_TABLE = crypto._window_table(SECP, SECP_OTHER_BASE)


@given(k=st.integers(0, SECP.n - 1))
@at_recoding_edges()
@example(k=1)
@example(k=15)
@example(k=SECP.n - 1)
def test_table_multiplication_matches_the_oracle_on_secp256k1(k):
    product = scalar_mult(SECP, k, SECP_OTHER_BASE, SECP_OTHER_TABLE)
    assert product == affine_scalar_mult(SECP, k, SECP_OTHER_BASE)


@given(
    toy=st.lists(st.integers(0, 3 * TOY.n - 1), max_size=12),
    secp=st.lists(st.integers(0, 3 * SECP.n - 1), max_size=8),
)
@example(toy=list(range(3 * TOY.n)), secp=[0, 1, SECP.n - 1, SECP.n, 2 * SECP.n + 3, 7, 7])
@example(toy=[], secp=[])
def test_fixed_base_batch_matches_the_scalar_mult_oracle(toy, secp):
    # Each toy scalar twice and beside its negation n - k: in a 19-point
    # group a product often meets a table entry of equal x, a doubling or
    # a negation, which the shared inversion cannot serve.
    toy = toy + toy + [TOY.n - k % TOY.n for k in toy]
    for curve, ks in ((TOY, toy), (SECP, secp)):
        assert crypto.fixed_base_batch(curve, ks) == [scalar_mult(curve, k, curve.g) for k in ks]


@given(
    toy=st.lists(st.integers(1 - TOY.p, TOY.p - 1).filter(bool), min_size=1, max_size=12),
    secp=st.lists(st.integers(1 - SECP.p, SECP.p - 1).filter(bool), min_size=1, max_size=8),
)
@example(toy=[1], secp=[SECP.p - 1])
@example(toy=[-3, 3, -3, 16, -16], secp=[-1, -1, 1, 2**255])
def test_batch_inverses_match_the_pow_oracle(toy, secp):
    # Negative values stand for the x differences _add_pairs passes unreduced.
    for curve, values in ((TOY, toy), (SECP, secp)):
        assert crypto._inverses(values, curve.p) == [pow(v, -1, curve.p) for v in values]


def test_fixed_base_batch_refuses_a_scalar_its_table_cannot_hold():
    # toy17's table has two rows of signed 5-bit digits: 16 * 32 is too large.
    assert crypto.fixed_base_batch(TOY, [16 * 32 - 1]) == [scalar_mult(TOY, 16 * 32 - 1, TOY.g)]
    for k in (-1, 16 * 32):
        with pytest.raises(CryptoError):
            crypto.fixed_base_batch(TOY, [3, k])


@pytest.mark.parametrize("k", [0, 1, 2, SECP.n, 2**256 - 1])
def test_scalar_mult_of_infinity_is_infinity(k):
    assert scalar_mult(SECP, k, None) is None
    assert scalar_mult(TOY, k, None) is None


# ===== key agreement =====


def test_keypair_private_range():
    with pytest.raises(CryptoError):
        keypair_from_private(TOY, 0)
    with pytest.raises(CryptoError):
        keypair_from_private(TOY, TOY.n)
    kp = keypair_from_private(TOY, 3)
    assert kp.public == (10, 6)


@given(st.integers(1, 18), st.integers(1, 18))
def test_ecdh_symmetry_toy(a, b):
    ka = keypair_from_private(TOY, a)
    kb = keypair_from_private(TOY, b)
    assert ecdh_shared(TOY, a, kb.public) == ecdh_shared(TOY, b, ka.public)


def test_ecdh_known_value():
    # 3 * (7 * G) = 21 * G = 2 * G = (6, 3); the key hashes its x coordinate.
    ka = keypair_from_private(TOY, 3)
    kb = keypair_from_private(TOY, 7)
    shared = ecdh_shared(TOY, 3, kb.public)
    assert shared == derive_key(TOY, (6, 3))
    expected = hashlib.sha256((6).to_bytes(TOY.byte_length, "big")).digest()[:16]
    assert shared == expected
    assert ecdh_shared(TOY, 7, ka.public) == shared


def test_ecdh_rejects_bad_peer_points():
    with pytest.raises(CryptoError):
        ecdh_shared(TOY, 3, (2, 2))  # not on the curve
    with pytest.raises(CryptoError):
        ecdh_shared(TOY, 3, None)  # point at infinity


def test_ecdh_symmetry_secp256k1():
    rng = random.Random(42)
    ka = keypair_generate(SECP, rng)
    kb = keypair_generate(SECP, rng)
    shared = ecdh_shared(SECP, ka.private, kb.public)
    assert shared == ecdh_shared(SECP, kb.private, ka.public)
    assert len(shared) == 16
    assert is_on_curve(SECP, ka.public)


# ===== hybrid sealing =====


@pytest.mark.parametrize("length", [0, 1, 16, 333])
def test_pk_roundtrip(length):
    rng = random.Random(length)
    kp = keypair_generate(TOY, rng)
    plaintext = rng.randbytes(length)
    sealed = pk_encrypt(TOY, kp.public, plaintext, rng)
    assert pk_decrypt(TOY, kp.private, sealed) == plaintext


def test_pk_detects_corruption():
    rng = random.Random(7)
    kp = keypair_generate(TOY, rng)
    sealed = bytearray(pk_encrypt(TOY, kp.public, b"attack at dawn", rng))
    sealed[-1] ^= 0x01
    with pytest.raises(CryptoError):
        pk_decrypt(TOY, kp.private, bytes(sealed))


def test_non_canonical_points_are_rejected():
    rng = random.Random(3)
    kp = keypair_generate(TOY, rng)
    sealed = bytearray(pk_encrypt(TOY, kp.public, b"aggregate", rng))
    assert sealed[0] == 0x05  # the ephemeral x; x + p = 0x16 still fits a byte
    sealed[0] += TOY.p
    with pytest.raises(CryptoError):
        pk_decrypt(TOY, kp.private, bytes(sealed))
    x, y = kp.public
    for twin in ((x + TOY.p, y), (x, y + TOY.p), (x - TOY.p, y)):
        assert not is_on_curve(TOY, twin)
        with pytest.raises(CryptoError):
            ecdh_shared(TOY, 3, twin)
        with pytest.raises(CryptoError):
            pk_encrypt(TOY, twin, b"x", random.Random(1))


def test_pk_rejects_truncation():
    rng = random.Random(8)
    kp = keypair_generate(TOY, rng)
    sealed = pk_encrypt(TOY, kp.public, b"x", rng)
    with pytest.raises(CryptoError):
        pk_decrypt(TOY, kp.private, sealed[: TOY.byte_length])


def test_pk_seal_ids_keep_seals_that_share_an_ephemeral_key_apart():
    kp = keypair_generate(TOY, random.Random(1))
    plaintext = bytes(40)
    first = pk_encrypt(TOY, kp.public, plaintext, random.Random(2), 1)
    second = pk_encrypt(TOY, kp.public, plaintext, random.Random(2), 2)
    head = 2 * TOY.byte_length
    assert first[:head] == second[:head]  # the same ephemeral key
    assert first[head : head + 6] == (1).to_bytes(6, "big")
    assert second[head : head + 6] == (2).to_bytes(6, "big")
    assert first[head + 6 + 32 :] != second[head + 6 + 32 :]
    for sealed in (first, second):
        assert pk_decrypt(TOY, kp.private, sealed) == plaintext
    relabelled = first[:head] + second[head : head + 6] + first[head + 6 :]
    with pytest.raises(CryptoError):
        pk_decrypt(TOY, kp.private, relabelled)
    last = pk_encrypt(TOY, kp.public, b"x", random.Random(3), 2**48 - 1)
    assert pk_decrypt(TOY, kp.private, last) == b"x"
    for seal_id in (-1, 2**48):
        with pytest.raises(CryptoError):
            pk_encrypt(TOY, kp.public, b"x", random.Random(3), seal_id)


@pytest.mark.parametrize("curve", [TOY, SECP], ids=lambda c: c.name)
def test_a_negated_ephemeral_point_is_refused(curve):
    # -E has E's x coordinate, so it gives the same ECDH output; only the tag
    # covering the header tells the two apart.
    rng = random.Random(5)
    kp = keypair_generate(curve, rng)
    sealed = pk_encrypt(curve, kp.public, b"aggregate body", rng, 3)
    size = curve.byte_length
    y = int.from_bytes(sealed[size : 2 * size], "big")
    negated = sealed[:size] + (curve.p - y).to_bytes(size, "big") + sealed[2 * size :]
    with pytest.raises(CryptoError):
        pk_decrypt(curve, kp.private, negated)


# ===== the per-run memo =====


@given(
    key=st.binary(min_size=16, max_size=16),
    nonce=st.one_of(st.integers(0, 2**64 - 1), st.integers(2**64 - 600, 2**64 - 1)),
    length=st.integers(0, 4600),
    as_bytearray=st.booleans(),
)
@example(key=bytes(16), nonce=2**64 - 1, length=4600, as_bytearray=True)
@example(key=bytes(16), nonce=0, length=0, as_bytearray=False)
def test_rc5_ctr_with_a_memo_equals_rc5_ctr_without(key, nonce, length, as_bytearray):
    memo = CryptoMemo()
    data = random.Random(length).randbytes(length)
    arg = bytearray(key) if as_bytearray else key
    expected = rc5_ctr(key, nonce, data)
    assert rc5_ctr(arg, nonce, data, memo=memo) == expected  # computed
    assert rc5_ctr(arg, nonce, data, memo=memo) == expected  # served
    flipped = bytes(b ^ 0xA5 for b in data)
    assert rc5_ctr(key, nonce, flipped, memo=memo) == rc5_ctr(key, nonce, flipped)
    assert list(memo) == [(key, nonce, length)]


def test_rc5_ctr_with_a_memo_meets_the_known_answers():
    memo = CryptoMemo()
    for _ in range(2):  # computed, then served
        for key_hex, pt_hex, ct_hex in RC5_VECTORS:
            counter = int.from_bytes(bytes.fromhex(pt_hex), "little")
            out = rc5_ctr(bytes.fromhex(key_hex), counter, bytes(8), memo=memo)
            assert out.hex() == ct_hex
    assert len(memo) == len(RC5_VECTORS)


def test_a_memo_hit_never_serves_another_key_counter_or_length():
    key = random.Random(5).randbytes(16)
    other = bytearray(key)
    other[0] ^= 1
    neighbours = [
        (key, 0, 23), (key, 1, 23), (key, 2**64 - 1, 23), (key, 0, 22), (key, 0, 24),
        (key, 0, 0), (key, 1 << 16, 23), (bytes(other), 0, 23),
    ]
    memo = CryptoMemo()
    for _ in range(2):
        for k, nonce, length in neighbours:
            keystream = rc5_ctr(k, nonce, bytes(length), memo=memo)
            assert keystream == reference_ctr(rc5_key_schedule(k), nonce, bytes(length))
    assert len(memo) == len(neighbours)


def test_the_memo_keeps_its_newest_entries_up_to_its_bound():
    kp, sealed, memo = sealed_under_a_memo(TOY, "bound")
    [(entry, shared)] = memo.ecdh_keys.items()
    assert shared == ecdh_shared(TOY, kp.private, entry[2])
    key = bytes(16)
    for nonce in range(CryptoMemo.LIMIT + 10):
        rc5_ctr(key, nonce, b"x", memo=memo)
        assert len(memo) <= CryptoMemo.LIMIT
    assert len(memo) == CryptoMemo.LIMIT
    assert (key, 9, 1) not in memo and (key, 10, 1) in memo  # the oldest go first
    # Keystreams never drop an ECDH key; ECDH keys have a bound of their own.
    assert memo.ecdh_keys == {entry: shared}
    fillers = [(SECP, SECP.g, (i, i)) for i in range(CryptoMemo.LIMIT + 1)]
    for filler in fillers:
        memo.ecdh_keys.remember(filler, bytes(16))
        assert len(memo.ecdh_keys) <= CryptoMemo.LIMIT
    assert list(memo.ecdh_keys) == fillers[1:] and len(memo) == CryptoMemo.LIMIT


def test_rc5_ctr_computes_a_memoized_keystream_once_but_schedules_every_call(monkeypatch):
    calls = {"_keystream": 0, "rc5_key_schedule": 0}
    for name in calls:
        real = getattr(crypto, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(crypto, name, counted)
    memo = CryptoMemo()
    for _ in range(3):
        rc5_ctr(KEY16, 7, b"reading", memo=memo)
    assert calls == {"_keystream": 1, "rc5_key_schedule": 3}
    rc5_ctr(KEY16, 7, b"reading")  # no memo: computed afresh
    assert calls == {"_keystream": 2, "rc5_key_schedule": 4}


def test_ecdh_with_a_memo_equals_ecdh_without_and_still_checks_its_inputs(monkeypatch):
    # With a memo, ECDH runs through the seals: each multiplies by the memo's
    # window table of its recipient and keeps the key for that recipient's opens.
    memo = CryptoMemo()
    rng = random.Random("ecdh under a memo")
    recipients = {keypair_from_private(TOY, d).public: d for d in range(1, TOY.n)}
    sealed = [
        (d, pk_encrypt(TOY, public, b"reading", rng, seal_id, memo=memo))
        for public, d in recipients.items()
        for seal_id in range(3)
    ]
    assert memo.ecdh_keys
    for (curve, recipient, eph), shared in memo.ecdh_keys.items():
        d = recipients[recipient]
        assert curve == TOY
        assert shared == ecdh_shared(TOY, d, eph) == derive_key(TOY, crypto.scalar_mult(TOY, d, eph))
    for peer in recipients:
        table = memo.window_table(TOY, peer)
        for private in range(1, TOY.n):
            assert ecdh_shared(TOY, private, peer, table) == ecdh_shared(TOY, private, peer)
    # Every open finds its seal's key: no ECDH is computed again.
    calls = []
    real = crypto.ecdh_shared
    monkeypatch.setattr(crypto, "ecdh_shared", lambda *args: calls.append(args) or real(*args))
    for d, payload in sealed:
        assert pk_decrypt(TOY, d, payload, memo=memo) == b"reading"
    assert calls == []
    # The inputs are checked with a memo as without it, and no refusal is kept.
    entries = dict(memo.ecdh_keys)
    for m in (memo, None):
        with pytest.raises(CryptoError, match="not on the curve"):
            pk_encrypt(TOY, (2, 2), b"reading", rng, memo=m)
        for private in (0, TOY.n, 3 + TOY.n):
            with pytest.raises(CryptoError, match="out of range"):
                pk_decrypt(TOY, private, sealed[0][1], memo=m)
    for private in (0, TOY.n, 3 + TOY.n):
        with pytest.raises(CryptoError, match="out of range"):
            ecdh_shared(TOY, private, peer, table)
    with pytest.raises(CryptoError, match="not on curve"):
        ecdh_shared(TOY, 3, (2, 2), table)
    assert dict(memo.ecdh_keys) == entries


def sealed_under_a_memo(curve, seed):
    """A key pair, a payload sealed for it under a memo, and that memo, which
    then holds the seal's ECDH entry."""
    rng = random.Random(seed)
    kp = keypair_generate(curve, rng)
    memo = CryptoMemo()
    sealed = pk_encrypt(curve, kp.public, b"one window's aggregate", rng, 5, memo=memo)
    size = curve.byte_length
    eph = (int.from_bytes(sealed[:size], "big"), int.from_bytes(sealed[size : 2 * size], "big"))
    assert (curve, kp.public, eph) in memo.ecdh_keys
    return kp, sealed, memo


def with_ephemeral_y(curve, sealed, y):
    size = curve.byte_length
    return sealed[:size] + y.to_bytes(size, "big") + sealed[2 * size :]


@pytest.mark.parametrize("curve", [TOY, SECP], ids=lambda c: c.name)
def test_an_open_reuses_its_seals_ecdh_key_only_for_the_sealing_pair(curve, monkeypatch):
    kp, sealed, memo = sealed_under_a_memo(curve, f"reuse {curve.name}")
    mults = []
    real = crypto.scalar_mult
    monkeypatch.setattr(crypto, "scalar_mult", lambda *args: mults.append(args) or real(*args))
    assert pk_decrypt(curve, kp.private, sealed, memo=memo) == b"one window's aggregate"
    assert [args[2] for args in mults] == [curve.g]  # only the memo learning our public point
    # Another private key -- but not n - d, whose shared point is the negation
    # of ours and so has the same x -- multiplies afresh and fails on the tag.
    other = kp.private % (curve.n - 1) + 1
    assert other not in (kp.private, curve.n - kp.private)
    with pytest.raises(CryptoError, match="tag"):
        pk_decrypt(curve, other, sealed, memo=memo)
    # An out-of-range key is refused with the memo, by its public_key, as
    # without it, by ecdh_shared, and on every call: exceptions are not cached.
    for private in (0, curve.n, kp.private + curve.n, 3 + curve.n) * 2:
        for m in (memo, None):
            with pytest.raises(CryptoError, match="out of range"):
                pk_decrypt(curve, private, sealed, memo=m)
    y = int.from_bytes(sealed[curve.byte_length : 2 * curve.byte_length], "big")
    with pytest.raises(CryptoError, match="tag"):
        pk_decrypt(curve, kp.private, with_ephemeral_y(curve, sealed, curve.p - y), memo=memo)
    with pytest.raises(CryptoError, match="not on curve"):
        pk_decrypt(curve, kp.private, with_ephemeral_y(curve, sealed, (y + 1) % curve.p), memo=memo)
    # None of the refusals spoiled the seal's entry or added one.
    assert len(memo.ecdh_keys) == 1
    assert pk_decrypt(curve, kp.private, sealed, memo=memo) == b"one window's aggregate"


def test_every_other_toy_private_key_opens_under_the_sealing_memo_as_without_it():
    kp, sealed, memo = sealed_under_a_memo(TOY, "every other key")
    for private in range(1, TOY.n):
        outcomes = []
        for m in (memo, None):
            try:
                outcomes.append(pk_decrypt(TOY, private, sealed, memo=m))
            except CryptoError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1], private
        # Only d and n - d give the sealing x coordinate.
        opened = outcomes[0] == b"one window's aggregate"
        assert opened == (private in (kp.private, TOY.n - kp.private)), private


@pytest.mark.parametrize("private", range(1, TOY.n))
def test_an_open_under_a_fresh_memo_equals_the_open_under_the_sealing_memo(private):
    rng = random.Random(private)
    kp = keypair_from_private(TOY, private)
    sealing = CryptoMemo()
    for seal_id in range(4):
        plaintext = rng.randbytes(24)
        sealed = pk_encrypt(TOY, kp.public, plaintext, rng, seal_id, memo=sealing)
        served = pk_decrypt(TOY, private, sealed, memo=sealing)
        assert served == pk_decrypt(TOY, private, sealed, memo=CryptoMemo()) == plaintext


@pytest.mark.parametrize("curve", [TOY, SECP], ids=lambda c: c.name)
def test_a_flipped_bit_is_refused_with_a_memo(curve):
    rng = random.Random(curve.name)
    kp = keypair_generate(curve, rng)
    memo = CryptoMemo()
    plaintext = rng.randbytes(30)
    sealed = pk_encrypt(curve, kp.public, plaintext, rng, 12, memo=memo)
    assert pk_decrypt(curve, kp.private, sealed, memo=memo) == plaintext
    for bit in range(len(sealed) * 8):
        bad = bytearray(sealed)
        bad[bit // 8] ^= 1 << (bit % 8)
        with pytest.raises(CryptoError):
            pk_decrypt(curve, kp.private, bytes(bad), memo=memo)
    assert pk_decrypt(curve, kp.private, sealed, memo=memo) == plaintext

    group = rng.randbytes(16)
    reading = rng.randbytes(protocol.READING_BYTES)
    ciphertext, tag = protocol.seal(KEY16, group, 40, reading, memo=memo)
    assert protocol.open_sealed(KEY16, group, 40, ciphertext, tag, memo=memo) == reading
    for field in (0, 1):
        for bit in range(len((ciphertext, tag)[field]) * 8):
            parts = [bytearray(ciphertext), bytearray(tag)]
            parts[field][bit // 8] ^= 1 << (bit % 8)
            with pytest.raises(protocol.TamperRejected):
                protocol.open_sealed(KEY16, group, 40, bytes(parts[0]), bytes(parts[1]), memo=memo)


@pytest.mark.parametrize("curve", [TOY, SECP], ids=lambda c: c.name)
def test_pk_encrypt_with_a_memo_seals_the_same_bytes_as_without(curve):
    rng = random.Random(f"seal {curve.name}")
    recipient = keypair_generate(curve, rng)
    memo = CryptoMemo()
    for seal_id in range(6):
        plaintext = rng.randbytes(40)
        state = rng.getstate()
        sealed = pk_encrypt(curve, recipient.public, plaintext, rng, seal_id, memo=memo)
        rng.setstate(state)
        assert pk_encrypt(curve, recipient.public, plaintext, rng, seal_id) == sealed
        assert pk_decrypt(curve, recipient.private, sealed) == plaintext
    info = memo.window_table.cache_info()
    assert (info.hits, info.misses, info.currsize) == (5, 1, 1)
    memo.window_table(curve, recipient.public)
    assert memo.window_table.cache_info().misses == 1  # the one table is the recipient's


def cache_sizes(memo):
    """Entries in a memo's window-table, public-key and HMAC-pad caches."""
    return tuple(
        cache.cache_info().currsize for cache in (memo.window_table, memo.public_key, memo.hmac_pads)
    )


def counted_table_builds(monkeypatch):
    """Points whose window table is built from now on, G's excluded."""
    builds = []
    real = crypto._window_table

    def counted(curve, point):
        if point != curve.g:
            builds.append(point)
        return real(curve, point)

    monkeypatch.setattr(crypto, "_window_table", counted)
    return builds


def test_each_memo_builds_its_own_table_and_clear_drops_it(monkeypatch):
    builds = counted_table_builds(monkeypatch)
    rng = random.Random(21)
    recipient = keypair_generate(SECP, rng).public
    first, second = CryptoMemo(), CryptoMemo()
    for memo in (first, first, second, second):
        pk_encrypt(SECP, recipient, b"one window", rng, memo=memo)
        nested_hmac(KEY16, bytes(16), b"a reading", memo=memo)
    assert builds == [recipient, recipient]
    assert first.window_table(SECP, recipient) is not second.window_table(SECP, recipient)
    first.clear()
    assert (len(first), first.ecdh_keys, cache_sizes(first)) == (0, {}, (0, 0, 0))
    assert cache_sizes(second) == (1, 0, 2)
    pk_encrypt(SECP, recipient, b"one window", rng, memo=first)
    assert builds == [recipient] * 3


def test_a_run_leaves_no_table_but_g_s_at_module_level(monkeypatch, scenarios_dir):
    builds = counted_table_builds(monkeypatch)
    cfg = dataclasses.replace(
        load_scenario(str(scenarios_dir / "ieee14.ini")), curve="secp256k1", duration_s=1.0
    )
    sim = run_simulation(cfg)
    assert sim.metrics.scada_delivered > 0
    assert builds == [sim.cc_keypair.public]  # built at the run's first seal
    assert cache_sizes(sim._crypto_memo) == (0, 0, 0)
    assert crypto._g_table.cache_info().currsize <= len(CURVES)
    # Nothing kept the run's table: a new memo builds it again.
    pk_encrypt(SECP, sim.cc_keypair.public, b"after the run", random.Random(2), memo=CryptoMemo())
    assert builds == [sim.cc_keypair.public] * 2
