"""Crypto primitives: known-answer vectors, group-law oracles, roundtrips."""

from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gridmon.crypto import (
    CURVES,
    CryptoError,
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

TOY = CURVES["toy17"]
SECP = CURVES["secp256k1"]

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


@pytest.mark.parametrize("base", ["G", "other"])
@given(k=st.integers(0, 2**256 - 1))
@example(k=0)
@example(k=1)
@example(k=SECP.n - 1)
@example(k=SECP.n)
@example(k=SECP.n + 1)
@example(k=2**256 - 1)
def test_scalar_mult_matches_oracle_on_secp256k1(base, k):
    point = SECP.g if base == "G" else SECP_OTHER_BASE
    assert scalar_mult(SECP, k, point) == affine_scalar_mult(SECP, k, point)


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
