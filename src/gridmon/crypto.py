"""Lightweight cryptography for the monitoring protocol.

Three primitives, all small enough to run on constrained field hardware:

* prime-field elliptic curve arithmetic with ECDH key agreement,
* the RC5-32/12/16 block cipher, used here in counter mode,
* HMAC plus a nested variant that binds a group key over a pairwise key.

A hybrid construction (ephemeral ECDH + RC5-CTR + HMAC) seals aggregate
payloads for the control-center public key.

Points are affine ``(x, y)`` tuples; ``None`` is the point at infinity.
The API stays affine, but ``scalar_mult`` works in Jacobian coordinates
inside, with one inversion per multiplication, and multiplies the base
point ``G`` from a fixed-base window table built once per curve.

RC5 key schedules are memoized per key; ``protocol.seal`` keeps RC5-CTR
counter blocks disjoint under a key (48-bit sequence, 16-bit block index).
"""

from __future__ import annotations

import functools
import hashlib
import hmac as _hmac
import random
import struct
from dataclasses import dataclass


class CryptoError(ValueError):
    """Raised for malformed keys, points, or sealed payloads."""


# ===== elliptic curve arithmetic =====


@dataclass(frozen=True)
class CurveParams:
    """Short Weierstrass curve y^2 = x^3 + a*x + b over GF(p), base point order n."""

    name: str
    p: int
    a: int
    b: int
    gx: int
    gy: int
    n: int

    @property
    def g(self) -> tuple[int, int]:
        return (self.gx, self.gy)

    @property
    def byte_length(self) -> int:
        return (self.p.bit_length() + 7) // 8


# A 19-point toy curve small enough for exhaustive group checks, and a
# production-sized 256-bit curve for actual scenario runs.
CURVES: dict[str, CurveParams] = {
    "toy17": CurveParams("toy17", p=17, a=2, b=2, gx=5, gy=1, n=19),
    "secp256k1": CurveParams(
        "secp256k1",
        p=0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFC2F,
        a=0,
        b=7,
        gx=0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798,
        gy=0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8,
        n=0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141,
    ),
}


def is_on_curve(curve: CurveParams, point) -> bool:
    """True for the point at infinity and for curve points in canonical
    form (both coordinates in [0, p))."""
    if point is None:
        return True
    x, y = point
    if not (0 <= x < curve.p and 0 <= y < curve.p):
        return False
    return (y * y - (x * x * x + curve.a * x + curve.b)) % curve.p == 0


def point_add(curve: CurveParams, p1, p2):
    """Chord-and-tangent addition. Inputs must lie on the curve."""
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    x1, y1 = p1
    x2, y2 = p2
    if x1 == x2 and (y1 + y2) % curve.p == 0:
        return None
    if p1 == p2:
        if y1 == 0:
            return None
        m = (3 * x1 * x1 + curve.a) * pow(2 * y1, -1, curve.p) % curve.p
    else:
        m = (y2 - y1) * pow(x2 - x1, -1, curve.p) % curve.p
    x3 = (m * m - x1 - x2) % curve.p
    y3 = (m * (x1 - x3) - y1) % curve.p
    return (x3, y3)


# Jacobian (X, Y, Z) stands for affine (X/Z^2, Y/Z^3); None is infinity.
# Formulas for general a: Hankerson, Menezes and Vanstone, Guide to Elliptic
# Curve Cryptography (2004), section 3.2.


def _jacobian_double(curve: CurveParams, pt):
    if pt is None:
        return None
    x, y, z = pt
    if y == 0:
        return None
    p = curve.p
    yy = y * y % p
    s = 4 * x * yy % p
    m = 3 * x * x
    if curve.a:
        zz = z * z % p
        m += curve.a * zz * zz
    m %= p
    x3 = (m * m - 2 * s) % p
    return (x3, (m * (s - x3) - 8 * yy * yy) % p, 2 * y * z % p)


def _jacobian_add_affine(curve: CurveParams, pt, q):
    """Jacobian pt plus affine q (mixed coordinates)."""
    if q is None:
        return pt
    if pt is None:
        return (q[0], q[1], 1)
    x1, y1, z1 = pt
    p = curve.p
    zz = z1 * z1 % p
    h = (q[0] * zz - x1) % p
    r = (q[1] * zz * z1 - y1) % p
    if h == 0:
        return _jacobian_double(curve, pt) if r == 0 else None
    hh = h * h % p
    hhh = h * hh % p
    v = x1 * hh % p
    x3 = (r * r - hhh - 2 * v) % p
    return (x3, (r * (v - x3) - y1 * hhh) % p, z1 * h % p)


def _to_affine(curve: CurveParams, pt):
    if pt is None:
        return None
    x, y, z = pt
    p = curve.p
    zinv = pow(z, -1, p)
    zz = zinv * zinv % p
    return (x * zz % p, y * zz * zinv % p)


_WINDOW_BITS = 4


@functools.cache
def _g_table(curve: CurveParams) -> tuple:
    """Row i holds affine j * 16**i * G for j in 0..15 (row[0] is None).

    One row per 4-bit window of a scalar below n, so k*G is one mixed
    addition per nonzero window and no doubling (fixed-base windowing,
    Hankerson, Menezes and Vanstone, section 3.3).
    """
    rows = []
    base = curve.g
    for _ in range(-(-curve.n.bit_length() // _WINDOW_BITS)):
        row = [None]
        for _ in range(2**_WINDOW_BITS - 1):
            row.append(point_add(curve, row[-1], base))
        rows.append(tuple(row))
        base = point_add(curve, row[-1], base)
    return tuple(rows)


def scalar_mult(curve: CurveParams, k: int, point):
    """k*P for an affine point P; negative scalars are rejected.

    G is multiplied from its window table with k reduced mod n (G has order
    n); any other point by left-to-right double-and-add.
    """
    if k < 0:
        raise CryptoError("scalar must be non-negative")
    acc = None
    if point == curve.g:
        k %= curve.n
        mask = 2**_WINDOW_BITS - 1
        for row in _g_table(curve):
            acc = _jacobian_add_affine(curve, acc, row[k & mask])
            k >>= _WINDOW_BITS
    elif point is not None:
        for bit in bin(k)[2:]:
            acc = _jacobian_double(curve, acc)
            if bit == "1":
                acc = _jacobian_add_affine(curve, acc, point)
    return _to_affine(curve, acc)


@dataclass(frozen=True)
class KeyPair:
    curve: CurveParams
    private: int
    public: tuple[int, int]


def keypair_from_private(curve: CurveParams, private: int) -> KeyPair:
    """Build a key pair from an explicit scalar in [1, n-1]."""
    if not 1 <= private <= curve.n - 1:
        raise CryptoError(f"private key {private} out of range [1, {curve.n - 1}]")
    public = scalar_mult(curve, private, curve.g)
    return KeyPair(curve, private, public)


def keypair_generate(curve: CurveParams, rng: random.Random) -> KeyPair:
    return keypair_from_private(curve, rng.randrange(1, curve.n))


def derive_key(curve: CurveParams, point: tuple[int, int]) -> bytes:
    """16-byte symmetric key from a shared point: SHA-256 of the x coordinate."""
    x_bytes = point[0].to_bytes(curve.byte_length, "big")
    return hashlib.sha256(x_bytes).digest()[:16]


def ecdh_shared(curve: CurveParams, private: int, peer_public) -> bytes:
    """Derive the pairwise key private * peer_public -> 16 bytes."""
    if not is_on_curve(curve, peer_public) or peer_public is None:
        raise CryptoError(f"peer public key {peer_public} is not on curve {curve.name}")
    if not 1 <= private <= curve.n - 1:
        raise CryptoError("private key out of range")
    shared = scalar_mult(curve, private, peer_public)
    if shared is None:
        raise CryptoError("shared secret is the point at infinity")
    return derive_key(curve, shared)


# ===== RC5-32/12/16 =====

_M32 = 0xFFFFFFFF
_P32 = 0xB7E15163
_Q32 = 0x9E3779B9
RC5_ROUNDS = 12
RC5_KEY_BYTES = 16
RC5_BLOCK_BYTES = 8


def _rotl(x: int, s: int) -> int:
    s &= 31
    return ((x << s) | (x >> (32 - s))) & _M32


@functools.lru_cache(maxsize=512)
def rc5_key_schedule(key: bytes) -> tuple[int, ...]:
    """Expand a 16-byte (hashable) key into the 26-word round key table.

    Memoized over the last 512 distinct keys: room for a 118-bus run's 214
    pairwise keys beside the one-use keys of public-key seals.
    """
    if len(key) != RC5_KEY_BYTES:
        raise CryptoError(f"RC5 key must be {RC5_KEY_BYTES} bytes, got {len(key)}")
    t = 2 * (RC5_ROUNDS + 1)
    L = list(struct.unpack("<4I", key))
    S = [(_P32 + i * _Q32) & _M32 for i in range(t)]
    A = B = 0
    for k in range(3 * t):
        A = S[k % t] = _rotl((S[k % t] + A + B) & _M32, 3)
        B = L[k % 4] = _rotl((L[k % 4] + A + B) & _M32, A + B)
    return tuple(S)


def rc5_encrypt_block(S: tuple[int, ...], block: bytes) -> bytes:
    """Encrypt one 8-byte block: the CTR keystream of the block as a counter."""
    if len(block) != RC5_BLOCK_BYTES:
        raise CryptoError("RC5 block must be 8 bytes")
    return rc5_ctr(S, int.from_bytes(block, "little"), bytes(RC5_BLOCK_BYTES))


def rc5_ctr(key_or_schedule, nonce: int, data: bytes) -> bytes:
    """Counter-mode keystream XOR; encryption and decryption are the same op.

    Keystream block i is RC5(E, (nonce + i) mod 2**64), encoded little-endian
    and XORed as one integer.  Callers keep each (key, counter block) unique;
    ``seal`` puts a 48-bit sequence number above a 16-bit block index.  A key
    goes through the memoized ``rc5_key_schedule``; a list or tuple is taken
    as an expanded schedule.
    """
    S = key_or_schedule
    if not isinstance(S, (list, tuple)):
        # Any bytes-like key; memoryview refuses the int that bytes() would zero-fill.
        S = rc5_key_schedule(bytes(memoryview(S)))
    rounds = tuple(zip(S[2::2], S[3::2]))
    n = len(data)
    blocks = -(-n // RC5_BLOCK_BYTES)
    stream = []
    for counter in range(nonce, nonce + blocks):
        A = ((counter & _M32) + S[0]) & _M32
        B = ((counter >> 32 & _M32) + S[1]) & _M32
        for sa, sb in rounds:
            # _rotl inlined: x << r keeps bits above 32; the mask after the add drops them.
            x, r = A ^ B, B & 31
            A = ((x << r | x >> (32 - r)) + sa) & _M32
            x, r = B ^ A, A & 31
            B = ((x << r | x >> (32 - r)) + sb) & _M32
        stream.append(A | B << 32)
    pad = struct.pack(f"<{blocks}Q", *stream)[:n]
    return (int.from_bytes(data, "little") ^ int.from_bytes(pad, "little")).to_bytes(n, "little")


# ===== message authentication =====


def hmac_tag(key: bytes, message: bytes) -> bytes:
    """Standard HMAC-SHA256."""
    return _hmac.new(key, message, hashlib.sha256).digest()


def nested_hmac(group_key: bytes, pairwise_key: bytes, message: bytes) -> bytes:
    """Two-layer tag: inner HMAC under the pairwise key, outer under the group key.

    A forger must know both keys, so a node holding only the group key still
    cannot forge traffic for another pair.
    """
    return hmac_tag(group_key, hmac_tag(pairwise_key, message))


def tags_equal(a: bytes, b: bytes) -> bool:
    """Constant-time tag comparison."""
    return _hmac.compare_digest(a, b)


# ===== hybrid public-key sealing =====

_TAG_BYTES = 32


def pk_encrypt(curve: CurveParams, recipient_public, plaintext: bytes, rng: random.Random) -> bytes:
    """Seal plaintext for a public key: ephemeral ECDH, RC5-CTR, HMAC tag.

    Layout: eph_x || eph_y (curve.byte_length each) || tag (32) || ciphertext.
    The nonce is fixed at zero, safe because every call draws a fresh
    ephemeral key.
    """
    if not is_on_curve(curve, recipient_public) or recipient_public is None:
        raise CryptoError("recipient public key is not on the curve")
    eph = keypair_generate(curve, rng)
    key = ecdh_shared(curve, eph.private, recipient_public)
    ciphertext = rc5_ctr(key, 0, plaintext)
    tag = hmac_tag(key, ciphertext)
    size = curve.byte_length
    ex, ey = eph.public
    return ex.to_bytes(size, "big") + ey.to_bytes(size, "big") + tag + ciphertext


def pk_decrypt(curve: CurveParams, private: int, sealed: bytes) -> bytes:
    """Open a sealed payload; raises CryptoError on any tamper or truncation."""
    size = curve.byte_length
    header = 2 * size + _TAG_BYTES
    if len(sealed) < header:
        raise CryptoError("sealed payload truncated")
    eph_public = (
        int.from_bytes(sealed[:size], "big"),
        int.from_bytes(sealed[size : 2 * size], "big"),
    )
    if not is_on_curve(curve, eph_public):
        raise CryptoError("ephemeral public key is not on the curve")
    tag = sealed[2 * size : header]
    ciphertext = sealed[header:]
    key = ecdh_shared(curve, private, eph_public)
    if not tags_equal(tag, hmac_tag(key, ciphertext)):
        raise CryptoError("authentication tag mismatch")
    return rc5_ctr(key, 0, ciphertext)
