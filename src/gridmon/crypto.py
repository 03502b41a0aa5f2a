"""Lightweight cryptography for the monitoring protocol.

Three primitives, all small enough to run on constrained field hardware:

* prime-field elliptic curve arithmetic with ECDH key agreement,
* the RC5-32/12/16 block cipher, used here in counter mode,
* HMAC plus a nested variant that binds a group key over a pairwise key.

A hybrid construction (ephemeral ECDH + RC5-CTR + HMAC) seals aggregate
payloads for the control-center public key.  Each seal carries its own
48-bit id, which picks its counter blocks and, with the ECDH output, its
RC5 and MAC keys.

Points are affine ``(x, y)`` tuples; ``None`` is the point at infinity.
The API stays affine, but ``scalar_mult`` works in Jacobian coordinates
inside and picks one of two paths by its input:

* a point with a fixed-base window table: ``G`` of any curve, whose table is
  built once per curve, or a point whose table the caller passes in (a
  run's ``CryptoMemo`` builds one for the control-center key).  The table
  holds 16 multiples per signed 5-bit digit of the scalar, and a negative
  digit adds a negated entry;
* any other point: left-to-right double-and-add.  A simulation run takes
  this path only for an open that finds no seal's ECDH key in its memo, as
  for an ephemeral point changed in transit: its key pairs and set-up keys
  come from ``G``, and its seals from the control-center key's table.

Beside them, ``fixed_base_batch`` computes many multiples of ``G`` in one
pass over G's table: row by row, every product moves forward in affine
coordinates, and a row's additions share one inversion (Montgomery's
trick).  A run's set-up takes all its pairwise keys from one such pass; a
single product stays on the Jacobian path, which pays one inversion in all.

RC5 key schedules are memoized per key; ``protocol.seal`` keeps RC5-CTR
counter blocks disjoint under a key (48-bit sequence, 16-bit block index).
A ``CryptoMemo`` passed as ``memo=`` holds what one run would otherwise
recompute, in two bounded FIFOs (keystreams and ECDH keys) and three per-run
``functools`` caches (the window table of each key it seals for, the public
point of each private key it opens under, and each key's HMAC pads).
``ecdh_shared`` itself keeps nothing: a seal stores its ECDH key under the
recipient's public point and its ephemeral one, and an open under the
recipient's private key looks it up there, so an aggregate's ECDH key is
computed once, by its seal, and both of its opens find it.
"""

from __future__ import annotations

import functools
import hashlib
import hmac as _hmac
import random
import struct
from collections import OrderedDict
from dataclasses import dataclass


class CryptoError(ValueError):
    """Raised for malformed keys, points, or sealed payloads."""


class _Fifo(OrderedDict):
    """Holds at most ``LIMIT`` entries and drops the oldest first."""

    LIMIT = 1024

    def remember(self, key, value):
        self[key] = value
        if len(self) > self.LIMIT:
            self.popitem(last=False)
        return value


class CryptoMemo(_Fifo):
    """What one run would otherwise recompute, in two bounded FIFOs and
    three per-run caches.

    The FIFOs are the memo itself, holding RC5 keystreams keyed by (key,
    counter base, length), and ``ecdh_keys``, holding the ECDH key of each
    seal keyed by (curve, recipient public point, ephemeral public point).
    ``pk_encrypt`` writes the entry and ``pk_decrypt`` reads it, so an
    aggregate's seal and both opens share one scalar multiplication; only a
    seal writes one, so an ephemeral point changed in transit finds none.
    Each holds at most ``LIMIT`` entries and drops its oldest first, so the
    many keystreams a run computes between an aggregate's seal and its opens
    cannot drop the seal's ECDH key.

    The caches, unbounded ``functools.cache`` wrappers, hold what a run
    reuses on every call: ``window_table(curve, point)``, the window table of
    each recipient key it seals for; ``public_key(curve, private)``, the
    public point of each private key it opens under, from
    ``keypair_from_private``, which refuses a key outside [1, n - 1] on every
    call; and ``hmac_pads(key)``, the keyed HMAC states of each (bytes) key
    it tags under.  A run owns one memo and empties all five when it ends;
    callers that pass none compute every result afresh.
    """

    def __init__(self):
        super().__init__()
        self.ecdh_keys = _Fifo()
        # Lambdas look the builders up at each miss, so a wrapped one is seen.
        self.window_table = functools.cache(lambda curve, point: _window_table(curve, point))
        self.public_key = functools.cache(
            lambda curve, private: keypair_from_private(curve, private).public
        )
        self.hmac_pads = functools.cache(_hmac_pads)

    def clear(self):
        super().clear()
        self.ecdh_keys.clear()
        for cache in (self.window_table, self.public_key, self.hmac_pads):
            cache.cache_clear()


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
    """Chord-and-tangent addition. Inputs must lie on the curve.

    The affine reference that the Jacobian formulas below are tested against.
    """
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


def _inverses(values, p: int) -> list:
    """1/v mod p for each nonzero v, sharing one inversion (Montgomery's
    trick, Hankerson, Menezes and Vanstone, section 2.2.5)."""
    prefix = [1]  # prefix[i] is the product of the first i values
    for v in values:
        prefix.append(prefix[-1] * v % p)
    inv = pow(prefix[-1], -1, p)  # 1 / (the product of them all)
    out = [None] * len(values)
    for i in range(len(values) - 1, -1, -1):
        out[i] = inv * prefix[i] % p
        inv = inv * values[i] % p
    return out


def _all_to_affine(curve: CurveParams, points) -> list:
    """Affine forms of finite Jacobian points, sharing one inversion."""
    p = curve.p
    out = []
    for (x, y, z), zinv in zip(points, _inverses([z for _, _, z in points], p)):
        zz = zinv * zinv % p
        out.append((x * zz % p, y * zz * zinv % p))
    return out


def _add_pairs(curve: CurveParams, pairs) -> list:
    """P + Q for each pair of finite affine points, the chords sharing one
    inversion.  A pair with equal x coordinates, a doubling or a point and
    its negation, goes by ``point_add``."""
    p = curve.p
    # An equal-x pair inverts a stand-in 1 and takes no slope.
    inverses = _inverses([(x2 - x1) or 1 for (x1, _), (x2, _) in pairs], p)
    out = []
    for ((x1, y1), (x2, y2)), inv in zip(pairs, inverses):
        if x1 == x2:
            out.append(point_add(curve, (x1, y1), (x2, y2)))
            continue
        m = (y2 - y1) * inv % p  # the chord's slope
        x3 = (m * m - x1 - x2) % p
        out.append((x3, (m * (x1 - x3) - y1) % p))
    return out


_WINDOW_BITS = 5
_HALF = 2 ** (_WINDOW_BITS - 1)  # the largest digit; a row's last multiple


def _window_table(curve: CurveParams, point) -> tuple:
    """Row i holds affine j * 32**i * P for j in 1..16, at index j - 1.

    One row per signed 5-bit digit of a scalar below n, so k*P is one mixed
    addition per nonzero digit and no doubling (fixed-base windowing,
    Hankerson, Menezes and Vanstone, section 3.3).  A digit d in -15..-1
    adds the negation (x, p - y) of row entry -d, so a row holds half the
    multiples an unsigned window needs.  P must have prime order n > 16, so
    no entry is the point at infinity.  Each row's base 32**i * P and its
    double come by Jacobian doubling and share one inversion; then
    multiples 3..16 come in 14 steps, each adding every row's base to its
    last entry in one ``_add_pairs`` call.
    """
    chain = []  # each row's base and its double
    base = (point[0], point[1], 1)
    # n.bit_length() // 5 + 1 digits hold every k < n with its carries.
    for _ in range(curve.n.bit_length() // _WINDOW_BITS + 1):
        double = _jacobian_double(curve, base)
        chain += (base, double)
        base = double
        for _ in range(_WINDOW_BITS - 1):
            base = _jacobian_double(curve, base)
    flat = _all_to_affine(curve, chain)
    rows = [flat[i : i + 2] for i in range(0, len(flat), 2)]
    for _ in range(_HALF - 2):
        for row, entry in zip(rows, _add_pairs(curve, [(row[-1], row[0]) for row in rows])):
            row.append(entry)
    return tuple(map(tuple, rows))


@functools.cache
def _g_table(curve: CurveParams) -> tuple:
    return _window_table(curve, curve.g)


def scalar_mult(curve: CurveParams, k: int, point, table: tuple | None = None):
    """k*P for an affine point P; negative scalars are rejected.

    P is multiplied from a window table when the caller passes one --
    ``table`` must be P's, as ``CryptoMemo.window_table`` builds it -- and G
    from its own, both with k reduced mod n, the order of G and of a tabled
    point.  The reduced k is read in signed 5-bit digits, lowest first
    (``_digit_entries``), one mixed addition per nonzero digit.  Every
    other input -- any other curve point, or a point that fails
    ``is_on_curve`` -- goes by left-to-right double-and-add on the unreduced
    k.
    """
    if k < 0:
        raise CryptoError("scalar must be non-negative")
    acc = None
    if table is None and point == curve.g:
        table = _g_table(curve)
    if table is not None:
        for entry in _digit_entries(curve, table, k % curve.n):
            acc = _jacobian_add_affine(curve, acc, entry)
    elif point is not None:
        for bit in bin(k)[2:]:
            acc = _jacobian_double(curve, acc)
            if bit == "1":
                acc = _jacobian_add_affine(curve, acc, point)
    return None if acc is None else _all_to_affine(curve, [acc])[0]


def _digit_entries(curve: CurveParams, table: tuple, k: int):
    """Per row of ``table``, lowest first, the affine point that k's signed
    5-bit digit there adds, or None for a zero digit.  A digit d above 16
    becomes d - 32 and carries one into the next; k must be small enough
    for the table's rows to hold all its digits."""
    mask = 2**_WINDOW_BITS - 1
    for row in table:
        d = k & mask
        k >>= _WINDOW_BITS
        if d > _HALF:
            k += 1
            x, y = row[mask - d]  # row entry 32 - d, the digit's negation
            yield (x, curve.p - y)
        else:
            yield row[d - 1] if d else None


def fixed_base_batch(curve: CurveParams, scalars) -> list:
    """[k*G for k in scalars] in one pass over G's window table.

    The scalars' signed digits are read row by row, and every product that
    row adds to moves forward in affine coordinates under one shared
    inversion (``_add_pairs``), so a batch of m products costs one
    inversion per row rather than m.  Each k is read as given, not reduced
    mod n, as the set-up's scalars already lie below n: it must lie in
    [0, 16 * 32**(rows - 1)), which holds every k < 3n on the shipped
    curves.  A batch of one is slower than ``scalar_mult``.
    """
    table = _g_table(curve)
    limit = _HALF << _WINDOW_BITS * (len(table) - 1)
    for k in scalars:
        if not 0 <= k < limit:
            raise CryptoError(f"scalar {k} outside [0, {limit}) for a batch on {curve.name}")
    acc = [None] * len(scalars)
    for entries in zip(*(_digit_entries(curve, table, k) for k in scalars)):
        # A product still at infinity takes its entry as it is; a finite one adds it.
        moved = [j for j, entry in enumerate(entries) if entry and acc[j]]
        sums = _add_pairs(curve, [(acc[j], entries[j]) for j in moved])
        acc = [point or entry for point, entry in zip(acc, entries)]
        for j, total in zip(moved, sums):
            acc[j] = total
    return acc


@dataclass(frozen=True)
class KeyPair:
    private: int
    public: tuple[int, int]


def keypair_from_private(curve: CurveParams, private: int) -> KeyPair:
    """Build a key pair from an explicit scalar in [1, n-1]."""
    if not 1 <= private <= curve.n - 1:
        raise CryptoError(f"private key {private} out of range [1, {curve.n - 1}]")
    public = scalar_mult(curve, private, curve.g)
    return KeyPair(private, public)


def keypair_generate(curve: CurveParams, rng: random.Random) -> KeyPair:
    return keypair_from_private(curve, rng.randrange(1, curve.n))


def derive_key(curve: CurveParams, point: tuple[int, int]) -> bytes:
    """16-byte symmetric key from a shared point: SHA-256 of the x coordinate."""
    x_bytes = point[0].to_bytes(curve.byte_length, "big")
    return hashlib.sha256(x_bytes).digest()[:16]


def ecdh_shared(curve: CurveParams, private: int, peer_public, table: tuple | None = None) -> bytes:
    """Derive the pairwise key private * peer_public -> 16 bytes.

    Refuses a peer point off the curve or at infinity and a private key
    outside [1, n - 1].  A ``table`` of the peer's multiples is passed on to
    ``scalar_mult``.
    """
    if not is_on_curve(curve, peer_public) or peer_public is None:
        raise CryptoError(f"peer public key {peer_public} is not on curve {curve.name}")
    if not 1 <= private <= curve.n - 1:
        raise CryptoError("private key out of range")
    shared = scalar_mult(curve, private, peer_public, table)
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


@functools.lru_cache(maxsize=512)
def rc5_key_schedule(key: bytes) -> tuple[int, ...]:
    """Expand a 16-byte (hashable) key into the 26-word round key table.

    Memoized over the last 512 distinct keys: room for a 118-bus run's 142
    pairwise keys beside the one-use keys of public-key seals.
    """
    if len(key) != RC5_KEY_BYTES:
        raise CryptoError(f"RC5 key must be {RC5_KEY_BYTES} bytes, got {len(key)}")
    t = 2 * (RC5_ROUNDS + 1)
    L = list(struct.unpack("<4I", key))
    S = [(_P32 + i * _Q32) & _M32 for i in range(t)]
    A = B = 0
    for k in range(3 * t):
        # Rotations inlined as in _keystream; here the mask follows the rotation.
        x = (S[k % t] + A + B) & _M32
        A = S[k % t] = (x << 3 | x >> 29) & _M32
        x, r = (L[k % 4] + A + B) & _M32, (A + B) & 31
        B = L[k % 4] = (x << r | x >> (32 - r)) & _M32
    return tuple(S)


def rc5_encrypt_block(S: tuple[int, ...], block: bytes) -> bytes:
    """Encrypt one 8-byte block: the CTR keystream of the block as a counter."""
    if len(block) != RC5_BLOCK_BYTES:
        raise CryptoError("RC5 block must be 8 bytes")
    return rc5_ctr(S, int.from_bytes(block, "little"), bytes(RC5_BLOCK_BYTES))


def rc5_ctr(key_or_schedule, nonce: int, data: bytes, *, memo: CryptoMemo | None = None) -> bytes:
    """Counter-mode keystream XOR; encryption and decryption are the same op.

    Keystream block i is RC5(E, (nonce + i) mod 2**64), encoded little-endian
    and XORed as one integer.  Callers keep each (key, counter block) unique;
    ``seal`` puts a 48-bit sequence number above a 16-bit block index.  A key
    goes through the memoized ``rc5_key_schedule``; a list or tuple is taken
    as an expanded schedule.  With a key, a ``memo`` computes the keystream
    of a (key, nonce, length) once and only XORs on later calls; the key
    schedule is still looked up on every call.
    """
    S = key_or_schedule
    n = len(data)
    pad = None
    if not isinstance(S, (list, tuple)):
        # Any bytes-like key; memoryview refuses the int that bytes() would zero-fill.
        key = bytes(memoryview(S))
        S = rc5_key_schedule(key)
        if memo is not None:
            entry = (key, nonce, n)
            pad = memo.get(entry)
            if pad is None:
                pad = memo.remember(entry, _keystream(S, nonce, n))
    if pad is None:
        pad = _keystream(S, nonce, n)
    return (int.from_bytes(data, "little") ^ pad).to_bytes(n, "little")


def _keystream(S, nonce: int, n: int) -> int:
    """The first ``n`` keystream bytes from counter ``nonce``, as a little-endian int."""
    rounds = tuple(zip(S[2::2], S[3::2]))
    blocks = -(-n // RC5_BLOCK_BYTES)
    stream = []
    for counter in range(nonce, nonce + blocks):
        A = ((counter & _M32) + S[0]) & _M32
        B = ((counter >> 32 & _M32) + S[1]) & _M32
        for sa, sb in rounds:
            # Rotation inlined: x << r keeps bits above 32; the mask after the add drops them.
            x, r = A ^ B, B & 31
            A = ((x << r | x >> (32 - r)) + sa) & _M32
            x, r = B ^ A, A & 31
            B = ((x << r | x >> (32 - r)) + sb) & _M32
        stream.append(A | B << 32)
    return int.from_bytes(struct.pack(f"<{blocks}Q", *stream)[:n], "little")


# ===== message authentication =====


def hmac_tag(key: bytes, message: bytes) -> bytes:
    """Standard HMAC-SHA256."""
    return _hmac.new(key, message, hashlib.sha256).digest()


_XOR_36 = bytes(b ^ 0x36 for b in range(256))
_XOR_5C = bytes(b ^ 0x5C for b in range(256))


def _hmac_pads(key: bytes) -> tuple:
    """SHA-256 states that have absorbed ``key``'s inner and outer HMAC pads
    (RFC 2104, section 4)."""
    # SHA-256 reads 64-byte blocks: a longer key is hashed, a shorter one zero-filled.
    block = (key if len(key) <= 64 else hashlib.sha256(key).digest()).ljust(64, b"\0")
    return hashlib.sha256(block.translate(_XOR_36)), hashlib.sha256(block.translate(_XOR_5C))


def nested_hmac(
    group_key: bytes, pairwise_key: bytes, message: bytes, *, memo: CryptoMemo | None = None
) -> bytes:
    """Two-layer tag: inner HMAC under the pairwise key, outer under the group key.

    A forger must know both keys, so a node holding only the group key still
    cannot forge traffic for another pair.  Each layer copies the keyed hash
    states of its key: the ``memo``'s, keyed once per run, or else states
    keyed for this call.
    """
    pads = _hmac_pads if memo is None else memo.hmac_pads
    tag = message
    for key in (pairwise_key, group_key):
        if not isinstance(key, bytes):
            key = bytes(memoryview(key))  # hashable; refuses the int bytes() would zero-fill
        inner, outer = pads(key)
        inner = inner.copy()
        inner.update(tag)
        outer = outer.copy()
        outer.update(inner.digest())
        tag = outer.digest()
    return tag


def tags_equal(a: bytes, b: bytes) -> bool:
    """Constant-time tag comparison."""
    return _hmac.compare_digest(a, b)


# ===== hybrid public-key sealing =====

_TAG_BYTES = 32
_SEAL_ID_BYTES = 6


def _pk_keys(shared: bytes, seal_id: bytes) -> tuple[bytes, bytes]:
    """RC5 and MAC keys of one seal: SHA-256 over a distinct label, the seal
    id and the ECDH output (key separation as in NIST SP 800-108)."""
    context = b"\x00" + seal_id + shared
    return (
        hashlib.sha256(b"gridmon pk rc5" + context).digest()[:RC5_KEY_BYTES],
        hashlib.sha256(b"gridmon pk mac" + context).digest(),
    )


def pk_encrypt(
    curve: CurveParams, recipient_public, plaintext: bytes, rng: random.Random,
    seal_id: int = 0, *, memo: CryptoMemo | None = None,
) -> bytes:
    """Seal plaintext for a public key: ephemeral ECDH, RC5-CTR, HMAC tag.

    Layout: eph_x || eph_y (curve.byte_length each) || seal id (6) ||
    tag (32) || ciphertext.  The RC5 and MAC keys derive from the ECDH output
    and the 48-bit ``seal_id``, and the keystream starts at counter block
    ``seal_id << 16``.  The tag covers the ephemeral point, the id and the
    ciphertext, so no header byte can change unseen (a negated ephemeral
    point would still give the same ECDH output).  A small curve has few
    ephemeral keys, so two seals can share an ECDH output; give every seal
    its own id and they still share no key and no counter block.  With a
    ``memo``, its window table of ``recipient_public`` serves the ECDH
    multiplication; the memo then keeps the ECDH key, under the recipient's
    and the ephemeral public points, and the keystream, through ``rc5_ctr``,
    so the opens reuse both.
    """
    if not is_on_curve(curve, recipient_public) or recipient_public is None:
        raise CryptoError("recipient public key is not on the curve")
    if not 0 <= seal_id < 1 << 8 * _SEAL_ID_BYTES:
        raise CryptoError(f"seal id {seal_id} outside [0, 2**48)")
    eph = keypair_generate(curve, rng)
    sid = seal_id.to_bytes(_SEAL_ID_BYTES, "big")
    # The recipient's table, built at the memo's first seal, serves them all.
    table = None if memo is None else memo.window_table(curve, recipient_public)
    shared = ecdh_shared(curve, eph.private, recipient_public, table)
    if memo is not None:
        memo.ecdh_keys.remember((curve, recipient_public, eph.public), shared)
    rc5_key, mac_key = _pk_keys(shared, sid)
    ciphertext = rc5_ctr(rc5_key, seal_id << 16, plaintext, memo=memo)
    size = curve.byte_length
    ex, ey = eph.public
    head = ex.to_bytes(size, "big") + ey.to_bytes(size, "big") + sid
    return head + hmac_tag(mac_key, head + ciphertext) + ciphertext


def pk_decrypt(
    curve: CurveParams, private: int, sealed: bytes, *, memo: CryptoMemo | None = None
) -> bytes:
    """Open a sealed payload; raises CryptoError on any tamper or truncation.
    ``ecdh_shared`` refuses an ephemeral point off the curve.

    A ``memo`` serves the ECDH key and the keystream of a seal made under
    it.  The ECDH key is looked up under the memo's ``public_key`` of
    ``private`` and the ephemeral point, an entry only the seal wrote, so
    another private key or a changed ephemeral point goes by
    ``ecdh_shared``, and the tag still decides.
    """
    size = curve.byte_length
    id_end = 2 * size + _SEAL_ID_BYTES
    header = id_end + _TAG_BYTES
    if len(sealed) < header:
        raise CryptoError("sealed payload truncated")
    eph_public = (
        int.from_bytes(sealed[:size], "big"),
        int.from_bytes(sealed[size : 2 * size], "big"),
    )
    head, sid = sealed[:id_end], sealed[2 * size : id_end]
    tag = sealed[id_end:header]
    ciphertext = sealed[header:]
    shared = None
    if memo is not None:
        shared = memo.ecdh_keys.get((curve, memo.public_key(curve, private), eph_public))
    if shared is None:
        shared = ecdh_shared(curve, private, eph_public)
    rc5_key, mac_key = _pk_keys(shared, sid)
    if not tags_equal(tag, hmac_tag(mac_key, head + ciphertext)):
        raise CryptoError("authentication tag mismatch")
    return rc5_ctr(rc5_key, int.from_bytes(sid, "big") << 16, ciphertext, memo=memo)
