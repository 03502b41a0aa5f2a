"""Microbenchmarks of the hot primitives, reported as per-layer metrics.

Each is the median over several timed batches, so one slow batch on a
shared host does not set the figure.  Inputs come from the seed.
"""

from __future__ import annotations

import random
import statistics
import time

from gridmon import crypto, engine, protocol


def _per_call(fn, calls: int, batches: int = 5) -> float:
    """Median seconds per call over ``batches`` batches of ``calls`` calls."""
    times = []
    for _ in range(batches):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - start) / calls)
    return statistics.median(times)


def _aggregate(rng: random.Random, count: int = 200) -> bytes:
    """A window's aggregate: 200 readings make the 4.6 KB the 118-bus sinks seal."""
    kinds = (protocol.PacketKind.SCADA, protocol.PacketKind.PMU)
    readings = [
        protocol.SensorReading(i, kinds[i % 2], rng.randrange(1, 119), 0, i * 1e-3, rng.random())
        for i in range(count)
    ]
    return protocol.build_aggregate(0, 0.0, 1.0, readings)


def _schedule_pop_s(batch: int = 20000) -> float:
    """Seconds per EventQueue push plus pop, the engine's per-event cost."""
    def noop():
        pass

    def one_batch():
        queue = engine.EventQueue()
        for i in range(batch):
            queue.schedule((i * 7919 % batch) * 1e-6, noop)
        queue.run_all()

    return _per_call(one_batch, 1) / batch


def micro_metrics(seed: int) -> dict[str, float]:
    rng = random.Random(f"{seed}:micro")
    curve = crypto.CURVES["secp256k1"]
    scalars = [rng.randrange(1, curve.n) for _ in range(8)]
    recipient = crypto.keypair_generate(curve, rng)
    blob = _aggregate(rng)
    sealed = crypto.pk_encrypt(curve, recipient.public, blob, rng)
    key = rng.randbytes(16)
    group = rng.randbytes(16)
    schedule = crypto.rc5_key_schedule(key)
    reading = protocol.serialize_reading(
        protocol.SensorReading(1, protocol.PacketKind.SCADA, 1, 0, 0.5, rng.random())
    )
    ciphertext, tag = protocol.seal(key, group, 11, reading)
    blocks = -(-len(blob) // crypto.RC5_BLOCK_BYTES)

    it = iter(scalars * 2)
    return {
        "micro.scalar_mult_ms": 1e3 * _per_call(
            lambda: crypto.scalar_mult(curve, next(it), curve.g), 3),
        "micro.pk_encrypt_ms": 1e3 * _per_call(
            lambda: crypto.pk_encrypt(curve, recipient.public, blob, rng), 2),
        "micro.pk_decrypt_ms": 1e3 * _per_call(
            lambda: crypto.pk_decrypt(curve, recipient.private, sealed), 2),
        "micro.rc5_key_schedule_us": 1e6 * _per_call(lambda: crypto.rc5_key_schedule(key), 200),
        "micro.rc5_us_per_block": 1e6 * _per_call(lambda: crypto.rc5_ctr(schedule, 0, blob), 2)
        / blocks,
        "micro.seal_us": 1e6 * _per_call(lambda: protocol.seal(key, group, 11, reading), 200),
        "micro.open_sealed_us": 1e6 * _per_call(
            lambda: protocol.open_sealed(key, group, 11, ciphertext, tag), 200),
        "micro.schedule_pop_us": 1e6 * _schedule_pop_s(),
    }
