"""Adversary models injected into the wireless plane.

Attacked nodes only misbehave toward traffic they forward, never traffic
they originate:

* blackhole: silently drops every packet it should forward,
* grayhole: drops each forwarded packet with a fixed probability,
* tamper: flips exactly one ciphertext bit and forwards the packet.

Count-based selection ("compromise k relays") draws from a seeded shuffle,
so at equal seed the set for a larger count contains the set for a smaller
one; sweeps along an attack axis then compare nested adversaries.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field


class AttackError(ValueError):
    pass


@dataclass(frozen=True)
class AttackConfig:
    """Declarative attack selection; resolved to concrete nodes per run."""

    blackhole_nodes: frozenset[int] = frozenset()
    grayhole: tuple[tuple[int, float], ...] = ()  # (node id, drop probability)
    tamper_nodes: frozenset[int] = frozenset()
    compromised_count: int = 0  # relays turned blackhole, drawn at random
    tamper_count: int = 0       # relays turned tamperer, drawn at random
    activation_time: float = 0.0


@dataclass
class AttackPlan:
    """Concrete per-run adversary assignment."""

    blackholes: frozenset[int] = frozenset()
    grayholes: dict[int, float] = field(default_factory=dict)
    tampers: frozenset[int] = frozenset()
    activation_time: float = 0.0

    def active(self, now: float) -> bool:
        return now >= self.activation_time

    def behavior(self, node_id: int, now: float) -> str | None:
        """The forwarding behavior override for a node, if any."""
        if not self.active(now):
            return None
        if node_id in self.blackholes:
            return "blackhole"
        if node_id in self.grayholes:
            return "grayhole"
        if node_id in self.tampers:
            return "tamper"
        return None


def apply_attack(
    config: AttackConfig, wireless_ids: list[int], relay_ids: list[int], rng: random.Random
) -> AttackPlan:
    """Resolve an attack config against the deployed wireless population.

    Explicit node sets must reference wireless nodes.  Count-based picks are
    the first k entries of one seeded shuffle of the relay ids: blackholes
    first, then tamperers, so the two sets never overlap.
    """
    wireless = set(wireless_ids)
    for nid in sorted(config.blackhole_nodes | config.tamper_nodes | {n for n, _ in config.grayhole}):
        if nid not in wireless:
            raise AttackError(f"attack references non-wireless node {nid}")
    for nid, prob in config.grayhole:
        if not 0.0 <= prob <= 1.0:
            raise AttackError(f"grayhole probability {prob} for node {nid} not in [0, 1]")
    if config.compromised_count < 0 or config.tamper_count < 0:
        raise AttackError("attack counts must be non-negative")
    if config.compromised_count + config.tamper_count > len(relay_ids):
        raise AttackError(
            f"cannot attack {config.compromised_count + config.tamper_count} of "
            f"{len(relay_ids)} relays"
        )

    blackholes = set(config.blackhole_nodes)
    tampers = set(config.tamper_nodes)
    if config.compromised_count or config.tamper_count:
        pool = sorted(relay_ids)
        rng.shuffle(pool)
        blackholes.update(pool[: config.compromised_count])
        tampers.update(
            pool[config.compromised_count : config.compromised_count + config.tamper_count]
        )
    tampers -= blackholes  # a node cannot both drop and alter
    return AttackPlan(
        blackholes=frozenset(blackholes),
        grayholes=dict(config.grayhole),
        tampers=frozenset(tampers),
        activation_time=config.activation_time,
    )


def tamper_bytes(data: bytes, rng: random.Random) -> bytes:
    """Flip exactly one random bit; requires at least one byte."""
    if not data:
        raise AttackError("cannot tamper an empty payload")
    bit = rng.randrange(len(data) * 8)
    out = bytearray(data)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)
