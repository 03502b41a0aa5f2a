"""Adversary resolution: nested sampling, validation, and byte tampering."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridmon.attacks import (
    AttackConfig,
    AttackError,
    AttackPlan,
    apply_attack,
    tamper_bytes,
)

WIRELESS = list(range(100, 140))
RELAYS = list(range(100, 130))  # relays are a subset of the wireless population


def resolve(config, seed="s"):
    return apply_attack(config, WIRELESS, RELAYS, random.Random(seed))


# ===== resolution =====


def test_null_config_resolves_to_empty_plan():
    plan = resolve(AttackConfig())
    assert plan.blackholes == frozenset() and plan.tampers == frozenset()
    assert plan.grayholes == {}
    assert plan.behavior(100, now=99.0) is None


def test_explicit_nodes_pass_through():
    cfg = AttackConfig(
        blackhole_nodes=frozenset({101}),
        grayhole=((102, 0.5),),
        tamper_nodes=frozenset({135}),  # EHRNs can be named explicitly
        activation_time=2.0,
    )
    plan = resolve(cfg)
    assert plan.blackholes == frozenset({101})
    assert plan.grayholes == {102: 0.5}
    assert plan.tampers == frozenset({135})
    assert plan.activation_time == 2.0


def test_counts_draw_from_relays_only():
    cfg = AttackConfig(compromised_count=5, tamper_count=4)
    plan = resolve(cfg)
    assert len(plan.blackholes) == 5 and len(plan.tampers) == 4
    assert plan.blackholes <= set(RELAYS) and plan.tampers <= set(RELAYS)
    assert not plan.blackholes & plan.tampers


def test_count_sampling_is_nested_across_values():
    # Growing the count only ever adds attackers; the smaller set is a prefix.
    seen = []
    for k in (1, 3, 7, 12):
        plan = apply_attack(
            AttackConfig(compromised_count=k), WIRELESS, RELAYS, random.Random("fixed")
        )
        seen.append(plan.blackholes)
    for smaller, larger in zip(seen, seen[1:]):
        assert smaller < larger


def test_tamper_set_rides_behind_the_blackhole_prefix():
    base = apply_attack(
        AttackConfig(compromised_count=4, tamper_count=3), WIRELESS, RELAYS,
        random.Random("fixed"),
    )
    widened = apply_attack(
        AttackConfig(compromised_count=4, tamper_count=6), WIRELESS, RELAYS,
        random.Random("fixed"),
    )
    assert base.blackholes == widened.blackholes
    assert base.tampers < widened.tampers


def test_same_seed_same_plan_different_seed_differs():
    cfg = AttackConfig(compromised_count=8)
    assert resolve(cfg, "a") == resolve(cfg, "a")
    assert resolve(cfg, "a") != resolve(cfg, "b")


def test_explicit_blackhole_wins_over_sampled_tamper():
    # A node both named blackhole and drawn as tamperer only drops.
    cfg = AttackConfig(tamper_count=len(RELAYS), blackhole_nodes=frozenset({RELAYS[0]}))
    plan = resolve(cfg)
    assert RELAYS[0] in plan.blackholes
    assert RELAYS[0] not in plan.tampers
    assert plan.tampers == frozenset(RELAYS[1:])


# ===== validation =====


def test_rejects_non_wireless_targets():
    for cfg in (
        AttackConfig(blackhole_nodes=frozenset({1})),
        AttackConfig(grayhole=((2, 0.5),)),
        AttackConfig(tamper_nodes=frozenset({999})),
    ):
        with pytest.raises(AttackError, match="non-wireless"):
            resolve(cfg)


def test_rejects_bad_probability_and_counts():
    with pytest.raises(AttackError, match="not in"):
        resolve(AttackConfig(grayhole=((101, 1.5),)))
    with pytest.raises(AttackError, match="non-negative"):
        resolve(AttackConfig(compromised_count=-1))
    with pytest.raises(AttackError, match="of 30 relays"):
        resolve(AttackConfig(compromised_count=20, tamper_count=11))


# ===== behavior gating =====


def test_behavior_precedence_and_activation():
    plan = AttackPlan(
        blackholes=frozenset({1}),
        grayholes={1: 0.5, 2: 0.25},
        tampers=frozenset({2, 3}),
        activation_time=10.0,
    )
    assert plan.behavior(1, now=9.999) is None  # dormant before activation
    assert not plan.active(9.999) and plan.active(10.0)
    assert plan.behavior(1, now=10.0) == "blackhole"  # blackhole beats grayhole
    assert plan.behavior(2, now=10.0) == "grayhole"   # grayhole beats tamper
    assert plan.behavior(3, now=10.0) == "tamper"
    assert plan.behavior(4, now=10.0) is None


# ===== tampering =====


def test_tamper_flips_exactly_one_bit():
    rng = random.Random(5)
    data = bytes(range(32))
    for _ in range(50):
        out = tamper_bytes(data, rng)
        assert len(out) == len(data)
        diff = [a ^ b for a, b in zip(data, out)]
        changed = [d for d in diff if d]
        assert len(changed) == 1
        assert bin(changed[0]).count("1") == 1


def test_tamper_rejects_empty_payload():
    with pytest.raises(AttackError):
        tamper_bytes(b"", random.Random(1))


@given(st.binary(min_size=1, max_size=64), st.integers(0, 2**32))
def test_tamper_always_changes_the_payload(data, seed):
    out = tamper_bytes(data, random.Random(seed))
    assert out != data
    assert len(out) == len(data)


def test_tamper_eventually_touches_every_bit_position():
    rng = random.Random(0)
    data = b"\x00\x00"
    hit = set()
    for _ in range(600):
        out = tamper_bytes(data, rng)
        value = int.from_bytes(out, "big")
        hit.add(value.bit_length() - 1)
    assert hit == set(range(16))
