"""Acceptance gate: eight go/no-go checks over the shipped fixtures.

Each test prints exactly one ``CRITERION n PASS/FAIL`` line and then asserts,
so a plain ``pytest -v`` run doubles as the release checklist.  Tolerances:

1. Topology facts on both bus fixtures — exact integer matches, < 1 s each.
2. Cipher/MAC/curve known answers — zero mismatches, bit-exact.
3. Trust and election arithmetic — exact rationals; zero grid violations.
4. Tamper detection — 10,000 corrupted sealed packets all rejected and
   10,000 clean ones all accepted, in under 30 s.
5. Clean 118-bus run, 60 simulated seconds — SCADA delivery ratio exactly
   1.0 with ledger closure, in under 120 s of wall time.
6. Attack sweeps (10 seeds each) — mean undelivered readings exactly 0 with
   no attackers and non-decreasing in the compromised count; mean delay
   non-decreasing in the tamper count; each sweep under 600 s.
7. Scripted reroute — at least one reroute logged, delivery recovers to
   exactly 1.0, the tamperer's trust ends strictly below 100.
8. Determinism — byte-identical traces and equal metrics across two runs.
"""

from __future__ import annotations

import itertools
import random
import time

from gridmon.attacks import AttackConfig
from gridmon.crypto import CURVES, hmac_tag, point_add, rc5_encrypt_block, rc5_key_schedule
from gridmon.protocol import (
    PacketKind,
    TamperRejected,
    candidate_value,
    elect_cluster_head,
    open_sealed,
    seal,
    trust_value,
)
from gridmon.runner import run_scenario, run_simulation, sweep
from gridmon.scenario import ScenarioConfig, load_scenario


def verdict(n: int, ok: bool, detail: str) -> None:
    line = f"CRITERION {n} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------- criterion 1


def test_criterion_1_topology_facts(cases_dir):
    from gridmon.topology import load_power_case, partition_regions, select_control_centers

    t0 = time.perf_counter()
    small = load_power_case(str(cases_dir / "ieee14.case"))
    small_ok = (
        len(small.substations) == 11
        and select_control_centers(small) == (1, 2)
        and len(partition_regions(small, 35.0)) == 3
    )
    t_small = time.perf_counter() - t0

    t0 = time.perf_counter()
    large = load_power_case(str(cases_dir / "ieee118.case"))
    main, backup = select_control_centers(large)
    large_ok = (
        len(large.substations) == 107
        and (main, backup) == (61, 16)
        and set(large.substations[61].buses) == {68, 69, 116}
        and set(large.substations[16].buses) == {17, 30}
        and len(partition_regions(large, 45.0)) == 8
    )
    t_large = time.perf_counter() - t0

    ok = small_ok and large_ok and t_small < 1.0 and t_large < 1.0
    verdict(
        1, ok,
        f"14-bus 11 subs/CC(1,2)/3 regions in {t_small:.3f}s; "
        f"118-bus 107 subs/CC(61,16)/8 regions in {t_large:.3f}s",
    )


# ---------------------------------------------------------------- criterion 2


RC5_VECTORS = [
    ("00000000000000000000000000000000", "0000000000000000", "21a5dbee154b8f6d"),
    ("915f4619be41b2516355a50110a9ce91", "21a5dbee154b8f6d", "f7c013ac5b2b8952"),
    ("783348e75aeb0f2fd7b169bb8dc16787", "f7c013ac5b2b8952", "2f42b3b70369fc92"),
    ("dc49db1375a5584f6485b413b5f12baf", "2f42b3b70369fc92", "65c178b284d197cc"),
    ("5269f149d41ba0152497574d7f153125", "65c178b284d197cc", "eb44e415da319824"),
]

HMAC_VECTORS = [
    (
        b"\x0b" * 20, b"Hi There",
        "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
    ),
    (
        b"Jefe", b"what do ya want for nothing?",
        "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
    ),
    (
        b"\xaa" * 131,
        b"This is a test using a larger than block-size key and a larger than "
        b"block-size data. The key needs to be hashed before being used by the "
        b"HMAC algorithm.",
        "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
    ),
]


def toy_group_elements(curve):
    points = [None]
    for x in range(curve.p):
        for y in range(curve.p):
            if (y * y - (x**3 + curve.a * x + curve.b)) % curve.p == 0:
                points.append((x, y))
    return points


def textbook_add(curve, p1, p2):
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    (x1, y1), (x2, y2) = p1, p2
    if x1 == x2 and (y1 + y2) % curve.p == 0:
        return None
    if p1 == p2:
        slope = (3 * x1 * x1 + curve.a) * pow(2 * y1, -1, curve.p) % curve.p
    else:
        slope = (y2 - y1) * pow(x2 - x1, -1, curve.p) % curve.p
    x3 = (slope * slope - x1 - x2) % curve.p
    return (x3, (slope * (x1 - x3) - y1) % curve.p)


def test_criterion_2_crypto_known_answers():
    mismatches = 0
    for key_hex, pt_hex, ct_hex in RC5_VECTORS:
        schedule = rc5_key_schedule(bytes.fromhex(key_hex))
        if rc5_encrypt_block(schedule, bytes.fromhex(pt_hex)).hex() != ct_hex:
            mismatches += 1
    for key, msg, digest in HMAC_VECTORS:
        if hmac_tag(key, msg).hex() != digest:
            mismatches += 1
    curve = CURVES["toy17"]
    elements = toy_group_elements(curve)
    group_ok = len(elements) == 19
    for p1, p2 in itertools.product(elements, repeat=2):
        if point_add(curve, p1, p2) != textbook_add(curve, p1, p2):
            mismatches += 1
    ok = mismatches == 0 and group_ok
    verdict(
        2, ok,
        f"5 cipher vectors, 3 MAC vectors, {len(elements)}^2 group sums; "
        f"{mismatches} mismatches",
    )


# ---------------------------------------------------------------- criterion 3


def test_criterion_3_trust_and_election_arithmetic():
    violations = 0
    if trust_value(10, 10) != 100.0:
        violations += 1
    if trust_value(95, 100) != 95.0:
        violations += 1
    violations += sum(1 for k in range(1, 11) if trust_value(0, k) != 0.0)

    grid = [10.0 * k for k in range(1, 11)]
    conn = list(range(1, 11))
    for b, t, c in itertools.product(grid, grid, conn):
        base = candidate_value(b, t, c)
        if candidate_value(b + 1.0, t, c) <= base:
            violations += 1
        if candidate_value(b, t + 1.0, c) <= base:
            violations += 1
        if candidate_value(b, t, c + 1) <= base:
            violations += 1

    rng = random.Random("acceptance-3")
    for _ in range(100):
        factors = {
            nid: (rng.uniform(1, 100), rng.uniform(1, 100), rng.randint(1, 8))
            for nid in rng.sample(range(1, 50), rng.randint(2, 8))
        }
        scale = rng.uniform(0.1, 10.0)
        plain = {n: candidate_value(b, t, c) for n, (b, t, c) in factors.items()}
        scaled = {n: candidate_value(b * scale, t, c) for n, (b, t, c) in factors.items()}
        if elect_cluster_head(plain) != elect_cluster_head(scaled):
            violations += 1

    verdict(3, violations == 0,
            f"exact trust points, 1000-cell grid, 100 scaled elections; "
            f"{violations} violations")


# ---------------------------------------------------------------- criterion 4


def test_criterion_4_tamper_detection_completeness():
    rng = random.Random("acceptance-4")
    pairwise = rng.randbytes(16)
    group = rng.randbytes(16)
    t0 = time.perf_counter()

    false_accepts = 0
    for i in range(10_000):
        plaintext = rng.randbytes(23)
        ciphertext, tag = seal(pairwise, group, i, plaintext)
        if rng.random() < 0.5:
            bad = bytearray(ciphertext)
            bit = rng.randrange(len(bad) * 8)
            bad[bit // 8] ^= 1 << (bit % 8)
            ciphertext = bytes(bad)
        else:
            bad = bytearray(tag)
            bit = rng.randrange(len(bad) * 8)
            bad[bit // 8] ^= 1 << (bit % 8)
            tag = bytes(bad)
        try:
            open_sealed(pairwise, group, i, ciphertext, tag)
            false_accepts += 1
        except TamperRejected:
            pass

    false_rejects = 0
    for i in range(10_000):
        plaintext = rng.randbytes(23)
        ciphertext, tag = seal(pairwise, group, i, plaintext)
        try:
            if open_sealed(pairwise, group, i, ciphertext, tag) != plaintext:
                false_rejects += 1
        except TamperRejected:
            false_rejects += 1

    elapsed = time.perf_counter() - t0
    ok = false_accepts == 0 and false_rejects == 0 and elapsed < 30.0
    verdict(
        4, ok,
        f"10000 corrupted → {false_accepts} accepted, 10000 clean → "
        f"{false_rejects} rejected, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------- criterion 7
# (fast criteria first; the long simulations close the file)


def test_criterion_7_reroute_liveness(data_dir, tmp_path, route_of):
    import dataclasses

    from gridmon.metrics import TraceLog

    cfg = ScenarioConfig(
        case_path=str(data_dir / "line3.case"),
        d_km=50.0,
        relays=2,   # one will head the cluster, the other is the alternative
        ehrns=1,
        curve="toy17",
        k_test=2,
        aggregation_window_s=0.5,
        pmu_rate_hz=1.0,
        scada_interval_s=1.0,
        setup_s=1.0,
        settle_s=2.0,
        duration_s=5.0,
        seed=2,
        name="reroute-script",
    )
    # Dry run with no adversary to learn which relay heads the cluster.
    clean = run_simulation(cfg)
    clean_heads = {
        route_of(flow.hops)[1] for (_, kind), flow in clean.flows.items()
        if kind is PacketKind.SCADA and flow.hops is not None
    }
    assert len(clean_heads) == 1, f"expected one shared head, saw {clean_heads}"
    villain = clean_heads.pop()
    honest = ({10, 11} - {villain}).pop()

    # Same seed, same deploy, same election — but now the head tampers.
    attacked = dataclasses.replace(
        cfg,
        attack=AttackConfig(tamper_nodes=frozenset({villain}), activation_time=1.0),
    )
    trace = TraceLog()
    sim = run_simulation(attacked, trace=trace)
    record = sim.metrics

    reroute_lines = [l for l in trace.lines if " ev=reroute " in l]
    reject_lines = [l for l in trace.lines if " ev=reject " in l]
    sent, delivered = sim.nodes[villain].sent, sim.nodes[villain].delivered
    final_trust = trust_value(delivered, sent)
    heads = {
        route_of(flow.hops)[1] for (_, kind), flow in sim.flows.items()
        if kind is PacketKind.SCADA and flow.hops is not None
    }
    excluded = set().union(
        *(flow.excluded for (_, kind), flow in sim.flows.items() if kind is PacketKind.SCADA)
    )

    ok = (
        record.reroutes >= 1
        and len(reroute_lines) >= 1
        and len(reject_lines) >= 1
        and record.tamper_rejections == record.reroutes
        and record.delivery_ratio == 1.0
        and record.pmu_delivery_ratio == 1.0
        and sent > delivered            # strict decrease from the initial 100
        and final_trust < 100.0
        and villain in excluded         # the tamperer is off every data path
        and heads == {honest}           # the honest alternative now heads
    )
    verdict(
        7, ok,
        f"{record.reroutes} reroutes, delivery {record.delivery_ratio:.4f}, "
        f"tamperer {villain} trust {final_trust:.1f} ({delivered}/{sent}), "
        f"head now {sorted(heads)}",
    )


# ---------------------------------------------------------------- criterion 5


def test_criterion_5_clean_run_losslessness(scenarios_dir):
    cfg = load_scenario(str(scenarios_dir / "ieee118.ini"))
    t0 = time.perf_counter()
    record = run_scenario(cfg)  # audits ledger closure before returning
    elapsed = time.perf_counter() - t0
    ok = (
        record.delivery_ratio == 1.0
        and record.pmu_delivery_ratio == 1.0
        and record.scada_in_flight == 0
        and record.packet_drops_total == 0
        and record.scada_generated > 0
        and record.pmu_generated > 0
        and elapsed < 120.0
    )
    verdict(
        5, ok,
        f"{record.scada_delivered}/{record.scada_generated} supervisory and "
        f"{record.pmu_delivered}/{record.pmu_generated} phasor readings "
        f"delivered, 0 drops, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------- criterion 6


SWEEP_SEEDS = list(range(1, 11))


def undelivered(row) -> float:
    return (row["scada_generated"] - row["scada_delivered"]) + (
        row["pmu_generated"] - row["pmu_delivered"]
    )


def test_criterion_6_attack_sweep_trends(scenarios_dir):
    cfg = load_scenario(str(scenarios_dir / "ieee118_sweep.ini"))

    t0 = time.perf_counter()
    rows = sweep(cfg, axis="compromised", values=[0, 5, 10, 20], seeds=SWEEP_SEEDS)
    t_drop = time.perf_counter() - t0
    drop_means = [undelivered(r) for r in rows if r["seed"] == "mean"]
    drops_ok = (
        drop_means[0] == 0.0
        and all(a <= b for a, b in zip(drop_means, drop_means[1:]))
        and t_drop < 600.0
    )

    t0 = time.perf_counter()
    rows = sweep(cfg, axis="malicious", values=[0, 5, 10], seeds=SWEEP_SEEDS)
    t_delay = time.perf_counter() - t0
    delay_means = [r["delay_mean_s"] for r in rows if r["seed"] == "mean"]
    reject_means = [r["tamper_rejections"] for r in rows if r["seed"] == "mean"]
    delay_ok = (
        all(a <= b for a, b in zip(delay_means, delay_means[1:]))
        and reject_means[-1] > 0.0  # the tamperers were really on-path
        and t_delay < 600.0
    )

    verdict(
        6, drops_ok and delay_ok,
        "mean undelivered " + "/".join(f"{v:.1f}" for v in drop_means)
        + f" over counts 0/5/10/20 ({t_drop:.0f}s); mean delay "
        + "/".join(f"{v * 1000:.4f}" for v in delay_means)
        + f" ms over tamperers 0/5/10 ({t_delay:.0f}s)",
    )


# ---------------------------------------------------------------- criterion 8


def test_criterion_8_byte_level_determinism(scenarios_dir, tmp_path):
    cfg = load_scenario(str(scenarios_dir / "ieee118_attack.ini"))
    first, second = tmp_path / "first.log", tmp_path / "second.log"
    rec1 = run_scenario(cfg, trace_path=str(first))
    rec2 = run_scenario(cfg, trace_path=str(second))
    traces_equal = first.read_bytes() == second.read_bytes()
    ok = (
        traces_equal
        and rec1 == rec2
        and rec1.tamper_rejections > 0  # the scenario really exercises attacks
        and first.stat().st_size > 0
    )
    verdict(
        8, ok,
        f"traces {'identical' if traces_equal else 'DIFFER'} "
        f"({first.stat().st_size} bytes), records {'equal' if rec1 == rec2 else 'DIFFER'}, "
        f"{rec1.tamper_rejections} rejections",
    )
