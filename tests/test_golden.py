"""Golden runs: exact output pinned across commits.

Criterion 8 compares two runs of the same code; these two short 14-bus
runs compare the code against recorded output.  Each pins the full metrics
row and the SHA-256 of the written event trace.  A change that moves either
one changes behaviour: re-record it only for an intended change, and say so
in CHANGES.md.

(a) starves the batteries, so relays die mid-run, packets are lost to dead
    senders and receivers, and a phasor route crosses a harvester;
(b) activates blackhole and tamper relays, so the sink rejects, the gateway
    reroutes and retransmits.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import pytest

from gridmon.metrics import TraceLog
from gridmon.protocol import PacketKind
from gridmon.runner import run_simulation
from gridmon.scenario import load_scenario

GOLDEN = {
    "starved": (
        dict(range_m=12000.0, relay_battery_j=0.02, ehrn_capacity_j=0.01, ehrn_recharge_w=0.002),
        dict(),
        1,
        "137034bcaae91b845f743892319aadd8da4c281802d36c573ed02975fa73f07b",
        {
            "seed": 1, "duration_s": 10.0,
            "scada_generated": 77, "scada_delivered": 41, "scada_in_flight": 0,
            "scada_dropped_blackhole": 0, "scada_dropped_grayhole": 0,
            "scada_dropped_dead_battery": 34, "scada_dropped_no_route": 2,
            "scada_dropped_rejected": 0,
            "delivery_ratio": 0.5324675324675324,
            "delay_mean_s": 0.5768442177892821, "delay_p95_s": 0.9555163517832277,
            "pmu_generated": 1505, "pmu_delivered": 1207, "pmu_in_flight": 0,
            "pmu_delivery_ratio": 0.8019933554817276, "pmu_delay_mean_s": 0.5216387738193976,
            "packet_drops_total": 476, "packet_drops_blackhole": 0,
            "packet_drops_grayhole": 0, "packet_drops_dead_battery": 474,
            "packet_drops_no_route": 2,
            "tamper_rejections": 0, "reroutes": 0, "retransmissions": 0,
            "energy_consumed_j": 8.813612852996709,
            "dead_relays": 30, "dead_ehrns": 0, "events_processed": 7955,
        },
    ),
    "attacked": (
        dict(),
        dict(compromised_count=10, tamper_count=20, activation_time=1.0),
        3,
        "85d18df63ed965b17a8f4eff18bbc130189979f00a7738b17bb5a576e5ca1a44",
        {
            "seed": 3, "duration_s": 10.0,
            "scada_generated": 75, "scada_delivered": 70, "scada_in_flight": 0,
            "scada_dropped_blackhole": 5, "scada_dropped_grayhole": 0,
            "scada_dropped_dead_battery": 0, "scada_dropped_no_route": 0,
            "scada_dropped_rejected": 0,
            "delivery_ratio": 0.9333333333333333,
            "delay_mean_s": 0.4796833618348784, "delay_p95_s": 1.0009087973877264,
            "pmu_generated": 1505, "pmu_delivered": 1505, "pmu_in_flight": 0,
            "pmu_delivery_ratio": 1.0, "pmu_delay_mean_s": 0.5206724252491806,
            "packet_drops_total": 5, "packet_drops_blackhole": 5,
            "packet_drops_grayhole": 0, "packet_drops_dead_battery": 0,
            "packet_drops_no_route": 0,
            "tamper_rejections": 2, "reroutes": 2, "retransmissions": 2,
            "energy_consumed_j": 51.93793995863536,
            "dead_relays": 0, "dead_ehrns": 0, "events_processed": 14799,
        },
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_run(name, scenarios_dir, tmp_path, route_of):
    overrides, attack, seed, want_sha, want_row = GOLDEN[name]
    cfg = load_scenario(str(scenarios_dir / "ieee14.ini"))
    cfg = replace(cfg, attack=replace(cfg.attack, **attack), **overrides)
    trace = TraceLog()
    sim = run_simulation(cfg, seed, trace)
    path = tmp_path / "trace.log"
    trace.write(str(path))
    assert sim.metrics.as_row() == want_row
    assert hashlib.sha256(path.read_bytes()).hexdigest() == want_sha
    # Each loss the row counts is one line of the trace.
    lines = trace.lines
    for ev, column in (("drop", "packet_drops_total"), ("reject", "tamper_rejections"),
                       ("reroute", "reroutes")):
        assert sum(f" ev={ev} " in line for line in lines) == want_row[column], ev
    if name == "starved":
        assert any(
            len(route_of(flow.hops) or ()) > 2 for (_, kind), flow in sim.flows.items()
            if kind is PacketKind.PMU
        )
