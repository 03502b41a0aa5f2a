"""Scenario files, the run/sweep drivers, and the command-line surface."""

from __future__ import annotations

import collections
import dataclasses
import gc
import hashlib
import math
import os
import random
import re
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridmon.attacks import AttackConfig
import gridmon.cli
import gridmon.simulation
from gridmon import crypto, protocol
from gridmon.cli import main
from gridmon.crypto import pk_encrypt
from gridmon.metrics import AuditError, TraceLog, read_csv
from gridmon.protocol import Packet, PacketKind, build_aggregate
from gridmon.runner import (
    SWEEP_AXES, build_run_topology, run_scenario, run_simulation, sweep, sweep_fieldnames,
)
from gridmon.scenario import _SECTION_KEYS, ScenarioConfig, ScenarioError, load_scenario
from gridmon.simulation import Simulation
from gridmon.topology import Role, distance, export_topology
from test_golden import GOLDEN

ROOT = Path(__file__).resolve().parent.parent

TRACE_LINE = re.compile(
    r"^t=\d+\.\d{6} ev=\w+ pkt=\d+ src=\d+ dst=\d+ kind=\w+$"
)


@pytest.fixture()
def mini_ini(tmp_path, data_dir):
    """A small, fast scenario over the three-substation line case."""
    path = tmp_path / "mini.ini"
    path.write_text(
        f"""
[case]
path = {data_dir / 'line3.case'}
d_km = 50

[deploy]
relays = 8
ehrns = 3

[crypto]
curve = toy17

[protocol]
k_test = 2
aggregation_window_s = 0.25
pmu_rate_hz = 4
scada_interval_s = 0.5

[run]
duration_s = 2
seed = 3
name = mini
"""
    )
    return path


# ===== scenario loading =====


def test_load_demo_scenario(scenarios_dir):
    cfg = load_scenario(str(scenarios_dir / "ieee14.ini"))
    assert cfg.relays == 150 and cfg.ehrns == 60
    assert cfg.curve == "toy17"
    assert cfg.k_test == 5
    assert cfg.duration_s == 10.0 and cfg.seed == 1
    assert cfg.name == "ieee14-demo"
    assert cfg.case_path.endswith("ieee14.case")


def test_case_path_resolves_relative_to_the_ini(tmp_path):
    sub = tmp_path / "nested"
    sub.mkdir()
    (sub / "fake.case").write_text("bus 1\nbus 2\nbranch 1 2\n"
                                   "substation 1 0 0 : 1\nsubstation 2 1 0 : 2\n")
    ini = sub / "s.ini"
    ini.write_text("[case]\npath = fake.case\n")
    cfg = load_scenario(str(ini))
    assert cfg.case_path == str(sub / "fake.case")


def test_defaults_fill_unspecified_sections(tmp_path):
    ini = tmp_path / "bare.ini"
    ini.write_text("[case]\npath = x.case\n")
    cfg = load_scenario(str(ini))
    defaults = ScenarioConfig()
    assert cfg.relays == defaults.relays
    assert cfg.aggregation_window_s == defaults.aggregation_window_s
    assert cfg.attack == AttackConfig()


def test_grayhole_string_parses_to_pairs(tmp_path):
    ini = tmp_path / "g.ini"
    ini.write_text("[case]\npath = x.case\n[attack]\ngrayhole = 200:0.5 300:0.25\n")
    cfg = load_scenario(str(ini))
    assert cfg.attack.grayhole == ((200, 0.5), (300, 0.25))



@pytest.mark.parametrize("key", ["blackhole_nodes", "tamper_nodes"])
def test_attack_node_lists_parse_to_frozensets(tmp_path, key):
    ini = tmp_path / "n.ini"
    ini.write_text(f"[case]\npath = x.case\n[attack]\n{key} = 7 3 7\n")
    assert getattr(load_scenario(str(ini)).attack, key) == frozenset({3, 7})
    ini.write_text(f"[case]\npath = x.case\n[attack]\n{key} = 3 x\n")
    with pytest.raises(ScenarioError, match=rf"\[attack\] {key} must be node ids"):
        load_scenario(str(ini))


@pytest.mark.parametrize("key, value, expected", [
    ("grayhole", "200=0.5", "id:prob pairs"),
    ("grayhole", "200:x", "id:prob pairs"),
    ("grayhole", "200:0.5:1", "id:prob pairs"),
    ("compromised_count", "many", "int"),
    ("activation_time", "soon", "float"),
])
def test_malformed_attack_values_name_the_key_and_what_was_expected(tmp_path, key, value, expected):
    ini = tmp_path / "a.ini"
    ini.write_text(f"[case]\npath = x.case\n[attack]\n{key} = {value}\n")
    with pytest.raises(ScenarioError, match=rf"^\[attack\] {key} must be {expected}, got '{re.escape(value)}'$"):
        load_scenario(str(ini))


def test_scenario_error_cases(tmp_path):
    missing = tmp_path / "absent.ini"
    with pytest.raises(ScenarioError):
        load_scenario(str(missing))

    bad_section = tmp_path / "s1.ini"
    bad_section.write_text("[case]\npath = x.case\n[quantum]\nfoo = 1\n")
    with pytest.raises(ScenarioError, match="quantum"):
        load_scenario(str(bad_section))

    bad_key = tmp_path / "s2.ini"
    bad_key.write_text("[case]\npath = x.case\n[deploy]\nrelay = 10\n")
    with pytest.raises(ScenarioError, match="relay"):
        load_scenario(str(bad_key))

    bad_value = tmp_path / "s3.ini"
    bad_value.write_text("[case]\npath = x.case\n[deploy]\nrelays = many\n")
    with pytest.raises(ScenarioError):
        load_scenario(str(bad_value))

    bad_gray = tmp_path / "s4.ini"
    bad_gray.write_text("[case]\npath = x.case\n[attack]\ngrayhole = 200=0.5\n")
    with pytest.raises(ScenarioError):
        load_scenario(str(bad_gray))

    for n, (section, key, value) in enumerate([
        ("crypto", "group_key_hex", "00" * 16),
        ("crypto", "p", "17"),
        ("protocol", "retransmit_on_reroute", "false"),
        ("protocol", "max_retransmits", "2"),
    ]):
        removed = tmp_path / f"r{n}.ini"
        removed.write_text(f"[case]\npath = x.case\n[{section}]\n{key} = {value}\n")
        with pytest.raises(ScenarioError, match=key):
            load_scenario(str(removed))


# What each value does to an ieee14 run when validate() lets it through:
@pytest.mark.parametrize("key, value", [
    ("d_km", math.nan),                  # the run did not finish
    ("setup_s", math.nan),               # ran, generating no readings
    ("duration_s", math.nan),            # ValueError inside the run
    ("aggregation_window_s", math.nan),  # ValueError inside the run
    ("duration_s", math.inf),            # OverflowError inside the run
    ("activation_time", math.nan),       # every attack silently off
])
def test_validate_names_a_non_finite_value(scenarios_dir, key, value):
    cfg = load_scenario(str(scenarios_dir / "ieee14.ini"))
    if key == "activation_time":
        cfg = dataclasses.replace(cfg, attack=dataclasses.replace(cfg.attack, activation_time=value))
    else:
        cfg = dataclasses.replace(cfg, **{key: value})
    with pytest.raises(ScenarioError, match=f"{key} must be finite"):
        cfg.validate()


def _with_key(cfg, key, value):
    if key == "activation_time":
        return dataclasses.replace(cfg, attack=dataclasses.replace(cfg.attack, activation_time=value))
    return dataclasses.replace(cfg, **{key: value})


# Every lower bound validate() holds a scenario key to: (section, key, op, bound).
_BOUNDS = [
    ("case", "d_km", ">", 0.0),
    ("deploy", "relays", ">=", 0),
    ("deploy", "ehrns", ">=", 0),
    ("radio", "range_m", ">", 0.0),
    ("radio", "bitrate_bps", ">", 0.0),
    ("radio", "mac_overhead_s", ">=", 0.0),
    ("energy", "e_elec_j_per_bit", ">=", 0.0),
    ("energy", "e_amp_j_per_bit_m2", ">=", 0.0),
    ("energy", "relay_battery_j", ">", 0.0),
    ("energy", "ehrn_capacity_j", ">", 0.0),
    ("energy", "ehrn_recharge_w", ">=", 0.0),
    ("protocol", "k_test", ">=", 1),
    ("protocol", "aggregation_window_s", ">=", 0.01),
    ("protocol", "pmu_rate_hz", ">", 0.0),
    ("protocol", "scada_interval_s", ">", 0.0),
    ("protocol", "setup_s", ">", 0.0),
    ("protocol", "settle_s", ">=", 0.0),
    ("protocol", "intra_substation_latency_s", ">=", 0.0),
    ("protocol", "wired_latency_s", ">=", 0.0),
    ("attack", "activation_time", ">=", 0.0),
    ("run", "duration_s", ">", 0.0),
]


@pytest.mark.parametrize("section, key, op, bound", _BOUNDS, ids=[f"{s}-{k}" for s, k, _, _ in _BOUNDS])
def test_validate_holds_each_key_to_its_bound_and_names_it(scenarios_dir, section, key, op, bound):
    cfg = load_scenario(str(scenarios_dir / "ieee14.ini"))
    if isinstance(bound, int):
        below, above = bound - 1, bound + 1
    else:
        below, above = math.nextafter(bound, -math.inf), math.nextafter(bound, math.inf)
    past, inside = (bound, above) if op == ">" else (below, bound)
    with pytest.raises(ScenarioError, match=rf"^\[{section}\] {key} must be "):
        _with_key(cfg, key, past).validate()
    _with_key(cfg, key, inside).validate()


def test_the_bound_table_lists_every_declared_bound():
    declared = [
        (f.name, f.metadata["bound"])
        for f in dataclasses.fields(ScenarioConfig) + dataclasses.fields(AttackConfig)
        if f.metadata.get("bound")
    ]
    assert sorted(declared) == sorted((key, (op, bound)) for _, key, op, bound in _BOUNDS)


@pytest.mark.parametrize("window", [1e-9, 0.005])
def test_validate_refuses_a_window_under_10_ms(scenarios_dir, window):
    # At 1e-9 s an ieee14 run would plan ~7e10 flushes; it is never run here.
    cfg = dataclasses.replace(load_scenario(str(scenarios_dir / "ieee14.ini")), aggregation_window_s=window)
    with pytest.raises(ScenarioError, match=rf"^\[protocol\] aggregation_window_s must be >= 0\.01, got {window}$"):
        cfg.validate()
    dataclasses.replace(cfg, aggregation_window_s=0.01).validate()


def test_every_config_field_has_exactly_one_scenario_key():
    keys = [(section, key) for section, names in _SECTION_KEYS.items() for key in names]
    assert len(keys) == len(set(keys))
    plain = sorted(
        "case_path" if (section, key) == ("case", "path") else key
        for section, key in keys
        if section != "attack"
    )
    assert plain == sorted(f.name for f in dataclasses.fields(ScenarioConfig) if f.name != "attack")
    assert {f.name for f in dataclasses.fields(AttackConfig)} == _SECTION_KEYS["attack"]


# ===== run/sweep drivers =====


def test_run_scenario_is_deterministic(mini_ini):
    cfg = load_scenario(str(mini_ini))
    first = run_scenario(cfg)
    second = run_scenario(cfg)
    assert first == second
    other = run_scenario(cfg, seed=99)
    assert other.seed == 99
    assert other != first


def test_run_scenario_books_balance(mini_ini):
    cfg = load_scenario(str(mini_ini))
    record = run_scenario(cfg)
    assert record.scada_generated > 0 and record.pmu_generated > 0
    resolved = (
        record.scada_delivered
        + record.scada_in_flight
        + record.scada_dropped_blackhole
        + record.scada_dropped_grayhole
        + record.scada_dropped_dead_battery
        + record.scada_dropped_no_route
        + record.scada_dropped_rejected
    )
    assert resolved == record.scada_generated
    assert 0.0 <= record.delivery_ratio <= 1.0
    assert record.energy_consumed_j > 0.0


@pytest.mark.parametrize("wired_latency_s, delivered, in_flight", [
    (0.05, (77, 1505), 0),
    (30.0, (0, 0), 77),
])
def test_sinks_hold_readings_until_the_control_center_key_arrives(
    scenarios_dir, wired_latency_s, delivered, in_flight
):
    # The first windows close before key distribution reaches the sinks; they
    # must keep their readings for a later window, not crash.  With a 30 s ring
    # the key never arrives within the run and the readings stay in flight.
    cfg = dataclasses.replace(
        load_scenario(str(scenarios_dir / "ieee14.ini")),
        setup_s=0.01, aggregation_window_s=0.01, wired_latency_s=wired_latency_s,
    )
    record = run_simulation(cfg).metrics
    assert (record.scada_generated, record.pmu_generated) == (77, 1505)
    assert (record.scada_delivered, record.pmu_delivered) == delivered
    assert record.scada_in_flight == in_flight
    assert record.pmu_in_flight == 1505 - record.pmu_delivered  # 1505 with the 30 s ring


def test_backup_server_without_the_private_key_raises_scenario_error(mini_ini):
    # No run reaches this today; the check must hold under python -O too.
    cfg = load_scenario(str(mini_ini))
    sim = Simulation(build_run_topology(cfg, cfg.seed), cfg, cfg.seed)
    sim.keyed.clear()
    backup_srv = sim.topo.cc_servers[1]
    blob = build_aggregate(0, 0.0, 0.25, [])
    sealed = pk_encrypt(sim.curve, sim.cc_keypair.public, blob, random.Random(1))
    pkt = Packet(seq=1, src=sim.topo.cc_gateways[1], dst=backup_srv,
                 kind=PacketKind.AGGREGATE, ciphertext=sealed)
    with pytest.raises(ScenarioError, match="backup server"):
        sim._server_receive(backup_srv, pkt)
    sim.keyed.add(backup_srv)
    sim._server_receive(backup_srv, pkt)  # keyed, the same aggregate opens


@pytest.mark.parametrize("grayhole, message", [
    (((22, 1.5),), "grayhole probability 1.5 for node 22"),  # relay 22
    (((5, 1.5),), "non-wireless node 5"),                     # a bus node
])
def test_attack_the_deployment_cannot_take_is_a_scenario_error(scenarios_dir, grayhole, message):
    cfg = load_scenario(str(scenarios_dir / "ieee14.ini"))
    cfg = dataclasses.replace(cfg, attack=AttackConfig(grayhole=grayhole)).validate()
    with pytest.raises(ScenarioError, match=rf"^\[attack\] .*{message}"):
        run_simulation(cfg)


def test_a_scenario_file_listing_a_grayhole_node_twice_fails_naming_it(
    scenarios_dir, cases_dir, tmp_path, capsys
):
    text = (scenarios_dir / "ieee14.ini").read_text()
    ini = tmp_path / "twice.ini"
    ini.write_text(
        text.replace("../cases/ieee14.case", str(cases_dir / "ieee14.case"))
        + "\n[attack]\ngrayhole = 22:0.9 22:0.1\n"
    )
    assert load_scenario(str(ini)).attack.grayhole == ((22, 0.9), (22, 0.1))
    assert main(["run", "--scenario", str(ini)]) == 1
    assert "error: [attack] grayhole lists node 22 twice" in capsys.readouterr().err


def ring_route(ring, from_id, to_id):
    """The shorter arc of ``ring`` (closed from its last node to its first), forward on a tie."""
    i, j = ring.index(from_id), ring.index(to_id)
    n = len(ring)
    fwd_steps, back_steps = (j - i) % n, (i - j) % n
    if fwd_steps <= back_steps:
        return [ring[(i + k) % n] for k in range(fwd_steps + 1)]
    return [ring[(i - k) % n] for k in range(back_steps + 1)]


@pytest.mark.parametrize("scenario, ties", [("ieee14.ini", 0), ("ieee118.ini", 4)])
def test_each_sink_routes_to_each_server_over_the_shorter_ring_arc(scenarios_dir, scenario, ties):
    # The curve plays no part in the routes; toy17 keeps the 118-bus set-up quick.
    cfg = dataclasses.replace(load_scenario(str(scenarios_dir / scenario)), curve="toy17")
    topo = build_run_topology(cfg, cfg.seed)
    sim = Simulation(topo, cfg, cfg.seed)
    assert set(sim._server_routes) == set(topo.rs_of_region.values()) | set(topo.pdc_of_region.values())
    forward_ties = 0
    for ring in (topo.rs_ring, topo.pdc_ring):
        n = len(ring)
        for sink in ring[1:-1]:
            routes = sim._server_routes[sink]
            assert len(routes) == 2
            for route, gw, server in zip(routes, topo.cc_gateways, topo.cc_servers):
                assert route[0] == sink and route[-2:] == (gw, server)
                for a, b in zip(route[:-2], route[1:-1]):
                    assert (ring.index(b) - ring.index(a)) % n in (1, n - 1)
                fwd_steps = (ring.index(gw) - ring.index(sink)) % n
                assert len(route) == min(fwd_steps, n - fwd_steps) + 2
                assert list(route[:-1]) == ring_route(ring, sink, gw)
                if fwd_steps == n - fwd_steps:
                    assert route[1] == ring[(ring.index(sink) + 1) % n]
                    forward_ties += 1
    assert forward_ties == ties


def test_one_ecdh_per_sensed_flow(scenarios_dir, monkeypatch):
    """Every sensed flow's key agreement is one scalar of the set-up's one
    batched pass; none goes through ``ecdh_shared``."""
    batches, ecdh_calls = [], []
    batch, ecdh = gridmon.simulation.fixed_base_batch, gridmon.simulation.ecdh_shared

    def counting_batch(curve, scalars):
        batches.append(list(scalars))
        return batch(curve, scalars)

    def counting_ecdh(*args, **kwargs):
        ecdh_calls.append(args)
        return ecdh(*args, **kwargs)

    monkeypatch.setattr(gridmon.simulation, "fixed_base_batch", counting_batch)
    monkeypatch.setattr(gridmon.simulation, "ecdh_shared", counting_ecdh)
    cfg = load_scenario(str(scenarios_dir / "ieee14.ini"))
    sim = Simulation(build_run_topology(cfg, cfg.seed), cfg, cfg.seed)
    sensed = {(route[-1], kind) for kind, route, _, _ in sim.sensors}
    assert set(sim.flows) == sensed
    assert [len(scalars) for scalars in batches] == [len(sensed)] == [14]
    assert all(1 <= k < sim.curve.n for k in batches[0])
    assert ecdh_calls == []


SET_UP_CASES = [("ieee14", "toy17"), ("ieee14", "secp256k1"), ("ieee118", "secp256k1")]


def set_up_simulation(scenarios_dir, scenario, curve):
    cfg = dataclasses.replace(load_scenario(str(scenarios_dir / f"{scenario}.ini")), curve=curve)
    return Simulation(build_run_topology(cfg, cfg.seed), cfg, cfg.seed), cfg.seed


@pytest.mark.parametrize("scenario, curve", SET_UP_CASES)
def test_each_set_up_key_is_the_key_computed_from_scratch(scenarios_dir, scenario, curve):
    """Tamper detection works under any key, so a wrong pairwise key would
    show in no metric and no trace: pin each one to gateway private * sink
    public, from the private keys the crypto stream gives in set-up order."""
    sim, seed = set_up_simulation(scenarios_dir, scenario, curve)
    # Replayed in set-up order: the control center's key pair, each sink's
    # private key, each gateway's; each is one keypair_generate draw.
    rng = gridmon.simulation.child_rng(seed, "crypto")
    assert crypto.keypair_generate(sim.curve, rng) == sim.cc_keypair
    sink_private = {sinks[rid]: crypto.keypair_generate(sim.curve, rng).private
                    for sinks in sim._sinks.values() for rid in sorted(sinks)}
    gw_of = sim.topo.gateway_of_substation
    gw_private = {gw_of[sid]: crypto.keypair_generate(sim.curve, rng).private
                  for sid in sorted(gw_of)}
    # The set-up drew exactly these: the stream's next draw is the first seal's.
    assert rng.getstate() == sim.rng_crypto.getstate() and sim.flows
    for (gw, kind), flow in sim.flows.items():
        sink_public = crypto.keypair_from_private(sim.curve, sink_private[flow.sink.id]).public
        shared = crypto.ecdh_shared(sim.curve, gw_private[gw], sink_public)
        label = f"pair:{gw}:{kind.value}:".encode()
        assert flow.key == hashlib.sha256(label + shared).digest()[:16]


@pytest.mark.parametrize("scenario, curve", SET_UP_CASES)
def test_the_set_up_multiplies_once_per_flow_and_once_for_the_control_center(
    scenarios_dir, monkeypatch, scenario, curve
):
    bases, batches = [], []
    real, batch = crypto.scalar_mult, gridmon.simulation.fixed_base_batch

    def counted(curve, k, point, table=None):  # scalar_mult's signature
        bases.append((point == curve.g, table))
        return real(curve, k, point, table)

    def counted_batch(curve, scalars):
        batches.append(len(scalars))
        return batch(curve, scalars)

    monkeypatch.setattr(crypto, "scalar_mult", counted)
    monkeypatch.setattr(gridmon.simulation, "fixed_base_batch", counted_batch)
    sim, _ = set_up_simulation(scenarios_dir, scenario, curve)
    # The control center's public point from G's table, and no other single
    # multiplication; then one batched pass over G's table, one scalar per flow.
    assert bases == [(True, None)]
    assert batches == [len(sim.flows)] == [{"ieee14": 14, "ieee118": 142}[scenario]]


@pytest.mark.parametrize("curve", ["secp256k1", "toy17"])
def test_a_run_computes_each_keystream_once_and_each_open_reuses_one(
    scenarios_dir, monkeypatch, curve
):
    calls = collections.Counter()
    mults = []  # the arguments of every scalar_mult call
    for module, name in [
        (crypto, "_keystream"), (crypto, "scalar_mult"), (crypto, "keypair_from_private"),
        (crypto, "ecdh_shared"), (gridmon.simulation, "ecdh_shared"),
        (gridmon.simulation, "pk_encrypt"), (gridmon.simulation, "pk_decrypt"),
        (protocol, "seal"), (protocol, "open_sealed"),
    ]:
        def counted(*args, _real=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            if _name == "scalar_mult":
                mults.append((args, kwargs))
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    largest = 0
    remember = crypto.CryptoMemo.remember

    def bounded_remember(memo, key, value):
        nonlocal largest
        out = remember(memo, key, value)
        largest = max(largest, len(memo))
        return out

    monkeypatch.setattr(crypto.CryptoMemo, "remember", bounded_remember)
    cfg = dataclasses.replace(load_scenario(str(scenarios_dir / "ieee14.ini")), curve=curve)

    def fixed_base(curve, k, point, table=None):  # scalar_mult's signature
        return point == curve.g or table is not None

    runs = []
    for _ in range(2):  # the second run gets no keystream from the first
        calls.clear()
        mults.clear()
        sim = run_simulation(cfg)
        # No variable-base multiplication: each is from G's table or a passed one.
        assert mults and all(fixed_base(*args, **kwargs) for args, kwargs in mults)
        # Emptied when the run ends.
        assert len(sim._crypto_memo) == len(sim._crypto_memo.ecdh_keys) == 0
        runs.append(dict(calls))
    first, second = runs
    assert first == second
    sealed = first["seal"] + first["pk_encrypt"]
    assert first["open_sealed"] >= first["seal"] > 0
    assert first["pk_decrypt"] == 2 * first["pk_encrypt"] > 0
    # Every seal computes its keystream and every open finds it.
    assert first["_keystream"] == sealed
    # Each seal makes one ECDH, and its opens none: both find the seal's key.
    assert first["ecdh_shared"] == first["pk_encrypt"]
    # The key pairs are the control center's, one ephemeral per seal, and the
    # memo's one public point of the control center's key, to look opens up.
    assert first["keypair_from_private"] == 1 + first["pk_encrypt"] + 1
    # Each key pair and each ECDH is one scalar multiplication, and no other is made.
    assert first["scalar_mult"] == first["keypair_from_private"] + first["ecdh_shared"]
    assert largest == crypto.CryptoMemo.LIMIT  # reached, never passed


def test_keystreams_never_drop_an_aggregates_ecdh_key_before_its_opens(
    scenarios_dir, monkeypatch
):
    """ieee118_sweep.ini computes more than LIMIT keystreams between some
    aggregates' seals and opens; the opens still find the seal's ECDH key,
    so no multiplication of the run has a variable base."""
    variable = []
    real = crypto.scalar_mult

    def counted(curve, k, point, table=None):  # scalar_mult's signature
        if point != curve.g and table is None:
            variable.append(point)
        return real(curve, k, point, table)

    monkeypatch.setattr(crypto, "scalar_mult", counted)
    cfg = load_scenario(str(scenarios_dir / "ieee118_sweep.ini"))
    sim = run_simulation(cfg, 1)
    assert sim.metrics.scada_delivered > 0
    assert variable == []
    assert len(sim._crypto_memo) == len(sim._crypto_memo.ecdh_keys) == 0


@pytest.mark.parametrize("p", [1.0, 0.0])
def test_grayhole_head_drops_what_it_forwards(scenarios_dir, p, route_of):
    cfg = dataclasses.replace(load_scenario(str(scenarios_dir / "ieee14.ini")), duration_s=4.0)
    clean_trace = TraceLog()
    clean = run_simulation(cfg, trace=clean_trace)
    head = next(
        route_of(flow.hops)[1] for (_, kind), flow in clean.flows.items()
        if kind is PacketKind.SCADA and flow.hops is not None
    )
    # Active from the election on, so the trust bootstrap and the heads match the clean run.
    attacked = dataclasses.replace(
        cfg, attack=AttackConfig(grayhole=((head, p),), activation_time=cfg.setup_s)
    )
    trace = TraceLog()
    sim = run_simulation(attacked, trace=trace)
    if p == 0.0:
        assert sim.metrics.as_row() == clean.metrics.as_row()
        assert trace.lines == clean_trace.lines
        return
    active = [l for l in trace.lines if float(l.split()[0][2:]) >= cfg.setup_s]
    received = [l for l in active if " ev=recv " in l and f" dst={head} " in l]
    dropped = [l for l in active if " ev=drop " in l and f" src={head} " in l]
    assert received and all(l.endswith(" kind=scada") for l in received)
    # Every packet the head received it dropped, and only those were lost to it.
    assert len(dropped) == len(received)
    assert sim.packet_drops["grayhole"] == len(received)
    assert sim.ledger.summarize(PacketKind.SCADA)["drops"]["grayhole"] == len(received)
    assert sim.metrics.scada_dropped_grayhole == len(received)


def test_an_attacker_active_during_set_up_drops_the_trust_probes(scenarios_dir, route_of):
    """Every stored reference activates its attackers at the end of set-up;
    here a blackhole relay is active from the start, so the probes sent
    through it meet it as readings would."""
    cfg = dataclasses.replace(load_scenario(str(scenarios_dir / "ieee14.ini")), duration_s=2.0)
    clean = run_simulation(cfg)
    # A SCADA head is a relay in its gateway's range, so the bootstrap probes it.
    head = next(
        route_of(flow.hops)[1] for (_, kind), flow in clean.flows.items()
        if kind is PacketKind.SCADA and flow.hops is not None
    )
    attacked = dataclasses.replace(
        cfg, attack=AttackConfig(blackhole_nodes=frozenset({head}), activation_time=0.0)
    )
    trace = TraceLog()
    sim = run_simulation(attacked, trace=trace)
    node = sim.nodes[head]
    assert node.sent > 0 and node.delivered == 0
    assert sim.metrics.packet_drops_blackhole > 0
    probe_drops = [
        l for l in trace.lines
        if " ev=drop " in l and f" src={head} " in l and l.endswith(" kind=test")
    ]
    assert probe_drops
    assert all(float(l.split()[0][2:]) < cfg.setup_s for l in probe_drops)


def test_tampering_harvester_is_rerouted_around_on_the_phasor_route(scenarios_dir, route_of):
    # At 12 km range gateway 3's phasor frames reach the PDC over a harvester.
    cfg = dataclasses.replace(load_scenario(str(scenarios_dir / "ieee14.ini")), range_m=12000.0)
    clean = run_simulation(cfg, seed=4)
    route = {f: route_of(flow.hops) for f, flow in clean.flows.items() if flow.hops is not None}
    flows = [f for f, path in route.items() if f[1] is PacketKind.PMU and len(path) > 2]
    assert flows, "expected a phasor route over a harvester"
    rerouted = flows[0]
    villain = route[rerouted][1]

    attacked = dataclasses.replace(
        cfg, attack=AttackConfig(tamper_nodes=frozenset({villain}), activation_time=1.0)
    )
    sim = run_simulation(attacked, seed=4)
    record = sim.metrics
    assert sim.flows[rerouted].excluded == {villain}
    assert route_of(sim.flows[rerouted].hops) not in (None, route[rerouted])
    # The reroute touches its own flow only: every other flow keeps the
    # clean run's route and excludes nothing.
    others = set(route) - {rerouted}
    assert {f: route_of(sim.flows[f].hops) for f in others} == {f: route[f] for f in others}
    assert all(not flow.excluded for f, flow in sim.flows.items() if f != rerouted)
    assert record.tamper_rejections == record.reroutes >= 1
    assert record.retransmissions == record.reroutes
    assert sim.ledger.summarize(PacketKind.PMU)["drops"]["rejected"] == 0
    assert record.pmu_delivered == record.pmu_generated



def test_a_trust_probe_with_no_chain_onward_is_dropped_no_route(scenarios_dir):
    """At 12 km range some candidates in a gateway's range have no greedy
    chain to the sink, so their probes stall at the candidate: each is a
    ``no_route`` packet drop that no reading's books see."""
    cfg = dataclasses.replace(
        load_scenario(str(scenarios_dir / "ieee14.ini")), range_m=12000.0, duration_s=1.0
    )
    trace = TraceLog()
    sim = run_simulation(cfg, seed=2, trace=trace)  # audits the ledger
    stalled = [
        int(re.search(r" dst=(\d+) ", l).group(1))
        for l in trace.lines if " ev=drop " in l and l.endswith(" kind=test")
    ]
    assert len(stalled) == 15
    assert all(sim.nodes[nid].wireless for nid in stalled)  # dropped at the candidate
    assert sim.metrics.packet_drops_no_route == 15
    for kind in (PacketKind.SCADA, PacketKind.PMU):
        assert sim.ledger.summarize(kind)["drops"]["no_route"] == 0

def test_hop_tables_hold_the_per_hop_model_costs(scenarios_dir, monkeypatch, route_of):
    """Every hop walked, by probes, readings and a reroute request on the
    reversed route, pays exactly what the radio and energy models give for
    that packet's current size over that hop, and every table chains the
    run's own nodes from the packet's source on."""
    cfg = dataclasses.replace(
        load_scenario(str(scenarios_dir / "ieee14.ini")), range_m=12000.0, duration_s=2.0
    )
    clean = run_simulation(cfg, seed=4)
    phasor_route = next(
        route_of(flow.hops) for (_, kind), flow in clean.flows.items()
        if kind is PacketKind.PMU and len(route_of(flow.hops) or ()) > 2
    )
    attacked = dataclasses.replace(
        cfg, attack=AttackConfig(tamper_nodes=frozenset({phasor_route[1]}), activation_time=1.0)
    )
    walked = []
    walk = Simulation._walk

    def recording_walk(self, pkt, idx):
        if idx < len(pkt.hops):  # hop idx is the one this event sends
            walked.append((self, pkt.kind, pkt.src, pkt.dst, pkt.hops, pkt.size_bits(), idx))
        walk(self, pkt, idx)

    monkeypatch.setattr(Simulation, "_walk", recording_walk)
    sim = run_simulation(attacked, seed=4)
    assert sim.metrics.reroutes >= 1
    radio, energy = attacked.radio(), attacked.energy()
    for walker, kind, src, dst, hops, bits, idx in walked:
        assert walker is sim
        sender, receiver, *costs = hops[idx]
        assert sim.nodes[sender.id] is sender and sim.nodes[receiver.id] is receiver
        dist_m = distance(sender.position, receiver.position) * 1000.0
        want = (energy.tx_cost_j(bits, dist_m), energy.rx_cost_j(bits), radio.hop_latency_s(bits))
        assert [x.hex() for x in costs] == [x.hex() for x in want]
        assert hops[0][0].id == src
        assert all(hop[1] is nxt[0] for hop, nxt in zip(hops, hops[1:]))
        if kind is not PacketKind.TEST:  # a probe may stall at its candidate
            assert hops[-1][1].id == dst
    kinds = {kind for _, kind, *_ in walked}
    assert kinds == {PacketKind.TEST, PacketKind.SCADA, PacketKind.PMU, PacketKind.REROUTE}
    data_routes = {route_of(hops) for _, kind, _, _, hops, *_ in walked if kind is PacketKind.PMU}
    assert all(
        route_of(hops)[::-1] in data_routes
        for _, kind, _, _, hops, *_ in walked if kind is PacketKind.REROUTE
    )


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_every_wireless_packet_ends_exactly_once(scenarios_dir, monkeypatch, name):
    """Each packet that starts its walk, or that dispatch finds no route for,
    reaches ``_end`` once, having landed ``0 <= idx <= len(hops)`` hops; a
    delivered one landed them all.  Packets are told apart by (source, seq)."""
    overrides, attack, seed, _, _ = GOLDEN[name]
    cfg = load_scenario(str(scenarios_dir / "ieee14.ini"))
    cfg = dataclasses.replace(cfg, attack=dataclasses.replace(cfg.attack, **attack), **overrides)
    started, settled = collections.Counter(), collections.Counter()
    walk, dispatch, end = Simulation._walk, Simulation._dispatch, Simulation._end

    def starting_walk(self, pkt, idx):
        if idx == 0:
            started[pkt.src, pkt.seq] += 1
        walk(self, pkt, idx)

    def routeless_dispatch(self, gw_id, reading):
        dispatch(self, gw_id, reading)
        if self.flows[(gw_id, reading.kind)].hops is None:  # its packet ended in dispatch
            started[gw_id, self.nodes[gw_id].seq] += 1

    def settling_end(self, pkt, idx, cause=None):
        assert 0 <= idx <= len(pkt.hops)
        assert cause is not None or idx == len(pkt.hops)
        settled[pkt.src, pkt.seq] += 1
        end(self, pkt, idx, cause)

    monkeypatch.setattr(Simulation, "_walk", starting_walk)
    monkeypatch.setattr(Simulation, "_dispatch", routeless_dispatch)
    monkeypatch.setattr(Simulation, "_end", settling_end)
    run_simulation(cfg, seed)
    assert started and settled == started
    assert set(settled.values()) == {1}


@pytest.mark.parametrize("seed", [1, 7])
def test_attackers_dormant_past_the_horizon_leave_the_clean_run(scenarios_dir, seed):
    """A metamorphic relation: attackers that activate after the last
    reading's time change no row and no trace byte.  Active from 1 s, the same
    attack changes both at these seeds, so the relation is not vacuous."""
    cfg = load_scenario(str(scenarios_dir / "ieee14.ini"))
    horizon = cfg.setup_s + cfg.duration_s + cfg.settle_s

    def outputs(**attack):
        trace = TraceLog()
        attacked = dataclasses.replace(cfg, attack=dataclasses.replace(cfg.attack, **attack))
        sim = run_simulation(attacked, seed, trace)
        return sim.metrics.as_row(), trace.lines

    clean = outputs()
    plan = dict(compromised_count=10, tamper_count=20)
    assert outputs(**plan, activation_time=math.nextafter(horizon, math.inf)) == clean
    assert outputs(**plan, activation_time=1.0) != clean


@pytest.mark.parametrize("seed", [1, 7])
def test_an_attacker_off_every_path_changes_nothing(scenarios_dir, monkeypatch, seed):
    """A metamorphic relation: a blackhole active from the start, on a relay
    that no hop table walked in the clean run names as sender or receiver,
    changes no row and no trace byte."""
    cfg = dataclasses.replace(load_scenario(str(scenarios_dir / "ieee14.ini")), range_m=12000.0)
    named = set()
    walk = Simulation._walk

    def naming_walk(self, pkt, idx):
        if idx == 0:  # every walk starts at hop 0
            named.update(node.id for hop in pkt.hops for node in hop[:2])
        walk(self, pkt, idx)

    monkeypatch.setattr(Simulation, "_walk", naming_walk)
    trace = TraceLog()
    clean = run_simulation(cfg, seed, trace)
    monkeypatch.undo()
    off_path = [n.id for n in clean.nodes.values() if n.role is Role.RELAY and n.id not in named]
    assert off_path
    attacked = dataclasses.replace(
        cfg, attack=AttackConfig(blackhole_nodes=frozenset({off_path[0]}), activation_time=0.0)
    )
    attacked_trace = TraceLog()
    sim = run_simulation(attacked, seed, attacked_trace)
    assert sim.plan.blackholes == {off_path[0]}
    assert sim.metrics.as_row() == clean.metrics.as_row()
    assert attacked_trace.lines == trace.lines


# Timings a scenario file may set; k_test = 0 is refused.  The window reaches
# down to validate()'s 10 ms floor.
_TIMING = {
    "setup_s": st.floats(0.01, 2.0),
    "k_test": st.integers(0, 12),
    "aggregation_window_s": st.floats(0.01, 2.0),
    "settle_s": st.floats(0.0, 2.0),
    "intra_substation_latency_s": st.floats(0.0, 0.05),
    "wired_latency_s": st.floats(0.0, 0.05),
    "duration_s": st.floats(0.01, 2.0),
}
# At most one float among them set to zero or to a value validate() must refuse.
_BAD = st.one_of(st.none(), st.tuples(
    st.sampled_from(sorted(set(_TIMING) - {"k_test"})),
    st.sampled_from([-0.5, 0.0, math.nan, math.inf]),
))


@settings(max_examples=150)
@given(case=st.sampled_from(["line3", "ieee14"]), seed=st.integers(0, 3),
       timing=st.fixed_dictionaries(_TIMING), bad=_BAD)
@example(case="ieee14", seed=1, bad=None, timing={
    "setup_s": 0.5, "k_test": 5, "aggregation_window_s": 0.01, "settle_s": 0.5,
    "intra_substation_latency_s": 0.001, "wired_latency_s": 0.002, "duration_s": 2.0,
})
def test_fuzzed_timing_ends_audited_or_raises_scenario_error(case, seed, timing, bad):
    if case == "ieee14":
        base = load_scenario(str(ROOT / "scenarios" / "ieee14.ini"))
    else:
        base = ScenarioConfig(case_path=str(ROOT / "tests" / "data" / "line3.case"), d_km=50.0,
                              relays=8, ehrns=3, curve="toy17")
    if bad is not None:
        timing[bad[0]] = bad[1]
    cfg = dataclasses.replace(base, **timing)
    try:
        run_simulation(cfg, seed)  # validates, runs and audits
    except ScenarioError:
        pass


def test_dead_harvesters_are_counted_at_the_end_of_the_run(scenarios_dir):
    # Without recharge a 20 mJ harvester runs dry within the run.
    cfg = dataclasses.replace(
        load_scenario(str(scenarios_dir / "ieee14.ini")),
        ehrn_recharge_w=0.0, ehrn_capacity_j=0.02, duration_s=2.0,
    )
    sim = run_simulation(cfg, seed=1)  # audits the ledger
    drained = [n for n in sim.nodes.values() if n.role is Role.EHRN and n.battery_j <= 0.0]
    assert sim.metrics.dead_ehrns == len(drained) == 29


def test_audit_refuses_a_reading_that_reached_the_main_server_only(scenarios_dir):
    cfg = dataclasses.replace(load_scenario(str(scenarios_dir / "ieee14.ini")), duration_s=1.0)
    sim = run_simulation(cfg, seed=1)  # audits the ledger
    state = next(s for s in sim.ledger.entries.values() if s.status == "delivered")
    state.delivered_backup = False
    with pytest.raises(AuditError, match=rf"^reading {state.reading.id} reached the main server only$"):
        sim.audit()


# What a scenario file may set for the deployment, the batteries and the
# attack; node ids reach past ieee14's 232 nodes, so some name no node.
_NODE_IDS = st.integers(0, 240)


def _power_of_ten(lo: float, hi: float):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


_DEPLOY = {
    "relays": st.integers(0, 150),
    "ehrns": st.integers(0, 60),
    # 1 m to 1,000 km, often near the 5-50 km that links ieee14's substations
    "range_m": st.one_of(_power_of_ten(0.0, 6.0), st.floats(5e3, 5e4)),
    "relay_battery_j": _power_of_ten(-9.0, 2.0),
    "ehrn_capacity_j": _power_of_ten(-9.0, 2.0),
    "ehrn_recharge_w": st.floats(0.0, 5.0),
    "duration_s": st.floats(0.1, 2.0),
}
_ATTACK = st.builds(
    AttackConfig,
    blackhole_nodes=st.frozensets(_NODE_IDS, max_size=2),
    grayhole=st.lists(st.tuples(_NODE_IDS, st.floats(0.0, 1.0)), max_size=2).map(tuple),
    tamper_nodes=st.frozensets(_NODE_IDS, max_size=2),
    compromised_count=st.integers(0, 20),
    tamper_count=st.integers(0, 20),
    activation_time=st.floats(0.0, 4.0),
)


@settings(max_examples=400, deadline=None)
@given(case=st.sampled_from(["line3", "ieee14"]), seed=st.integers(0, 3),
       deploy=st.fixed_dictionaries(_DEPLOY), attack=_ATTACK)
def test_fuzzed_deployment_and_attack_end_audited_or_raise_scenario_error(
    case, seed, deploy, attack
):
    if case == "ieee14":
        base = load_scenario(str(ROOT / "scenarios" / "ieee14.ini"))
    else:
        base = ScenarioConfig(case_path=str(ROOT / "tests" / "data" / "line3.case"), d_km=50.0,
                              curve="toy17", k_test=5)
    cfg = dataclasses.replace(base, attack=attack, **deploy)
    try:
        run_simulation(cfg, seed)  # validates, runs and audits
    except ScenarioError:
        pass


def test_sweep_emits_per_seed_rows_and_mean_rows(mini_ini):
    cfg = load_scenario(str(mini_ini))
    rows = sweep(cfg, axis="compromised", values=[0, 2], seeds=[1, 2])
    assert len(rows) == 2 * 2 + 2
    per_seed = [r for r in rows if r["seed"] != "mean"]
    means = [r for r in rows if r["seed"] == "mean"]
    assert {r["value"] for r in per_seed} == {0, 2}
    assert [r["value"] for r in means] == [0, 2]
    for row in rows:
        assert row["axis"] == "compromised"
        assert set(sweep_fieldnames()) >= set(row.keys())
    mean0 = next(r for r in means if r["value"] == 0)
    seeds0 = [r for r in per_seed if r["value"] == 0]
    want = sum(r["scada_delivered"] for r in seeds0) / len(seeds0)
    assert mean0["scada_delivered"] == pytest.approx(want)


def test_sweep_holds_traffic_fixed_across_values(mini_ini):
    # The attack axis must not perturb generation: same seed, same offered load.
    cfg = load_scenario(str(mini_ini))
    rows = sweep(cfg, axis="compromised", values=[0, 2], seeds=[5])
    per_seed = [r for r in rows if r["seed"] != "mean"]
    gen = {r["value"]: (r["scada_generated"], r["pmu_generated"]) for r in per_seed}
    assert gen[0] == gen[2]


def test_sweep_rejects_unknown_axis(mini_ini):
    cfg = load_scenario(str(mini_ini))
    with pytest.raises(ValueError):
        sweep(cfg, axis="weather", values=[0], seeds=[1])
    assert SWEEP_AXES == ("compromised", "malicious")


def test_malicious_axis_sets_tamper_count(mini_ini):
    cfg = load_scenario(str(mini_ini))
    cfg2 = dataclasses.replace(
        cfg, attack=dataclasses.replace(cfg.attack, tamper_count=3)
    )
    rows = sweep(cfg2, axis="malicious", values=[0, 1], seeds=[1])
    assert [r["value"] for r in rows if r["seed"] == "mean"] == [0, 1]


# ===== command line =====


def test_cli_run_writes_csv_and_trace(mini_ini, tmp_path):
    out = tmp_path / "metrics.csv"
    trace = tmp_path / "events.log"
    code = main([
        "run", "--scenario", str(mini_ini), "--seed", "4",
        "--out", str(out), "--trace", str(trace),
    ])
    assert code == 0
    rows = read_csv(str(out))
    assert len(rows) == 1 and rows[0]["seed"] == "4"
    lines = trace.read_text().splitlines()
    assert lines, "trace file must not be empty"
    for line in lines[:50]:
        assert TRACE_LINE.match(line), line


def test_cli_run_is_reproducible_at_the_byte_level(mini_ini, tmp_path):
    t1, t2 = tmp_path / "a.log", tmp_path / "b.log"
    assert main(["run", "--scenario", str(mini_ini), "--trace", str(t1)]) == 0
    assert main(["run", "--scenario", str(mini_ini), "--trace", str(t2)]) == 0
    assert t1.read_bytes() == t2.read_bytes()


def test_a_traced_run_that_fails_part_way_leaves_no_open_file(mini_ini, tmp_path, monkeypatch):
    def refuse(sim, server_id, pkt):
        assert sim.trace.lines, "the run should have traced events before it fails"
        raise ScenarioError("backup server got an aggregate before the shared private key")

    monkeypatch.setattr(gridmon.simulation.Simulation, "_server_receive", refuse)
    trace = tmp_path / "events.log"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ScenarioError, match="backup server"):
            run_scenario(load_scenario(str(mini_ini)), trace_path=str(trace))
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert not trace.exists()


@pytest.mark.parametrize("argv", [
    ["run", "--trace", ""],
    ["run", "--out", ""],
    ["sweep", "--axis", "compromised", "--values", "1", "--seeds", "1", "--out", ""],
    ["topology", "--out", ""],
])
def test_cli_empty_output_path_is_a_usage_error(mini_ini, monkeypatch, capsys, argv):
    def no_run(*args, **kwargs):
        raise AssertionError("a usage error must stop the command before any run")

    for name in ("run_scenario", "sweep", "build_run_topology"):
        monkeypatch.setattr(gridmon.cli, name, no_run)
    assert main([argv[0], "--scenario", str(mini_ini), *argv[1:]]) == 2
    assert "got an empty string" in capsys.readouterr().err


@pytest.mark.parametrize("argv, refused", [
    (["run", "--trace", "{missing}"], "{missing}"),
    (["run", "--out", "{missing}"], "{missing}"),
    (["run", "--out", "{tmp}/row.csv", "--trace", "{tmp}"], "{tmp}"),
    (["sweep", "--axis", "compromised", "--values", "1", "--seeds", "1", "--out", "{missing}"],
     "{missing}"),
    (["topology", "--out", "{tmp}"], "{tmp}"),
])
def test_cli_refuses_an_unwritable_output_before_loading_the_scenario(
    mini_ini, tmp_path, monkeypatch, capsys, argv, refused
):
    def no_run(*args, **kwargs):
        raise AssertionError("an unwritable output must stop the command before any run")

    for name in ("load_scenario", "run_scenario", "sweep", "build_run_topology"):
        monkeypatch.setattr(gridmon.cli, name, no_run)
    paths = {"missing": tmp_path / "absent" / "x.log", "tmp": tmp_path}
    argv = [part.format(**paths) for part in argv]
    assert main([argv[0], "--scenario", str(mini_ini), *argv[1:]]) == 1
    out, err = capsys.readouterr()
    assert out == ""  # no summary line either
    assert err.startswith(f"error: cannot write {refused.format(**paths)}")
    assert list(tmp_path.iterdir()) == [mini_ini]  # no file made early


@pytest.mark.skipif(os.geteuid() == 0, reason="root may write any file")
def test_cli_judges_an_existing_output_file_by_its_own_permission(
    mini_ini, tmp_path, monkeypatch, capsys
):
    """An existing file is written in place, so its own permission decides,
    not its directory's: a writable file in a read-only directory is
    accepted, a read-only file is refused before the scenario is read."""
    locked = tmp_path / "locked"
    locked.mkdir()
    writable, read_only = locked / "topo.txt", locked / "read_only.txt"
    writable.write_text("")
    read_only.write_text("")
    read_only.chmod(0o444)
    locked.chmod(0o555)
    try:
        assert main(["topology", "--scenario", str(mini_ini), "--out", str(writable)]) == 0
        assert writable.read_text() != ""
        monkeypatch.setattr(gridmon.cli, "load_scenario", lambda *args: pytest.fail("loaded"))
        assert main(["topology", "--scenario", str(mini_ini), "--out", str(read_only)]) == 1
        assert capsys.readouterr().err == f"error: cannot write {read_only}: permission denied\n"
    finally:
        locked.chmod(0o755)


def test_cli_sweep_writes_csv(mini_ini, tmp_path):
    out = tmp_path / "sweep.csv"
    code = main([
        "sweep", "--scenario", str(mini_ini), "--axis", "compromised",
        "--values", "0,2", "--seeds", "1,2", "--out", str(out),
    ])
    assert code == 0
    rows = read_csv(str(out))
    assert len(rows) == 6
    assert rows[0]["axis"] == "compromised"
    assert {r["seed"] for r in rows} == {"1", "2", "mean"}


def test_cli_topology_exports_edges(scenarios_dir, tmp_path):
    ini = str(scenarios_dir / "ieee14.ini")
    out, moved = tmp_path / "topo.txt", tmp_path / "seed7.txt"
    assert main(["topology", "--scenario", ini, "--out", str(out)]) == 0
    assert main(["topology", "--scenario", ini, "--seed", "7", "--out", str(moved)]) == 0
    lines = out.read_text().splitlines()
    assert sum(l.startswith("node ") for l in lines) == 231
    assert any(l.startswith("edge ") for l in lines)
    assert "regions=3 d_km=35" in lines[1]
    expect = tmp_path / "expect.txt"
    cfg = load_scenario(ini)
    export_topology(build_run_topology(cfg, cfg.seed), str(expect))
    assert out.read_bytes() == expect.read_bytes()

    def relays(path):
        return [l for l in path.read_text().splitlines() if " relay " in l]
    assert relays(out) and relays(moved) != relays(out)


@pytest.mark.parametrize("scenario, seed, digest", [
    ("ieee14", 1, "a4963712b6d6f2c27758d60edef1f088a2bd8248c79d5f0036625959f891258d"),
    ("ieee14", 7, "13c784c5b40ae0591f24a42435d024ab28ed43f0bd308493f43ad625a668bcd8"),
    ("ieee118", 1, "1d3dadd916ba78dd1789bbc1310fe14803fd85a1f32de1d95bc50addf4bb97f0"),
    ("ieee118", 7, "291a8d53b77adc709f312c99a1956e3def9f5c27d26518bbbea8ad9110ff4e49"),
])
def test_exported_topology_is_pinned(scenarios_dir, tmp_path, scenario, seed, digest):
    """Every node's id, role and position, the rings and the serving edges.
    The header names the case by its file name, so the bytes do not depend
    on where the checkout lives."""
    cfg = load_scenario(str(scenarios_dir / f"{scenario}.ini"))
    out = tmp_path / "topo.txt"
    export_topology(build_run_topology(cfg, seed), str(out))
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_cli_input_errors_exit_1(tmp_path, data_dir, capsys):
    assert main(["run", "--scenario", str(tmp_path / "absent.ini")]) == 1
    bad = tmp_path / "bad.ini"
    bad.write_text("[case]\npath = nowhere.case\n")
    assert main(["run", "--scenario", str(bad)]) == 1
    # topology validates what it reads: a NaN radius would grow regions forever.
    case = f"[case]\npath = {data_dir / 'line3.case'}\n"
    nan_d_km, negative = tmp_path / "nan.ini", tmp_path / "negative.ini"
    nan_d_km.write_text(case + "d_km = nan\n")
    negative.write_text(case + "[deploy]\nrelays = -5\n")
    capsys.readouterr()
    for ini, message in [(tmp_path / "absent.ini", "absent.ini"),
                         (nan_d_km, "[case] d_km"), (negative, "[deploy] relays")]:
        t0 = time.perf_counter()
        assert main(["topology", "--scenario", str(ini), "--out", str(tmp_path / "o.txt")]) == 1
        assert time.perf_counter() - t0 < 1.0
        assert message in capsys.readouterr().err


def test_a_scenario_path_that_cannot_be_read_is_a_scenario_error_naming_it(tmp_path, capsys):
    # A directory, not a file: ConfigParser.read would skip it and read no keys.
    for path, reason in [(tmp_path, "Is a directory"), (tmp_path / "absent.ini", "No such file")]:
        with pytest.raises(ScenarioError, match=rf"^cannot read scenario file {re.escape(str(path))}: {reason}"):
            load_scenario(str(path))
    assert main(["run", "--scenario", str(tmp_path)]) == 1
    assert f"cannot read scenario file {tmp_path}" in capsys.readouterr().err


def test_a_scenario_or_case_file_that_is_not_utf8_is_named_in_the_error(tmp_path, data_dir, capsys):
    scenario = tmp_path / "x.ini"
    scenario.write_bytes(b"[case]\npath = \xff.case\n")
    with pytest.raises(ScenarioError, match=rf"^cannot read scenario file {re.escape(str(scenario))}: not UTF-8"):
        load_scenario(str(scenario))
    case = tmp_path / "bad.case"
    case.write_bytes((data_dir / "line3.case").read_bytes() + b"# \xff\n")
    scenario.write_text(f"[case]\npath = {case}\n")
    capsys.readouterr()
    assert main(["run", "--scenario", str(scenario)]) == 1
    assert f"error: cannot read case file {case}: not UTF-8" in capsys.readouterr().err


def test_cli_audit_failure_exits_3(mini_ini, monkeypatch, capsys):
    def leaky_run(*args, **kwargs):
        raise AuditError("reading 7 is in_flight but neither delivered, dropped nor held")

    monkeypatch.setattr(gridmon.cli, "run_scenario", leaky_run)
    assert main(["run", "--scenario", str(mini_ini)]) == 3
    assert "error: audit failed: reading 7" in capsys.readouterr().err


def test_cli_usage_errors_exit_2(mini_ini, capsys):
    assert main([]) == 2
    assert main(["run"]) == 2  # --scenario is required
    assert main(["frobnicate"]) == 2
    assert main(["sweep", "--scenario", str(mini_ini), "--axis", "voltage",
                 "--values", "1", "--seeds", "1", "--out", "x.csv"]) == 2
    assert main(["sweep", "--scenario", str(mini_ini), "--axis", "compromised",
                 "--values", "1,x", "--seeds", "1", "--out", "x.csv"]) == 2
    capsys.readouterr()  # swallow argparse noise


def test_cli_run_prints_summary(mini_ini, capsys):
    assert main(["run", "--scenario", str(mini_ini)]) == 0
    printed = capsys.readouterr().out
    assert "delivery_ratio" in printed
    assert "seed=3" in printed
    assert "energy_j=" in printed
