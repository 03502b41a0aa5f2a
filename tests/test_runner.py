"""Scenario files, the run/sweep drivers, and the command-line surface."""

from __future__ import annotations

import dataclasses
import re

import pytest

from gridmon.attacks import AttackConfig
import gridmon.cli
from gridmon.cli import main
from gridmon.metrics import AuditError, read_csv
from gridmon.protocol import PacketKind
from gridmon.runner import SWEEP_AXES, run_scenario, run_simulation, sweep, sweep_fieldnames
from gridmon.scenario import _SECTION_KEYS, ScenarioConfig, ScenarioError, load_scenario

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


def test_tampering_harvester_is_rerouted_around_on_the_phasor_route(scenarios_dir):
    # At 12 km range gateway 3's phasor frames reach the PDC over a harvester.
    cfg = dataclasses.replace(load_scenario(str(scenarios_dir / "ieee14.ini")), range_m=12000.0)
    clean = run_simulation(cfg, seed=4)
    paths = [rt.pmu_path for rt in clean.routing.values() if len(rt.pmu_path) > 2]
    assert paths, "expected a phasor route over a harvester"
    villain = paths[0][1]

    attacked = dataclasses.replace(
        cfg, attack=AttackConfig(tamper_nodes=frozenset({villain}), activation_time=1.0)
    )
    sim = run_simulation(attacked, seed=4)
    record = sim.metrics
    assert villain in set().union(*(rt.excluded_pmu for rt in sim.routing.values()))
    assert record.tamper_rejections == record.reroutes >= 1
    assert record.retransmissions == record.reroutes
    assert sim.ledger.summarize(PacketKind.PMU)["drops"]["rejected"] == 0
    assert record.pmu_delivered == record.pmu_generated


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


def test_cli_topology_exports_edges(cases_dir, tmp_path):
    out = tmp_path / "topo.txt"
    code = main(["topology", "--case", str(cases_dir / "ieee14.case"), "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert any(l.startswith("node ") for l in lines)
    assert any(l.startswith("edge ") for l in lines)


def test_cli_input_errors_exit_1(tmp_path):
    assert main(["run", "--scenario", str(tmp_path / "absent.ini")]) == 1
    bad = tmp_path / "bad.ini"
    bad.write_text("[case]\npath = nowhere.case\n")
    assert main(["run", "--scenario", str(bad)]) == 1
    assert main(["topology", "--case", str(tmp_path / "no.case"),
                 "--out", str(tmp_path / "o.txt")]) == 1


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
