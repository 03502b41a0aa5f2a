"""The benchmark's own checks: wrapper coverage, tracing neutrality, the
reference comparison and the refusal to run outside a checkout.

Run from the repository root:
    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import inspect
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import gridmon.protocol
import gridmon.simulation

import run
from hostspeed import HostSpeed
from layers import Tracer, layer_metrics, unit_of
from micro import micro_metrics
from workloads import SCENARIOS, scenario_op, sweep_op

HERE = Path(__file__).resolve().parent
BENCH_DIR = HERE.parent
ROOT = BENCH_DIR.parent


def gridmon_bindings() -> dict:
    """Every attribute of every gridmon module and class, by identity."""
    found = {}
    for mod_name, mod in sorted(sys.modules.items()):
        if mod is None or not (mod_name == "gridmon" or mod_name.startswith("gridmon.")):
            continue
        for name, value in list(vars(mod).items()):
            found[(mod_name, name)] = value
            if inspect.isclass(value) and value.__module__.startswith("gridmon"):
                for attr, member in list(vars(value).items()):
                    found[(mod_name, name, attr)] = member
    return found


def test_wrappers_cover_every_binding_and_counts_add_up():
    # A short clean run: nothing dropped, so every sealed reading is opened.
    with Tracer() as tracer:
        assert hasattr(gridmon.protocol.rc5_ctr, "__wrapped__")
        for name in ("pk_encrypt", "pk_decrypt", "ecdh_shared", "keypair_generate",
                     "tamper_bytes"):
            assert hasattr(getattr(gridmon.simulation, name), "__wrapped__"), name
        result = scenario_op(SCENARIOS / "ieee14.ini", seed=3, duration_s=4.0)
    record = result.record
    assert record["packet_drops_total"] == 0 and record["scada_in_flight"] == 0
    values = layer_metrics(tracer, result.events, 0)
    seals = values["protocol.seal.calls"]
    assert values["engine.schedule.calls"] == record["events_processed"]
    # Every rc5_ctr call, the per-reading ones made through gridmon.protocol's
    # binding included, is seen and expands its key.
    assert values["crypto.rc5_ctr.calls"] == values["crypto.rc5_key_schedule.calls"]
    assert seals == values["protocol.open_sealed.calls"] == result.readings > 0
    assert values["crypto.pk_decrypt.calls"] == 2 * values["crypto.pk_encrypt.calls"] > 0
    assert values["crypto.rc5_key_schedule.calls"] == (
        2 * seals + values["crypto.pk_encrypt.calls"] + values["crypto.pk_decrypt.calls"]
    )


def test_tracing_changes_no_output_and_is_removed_afterwards():
    before = gridmon_bindings()
    plain_run = scenario_op(SCENARIOS / "ieee14.ini", seed=2, duration_s=3.0, trace=True)
    plain_cell = sweep_op(SCENARIOS / "ieee118_sweep.ini", 2, "malicious", 10)
    with Tracer() as tracer:
        traced_run = scenario_op(SCENARIOS / "ieee14.ini", seed=2, duration_s=3.0, trace=True)
        traced_cell = sweep_op(SCENARIOS / "ieee118_sweep.ini", 2, "malicious", 10)
    assert tracer.stat("simulation.run").calls == 2
    assert traced_run.record == plain_run.record
    assert traced_run.trace_sha256 == plain_run.trace_sha256 is not None
    assert traced_cell.record == plain_cell.record
    after = gridmon_bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_host_speed_probes_each_phase_and_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    with HostSpeed() as host:
        since, began = host.mark()
        result = scenario_op(SCENARIOS / "ieee14.ini", seed=1, duration_s=2.0)
        built = began + result.setup_s
        setup = [t for t, _ in host.samples[since:] if began <= t <= built]
        running = [t for t, _ in host.samples[since:]
                   if built <= t <= built + result.run_s]
        whole = host.slowdown(since)
        assert whole > 0
        # A window with too few probes falls back to the whole operation.
        assert host.slowdown(since, began - 2.0, began - 1.0) == whole
    assert len(running) >= 3 and len(setup) >= 1
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # With the timer off, no more probes are taken.
    count = len(host.samples)
    time.sleep(0.1)
    assert len(host.samples) == count


def test_reference_compares_stored_fields_only():
    result = scenario_op(SCENARIOS / "ieee14.ini", seed=1, duration_s=2.0, trace=True)
    stored = {"record": dict(result.record), "trace_sha256": result.trace_sha256}
    stored["record"].pop("dead_ehrns")  # as if the field were added after recording
    assert run.mismatch(stored, result) is None

    stored["record"]["reroutes"] += 1
    assert "reroutes" in run.mismatch(stored, result)
    stored["record"]["reroutes"] -= 1
    stored["trace_sha256"] = "0" * 64
    assert "trace sha256" in run.mismatch(stored, result)


def test_reference_file_covers_every_workload():
    reference = json.loads((BENCH_DIR / "reference.json").read_text())
    assert set(reference) == {"clean118", "sweep118", "attack118_traced"}
    for seeds in reference.values():
        assert "1" in seeds
    assert all(op["trace_sha256"] for op in
               (seed["run"] for seed in reference["attack118_traced"].values()))


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "clean118", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_declares_what_the_runs_print():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.E2E_UNITS
    printed = [*layer_metrics(Tracer(), 1, 0), "traced_wall_s", "trace_overhead",
               *micro_metrics(1)]
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == [
        (name, unit_of(name)) for name in printed
    ]
