"""The benchmark's workloads, each a list of operations driven through
gridmon's public API.

One operation is one audited scenario run (``clean118``,
``attack118_traced``) or one sweep cell (``sweep118``).  Every operation of
a pass takes its seed from the benchmark's ``--seed``, so a pass repeats
exactly and its outputs can be checked against ``reference.json``.

Public names are looked up on their modules at call time, so a ``Tracer``
active around an operation sees every call.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, replace
from pathlib import Path

import gridmon.metrics
import gridmon.runner
import gridmon.scenario
import gridmon.simulation

from layers import PHASE_TARGETS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
WORK_DIR = ROOT / ".perfbench_work"

# The shipped ieee118.ini runs 60 simulated seconds (~97 s of host time),
# too long to repeat inside one benchmark run.  Two simulated seconds keep
# its character: EC key setup plus five sealed aggregate windows still make
# scalar multiplication the largest self time.
CLEAN_DURATION_S = 2.0

# Both attack axes, attackers present in every cell, values from the
# criterion-6 sweep.
SWEEP_CELLS = (
    ("compromised", 5),
    ("compromised", 10),
    ("compromised", 20),
    ("malicious", 5),
    ("malicious", 10),
)


@dataclass
class OpResult:
    """Host times and outputs of one operation."""

    key: str
    wall_s: float
    setup_s: float
    run_s: float
    record: dict
    trace_sha256: str | None = None
    trace_bytes: int = 0
    # Host slowdown (hostspeed.HostSpeed) over the whole operation, its
    # set-up and its run; 1.0 when it was not measured.
    slowdown: float = 1.0
    setup_slowdown: float = 1.0
    run_slowdown: float = 1.0

    @property
    def readings(self) -> int:
        return self.record["scada_generated"] + self.record["pmu_generated"]

    @property
    def events(self) -> int:
        return self.record["events_processed"]


def scenario_op(path: Path, seed: int, duration_s: float | None = None,
                trace: bool = False) -> OpResult:
    """Scenario file to audited ledger (and trace file), step by step."""
    trace_path = WORK_DIR / f"trace-{os.getpid()}.log"
    start = time.perf_counter()
    cfg = gridmon.scenario.load_scenario(str(path))
    if duration_s is not None:
        cfg = replace(cfg, duration_s=duration_s).validate()
    topo = gridmon.runner.build_run_topology(cfg, seed)
    log = gridmon.metrics.TraceLog() if trace else None
    sim = gridmon.simulation.Simulation(topo, cfg, seed, trace=log)
    built = time.perf_counter()
    sim.run()
    ran = time.perf_counter()
    sim.audit()
    if log is not None:
        WORK_DIR.mkdir(exist_ok=True)
        log.write(str(trace_path))
    end = time.perf_counter()

    result = OpResult("run", end - start, built - start, ran - built, sim.metrics.as_row())
    if log is not None:
        data = trace_path.read_bytes()
        trace_path.unlink()
        result.trace_sha256 = hashlib.sha256(data).hexdigest()
        result.trace_bytes = len(data)
    return result


def sweep_op(path: Path, seed: int, axis: str, value: int) -> OpResult:
    """One sweep cell through ``runner.sweep``, as criterion 6 drives it.

    Two coarse spans, one call each, give the cell's set-up and run times.
    """
    with Tracer(PHASE_TARGETS) as phases:
        start = time.perf_counter()
        cfg = gridmon.scenario.load_scenario(str(path))
        rows = gridmon.runner.sweep(cfg, axis, [value], [seed])
        end = time.perf_counter()
    init, run = phases.stat("simulation.init"), phases.stat("simulation.run")
    return OpResult(f"{axis}={value}", end - start, init.last_end - start, run.last_s, rows[0])


def clean118(seed: int) -> list:
    return [("run", lambda: scenario_op(SCENARIOS / "ieee118.ini", seed, CLEAN_DURATION_S))]


def sweep118(seed: int) -> list:
    path = SCENARIOS / "ieee118_sweep.ini"
    return [
        (f"{axis}={value}", lambda axis=axis, value=value: sweep_op(path, seed, axis, value))
        for axis, value in SWEEP_CELLS
    ]


def attack118_traced(seed: int) -> list:
    return [("run", lambda: scenario_op(SCENARIOS / "ieee118_attack.ini", seed, trace=True))]


# Workload name -> one pass of (key, callable) operations for a seed.  Why
# each was chosen is in BENCHMARK.json and README.md.
WORKLOADS = {f.__name__: f for f in (clean118, sweep118, attack118_traced)}
