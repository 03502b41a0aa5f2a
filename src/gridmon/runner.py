"""Run and sweep drivers on top of the simulation core."""

from __future__ import annotations

from dataclasses import replace

from .metrics import MetricsRecord, TraceLog, mean
from .scenario import ScenarioConfig, ScenarioError
from .simulation import Simulation, child_rng
from .topology import Topology, build_topology, load_power_case

SWEEP_AXES = ("compromised", "malicious")


def build_run_topology(cfg: ScenarioConfig, seed: int) -> Topology:
    case = load_power_case(cfg.case_path)
    return build_topology(case, cfg.d_km, cfg.relays, cfg.ehrns, child_rng(seed, "deploy"))


def run_simulation(cfg: ScenarioConfig, seed: int | None = None,
                   trace: TraceLog | None = None) -> Simulation:
    """Build the topology, run to drain, audit the books, return the sim."""
    cfg.validate()
    seed = cfg.seed if seed is None else seed
    topo = build_run_topology(cfg, seed)
    sim = Simulation(topo, cfg, seed, trace=trace)
    sim.run()
    sim.audit()
    return sim


def run_scenario(cfg: ScenarioConfig, seed: int | None = None,
                 trace_path: str | None = None) -> MetricsRecord:
    trace = TraceLog() if trace_path is not None else None
    sim = run_simulation(cfg, seed, trace)
    if trace is not None:
        trace.write(trace_path)
    return sim.metrics


def sweep_fieldnames() -> list[str]:
    return ["axis", "value", *MetricsRecord.field_names()]


def sweep(cfg: ScenarioConfig, axis: str, values: list[int], seeds: list[int]) -> list[dict]:
    """Repeat the scenario along one attack axis.

    Emits one row per (value, seed) followed by a ``seed="mean"`` row that
    averages the block, so plots can use the mean rows directly.
    """
    if axis not in SWEEP_AXES:
        raise ScenarioError(f"unknown sweep axis {axis!r}; pick one of {SWEEP_AXES}")
    if not values or not seeds:
        raise ScenarioError("sweep needs at least one value and one seed")
    field = "compromised_count" if axis == "compromised" else "tamper_count"
    rows: list[dict] = []
    numeric = [name for name in MetricsRecord.field_names() if name != "seed"]
    for value in values:
        attacked = replace(cfg, attack=replace(cfg.attack, **{field: value}))
        block: list[dict] = []
        for seed in seeds:
            record = run_scenario(attacked, seed=seed)
            block.append({"axis": axis, "value": value, **record.as_row()})
        rows.extend(block)
        summary = {"axis": axis, "value": value, "seed": "mean"}
        for name in numeric:
            summary[name] = mean([row[name] for row in block])
        rows.append(summary)
    return rows
