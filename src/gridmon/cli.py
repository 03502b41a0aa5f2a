"""Command-line interface.

Subcommands:
  run       one seeded scenario run; metrics to stdout and optionally CSV
  sweep     repeat a scenario along an attack axis over several seeds
  topology  export the communication graph a run of the scenario builds

Exit codes: 0 on success, 1 on configuration or input errors, 2 on usage
errors (unknown flags, missing arguments), 3 when a run's ledger audit fails.
"""

from __future__ import annotations

import argparse
import sys

from .metrics import AuditError, MetricsRecord, export_csv
from .runner import SWEEP_AXES, build_run_topology, run_scenario, sweep, sweep_fieldnames
from .scenario import load_scenario
from .topology import export_topology

# ScenarioError, CaseError, CryptoError and EngineError are all ValueErrors.
_INPUT_ERRORS = (OSError, ValueError)


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


def _output_path(text: str) -> str:
    if not text:
        raise argparse.ArgumentTypeError("expected a file path, got an empty string")
    return text


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gridmon",
                                     description="hybrid grid-monitoring network simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario")
    p_run.add_argument("--scenario", required=True, help="scenario .ini file")
    p_run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_run.add_argument("--out", type=_output_path, default=None,
                       help="write the metrics row to this CSV")
    p_run.add_argument("--trace", type=_output_path, default=None,
                       help="write the event trace to this file")

    p_sweep = sub.add_parser("sweep", help="sweep an attack axis")
    p_sweep.add_argument("--scenario", required=True)
    p_sweep.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p_sweep.add_argument("--values", required=True, type=_int_list,
                         help="comma-separated attacker counts, e.g. 0,1,2,4")
    p_sweep.add_argument("--seeds", required=True, type=_int_list,
                         help="comma-separated seeds, e.g. 1,2,3")
    p_sweep.add_argument("--out", required=True, type=_output_path, help="output CSV")

    p_topo = sub.add_parser("topology", help="export the graph a run builds")
    p_topo.add_argument("--scenario", required=True, help="scenario .ini file")
    p_topo.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_topo.add_argument("--out", required=True, type=_output_path, help="output node/edge list")
    return parser


def _cmd_run(args) -> int:
    cfg = load_scenario(args.scenario)
    record = run_scenario(cfg, seed=args.seed, trace_path=args.trace)
    print(f"scenario={cfg.name} seed={record.seed} "
          f"delivery_ratio={record.delivery_ratio:.4f} "
          f"delay_mean_s={record.delay_mean_s:.6f} "
          f"pmu_delivery_ratio={record.pmu_delivery_ratio:.4f} "
          f"tamper_rejections={record.tamper_rejections} "
          f"energy_j={record.energy_consumed_j:.3f}")
    if args.out is not None:
        export_csv([record.as_row()], args.out, fieldnames=MetricsRecord.field_names())
    return 0


def _cmd_sweep(args) -> int:
    cfg = load_scenario(args.scenario)
    rows = sweep(cfg, args.axis, args.values, args.seeds)
    export_csv(rows, args.out, fieldnames=sweep_fieldnames())
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _cmd_topology(args) -> int:
    cfg = load_scenario(args.scenario)
    topo = build_run_topology(cfg, cfg.seed if args.seed is None else args.seed)
    export_topology(topo, args.out)
    case = topo.case
    print(f"case={case.name} substations={len(case.substations)} "
          f"regions={len(topo.regions)} pmu_buses={len(topo.pmu_buses)} "
          f"nodes={len(topo.nodes)} -> {args.out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage problems itself
        return int(exc.code or 0)
    handler = {"run": _cmd_run, "sweep": _cmd_sweep, "topology": _cmd_topology}[args.command]
    try:
        return handler(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AuditError as exc:
        print(f"error: audit failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
