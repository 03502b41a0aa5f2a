"""Command-line interface.

Subcommands:
  run       one seeded scenario run; metrics to stdout and optionally CSV
  sweep     repeat a scenario along an attack axis over several seeds
  topology  build and export the communication graph for a case file

Exit codes: 0 on success, 1 on configuration or input errors, 2 on usage
errors (unknown flags, missing arguments), 3 when a run's ledger audit fails.
"""

from __future__ import annotations

import argparse
import itertools
import random
import sys

from .crypto import CryptoError
from .engine import EngineError
from .metrics import AuditError, export_csv
from .runner import SWEEP_AXES, run_scenario, sweep, sweep_fieldnames
from .scenario import ScenarioError, load_scenario
from .topology import CaseError, build_topology, distance, export_topology, load_power_case

_INPUT_ERRORS = (ScenarioError, CaseError, CryptoError, EngineError, OSError, ValueError)


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gridmon",
                                     description="hybrid grid-monitoring network simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario")
    p_run.add_argument("--scenario", required=True, help="scenario .ini file")
    p_run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_run.add_argument("--out", default=None, help="write the metrics row to this CSV")
    p_run.add_argument("--trace", default=None, help="write the event trace to this file")

    p_sweep = sub.add_parser("sweep", help="sweep an attack axis")
    p_sweep.add_argument("--scenario", required=True)
    p_sweep.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p_sweep.add_argument("--values", required=True, type=_int_list,
                         help="comma-separated attacker counts, e.g. 0,1,2,4")
    p_sweep.add_argument("--seeds", required=True, type=_int_list,
                         help="comma-separated seeds, e.g. 1,2,3")
    p_sweep.add_argument("--out", required=True, help="output CSV")

    p_topo = sub.add_parser("topology", help="build and export the graph")
    p_topo.add_argument("--case", required=True, help="power case file")
    p_topo.add_argument("--out", required=True, help="output node/edge list")
    p_topo.add_argument("--d-km", type=float, default=None,
                        help="region radius; default: half the mean substation spacing")
    p_topo.add_argument("--relays", type=int, default=0)
    p_topo.add_argument("--ehrns", type=int, default=0)
    p_topo.add_argument("--seed", type=int, default=0)
    return parser


def _default_d_km(case) -> float:
    positions = [sub.position for sub in case.substations.values()]
    gaps = [distance(p, q) for p, q in itertools.combinations(positions, 2)]
    if not gaps:
        return 1.0
    return max(sum(gaps) / len(gaps) / 2.0, 1e-9)


def _cmd_run(args) -> int:
    cfg = load_scenario(args.scenario)
    record = run_scenario(cfg, seed=args.seed, trace_path=args.trace)
    print(f"scenario={cfg.name} seed={record.seed} "
          f"delivery_ratio={record.delivery_ratio:.4f} "
          f"delay_mean_s={record.delay_mean_s:.6f} "
          f"pmu_delivery_ratio={record.pmu_delivery_ratio:.4f} "
          f"tamper_rejections={record.tamper_rejections} "
          f"energy_j={record.energy_consumed_j:.3f}")
    if args.out:
        export_csv([record.as_row()], args.out)
    return 0


def _cmd_sweep(args) -> int:
    cfg = load_scenario(args.scenario)
    rows = sweep(cfg, args.axis, args.values, args.seeds)
    export_csv(rows, args.out, fieldnames=sweep_fieldnames())
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _cmd_topology(args) -> int:
    case = load_power_case(args.case)
    d_km = args.d_km if args.d_km is not None else _default_d_km(case)
    topo = build_topology(case, d_km, args.relays, args.ehrns,
                          random.Random(f"{args.seed}:deploy"))
    export_topology(topo, args.out)
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
