#!/usr/bin/env python3
"""gridmon benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root):
    python3 perfbench/run.py --workload clean118 --seed 1 --seconds 38 --trace 0

``--trace 0`` repeats passes of the workload's operations for about
``--seconds`` and reports the end-to-end metrics as medians over the
operations, each time taken at nominal host speed (see ``hostspeed.py``).  ``--trace 1`` runs one untraced pass, one
pass under the per-layer tracer and the microbenchmarks, and reports the
per-layer metrics.  Every operation's outputs are checked against
``reference.json`` for seeds recorded there; for other seeds, against the
audit, the pass's first operation with the same input, and (traced) the
untraced pass.  Human-readable lines come first; the last line is JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from hostspeed import HostSpeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"

E2E_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "events_per_s": "1/s",
    "readings_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def _require_checkout() -> None:
    needed = [ROOT / "src" / "gridmon" / "__init__.py", ROOT / "scenarios" / "ieee118.ini"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        sys.exit(f"perfbench: not a gridmon checkout, missing {', '.join(missing)}")


class Checker:
    """Counts attempted and failed operations and says why each failed."""

    def __init__(self, workload: str, seed: int):
        refs = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
        self.reference = refs.get(workload, {}).get(str(seed))
        self.first: dict[str, object] = {}
        self.attempted = 0
        self.failed = 0

    def run(self, key: str, op):
        """Run one operation; returns its result, or None if it failed."""
        self.attempted += 1
        try:
            result = op()
        except Exception:  # any exception is a failed operation, not a crash
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None
        expected = (self.reference or {}).get(key) or self.first.setdefault(
            key, {"record": result.record, "trace_sha256": result.trace_sha256})
        problem = mismatch(expected, result)
        if problem:
            print(f"perfbench: {key}: {problem}", file=sys.stderr)
            self.failed += 1
            return None
        return result


def mismatch(expected: dict, result) -> str | None:
    """Compare the stored fields only, so a field added later is no failure."""
    for name, want in expected["record"].items():
        got = result.record.get(name, "<missing>")
        if got != want:
            return f"{name} is {got!r}, expected {want!r}"
    if expected.get("trace_sha256") and result.trace_sha256 != expected["trace_sha256"]:
        return f"trace sha256 {result.trace_sha256} differs from {expected['trace_sha256']}"
    return None


def run_pass(operations, checker: Checker) -> list:
    return [r for r in (checker.run(key, op) for key, op in operations) if r is not None]


def with_slowdown(operations, host: HostSpeed) -> list:
    """The operations, each recording the host's slowdown while it ran."""
    def measured(op):
        since, began = host.mark()
        result = op()
        built = began + result.setup_s
        result.slowdown = host.slowdown(since)
        result.setup_slowdown = host.slowdown(since, began, built)
        result.run_slowdown = host.slowdown(since, built, built + result.run_s)
        return result

    return [(key, lambda op=op: measured(op)) for key, op in operations]


def end_to_end(operations, checker: Checker, seconds: float) -> dict[str, float]:
    start = time.perf_counter()
    results, pass_times = [], []
    with HostSpeed() as host:
        operations = with_slowdown(operations, host)
        while True:
            began = time.perf_counter()
            results += run_pass(operations, checker)
            pass_times.append(time.perf_counter() - began)
            # Another pass is started when it would end nearer to the deadline
            # than stopping now does, so the measured time averages to --seconds.
            if time.perf_counter() - start + statistics.median(pass_times) / 2 >= seconds:
                break
    if not results:
        return {}
    med = statistics.median
    print(f"raw medians over {len(results)} operations: "
          f"wall {med(r.wall_s for r in results):.4f} s, "
          f"setup {med(r.setup_s for r in results):.4f} s; "
          f"host slowdown median {med(r.slowdown for r in results):.3f}")
    # Times at nominal host speed: each raw time over the host's slowdown
    # while it was measured.
    return {
        "wall_s": med(r.wall_s / r.slowdown for r in results),
        "setup_s": med(r.setup_s / r.setup_slowdown for r in results),
        "events_per_s": med(r.events * r.run_slowdown / r.run_s for r in results),
        "readings_per_s": med(r.readings * r.slowdown / r.wall_s for r in results),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(operations, checker: Checker, seed: int) -> dict[str, float]:
    from layers import Tracer, layer_metrics
    from micro import micro_metrics

    plain = run_pass(operations, checker)
    with Tracer() as tracer:
        traced = run_pass(operations, checker)
    # The checker held each traced operation to the reference or, for a seed
    # with none, to the untraced pass.
    if len(plain) != len(operations) or len(traced) != len(operations):
        return {}
    traced_wall = sum(r.wall_s for r in traced)
    metrics = layer_metrics(tracer, sum(r.events for r in traced),
                            sum(r.trace_bytes for r in traced))
    metrics["traced_wall_s"] = traced_wall
    metrics["trace_overhead"] = traced_wall / sum(r.wall_s for r in plain)
    metrics.update(micro_metrics(seed))
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _require_checkout()
    sys.path.insert(0, str(ROOT / "src"))
    from layers import unit_of
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; pick one of {sorted(WORKLOADS)}")
    operations = WORKLOADS[args.workload](args.seed)
    checker = Checker(args.workload, args.seed)
    if args.trace:
        values = per_layer(operations, checker, args.seed)
    else:
        values = end_to_end(operations, checker, args.seconds)

    print(f"machine: nproc={os.cpu_count()} python={platform.python_version()}")
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"reference={'stored' if checker.reference else 'none, self-consistency only'}")
    metrics = {}
    for name, value in values.items():
        unit = E2E_UNITS.get(name) or unit_of(name)
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:<36} {value:>14.6g} {unit}")
    print(f"  {'error_rate':<36} {checker.failed / checker.attempted:>14.6g} "
          f"({checker.failed} failed of {checker.attempted} operations)")
    correct = checker.failed == 0 and bool(values)
    print(json.dumps({"correct": correct, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
