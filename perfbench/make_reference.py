#!/usr/bin/env python3
"""Record every workload's per-operation outputs into reference.json.

Run it at a commit whose outputs are known good; the benchmark then counts
any operation whose ``MetricsRecord`` fields or trace digest differ from the
stored ones as failed.  Only the fields stored here are compared, so a field
added to ``MetricsRecord`` later is not a failure.

Usage (from the repository root):
    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import WORKLOADS  # noqa: E402

SEEDS = range(0, 21)


def main() -> int:
    reference: dict = {}
    for name, operations in WORKLOADS.items():
        for seed in SEEDS:
            entry = {}
            for key, op in operations(seed):
                result = op()
                entry[key] = {"record": result.record}
                if result.trace_sha256:
                    entry[key]["trace_sha256"] = result.trace_sha256
            reference.setdefault(name, {})[str(seed)] = entry
            print(f"{name} seed {seed}: {len(entry)} operations", flush=True)
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
