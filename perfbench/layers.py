"""Per-layer timing from outside the package.

A ``Tracer`` replaces the public functions and methods of each gridmon
module with timing wrappers for the duration of a ``with`` block and puts
the originals back on exit, so untraced runs pay nothing.  A plain function
is patched in every ``gridmon`` namespace that bound it (``from .crypto
import rc5_ctr`` makes a second binding in ``gridmon.protocol``); a method
is patched on its class.

Every wrapped call is a span.  Spans nest on one stack, so each stat keeps
its total time and its self time, the total minus the time spent in wrapped
calls made from inside it.
"""

from __future__ import annotations

import importlib
import sys
import time

from gridmon.protocol import TamperRejected

_perf = time.perf_counter


class Stat:
    """Calls, total and self seconds, and per-target extras for one name."""

    __slots__ = ("calls", "total", "self_s", "last_end", "last_s", "extra")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_s = 0.0
        self.last_end = 0.0
        self.last_s = 0.0
        self.extra = 0


def _rc5_blocks(stat, args, exc):
    stat.extra += -(-len(args[2]) // 8)


def _plaintext_bytes(stat, args, exc):
    stat.extra += len(args[2])


def _rejected(stat, args, exc):
    if isinstance(exc, TamperRejected):
        stat.extra += 1


def _queue_depth(stat, args, exc):
    stat.extra = max(stat.extra, len(args[0]))


# (module, attribute or Class.method, stat name, observer).  Several targets
# may share one stat name; the ledger's bookkeeping methods do.
FULL_TARGETS = [
    ("gridmon.crypto", "scalar_mult", "crypto.scalar_mult", None),
    ("gridmon.crypto", "keypair_generate", "crypto.keypair_generate", None),
    ("gridmon.crypto", "ecdh_shared", "crypto.ecdh_shared", None),
    ("gridmon.crypto", "rc5_key_schedule", "crypto.rc5_key_schedule", None),
    ("gridmon.crypto", "rc5_ctr", "crypto.rc5_ctr", _rc5_blocks),
    ("gridmon.crypto", "hmac_tag", "crypto.hmac_tag", None),
    ("gridmon.crypto", "pk_encrypt", "crypto.pk_encrypt", _plaintext_bytes),
    ("gridmon.crypto", "pk_decrypt", "crypto.pk_decrypt", None),
    ("gridmon.protocol", "seal", "protocol.seal", None),
    ("gridmon.protocol", "open_sealed", "protocol.open_sealed", _rejected),
    ("gridmon.protocol", "build_aggregate", "protocol.build_aggregate", None),
    ("gridmon.protocol", "parse_aggregate", "protocol.parse_aggregate", None),
    ("gridmon.protocol", "elect_cluster_head", "protocol.elect_cluster_head", None),
    ("gridmon.engine", "EventQueue.schedule", "engine.schedule", _queue_depth),
    ("gridmon.engine", "NeighborIndex.alive_within", "engine.alive_within", None),
    ("gridmon.simulation", "Simulation.__init__", "simulation.init", None),
    ("gridmon.simulation", "Simulation.run", "simulation.run", None),
    ("gridmon.simulation", "Simulation.audit", "simulation.audit", None),
    ("gridmon.scenario", "load_scenario", "scenario.load", None),
    ("gridmon.runner", "build_run_topology", "topology.build", None),
    ("gridmon.runner", "run_scenario", "runner.cell", None),
    ("gridmon.attacks", "AttackPlan.behavior", "attacks.behavior", None),
    ("gridmon.attacks", "tamper_bytes", "attacks.tamper_bytes", None),
    ("gridmon.metrics", "TraceLog.event", "metrics.trace_event", None),
    ("gridmon.metrics", "TraceLog.write", "metrics.trace_write", None),
    ("gridmon.metrics", "ReadingLedger.generated", "metrics.ledger", None),
    ("gridmon.metrics", "ReadingLedger.dropped", "metrics.ledger", None),
    ("gridmon.metrics", "ReadingLedger.resent", "metrics.ledger", None),
    ("gridmon.metrics", "ReadingLedger.at_sink", "metrics.ledger", None),
    ("gridmon.metrics", "ReadingLedger.aggregated", "metrics.ledger", None),
    ("gridmon.metrics", "ReadingLedger.delivered", "metrics.ledger", None),
    ("gridmon.metrics", "ReadingLedger.audit_closure", "metrics.audit_closure", None),
]

# The two coarse spans an untraced sweep cell needs for its set-up and run
# times: one wrapped call each per cell.
PHASE_TARGETS = [t for t in FULL_TARGETS if t[2] in ("simulation.init", "simulation.run")]


def _bindings(target):
    """Every (owner, attribute) that holds the target's original object."""
    module_name, attr, _, _ = target
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(module, cls_name)
        return cls.__dict__[meth], [(cls, meth)]
    original = getattr(module, attr)
    owners = [
        (mod, name)
        for mod_name, mod in sorted(sys.modules.items())
        if mod is not None and (mod_name == "gridmon" or mod_name.startswith("gridmon."))
        for name, value in list(vars(mod).items())
        if value is original
    ]
    return original, owners


class Tracer:
    """Context manager that wraps the targets and restores them on exit."""

    def __init__(self, targets=FULL_TARGETS):
        self.targets = targets
        self.stats: dict[str, Stat] = {}
        self._stack: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, stat: Stat, observe):
        stack = self._stack

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            exc = None
            start = _perf()
            try:
                return fn(*args, **kwargs)
            except BaseException as err:
                exc = err
                raise
            finally:
                end = _perf()
                spent = end - start
                children = stack.pop()
                stat.calls += 1
                stat.total += spent
                stat.self_s += spent - children
                stat.last_end = end
                stat.last_s = spent
                if stack:
                    stack[-1] += spent
                if observe is not None:
                    observe(stat, args, exc)

        wrapper.__wrapped__ = fn
        return wrapper

    def __enter__(self) -> "Tracer":
        try:
            for target in self.targets:
                stat = self.stats.setdefault(target[2], Stat())
                original, owners = _bindings(target)
                wrapper = self._wrap(original, stat, target[3])
                for owner, name in owners:
                    self._patched.append((owner, name, original))
                    setattr(owner, name, wrapper)
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    def stat(self, name: str) -> Stat:
        return self.stats.get(name) or Stat()


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if name.endswith("_ms") or name.endswith(".ms_per_call"):
        return "ms"
    if name.endswith("_us") or "us_per_" in name:
        return "us"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("bytes"):
        return "B"
    if name.endswith("ratio") or name.endswith("overhead"):
        return "ratio"
    return "count"


def layer_metrics(tracer: Tracer, events: int, trace_bytes: int) -> dict[str, float]:
    """The per-layer metric values from one traced pass."""
    s = tracer.stat
    sm, rc5, ks = s("crypto.scalar_mult"), s("crypto.rc5_ctr"), s("crypto.rc5_key_schedule")
    opened, run = s("protocol.open_sealed"), s("simulation.run")
    return {
        "crypto.scalar_mult.calls": sm.calls,
        "crypto.scalar_mult.s": sm.total,
        "crypto.scalar_mult.ms_per_call": 1e3 * sm.total / max(sm.calls, 1),
        "crypto.keypair_generate.calls": s("crypto.keypair_generate").calls,
        "crypto.ecdh_shared.calls": s("crypto.ecdh_shared").calls,
        "crypto.rc5_key_schedule.calls": ks.calls,
        "crypto.rc5_key_schedule.s": ks.total,
        "crypto.rc5_ctr.calls": rc5.calls,
        "crypto.rc5_ctr.blocks": rc5.extra,
        "crypto.rc5_ctr.self_s": rc5.self_s,
        "crypto.rc5_ctr.us_per_block": 1e6 * rc5.self_s / max(rc5.extra, 1),
        "crypto.hmac_tag.calls": s("crypto.hmac_tag").calls,
        "crypto.hmac_tag.s": s("crypto.hmac_tag").total,
        "crypto.pk_encrypt.calls": s("crypto.pk_encrypt").calls,
        "crypto.pk_encrypt.s": s("crypto.pk_encrypt").total,
        "crypto.pk_encrypt.bytes": s("crypto.pk_encrypt").extra,
        "crypto.pk_decrypt.calls": s("crypto.pk_decrypt").calls,
        "crypto.pk_decrypt.s": s("crypto.pk_decrypt").total,
        "protocol.seal.calls": s("protocol.seal").calls,
        "protocol.seal.s": s("protocol.seal").total,
        "protocol.open_sealed.calls": opened.calls,
        "protocol.open_sealed.s": opened.total,
        "protocol.open_sealed.rejected": opened.extra,
        "protocol.open_sealed.accept_ratio": (opened.calls - opened.extra) / max(opened.calls, 1),
        "protocol.build_aggregate.s": s("protocol.build_aggregate").total,
        "protocol.parse_aggregate.s": s("protocol.parse_aggregate").total,
        "protocol.elect_cluster_head.calls": s("protocol.elect_cluster_head").calls,
        "engine.events": events,
        "engine.schedule.calls": s("engine.schedule").calls,
        "engine.schedule.s": s("engine.schedule").total,
        "engine.queue_depth_max": s("engine.schedule").extra,
        "engine.alive_within.calls": s("engine.alive_within").calls,
        "engine.alive_within.s": s("engine.alive_within").total,
        "simulation.init_s": s("simulation.init").total,
        "simulation.run_s": run.total,
        "simulation.run.self_s": run.self_s,
        "simulation.us_per_event": 1e6 * run.total / max(events, 1),
        "simulation.audit_s": s("simulation.audit").total,
        "topology.build_s": s("topology.build").total,
        "scenario.load_s": s("scenario.load").total,
        "runner.cells": s("runner.cell").calls,
        "attacks.behavior.calls": s("attacks.behavior").calls,
        "attacks.tamper_bytes.calls": s("attacks.tamper_bytes").calls,
        "metrics.trace_event.calls": s("metrics.trace_event").calls,
        "metrics.trace_event.s": s("metrics.trace_event").total,
        "metrics.trace_write_s": s("metrics.trace_write").total,
        "metrics.trace_bytes": trace_bytes,
        "metrics.ledger.s": s("metrics.ledger").total,
        "metrics.audit_closure_s": s("metrics.audit_closure").total,
    }
