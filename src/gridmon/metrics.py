"""Measurement accounting, run metrics, trace logging, CSV export.

Every reading is tracked from generation to a terminal state: once a run
drains, each one is delivered, dropped with a known cause, or still held at
a sink.  A reading rescued by a retransmission counts as delivered, not
dropped.

The event trace goes to an anonymous temporary file as the run goes, a batch
of lines at a time, so a long run never holds its whole trace in memory.
"""

from __future__ import annotations

import csv
import shutil
import tempfile
import weakref
from dataclasses import dataclass, fields

from .protocol import PacketKind, SensorReading

DROP_CAUSES = ("blackhole", "grayhole", "dead_battery", "no_route", "rejected")


class AuditError(AssertionError):
    pass


# ===== per-reading ledger =====


@dataclass
class ReadingState:
    reading: SensorReading
    status: str = "in_flight"  # in_flight | at_sink | delivered | dropped
    drop_cause: str | None = None
    delivered_at: float | None = None
    delivered_backup: bool = False
    aggregate_id: int | None = None
    retransmits: int = 0


class ReadingLedger:
    """Lifecycle bookkeeping for every generated reading."""

    def __init__(self):
        self.entries: dict[int, ReadingState] = {}

    def generated(self, reading: SensorReading) -> None:
        if reading.id in self.entries:
            raise AuditError(f"reading {reading.id} generated twice")
        self.entries[reading.id] = ReadingState(reading)

    def dropped(self, reading_id: int, cause: str) -> None:
        if cause not in DROP_CAUSES:
            raise AuditError(f"unknown drop cause {cause!r}")
        state = self.entries[reading_id]
        if state.status == "in_flight":
            state.status = "dropped"
            state.drop_cause = cause

    def resent(self, reading_id: int) -> None:
        state = self.entries[reading_id]
        state.status = "in_flight"
        state.drop_cause = None
        state.retransmits += 1

    def at_sink(self, reading_id: int) -> None:
        state = self.entries[reading_id]
        state.status = "at_sink"
        state.drop_cause = None

    def aggregated(self, reading_ids, aggregate_id: int) -> None:
        for rid in reading_ids:
            state = self.entries[rid]
            if state.aggregate_id is not None:
                raise AuditError(
                    f"reading {rid} joined aggregates {state.aggregate_id} and {aggregate_id}"
                )
            state.aggregate_id = aggregate_id

    def delivered(self, reading_ids, now: float, backup: bool) -> None:
        for rid in reading_ids:
            state = self.entries[rid]
            if backup:
                state.delivered_backup = True
            elif state.status != "delivered":
                state.status = "delivered"
                state.delivered_at = now

    def summarize(self, kind: PacketKind) -> dict:
        """Counts, drop breakdown, and delay list for one traffic kind."""
        generated = delivered = in_flight = 0
        drops = {cause: 0 for cause in DROP_CAUSES}
        delays: list[float] = []
        for state in self.entries.values():
            if state.reading.kind is not kind:
                continue
            generated += 1
            if state.status == "delivered":
                delivered += 1
                delays.append(state.delivered_at - state.reading.timestamp)
            elif state.status == "dropped":
                drops[state.drop_cause] += 1
            else:
                in_flight += 1
        return {
            "generated": generated,
            "delivered": delivered,
            "in_flight": in_flight,
            "drops": drops,
            "delays": delays,
        }

    def audit_closure(self, held=()) -> None:
        """Check every reading is delivered, dropped with a known cause, or
        among the ``held`` ids the sinks still buffer; raises AuditError
        otherwise."""
        held = set(held)
        for rid, state in self.entries.items():
            closed = state.status == "delivered" or rid in held or (
                state.status == "dropped" and state.drop_cause in DROP_CAUSES
            )
            if not closed:
                raise AuditError(
                    f"reading {rid} is {state.status} (cause {state.drop_cause}) "
                    "but neither delivered, dropped nor held at a sink"
                )


def mean(values: list[float]) -> float:
    # Left to right, as sum() added floats before Python 3.12 compensated it,
    # so every supported interpreter gives the same row.
    total = 0.0
    for value in values:
        total += value
    return total / len(values) if values else 0.0


def p95(values: list[float]) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = max(0, -(-len(ordered) * 95 // 100) - 1)  # ceil(0.95 n) - 1
    return ordered[index]


# ===== run metrics =====


@dataclass
class MetricsRecord:
    """Flat per-run summary; field order is the CSV column order."""

    seed: int = 0
    duration_s: float = 0.0
    scada_generated: int = 0
    scada_delivered: int = 0
    scada_in_flight: int = 0
    scada_dropped_blackhole: int = 0
    scada_dropped_grayhole: int = 0
    scada_dropped_dead_battery: int = 0
    scada_dropped_no_route: int = 0
    scada_dropped_rejected: int = 0
    delivery_ratio: float = 0.0
    delay_mean_s: float = 0.0
    delay_p95_s: float = 0.0
    pmu_generated: int = 0
    pmu_delivered: int = 0
    pmu_in_flight: int = 0
    pmu_delivery_ratio: float = 0.0
    pmu_delay_mean_s: float = 0.0
    packet_drops_total: int = 0
    packet_drops_blackhole: int = 0
    packet_drops_grayhole: int = 0
    packet_drops_dead_battery: int = 0
    packet_drops_no_route: int = 0
    tamper_rejections: int = 0
    reroutes: int = 0
    retransmissions: int = 0
    energy_consumed_j: float = 0.0
    dead_relays: int = 0
    dead_ehrns: int = 0
    events_processed: int = 0

    def as_row(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @staticmethod
    def field_names() -> list[str]:
        return [f.name for f in fields(MetricsRecord)]


# ===== trace log =====


# Trace lines held in memory before they are written to the spool file
# together; one write per batch costs less than one per line.
_BATCH = 4096


class TraceLog:
    """Ordered event lines; format is stable so equal seeds give equal bytes.

    Lines are kept in an anonymous temporary file, the spool, which ``write``
    copies to its destination.  The spool is closed when the log is collected,
    whether or not it was ever written.
    """

    def __init__(self):
        self._batch: list[str] = []
        spool = tempfile.TemporaryFile()
        self._spool = spool
        weakref.finalize(self, spool.close)

    def event(self, t: float, ev: str, pkt: int, src: int, dst: int, kind: str) -> None:
        batch = self._batch
        batch.append(f"t={t:.6f} ev={ev} pkt={pkt} src={src} dst={dst} kind={kind}\n")
        if len(batch) >= _BATCH:
            self._flush()

    def _flush(self) -> None:
        if self._batch:
            self._spool.write("".join(self._batch).encode("utf-8"))
            self._batch.clear()

    @property
    def lines(self) -> list[str]:
        """Every line so far, read back from the spool."""
        self._flush()
        self._spool.seek(0)
        return self._spool.read().decode("utf-8").splitlines()

    def write(self, path: str) -> None:
        self._flush()
        self._spool.seek(0)
        with open(path, "wb") as fh:
            shutil.copyfileobj(self._spool, fh)


# ===== CSV export =====


def export_csv(rows: list[dict], path: str, fieldnames: list[str]) -> None:
    """Write rows with a header; an empty table still gets its header row."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def read_csv(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))
