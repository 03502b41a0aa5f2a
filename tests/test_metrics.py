"""Reading lifecycle ledger, summary statistics, traces, and CSV IO."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridmon.metrics import (
    AuditError,
    MetricsRecord,
    PacketKind,
    ReadingLedger,
    SensorReading,
    TraceLog,
    export_csv,
    mean,
    p95,
    read_csv,
)


def reading(rid, kind=PacketKind.SCADA, ts=0.0):
    return SensorReading(id=rid, kind=kind, bus=1, substation=1, timestamp=ts, value=1.0)


# ===== ledger lifecycle =====


def test_ledger_happy_path_delivery():
    ledger = ReadingLedger()
    ledger.generated(reading(1, ts=2.0))
    ledger.at_sink([1])
    ledger.aggregated([1], aggregate_id=500)
    ledger.delivered([1], now=2.75, backup=False)
    s = ledger.summarize(PacketKind.SCADA)
    assert s["generated"] == 1 and s["delivered"] == 1
    assert s["delays"] == [0.75]
    ledger.audit_closure()


def test_ledger_rejects_duplicate_generation():
    ledger = ReadingLedger()
    ledger.generated(reading(1))
    with pytest.raises(AuditError):
        ledger.generated(reading(1))


def test_ledger_rejects_unknown_drop_cause():
    ledger = ReadingLedger()
    ledger.generated(reading(1))
    with pytest.raises(AuditError):
        ledger.dropped([1], "gremlins")


def test_ledger_rejects_double_aggregation():
    ledger = ReadingLedger()
    ledger.generated(reading(1))
    ledger.at_sink([1])
    ledger.aggregated([1], aggregate_id=7)
    with pytest.raises(AuditError):
        ledger.aggregated([1], aggregate_id=8)


def test_drop_only_applies_to_in_flight_readings():
    ledger = ReadingLedger()
    ledger.generated(reading(1))
    ledger.at_sink([1])
    ledger.dropped([1], "blackhole")  # already safe at the sink: no effect
    s = ledger.summarize(PacketKind.SCADA)
    assert s["drops"]["blackhole"] == 0 and s["in_flight"] == 1


def test_resend_clears_drop_and_counts_retransmit():
    ledger = ReadingLedger()
    ledger.generated(reading(1))
    ledger.dropped([1], "rejected")
    ledger.resent(1)
    assert ledger.entries[1].status == "in_flight"
    assert ledger.entries[1].retransmits == 1
    ledger.at_sink([1])
    ledger.delivered([1], now=1.0, backup=False)
    ledger.audit_closure()
    assert ledger.summarize(PacketKind.SCADA)["delivered"] == 1


def test_backup_delivery_does_not_double_count():
    ledger = ReadingLedger()
    ledger.generated(reading(1, ts=1.0))
    ledger.at_sink([1])
    ledger.delivered([1], now=2.0, backup=False)
    ledger.delivered([1], now=3.0, backup=True)
    state = ledger.entries[1]
    assert state.delivered_at == 2.0  # primary copy set the clock
    assert state.delivered_backup
    assert ledger.summarize(PacketKind.SCADA)["delivered"] == 1


def test_duplicate_primary_delivery_keeps_first_timestamp():
    ledger = ReadingLedger()
    ledger.generated(reading(1, ts=0.0))
    ledger.at_sink([1])
    ledger.delivered([1], now=1.5, backup=False)
    ledger.delivered([1], now=9.0, backup=False)
    assert ledger.entries[1].delivered_at == 1.5


def test_audit_closure_flags_lost_readings():
    ledger = ReadingLedger()
    ledger.generated(reading(1))
    ledger.entries[1].status = "dropped"  # dropped without a cause bucket
    ledger.entries[1].drop_cause = None
    with pytest.raises(AuditError):
        ledger.audit_closure()


def test_audit_closure_flags_in_flight_readings_no_sink_holds():
    ledger = ReadingLedger()
    ledger.generated(reading(1))
    ledger.generated(reading(2, PacketKind.PMU))
    ledger.at_sink([2])
    ledger.audit_closure(held=[1, 2])  # both still buffered at a sink
    with pytest.raises(AuditError):
        ledger.audit_closure(held=[2])  # reading 1 is nowhere
    with pytest.raises(AuditError):
        ledger.audit_closure()


def test_summarize_separates_kinds():
    ledger = ReadingLedger()
    ledger.generated(reading(1, PacketKind.SCADA))
    ledger.generated(reading(2, PacketKind.PMU))
    ledger.dropped([2], "grayhole")
    scada = ledger.summarize(PacketKind.SCADA)
    pmu = ledger.summarize(PacketKind.PMU)
    assert scada["generated"] == 1 and scada["in_flight"] == 1
    assert pmu["generated"] == 1 and pmu["drops"]["grayhole"] == 1


# ===== statistics =====


def test_mean_and_p95_basics():
    assert mean([]) == 0.0 and p95([]) == 0.0
    assert mean([2.0, 4.0]) == 3.0
    assert p95([5.0]) == 5.0
    values = [float(i) for i in range(1, 101)]  # 1..100
    assert p95(values) == 95.0  # ceil(0.95 * 100) - 1 = index 94
    assert p95(values[:20]) == 19.0  # ceil(19) - 1 = index 18


@given(st.lists(st.floats(0, 1e6, allow_nan=False), min_size=1, max_size=200))
def test_p95_is_order_statistic(values):
    v = p95(values)
    assert min(values) <= v <= max(values)
    at_most = sum(1 for x in values if x <= v)
    assert at_most >= 0.95 * len(values) - 1e-9


# ===== metrics record =====


def test_metrics_record_field_names_match_dataclass():
    record = MetricsRecord(seed=3, scada_generated=10, scada_delivered=9)
    row = record.as_row()
    assert list(row.keys()) == MetricsRecord.field_names()
    assert row["seed"] == 3 and row["scada_delivered"] == 9


# ===== trace log =====


def test_trace_line_format_is_stable():
    log = TraceLog()
    log.event(1.25, "send", pkt=7, src=100, dst=200, kind="scada")
    log.event(1.5, "drop", pkt=7, src=100, dst=200, kind="scada")
    assert log.lines == [
        "t=1.250000 ev=send pkt=7 src=100 dst=200 kind=scada",
        "t=1.500000 ev=drop pkt=7 src=100 dst=200 kind=scada",
    ]


def test_trace_write_roundtrip(tmp_path):
    log = TraceLog()
    log.event(0.002, "deliver", pkt=1, src=5, dst=6, kind="pmu")
    out = tmp_path / "trace.log"
    log.write(str(out))
    assert out.read_text() == "t=0.002000 ev=deliver pkt=1 src=5 dst=6 kind=pmu\n"


# ===== csv io =====


def test_csv_roundtrip(tmp_path):
    rows = [
        {"axis": "compromised", "value": 4, "seed": 1, "delivery_ratio": 0.97},
        {"axis": "compromised", "value": 8, "seed": 1, "delivery_ratio": 0.91},
    ]
    path = tmp_path / "rows.csv"
    export_csv(rows, str(path))
    back = read_csv(str(path))
    assert [r["value"] for r in back] == ["4", "8"]  # csv is stringly typed
    assert float(back[0]["delivery_ratio"]) == 0.97


def test_csv_header_only_when_fieldnames_given(tmp_path):
    path = tmp_path / "empty.csv"
    export_csv([], str(path), fieldnames=["a", "b"])
    assert path.read_text().strip() == "a,b"
    with pytest.raises(ValueError):
        export_csv([], str(tmp_path / "nope.csv"))
