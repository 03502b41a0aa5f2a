"""gridmon: deterministic simulator for secure hybrid grid-monitoring networks.

Builds a wireless + optical communication overlay for a power-system case,
runs a three-module secure monitoring protocol (trust-scored cluster routing,
lightweight authenticated encryption, aggregation to redundant control
centers) under configurable node-capture attacks, and reports delivery,
delay, energy, and tamper-detection metrics.
"""

from .attacks import AttackConfig, AttackError, AttackPlan, apply_attack, tamper_bytes
from .crypto import (
    CURVES,
    CryptoError,
    CurveParams,
    KeyPair,
    ecdh_shared,
    keypair_from_private,
    keypair_generate,
    nested_hmac,
    pk_decrypt,
    pk_encrypt,
    rc5_ctr,
    rc5_encrypt_block,
    rc5_key_schedule,
)
from .engine import EnergyModel, EngineError, EventQueue, NeighborIndex, RadioModel, SimNode
from .metrics import AuditError, MetricsRecord, ReadingLedger, TraceLog, export_csv, read_csv
from .protocol import (
    Packet,
    PacketKind,
    ProtocolError,
    SensorReading,
    TamperRejected,
    candidate_value,
    elect_cluster_head,
    trust_value,
)
from .runner import build_run_topology, run_scenario, run_simulation, sweep
from .scenario import ScenarioConfig, ScenarioError, load_scenario
from .simulation import Simulation, child_rng
from .topology import (
    CaseError,
    PowerCase,
    Role,
    Topology,
    build_topology,
    load_power_case,
    parse_power_case,
)

__version__ = "0.1.0"
