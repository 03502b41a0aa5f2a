"""Scenario configuration: a sectioned key-value file over typed defaults.

Every knob a run needs lives here; scenario files override only what they
care about.  Unknown sections or keys are errors so typos cannot silently
fall back to defaults.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, field, fields, replace

from .attacks import AttackConfig
from .crypto import CURVES, CurveParams
from .engine import EnergyModel, RadioModel


class ScenarioError(ValueError):
    pass


@dataclass(frozen=True)
class ScenarioConfig:
    # [case]
    case_path: str = ""
    d_km: float = 35.0
    # [deploy]
    relays: int = 150
    ehrns: int = 60
    # [radio]
    range_m: float = 30000.0
    bitrate_bps: float = 250000.0
    mac_overhead_s: float = 0.002
    # [energy]
    e_elec_j_per_bit: float = 50e-9
    e_amp_j_per_bit_m2: float = 1e-13
    relay_battery_j: float = 100.0
    ehrn_capacity_j: float = 50.0
    ehrn_recharge_w: float = 5.0
    # [crypto]
    curve: str = "secp256k1"
    # [protocol]
    k_test: int = 20
    aggregation_window_s: float = 1.0
    pmu_rate_hz: float = 30.0
    scada_interval_s: float = 2.0
    setup_s: float = 1.0
    settle_s: float = 2.0
    intra_substation_latency_s: float = 0.002
    wired_latency_s: float = 0.001
    # [attack]
    attack: AttackConfig = field(default_factory=AttackConfig)
    # [run]
    duration_s: float = 30.0
    seed: int = 1
    name: str = "scenario"

    def radio(self) -> RadioModel:
        return RadioModel(self.range_m, self.bitrate_bps, self.mac_overhead_s)

    def energy(self) -> EnergyModel:
        return EnergyModel(self.e_elec_j_per_bit, self.e_amp_j_per_bit_m2)

    def curve_obj(self) -> CurveParams:
        if self.curve not in CURVES:
            raise ScenarioError(f"unknown curve {self.curve!r}; known: {sorted(CURVES)}")
        return CURVES[self.curve]

    def validate(self) -> "ScenarioConfig":
        if not self.case_path:
            raise ScenarioError("[case] path is required")
        # NaN passes every range check below, and inf overflows the clock.
        floats = [(f.name, getattr(self, f.name)) for f in fields(self) if f.type == "float"]
        for key, value in floats + [("activation_time", self.attack.activation_time)]:
            if not math.isfinite(value):
                section = next(sec for sec, keys in _SECTION_KEYS.items() if key in keys)
                raise ScenarioError(f"[{section}] {key} must be finite, got {value}")
        if self.d_km <= 0:
            raise ScenarioError(f"[case] d_km must be positive, got {self.d_km}")
        if self.relays < 0 or self.ehrns < 0:
            raise ScenarioError("[deploy] counts must be non-negative")
        if self.range_m <= 0 or self.bitrate_bps <= 0 or self.mac_overhead_s < 0:
            raise ScenarioError("[radio] parameters out of range")
        if min(self.e_elec_j_per_bit, self.e_amp_j_per_bit_m2) < 0:
            raise ScenarioError("[energy] coefficients must be non-negative")
        if min(self.relay_battery_j, self.ehrn_capacity_j) <= 0 or self.ehrn_recharge_w < 0:
            raise ScenarioError("[energy] battery parameters out of range")
        if self.k_test < 1:
            raise ScenarioError("[protocol] k_test must be at least 1")
        if self.aggregation_window_s <= 0 or self.pmu_rate_hz <= 0 or self.scada_interval_s <= 0:
            raise ScenarioError("[protocol] rates and windows must be positive")
        if self.setup_s <= 0 or self.settle_s < 0:
            raise ScenarioError("[protocol] timing parameters out of range")
        if self.intra_substation_latency_s < 0 or self.wired_latency_s < 0:
            raise ScenarioError("[protocol] latencies must be non-negative")
        if self.duration_s <= 0:
            raise ScenarioError(f"[run] duration_s must be positive, got {self.duration_s}")
        if self.attack.activation_time < 0:
            raise ScenarioError("[attack] activation_time must be non-negative")
        self.curve_obj()
        return self


_SECTION_KEYS = {
    "case": {"path", "d_km"},
    "deploy": {"relays", "ehrns"},
    "radio": {"range_m", "bitrate_bps", "mac_overhead_s"},
    "energy": {
        "e_elec_j_per_bit", "e_amp_j_per_bit_m2",
        "relay_battery_j", "ehrn_capacity_j", "ehrn_recharge_w",
    },
    "crypto": {"curve"},
    "protocol": {
        "k_test", "aggregation_window_s", "pmu_rate_hz", "scada_interval_s",
        "setup_s", "settle_s", "intra_substation_latency_s", "wired_latency_s",
    },
    "attack": {
        "compromised_count", "tamper_count", "blackhole_nodes",
        "grayhole", "tamper_nodes", "activation_time",
    },
    "run": {"duration_s", "seed", "name"},
}

_FIELD_TYPES = {f.name: f.type for f in fields(ScenarioConfig)}


def _convert(key: str, raw: str):
    kind = _FIELD_TYPES.get(key, "str")
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        return raw
    except ValueError:
        raise ScenarioError(f"bad value {raw!r} for {key}") from None


def _parse_attack(section) -> AttackConfig:
    def ids(key):
        raw = section.get(key, "")
        try:
            return frozenset(int(tok) for tok in raw.split())
        except ValueError:
            raise ScenarioError(f"[attack] {key} must be node ids, got {raw!r}") from None

    grayhole = []
    for tok in section.get("grayhole", "").split():
        try:
            nid, prob = tok.split(":")
            grayhole.append((int(nid), float(prob)))
        except ValueError:
            raise ScenarioError(f"[attack] grayhole entries are id:prob, got {tok!r}") from None
    try:
        return AttackConfig(
            blackhole_nodes=ids("blackhole_nodes"),
            grayhole=tuple(grayhole),
            tamper_nodes=ids("tamper_nodes"),
            compromised_count=int(section.get("compromised_count", 0)),
            tamper_count=int(section.get("tamper_count", 0)),
            activation_time=float(section.get("activation_time", 0.0)),
        )
    except ValueError as exc:
        raise ScenarioError(f"[attack] {exc}") from None


def load_scenario(path: str) -> ScenarioConfig:
    """Read and validate a scenario file; relative case paths resolve
    against the scenario file's directory."""
    if not os.path.exists(path):
        raise ScenarioError(f"scenario file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise ScenarioError(f"{path}: {exc}") from None

    values: dict = {}
    for section in parser.sections():
        if section not in _SECTION_KEYS:
            raise ScenarioError(f"{path}: unknown section [{section}]")
        for key in parser[section]:
            if key not in _SECTION_KEYS[section]:
                raise ScenarioError(f"{path}: unknown key {key!r} in [{section}]")
        if section == "attack":
            values["attack"] = _parse_attack(parser[section])
            continue
        for key in parser[section]:
            attr = "case_path" if (section, key) == ("case", "path") else key
            values[attr] = _convert(attr, parser[section][key])

    cfg = replace(ScenarioConfig(), **values)
    if cfg.case_path and not os.path.isabs(cfg.case_path):
        cfg = replace(cfg, case_path=os.path.normpath(
            os.path.join(os.path.dirname(os.path.abspath(path)), cfg.case_path)
        ))
    return cfg.validate()
