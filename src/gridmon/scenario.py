"""Scenario configuration: a sectioned key-value file over typed defaults.

Every knob a run needs lives here; scenario files override only what they
care about.  Unknown sections or keys are errors so typos cannot silently
fall back to defaults.  Each field declares its section and the lower bound
``validate()`` holds it to; the ``[attack]`` keys are ``AttackConfig``'s
fields.  One converter reads every value by its field's type: a number, a
string, node ids (``7 3``) or grayhole ``id:prob`` pairs (``200:0.5``).
"""

from __future__ import annotations

import configparser
import math
import operator
import os
from dataclasses import MISSING, dataclass, field, fields, replace

from .attacks import AttackConfig
from .crypto import CURVES, CurveParams
from .engine import EnergyModel, RadioModel


class ScenarioError(ValueError):
    pass


def _key(section: str, default=MISSING, *, ge=None, gt=None, key=None, default_factory=MISSING):
    """A field read from ``[section] key``, ``key`` being the field name unless given.
    ``validate()`` refuses a value below ``ge``, or at or below ``gt``."""
    bound = (">=", ge) if ge is not None else (">", gt) if gt is not None else None
    return field(default=default, default_factory=default_factory,
                 metadata={"section": section, "key": key, "bound": bound})


_HOLDS = {">=": operator.ge, ">": operator.gt}


@dataclass(frozen=True)
class ScenarioConfig:
    case_path: str = _key("case", "", key="path")
    d_km: float = _key("case", 35.0, gt=0.0)
    relays: int = _key("deploy", 150, ge=0)
    ehrns: int = _key("deploy", 60, ge=0)
    range_m: float = _key("radio", 30000.0, gt=0.0)
    bitrate_bps: float = _key("radio", 250000.0, gt=0.0)
    mac_overhead_s: float = _key("radio", 0.002, ge=0.0)
    e_elec_j_per_bit: float = _key("energy", 50e-9, ge=0.0)
    e_amp_j_per_bit_m2: float = _key("energy", 1e-13, ge=0.0)
    relay_battery_j: float = _key("energy", 100.0, gt=0.0)
    ehrn_capacity_j: float = _key("energy", 50.0, gt=0.0)
    ehrn_recharge_w: float = _key("energy", 5.0, ge=0.0)
    curve: str = _key("crypto", "secp256k1")
    k_test: int = _key("protocol", 20, ge=1)
    # The floor bounds the window plan: one flush per window per sink.
    aggregation_window_s: float = _key("protocol", 1.0, ge=0.01)
    pmu_rate_hz: float = _key("protocol", 30.0, gt=0.0)
    scada_interval_s: float = _key("protocol", 2.0, gt=0.0)
    setup_s: float = _key("protocol", 1.0, gt=0.0)
    settle_s: float = _key("protocol", 2.0, ge=0.0)
    intra_substation_latency_s: float = _key("protocol", 0.002, ge=0.0)
    wired_latency_s: float = _key("protocol", 0.001, ge=0.0)
    attack: AttackConfig = _key("attack", default_factory=AttackConfig)
    duration_s: float = _key("run", 30.0, gt=0.0)
    seed: int = _key("run", 1)
    name: str = _key("run", "scenario")

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
        for (section, key), f in _FIELDS.items():
            value = getattr(self.attack if section == "attack" else self, f.name)
            # NaN passes every bound, and inf overflows the clock.
            if f.type == "float" and not math.isfinite(value):
                raise ScenarioError(f"[{section}] {key} must be finite, got {value}")
            bound = f.metadata.get("bound")
            if bound and not _HOLDS[bound[0]](value, bound[1]):
                raise ScenarioError(f"[{section}] {key} must be {bound[0]} {bound[1]}, got {value}")
        self.curve_obj()
        return self


# (section, key) -> field, in field order; the [attack] keys are AttackConfig's fields.
_FIELDS = {
    (f.metadata["section"], g.metadata.get("key") or g.name): g
    for f in fields(ScenarioConfig)
    for g in (fields(AttackConfig) if f.name == "attack" else (f,))
}
_SECTION_KEYS = {section: {k for s, k in _FIELDS if s == section} for section, _ in _FIELDS}


# What a field type reads as, where its name does not say.
_EXPECTED = {"frozenset[int]": "node ids", "tuple[tuple[int, float], ...]": "id:prob pairs"}


def _convert(label: str, raw: str, kind: str):
    """``raw`` as a value of the field type ``kind``."""
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "frozenset[int]":
            return frozenset(int(tok) for tok in raw.split())
        if kind == "tuple[tuple[int, float], ...]":
            return tuple((int(nid), float(prob)) for nid, prob in (tok.split(":") for tok in raw.split()))
        return raw
    except ValueError:
        raise ScenarioError(f"{label} must be {_EXPECTED.get(kind, kind)}, got {raw!r}") from None


def load_scenario(path: str) -> ScenarioConfig:
    """Read and validate a scenario file; relative case paths resolve
    against the scenario file's directory."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        # ConfigParser.read would skip a path it cannot open, a directory too.
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: not UTF-8 ({exc.reason})") from None
    except configparser.Error as exc:
        raise ScenarioError(f"{path}: {exc}") from None

    values: dict = {}
    given: dict = {}  # the [attack] keys; AttackConfig holds the defaults
    for section in parser.sections():
        if section not in _SECTION_KEYS:
            raise ScenarioError(f"{path}: unknown section [{section}]")
        for key in parser[section]:
            if key not in _SECTION_KEYS[section]:
                raise ScenarioError(f"{path}: unknown key {key!r} in [{section}]")
        into = given if section == "attack" else values
        for key in parser[section]:
            f = _FIELDS[section, key]
            into[f.name] = _convert(f"[{section}] {key}", parser[section][key], f.type)

    cfg = ScenarioConfig(**values, attack=AttackConfig(**given))
    if cfg.case_path and not os.path.isabs(cfg.case_path):
        cfg = replace(cfg, case_path=os.path.normpath(
            os.path.join(os.path.dirname(os.path.abspath(path)), cfg.case_path)
        ))
    return cfg.validate()
