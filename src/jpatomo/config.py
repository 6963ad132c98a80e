"""Versioned JSON configuration for the batch front-end.

The file speaks lab units (frequencies in Hz, powers in dBm, periods in
seconds); the builders convert to the angular-frequency domain objects the
physics modules use.  Parsing is strict: unknown keys and wrong types are
rejected with the offending key path, and serialize(parse(text)) is
idempotent.
"""

from __future__ import annotations

import json
import math
import os
import typing
from dataclasses import dataclass, field, fields

import numpy as np

from .detection import DetectionConfig, FILTER_SHAPES, FilterSpec, design_filter
from .device import (
    GAIN_BANDWIDTH_CONST,
    DeviceParams,
    GainAnchor,
    PumpConfig,
    gain_profile,
)
from .errors import ConfigError, FloatOverflowError, UnstableRegimeError

TWO_PI = 2.0 * np.pi
SCHEMA_VERSION = 1

SCENARIOS = ("flux-sweep", "reflection", "gain-map", "psd", "tomography")
STATE_SOURCES = ("injected", "device")
ESTIMATION_METHODS = ("histogram", "streaming")


@dataclass(frozen=True)
class DeviceSection:
    omega_r_max_hz: float = 6.9e9
    kappa_hz: float = 25.0e6
    gamma_i_hz: float = 2.0e6
    participation: float = 0.03
    gain_bandwidth_const: float = GAIN_BANDWIDTH_CONST

    def build(self) -> DeviceParams:
        return DeviceParams(
            omega_r_max=TWO_PI * self.omega_r_max_hz,
            kappa=TWO_PI * self.kappa_hz,
            gamma_i=TWO_PI * self.gamma_i_hz,
            participation=self.participation,
            gain_bandwidth_const=self.gain_bandwidth_const,
        )


@dataclass(frozen=True)
class PumpSection:
    omega_p_hz: float = 6.8834e9
    power_dbm: float = -80.8
    critical_omega_p_hz: float = 6.882e9
    critical_power_dbm: float = -80.6
    anchor_omega_p_hz: float = 6.8834e9
    anchor_power_dbm: float = -80.8
    anchor_g0: float = 100.0
    anchor_freq_scale_hz: float = 2.0e6

    def build(self) -> PumpConfig:
        return PumpConfig(
            omega_p=TWO_PI * self.omega_p_hz,
            power_dbm=self.power_dbm,
            critical_omega_p=TWO_PI * self.critical_omega_p_hz,
            critical_power_dbm=self.critical_power_dbm,
        )

    def build_anchor(self) -> GainAnchor:
        return GainAnchor(
            omega_p=TWO_PI * self.anchor_omega_p_hz,
            power_dbm=self.anchor_power_dbm,
            g0=self.anchor_g0,
            freq_scale=TWO_PI * self.anchor_freq_scale_hz,
        )


@dataclass(frozen=True)
class FilterSection:
    shape: str = "raised-cosine-notch"
    offset_hz: float = 5.0e6
    width_hz: float = 4.0e6
    grid_points: int = 2001
    span_hz: float | None = None

    def build(self) -> FilterSpec:
        return design_filter(
            offset=TWO_PI * self.offset_hz,
            shape=self.shape,
            width=TWO_PI * self.width_hz,
            grid_points=self.grid_points,
            span=None if self.span_hz is None else TWO_PI * self.span_hz,
        )


@dataclass(frozen=True)
class DetectionSection:
    n_noise: float = 69.0
    n_noise_ch2: float | None = None
    gain_ch1: float = 1.0
    gain_ch2: float = 1.02

    def build(self) -> DetectionConfig:
        return DetectionConfig(
            n_noise=self.n_noise,
            n_noise_ch2=self.n_noise_ch2,
            gain_ch1=self.gain_ch1,
            gain_ch2=self.gain_ch2,
        )


@dataclass(frozen=True)
class RunSection:
    n_records: int = 10_000_000
    seed: int = 20260814
    method: str = "histogram"
    bins: int = 128
    bin_sigmas: float = 6.0
    prefix_records: int = 10_000
    state_source: str = "injected"
    r_true: float = 1.78
    n_add_true: float = 0.0
    input_thermal: float = 0.0
    save_records: bool = False
    wigner_extent: float = 8.0
    wigner_points: int = 101
    psd_noise_sigma: float = 0.5
    psd_points: int = 200
    psd_seed_offset: int = 0
    flux_min: float = 0.0
    flux_max: float = 0.45
    flux_points: int = 91
    reflection_span_hz: float = 2.0e8
    reflection_points: int = 401
    gain_map_powers_dbm: tuple[float, ...] = (-84.0, -83.0, -82.0, -81.5, -81.0)
    gain_span_hz: float = 15.0e6
    gain_points: int = 301


@dataclass(frozen=True)
class ExperimentConfig:
    device: DeviceSection = field(default_factory=DeviceSection)
    pump: PumpSection = field(default_factory=PumpSection)
    filter: FilterSection = field(default_factory=FilterSection)
    detection: DetectionSection = field(default_factory=DetectionSection)
    run: RunSection = field(default_factory=RunSection)


_SECTION_TYPES = {
    "device": DeviceSection,
    "pump": PumpSection,
    "filter": FilterSection,
    "detection": DetectionSection,
    "run": RunSection,
}

# each field's type, from its annotation: float, int, bool, str (one of the
# _STRING_FIELDS choices), float | None or tuple[float, ...]
_FIELD_TYPES = {
    section: typing.get_type_hints(cls) for section, cls in _SECTION_TYPES.items()
}
_OPTIONAL_FLOAT = float | None
_FLOAT_SEQUENCE = tuple[float, ...]

_STRING_FIELDS = {
    ("filter", "shape"): FILTER_SHAPES,
    ("run", "method"): ESTIMATION_METHODS,
    ("run", "state_source"): STATE_SOURCES,
}
# keys of earlier schema-v1 files that fed no computation: still accepted,
# and ignored, so every saved config.json loads
_RETIRED_KEYS = {
    "device": {"e_j_max_hz", "kerr_hz"},
    "detection": {"sample_period_s", "lo_offset_hz"},
}


def _number(path: str, value) -> float:
    """A finite JSON number as a float: json reads Infinity and NaN too."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    return number


def _coerce(section: str, name: str, value):
    path = f"{section}.{name}"
    kind = _FIELD_TYPES[section][name]
    if kind == _OPTIONAL_FLOAT and value is None:
        return None
    if kind is str:
        choices = _STRING_FIELDS[(section, name)]
        if not isinstance(value, str) or value not in choices:
            raise ConfigError(f"{path}: expected one of {list(choices)}, got {value!r}")
        return value
    if kind is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{path}: expected true/false, got {value!r}")
        return value
    if kind == _FLOAT_SEQUENCE:
        if not isinstance(value, (list, tuple)) or not value:
            raise ConfigError(f"{path}: expected a non-empty list of numbers")
        return tuple(_number(f"{path}[{k}]", item) for k, item in enumerate(value))
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}: expected an integer, got {value!r}")
        return value
    return _number(path, value)


def parse_config(data: dict) -> ExperimentConfig:
    """Strict dict -> config: unknown keys and bad types are ConfigErrors."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    body = dict(data)
    version = body.pop("schema_version", SCHEMA_VERSION)
    # True == 1.0 == 1: only the integer itself names the schema
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ConfigError(
            f"schema_version: expected {SCHEMA_VERSION}, got {version!r}"
        )
    unknown = set(body) - set(_SECTION_TYPES)
    if unknown:
        raise ConfigError(f"unknown config section(s): {sorted(unknown)}")
    sections = {}
    for section, cls in _SECTION_TYPES.items():
        raw = body.get(section, {})
        if not isinstance(raw, dict):
            raise ConfigError(f"{section}: expected a JSON object")
        known = {f.name for f in fields(cls)}
        bad = set(raw) - known - _RETIRED_KEYS.get(section, set())
        if bad:
            raise ConfigError(f"unknown key(s) in '{section}': {sorted(bad)}")
        kwargs = {
            name: _coerce(section, name, value)
            for name, value in raw.items()
            if name in known
        }
        sections[section] = cls(**kwargs)
    cfg = ExperimentConfig(**sections)
    _validate(cfg)
    return cfg


def _validate(cfg: ExperimentConfig) -> None:
    run = cfg.run
    checks = [
        (run.n_records >= 0, "run.n_records must be >= 0"),
        (run.seed >= 0, "run.seed must be >= 0"),
        (run.bins >= 2, "run.bins must be >= 2"),
        (run.bin_sigmas > 0, "run.bin_sigmas must be > 0"),
        (run.prefix_records >= 2, "run.prefix_records must be >= 2"),
        (run.r_true >= 0, "run.r_true must be >= 0"),
        (run.n_add_true >= 0, "run.n_add_true must be >= 0"),
        (run.input_thermal >= 0, "run.input_thermal must be >= 0"),
        (run.wigner_extent > 0, "run.wigner_extent must be > 0"),
        (run.wigner_points >= 2, "run.wigner_points must be >= 2"),
        (run.psd_noise_sigma >= 0, "run.psd_noise_sigma must be >= 0"),
        (run.psd_points >= 10, "run.psd_points must be >= 10"),
        (run.psd_seed_offset >= 0, "run.psd_seed_offset must be >= 0"),
        (run.flux_points >= 2, "run.flux_points must be >= 2"),
        (
            0 <= run.flux_min < run.flux_max < 0.5,
            "run flux range must satisfy 0 <= flux_min < flux_max < 0.5",
        ),
        (run.reflection_span_hz > 0, "run.reflection_span_hz must be > 0"),
        (run.reflection_points >= 2, "run.reflection_points must be >= 2"),
        (run.gain_span_hz > 0, "run.gain_span_hz must be > 0"),
        (run.gain_points >= 2, "run.gain_points must be >= 2"),
    ]
    for ok, message in checks:
        if not ok:
            raise ConfigError(message)
    # bytes of the six (bins + 1)^2 int64 cell planes of each pump setting's
    # histograms, and of one wigner_points^2 float64 grid.  Without POSIX
    # sysconf the bound is skipped: the allocation raises cli.main's MemoryError
    try:
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        memory = math.inf
    for key, need in (
        ("bins", 96 * (run.bins + 1) ** 2),
        ("wigner_points", 8 * run.wigner_points**2),
    ):
        if need > memory:
            raise ConfigError(
                f"the configuration does not fit in memory: run.{key} = "
                f"{getattr(run, key)} needs {need} bytes, more than the machine's {memory}"
            )

    # build each domain object now so bad physics values fail at load time
    def build(section: str, make):
        try:
            return make()
        except Exception as exc:
            raise ConfigError(f"{section}: {exc}") from exc

    device = build("device", cfg.device.build)
    pump = build("pump", cfg.pump.build)
    anchor = build("pump", cfg.pump.build_anchor)
    build("detection", cfg.detection.build)
    build("filter", cfg.filter.build)
    try:
        gain_profile(pump, device, anchor)
    except UnstableRegimeError:
        pass  # the scenarios that pump the device report it (exit 3)
    except (ValueError, FloatOverflowError) as exc:
        # the defaults build, so a pump or device key set away from its
        # default is at fault; all such keys are named
        keys = [
            f"{section}.{f.name}"
            for section, default in (("pump", PumpSection()), ("device", DeviceSection()))
            for f in fields(default)
            if getattr(getattr(cfg, section), f.name) != getattr(default, f.name)
        ]
        raise ConfigError(f"{', '.join(keys)}: {exc}") from exc


def config_to_dict(cfg: ExperimentConfig) -> dict:
    out: dict = {"schema_version": SCHEMA_VERSION}
    for section in _SECTION_TYPES:
        # the fields as they are (no deep copy); a tuple is written as a list
        value = getattr(cfg, section)
        items = ((f.name, getattr(value, f.name)) for f in fields(value))
        out[section] = {
            name: list(item) if isinstance(item, tuple) else item for name, item in items
        }
    return out


def dumps_config(cfg: ExperimentConfig) -> str:
    return json.dumps(config_to_dict(cfg), indent=2, sort_keys=True) + "\n"


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    return parse_config(data)


def save_config(cfg: ExperimentConfig, path) -> None:
    """Write `dumps_config(cfg)` as bytes, with no newline translation, so
    the file hashes to the `config_sha256` of a run of `cfg`."""
    with open(path, "wb") as fh:
        fh.write(dumps_config(cfg).encode())


def default_config() -> ExperimentConfig:
    """The configuration every scenario can run from unmodified: each field
    at its section's default."""
    return parse_config({})
