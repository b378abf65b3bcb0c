"""Scenario configuration files: schema, validation and defaults.

Configs are JSON with a version field and one section per subsystem. A
section's keys are the field names of its dataclass (scene CrossingScene,
with Placement receivers and ObstructionSegment obstructions; radio
RadioConfig; channel SyntheticChannel, or PerProfile in empirical mode;
latency LatencyModel; train TrainRun; policy TriggerPolicy; analysis
AnalysisDefaults). Every section becomes a field of the Scenario, so the
analysis settings reach each log's header through run_pass. An omitted key
takes the field default, and a value must match the field's annotation
(units.check_field); null is allowed only for X | None, and a number must
be finite, so NaN and Infinity literals fail naming the key. Keys that are
not fields: train.speed_mph, channel.mode, per_table or bins, and the
antenna tables or paths (one form each, never both). Defaults that are
not field defaults: a receiver's id, offset and kind-dependent height, and
the free-space reference loss for the carrier. The Scenario rejects a
setting its pass does not read: each of engine.EMPIRICAL_UNREAD away from
its default under an empirical channel, and a carrier away from its
default where the reference loss is not the free-space one. Only
train.speed_mps (or speed_mph) is required. Unknown keys are rejected so
typos fail loudly.
Relative file paths resolve against the config file's directory.
"""

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

from .antenna import DEFAULT_FLOOR_DBI, AntennaPattern
from .engine import CONFIG_VERSION, Scenario
from .geometry import CrossingScene, Placement, TrainRun
from .link import (
    LatencyModel,
    ObstructionSegment,
    PerProfile,
    RadioConfig,
    SyntheticChannel,
    friis_reference_loss_db,
)
from .logio import AnalysisDefaults
from .protocol import TriggerPolicy
from .units import check_field, mph_to_mps, not_utf8, read_numeric_table

_SECTIONS = ("scene", "radio", "channel", "latency", "train", "policy", "analysis")
_TOP_KEYS = {"version", "seed", "antennas", *_SECTIONS}
_ANTENNA_KEYS = {"azimuth_csv", "elevation_csv", "azimuth", "elevation", "peak_gain_dbi", "floor_dbi"}


class ConfigError(Exception):
    """Schema or value problem in a scenario config; message names the key."""


@dataclass
class LoadedConfig:
    scenario: Scenario


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: expected an object")
    return value


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{where}: expected a list")
    return value


def _check_keys(section: dict, allowed, where: str) -> None:
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {sorted(unknown)}")


def _checked(value, annotation, where: str):
    """value checked against a field annotation (units.check_field), or a ConfigError."""
    try:
        return check_field(value, annotation, where)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _table(section: dict, key: str, width: int, where: str) -> tuple:
    """section[key] as a tuple of rows of `width` finite numbers."""
    rows = section[key]
    if not isinstance(rows, list) or not all(
        isinstance(row, list) and len(row) == width for row in rows
    ):
        raise ConfigError(f"{where}.{key}: expected a list of rows of {width} numbers")
    return tuple(
        tuple(_checked(value, float, f"{where}.{key}[{i}][{j}]") for j, value in enumerate(row))
        for i, row in enumerate(rows)
    )


def _build(cls, section, where: str, extra=(), **given):
    """A cls from a config section whose keys are cls's field names plus extra.

    Each field takes its given value if there is one (the caller reads its
    key), else the section's value checked against the field's annotation,
    else the field's default.
    """
    fields = dataclasses.fields(cls)
    _check_keys(_object(section, where), [field.name for field in fields] + [*extra], where)
    values = dict(given)
    for field in fields:
        if field.name in section and field.name not in given:
            values[field.name] = _checked(section[field.name], field.type, f"{where}.{field.name}")
    missing = [
        field.name
        for field in fields
        if field.name not in values and field.default is dataclasses.MISSING
    ]
    if missing:
        raise ConfigError(f"{where}: missing required key(s) {missing}")
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _load_receivers(entries, where: str) -> tuple:
    receivers = []
    for index, entry in enumerate(_list(entries, where)):
        here = f"{where}[{index}]"
        _object(entry, here)
        kind = _checked(entry.get("kind", "OBU"), str, f"{here}.kind")
        defaults = {
            "id": f"{kind.lower()}{index}",
            "kind": kind,
            "offset_from_crossing_m": 50.0,
            "height_m": 1.7 if kind == "OBU" else 3.0,
        }
        receivers.append(_build(Placement, {**defaults, **entry}, here))
    return tuple(receivers)


def _load_scene(section: dict) -> CrossingScene:
    obstructions = _list(section.get("obstructions", []), "scene.obstructions")
    return _build(
        CrossingScene,
        section,
        "scene",
        # No receivers list means one default receiver.
        receivers=_load_receivers(section.get("receivers", [{}]), "scene.receivers"),
        obstructions=tuple(
            _build(ObstructionSegment, entry, f"scene.obstructions[{index}]")
            for index, entry in enumerate(obstructions)
        ),
    )


def _load_train(section: dict) -> TrainRun:
    speed_mps, speed_mph = (
        _checked(section.get(key), float | None, f"train.{key}")
        for key in ("speed_mps", "speed_mph")
    )
    if speed_mps is None and speed_mph is None:
        raise ConfigError("train: one of speed_mps or speed_mph is required")
    if speed_mps is not None and speed_mph is not None:
        raise ConfigError("train: give speed_mps or speed_mph, not both")
    if speed_mps is None:
        speed_mps = mph_to_mps(speed_mph)
    return _build(TrainRun, section, "train", ("speed_mph",), speed_mps=speed_mps)


def _load_channel(section: dict, base_dir: Path, radio: RadioConfig):
    mode = _checked(section.get("mode", "synthetic"), str, "channel.mode")
    if mode == "synthetic":
        reference = _checked(
            section.get("reference_loss_db"), float | None, "channel.reference_loss_db"
        )
        if reference is None:
            reference = friis_reference_loss_db(radio.center_frequency_hz)
        return _build(SyntheticChannel, section, "channel", ("mode",), reference_loss_db=reference)
    if mode != "empirical":
        raise ConfigError(f"channel.mode: must be 'empirical' or 'synthetic', got {mode!r}")
    if "bins" in section and "per_table" in section:
        raise ConfigError("channel: give per_table or inline bins, not both")
    if "bins" in section:
        bins = _table(section, "bins", 3, "channel")
    elif "per_table" in section:
        path = base_dir / _checked(section["per_table"], str, "channel.per_table")
        try:
            bins = tuple(read_numeric_table(path, ("d_start_m", "d_end_m", "per")))
            PerProfile(bins)  # so that a bad bin names the table it came from
        except (OSError, ValueError) as exc:
            raise ConfigError(f"channel.per_table: {exc}") from None
    else:
        raise ConfigError("channel: empirical mode requires per_table or inline bins")
    return _build(PerProfile, section, "channel", ("mode", "per_table"), bins=bins)


def _load_antennas(section, base_dir: Path) -> tuple:
    patterns = []
    for name, entry in sorted(_object(section, "antennas").items()):
        here = f"antennas.{name}"
        _check_keys(_object(entry, here), _ANTENNA_KEYS, here)
        peak = _checked(entry.get("peak_gain_dbi"), float | None, f"{here}.peak_gain_dbi")
        floor = _checked(entry.get("floor_dbi", DEFAULT_FLOOR_DBI), float, f"{here}.floor_dbi")
        try:
            if "azimuth_csv" in entry or "elevation_csv" in entry:
                if not ("azimuth_csv" in entry and "elevation_csv" in entry):
                    raise ConfigError(f"{here}: both azimuth_csv and elevation_csv are required")
                if "azimuth" in entry or "elevation" in entry:
                    raise ConfigError(f"{here}: give cut CSV paths or inline tables, not both")
                paths = [
                    base_dir / _checked(entry[key], str, f"{here}.{key}")
                    for key in ("azimuth_csv", "elevation_csv")
                ]
                azimuth, elevation = (
                    tuple(read_numeric_table(path, ("angle_deg", "gain_dbi"))) for path in paths
                )
            elif "azimuth" in entry and "elevation" in entry:
                azimuth = _table(entry, "azimuth", 2, here)
                elevation = _table(entry, "elevation", 2, here)
            else:
                raise ConfigError(
                    f"{here}: need azimuth_csv/elevation_csv paths or inline azimuth/elevation tables"
                )
            if peak is None:
                peak = max(g for _, g in azimuth + elevation)
            patterns.append(AntennaPattern(name, azimuth, elevation, peak, floor))
        except (OSError, ValueError) as exc:
            raise ConfigError(f"{here}: {exc}") from None
    return tuple(patterns)


def parse_config(data: dict, base_dir: Path) -> LoadedConfig:
    _check_keys(_object(data, "config"), _TOP_KEYS, "config")
    version = data.get("version", CONFIG_VERSION)
    if isinstance(version, bool) or version != CONFIG_VERSION:
        raise ConfigError(f"version: unsupported config version {version!r}")
    sections = {name: _object(data.get(name, {}), name) for name in _SECTIONS}
    radio = _build(RadioConfig, sections["radio"], "radio")
    parts = dict(
        scene=_load_scene(sections["scene"]),
        radio=radio,
        channel=_load_channel(sections["channel"], base_dir, radio),
        latency=_build(LatencyModel, sections["latency"], "latency"),
        train=_load_train(sections["train"]),
        policy=_build(TriggerPolicy, sections["policy"], "policy"),
        custom_patterns=_load_antennas(data.get("antennas", {}), base_dir),
        analysis=_build(AnalysisDefaults, sections["analysis"], "analysis"),
    )
    try:
        scenario = Scenario(seed=data.get("seed", 0), **parts)
    except (ValueError, KeyError) as exc:
        raise ConfigError(str(exc)) from None
    return LoadedConfig(scenario=scenario)


def load_config(path: str | Path) -> LoadedConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except UnicodeDecodeError:
        raise ConfigError(not_utf8(path)) from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: parse error: {exc.msg}") from None
    return parse_config(data, path.parent)
