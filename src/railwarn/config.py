"""Scenario configuration files: schema, validation, defaults, round trip.

Configs are JSON with a version field and one section per subsystem. Every
key is optional except train.speed_mps (or train.speed_mph); omitted keys
take the standard radio defaults (5.87 GHz, channel 174, 23 dBm QPSK,
99-byte packets every 50 ms, 12 dBi omni transmit and 6 dBi omni receive
antennas). Unknown keys are rejected so typos fail loudly. Relative file
paths (PER tables, antenna cuts) resolve against the config file's
directory.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .antenna import AntennaPattern, pattern_from_csv
from .engine import Scenario, TrainRun, scenario_to_dict
from .geometry import CrossingScene, Placement
from .link import LatencyModel, ObstructionSegment, PerProfile, RadioConfig, SyntheticChannel
from .logio import atomic_write_bytes
from .protocol import TriggerPolicy
from .units import mph_to_mps, require_finite

CONFIG_VERSION = 1

_SECTION_KEYS = {
    "scene": {
        "track_heading_deg",
        "road_heading_deg",
        "tx_height_m",
        "receivers",
        "obstructions",
    },
    "radio": {
        "center_frequency_hz",
        "channel_number",
        "tx_power_dbm",
        "modulation",
        "packet_size_bytes",
        "tx_period_ms",
        "tx_antenna",
        "rx_antenna",
    },
    "channel": {
        "mode",
        "per_table",
        "bins",
        "out_of_range",
        "path_loss_exponent",
        "reference_loss_db",
        "shadowing_sigma_db",
        "noise_floor_dbm",
        "snr_threshold_qpsk_db",
        "snr_threshold_16qam_db",
        "transition_width_db",
    },
    "latency": {"processing_base_ms", "processing_jitter_ms", "relay_hops"},
    "train": {"speed_mps", "speed_mph", "start_d_t_m", "end_d_t_m"},
    "policy": {"reliability_threshold", "trigger_distance_m", "window_s"},
    "analysis": {"window_width_m", "coverage_threshold"},
}
_TOP_KEYS = {"version", "seed", "antennas"} | set(_SECTION_KEYS)
_RECEIVER_KEYS = {"id", "kind", "offset_from_crossing_m", "height_m", "boresight_deg"}
_OBSTRUCTION_KEYS = {"d_start_m", "d_end_m", "excess_loss_db", "gap_width_m", "gap_period_m"}
_ANTENNA_KEYS = {"azimuth_csv", "elevation_csv", "azimuth", "elevation", "peak_gain_dbi", "floor_dbi"}

_EMPIRICAL_KEYS = {"mode", "per_table", "bins", "out_of_range"}
_SYNTHETIC_KEYS = {
    "mode",
    "path_loss_exponent",
    "reference_loss_db",
    "shadowing_sigma_db",
    "noise_floor_dbm",
    "snr_threshold_qpsk_db",
    "snr_threshold_16qam_db",
    "transition_width_db",
}


class ConfigError(Exception):
    """Schema or value problem in a scenario config; message names the key."""


@dataclass(frozen=True)
class AnalysisDefaults:
    window_width_m: float = 50.0
    coverage_threshold: int = 5

    def __post_init__(self) -> None:
        require_finite(window_width_m=self.window_width_m)


@dataclass
class LoadedConfig:
    scenario: Scenario
    analysis: AnalysisDefaults


def _check_keys(section: dict, allowed: set, where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {sorted(unknown)}")


def _get(section: dict, key: str, default, where: str, kind=None):
    value = section.get(key, default)
    if value is None:
        return None
    if kind is not None and not isinstance(value, kind):
        names = kind if isinstance(kind, tuple) else (kind,)
        expected = "/".join(k.__name__ for k in names)
        raise ConfigError(f"{where}.{key}: expected {expected}, got {type(value).__name__}")
    return value


def _number(section: dict, key: str, default, where: str):
    value = _get(section, key, default, where, (int, float))
    if value is None:
        return None
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{where}.{key}: must be a finite number, got {value!r}")
    return number


def _load_receivers(entries, where: str) -> tuple:
    receivers = []
    for index, entry in enumerate(entries):
        here = f"{where}[{index}]"
        if not isinstance(entry, dict):
            raise ConfigError(f"{here}: expected an object")
        _check_keys(entry, _RECEIVER_KEYS, here)
        kind = _get(entry, "kind", "OBU", here, str)
        try:
            receivers.append(
                Placement(
                    id=_get(entry, "id", f"{kind.lower()}{index}", here, str),
                    kind=kind,
                    offset_from_crossing_m=_number(entry, "offset_from_crossing_m", 50.0, here),
                    height_m=_number(entry, "height_m", 1.7 if kind == "OBU" else 3.0, here),
                    boresight_deg=_number(entry, "boresight_deg", None, here),
                )
            )
        except ValueError as exc:
            raise ConfigError(f"{here}: {exc}") from None
    return tuple(receivers)


def _load_obstructions(entries, where: str) -> tuple:
    segments = []
    for index, entry in enumerate(entries):
        here = f"{where}[{index}]"
        if not isinstance(entry, dict):
            raise ConfigError(f"{here}: expected an object")
        _check_keys(entry, _OBSTRUCTION_KEYS, here)
        try:
            segments.append(
                ObstructionSegment(
                    d_start_m=_number(entry, "d_start_m", None, here),
                    d_end_m=_number(entry, "d_end_m", None, here),
                    excess_loss_db=_number(entry, "excess_loss_db", None, here),
                    gap_width_m=_number(entry, "gap_width_m", 0.0, here),
                    gap_period_m=_number(entry, "gap_period_m", 0.0, here),
                )
            )
        except TypeError:
            raise ConfigError(f"{here}: d_start_m, d_end_m and excess_loss_db are required") from None
        except ValueError as exc:
            raise ConfigError(f"{here}: {exc}") from None
    return tuple(segments)


def _load_antennas(section: dict, base_dir: Path) -> tuple:
    patterns = []
    for name, entry in sorted(section.items()):
        here = f"antennas.{name}"
        if not isinstance(entry, dict):
            raise ConfigError(f"{here}: expected an object")
        _check_keys(entry, _ANTENNA_KEYS, here)
        try:
            if "azimuth_csv" in entry or "elevation_csv" in entry:
                if not ("azimuth_csv" in entry and "elevation_csv" in entry):
                    raise ConfigError(f"{here}: both azimuth_csv and elevation_csv are required")
                patterns.append(
                    pattern_from_csv(
                        name,
                        base_dir / entry["azimuth_csv"],
                        base_dir / entry["elevation_csv"],
                        peak_gain_dbi=_number(entry, "peak_gain_dbi", None, here),
                        floor_dbi=_number(entry, "floor_dbi", -10.0, here),
                    )
                )
            elif "azimuth" in entry and "elevation" in entry:
                azimuth = tuple((float(a), float(g)) for a, g in entry["azimuth"])
                elevation = tuple((float(a), float(g)) for a, g in entry["elevation"])
                peak = _number(entry, "peak_gain_dbi", None, here)
                if peak is None:
                    peak = max(g for _, g in azimuth + elevation)
                patterns.append(
                    AntennaPattern(
                        name=name,
                        azimuth_cut=azimuth,
                        elevation_cut=elevation,
                        peak_gain_dbi=peak,
                        floor_dbi=_number(entry, "floor_dbi", -10.0, here),
                    )
                )
            else:
                raise ConfigError(
                    f"{here}: need azimuth_csv/elevation_csv paths or inline azimuth/elevation tables"
                )
        except OSError as exc:
            raise ConfigError(f"{here}: {exc}") from None
        except ValueError as exc:
            raise ConfigError(f"{here}: {exc}") from None
    return tuple(patterns)


def _load_channel(section: dict, base_dir: Path, radio: RadioConfig):
    mode = _get(section, "mode", "synthetic", "channel", str)
    if mode == "empirical":
        _check_keys(section, _EMPIRICAL_KEYS, "channel")
        out_of_range = _get(section, "out_of_range", "zero", "channel", str)
        try:
            if "bins" in section:
                bins = tuple(
                    (float(s), float(e), float(p)) for s, e, p in section["bins"]
                )
                return PerProfile(bins=bins, out_of_range=out_of_range)
            if "per_table" in section:
                path = base_dir / section["per_table"]
                if not path.exists():
                    raise ConfigError(f"channel.per_table: file not found: {path}")
                return PerProfile.from_csv(path, out_of_range=out_of_range)
        except ValueError as exc:
            raise ConfigError(f"channel: {exc}") from None
        raise ConfigError("channel: empirical mode requires per_table or inline bins")
    if mode == "synthetic":
        _check_keys(section, _SYNTHETIC_KEYS, "channel")
        reference = _number(section, "reference_loss_db", None, "channel")
        if reference is None:
            from .link import friis_reference_loss_db

            reference = friis_reference_loss_db(radio.center_frequency_hz)
        try:
            return SyntheticChannel(
                path_loss_exponent=_number(section, "path_loss_exponent", 2.0, "channel"),
                reference_loss_db=reference,
                shadowing_sigma_db=_number(section, "shadowing_sigma_db", 0.0, "channel"),
                noise_floor_dbm=_number(section, "noise_floor_dbm", -95.0, "channel"),
                snr_threshold_qpsk_db=_number(section, "snr_threshold_qpsk_db", 8.0, "channel"),
                snr_threshold_16qam_db=_number(section, "snr_threshold_16qam_db", 15.0, "channel"),
                transition_width_db=_number(section, "transition_width_db", 2.0, "channel"),
            )
        except ValueError as exc:
            raise ConfigError(f"channel: {exc}") from None
    raise ConfigError(f"channel.mode: must be 'empirical' or 'synthetic', got {mode!r}")


def parse_config(data: dict, base_dir: Path) -> LoadedConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")
    _check_keys(data, _TOP_KEYS, "config")
    version = data.get("version", CONFIG_VERSION)
    if version != CONFIG_VERSION:
        raise ConfigError(f"version: unsupported config version {version!r}")
    for name in _SECTION_KEYS:
        if name in data:
            if not isinstance(data[name], dict):
                raise ConfigError(f"{name}: expected an object")
            _check_keys(data[name], _SECTION_KEYS[name], name)

    radio_section = data.get("radio", {})
    try:
        radio = RadioConfig(
            center_frequency_hz=_number(radio_section, "center_frequency_hz", 5.87e9, "radio"),
            channel_number=int(_number(radio_section, "channel_number", 174, "radio")),
            tx_power_dbm=_number(radio_section, "tx_power_dbm", 23.0, "radio"),
            modulation=_get(radio_section, "modulation", "QPSK", "radio", str),
            packet_size_bytes=int(_number(radio_section, "packet_size_bytes", 99, "radio")),
            tx_period_ms=_number(radio_section, "tx_period_ms", 50.0, "radio"),
            tx_antenna=_get(radio_section, "tx_antenna", "omni12", "radio", str),
            rx_antenna=_get(radio_section, "rx_antenna", "omni6", "radio", str),
        )
    except ValueError as exc:
        raise ConfigError(f"radio: {exc}") from None

    scene_section = data.get("scene", {})
    if "receivers" in scene_section:
        receivers = _load_receivers(scene_section["receivers"], "scene.receivers")
    else:
        receivers = (Placement(id="obu0", kind="OBU", offset_from_crossing_m=50.0, height_m=1.7),)
    obstructions = _load_obstructions(
        scene_section.get("obstructions", []), "scene.obstructions"
    )
    try:
        scene = CrossingScene(
            track_heading_deg=_number(scene_section, "track_heading_deg", 0.0, "scene"),
            road_heading_deg=_number(scene_section, "road_heading_deg", 90.0, "scene"),
            tx_height_m=_number(scene_section, "tx_height_m", 4.0, "scene"),
            receivers=receivers,
            obstructions=obstructions,
        )
    except ValueError as exc:
        raise ConfigError(f"scene: {exc}") from None

    train_section = data.get("train", {})
    speed_mps = _number(train_section, "speed_mps", None, "train")
    speed_mph = _number(train_section, "speed_mph", None, "train")
    if speed_mps is None and speed_mph is None:
        raise ConfigError("train: one of speed_mps or speed_mph is required")
    if speed_mps is not None and speed_mph is not None:
        raise ConfigError("train: give speed_mps or speed_mph, not both")
    if speed_mps is None:
        speed_mps = mph_to_mps(speed_mph)
    try:
        train = TrainRun(
            speed_mps=speed_mps,
            start_d_t_m=_number(train_section, "start_d_t_m", -600.0, "train"),
            end_d_t_m=_number(train_section, "end_d_t_m", 600.0, "train"),
        )
    except ValueError as exc:
        raise ConfigError(f"train: {exc}") from None

    policy_section = data.get("policy", {})
    try:
        policy = TriggerPolicy(
            reliability_threshold=int(
                _number(policy_section, "reliability_threshold", 5, "policy")
            ),
            trigger_distance_m=_number(policy_section, "trigger_distance_m", 200.0, "policy"),
            window_s=_number(policy_section, "window_s", None, "policy"),
        )
    except ValueError as exc:
        raise ConfigError(f"policy: {exc}") from None

    latency_section = data.get("latency", {})
    try:
        latency = LatencyModel(
            processing_base_ms=_number(latency_section, "processing_base_ms", 4.0, "latency"),
            processing_jitter_ms=_number(latency_section, "processing_jitter_ms", 1.0, "latency"),
            relay_hops=int(_number(latency_section, "relay_hops", 1, "latency")),
        )
    except ValueError as exc:
        raise ConfigError(f"latency: {exc}") from None

    channel = _load_channel(data.get("channel", {}), base_dir, radio)
    patterns = _load_antennas(data.get("antennas", {}), base_dir)

    seed = data.get("seed", 0)
    if not isinstance(seed, int) or seed < 0:
        raise ConfigError("seed: must be a non-negative integer")

    analysis_section = data.get("analysis", {})
    analysis = AnalysisDefaults(
        window_width_m=_number(analysis_section, "window_width_m", 50.0, "analysis"),
        coverage_threshold=int(_number(analysis_section, "coverage_threshold", 5, "analysis")),
    )
    if analysis.window_width_m <= 0:
        raise ConfigError("analysis.window_width_m: must be positive")
    if analysis.coverage_threshold < 1:
        raise ConfigError("analysis.coverage_threshold: must be >= 1")

    try:
        scenario = Scenario(
            scene=scene,
            radio=radio,
            channel=channel,
            latency=latency,
            train=train,
            policy=policy,
            seed=seed,
            custom_patterns=patterns,
        )
    except (ValueError, KeyError) as exc:
        raise ConfigError(str(exc)) from None
    return LoadedConfig(scenario=scenario, analysis=analysis)


# Stands in for NaN/Infinity literals while parsing, so the error can name the key.
_NON_FINITE = object()


def _path_to(node, target, path: str = "") -> str | None:
    """Dotted path of the first occurrence of target in parsed JSON."""
    if node is target:
        return path
    if isinstance(node, dict):
        children = ((f"{path}.{key}" if path else key, child) for key, child in node.items())
    elif isinstance(node, list):
        children = ((f"{path}[{index}]", child) for index, child in enumerate(node))
    else:
        return None
    for child_path, child in children:
        found = _path_to(child, target, child_path)
        if found is not None:
            return found
    return None


def load_config(path: str | Path) -> LoadedConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    literals = []

    def non_finite(literal: str):
        literals.append(literal)
        return _NON_FINITE

    try:
        data = json.loads(text, parse_constant=non_finite)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: parse error: {exc.msg}") from None
    if literals:
        raise ConfigError(
            f"{_path_to(data, _NON_FINITE) or 'config'}: "
            f"non-finite number {literals[0]} is not allowed"
        )
    return parse_config(data, path.parent)


def load_scenario(path: str | Path) -> Scenario:
    """Load and fully validate a scenario config file."""
    return load_config(path).scenario


def write_scenario(
    scenario: Scenario, path: str | Path, analysis: AnalysisDefaults | None = None
) -> None:
    """Write a scenario back out as a self-contained config (inline tables)."""
    data = scenario_to_dict(scenario)
    defaults = analysis or AnalysisDefaults()
    data["analysis"] = {
        "window_width_m": defaults.window_width_m,
        "coverage_threshold": defaults.coverage_threshold,
    }
    atomic_write_bytes(path, (json.dumps(data, indent=2, sort_keys=True) + "\n").encode())
