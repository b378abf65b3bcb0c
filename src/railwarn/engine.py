"""Deterministic pass simulator.

A pass advances the train at constant speed from its start to its end
distance, transmitting one message per radio period. Each receiver draws
packet outcomes from its own random streams, derived only from (seed,
receiver id, purpose), so adding receivers or changing unrelated
configuration never perturbs existing streams and rerunning a scenario with
the same seed is bit-for-bit reproducible.

For each receiver, geometry (geometry.link_geometry), antenna gain
(antenna.pattern_gain), obstruction excess, path loss and the SNR before
shadowing (link.mean_snr_db) are numpy arrays over all ticks. The engine
calls each layer through its name in this module, so a caller can wrap one
layer's function to count or time it. The random draws are blocks of one
value per tick, each from its own keyed Philox stream (receiver_stream):
shadowing normals when sigma > 0, decode uniforms, and processing jitter
uniforms when the jitter is > 0 (link.latency_sample), drawn for every
tick whether or not it decodes. An RSU's relay delay is one draw from a
fourth stream. This layout is the log format's random layout
(logio.LOG_VERSION 2): any engine that keeps it writes byte-identical logs.
The warning comes from the decodes as arrays (protocol.first_warning).
The log's header carries the scenario's analysis settings (Scenario.analysis).
"""

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass
from itertools import product
from pathlib import Path

import numpy as np

from . import analysis, geometry, logio
from .antenna import AntennaPattern, builtin_pattern, pattern_gain
from .geometry import CrossingScene, TrainRun, link_geometry
from .link import (
    LatencyModel,
    PerProfile,
    RadioConfig,
    SyntheticChannel,
    latency_sample,
    mean_snr_db,
    profile_success_probability,
    snr_success_probability,
)
from .logio import AnalysisDefaults, PacketColumns, SimLog, _tick_count, pass_packets
from .protocol import TriggerPolicy, first_warning, rsu_relay
from .units import require_finite_fields

# The version field of a scenario config; scenario_to_dict writes it.
CONFIG_VERSION = 1

# Upper bounds, checked before anything is allocated: transmit ticks per pass
# (the most in a shipped, tested or benchmarked input is 64,001) and packets
# per sweep (87,696); logio.MAX_PACKETS bounds the packets of a pass.
MAX_TICKS = 1_000_000
MAX_SWEEP_PACKETS = 20_000_000


@dataclass(frozen=True)
class Scenario:
    scene: CrossingScene
    radio: RadioConfig
    channel: "PerProfile | SyntheticChannel"
    latency: LatencyModel
    train: TrainRun
    policy: TriggerPolicy
    seed: int = 0
    custom_patterns: tuple[AntennaPattern, ...] = ()
    analysis: AnalysisDefaults = AnalysisDefaults()

    def __post_init__(self) -> None:
        check_seed(self.seed)
        if not self.scene.receivers:
            raise ValueError("scenario needs at least one receiver")
        self.resolve_pattern(self.radio.tx_antenna)
        self.resolve_pattern(self.radio.rx_antenna)
        # A pass is farthest from a receiver at an end (the squared distance to a
        # straight track is convex). Called through geometry, so a wrapper of this
        # module's link_geometry sees only the passes' calls.
        ends = np.array([self.train.start_d_t_m, self.train.end_d_t_m])
        for index, placement in enumerate(self.scene.receivers):
            with np.errstate(over="ignore"):
                ranges = geometry.link_geometry(ends, placement, self.scene).range_m
            if not np.isfinite(ranges).all():
                raise ValueError(
                    f"scene.receivers[{index}]: receiver {placement.id!r} is too far from the "
                    "train for a finite slant range; reduce offset_from_crossing_m or height_m"
                )
        ticks = self.train.duration_s / self.radio.tx_period_s + 1
        if not ticks <= MAX_TICKS:
            raise ValueError(
                f"pass needs {ticks:.0f} transmit ticks, more than the limit of {MAX_TICKS}; "
                "shorten the pass, raise the train speed or lengthen the transmit period"
            )
        self.packet_count  # raises for a pass over logio.MAX_PACKETS

    @property
    def packet_count(self) -> int:
        """Packet records the pass writes: one per transmit tick and receiver."""
        return pass_packets(
            self.train.duration_s, self.radio.tx_period_s, len(self.scene.receivers)
        )

    def resolve_pattern(self, name: str) -> AntennaPattern:
        for pattern in self.custom_patterns:
            if pattern.name == name:
                return pattern
        return builtin_pattern(name)


# The keyed random streams of one receiver, by purpose; the index is the
# third word of the stream's seed.
STREAM_PURPOSES = {"shadowing": 0, "decode": 1, "jitter": 2, "relay": 3}


def check_seed(seed, name: str = "seed") -> None:
    """Raise ValueError naming `name` unless seed is a non-negative int."""
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {seed!r}")


def receiver_stream(seed: int, receiver_id: str, purpose: str) -> np.random.Generator:
    """Random stream for one (seed, receiver, purpose), stable across runs."""
    if purpose not in STREAM_PURPOSES:
        raise ValueError(f"purpose must be one of {sorted(STREAM_PURPOSES)}, got {purpose!r}")
    rid = int.from_bytes(hashlib.sha256(receiver_id.encode()).digest()[:8], "big")
    key = np.random.SeedSequence([seed, rid, STREAM_PURPOSES[purpose]])
    return np.random.Generator(np.random.Philox(key))


def _plain(value):
    """A dataclass as a dict of its fields, and tuples as lists, all the way down."""
    if dataclasses.is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    return value


def scenario_to_dict(scenario: Scenario) -> dict:
    """Canonical plain-dict form of a scenario (config file layout).

    Each section holds its dataclass's fields under their own names, which
    are the config keys; the channel adds its mode, and custom antennas are
    inline tables keyed by name.
    """
    result = _plain(scenario)
    del result["custom_patterns"]
    result["version"] = CONFIG_VERSION
    mode = "empirical" if isinstance(scenario.channel, PerProfile) else "synthetic"
    result["channel"]["mode"] = mode
    if scenario.custom_patterns:
        result["antennas"] = {
            pattern.name: {
                "azimuth": _plain(pattern.azimuth_cut),
                "elevation": _plain(pattern.elevation_cut),
                "peak_gain_dbi": pattern.peak_gain_dbi,
                "floor_dbi": pattern.floor_dbi,
            }
            for pattern in scenario.custom_patterns
        }
    return result


def scenario_digest(scenario: Scenario) -> str:
    """sha256 of the canonical form without analysis: the inputs that fix the packets."""
    inputs = {key: v for key, v in scenario_to_dict(scenario).items() if key != "analysis"}
    canonical = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def run_pass(scenario: Scenario, seed: int | None = None) -> SimLog:
    """Simulate one pass; a pure function of (scenario, seed)."""
    effective_seed = scenario.seed if seed is None else seed
    check_seed(effective_seed)
    scene = scenario.scene
    train = scenario.train
    period_s = scenario.radio.tx_period_s
    ticks = _tick_count(train.duration_s, period_s)
    patterns = (
        scenario.resolve_pattern(scenario.radio.tx_antenna),
        scenario.resolve_pattern(scenario.radio.rx_antenna),
    )
    times = np.arange(ticks) * period_s
    positions = train.start_d_t_m + train.speed_mps * times
    profile_success = None
    if isinstance(scenario.channel, PerProfile):
        profile_success = profile_success_probability(scenario.channel, positions)
        outside = np.flatnonzero(np.isnan(profile_success))
        if outside.size:
            # Raise what the first receiver meets first: each tick checks
            # its geometry, then the profile.
            first = int(outside[0])
            link_geometry(positions[: first + 1], scene.receivers[0], scene)
            raise ValueError(f"train distance {positions[first]:g} m outside the PER profile")

    records: dict = {}
    events: list = []
    for placement in scene.receivers:
        records[placement.id], event = _receiver_pass(
            scenario, placement, effective_seed, times, positions, patterns, profile_success
        )
        if event is not None:
            events.append(event)

    return SimLog(
        digest=scenario_digest(scenario),
        seed=effective_seed,
        train_speed_mps=train.speed_mps,
        tx_period_s=period_s,
        start_d_t_m=train.start_d_t_m,
        end_d_t_m=train.end_d_t_m,
        duration_s=train.duration_s,
        receivers=scene.receivers,
        records=records,
        events=events,
        analysis_window_m=scenario.analysis.window_width_m,
        coverage_threshold=scenario.analysis.coverage_threshold,
    )


def _receiver_pass(scenario, placement, seed, times, positions, patterns, success) -> tuple:
    """One receiver's packet columns and warning event.

    success holds the per-tick decode probability of an empirical channel
    and is None for a synthetic one. Each draw is one block over all ticks
    from the receiver's stream for its purpose.
    """
    scene, radio, channel = scenario.scene, scenario.radio, scenario.channel
    latency = scenario.latency
    ticks = len(times)
    geo = link_geometry(positions, placement, scene)
    if success is None:
        tx_pattern, rx_pattern = patterns
        gain = pattern_gain(
            tx_pattern, geo.tx_azimuth_deg, geo.tx_elevation_deg
        ) + pattern_gain(rx_pattern, geo.rx_azimuth_deg, geo.rx_elevation_deg)
        snr_db = mean_snr_db(positions, geo.range_m, gain, radio, channel, scene.obstructions)
        sigma = channel.shadowing_sigma_db
        if sigma > 0:
            shadow = receiver_stream(seed, placement.id, "shadowing").normal(0.0, sigma, ticks)
            snr_db = snr_db - shadow
        success = snr_success_probability(snr_db, radio, channel)
    decoded = receiver_stream(seed, placement.id, "decode").random(ticks) < success
    jitter = receiver_stream(seed, placement.id, "jitter")
    arrival = times + latency_sample(geo.range_m, latency, jitter)
    rx_time_s = np.where(decoded, arrival, np.nan)
    packets = PacketColumns(np.arange(ticks, dtype=np.uint64), times, positions, rx_time_s)
    event = first_warning(
        placement.id,
        placement.kind,
        rx_time_s[decoded],
        np.flatnonzero(decoded),
        positions[decoded],
        scenario.policy,
    )
    if event is not None and placement.kind == "RSU":
        relay = receiver_stream(seed, placement.id, "relay")
        event = dataclasses.replace(event, relay_delivery_time_s=rsu_relay(event, latency, relay))
    return packets, event


@dataclass(frozen=True)
class SweepPoint:
    speed_mps: float
    tx_power_dbm: float
    modulation: str
    tx_antenna: str
    seed: int


class SweepPointError(ValueError):
    """A sweep grid, or one of its points, that does not validate."""


def _scenario_for_point(base: Scenario, point: SweepPoint) -> Scenario:
    try:
        return dataclasses.replace(
            base,
            train=dataclasses.replace(base.train, speed_mps=point.speed_mps),
            radio=dataclasses.replace(
                base.radio,
                tx_power_dbm=point.tx_power_dbm,
                modulation=point.modulation,
                tx_antenna=point.tx_antenna,
            ),
            seed=point.seed,
        )
    except (ValueError, KeyError) as exc:
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        values = ", ".join(f"{key}={value!r}" for key, value in dataclasses.asdict(point).items())
        raise SweepPointError(f"sweep point {values}: {message}") from None


def _log_name(index: int, point: SweepPoint) -> str:
    return (
        f"point{index:03d}_v{point.speed_mps:g}_p{point.tx_power_dbm:g}"
        f"_{point.modulation}_{point.tx_antenna}_s{point.seed}.log.jsonl"
    )


def _run_point(job: tuple) -> tuple:
    """One grid point's pass, written to its log path and analysed in the
    process that ran it: (log name, point, packets, decoded, events,
    warning range in m)."""
    point, scenario, path = job
    log = run_pass(scenario)
    logio.write_log(log, path)
    warning_range_m = analysis.coverage_report(log).warning_range_m
    counts = (log.packet_count(), log.decoded_count(), len(log.events))
    return (path.name, point, *counts, warning_range_m)


def run_sweep(
    base: Scenario,
    speeds_mps=None,
    powers_dbm=None,
    modulations=None,
    antennas=None,
    seeds=None,
    max_workers: int | None = None,
    *,
    out_dir,
) -> list:
    """Run the cartesian grid of configurations around a base scenario into out_dir.

    An axis left as None keeps the base scenario's value; an empty one
    raises ValueError. Each point is an independent pass whose outcome
    depends only on its own configuration and seed, never on grid order or
    parallel schedule. Every point's scenario is built before any pass runs;
    a point that does not validate, or a grid whose passes together exceed
    MAX_SWEEP_PACKETS, raises SweepPointError and touches no file.

    Then out_dir is made and its summary.csv removed, and the process that
    runs each pass writes its log there as point<index>_v<speed>_p<power>
    _<modulation>_<antenna>_s<seed>.log.jsonl and computes its coverage; no
    log comes back. The result is one row per point, in grid order: (log
    name, SweepPoint, packets, decoded, events, warning_range_m), and
    summary.csv, written last through logio.commit, lists them. A failed
    sweep deletes the files at its log names and writes no summary.csv.
    """
    speeds = [base.train.speed_mps] if speeds_mps is None else list(speeds_mps)
    powers = [base.radio.tx_power_dbm] if powers_dbm is None else list(powers_dbm)
    mods = [base.radio.modulation] if modulations is None else list(modulations)
    ants = [base.radio.tx_antenna] if antennas is None else list(antennas)
    seed_list = [base.seed] if seeds is None else list(seeds)
    if not (speeds and powers and mods and ants and seed_list):
        raise ValueError("sweep grid must be non-empty")
    points = [SweepPoint(*values) for values in product(speeds, powers, mods, ants, seed_list)]
    scenarios = [_scenario_for_point(base, point) for point in points]
    packets = sum(scenario.packet_count for scenario in scenarios)
    if packets > MAX_SWEEP_PACKETS:
        raise SweepPointError(
            f"sweep of {len(points)} points needs {packets} packets, more than the limit of "
            f"{MAX_SWEEP_PACKETS}; use fewer or shorter points"
        )
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = out_dir / "summary.csv"
    summary.unlink(missing_ok=True)
    paths = [out_dir / _log_name(i, point) for i, point in enumerate(points)]
    jobs = list(zip(points, scenarios, paths))
    # A fork-started pool starts all its workers at the first submit, so
    # it gets no more of them than there are points or processors.
    workers = min(max_workers or 1, len(jobs), os.cpu_count() or 1)
    try:
        if workers > 1:
            # Imported here: loading multiprocessing costs every other command.
            from concurrent.futures import ProcessPoolExecutor

            # Leaving the pool waits for every running pass, so no worker
            # writes a log after a failure is handled below.
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_run_point, jobs))
        else:
            results = [_run_point(job) for job in jobs]
        keys = [field.name for field in dataclasses.fields(SweepPoint)]
        header = ["log", *keys, "packets", "decoded", "events", "warning_range_m"]
        rows = [[row[0], *dataclasses.astuple(row[1]), *row[2:]] for row in results]
        logio.commit([analysis.csv_output(summary, header, rows)])
    except BaseException:
        # A directory at a log's name was never the sweep's, so it stays.
        for path in paths:
            if not path.is_dir():
                path.unlink(missing_ok=True)
        raise
    return results
