"""Deterministic pass simulator.

A pass advances the train at constant speed from its start to its end
distance, transmitting one message per radio period. Each receiver draws
packet outcomes from its own random streams, derived only from (seed,
receiver id, purpose), so adding receivers or changing unrelated
configuration never perturbs existing streams and rerunning a scenario with
the same seed is bit-for-bit reproducible.

For each receiver, geometry, antenna gain, obstruction excess, path loss
and the SNR before shadowing are numpy arrays over all ticks (the array
forms in geometry, antenna and link). The random draws are blocks of one
value per tick, each from its own keyed Philox stream (receiver_stream):
shadowing normals when sigma > 0, decode uniforms, and processing jitter
uniforms when the jitter is > 0, drawn for every tick whether or not it
decodes. An RSU's relay delay is one draw from a fourth stream. This layout
is the log format's random layout (logio.LOG_VERSION 2): any engine that
keeps it writes byte-identical logs. The warning comes from the decodes as
arrays (protocol.first_warning).
"""

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .antenna import AntennaPattern, builtin_pattern, pattern_gain_array
from .geometry import CrossingScene, Placement, link_geometry, link_geometry_array  # noqa: F401
from .link import (
    LatencyModel,
    PerProfile,
    RadioConfig,
    SyntheticChannel,
    mean_snr_db,
    profile_success_probability,
    snr_success_probability,
)
from .protocol import TriggerPolicy, first_warning, rsu_relay
from .units import SPEED_OF_LIGHT_MPS, require_finite

# link_geometry is imported but not called: the benchmark's tracer
# (bench/tracer.py) patches engine.link_geometry by name, and its tests
# check that the patch is undone.

# Upper bound on transmit ticks per pass, checked before anything is
# allocated. The longest pass shipped, tested or benchmarked has 64,001.
MAX_TICKS = 1_000_000


@dataclass(frozen=True)
class TrainRun:
    """Constant-speed pass through the crossing."""

    speed_mps: float
    start_d_t_m: float = -600.0
    end_d_t_m: float = 600.0

    def __post_init__(self) -> None:
        require_finite(
            speed_mps=self.speed_mps, start_d_t_m=self.start_d_t_m, end_d_t_m=self.end_d_t_m
        )
        if self.speed_mps <= 0:
            raise ValueError("train speed must be positive")
        if not self.start_d_t_m < 0 < self.end_d_t_m:
            raise ValueError("pass must start before the crossing and end after it")

    @property
    def duration_s(self) -> float:
        return (self.end_d_t_m - self.start_d_t_m) / self.speed_mps


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

    def __post_init__(self) -> None:
        check_seed(self.seed)
        if not self.scene.receivers:
            raise ValueError("scenario needs at least one receiver")
        self.resolve_pattern(self.radio.tx_antenna)
        self.resolve_pattern(self.radio.rx_antenna)
        ticks = self.train.duration_s / self.radio.tx_period_s + 1
        if not ticks <= MAX_TICKS:
            raise ValueError(
                f"pass needs {ticks:.0f} transmit ticks, more than the limit of {MAX_TICKS}; "
                "shorten the pass, raise the train speed or lengthen the transmit period"
            )

    def resolve_pattern(self, name: str) -> AntennaPattern:
        for pattern in self.custom_patterns:
            if pattern.name == name:
                return pattern
        return builtin_pattern(name)


@dataclass(frozen=True)
class PacketRecord:
    seq: int
    tx_time_s: float
    train_d_t_m: float
    receiver_id: str
    decoded: bool
    rx_time_s: float | None = None
    latency_s: float | None = None

    def __post_init__(self) -> None:
        if self.decoded:
            if self.rx_time_s is None or self.latency_s is None:
                raise ValueError("decoded records need rx_time_s and latency_s")
            if self.rx_time_s < self.tx_time_s:
                raise ValueError("rx_time_s must be >= tx_time_s")


class PacketColumns:
    """One receiver's packets as numpy columns, one row per packet.

    seq is uint64; tx_time_s and train_d_t_m are float64; decoded is bool;
    rx_time_s and latency_s are float64 and NaN where the packet was not
    decoded. Iterating or indexing yields PacketRecord rows, and equality is
    exact with NaN equal to NaN.
    """

    __slots__ = (
        "receiver_id",
        "seq",
        "tx_time_s",
        "train_d_t_m",
        "decoded",
        "rx_time_s",
        "latency_s",
    )

    def __init__(self, receiver_id, seq, tx_time_s, train_d_t_m, decoded, rx_time_s, latency_s):
        self.receiver_id = receiver_id
        self.seq = np.asarray(seq, dtype=np.uint64)
        self.tx_time_s = np.asarray(tx_time_s, dtype=np.float64)
        self.train_d_t_m = np.asarray(train_d_t_m, dtype=np.float64)
        self.decoded = np.asarray(decoded, dtype=bool)
        self.rx_time_s = np.asarray(rx_time_s, dtype=np.float64)
        self.latency_s = np.asarray(latency_s, dtype=np.float64)
        columns = self.columns()
        if len({len(column) for column in columns}) != 1:
            raise ValueError("packet columns must have equal lengths")
        # Receivers of one pass share the time and position arrays.
        for column in columns:
            column.flags.writeable = False

    def columns(self) -> tuple:
        """(seq, tx_time_s, train_d_t_m, decoded, rx_time_s, latency_s)."""
        return tuple(getattr(self, name) for name in self.__slots__[1:])

    @classmethod
    def from_records(cls, records, receiver_id: str) -> "PacketColumns":
        """Columns from PacketRecord rows of one receiver."""
        records = list(records)
        for record in records:
            if record.receiver_id != receiver_id:
                raise ValueError(
                    f"record of receiver {record.receiver_id!r} filed under {receiver_id!r}"
                )
            if not record.decoded and (record.rx_time_s, record.latency_s) != (None, None):
                raise ValueError("undecoded records carry no rx_time_s or latency_s")
            if record.seq < 0 or record.seq >= 2**64:
                raise ValueError(f"seq must be in [0, 2**64), got {record.seq}")
        nan = math.nan
        return cls(
            receiver_id,
            [r.seq for r in records],
            [r.tx_time_s for r in records],
            [r.train_d_t_m for r in records],
            [r.decoded for r in records],
            [nan if r.rx_time_s is None else r.rx_time_s for r in records],
            [nan if r.latency_s is None else r.latency_s for r in records],
        )

    def __len__(self) -> int:
        return len(self.seq)

    def __getitem__(self, index: int) -> PacketRecord:
        decoded = bool(self.decoded[index])
        return PacketRecord(
            seq=int(self.seq[index]),
            tx_time_s=float(self.tx_time_s[index]),
            train_d_t_m=float(self.train_d_t_m[index]),
            receiver_id=self.receiver_id,
            decoded=decoded,
            rx_time_s=float(self.rx_time_s[index]) if decoded else None,
            latency_s=float(self.latency_s[index]) if decoded else None,
        )

    def __iter__(self):
        return (self[index] for index in range(len(self)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, PacketColumns):
            return NotImplemented
        return self.receiver_id == other.receiver_id and all(
            np.array_equal(mine, theirs, equal_nan=mine.dtype.kind == "f")
            for mine, theirs in zip(self.columns(), other.columns())
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"PacketColumns({self.receiver_id!r}, {len(self)} packets)"


@dataclass
class SimLog:
    """Complete record of one pass: every packet for every receiver.

    records maps each receiver id to its PacketColumns; lists of
    PacketRecord are turned into columns on construction.
    """

    digest: str
    seed: int
    train_speed_mps: float | None
    tx_period_s: float
    start_d_t_m: float
    end_d_t_m: float
    duration_s: float
    receivers: tuple[Placement, ...]
    records: dict  # receiver_id -> PacketColumns
    events: list  # list[WarningEvent]
    analysis_window_m: float = 50.0
    coverage_threshold: int = 5

    def __post_init__(self) -> None:
        self.records = {
            rid: packets
            if isinstance(packets, PacketColumns)
            else PacketColumns.from_records(packets, rid)
            for rid, packets in self.records.items()
        }

    def packet_count(self, receiver_id: str | None = None) -> int:
        if receiver_id is not None:
            return len(self.records[receiver_id])
        return sum(len(recs) for recs in self.records.values())

    def decoded_count(self) -> int:
        return sum(int(packets.decoded.sum()) for packets in self.records.values())

    def receiver_ids(self) -> list:
        return [p.id for p in self.receivers]


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


def _pattern_dict(pattern: AntennaPattern) -> dict:
    return {
        "name": pattern.name,
        "azimuth": [[a, g] for a, g in pattern.azimuth_cut],
        "elevation": [[a, g] for a, g in pattern.elevation_cut],
        "peak_gain_dbi": pattern.peak_gain_dbi,
        "floor_dbi": pattern.floor_dbi,
    }


def scenario_to_dict(scenario: Scenario) -> dict:
    """Canonical plain-dict form of a scenario (config file layout)."""
    scene = scenario.scene
    if isinstance(scenario.channel, PerProfile):
        channel = {
            "mode": "empirical",
            "bins": [[s, e, p] for s, e, p in scenario.channel.bins],
            "out_of_range": scenario.channel.out_of_range,
        }
    else:
        ch = scenario.channel
        channel = {
            "mode": "synthetic",
            "path_loss_exponent": ch.path_loss_exponent,
            "reference_loss_db": ch.reference_loss_db,
            "shadowing_sigma_db": ch.shadowing_sigma_db,
            "noise_floor_dbm": ch.noise_floor_dbm,
            "snr_threshold_qpsk_db": ch.snr_threshold_qpsk_db,
            "snr_threshold_16qam_db": ch.snr_threshold_16qam_db,
            "transition_width_db": ch.transition_width_db,
        }
    result = {
        "version": 1,
        "seed": scenario.seed,
        "scene": {
            "track_heading_deg": scene.track_heading_deg,
            "road_heading_deg": scene.road_heading_deg,
            "tx_height_m": scene.tx_height_m,
            "receivers": [
                {
                    "id": p.id,
                    "kind": p.kind,
                    "offset_from_crossing_m": p.offset_from_crossing_m,
                    "height_m": p.height_m,
                    "boresight_deg": p.boresight_deg,
                }
                for p in scene.receivers
            ],
            "obstructions": [
                {
                    "d_start_m": o.d_start_m,
                    "d_end_m": o.d_end_m,
                    "excess_loss_db": o.excess_loss_db,
                    "gap_width_m": o.gap_width_m,
                    "gap_period_m": o.gap_period_m,
                }
                for o in scene.obstructions
            ],
        },
        "radio": {
            "center_frequency_hz": scenario.radio.center_frequency_hz,
            "channel_number": scenario.radio.channel_number,
            "tx_power_dbm": scenario.radio.tx_power_dbm,
            "modulation": scenario.radio.modulation,
            "packet_size_bytes": scenario.radio.packet_size_bytes,
            "tx_period_ms": scenario.radio.tx_period_ms,
            "tx_antenna": scenario.radio.tx_antenna,
            "rx_antenna": scenario.radio.rx_antenna,
        },
        "channel": channel,
        "latency": {
            "processing_base_ms": scenario.latency.processing_base_ms,
            "processing_jitter_ms": scenario.latency.processing_jitter_ms,
            "relay_hops": scenario.latency.relay_hops,
        },
        "train": {
            "speed_mps": scenario.train.speed_mps,
            "start_d_t_m": scenario.train.start_d_t_m,
            "end_d_t_m": scenario.train.end_d_t_m,
        },
        "policy": {
            "reliability_threshold": scenario.policy.reliability_threshold,
            "trigger_distance_m": scenario.policy.trigger_distance_m,
            "window_s": scenario.policy.window_s,
        },
    }
    if scenario.custom_patterns:
        result["antennas"] = {
            p.name: _pattern_dict(p) for p in scenario.custom_patterns
        }
    return result


def scenario_digest(scenario: Scenario) -> str:
    canonical = json.dumps(scenario_to_dict(scenario), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _tick_count(duration_s: float, period_s: float) -> int:
    # +1 for the packet at t = 0; small epsilon so exact multiples round down
    # consistently instead of dropping the final tick to float dust.
    return math.floor(duration_s / period_s + 1e-9) + 1


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
            link_geometry_array(positions[: first + 1], scene.receivers[0], scene)
            scenario.channel.per_at(float(positions[first]))

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
    )


def _receiver_pass(scenario, placement, seed, times, positions, patterns, success) -> tuple:
    """One receiver's packet columns and warning event.

    success holds the per-tick decode probability of an empirical channel
    and is None for a synthetic one. Each draw is one block over all ticks
    from the receiver's stream for its purpose.
    """
    scene, radio, channel, latency = (
        scenario.scene,
        scenario.radio,
        scenario.channel,
        scenario.latency,
    )
    ticks = len(times)
    geo = link_geometry_array(positions, placement, scene)
    if success is None:
        tx_pattern, rx_pattern = patterns
        gain = pattern_gain_array(
            tx_pattern, geo.tx_azimuth_deg, geo.tx_elevation_deg
        ) + pattern_gain_array(rx_pattern, geo.rx_azimuth_deg, geo.rx_elevation_deg)
        snr_db = mean_snr_db(positions, geo.range_m, gain, radio, channel, scene.obstructions)
        sigma = channel.shadowing_sigma_db
        if sigma > 0:
            shadow = receiver_stream(seed, placement.id, "shadowing").normal(0.0, sigma, ticks)
            snr_db = snr_db - shadow
        success = snr_success_probability(snr_db, radio, channel)
    decoded = receiver_stream(seed, placement.id, "decode").random(ticks) < success

    processing_ms = latency.processing_base_ms
    jitter_ms = latency.processing_jitter_ms
    if jitter_ms > 0:
        jitter = receiver_stream(seed, placement.id, "jitter").uniform(-jitter_ms, jitter_ms, ticks)
        processing_ms = processing_ms + jitter
    # latency_sample with hops=1: propagation plus processing.
    arrival = times + (geo.range_m / SPEED_OF_LIGHT_MPS + processing_ms * 1e-3)
    rx_time_s = np.where(decoded, arrival, np.nan)
    packets = PacketColumns(
        placement.id,
        np.arange(ticks, dtype=np.uint64),
        times,
        positions,
        decoded,
        rx_time_s,
        rx_time_s - times,
    )
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


@dataclass
class SweepResult:
    point: SweepPoint
    log: SimLog


def _scenario_for_point(base: Scenario, point: SweepPoint) -> Scenario:
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


class SweepPointError(ValueError):
    """A sweep grid point whose scenario does not validate."""


def _run_point(args: tuple) -> SweepResult:
    point, scenario = args
    return SweepResult(point=point, log=run_pass(scenario))


def run_sweep(
    base: Scenario,
    speeds_mps=None,
    powers_dbm=None,
    modulations=None,
    antennas=None,
    seeds=None,
    max_workers: int | None = None,
) -> list:
    """Run the cartesian grid of configurations around a base scenario.

    Each point is an independent pass whose outcome depends only on its own
    configuration and seed, never on grid order or parallel schedule. Every
    point's scenario is built before any pass runs; a point that does not
    validate raises SweepPointError naming it.
    """
    speeds = list(speeds_mps) if speeds_mps else [base.train.speed_mps]
    powers = list(powers_dbm) if powers_dbm else [base.radio.tx_power_dbm]
    mods = list(modulations) if modulations else [base.radio.modulation]
    ants = list(antennas) if antennas else [base.radio.tx_antenna]
    seed_list = list(seeds) if seeds else [base.seed]
    if not (speeds and powers and mods and ants and seed_list):
        raise ValueError("sweep grid must be non-empty")
    jobs = []
    for values in product(speeds, powers, mods, ants, seed_list):
        point = SweepPoint(*values)
        try:
            jobs.append((point, _scenario_for_point(base, point)))
        except (ValueError, KeyError) as exc:
            message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
            raise SweepPointError(
                f"sweep point speed_mps={point.speed_mps!r}, tx_power_dbm={point.tx_power_dbm!r}, "
                f"modulation={point.modulation!r}, tx_antenna={point.tx_antenna!r}, "
                f"seed={point.seed!r}: {message}"
            ) from None
    if max_workers is not None and max_workers > 1:
        # Imported here: loading multiprocessing costs every other command.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            return list(pool.map(_run_point, jobs))
    return [_run_point(job) for job in jobs]
