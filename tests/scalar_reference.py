"""Scalar reference implementations that the package's array code is tested against.

The package keeps one implementation per layer, on numpy arrays. This
module keeps the simple per-value forms of each layer and the simulator's
original per-tick pass loop built from them:

* geometry: train_position and link_geometry at one train position;
* antenna: pattern_gain at one angle pair, from azimuth_gain_dbi and
  elevation_gain_dbi;
* link: path_loss_db, excess_at of one obstruction segment, per_at of
  an empirical profile and packet_success_probability at one position;
* protocol: ReceiverState and receiver_ingest, fed one decode at a time;
* safety: safeness_curve_levels, a curve's levels and protection margin
  written out from the formulas, with none of the package's safety code;
* log: PacketRecord rows, with columns_from_records and packet_rows to go
  between rows and PacketColumns;
* reference_run_pass: per tick it calls the scalar layer functions
  (link_geometry, pattern_gain, packet_success_probability, latency_sample)
  and feeds every decode to receiver_ingest in arrival order. Its draws are
  scalar calls on the keyed streams: per tick one shadowing normal
  (sigma > 0), one decode uniform and one jitter uniform (jitter > 0, drawn
  on every tick, decoded or not), then the relay draw. run_pass must
  produce byte-identical logs, and raise the same errors.
"""

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from railwarn.antenna import AntennaPattern
from railwarn.engine import Scenario, receiver_stream, scenario_digest
from railwarn.geometry import (
    CrossingScene,
    DegenerateGeometryError,
    LinkGeometry,
    Placement,
    _default_rx_boresight,
    _unit,
    receiver_position,
    tick_count,
    wrap_angle_deg,
)
from railwarn.link import (
    ObstructionSegment,
    PerProfile,
    RadioConfig,
    SyntheticChannel,
    latency_sample,
)
from railwarn.logio import PacketColumns, SimLog
from railwarn.protocol import TriggerPolicy, WarningEvent, rsu_relay


def train_position(train_d_t_m: float, scene: CrossingScene) -> tuple[float, float, float]:
    ux, uy = _unit(scene.track_heading_deg)
    return ux * train_d_t_m, uy * train_d_t_m, scene.tx_height_m


def link_geometry(
    train_d_t_m: float, placement: Placement, scene: CrossingScene
) -> LinkGeometry:
    """Slant range and antenna-frame angles for one train position, as floats."""
    tx = train_position(train_d_t_m, scene)
    rx = receiver_position(placement, scene)
    dx, dy, dz = rx[0] - tx[0], rx[1] - tx[1], rx[2] - tx[2]
    horizontal = math.hypot(dx, dy)
    slant = math.sqrt(horizontal * horizontal + dz * dz)
    if slant == 0.0:
        raise DegenerateGeometryError(
            "transmitter and receiver coincide; check heights and offsets"
        )
    if horizontal == 0.0:
        # Directly above/below: azimuth is arbitrary, elevation is +/-90.
        bearing_t2r = scene.track_heading_deg
        bearing_r2t = _default_rx_boresight(placement, scene)
    else:
        bearing_t2r = math.degrees(math.atan2(dy, dx))
        bearing_r2t = math.degrees(math.atan2(-dy, -dx))
    if placement.boresight_deg is not None:
        rx_boresight = placement.boresight_deg
    else:
        rx_boresight = _default_rx_boresight(placement, scene)
    tx_elev = math.degrees(math.atan2(dz, horizontal))
    return LinkGeometry(
        range_m=slant,
        tx_azimuth_deg=wrap_angle_deg(bearing_t2r - scene.track_heading_deg),
        tx_elevation_deg=tx_elev,
        rx_azimuth_deg=wrap_angle_deg(bearing_r2t - rx_boresight),
        rx_elevation_deg=-tx_elev,
    )


def azimuth_gain_dbi(pattern: AntennaPattern, azimuth_deg: float) -> float:
    angles = np.array([a for a, _ in pattern.azimuth_cut])
    gains = np.array([g for _, g in pattern.azimuth_cut])
    if len(angles) == 1:
        return float(gains[0])
    return float(np.interp(azimuth_deg % 360.0, angles, gains, period=360.0))


def elevation_gain_dbi(pattern: AntennaPattern, elevation_deg: float) -> float:
    angles = np.array([a for a, _ in pattern.elevation_cut])
    gains = np.array([g for _, g in pattern.elevation_cut])
    if len(angles) == 1:
        return float(gains[0])
    clamped = min(max(elevation_deg, angles[0]), angles[-1])
    return float(np.interp(clamped, angles, gains))


def pattern_gain(pattern: AntennaPattern, azimuth_deg: float, elevation_deg: float) -> float:
    """Separable-cut gain estimate in dBi, clamped at the pattern floor."""
    combined = (
        azimuth_gain_dbi(pattern, azimuth_deg)
        + elevation_gain_dbi(pattern, elevation_deg)
        - pattern.peak_gain_dbi
    )
    return max(combined, pattern.floor_dbi)


def excess_at(segment: ObstructionSegment, train_d_t_m: float) -> float:
    if not segment.d_start_m <= train_d_t_m < segment.d_end_m:
        return 0.0
    if segment.gap_width_m > 0:
        into_period = (train_d_t_m - segment.d_start_m) % segment.gap_period_m
        if into_period >= segment.gap_period_m - segment.gap_width_m:
            return 0.0
    return segment.excess_loss_db


def path_loss_db(range_m: float, channel: SyntheticChannel) -> float:
    """Deterministic log-distance loss; shadowing is drawn by the caller."""
    if range_m <= 0:
        raise ValueError("range must be positive")
    return channel.reference_loss_db + 10.0 * channel.path_loss_exponent * math.log10(range_m)


def per_at(profile: PerProfile, train_d_t_m: float) -> float:
    """The per of the profile's bin holding the position; out of every bin,
    1 for a "zero" profile and ValueError for an "error" one."""
    for d_start, d_end, per in profile.bins:
        if d_start <= train_d_t_m < d_end:
            return per
    if profile.out_of_range == "zero":
        return 1.0
    raise ValueError(f"train distance {train_d_t_m:g} m outside the PER profile")


def packet_success_probability(
    train_d_t_m: float,
    combined_gain_dbi: float,
    radio: RadioConfig,
    channel,
    obstructions=(),
    shadowing_db: float = 0.0,
    range_m: float | None = None,
) -> float:
    """Probability that one packet decodes at this train position.

    With a PerProfile the answer is 1 - per for the bin containing the
    position; gains, obstructions and shadowing are ignored because the
    measurements already embody them. With a SyntheticChannel the mean SNR
    (tx power + gains - path loss - shadowing - obstruction excess - noise
    floor) feeds the logistic success curve. range_m defaults to the
    unsigned train distance when no slant range is supplied.
    """
    if isinstance(channel, PerProfile):
        return 1.0 - per_at(channel, train_d_t_m)
    if not isinstance(channel, SyntheticChannel):
        raise TypeError("channel must be a PerProfile or SyntheticChannel")
    if range_m is None:
        range_m = abs(train_d_t_m)
    loss = path_loss_db(range_m, channel) + shadowing_db
    loss += sum(excess_at(segment, train_d_t_m) for segment in obstructions)
    snr_db = radio.tx_power_dbm + combined_gain_dbi - loss - channel.noise_floor_dbm
    margin = (snr_db - channel.threshold_db(radio.modulation)) / channel.transition_width_db
    return 1.0 / (1.0 + math.exp(-margin))


@dataclass
class ReceiverState:
    """Per-pass mutable decode history for one receiver."""

    receiver_id: str
    kind: str  # "RSU" | "OBU"
    received: list = field(default_factory=list)  # (rx_time_s, seq)
    highest_seq: int = -1
    reorder_count: int = 0
    event: WarningEvent | None = None


def receiver_ingest(
    seq: int,
    position_m: float,
    rx_time_s: float,
    state: ReceiverState,
    policy: TriggerPolicy,
) -> WarningEvent | None:
    """Feed one decoded message to a receiver; maybe return its warning.

    The message carries sequence number seq and the reported train
    position position_m. Messages are accepted in any order (latency jitter
    can reorder); out-of-order arrivals are counted, not dropped. At most
    one warning is emitted per pass, the first time the train is reported
    on the approach side within the trigger distance while the
    distinct-packet count meets the reliability threshold.
    """
    if seq < state.highest_seq:
        state.reorder_count += 1
    else:
        state.highest_seq = seq
    state.received.append((rx_time_s, seq))
    if state.event is not None:
        return None
    if position_m > 0 or -position_m > policy.trigger_distance_m:
        return None
    if policy.window_s is None:
        distinct = {k for _, k in state.received}
    else:
        horizon = rx_time_s - policy.window_s
        distinct = {k for t, k in state.received if t >= horizon}
    if len(distinct) < policy.reliability_threshold:
        return None
    mode = "indirect" if state.kind == "RSU" else "direct"
    state.event = WarningEvent(
        receiver_id=state.receiver_id,
        source=state.kind,
        mode=mode,
        trigger_time_s=rx_time_s,
        train_d_t_at_trigger_m=position_m,
        packets_seen=len(distinct),
    )
    return state.event


def safeness_curve_levels(
    distances_m, train_speed_mps, warning_range_m, reaction_s, system_delay_s, braking_s
) -> tuple:
    """(levels, protection margin) of a safeness curve over distances_m.

    level = (d / v - stop) / (d_warn / v - stop) with stop = tr + ts + tb;
    every level is NaN when the margin (the denominator) is exactly 0.
    """
    stop = reaction_s + system_delay_s + braking_s
    margin = warning_range_m / train_speed_mps - stop
    levels = [
        math.nan if margin == 0 else (d / train_speed_mps - stop) / margin for d in distances_m
    ]
    return levels, margin


@dataclass(frozen=True)
class PacketRecord:
    """One packet of one receiver as a row; latency_s is derived from the
    times, as PacketColumns derives it."""

    seq: int
    tx_time_s: float
    train_d_t_m: float
    receiver_id: str
    decoded: bool
    rx_time_s: float | None = None

    def __post_init__(self) -> None:
        if self.decoded:
            if self.rx_time_s is None:
                raise ValueError("decoded records need rx_time_s")
            if self.rx_time_s < self.tx_time_s:
                raise ValueError("rx_time_s must be >= tx_time_s")

    @property
    def latency_s(self) -> float | None:
        return self.rx_time_s - self.tx_time_s if self.decoded else None


def columns_from_records(records, receiver_id: str) -> PacketColumns:
    """PacketColumns from PacketRecord rows of one receiver.

    Rejects what the columns cannot hold: a record of another receiver, an
    undecoded record with an rx time, and seq outside [0, 2**64).
    """
    records = list(records)
    for record in records:
        if record.receiver_id != receiver_id:
            raise ValueError(
                f"record of receiver {record.receiver_id!r} filed under {receiver_id!r}"
            )
        if not record.decoded and record.rx_time_s is not None:
            raise ValueError("undecoded records carry no rx_time_s")
        if record.seq < 0 or record.seq >= 2**64:
            raise ValueError(f"seq must be in [0, 2**64), got {record.seq}")
    return PacketColumns(
        [r.seq for r in records],
        [r.tx_time_s for r in records],
        [r.train_d_t_m for r in records],
        [math.nan if r.rx_time_s is None else r.rx_time_s for r in records],
    )


def packet_rows(packets: PacketColumns, receiver_id: str) -> list:
    """The PacketRecord rows of a receiver's columns, in order."""
    rows = []
    for index in range(len(packets)):
        decoded = bool(packets.decoded[index])
        rows.append(
            PacketRecord(
                seq=int(packets.seq[index]),
                tx_time_s=float(packets.tx_time_s[index]),
                train_d_t_m=float(packets.train_d_t_m[index]),
                receiver_id=receiver_id,
                decoded=decoded,
                rx_time_s=float(packets.rx_time_s[index]) if decoded else None,
            )
        )
    return rows


def reference_run_pass(scenario: Scenario, seed: int | None = None) -> SimLog:
    """Simulate one pass; a pure function of (scenario, seed)."""
    effective_seed = scenario.seed if seed is None else seed
    train = scenario.train
    period_s = scenario.radio.tx_period_s
    ticks = tick_count(train.duration_s, period_s)
    synthetic = isinstance(scenario.channel, SyntheticChannel)
    tx_pattern = scenario.resolve_pattern(scenario.radio.tx_antenna)
    rx_pattern = scenario.resolve_pattern(scenario.radio.rx_antenna)

    times = [k * period_s for k in range(ticks)]
    positions = [train.start_d_t_m + train.speed_mps * t for t in times]
    records: dict = {}
    events: list = []
    for placement in scenario.scene.receivers:
        streams = {
            purpose: receiver_stream(effective_seed, placement.id, purpose)
            for purpose in ("shadowing", "decode", "jitter", "relay")
        }
        jitter_ms = scenario.latency.processing_jitter_ms
        receiver_records = []
        decoded = []  # (rx_time_s, tick index)
        sigma = scenario.channel.shadowing_sigma_db if synthetic else 0.0
        for k in range(ticks):
            geo = link_geometry(positions[k], placement, scenario.scene)
            if synthetic:
                gain = pattern_gain(
                    tx_pattern, geo.tx_azimuth_deg, geo.tx_elevation_deg
                ) + pattern_gain(rx_pattern, geo.rx_azimuth_deg, geo.rx_elevation_deg)
                shadow = streams["shadowing"].normal(0.0, sigma) if sigma > 0 else 0.0
            else:
                gain = 0.0
                shadow = 0.0
            p = packet_success_probability(
                positions[k],
                gain,
                scenario.radio,
                scenario.channel,
                scenario.scene.obstructions,
                shadowing_db=shadow,
                range_m=geo.range_m,
            )
            if streams["decode"].random() < p:
                rx_time = times[k] + latency_sample(
                    geo.range_m, scenario.latency, streams["jitter"], hops=1
                )
                receiver_records.append(
                    PacketRecord(
                        seq=k,
                        tx_time_s=times[k],
                        train_d_t_m=positions[k],
                        receiver_id=placement.id,
                        decoded=True,
                        rx_time_s=rx_time,
                    )
                )
                decoded.append((rx_time, k))
            else:
                if jitter_ms > 0:
                    # The jitter stream advances on every tick.
                    streams["jitter"].uniform(-jitter_ms, jitter_ms)
                receiver_records.append(
                    PacketRecord(
                        seq=k,
                        tx_time_s=times[k],
                        train_d_t_m=positions[k],
                        receiver_id=placement.id,
                        decoded=False,
                    )
                )
        records[placement.id] = columns_from_records(receiver_records, placement.id)

        # Deliver decodes in arrival order; jitter may reorder them.
        state = ReceiverState(receiver_id=placement.id, kind=placement.kind)
        for rx_time, k in sorted(decoded):
            event = receiver_ingest(k, positions[k], rx_time, state, scenario.policy)
            if event is not None and placement.kind == "RSU":
                delivery = rsu_relay(event, scenario.latency, streams["relay"])
                event = dataclasses.replace(event, relay_delivery_time_s=delivery)
                state.event = event
        if state.event is not None:
            events.append(state.event)

    return SimLog(
        digest=scenario_digest(scenario),
        seed=effective_seed,
        train_speed_mps=train.speed_mps,
        tx_period_s=period_s,
        start_d_t_m=train.start_d_t_m,
        end_d_t_m=train.end_d_t_m,
        duration_s=train.duration_s,
        receivers=scenario.scene.receivers,
        records=records,
        events=events,
        analysis_window_m=scenario.analysis.window_width_m,
        coverage_threshold=scenario.analysis.coverage_threshold,
    )
