"""Broadcast warning protocol: messages, receiver trigger logic, relay.

The train broadcasts a fixed-size basic safety message every transmit
period. Receivers accumulate decoded messages and raise a single warning
per pass once the reported train position is inside the trigger distance
on the approach side and enough distinct packets have arrived, so that one
stray decode cannot trigger an alarm.
"""

import struct
from dataclasses import dataclass, field

import numpy as np

from .link import LatencyModel, latency_sample
from .units import require_finite

BSM_SIZE_BYTES = 99
_BSM_HEADER = struct.Struct("<IQdfffBQ")
_BSM_PADDING = BSM_SIZE_BYTES - _BSM_HEADER.size


@dataclass(frozen=True)
class BsmMessage:
    """One broadcast safety message.

    Serialises to exactly 99 bytes: count u32, train id u64, signed track
    position f64, speed f32, heading f32, acceleration f32, brake u8,
    timestamp u64 (microseconds), zero padding. The f32 fields lose
    precision accordingly on a round trip.
    """

    message_count: int
    train_id: int
    gps_position_m: float
    speed_mps: float
    heading_deg: float
    acceleration_mps2: float
    brake_status: bool
    tx_timestamp_us: int

    def encode(self) -> bytes:
        packed = _BSM_HEADER.pack(
            self.message_count,
            self.train_id,
            self.gps_position_m,
            self.speed_mps,
            self.heading_deg,
            self.acceleration_mps2,
            1 if self.brake_status else 0,
            self.tx_timestamp_us,
        )
        return packed + b"\x00" * _BSM_PADDING

    @classmethod
    def decode(cls, data: bytes) -> "BsmMessage":
        if len(data) != BSM_SIZE_BYTES:
            raise ValueError(f"BSM must be {BSM_SIZE_BYTES} bytes, got {len(data)}")
        count, train_id, position, speed, heading, accel, brake, timestamp = (
            _BSM_HEADER.unpack(data[: _BSM_HEADER.size])
        )
        return cls(
            message_count=count,
            train_id=train_id,
            gps_position_m=position,
            speed_mps=speed,
            heading_deg=heading,
            acceleration_mps2=accel,
            brake_status=bool(brake),
            tx_timestamp_us=timestamp,
        )


@dataclass(frozen=True)
class TrainState:
    train_id: int
    distance_to_crossing_m: float
    speed_mps: float
    heading_deg: float
    acceleration_mps2: float = 0.0
    brake_engaged: bool = False


def generate_bsm(state: TrainState, seq: int, clock_s: float) -> BsmMessage:
    """Populate a message from the instantaneous train state."""
    return BsmMessage(
        message_count=seq,
        train_id=state.train_id,
        gps_position_m=state.distance_to_crossing_m,
        speed_mps=state.speed_mps,
        heading_deg=state.heading_deg,
        acceleration_mps2=state.acceleration_mps2,
        brake_status=state.brake_engaged,
        tx_timestamp_us=round(clock_s * 1e6),
    )


@dataclass(frozen=True)
class TriggerPolicy:
    """When a receiver raises the warning.

    reliability_threshold is the number of distinct packets that must have
    been decoded (within window_s, if set) before a warning counts as
    reliable. trigger_distance_m gates on the reported train position.
    """

    reliability_threshold: int = 5
    trigger_distance_m: float = 200.0
    window_s: float | None = None

    def __post_init__(self) -> None:
        require_finite(trigger_distance_m=self.trigger_distance_m, window_s=self.window_s)
        if self.reliability_threshold < 1:
            raise ValueError("reliability threshold must be >= 1")
        if self.trigger_distance_m <= 0:
            raise ValueError("trigger distance must be positive")
        if self.window_s is not None and self.window_s <= 0:
            raise ValueError("window must be positive when set")


@dataclass(frozen=True)
class WarningEvent:
    receiver_id: str
    source: str  # "RSU" | "OBU"
    mode: str  # "indirect" | "direct"
    trigger_time_s: float
    train_d_t_at_trigger_m: float
    packets_seen: int
    relay_delivery_time_s: float | None = None


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
    message: BsmMessage,
    rx_time_s: float,
    state: ReceiverState,
    policy: TriggerPolicy,
) -> WarningEvent | None:
    """Feed one decoded message to a receiver; maybe return its warning.

    Messages are accepted in any order (latency jitter can reorder);
    out-of-order arrivals are counted, not dropped. At most one warning is
    emitted per pass, the first time the train is reported on the approach
    side within the trigger distance while the distinct-packet count meets
    the reliability threshold.
    """
    if message.message_count < state.highest_seq:
        state.reorder_count += 1
    else:
        state.highest_seq = message.message_count
    state.received.append((rx_time_s, message.message_count))
    if state.event is not None:
        return None
    position = message.gps_position_m
    if position > 0 or -position > policy.trigger_distance_m:
        return None
    if policy.window_s is None:
        distinct = {seq for _, seq in state.received}
    else:
        horizon = rx_time_s - policy.window_s
        distinct = {seq for t, seq in state.received if t >= horizon}
    if len(distinct) < policy.reliability_threshold:
        return None
    mode = "indirect" if state.kind == "RSU" else "direct"
    state.event = WarningEvent(
        receiver_id=state.receiver_id,
        source=state.kind,
        mode=mode,
        trigger_time_s=rx_time_s,
        train_d_t_at_trigger_m=position,
        packets_seen=len(distinct),
    )
    return state.event


def first_warning(
    receiver_id: str,
    kind: str,
    rx_time_s: np.ndarray,
    seq: np.ndarray,
    position_m: np.ndarray,
    policy: TriggerPolicy,
) -> WarningEvent | None:
    """The event of receiver_ingest fed every decode, computed on arrays.

    Decode i arrived at rx_time_s[i] carrying sequence number seq[i] (each
    delivered once) and reported position position_m[i]. Arrivals are taken
    in (rx_time_s, seq) order; the packets seen at each arrival are a
    running count, less those older than window_s when a window is set.
    """
    order = np.lexsort((seq, rx_time_s))
    rx_time_s = rx_time_s[order]
    position_m = position_m[order]
    seen = np.arange(1, len(order) + 1)
    if policy.window_s is not None:
        seen -= np.searchsorted(rx_time_s, rx_time_s - policy.window_s, side="left")
    ready = (
        (position_m <= 0)
        & (-position_m <= policy.trigger_distance_m)
        & (seen >= policy.reliability_threshold)
    )
    if not ready.any():
        return None
    first = int(ready.argmax())
    return WarningEvent(
        receiver_id=receiver_id,
        source=kind,
        mode="indirect" if kind == "RSU" else "direct",
        trigger_time_s=float(rx_time_s[first]),
        train_d_t_at_trigger_m=float(position_m[first]),
        packets_seen=int(seen[first]),
    )


def rsu_relay(
    event: WarningEvent,
    model: LatencyModel,
    rng: np.random.Generator,
    hop_range_m: float = 0.0,
) -> float:
    """Delivery time of the relayed warning after the second hop.

    Only meaningful for indirect-mode events: the roadside unit forwards a
    digested warning to vehicles, adding one more propagation plus
    processing delay.
    """
    if event.mode != "indirect":
        raise ValueError("relay applies to indirect-mode events only")
    return event.trigger_time_s + latency_sample(hop_range_m, model, rng, hops=1)
