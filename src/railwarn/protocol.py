"""Broadcast warning protocol: receiver trigger logic and the RSU relay hop.

The train broadcasts a fixed-size basic safety message every transmit
period. Receivers accumulate decoded messages and raise a single warning
per pass once the reported train position is inside the trigger distance
on the approach side and enough distinct packets have arrived, so that one
stray decode cannot trigger an alarm.
"""

from dataclasses import dataclass

import numpy as np

from .link import LatencyModel, latency_sample
from .units import require_finite_fields

# Every broadcast safety message is this long; the size is not a setting.
BSM_SIZE_BYTES = 99


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
        require_finite_fields(self)
        if self.reliability_threshold < 1:
            raise ValueError("reliability threshold must be >= 1")
        if self.trigger_distance_m <= 0:
            raise ValueError("trigger distance must be positive")
        if self.window_s is not None and self.window_s <= 0:
            raise ValueError("window must be positive when set")


# The warning mode of each receiver kind: an RSU relays, an OBU warns its driver.
WARNING_MODES = {"RSU": "indirect", "OBU": "direct"}


@dataclass(frozen=True)
class WarningEvent:
    receiver_id: str
    source: str  # the receiver's kind
    mode: str  # WARNING_MODES[source]
    trigger_time_s: float
    train_d_t_at_trigger_m: float
    packets_seen: int
    relay_delivery_time_s: float | None = None


def first_warning(
    receiver_id: str,
    kind: str,
    rx_time_s: np.ndarray,
    seq: np.ndarray,
    position_m: np.ndarray,
    policy: TriggerPolicy,
) -> WarningEvent | None:
    """The one warning a receiver raises from its decodes in a pass, or None.

    Decode i arrived at rx_time_s[i] carrying sequence number seq[i] (each
    delivered once) and reported position position_m[i]. Arrivals are taken
    in (rx_time_s, seq) order, so jitter may reorder them; the packets seen
    at each arrival are a running count, less those older than window_s when
    a window is set. The warning is raised at the first arrival that reports
    the train on the approach side within the trigger distance while the
    packets seen meet the reliability threshold; packets decoded farther out
    count toward that threshold.
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
        mode=WARNING_MODES[kind],
        trigger_time_s=float(rx_time_s[first]),
        train_d_t_at_trigger_m=float(position_m[first]),
        packets_seen=int(seen[first]),
    )


def rsu_relay(
    event: WarningEvent,
    model: LatencyModel,
    rng: np.random.Generator,
) -> float:
    """Delivery time of the relayed warning after the second hop.

    Only meaningful for indirect-mode events: the roadside unit forwards a
    digested warning to vehicles at the crossing, over a hop of no length,
    adding one more processing delay.
    """
    if event.mode != "indirect":
        raise ValueError("relay applies to indirect-mode events only")
    return event.trigger_time_s + latency_sample(0.0, model, rng, hops=1)
