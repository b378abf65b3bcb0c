"""Flat-earth geometry of a straight track crossing a straight road.

The crossing sits at the origin. The track and the road are straight lines
through the origin with configurable headings (degrees from the +x axis).
Train positions are given as signed distance along the track, negative on
the approach side; receivers sit along the road at a signed offset from the
crossing. All antennas are point sources at their mounting heights.
"""

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .units import require_finite_fields

if TYPE_CHECKING:
    from .link import ObstructionSegment


class DegenerateGeometryError(ValueError):
    """Transmitter and receiver coincide; angles are undefined."""


@dataclass(frozen=True)
class Placement:
    """A fixed receiver: roadside unit (RSU) or vehicle on-board unit (OBU)."""

    id: str
    kind: str
    offset_from_crossing_m: float
    height_m: float
    boresight_deg: float | None = None

    def __post_init__(self) -> None:
        require_finite_fields(self)
        if self.kind not in ("RSU", "OBU"):
            raise ValueError(f"placement kind must be RSU or OBU, got {self.kind!r}")
        if self.height_m <= 0:
            raise ValueError("receiver height must be positive")


@dataclass(frozen=True)
class TrainRun:
    """Constant-speed pass through the crossing."""

    speed_mps: float
    start_d_t_m: float = -600.0
    end_d_t_m: float = 600.0

    def __post_init__(self) -> None:
        require_finite_fields(self)
        if self.speed_mps <= 0:
            raise ValueError("train speed must be positive")
        if not self.start_d_t_m < 0 < self.end_d_t_m:
            raise ValueError("pass must start before the crossing and end after it")

    @property
    def duration_s(self) -> float:
        return (self.end_d_t_m - self.start_d_t_m) / self.speed_mps

    def ticks(self, period_s: float) -> tuple:
        """The seq, tx_time_s and train_d_t_m columns of a pass transmitting every period_s."""
        times = np.arange(tick_count(self.duration_s, period_s)) * period_s
        seq = np.arange(len(times), dtype=np.uint64)
        return seq, times, self.start_d_t_m + self.speed_mps * times


def tick_count(duration_s: float, period_s: float) -> int:
    """Transmit ticks of a pass: +1 for the packet at t = 0; a small epsilon
    makes exact multiples round down consistently, not drop the last tick."""
    return math.floor(duration_s / period_s + 1e-9) + 1


@dataclass(frozen=True)
class CrossingScene:
    track_heading_deg: float = 0.0
    road_heading_deg: float = 90.0
    tx_height_m: float = 4.0
    receivers: tuple[Placement, ...] = ()
    obstructions: "tuple[ObstructionSegment, ...]" = ()

    def __post_init__(self) -> None:
        require_finite_fields(self)
        if self.tx_height_m <= 0:
            raise ValueError("transmit antenna height must be positive")
        if _parallel(self.track_heading_deg, self.road_heading_deg):
            raise ValueError("track and road headings must be distinct lines")
        ids = [p.id for p in self.receivers]
        if len(ids) != len(set(ids)):
            raise ValueError("receiver ids must be unique")


@dataclass(frozen=True)
class LinkGeometry:
    """Link geometry at many train positions: one numpy array per quantity."""

    range_m: np.ndarray
    tx_azimuth_deg: np.ndarray
    tx_elevation_deg: np.ndarray
    rx_azimuth_deg: np.ndarray
    rx_elevation_deg: np.ndarray


def _parallel(heading_a: float, heading_b: float) -> bool:
    return math.isclose((heading_a - heading_b) % 180.0, 0.0, abs_tol=1e-9) or (
        math.isclose((heading_a - heading_b) % 180.0, 180.0, abs_tol=1e-9)
    )


def _unit(heading_deg: float) -> tuple[float, float]:
    rad = math.radians(heading_deg)
    return math.cos(rad), math.sin(rad)


def wrap_angle_deg(angle: float) -> float:
    """Wrap into [-180, 180)."""
    return (angle + 180.0) % 360.0 - 180.0


def receiver_position(placement: Placement, scene: CrossingScene) -> tuple[float, float, float]:
    ux, uy = _unit(scene.road_heading_deg)
    return (
        ux * placement.offset_from_crossing_m,
        uy * placement.offset_from_crossing_m,
        placement.height_m,
    )


def link_geometry(
    train_d_t_m: np.ndarray, placement: Placement, scene: CrossingScene
) -> LinkGeometry:
    """Slant range and antenna-frame angles at every train position of an array.

    The transmit boresight points along the track in the direction of
    travel (increasing signed distance). The receive boresight is the
    placement's boresight heading, defaulting to pointing at the crossing.
    Azimuths are relative to those boresights, elevations relative to the
    horizontal plane.

    Positions and differences use the same floating-point operations as the
    per-position scalar reference (tests/scalar_reference.py). The
    horizontal distance goes through math.hypot, because np.hypot differs
    from it in the last bit on some inputs and the range feeds the logged
    latency; the slant range is then bit-identical. The angles come from
    np.arctan2 and may differ in the last bit.
    """
    ux, uy = _unit(scene.track_heading_deg)
    rx = receiver_position(placement, scene)
    dx = rx[0] - ux * train_d_t_m
    dy = rx[1] - uy * train_d_t_m
    dz = rx[2] - scene.tx_height_m
    horizontal = np.array(list(map(math.hypot, dx.tolist(), dy.tolist())))
    slant = np.sqrt(horizontal * horizontal + dz * dz)
    if not slant.all():
        raise DegenerateGeometryError(
            "transmitter and receiver coincide; check heights and offsets"
        )
    default_boresight = _default_rx_boresight(placement, scene)
    overhead = horizontal == 0.0
    # Directly above/below: azimuth is arbitrary, elevation is +/-90.
    bearing_t2r = np.where(overhead, scene.track_heading_deg, np.degrees(np.arctan2(dy, dx)))
    bearing_r2t = np.where(overhead, default_boresight, np.degrees(np.arctan2(-dy, -dx)))
    if placement.boresight_deg is not None:
        rx_boresight = placement.boresight_deg
    else:
        rx_boresight = default_boresight
    tx_elev = np.degrees(np.arctan2(dz, horizontal))
    return LinkGeometry(
        range_m=slant,
        tx_azimuth_deg=wrap_angle_deg(bearing_t2r - scene.track_heading_deg),
        tx_elevation_deg=tx_elev,
        rx_azimuth_deg=wrap_angle_deg(bearing_r2t - rx_boresight),
        rx_elevation_deg=-tx_elev,
    )


def _default_rx_boresight(placement: Placement, scene: CrossingScene) -> float:
    # Pointing from the receiver toward the crossing (the origin).
    if placement.offset_from_crossing_m > 0:
        return scene.road_heading_deg + 180.0
    return scene.road_heading_deg
