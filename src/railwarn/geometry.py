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

from .units import require_finite

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
        require_finite(
            offset_from_crossing_m=self.offset_from_crossing_m,
            height_m=self.height_m,
            boresight_deg=self.boresight_deg,
        )
        if self.kind not in ("RSU", "OBU"):
            raise ValueError(f"placement kind must be RSU or OBU, got {self.kind!r}")
        if self.height_m <= 0:
            raise ValueError("receiver height must be positive")


@dataclass(frozen=True)
class CrossingScene:
    track_heading_deg: float = 0.0
    road_heading_deg: float = 90.0
    tx_height_m: float = 4.0
    receivers: tuple[Placement, ...] = ()
    obstructions: "tuple[ObstructionSegment, ...]" = ()

    def __post_init__(self) -> None:
        require_finite(
            track_heading_deg=self.track_heading_deg,
            road_heading_deg=self.road_heading_deg,
            tx_height_m=self.tx_height_m,
        )
        if self.tx_height_m <= 0:
            raise ValueError("transmit antenna height must be positive")
        if _parallel(self.track_heading_deg, self.road_heading_deg):
            raise ValueError("track and road headings must be distinct lines")
        ids = [p.id for p in self.receivers]
        if len(ids) != len(set(ids)):
            raise ValueError("receiver ids must be unique")

    def receiver(self, receiver_id: str) -> Placement:
        for placement in self.receivers:
            if placement.id == receiver_id:
                return placement
        raise KeyError(receiver_id)


@dataclass(frozen=True)
class LinkGeometry:
    """Link geometry at one train position, or at many as numpy arrays."""

    range_m: float
    tx_azimuth_deg: float
    tx_elevation_deg: float
    rx_azimuth_deg: float
    rx_elevation_deg: float


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


def train_position(train_d_t_m: float, scene: CrossingScene) -> tuple[float, float, float]:
    ux, uy = _unit(scene.track_heading_deg)
    return ux * train_d_t_m, uy * train_d_t_m, scene.tx_height_m


def receiver_position(placement: Placement, scene: CrossingScene) -> tuple[float, float, float]:
    ux, uy = _unit(scene.road_heading_deg)
    return (
        ux * placement.offset_from_crossing_m,
        uy * placement.offset_from_crossing_m,
        placement.height_m,
    )


def link_geometry(
    train_d_t_m: float, placement: Placement, scene: CrossingScene
) -> LinkGeometry:
    """Slant range and antenna-frame angles for one train position.

    The transmit boresight points along the track in the direction of
    travel (increasing signed distance). The receive boresight is the
    placement's boresight heading, defaulting to pointing at the crossing.
    Azimuths are relative to those boresights, elevations relative to the
    horizontal plane.
    """
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


def link_geometry_array(
    train_d_t_m: np.ndarray, placement: Placement, scene: CrossingScene
) -> LinkGeometry:
    """link_geometry at every position of an array, as a LinkGeometry of arrays.

    Positions and differences use the same floating-point operations as the
    scalar form. The horizontal distance goes through math.hypot, because
    np.hypot differs from it in the last bit on some inputs and the range
    feeds the logged latency; the slant range is then bit-identical. The
    angles come from np.arctan2 and may differ in the last bit.
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
