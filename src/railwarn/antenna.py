"""Antenna patterns and effective link gain along a train pass.

Patterns are stored as principal-plane cuts (azimuth and elevation) of
absolute gain in dBi. The full pattern is reconstructed with the separable
approximation gain(az, el) = az_cut(az) + el_cut(el) - peak, linearly
interpolated between tabulated angles and clamped below at a configurable
floor. Azimuth cuts wrap modulo 360 degrees; elevation cuts clamp at their
end points.

Built-in stand-ins cover the hardware classes used in the field: flat
omnidirectional patterns at 6 and 12 dBi, and a 23 dBi two-panel pattern
(main lobes fore and aft along the track) with a Gaussian main lobe of
10 degrees half-power beamwidth in both planes.
"""

import csv
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .geometry import CrossingScene, Placement, link_geometry
from .units import require_finite

DEFAULT_FLOOR_DBI = -10.0


@dataclass(frozen=True)
class AntennaPattern:
    name: str
    azimuth_cut: tuple[tuple[float, float], ...]
    elevation_cut: tuple[tuple[float, float], ...]
    peak_gain_dbi: float
    floor_dbi: float = DEFAULT_FLOOR_DBI

    def __post_init__(self) -> None:
        require_finite(peak_gain_dbi=self.peak_gain_dbi, floor_dbi=self.floor_dbi)
        for label, cut in (("azimuth", self.azimuth_cut), ("elevation", self.elevation_cut)):
            for angle, gain in cut:
                require_finite(angle_deg=angle, gain_dbi=gain)
            if not cut:
                raise ValueError(f"{label} cut must not be empty")
            angles = [angle for angle, _ in cut]
            if any(b <= a for a, b in zip(angles, angles[1:])):
                raise ValueError(f"{label} cut angles must be strictly increasing")
            if any(gain > self.peak_gain_dbi + 1e-9 for _, gain in cut):
                raise ValueError(f"{label} cut exceeds the peak gain")

    def azimuth_gain_dbi(self, azimuth_deg: float) -> float:
        angles = np.array([a for a, _ in self.azimuth_cut])
        gains = np.array([g for _, g in self.azimuth_cut])
        if len(angles) == 1:
            return float(gains[0])
        return float(np.interp(azimuth_deg % 360.0, angles, gains, period=360.0))

    def elevation_gain_dbi(self, elevation_deg: float) -> float:
        angles = np.array([a for a, _ in self.elevation_cut])
        gains = np.array([g for _, g in self.elevation_cut])
        if len(angles) == 1:
            return float(gains[0])
        clamped = min(max(elevation_deg, angles[0]), angles[-1])
        return float(np.interp(clamped, angles, gains))

    @cached_property
    def cut_arrays(self) -> tuple:
        """(azimuth angles, azimuth gains, elevation angles, elevation gains), built once."""
        return tuple(
            np.array(column, dtype=float)
            for cut in (self.azimuth_cut, self.elevation_cut)
            for column in zip(*cut)
        )

    def azimuth_variation_db(self) -> float:
        gains = [g for _, g in self.azimuth_cut]
        return max(gains) - min(gains)


def pattern_gain(pattern: AntennaPattern, azimuth_deg: float, elevation_deg: float) -> float:
    """Separable-cut gain estimate in dBi, clamped at the pattern floor."""
    combined = (
        pattern.azimuth_gain_dbi(azimuth_deg)
        + pattern.elevation_gain_dbi(elevation_deg)
        - pattern.peak_gain_dbi
    )
    return max(combined, pattern.floor_dbi)


def pattern_gain_array(
    pattern: AntennaPattern, azimuth_deg: np.ndarray, elevation_deg: np.ndarray
) -> np.ndarray:
    """pattern_gain at every angle pair of two arrays, from the cached cut arrays."""
    az_angles, az_gains, el_angles, el_gains = pattern.cut_arrays
    if len(az_angles) == 1:
        azimuth = az_gains[0]
    else:
        azimuth = np.interp(azimuth_deg % 360.0, az_angles, az_gains, period=360.0)
    if len(el_angles) == 1:
        elevation = el_gains[0]
    else:
        clamped = np.clip(elevation_deg, el_angles[0], el_angles[-1])
        elevation = np.interp(clamped, el_angles, el_gains)
    combined = azimuth + elevation - pattern.peak_gain_dbi
    return np.maximum(np.broadcast_to(combined, np.shape(azimuth_deg)), pattern.floor_dbi)


def omni_pattern(peak_gain_dbi: float, name: str | None = None) -> AntennaPattern:
    """Ideal omnidirectional pattern: flat in both cuts."""
    return AntennaPattern(
        name=name or f"omni{peak_gain_dbi:g}",
        azimuth_cut=((0.0, peak_gain_dbi),),
        elevation_cut=((0.0, peak_gain_dbi),),
        peak_gain_dbi=peak_gain_dbi,
    )


def bidirectional_pattern(
    peak_gain_dbi: float,
    beamwidth_deg: float = 10.0,
    name: str | None = None,
    floor_dbi: float = DEFAULT_FLOOR_DBI,
) -> AntennaPattern:
    """Two-panel pattern with Gaussian main lobes fore and aft (0 and 180 deg).

    The lobe follows -12*(delta/beamwidth)^2 dB, i.e. -3 dB at half the
    beamwidth off boresight, floored at floor_dbi. Elevation has a single
    lobe of the same width centred on the horizon.
    """
    if beamwidth_deg <= 0:
        raise ValueError("beamwidth must be positive")

    def lobe(delta_deg: float) -> float:
        rel = -12.0 * (delta_deg / beamwidth_deg) ** 2
        return max(peak_gain_dbi + rel, floor_dbi)

    azimuth = []
    for angle in range(360):
        fore = abs((angle + 180.0) % 360.0 - 180.0)
        aft = abs((angle - 180.0 + 180.0) % 360.0 - 180.0)
        azimuth.append((float(angle), lobe(min(fore, aft))))
    elevation = [(float(angle), lobe(abs(angle))) for angle in range(-90, 91)]
    return AntennaPattern(
        name=name or f"bidir{peak_gain_dbi:g}",
        azimuth_cut=tuple(azimuth),
        elevation_cut=tuple(elevation),
        peak_gain_dbi=peak_gain_dbi,
        floor_dbi=floor_dbi,
    )


_BUILTIN_FACTORIES = {
    "omni6": lambda: omni_pattern(6.0, "omni6"),
    "omni12": lambda: omni_pattern(12.0, "omni12"),
    "bidir23": lambda: bidirectional_pattern(23.0, 10.0, "bidir23"),
}


def builtin_pattern(name: str) -> AntennaPattern:
    try:
        return _BUILTIN_FACTORIES[name]()
    except KeyError:
        raise KeyError(
            f"unknown antenna pattern {name!r}; built-ins are {sorted(_BUILTIN_FACTORIES)}"
        ) from None


def builtin_pattern_names() -> tuple[str, ...]:
    return tuple(sorted(_BUILTIN_FACTORIES))


def _read_cut_csv(path: str | Path) -> tuple[tuple[float, float], ...]:
    cut = []
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or not {"angle_deg", "gain_dbi"}.issubset(reader.fieldnames):
            raise ValueError(f"antenna cut CSV {path} must have columns angle_deg,gain_dbi")
        for record in reader:
            cut.append((float(record["angle_deg"]), float(record["gain_dbi"])))
    return tuple(cut)


def pattern_from_csv(
    name: str,
    azimuth_csv: str | Path,
    elevation_csv: str | Path,
    peak_gain_dbi: float | None = None,
    floor_dbi: float = DEFAULT_FLOOR_DBI,
) -> AntennaPattern:
    """Load a pattern from two cut files with header angle_deg,gain_dbi."""
    azimuth = _read_cut_csv(azimuth_csv)
    elevation = _read_cut_csv(elevation_csv)
    if peak_gain_dbi is None:
        peak_gain_dbi = max(g for _, g in azimuth + elevation)
    return AntennaPattern(
        name=name,
        azimuth_cut=azimuth,
        elevation_cut=elevation,
        peak_gain_dbi=peak_gain_dbi,
        floor_dbi=floor_dbi,
    )


def effective_gain_profile(
    scene: CrossingScene,
    tx_pattern: AntennaPattern,
    rx_pattern: AntennaPattern,
    placement: Placement,
    distances_m,
) -> list[tuple[float, float]]:
    """Combined tx+rx gain versus train distance, assuming a clear path."""
    distances = list(distances_m)
    if not distances:
        raise ValueError("distance sweep must be non-empty")
    profile = []
    for distance in distances:
        geo = link_geometry(distance, placement, scene)
        gain = pattern_gain(
            tx_pattern, geo.tx_azimuth_deg, geo.tx_elevation_deg
        ) + pattern_gain(rx_pattern, geo.rx_azimuth_deg, geo.rx_elevation_deg)
        profile.append((distance, gain))
    return profile
