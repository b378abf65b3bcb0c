"""Antenna patterns: principal-plane cuts and the gain they give at any angle.

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

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .units import require_finite, require_finite_fields

DEFAULT_FLOOR_DBI = -10.0


@dataclass(frozen=True)
class AntennaPattern:
    name: str
    azimuth_cut: tuple[tuple[float, float], ...]
    elevation_cut: tuple[tuple[float, float], ...]
    peak_gain_dbi: float
    floor_dbi: float = DEFAULT_FLOOR_DBI

    def __post_init__(self) -> None:
        require_finite_fields(self)
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
        # pattern_gain's sum lies between these two, so it is finite where they are.
        for extreme, total in zip((min, max), self.cut_sums_dbi):
            if not math.isfinite(total):
                name = f"{extreme.__name__}imum azimuth plus elevation gain"
                raise ValueError(f"the {name}, less the peak, overflows")

    @cached_property
    def cut_sums_dbi(self) -> tuple:
        """The least and the greatest azimuth plus elevation gain, less the peak."""
        cuts = (self.azimuth_cut, self.elevation_cut)
        return tuple(
            sum(extreme(g for _, g in cut) for cut in cuts) - self.peak_gain_dbi
            for extreme in (min, max)
        )

    @cached_property
    def cut_arrays(self) -> tuple:
        """(azimuth angles, azimuth gains, elevation angles, elevation gains), built once.

        The arrays are read-only, because a built-in pattern object is shared.
        """
        arrays = tuple(
            np.array(column, dtype=float)
            for cut in (self.azimuth_cut, self.elevation_cut)
            for column in zip(*cut)
        )
        for array in arrays:
            array.flags.writeable = False
        return arrays


def pattern_gain(
    pattern: AntennaPattern, azimuth_deg: np.ndarray, elevation_deg: np.ndarray
) -> np.ndarray:
    """Separable-cut gain in dBi at every angle pair of two arrays, clamped at
    the pattern floor; computed from the cached cut arrays."""
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


def omni_pattern(peak_gain_dbi: float, name: str) -> AntennaPattern:
    """Ideal omnidirectional pattern: flat in both cuts."""
    return AntennaPattern(
        name=name,
        azimuth_cut=((0.0, peak_gain_dbi),),
        elevation_cut=((0.0, peak_gain_dbi),),
        peak_gain_dbi=peak_gain_dbi,
    )


def bidirectional_pattern(peak_gain_dbi: float, beamwidth_deg: float, name: str) -> AntennaPattern:
    """Two-panel pattern with Gaussian main lobes fore and aft (0 and 180 deg).

    The lobe follows -12*(delta/beamwidth)^2 dB, i.e. -3 dB at half the
    beamwidth off boresight, floored at DEFAULT_FLOOR_DBI. Elevation has a single
    lobe of the same width centred on the horizon.
    """
    if beamwidth_deg <= 0:
        raise ValueError("beamwidth must be positive")

    def lobe(delta_deg: float) -> float:
        rel = -12.0 * (delta_deg / beamwidth_deg) ** 2
        return max(peak_gain_dbi + rel, DEFAULT_FLOOR_DBI)

    azimuth = []
    for angle in range(360):
        fore = abs((angle + 180.0) % 360.0 - 180.0)
        aft = abs((angle - 180.0 + 180.0) % 360.0 - 180.0)
        azimuth.append((float(angle), lobe(min(fore, aft))))
    elevation = [(float(angle), lobe(abs(angle))) for angle in range(-90, 91)]
    return AntennaPattern(
        name=name,
        azimuth_cut=tuple(azimuth),
        elevation_cut=tuple(elevation),
        peak_gain_dbi=peak_gain_dbi,
    )


_BUILTIN_FACTORIES = {
    "omni6": lambda: omni_pattern(6.0, "omni6"),
    "omni12": lambda: omni_pattern(12.0, "omni12"),
    "bidir23": lambda: bidirectional_pattern(23.0, 10.0, "bidir23"),
}


@cache
def builtin_pattern(name: str) -> AntennaPattern:
    """The built-in pattern of that name, built once and shared."""
    try:
        return _BUILTIN_FACTORIES[name]()
    except KeyError:
        raise KeyError(
            f"unknown antenna pattern {name!r}; built-ins are {sorted(_BUILTIN_FACTORIES)}"
        ) from None
