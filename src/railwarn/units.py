"""Unit conversions and physical constants shared across the package.

Internal convention: distances in meters (signed, crossing at 0, negative on
the approach side), times in seconds, speeds in m/s, powers in dBm, gains in
dBi. Miles per hour appear only at user-facing boundaries.
"""

import math

MPH_TO_MPS = 0.44704
SPEED_OF_LIGHT_MPS = 299_792_458.0


def require_finite(**values) -> None:
    """Raise ValueError naming the first value that is NaN or infinite.

    None passes, so optional settings can be checked as they are. Every
    comparison with NaN is false, so a NaN that reaches a range check or a
    gate would pass it silently; the config dataclasses call this first.
    """
    for name, value in values.items():
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def mph_to_mps(speed_mph: float) -> float:
    return speed_mph * MPH_TO_MPS


def mps_to_mph(speed_mps: float) -> float:
    return speed_mps / MPH_TO_MPS


def parse_speed(text: str) -> float:
    """Parse '10mph', '4.47 mps', '4.47 m/s' or a bare number (m/s) into m/s."""
    cleaned = text.strip().lower().replace(" ", "")
    if cleaned.endswith("mph"):
        return mph_to_mps(float(cleaned[:-3]))
    if cleaned.endswith("mps"):
        return float(cleaned[:-3])
    if cleaned.endswith("m/s"):
        return float(cleaned[:-3])
    return float(cleaned)
