"""Timing-budget math for a radio warning system at a railroad grade crossing.

A train at speed v approaches a crossing, and a road vehicle must be warned
in time to stop. With a warning range d_warn, driver reaction tr (default
3.5 s), warning-system delay ts (propagation plus processing, default 5 ms),
vehicle braking tb (from the stopping-distance table below) and a train t
seconds from the crossing, each formula is stated once:

* stop budget = tr + ts + tb, summed in that order (_stop_budget_s)
* available time T = d_warn / v (time_to_avoid_collision)
* protection margin = T - stop budget; <= 0 means the system failed
* level = (t - stop budget) / margin, NaN at a zero margin (safeness_level):
  0 is exactly enough time left to stop, 1 the whole budget still in hand
* minimum required range = v * stop budget, with ts = 0 unless given
  (minimum_required_range); a safeness curve's level-0 distance is it with ts

Every input and result is finite: a NaN, an infinity or an overflow raises
ValueError, as do a negative time or range and a speed <= 0.

Vehicle stopping distances are the averages published in the Virginia
driver's manual for 25-65 mph on dry and wet pavement. The table's m/s
column keeps its original coarse rounding so that derived braking times
match the published figures; everything else in the package converts with
the exact mph factor.
"""

import math
from dataclasses import dataclass
from enum import Enum

from .units import require_finite

DEFAULT_REACTION_S = 3.5
DEFAULT_SYSTEM_DELAY_S = 0.005

ROADS = ("dry", "wet")

# Train distances a safeness curve is evaluated at.
CURVE_POINTS = 251


@dataclass(frozen=True)
class BrakingRow:
    speed_mph: float
    speed_mps: float
    dry_m: float
    wet_m: float


# The Virginia stopping table: speeds strictly increasing, wet never shorter than dry.
BRAKING_TABLE = (
    BrakingRow(25.0, 11.11, 25.5, 51.3),
    BrakingRow(35.0, 15.55, 41.4, 82.8),
    BrakingRow(45.0, 20.00, 59.1, 118.2),
    BrakingRow(55.0, 24.44, 79.8, 159.3),
    BrakingRow(65.0, 28.89, 103.2, 206.7),
)


def _interpolate(speed_mph: float, column: str) -> float:
    """A BRAKING_TABLE column at speed_mph, linear between rows; a speed
    outside the table raises."""
    low_mph, high_mph = BRAKING_TABLE[0].speed_mph, BRAKING_TABLE[-1].speed_mph
    if not low_mph <= speed_mph <= high_mph:
        raise ValueError(
            f"vehicle speed {speed_mph:g} mph outside tabulated range "
            f"{low_mph:g}-{high_mph:g} mph; extrapolation is not supported"
        )
    for low, high in zip(BRAKING_TABLE, BRAKING_TABLE[1:]):
        if speed_mph <= high.speed_mph:
            break
    if speed_mph == low.speed_mph:
        return getattr(low, column)
    frac = (speed_mph - low.speed_mph) / (high.speed_mph - low.speed_mph)
    lo, hi = getattr(low, column), getattr(high, column)
    return lo + frac * (hi - lo)


# The vehicle grid of a safeness report unless one is given: the tabulated speeds.
DEFAULT_VEHICLE_SPEEDS_MPH = tuple(row.speed_mph for row in BRAKING_TABLE)


class SafenessCategory(str, Enum):
    NOT_SAFE = "not_safe"
    SAFE_BUT_CLOSE = "safe_but_close"
    NO_RISK = "no_risk"


@dataclass(frozen=True)
class SafenessResult:
    """Normalised safety margin and its classification.

    level is NaN when the protection margin is zero. When the system has
    failed (protection_s <= 0) the category is NOT_SAFE even if the raw level
    came out positive, as it does when numerator and denominator are both
    negative.
    """

    level: float
    category: SafenessCategory
    system_failed: bool
    protection_s: float


def braking_time(vehicle_speed_mph: float, road: str = "dry") -> float:
    """Vehicle braking time in seconds: stopping distance over speed.

    Tabulated speeds reproduce the published times; intermediate speeds
    interpolate the stopping distance and the tabulated m/s value linearly
    before dividing. Speeds outside the table raise.
    """
    if road not in ROADS:
        raise ValueError(f"road must be one of {ROADS}, got {road!r}")
    distance = _interpolate(vehicle_speed_mph, f"{road}_m")
    return distance / _interpolate(vehicle_speed_mph, "speed_mps")


def _stop_budget_s(reaction_s: float, system_delay_s: float, braking_s: float) -> float:
    """reaction + system delay + braking, each >= 0, and the sum finite."""
    if min(reaction_s, system_delay_s, braking_s) < 0:
        raise ValueError("reaction, system delay and braking times must be >= 0")
    budget = reaction_s + system_delay_s + braking_s
    require_finite(stop_budget_s=budget)  # a NaN or infinite time, or an overflow
    return budget


def time_to_avoid_collision(warning_range_m: float, train_speed_mps: float) -> float:
    """Seconds of total budget when the warning is raised at warning_range_m."""
    if train_speed_mps <= 0:
        raise ValueError("train speed must be positive")
    if warning_range_m < 0:
        raise ValueError("warning range must be >= 0")
    budget = warning_range_m / train_speed_mps
    require_finite(train_speed_mps=train_speed_mps, time_to_avoid_collision_s=budget)
    return budget


def _level(time_to_crossing_s: float, stop_budget_s: float, margin_s: float) -> float:
    return math.nan if margin_s == 0 else (time_to_crossing_s - stop_budget_s) / margin_s


def safeness_level(
    time_to_crossing_s: float,
    time_to_avoid_collision_s: float,
    reaction_s: float,
    system_delay_s: float,
    braking_s: float,
) -> SafenessResult:
    """Classify the current instant of an approach: level < 0 not safe,
    0 <= level < 1 safe but close, level >= 1 no risk, and not safe whenever
    the system failed, whatever the level."""
    require_finite(
        time_to_crossing_s=time_to_crossing_s,
        time_to_avoid_collision_s=time_to_avoid_collision_s,
    )
    if time_to_crossing_s < 0 or time_to_avoid_collision_s < 0:
        raise ValueError("times must be >= 0")
    stop_budget = _stop_budget_s(reaction_s, system_delay_s, braking_s)
    margin = time_to_avoid_collision_s - stop_budget
    level = _level(time_to_crossing_s, stop_budget, margin)
    if margin <= 0 or level < 0.0:
        category = SafenessCategory.NOT_SAFE
    elif level < 1.0:
        category = SafenessCategory.SAFE_BUT_CLOSE
    else:
        category = SafenessCategory.NO_RISK
    return SafenessResult(level, category, margin <= 0, margin)


def minimum_required_range(
    train_speed_mps: float,
    reaction_s: float,
    braking_s: float,
    system_delay_s: float = 0.0,
) -> float:
    """Minimum radio range a warning system must cover: train speed times the
    stop budget. System delay is excluded by default; pass it explicitly to
    fold it in."""
    if train_speed_mps <= 0:
        raise ValueError("train speed must be positive")
    range_m = train_speed_mps * _stop_budget_s(reaction_s, system_delay_s, braking_s)
    require_finite(train_speed_mps=train_speed_mps, minimum_required_range_m=range_m)
    return range_m


@dataclass(frozen=True)
class SafenessCurve:
    """Safeness level swept over train distance for one vehicle case.

    The level is linear in distance, so the 0- and 1-crossings are known:
    level 0 at the minimum required range with the system delay, level 1 at
    the warning range. Their time separation equals the protection margin.
    The train speed, range and time components are the report's.
    """

    vehicle_speed_mph: float
    road: str
    braking_s: float
    time_to_avoid_collision_s: float
    distances_m: tuple[float, ...]
    levels: tuple[float, ...]
    zero_cross_distance_m: float
    one_cross_distance_m: float
    protection_s: float
    system_failed: bool


def safeness_curve(
    train_speed_mps: float,
    warning_range_m: float,
    vehicle_speed_mph: float,
    road: str = "dry",
    reaction_s: float = DEFAULT_REACTION_S,
    system_delay_s: float = DEFAULT_SYSTEM_DELAY_S,
) -> SafenessCurve:
    """safeness_level's level at CURVE_POINTS train distances, through one
    stop budget and margin.

    The time budget is fixed by the warning range; only the train's
    remaining travel time varies along the sweep, which runs from the
    crossing to 1.25 times the warning range (to 1 m for a zero range), so
    the level-1 crossing is inside it.
    """
    total_budget = time_to_avoid_collision(warning_range_m, train_speed_mps)
    braking_s = braking_time(vehicle_speed_mph, road)
    top = warning_range_m * 1.25 if warning_range_m > 0 else 1.0
    require_finite(top_distance_m=top)
    distances = tuple(top * i / (CURVE_POINTS - 1) for i in range(CURVE_POINTS))
    stop_budget = _stop_budget_s(reaction_s, system_delay_s, braking_s)
    # Division is monotone, so the farthest distance's time bounds them all.
    require_finite(time_to_crossing_s=max(distances) / train_speed_mps)
    margin = total_budget - stop_budget
    return SafenessCurve(
        vehicle_speed_mph=vehicle_speed_mph,
        road=road,
        braking_s=braking_s,
        time_to_avoid_collision_s=total_budget,
        distances_m=distances,
        levels=tuple(_level(d / train_speed_mps, stop_budget, margin) for d in distances),
        zero_cross_distance_m=minimum_required_range(
            train_speed_mps, reaction_s, braking_s, system_delay_s
        ),
        one_cross_distance_m=warning_range_m,
        protection_s=margin,
        system_failed=margin <= 0,
    )
