import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scalar_reference import safeness_curve_levels

from railwarn.safety import (
    BRAKING_TABLE,
    ROADS,
    SafenessCategory,
    braking_time,
    minimum_required_range,
    safeness_curve,
    safeness_level,
    time_to_avoid_collision,
)
from railwarn.units import mph_to_mps

# Published stopping-time columns for the five tabulated speeds (seconds).
TB_DRY = (2.3, 2.66, 2.96, 3.27, 3.57)
TB_WET = (4.62, 5.32, 5.91, 6.52, 7.15)
TABLE_SPEEDS_MPH = (25, 35, 45, 55, 65)


class TestBrakingTable:
    def test_reproduces_published_times_within_tolerance(self):
        for speed, dry, wet in zip(TABLE_SPEEDS_MPH, TB_DRY, TB_WET):
            assert braking_time(speed, "dry") == pytest.approx(dry, abs=0.02)
            assert braking_time(speed, "wet") == pytest.approx(wet, abs=0.02)

    def test_wet_never_shorter_than_dry(self):
        for row in BRAKING_TABLE:
            assert row.wet_m >= row.dry_m

    def test_rows_strictly_increasing_in_speed(self):
        speeds = [row.speed_mph for row in BRAKING_TABLE]
        assert speeds == sorted(speeds)
        assert len(set(speeds)) == len(speeds)

    def test_self_consistency_distance_over_speed(self):
        # t_b must equal d_b / v with the tabulated m/s column.
        for row, dry, wet in zip(BRAKING_TABLE, TB_DRY, TB_WET):
            assert row.dry_m / row.speed_mps == pytest.approx(dry, abs=0.02)
            assert row.wet_m / row.speed_mps == pytest.approx(wet, abs=0.02)

    def test_interpolation_uses_midpoint_convention(self):
        # Independent oracle: linear midpoint of both the distance and the
        # tabulated m/s columns between the 25 and 35 mph rows.
        distance = (25.5 + 41.4) / 2
        speed_mps = (11.11 + 15.55) / 2
        expected = distance / speed_mps
        assert braking_time(30, "dry") == pytest.approx(expected, rel=1e-12)
        assert braking_time(30, "dry") == pytest.approx(2.51, abs=0.01)

    def test_out_of_range_speeds_rejected(self):
        with pytest.raises(ValueError, match="outside tabulated range"):
            braking_time(20, "dry")
        with pytest.raises(ValueError, match="outside tabulated range"):
            braking_time(66, "wet")

    def test_bad_road_rejected(self):
        with pytest.raises(ValueError, match="road"):
            braking_time(30, "icy")


class TestTimeToAvoidCollision:
    def test_50mph_500m(self):
        value = time_to_avoid_collision(500.0, mph_to_mps(50))
        assert value == pytest.approx(500.0 / 22.352, rel=1e-12)
        assert value == pytest.approx(22.0, abs=1.0)

    def test_10mph_200m(self):
        assert time_to_avoid_collision(200.0, mph_to_mps(10)) == pytest.approx(
            200.0 / 4.4704, rel=1e-12
        )

    def test_zero_range(self):
        assert time_to_avoid_collision(0.0, 9.0) == 0.0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            time_to_avoid_collision(100.0, 0.0)


class TestSafenessLevel:
    def test_level_one_exactly_at_full_budget(self):
        result = safeness_level(44.74, 44.74, 3.5, 0.005, 2.3)
        assert result.level == 1.0
        assert result.category is SafenessCategory.NO_RISK
        assert not result.system_failed

    def test_level_zero_exactly_at_stop_budget(self):
        stop = 3.5 + 0.005 + 2.3
        result = safeness_level(stop, 44.74, 3.5, 0.005, 2.3)
        assert result.level == 0.0
        assert result.category is SafenessCategory.SAFE_BUT_CLOSE

    def test_intermediate_value(self):
        stop = 3.5 + 0.005 + 2.3
        expected = (20.0 - stop) / (44.74 - stop)
        result = safeness_level(20.0, 44.74, 3.5, 0.005, 2.3)
        assert result.level == pytest.approx(expected, rel=1e-12)
        assert result.level == pytest.approx(0.3646, abs=1e-4)
        assert result.category is SafenessCategory.SAFE_BUT_CLOSE

    def test_singular_denominator_is_failure_with_undefined_level(self):
        stop = 3.5 + 0.005 + 2.3
        result = safeness_level(10.0, stop, 3.5, 0.005, 2.3)
        assert result.system_failed
        assert math.isnan(result.level)
        assert result.category is SafenessCategory.NOT_SAFE

    def test_negative_over_negative_trap(self):
        # Both numerator and denominator negative: raw level is positive but
        # the system has failed and must classify as not safe.
        result = safeness_level(2.0, 4.0, 3.5, 0.005, 2.3)
        assert result.level > 0
        assert result.system_failed
        assert result.category is SafenessCategory.NOT_SAFE

    def test_classification_equivalences_randomized(self):
        rng = np.random.default_rng(99)
        for _ in range(2000):
            tr, ts, tb = rng.uniform(0.0, 8.0, size=3)
            stop = tr + ts + tb
            t_tac = rng.uniform(0.0, 60.0)
            t_t = rng.uniform(0.0, 60.0)
            result = safeness_level(t_t, t_tac, tr, ts, tb)
            if t_tac - stop <= 0:
                assert result.system_failed
                assert result.category is SafenessCategory.NOT_SAFE
            else:
                assert not result.system_failed
                if t_t >= t_tac:
                    assert result.category is SafenessCategory.NO_RISK
                elif t_t >= stop:
                    assert result.category is SafenessCategory.SAFE_BUT_CLOSE
                else:
                    assert result.category is SafenessCategory.NOT_SAFE

    def test_strictly_increasing_in_time_to_crossing(self):
        levels = [
            safeness_level(t, 44.74, 3.5, 0.005, 2.3).level for t in (5.0, 15.0, 30.0, 44.0)
        ]
        assert levels == sorted(levels)
        assert len(set(levels)) == len(levels)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            safeness_level(-1.0, 10.0, 3.5, 0.005, 2.3)
        with pytest.raises(ValueError):
            safeness_level(1.0, -10.0, 3.5, 0.005, 2.3)


class TestMinimumRequiredRange:
    def test_35mph_train_with_worst_braking(self):
        v = mph_to_mps(35)
        expected = v * (3.5 + 7.15)
        assert minimum_required_range(v, 3.5, 7.15) == pytest.approx(expected, rel=1e-12)
        assert minimum_required_range(v, 3.5, 7.15) == pytest.approx(166.6, abs=0.1)

    def test_10mph_train(self):
        assert minimum_required_range(mph_to_mps(10), 3.5, 2.3) == pytest.approx(25.9, abs=0.05)

    def test_zero_times(self):
        assert minimum_required_range(12.0, 0.0, 0.0) == 0.0

    def test_optional_system_delay_inclusion(self):
        base = minimum_required_range(10.0, 3.5, 2.3)
        with_delay = minimum_required_range(10.0, 3.5, 2.3, system_delay_s=0.005)
        assert with_delay == pytest.approx(base + 10.0 * 0.005, rel=1e-12)


class TestSafenessCurve:
    def test_indirect_case_crossings(self):
        v = mph_to_mps(10)
        curve = safeness_curve(v, 200.0, 25, "dry")
        stop = 3.5 + 0.005 + curve.braking_s
        assert curve.one_cross_distance_m == 200.0
        assert curve.zero_cross_distance_m == v * stop
        assert curve.zero_cross_distance_m == pytest.approx(25.95, abs=0.05)
        # Time separation between the crossings equals the protection time.
        gap = (curve.one_cross_distance_m - curve.zero_cross_distance_m) / v
        assert gap == pytest.approx(curve.protection_s, rel=1e-9)
        assert curve.protection_s == pytest.approx(38.9, abs=0.1)
        assert not curve.system_failed

    def test_direct_case_gap(self):
        v = mph_to_mps(10)
        curve = safeness_curve(v, 130.0, 25, "dry")
        expected = 130.0 / v - (3.5 + 0.005 + curve.braking_s)
        assert curve.protection_s == pytest.approx(expected, rel=1e-12)
        assert curve.protection_s == pytest.approx(23.3, abs=0.1)

    def test_fast_train_shrinks_protection(self):
        v = mph_to_mps(35)
        curve = safeness_curve(v, 200.0, 65, "wet")
        assert curve.protection_s == pytest.approx(2.13, abs=0.01)

    def test_level_is_one_at_warning_range_sample(self):
        curve = safeness_curve(mph_to_mps(10), 200.0, 25, "dry")
        by_distance = dict(zip(curve.distances_m, curve.levels))
        assert by_distance[200.0] == 1.0
        assert by_distance[0.0] < 0.0
        assert by_distance[250.0] > 1.0

    def test_levels_increase_along_sweep(self):
        curve = safeness_curve(mph_to_mps(10), 200.0, 45, "wet")
        assert list(curve.levels) == sorted(curve.levels)

    def test_sweep_must_reach_warning_range(self):
        # 251 distances from the crossing to 1.25 times the range; 1 m for none.
        for warning, top in ((200.0, 250.0), (0.0, 1.0)):
            curve = safeness_curve(5.0, warning, 25, "dry")
            assert len(curve.distances_m) == 251
            assert (curve.distances_m[0], curve.distances_m[-1]) == (0.0, top)

    def test_failed_system_flagged(self):
        # Tiny range: the budget cannot cover even the stop time.
        curve = safeness_curve(mph_to_mps(35), 20.0, 65, "wet")
        assert curve.system_failed
        assert curve.protection_s < 0

    @pytest.mark.parametrize("component", ["reaction_s", "system_delay_s"])
    def test_negative_component_rejected(self, component):
        with pytest.raises(ValueError, match="must be >= 0"):
            safeness_curve(5.0, 200.0, 25, "dry", **{component: -0.5})


class TestFiniteInputs:
    """A NaN, an infinity or an overflow raises ValueError naming the value."""

    @pytest.mark.parametrize(
        "function, args, name",
        [
            (time_to_avoid_collision, (math.nan, 5.0), "time_to_avoid_collision_s"),
            (time_to_avoid_collision, (1e308, 1e-300), "time_to_avoid_collision_s"),
            (time_to_avoid_collision, (100.0, math.inf), "train_speed_mps"),
            (safeness_level, (math.inf, 10.0, 3.5, 0.005, 2.3), "time_to_crossing_s"),
            (safeness_level, (1.0, math.nan, 3.5, 0.005, 2.3), "time_to_avoid_collision_s"),
            (safeness_level, (1.0, 10.0, 1e308, 1e308, 2.3), "stop_budget_s"),
            (safeness_level, (1.0, 10.0, math.nan, 0.005, 2.3), "stop_budget_s"),
            (minimum_required_range, (1e308, 3.5, 2.3), "minimum_required_range_m"),
            (minimum_required_range, (math.inf, 0.0, 0.0), "train_speed_mps"),
            (safeness_curve, (10.0, 1.5e308, 25), "top_distance_m"),
            (safeness_curve, (10.0, 1e308, 25), "time_to_crossing_s"),
        ],
    )
    def test_rejected(self, function, args, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            function(*args)


@st.composite
def curve_inputs(draw):
    """safeness_curve arguments; about half have a protection margin of exactly 0."""
    reaction = draw(st.one_of(st.just(0.0), st.floats(0.0, 10.0)))
    delay = draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0)))
    vehicle = draw(st.floats(25.0, 65.0))
    road = draw(st.sampled_from(ROADS))
    if draw(st.booleans()):
        # A power-of-two speed makes range / speed == stop budget exactly.
        speed = 2.0 ** draw(st.integers(-3, 5))
        warning = (reaction + delay + braking_time(vehicle, road)) * speed
    else:
        speed = draw(st.floats(0.1, 60.0))
        warning = draw(st.floats(0.0, 2000.0))
    return speed, warning, vehicle, road, reaction, delay


# The defaults at 25 mph on a dry road: summing the stop budget as
# reaction + braking + delay gives the last digit of a different float.
DEFAULT_STOP_S = 3.5 + 0.005 + braking_time(25.0, "dry")


@given(inputs=curve_inputs())
@example(inputs=(mph_to_mps(10), 200.0, 25.0, "dry", 3.5, 0.005))
@example(inputs=(4.0, DEFAULT_STOP_S * 4.0, 25.0, "dry", 3.5, 0.005))
def test_curve_matches_scalar_reference(inputs):
    speed, warning, vehicle, road, reaction, delay = inputs
    curve = safeness_curve(speed, warning, vehicle, road, reaction, delay)
    tb = curve.braking_s
    levels, margin = safeness_curve_levels(curve.distances_m, speed, warning, reaction, delay, tb)
    assert list(map(repr, curve.levels)) == list(map(repr, levels))
    assert curve.system_failed == (margin <= 0)
    assert curve.protection_s == margin
    # The level-0 distance is the minimum required range with the system
    # delay, and a delay left out is a delay of 0.
    assert curve.zero_cross_distance_m == minimum_required_range(speed, reaction, tb, delay)
    assert minimum_required_range(speed, reaction, tb) == minimum_required_range(
        speed, reaction, tb, 0.0
    )
