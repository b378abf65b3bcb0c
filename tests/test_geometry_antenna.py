import json
import math

import numpy as np
import pytest
import scalar_reference as ref

from railwarn.antenna import AntennaPattern, builtin_pattern, pattern_gain
from railwarn.config import load_config
from railwarn.geometry import CrossingScene, DegenerateGeometryError, Placement, link_geometry


def scene_with(placement: Placement, **kwargs) -> CrossingScene:
    return CrossingScene(receivers=(placement,), **kwargs)


def gain_profile(scene, tx_pattern, rx_pattern, placement, distances) -> list:
    """Combined tx + rx gain at each train distance, assuming a clear path."""
    geo = link_geometry(np.asarray(distances, dtype=float), placement, scene)
    gain = pattern_gain(
        tx_pattern, geo.tx_azimuth_deg, geo.tx_elevation_deg
    ) + pattern_gain(rx_pattern, geo.rx_azimuth_deg, geo.rx_elevation_deg)
    return gain.tolist()


RSU = Placement(id="rsu0", kind="RSU", offset_from_crossing_m=5.0, height_m=3.0)
OBU42 = Placement(id="obu0", kind="OBU", offset_from_crossing_m=42.0, height_m=1.7)


class TestLinkGeometry:
    def test_range_at_crossing_hand_oracle(self):
        # Train at the crossing (height 4), receiver 5 m away (height 3):
        # slant = sqrt(5^2 + 1^2).
        geo = ref.link_geometry(0.0, RSU, scene_with(RSU, tx_height_m=4.0))
        assert geo.range_m == pytest.approx(math.sqrt(26.0), rel=1e-12)

    def test_tx_azimuth_hand_oracle(self):
        geo = ref.link_geometry(-500.0, OBU42, scene_with(OBU42))
        expected = math.degrees(math.atan2(42.0, 500.0))
        assert geo.tx_azimuth_deg == pytest.approx(expected, abs=1e-9)
        assert geo.tx_azimuth_deg == pytest.approx(4.80, abs=0.01)

    def test_collinear_receiver_gives_zero_azimuth(self):
        on_track = Placement(id="x", kind="RSU", offset_from_crossing_m=0.0, height_m=3.0)
        scene = scene_with(on_track)
        for d in (-500.0, -100.0, -1.0):
            geo = ref.link_geometry(d, on_track, scene)
            assert geo.tx_azimuth_deg == pytest.approx(0.0, abs=1e-9)

    def test_elevation_signs(self):
        geo = ref.link_geometry(-100.0, RSU, scene_with(RSU, tx_height_m=4.0))
        # Receiver is lower than the transmitter: downward from the train.
        assert geo.tx_elevation_deg < 0
        assert geo.rx_elevation_deg == pytest.approx(-geo.tx_elevation_deg, abs=1e-12)

    def test_range_monotonic_in_distance(self):
        scene = scene_with(OBU42)
        ranges = [ref.link_geometry(-d, OBU42, scene).range_m for d in (10, 50, 100, 300, 700)]
        assert ranges == sorted(ranges)

    def test_degenerate_positions_raise(self):
        coincident = Placement(id="x", kind="RSU", offset_from_crossing_m=0.0, height_m=4.0)
        scene = scene_with(coincident, tx_height_m=4.0)
        with pytest.raises(DegenerateGeometryError):
            ref.link_geometry(0.0, coincident, scene)

    def test_scene_validation(self):
        with pytest.raises(ValueError, match="distinct"):
            CrossingScene(track_heading_deg=10.0, road_heading_deg=190.0)
        with pytest.raises(ValueError, match="height"):
            CrossingScene(tx_height_m=0.0)
        with pytest.raises(ValueError, match="unique"):
            CrossingScene(receivers=(RSU, RSU))

    def test_explicit_boresight(self):
        aimed = Placement(
            id="x", kind="OBU", offset_from_crossing_m=42.0, height_m=1.7, boresight_deg=180.0
        )
        scene = scene_with(aimed)
        geo = ref.link_geometry(-500.0, aimed, scene)
        # Line of sight from receiver to train is nearly along -x (180 deg).
        assert abs(geo.rx_azimuth_deg) < 10.0


class TestPatterns:
    def test_omni_is_flat(self):
        omni = builtin_pattern("omni12")
        for az, el in ((0, 0), (90, 10), (200, -30), (359, 5)):
            assert ref.pattern_gain(omni, az, el) == 12.0
        gains = [gain for _, gain in omni.azimuth_cut]
        assert max(gains) - min(gains) <= 1.0

    def test_bidirectional_boresights(self):
        bidir = builtin_pattern("bidir23")
        assert ref.pattern_gain(bidir, 0.0, 0.0) == 23.0
        assert ref.pattern_gain(bidir, 180.0, 0.0) == 23.0

    def test_bidirectional_half_beamwidth_is_3db(self):
        bidir = builtin_pattern("bidir23")
        assert ref.pattern_gain(bidir, 5.0, 0.0) == pytest.approx(20.0, abs=0.01)
        assert ref.pattern_gain(bidir, 0.0, 5.0) == pytest.approx(20.0, abs=0.01)
        assert ref.pattern_gain(bidir, 175.0, 0.0) == pytest.approx(20.0, abs=0.01)

    def test_bidirectional_far_sidelobe_hits_floor(self):
        bidir = builtin_pattern("bidir23")
        gain = ref.pattern_gain(bidir, 40.0, 0.0)
        assert gain == bidir.floor_dbi
        assert bidir.peak_gain_dbi - gain >= 20.0

    def test_azimuth_wraparound(self):
        bidir = builtin_pattern("bidir23")
        assert ref.pattern_gain(bidir, -5.0, 0.0) == pytest.approx(
            ref.pattern_gain(bidir, 355.0, 0.0), abs=1e-9
        )

    def test_separable_combination(self):
        bidir = builtin_pattern("bidir23")
        az_only = ref.pattern_gain(bidir, 5.0, 0.0)
        el_only = ref.pattern_gain(bidir, 0.0, 5.0)
        both = ref.pattern_gain(bidir, 5.0, 5.0)
        assert both == pytest.approx(az_only + el_only - 23.0, abs=0.05)

    def test_validation(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            AntennaPattern(
                name="bad",
                azimuth_cut=((0.0, 1.0), (0.0, 2.0)),
                elevation_cut=((0.0, 1.0),),
                peak_gain_dbi=5.0,
            )
        with pytest.raises(ValueError, match="exceeds the peak"):
            AntennaPattern(
                name="bad",
                azimuth_cut=((0.0, 9.0),),
                elevation_cut=((0.0, 1.0),),
                peak_gain_dbi=5.0,
            )
        with pytest.raises(ValueError, match="empty"):
            AntennaPattern(
                name="bad", azimuth_cut=(), elevation_cut=((0.0, 1.0),), peak_gain_dbi=5.0
            )
        with pytest.raises(KeyError):
            builtin_pattern("nope")

    def test_csv_round_trip(self, tmp_path):
        az = tmp_path / "az.csv"
        el = tmp_path / "el.csv"
        az.write_text("angle_deg,gain_dbi\n0,10\n90,4\n180,10\n270,4\n")
        el.write_text("angle_deg,gain_dbi\n-90,-5\n0,10\n90,-5\n")
        config = tmp_path / "scenario.json"
        config.write_text(
            json.dumps(
                {
                    "train": {"speed_mph": 20},
                    "antennas": {"custom": {"azimuth_csv": "az.csv", "elevation_csv": "el.csv"}},
                }
            )
        )
        (pattern,) = load_config(config).scenario.custom_patterns
        assert pattern.name == "custom"
        assert pattern.peak_gain_dbi == 10.0
        assert ref.pattern_gain(pattern, 0.0, 0.0) == 10.0
        assert ref.pattern_gain(pattern, 45.0, 0.0) == pytest.approx(7.0)


class TestEffectiveGainProfile:
    def test_omni_pair_is_flat(self):
        on_track = Placement(id="x", kind="RSU", offset_from_crossing_m=0.0, height_m=3.0)
        scene = scene_with(on_track)
        gains = gain_profile(
            scene,
            builtin_pattern("omni12"),
            builtin_pattern("omni6"),
            on_track,
            [-400, -200, -50, 50, 200, 400],
        )
        assert max(gains) - min(gains) <= 1.0
        assert gains[0] == pytest.approx(18.0)

    def test_omni_invariant_under_scene_rotation(self):
        base = scene_with(OBU42)
        rotated = CrossingScene(
            track_heading_deg=37.0, road_heading_deg=127.0, receivers=(OBU42,)
        )
        sweep = [-300, -150, -20, 20, 150, 300]
        tx, rx = builtin_pattern("omni12"), builtin_pattern("omni6")
        g0 = gain_profile(base, tx, rx, OBU42, sweep)
        g1 = gain_profile(rotated, tx, rx, OBU42, sweep)
        assert np.allclose(g0, g1, atol=1.0)

    def test_symmetry_about_the_crossing(self):
        scene = scene_with(RSU)
        tx, rx = builtin_pattern("bidir23"), builtin_pattern("omni6")
        sweep = [50, 100, 200, 400]
        fore = gain_profile(scene, tx, rx, RSU, sweep)
        aft = gain_profile(scene, tx, rx, RSU, [-d for d in sweep])
        assert np.allclose(fore, aft, atol=0.05)

    def test_direct_case_gain_shape(self):
        # Two-panel transmit antenna toward a vehicle 42 m off the track:
        # near peak when the look angle is inside the main lobe, floor-bound
        # close to the crossing where the look angle blows up.
        scene = scene_with(OBU42)
        tx, rx = builtin_pattern("bidir23"), builtin_pattern("omni6")
        profile = dict(zip([-500.0, -20.0], gain_profile(scene, tx, rx, OBU42, [-500.0, -20.0])))
        angle_far = math.degrees(math.atan2(42.0, 500.0))
        expected_far = (23.0 - 12.0 * (angle_far / 10.0) ** 2) + 6.0
        assert profile[-500.0] == pytest.approx(expected_far, abs=0.15)
        assert profile[-500.0] >= 23.0 + 6.0 - 3.5
        assert profile[-20.0] <= 23.0 + 6.0 - 20.0

    def test_indirect_case_gain_shape(self):
        scene = scene_with(RSU, tx_height_m=4.0)
        tx, rx = builtin_pattern("bidir23"), builtin_pattern("omni6")
        profile = dict(zip([-100.0, -10.0], gain_profile(scene, tx, rx, RSU, [-100.0, -10.0])))
        assert profile[-100.0] >= 23.0 + 6.0 - 1.5
        assert profile[-10.0] <= 0.0


class TestBuiltinPatternCache:
    def test_repeated_name_returns_the_same_object(self):
        assert builtin_pattern("bidir23") is builtin_pattern("bidir23")

    def test_cut_arrays_are_read_only(self):
        for array in builtin_pattern("bidir23").cut_arrays:
            with pytest.raises(ValueError):
                array[0] = 0.0
