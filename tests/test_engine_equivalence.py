"""run_pass against the scalar reference loop: byte-identical logs, same errors."""

import dataclasses
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scalar_reference import reference_run_pass

from railwarn.antenna import AntennaPattern
from railwarn.config import load_scenario
from railwarn.engine import Scenario, TrainRun, run_pass
from railwarn.geometry import CrossingScene, Placement
from railwarn.link import (
    LatencyModel,
    ObstructionSegment,
    PerProfile,
    RadioConfig,
    SyntheticChannel,
)
from railwarn.logio import log_bytes
from railwarn.protocol import TriggerPolicy

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# A small custom pattern: a sparse azimuth cut that interpolates across the
# 360-degree seam, and an elevation cut that clamps at +/-30 degrees.
CUT3 = AntennaPattern(
    name="cut3",
    azimuth_cut=((0.0, 10.0), (90.0, 2.0), (200.0, 5.0)),
    elevation_cut=((-30.0, 4.0), (0.0, 10.0), (30.0, 7.0)),
    peak_gain_dbi=10.0,
    floor_dbi=-3.0,
)


def outcome(simulate, scenario: Scenario, seed=None):
    """The log bytes of a pass, or the type and message of its error."""
    try:
        return log_bytes(simulate(scenario, seed))
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name", ["open_track_20mph.json", "suburban_rsu_10mph.json"])
@pytest.mark.parametrize("seed", [None, 3])
def test_shipped_configs_byte_identical(name, seed):
    scenario = load_scenario(CONFIGS / name)
    assert log_bytes(run_pass(scenario, seed)) == log_bytes(reference_run_pass(scenario, seed))


def test_suburban_bidir23_byte_identical():
    scenario = load_scenario(CONFIGS / "suburban_rsu_10mph.json")
    scenario = dataclasses.replace(
        scenario, radio=dataclasses.replace(scenario.radio, tx_antenna="bidir23")
    )
    assert log_bytes(run_pass(scenario)) == log_bytes(reference_run_pass(scenario))


def pick(draw, *options):
    """Draw from one of several strategies, each chosen about equally often."""
    return draw(draw(st.sampled_from(options)))


@st.composite
def receivers(draw):
    count = draw(st.integers(1, 3))
    return tuple(
        Placement(
            id=f"rx{index}",
            kind=draw(st.sampled_from(["RSU", "OBU"])),
            offset_from_crossing_m=pick(
                draw, st.just(0.0), st.floats(-80.0, -1.0), st.floats(1.0, 80.0)
            ),
            # 4 m is the transmit height: at offset 0 the tick on d = 0 coincides.
            height_m=draw(st.sampled_from([1.7, 3.0, 4.0])),
            boresight_deg=pick(draw, st.none(), st.floats(-180.0, 180.0)),
        )
        for index in range(count)
    )


@st.composite
def obstructions(draw):
    segments = []
    for _ in range(draw(st.integers(0, 2))):
        start = draw(st.floats(-200.0, 50.0))
        gap_width = pick(draw, st.just(0.0), st.floats(0.5, 5.0))
        segments.append(
            ObstructionSegment(
                d_start_m=start,
                d_end_m=start + draw(st.floats(5.0, 200.0)),
                excess_loss_db=draw(st.floats(0.0, 20.0)),
                gap_width_m=gap_width,
                gap_period_m=gap_width + draw(st.floats(1.0, 20.0)) if gap_width else 0.0,
            )
        )
    return tuple(segments)


@st.composite
def profiles(draw, start, end):
    """Bins over the pass; with negative margins or gaps some positions are outside."""
    span = end - start
    margin = pick(draw, st.floats(0.0, 0.3), st.floats(-0.3, 0.3))
    lo = start - span * margin
    hi = end + span * pick(draw, st.floats(0.0, 0.3), st.floats(-0.3, 0.3))
    widths = draw(st.lists(st.floats(1.0, 10.0), min_size=1, max_size=5))
    edges = [lo + (hi - lo) * sum(widths[:i]) / sum(widths) for i in range(len(widths) + 1)]
    gap = pick(draw, st.just(0.0), st.floats(0.0, 0.5))
    bins = tuple(
        (a + (gap * (b - a) if i else 0.0), b, draw(st.floats(0.0, 1.0)))
        for i, (a, b) in enumerate(zip(edges, edges[1:]))
    )
    return PerProfile(bins=bins, out_of_range=draw(st.sampled_from(["zero", "error"])))


synthetic_channels = st.builds(
    SyntheticChannel,
    path_loss_exponent=st.floats(2.0, 3.5),
    shadowing_sigma_db=st.sampled_from([0.0, 0.5, 3.0, 6.0]),
)


@st.composite
def scenarios(draw):
    period_ms = draw(st.sampled_from([20.0, 50.0, 100.0]))
    speed = draw(st.floats(4.0, 40.0))
    before = draw(st.integers(3, 120))
    # A tick lands exactly on d = 0: start + speed * (before * period) == 0.
    start = -(speed * (before * (period_ms / 1000.0)))
    end = draw(st.floats(1.0, 250.0))
    track = pick(draw, st.just(0.0), st.floats(-180.0, 180.0))
    road = track + pick(draw, st.just(90.0), st.floats(15.0, 165.0))
    antennas = st.sampled_from(["omni6", "omni12", "bidir23", "cut3"])
    base_ms = draw(st.floats(0.0, 5.0))
    return Scenario(
        scene=CrossingScene(
            track_heading_deg=track,
            road_heading_deg=road,
            receivers=draw(receivers()),
            obstructions=draw(obstructions()),
        ),
        radio=RadioConfig(
            tx_power_dbm=draw(st.sampled_from([11.0, 23.0])),
            modulation=draw(st.sampled_from(["QPSK", "16QAM"])),
            tx_period_ms=period_ms,
            tx_antenna=draw(antennas),
            rx_antenna=draw(antennas),
        ),
        channel=pick(draw, profiles(start, end), synthetic_channels),
        latency=LatencyModel(
            processing_base_ms=base_ms,
            processing_jitter_ms=pick(draw, st.floats(0.1, 1.0), st.just(0.0)) * base_ms,
        ),
        train=TrainRun(speed_mps=speed, start_d_t_m=start, end_d_t_m=end),
        policy=TriggerPolicy(
            reliability_threshold=draw(st.integers(1, 8)),
            trigger_distance_m=draw(st.floats(10.0, 500.0)),
            window_s=pick(draw, st.none(), st.floats(0.05, 3.0)),
        ),
        custom_patterns=(CUT3,),
    )


@settings(max_examples=100)
@given(scenario=scenarios(), seed=st.integers(0, 2**32 - 1))
def test_generated_scenarios_match_reference(scenario, seed):
    assert outcome(run_pass, scenario, seed) == outcome(reference_run_pass, scenario, seed)


def degenerate_scene(**kwargs) -> CrossingScene:
    on_crossing = Placement(id="rsu0", kind="RSU", offset_from_crossing_m=0.0, height_m=4.0)
    return CrossingScene(receivers=(on_crossing,), **kwargs)


def test_degenerate_geometry_error_matches_reference():
    scenario = Scenario(
        scene=degenerate_scene(),
        radio=RadioConfig(),
        channel=SyntheticChannel(),
        latency=LatencyModel(),
        train=TrainRun(speed_mps=5.0, start_d_t_m=-5.0, end_d_t_m=5.0),
        policy=TriggerPolicy(),
    )
    new, reference = outcome(run_pass, scenario), outcome(reference_run_pass, scenario)
    assert new == reference
    assert new[0].__name__ == "DegenerateGeometryError"


@pytest.mark.parametrize(
    "bins, first_error",
    [
        # The profile ends before the coinciding tick at d = 0: the profile error comes first.
        (((-10.0, -2.0, 0.1),), "ValueError"),
        # The profile covers d = 0: the geometry error comes first.
        (((-10.0, 1.0, 0.1),), "DegenerateGeometryError"),
    ],
)
def test_first_error_in_tick_order_matches_reference(bins, first_error):
    scenario = Scenario(
        scene=degenerate_scene(),
        radio=RadioConfig(),
        channel=PerProfile(bins=bins, out_of_range="error"),
        latency=LatencyModel(),
        train=TrainRun(speed_mps=5.0, start_d_t_m=-5.0, end_d_t_m=5.0),
        policy=TriggerPolicy(),
    )
    new, reference = outcome(run_pass, scenario), outcome(reference_run_pass, scenario)
    assert new == reference
    assert new[0].__name__ == first_error


@pytest.mark.parametrize("sigma", [0.0, 1.0])
def test_hopeless_link_decodes_nothing_where_the_loop_overflowed(sigma):
    # At a logistic margin below -709 math.exp overflows: the scalar loop
    # raises OverflowError, run_pass takes the probability as 0.
    scenario = Scenario(
        scene=CrossingScene(
            receivers=(Placement(id="rsu0", kind="RSU", offset_from_crossing_m=5.0, height_m=3.0),)
        ),
        radio=RadioConfig(),
        channel=SyntheticChannel(path_loss_exponent=80.0, shadowing_sigma_db=sigma),
        latency=LatencyModel(),
        train=TrainRun(speed_mps=20.0, start_d_t_m=-400.0, end_d_t_m=400.0),
        policy=TriggerPolicy(),
    )
    with pytest.raises(OverflowError):
        reference_run_pass(scenario)
    assert not any(record.decoded for record in run_pass(scenario).records["rsu0"])
