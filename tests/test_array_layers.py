"""Each array form of a layer against its scalar reference.

The slant range feeds the logged latency, so it must match bit for bit.
Angles, gains and probabilities may differ in the last bits (numpy's
arctan2, log10 and exp against math's); they must agree within TOLERANCE.
"""

import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from railwarn.antenna import AntennaPattern, builtin_pattern, pattern_gain, pattern_gain_array
from railwarn.geometry import (
    CrossingScene,
    Placement,
    link_geometry,
    link_geometry_array,
    wrap_angle_deg,
)
from railwarn.link import (
    ObstructionSegment,
    PerProfile,
    RadioConfig,
    SyntheticChannel,
    mean_snr_db,
    obstruction_excess_db,
    packet_success_probability,
    profile_success_probability,
    snr_success_probability,
)
from railwarn.protocol import (
    ReceiverState,
    TrainState,
    TriggerPolicy,
    first_warning,
    generate_bsm,
    receiver_ingest,
)

TOLERANCE = dict(rtol=1e-12, atol=1e-12)

positions = st.lists(st.floats(-700.0, 700.0), min_size=1, max_size=50).map(np.array)


def assert_same_angles(actual, expected):
    # Compare on the circle: a last-bit difference may wrap -180 to 180.
    np.testing.assert_allclose(wrap_angle_deg(np.asarray(actual) - expected), 0.0, **TOLERANCE)


@st.composite
def scenes(draw):
    placement = Placement(
        id="rx",
        kind=draw(st.sampled_from(["RSU", "OBU"])),
        offset_from_crossing_m=draw(st.sampled_from([0.0, -6.0, 42.0])),
        height_m=draw(st.sampled_from([1.7, 3.0])),
        boresight_deg=draw(st.one_of(st.none(), st.floats(-180.0, 180.0))),
    )
    track = draw(st.floats(-180.0, 180.0))
    scene = CrossingScene(
        track_heading_deg=track,
        road_heading_deg=track + draw(st.floats(15.0, 165.0)),
        receivers=(placement,),
    )
    return placement, scene


@given(scene=scenes(), train_d_t_m=positions)
def test_link_geometry_array_matches_scalar(scene, train_d_t_m):
    placement, scene = scene
    # A dense grid finds the inputs where np.hypot and math.hypot differ;
    # d = 0 is the overhead case at offset 0.
    train_d_t_m = np.concatenate([train_d_t_m, np.linspace(-700.0, 700.0, 401), [0.0]])
    arrays = link_geometry_array(train_d_t_m, placement, scene)
    scalars = [link_geometry(d, placement, scene) for d in train_d_t_m.tolist()]
    assert arrays.range_m.tolist() == [g.range_m for g in scalars]
    for field in ("tx_azimuth_deg", "rx_azimuth_deg"):
        assert_same_angles(getattr(arrays, field), [getattr(g, field) for g in scalars])
    for field in ("tx_elevation_deg", "rx_elevation_deg"):
        expected = [getattr(g, field) for g in scalars]
        np.testing.assert_allclose(getattr(arrays, field), expected, **TOLERANCE)


SPARSE = AntennaPattern(
    name="sparse",
    azimuth_cut=((10.0, 3.0), (120.0, -4.0), (300.0, 1.0)),
    elevation_cut=((-20.0, -2.0), (5.0, 3.0), (40.0, 0.0)),
    peak_gain_dbi=3.0,
    floor_dbi=-5.0,
)


@given(
    pattern=st.sampled_from([builtin_pattern("omni6"), builtin_pattern("bidir23"), SPARSE]),
    angles=st.lists(
        st.tuples(st.floats(-720.0, 720.0), st.floats(-120.0, 120.0)), min_size=1, max_size=50
    ),
)
def test_pattern_gain_array_matches_scalar(pattern, angles):
    azimuth, elevation = (np.array(column) for column in zip(*angles))
    expected = [pattern_gain(pattern, a, e) for a, e in angles]
    np.testing.assert_allclose(pattern_gain_array(pattern, azimuth, elevation), expected, **TOLERANCE)


@st.composite
def profiles(draw):
    edges = sorted(draw(st.lists(st.floats(-600.0, 600.0), min_size=2, max_size=8, unique=True)))
    bins = [
        (a, b, draw(st.floats(0.0, 1.0)))
        for a, b in zip(edges, edges[1:])
        if draw(st.booleans())  # dropped bins leave gaps
    ]
    if not bins:
        bins = [(edges[0], edges[1], 0.5)]
    return PerProfile(bins=tuple(bins), out_of_range=draw(st.sampled_from(["zero", "error"])))


@given(profile=profiles(), train_d_t_m=positions)
def test_profile_success_probability_matches_per_at(profile, train_d_t_m):
    actual = profile_success_probability(profile, train_d_t_m).tolist()
    for d, p in zip(train_d_t_m.tolist(), actual):
        try:
            expected = 1.0 - profile.per_at(d)
        except ValueError:
            assert math.isnan(p)
        else:
            assert p == expected


obstruction_lists = st.lists(
    st.builds(
        lambda start, length, loss, gap, extra: ObstructionSegment(
            start, start + length, loss, gap, gap + extra if gap else 0.0
        ),
        st.floats(-500.0, 400.0),
        st.floats(1.0, 300.0),
        st.floats(0.0, 30.0),
        st.one_of(st.just(0.0), st.floats(0.5, 10.0)),
        st.floats(0.5, 30.0),
    ),
    max_size=3,
)


@given(obstructions=obstruction_lists, train_d_t_m=positions)
def test_obstruction_excess_matches_scalar(obstructions, train_d_t_m):
    expected = [sum(o.excess_at(d) for o in obstructions) for d in train_d_t_m.tolist()]
    assert obstruction_excess_db(train_d_t_m, obstructions).tolist() == expected


@given(
    obstructions=obstruction_lists,
    train_d_t_m=positions,
    gain=st.floats(-20.0, 46.0),
    exponent=st.floats(2.0, 4.0),
    power=st.sampled_from([11.0, 23.0]),
    modulation=st.sampled_from(["QPSK", "16QAM"]),
)
def test_synthetic_probability_matches_scalar(
    obstructions, train_d_t_m, gain, exponent, power, modulation
):
    radio = RadioConfig(tx_power_dbm=power, modulation=modulation)
    channel = SyntheticChannel(path_loss_exponent=exponent)
    range_m = np.abs(train_d_t_m) + 1.0
    gains = np.full_like(train_d_t_m, gain)
    snr = mean_snr_db(train_d_t_m, range_m, gains, radio, channel, obstructions)
    expected = [
        packet_success_probability(d, gain, radio, channel, obstructions, range_m=r)
        for d, r in zip(train_d_t_m.tolist(), range_m.tolist())
    ]
    np.testing.assert_allclose(snr_success_probability(snr, radio, channel), expected, **TOLERANCE)


@st.composite
def arrivals(draw):
    """Decodes with distinct seqs, tied and reordered arrival times, and any positions."""
    count = draw(st.integers(0, 30))
    seqs = draw(st.permutations(range(count)))
    # Few distinct times: ties are common, arrival order differs from seq
    # order, and with the exact windows below some arrivals sit exactly on
    # a window's horizon.
    times = [draw(st.sampled_from([0.0, 0.25, 0.5, 0.5000001, 0.75, 1.0, 2.0])) for _ in seqs]
    spots = [draw(st.floats(-300.0, 50.0)) for _ in seqs]
    return np.array(times), np.array(seqs, dtype=np.int64), np.array(spots)


@given(
    decodes=arrivals(),
    kind=st.sampled_from(["RSU", "OBU"]),
    threshold=st.integers(1, 6),
    distance=st.floats(10.0, 250.0),
    window=st.one_of(st.none(), st.sampled_from([0.25, 0.5, 1.0]), st.floats(0.01, 0.6)),
)
def test_first_warning_matches_receiver_ingest(decodes, kind, threshold, distance, window):
    rx_time_s, seq, position_m = decodes
    policy = TriggerPolicy(
        reliability_threshold=threshold, trigger_distance_m=distance, window_s=window
    )
    state = ReceiverState(receiver_id="rx", kind=kind)
    for t, k in sorted(zip(rx_time_s.tolist(), seq.tolist())):
        train = TrainState(
            train_id=1,
            distance_to_crossing_m=float(position_m[seq.tolist().index(k)]),
            speed_mps=5.0,
            heading_deg=0.0,
        )
        receiver_ingest(generate_bsm(train, seq=k, clock_s=0.0), t, state, policy)
    assert first_warning("rx", kind, rx_time_s, seq, position_m, policy) == state.event
