import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from itertools import groupby, product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scalar_reference import packet_rows

import railwarn
from railwarn import engine
from railwarn.antenna import AntennaPattern, builtin_pattern
from railwarn.config import load_config
from railwarn.engine import (
    EMPIRICAL_UNREAD,
    Scenario,
    TrainRun,
    receiver_stream,
    run_pass,
    run_sweep,
    scenario_digest,
)
from railwarn.geometry import CrossingScene, Placement
from railwarn.link import (
    LatencyModel,
    ObstructionSegment,
    PerProfile,
    RadioConfig,
    SyntheticChannel,
    friis_reference_loss_db,
)
from railwarn.link import latency_sample as link_latency_sample
from railwarn.logio import log_bytes
from railwarn.passlog import PACKET_KEYS
from railwarn.protocol import TriggerPolicy
from railwarn.units import mph_to_mps

RSU = Placement(id="rsu0", kind="RSU", offset_from_crossing_m=5.0, height_m=3.0)
OBU = Placement(id="obu0", kind="OBU", offset_from_crossing_m=42.0, height_m=1.7)
OPEN_PROFILE = PerProfile(bins=((-700.0, 700.0, 0.0),))


def make_scenario(**overrides) -> Scenario:
    defaults = dict(
        scene=CrossingScene(receivers=(RSU,)),
        radio=RadioConfig(),
        channel=OPEN_PROFILE,
        latency=LatencyModel(),
        train=TrainRun(speed_mps=mph_to_mps(10), start_d_t_m=-400.0, end_d_t_m=400.0),
        policy=TriggerPolicy(),
        seed=13,
    )
    defaults.update(overrides)
    return Scenario(**defaults)


def window_counts(log, receiver_id, width):
    counts = {}
    for record in packet_rows(log.records[receiver_id], receiver_id):
        index = math.floor(record.train_d_t_m / width)
        counts[index] = counts.get(index, 0) + 1
    return counts


class TestRunPass:
    def test_duration_and_packet_count(self):
        scenario = make_scenario()
        log = run_pass(scenario)
        expected_duration = 800.0 / mph_to_mps(10)
        assert log.duration_s == pytest.approx(expected_duration, rel=1e-12)
        assert log.duration_s == pytest.approx(178.95, abs=0.01)
        # One record per 50 ms tick including t = 0.
        expected = math.floor(expected_duration / 0.05 + 1e-9) + 1
        assert len(log.records["rsu0"]) == expected
        # Floor-consistent with the nominal periods-in-pass figure.
        assert abs(len(log.records["rsu0"]) - expected_duration / 0.05) <= 1.0

    def test_perfect_link_decodes_everything(self):
        log = run_pass(make_scenario())
        records = packet_rows(log.records["rsu0"], "rsu0")
        assert all(r.decoded for r in records)
        assert all(r.rx_time_s >= r.tx_time_s for r in records)

    def test_packet_count_law_per_window(self):
        # Transmitted packets per window ~ width / (speed * period).
        for mph, width in ((20, 50.0), (50, 50.0), (79, 50.0), (10, 20.0)):
            speed = mph_to_mps(mph)
            scenario = make_scenario(
                train=TrainRun(speed_mps=speed, start_d_t_m=-550.0, end_d_t_m=550.0)
            )
            log = run_pass(scenario)
            counts = window_counts(log, "rsu0", width)
            expected = width / (speed * 0.05)
            interior = [
                counts[i]
                for i in range(int(-500 // width) + 1, int(500 // width) - 1)
            ]
            assert interior, "no interior windows"
            for count in interior:
                assert abs(count - expected) <= 1.0

    def test_halving_speed_doubles_window_count(self):
        logs = {}
        for mph in (10, 20):
            scenario = make_scenario(
                train=TrainRun(speed_mps=mph_to_mps(mph), start_d_t_m=-300.0, end_d_t_m=300.0)
            )
            logs[mph] = window_counts(run_pass(scenario), "rsu0", 50.0)
        for index in (-4, -3, -2):
            assert abs(logs[10][index] - 2 * logs[20][index]) <= 2.0

    def test_deterministic_same_seed(self):
        scenario = make_scenario(
            channel=SyntheticChannel(path_loss_exponent=2.8, shadowing_sigma_db=4.0)
        )
        first = run_pass(scenario)
        second = run_pass(scenario)
        assert log_bytes(first) == log_bytes(second)

    def test_different_seed_differs(self):
        scenario = make_scenario(
            channel=SyntheticChannel(path_loss_exponent=2.8, shadowing_sigma_db=4.0)
        )
        assert log_bytes(run_pass(scenario, seed=1)) != log_bytes(run_pass(scenario, seed=2))

    def test_adding_receiver_does_not_perturb_existing_stream(self):
        lossy = PerProfile(bins=((-700.0, 700.0, 0.35),))
        one = make_scenario(channel=lossy)
        two = make_scenario(
            channel=lossy, scene=CrossingScene(receivers=(RSU, OBU))
        )
        assert run_pass(one).records["rsu0"] == run_pass(two).records["rsu0"]

    def test_expected_decoded_count_tracks_probability(self):
        per = 0.3
        scenario = make_scenario(
            channel=PerProfile(bins=((-700.0, 700.0, per),)),
            train=TrainRun(speed_mps=2.0, start_d_t_m=-200.0, end_d_t_m=200.0),
        )
        log = run_pass(scenario)
        records = packet_rows(log.records["rsu0"], "rsu0")
        transmitted = len(records)
        decoded = sum(1 for r in records if r.decoded)
        # 99% binomial interval around the expected decode count.
        expected = transmitted * (1 - per)
        sigma = math.sqrt(transmitted * per * (1 - per))
        assert abs(decoded - expected) <= 2.576 * sigma

    def test_warning_event_emitted_with_relay(self):
        scenario = make_scenario()
        log = run_pass(scenario)
        assert len(log.events) == 1
        event = log.events[0]
        assert event.mode == "indirect"
        assert -200.0 <= event.train_d_t_at_trigger_m <= 0.0
        assert event.relay_delivery_time_s > event.trigger_time_s

    def test_obu_event_is_direct_without_relay(self):
        scenario = make_scenario(scene=CrossingScene(receivers=(OBU,)))
        log = run_pass(scenario)
        assert len(log.events) == 1
        assert log.events[0].mode == "direct"
        assert log.events[0].relay_delivery_time_s is None

    def test_no_event_when_link_dead(self):
        scenario = make_scenario(channel=PerProfile(bins=((-700.0, 700.0, 1.0),)))
        log = run_pass(scenario)
        assert log.events == []
        assert all(not r.decoded for r in packet_rows(log.records["rsu0"], "rsu0"))

    def test_empirical_mode_ignores_antenna_selection(self):
        # An empirical channel reads no antenna, so a scenario that sets one
        # raises naming it, built directly or through dataclasses.replace.
        named = r"^radio\.tx_antenna: an empirical channel does not read it; keep its default$"
        with pytest.raises(ValueError, match=named):
            make_scenario(radio=RadioConfig(tx_antenna="bidir23"))
        with pytest.raises(ValueError, match=named):
            dataclasses.replace(make_scenario(), radio=RadioConfig(tx_antenna="bidir23"))

    def test_invalid_scenarios_rejected(self):
        with pytest.raises(ValueError):
            TrainRun(speed_mps=0.0)
        with pytest.raises(ValueError):
            TrainRun(speed_mps=5.0, start_d_t_m=100.0, end_d_t_m=400.0)
        with pytest.raises(ValueError):
            make_scenario(scene=CrossingScene(receivers=()))
        with pytest.raises(KeyError):
            make_scenario(channel=SyntheticChannel(), radio=RadioConfig(tx_antenna="missing"))


# A value other than its default for each of EMPIRICAL_UNREAD, a receiver's at obu0.
AIMED_OBU = dataclasses.replace(OBU, boresight_deg=10.0)
UNREAD_CHANGES = {
    "radio.center_frequency_hz": dict(radio=RadioConfig(center_frequency_hz=2.4e9)),
    "radio.tx_power_dbm": dict(radio=RadioConfig(tx_power_dbm=11.0)),
    "radio.modulation": dict(radio=RadioConfig(modulation="16QAM")),
    "radio.tx_antenna": dict(radio=RadioConfig(tx_antenna="bidir23")),
    "radio.rx_antenna": dict(radio=RadioConfig(rx_antenna="bidir23")),
    "scene.receivers[i].boresight_deg": dict(scene=CrossingScene(receivers=(RSU, AIMED_OBU))),
    "scene.obstructions": dict(
        scene=CrossingScene(receivers=(RSU,), obstructions=(ObstructionSegment(-10.0, 10.0, 5.0),))
    ),
    "antennas": dict(custom_patterns=(builtin_pattern("bidir23"),)),
}


class TestSettingsTheChannelDoesNotRead:
    """Scenario rejects a setting its channel does not read, however it is built."""

    def test_every_unread_key_has_a_case(self):
        assert tuple(UNREAD_CHANGES) == EMPIRICAL_UNREAD

    @pytest.mark.parametrize("key", EMPIRICAL_UNREAD)
    def test_an_empirical_scenario_keeps_each_at_its_default(self, key):
        path = key.replace("[i]", "[1]")
        named = f"^{re.escape(path)}: an empirical channel does not read it; keep its default$"
        with pytest.raises(ValueError, match=named):
            make_scenario(**UNREAD_CHANGES[key])
        with pytest.raises(ValueError, match=named):
            dataclasses.replace(make_scenario(), **UNREAD_CHANGES[key])

    @pytest.mark.parametrize(
        "axis, values, key",
        [
            ("powers_dbm", [23.0, 11.0], "radio.tx_power_dbm"),
            ("modulations", ["QPSK", "16QAM"], "radio.modulation"),
            ("antennas", ["omni12", "bidir23"], "radio.tx_antenna"),
        ],
    )
    def test_a_sweep_names_the_point_and_the_key(self, tmp_path, axis, values, key):
        out_dir = tmp_path / "sweep"
        named = rf"^sweep point .*: {re.escape(key)}: an empirical channel does not read it"
        with pytest.raises(engine.SweepPointError, match=named):
            run_sweep(make_scenario(), **{axis: values}, out_dir=out_dir)
        assert not out_dir.exists()

    def test_a_carrier_is_unread_where_the_reference_loss_is_not_its_free_space_loss(self):
        carrier = RadioConfig(center_frequency_hz=2.4e9)
        given = SyntheticChannel(reference_loss_db=47.8)
        named = r"^radio\.center_frequency_hz: channel\.reference_loss_db, not the free-space"
        with pytest.raises(ValueError, match=named):
            make_scenario(radio=carrier, channel=given)
        # The free-space loss at the carrier, or the default carrier, reads both.
        free_space = SyntheticChannel(reference_loss_db=friis_reference_loss_db(2.4e9))
        make_scenario(radio=carrier, channel=free_space)
        make_scenario(channel=given)


class TestReceiverStream:
    def test_stable_per_receiver(self):
        a = receiver_stream(42, "rsu0", "decode").random(5)
        b = receiver_stream(42, "rsu0", "decode").random(5)
        assert np.array_equal(a, b)

    def test_distinct_receivers_distinct_streams(self):
        a = receiver_stream(42, "rsu0", "decode").random(5)
        b = receiver_stream(42, "obu0", "decode").random(5)
        assert not np.array_equal(a, b)

    def test_distinct_purposes_distinct_streams(self):
        draws = [
            receiver_stream(42, "rsu0", purpose).random(5)
            for purpose in ("shadowing", "decode", "jitter", "relay")
        ]
        for i, a in enumerate(draws):
            for b in draws[i + 1 :]:
                assert not np.array_equal(a, b)

    @pytest.mark.parametrize(
        "purpose, index", [("shadowing", 0), ("decode", 1), ("jitter", 2), ("relay", 3)]
    )
    def test_key_layout(self, purpose, index):
        # The key is part of the log format (LOG_VERSION 2): sha256-derived
        # receiver id and the purpose index, fed to SeedSequence and Philox.
        rid = int.from_bytes(hashlib.sha256(b"rsu0").digest()[:8], "big")
        expected = np.random.Generator(
            np.random.Philox(np.random.SeedSequence([42, rid, index]))
        ).random(5)
        assert np.array_equal(receiver_stream(42, "rsu0", purpose).random(5), expected)

    def test_unknown_purpose_rejected(self):
        with pytest.raises(ValueError, match="purpose"):
            receiver_stream(42, "rsu0", "latency")


def swept_logs(out_dir, scenario, **axes) -> list:
    """(point, log bytes) per grid point, in grid order, read from the logs run_sweep wrote."""
    rows = run_sweep(scenario, out_dir=out_dir, **axes)
    return [(row[1], (out_dir / row[0]).read_bytes()) for row in rows]


def sweep_jobs(speeds, seeds) -> list:
    """Sweep jobs of make_scenario() at these speeds and seeds, as run_sweep makes them."""
    base = make_scenario()
    points = [engine.SweepPoint(v, 23.0, "QPSK", "omni12", seed) for v, seed in zip(speeds, seeds)]
    return [(point, engine._scenario_for_point(base, point), None) for point in points]


def heaviest_of_whole_runs(jobs, workers) -> int:
    """The heaviest share's packets where each run of consecutive jobs with
    one train run is dealt whole, largest first, each to the lightest share."""
    runs = groupby(jobs, lambda job: job[1].train)
    sizes = sorted((sum(job[1].packet_count for job in run) for _, run in runs), reverse=True)
    loads = [0] * min(workers, len(sizes))
    for size in sizes:
        loads[loads.index(min(loads))] += size
    return max(loads)


def assert_shares_cut_runs_only_to_lower_the_heaviest(jobs, workers, shares) -> None:
    loads = [sum(jobs[i][1].packet_count for i in share) for share in shares]
    whole = heaviest_of_whole_runs(jobs, workers)
    # Every job lands in exactly one of at most workers shares, lightest first.
    assert sorted(i for share in shares for i in share) == list(range(len(jobs)))
    assert 1 <= len(shares) <= workers
    assert loads == sorted(loads)
    # The heaviest share is never heavier than when whole runs are dealt,
    # and a train run lies in two shares only where that made it lighter.
    assert max(loads) <= whole
    owners = {i: n for n, share in enumerate(shares) for i in share}
    runs = [list(run) for _, run in groupby(range(len(jobs)), lambda i: jobs[i][1].train)]
    if any(len({owners[i] for i in run}) > 1 for run in runs):
        assert max(loads) < whole


class TestRunSweep:
    def test_singleton_grid_matches_run_pass(self, tmp_path):
        scenario = make_scenario()
        results = swept_logs(tmp_path, scenario)
        assert len(results) == 1
        assert results[0][1] == log_bytes(run_pass(scenario))

    def test_speed_grid(self, tmp_path):
        scenario = make_scenario(
            train=TrainRun(speed_mps=mph_to_mps(20), start_d_t_m=-550.0, end_d_t_m=550.0)
        )
        speeds = [mph_to_mps(v) for v in (20, 50, 79)]
        results = swept_logs(tmp_path, scenario, speeds_mps=speeds)
        assert [point.speed_mps for point, _ in results] == speeds
        assert len({json.loads(data.partition(b"\n")[0])["digest"] for _, data in results}) == 3

    def test_order_independence(self, tmp_path):
        scenario = make_scenario(
            channel=SyntheticChannel(path_loss_exponent=2.8, shadowing_sigma_db=3.0)
        )
        speeds = [mph_to_mps(v) for v in (10, 20)]
        powers = [11.0, 23.0]
        forward = swept_logs(tmp_path / "fwd", scenario, speeds_mps=speeds, powers_dbm=powers)
        reverse = swept_logs(
            tmp_path / "rev",
            scenario,
            speeds_mps=list(reversed(speeds)),
            powers_dbm=list(reversed(powers)),
        )
        assert dict(forward) == dict(reverse)

    def test_parallel_matches_sequential(self, tmp_path):
        scenario = make_scenario(
            train=TrainRun(speed_mps=mph_to_mps(50), start_d_t_m=-200.0, end_d_t_m=200.0)
        )
        speeds = [mph_to_mps(v) for v in (20, 50)]
        sequential = swept_logs(tmp_path / "one", scenario, speeds_mps=speeds, max_workers=1)
        parallel = swept_logs(tmp_path / "two", scenario, speeds_mps=speeds, max_workers=2)
        assert sequential == parallel

    def test_uneven_pieces_match_one_worker(self, tmp_path, monkeypatch):
        # Equal neighbouring speeds form one train run of 6 points, then two
        # runs of 3: 2 and 3 workers cut them into pieces of unequal sizes.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        scenario = make_scenario(
            scene=CrossingScene(receivers=(RSU, OBU)),
            train=TrainRun(speed_mps=mph_to_mps(50), start_d_t_m=-200.0, end_d_t_m=200.0),
        )
        speeds = [mph_to_mps(v) for v in (20, 20, 50, 20)]
        outputs = []
        for workers in (1, 2, 3):
            out_dir = tmp_path / f"w{workers}"
            axes = dict(speeds_mps=speeds, seeds=[1, 2, 3], max_workers=workers)
            logs = swept_logs(out_dir, scenario, **axes)
            outputs.append((logs, (out_dir / "summary.csv").read_bytes()))
        assert len(outputs[0][0]) == 12
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    # Points of one train run and seed share their heads' times whatever the
    # power, modulation and antenna; each log is still its own pass's bytes.
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
    )
    @given(
        speeds=st.lists(st.sampled_from([20, 50]), min_size=1, max_size=2),
        powers=st.lists(st.sampled_from([11.0, 23.0]), min_size=1, max_size=2),
        modulations=st.permutations(["QPSK", "16QAM"]),
        antennas=st.lists(st.sampled_from(["omni12", "bidir23"]), min_size=1, max_size=2),
        seeds=st.lists(st.sampled_from([1, 2]), min_size=1, max_size=2),
        workers=st.integers(1, 3),
    )
    def test_every_log_equals_its_pass_written_alone(
        self, tmp_path_factory, monkeypatch, speeds, powers, modulations, antennas, seeds, workers
    ):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        base = make_scenario(
            scene=CrossingScene(receivers=(RSU, OBU)),
            channel=SyntheticChannel(path_loss_exponent=2.8, shadowing_sigma_db=3.0),
            train=TrainRun(speed_mps=mph_to_mps(50), start_d_t_m=-200.0, end_d_t_m=200.0),
        )
        axes = dict(
            speeds_mps=[mph_to_mps(v) for v in speeds],
            powers_dbm=powers,
            modulations=modulations,
            antennas=antennas,
            seeds=seeds,
            max_workers=workers,
        )
        for point, data in swept_logs(tmp_path_factory.mktemp("sweep"), base, **axes):
            assert data == log_bytes(run_pass(engine._scenario_for_point(base, point)))

    @pytest.mark.parametrize(
        "workers, loads", [(1, [23343]), (2, [11337, 12006]), (3, [7335, 8004, 8004])]
    )
    def test_shares_of_the_uneven_grid(self, workers, loads):
        # Train runs of 6, 3 and 3 points, 2,001, 1,778 and 2,001 packets
        # each; the last repeats the first. 2 workers deal the runs whole,
        # 3 cut them.
        speeds = [8.0] * 6 + [9.0] * 3 + [8.0] * 3
        jobs = sweep_jobs(speeds, [i % 2 for i in range(len(speeds))])
        shares = engine._shares(jobs, workers)
        assert [sum(jobs[i][1].packet_count for i in share) for share in shares] == loads
        assert_shares_cut_runs_only_to_lower_the_heaviest(jobs, workers, shares)

    @settings(max_examples=60, deadline=None)
    @given(
        speeds=st.lists(st.sampled_from([8.0, 9.0, 30.0]), min_size=1, max_size=12),
        workers=st.integers(1, 4),
    )
    def test_shares_cut_train_runs_only_to_lower_the_heaviest(self, speeds, workers):
        jobs = sweep_jobs(speeds, [i % 3 for i in range(len(speeds))])
        shares = engine._shares(jobs, workers)
        assert_shares_cut_runs_only_to_lower_the_heaviest(jobs, workers, shares)

    @pytest.mark.parametrize(
        "speeds, seeds, shares",
        [
            # Seeds alternate in grid order; each share runs one seed.
            ([8.0] * 4, [1, 2, 1, 2], [[0, 2], [1, 3]]),
            # A cut in the middle (4,002 packets a side) deals a heaviest share
            # of 8,004 packets, as the whole runs do; the cut after seed 1 deals 7,335.
            ([8.0] * 4 + [9.0] * 3, [1, 2, 2, 2, 1, 1, 1], [[1, 2, 3], [4, 5, 6, 0]]),
        ],
    )
    def test_a_train_run_is_cut_between_seeds(self, speeds, seeds, shares):
        assert engine._shares(sweep_jobs(speeds, seeds), 2) == shares

    def test_seed_grid(self, tmp_path):
        scenario = make_scenario(
            channel=PerProfile(bins=((-700.0, 700.0, 0.5),)),
            train=TrainRun(speed_mps=mph_to_mps(50), start_d_t_m=-200.0, end_d_t_m=200.0),
        )
        results = [data for _, data in swept_logs(tmp_path, scenario, seeds=[1, 2, 1])]
        assert results[0] == results[2]
        assert results[0] != results[1]

    @pytest.mark.parametrize("axis", ["speeds_mps", "powers_dbm", "modulations", "antennas", "seeds"])
    def test_empty_axis_rejected(self, tmp_path, axis):
        # Only None keeps the base value; an empty axis is an empty grid.
        with pytest.raises(ValueError, match="sweep grid must be non-empty"):
            run_sweep(make_scenario(), out_dir=tmp_path / "out", **{axis: []})
        assert not (tmp_path / "out").exists()

    def test_import_does_not_load_multiprocessing(self, tmp_path):
        # Nor does a sweep that forks: railwarn starts a child by os.fork alone.
        sweep = ["sweep", str(CONFIGS / "suburban_rsu_10mph.json"), "--seeds", "1,2"]
        sweep += ["--workers", "2", "--out-dir", str(tmp_path)]
        run = f"os.sched_getaffinity = lambda pid: {{0, 1}}; railwarn.cli.main({sweep!r})"
        loaded = loaded_modules("railwarn.cli", ("multiprocessing", "concurrent"), run)
        assert loaded == "[]"
        assert (tmp_path / "summary.csv").is_file()

    def test_shares_on_the_benchmark_grid(self):
        # Halving the 10 mph run (50,112 packets) would deal shares of 50,112
        # and 37,584 packets, as the whole runs are dealt; so no run is cut:
        # the 20 and 40 mph runs run here, the 10 mph run in a child.
        base = load_config(CONFIGS / "suburban_rsu_10mph.json").scenario
        speeds = [mph_to_mps(v) for v in (10, 20, 40)]
        grid = product(speeds, [11.0, 23.0], ["QPSK", "16QAM"], ["omni12", "bidir23"], [7])
        points = [engine.SweepPoint(*values) for values in grid]
        jobs = [(point, engine._scenario_for_point(base, point), None) for point in points]
        shares = engine._shares(jobs, 2)
        assert [sum(jobs[i][1].packet_count for i in share) for share in shares] == [37584, 50112]
        assert [sorted(share) for share in shares] == [list(range(8, 24)), list(range(8))]


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
# A custom pattern: a 15 dBi lobe along the track, 5 dBi across it.
WEDGE = AntennaPattern(
    name="wedge",
    azimuth_cut=((0.0, 15.0), (90.0, 5.0), (180.0, 15.0), (270.0, 5.0)),
    elevation_cut=((-90.0, 0.0), (0.0, 15.0), (90.0, 0.0)),
    peak_gain_dbi=15.0,
)


def holder_scenario(config, speed_mps, power, modulation, antenna, sigma, seed) -> Scenario:
    """A shipped config's scenario with these sweep axes and shadowing sigma.
    The open track's empirical channel reads neither the radio nor an
    antenna, so its scenario keeps the config's radio and has no WEDGE."""
    base = load_config(CONFIGS / f"{config}.json").scenario
    channel, radio, patterns = base.channel, base.radio, ()
    if isinstance(channel, SyntheticChannel):
        channel = dataclasses.replace(channel, shadowing_sigma_db=sigma)
        radio = dataclasses.replace(
            radio, tx_power_dbm=power, modulation=modulation, tx_antenna=antenna
        )
        patterns = (WEDGE,)
    return dataclasses.replace(
        base,
        train=dataclasses.replace(base.train, speed_mps=speed_mps),
        radio=radio,
        channel=channel,
        seed=seed,
        custom_patterns=patterns,
    )


# (config, speed in m/s, power, modulation, antenna, shadowing sigma, seed)
HOLDER_STEP = st.tuples(
    st.sampled_from(["suburban_rsu_10mph", "open_track_20mph"]),
    st.sampled_from([30.0, 35.0]),
    st.sampled_from([11.0, 23.0]),
    st.sampled_from(["QPSK", "16QAM"]),
    st.sampled_from(["omni12", "bidir23", "wedge"]),
    st.sampled_from([2.0, 4.0]),
    st.sampled_from([1, 2]),
)
SUBURBAN_STEP = ("suburban_rsu_10mph", 30.0, 23.0, "QPSK", "omni12", 2.0, 1)


class TestLinkHolder:
    """Link arrays held from one pass to the next change no byte."""

    # Each example moves one input on from the suburban pass: the seed, the
    # train run, the shadowing sigma, the antenna (built-in and custom), the
    # power and modulation, and the channel (an empirical one after it).
    @settings(max_examples=40, deadline=None)
    @given(steps=st.lists(HOLDER_STEP, min_size=2, max_size=6))
    @example(steps=[SUBURBAN_STEP, SUBURBAN_STEP[:6] + (2,), SUBURBAN_STEP])
    @example(steps=[SUBURBAN_STEP, (SUBURBAN_STEP[0], 35.0) + SUBURBAN_STEP[2:], SUBURBAN_STEP])
    @example(steps=[SUBURBAN_STEP, SUBURBAN_STEP[:5] + (4.0, 1)])
    @example(
        steps=[
            SUBURBAN_STEP,
            SUBURBAN_STEP[:4] + ("bidir23",) + SUBURBAN_STEP[5:],
            SUBURBAN_STEP[:4] + ("wedge",) + SUBURBAN_STEP[5:],
        ]
    )
    @example(steps=[SUBURBAN_STEP, SUBURBAN_STEP[:2] + (11.0, "16QAM") + SUBURBAN_STEP[4:]])
    @example(steps=[("open_track_20mph",) + SUBURBAN_STEP[1:], SUBURBAN_STEP])
    def test_passes_through_one_holder_equal_each_pass_alone(self, steps):
        holder = engine.LinkHolder()
        for step in steps:
            scenario = holder_scenario(*step)
            assert log_bytes(run_pass(scenario, None, holder)) == log_bytes(run_pass(scenario))

    def test_suburban_step_warns_through_the_relay(self):
        # So the oracle's suburban passes cover the RSU relay's draw.
        log = run_pass(holder_scenario(*SUBURBAN_STEP), None, engine.LinkHolder())
        assert any(event.relay_delivery_time_s is not None for event in log.events)

    def test_holder_keeps_at_most_80_bytes_per_tick_per_receiver(self):
        # The memory law in README: 72 bytes per tick per receiver of a
        # synthetic channel with shadowing (five geometry arrays, the gain,
        # the shadowing normals, the decode uniforms and the arrival times),
        # linear in the pass; 6,264 and 25,054 packet rows here.
        per_tick = []
        for mph in (10, 2.5):
            speed = mph_to_mps(mph)
            scenario = holder_scenario("suburban_rsu_10mph", speed, 23.0, "QPSK", "omni12", 3.0, 7)
            run_pass(scenario)  # builds what a process keeps anyway, such as the cut arrays
            holder = engine.LinkHolder()
            tracemalloc.start()
            try:
                run_pass(scenario, None, holder)
                kept = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            per_tick.append(kept / scenario.packet_count)
        assert all(64 < kept < 80 for kept in per_tick), per_tick
        assert abs(per_tick[0] - per_tick[1]) < 0.02 * per_tick[1], per_tick


def loaded_modules(module: str, prefix, run: str = "") -> str:
    """The modules named prefix... that a fresh interpreter holds after
    importing module and running the statement run."""
    src = str(Path(railwarn.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = (
        f"import os, sys, {module}; {run}\n"
        f"print(sorted(m for m in sys.modules if m.startswith({prefix!r})))"
    )
    env = dict(os.environ, PYTHONPATH=path)
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    return result.stdout.strip().splitlines()[-1]


def test_package_import_loads_no_submodule():
    # Names are imported from their modules; the package re-exports none.
    assert loaded_modules("railwarn", "railwarn.") == "[]"


class TestDigest:
    def test_digest_stable_and_sensitive(self):
        scenario = make_scenario()
        assert scenario_digest(scenario) == scenario_digest(make_scenario())
        changed = dataclasses.replace(scenario, seed=99)
        assert scenario_digest(changed) != scenario_digest(scenario)


class TestLayerCalls:
    """The engine calls its layers through module names that a caller can wrap."""

    def test_geometry_and_antenna_calls_are_patchable(self, monkeypatch):
        calls = {"link_geometry": 0, "pattern_gain": 0}
        for name in calls:
            original = getattr(engine, name)

            def counting(*args, _original=original, _name=name):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(engine, name, counting)
        scenario = make_scenario(
            channel=SyntheticChannel(), scene=CrossingScene(receivers=(RSU, OBU))
        )
        run_pass(scenario)
        assert calls == {"link_geometry": 2, "pattern_gain": 4}

    def test_latency_calls_are_patchable(self, monkeypatch):
        calls = []

        def counting(range_m, model, rng, hops=1):
            calls.append(np.shape(range_m))
            return link_latency_sample(range_m, model, rng, hops)

        monkeypatch.setattr(engine, "latency_sample", counting)
        scenario = make_scenario(
            channel=SyntheticChannel(), scene=CrossingScene(receivers=(RSU, OBU))
        )
        log = run_pass(scenario)
        # One call per receiver, over all of its ticks.
        assert calls == [(len(log.records["rsu0"]),), (len(log.records["obu0"]),)]

    def test_packet_line_keys_are_the_column_names(self):
        lines = log_bytes(run_pass(make_scenario())).decode().splitlines()
        packet = json.loads(lines[1])
        assert packet["type"] == "packet"
        assert set(packet) == set(PACKET_KEYS) | {"type"}
