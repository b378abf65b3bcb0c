import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scalar_reference import packet_rows

import railwarn
from railwarn import engine
from railwarn.engine import (
    Scenario,
    TrainRun,
    receiver_stream,
    run_pass,
    run_sweep,
    scenario_digest,
)
from railwarn.geometry import CrossingScene, Placement
from railwarn.link import LatencyModel, PerProfile, RadioConfig, SyntheticChannel
from railwarn.link import latency_sample as link_latency_sample
from railwarn.logio import PACKET_KEYS, log_bytes
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
        base = make_scenario()
        other = make_scenario(radio=RadioConfig(tx_antenna="bidir23"))
        assert run_pass(base).records == run_pass(other).records

    def test_invalid_scenarios_rejected(self):
        with pytest.raises(ValueError):
            TrainRun(speed_mps=0.0)
        with pytest.raises(ValueError):
            TrainRun(speed_mps=5.0, start_d_t_m=100.0, end_d_t_m=400.0)
        with pytest.raises(ValueError):
            make_scenario(scene=CrossingScene(receivers=()))
        with pytest.raises(KeyError):
            make_scenario(radio=RadioConfig(tx_antenna="missing"))


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

    def test_import_does_not_load_multiprocessing(self):
        # The process pool is imported only for a sweep with more than one worker.
        assert loaded_modules("railwarn.cli", "multiprocessing") == "[]"


def loaded_modules(module: str, prefix: str) -> str:
    """The modules named prefix... that a fresh interpreter holds after importing module."""
    src = str(Path(railwarn.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = (
        f"import sys, {module}; "
        f"print(sorted(m for m in sys.modules if m.startswith({prefix!r})))"
    )
    env = dict(os.environ, PYTHONPATH=path)
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    return result.stdout.strip()


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
