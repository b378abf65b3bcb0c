import csv
import dataclasses
import json
import math
import multiprocessing.process
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from make_golden import long_config
from scalar_reference import packet_rows
from test_log_fork import assert_reaped, counted_forks

import railwarn
from railwarn import analysis, engine, logio, units
from railwarn.cli import main
from railwarn.config import ConfigError, load_config
from railwarn.engine import (
    MAX_SWEEP_PACKETS,
    MAX_TICKS,
    SweepPointError,
    TrainRun,
    run_pass,
    run_sweep,
    scenario_to_dict,
)
from railwarn.link import PerProfile, RadioConfig, SyntheticChannel
from railwarn.logio import (
    FIELD_COLUMNS,
    MAX_PACKETS,
    log_bytes,
    read_field_log,
    read_log,
    write_log,
)
from railwarn.protocol import TriggerPolicy
from railwarn.units import parse_speed


def railwarn_env() -> dict:
    """This environment, with this railwarn first on PYTHONPATH, for a subprocess."""
    src = str(Path(railwarn.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def antenna(azimuth, elevation, peak, floor) -> dict:
    return dict(azimuth=azimuth, elevation=elevation, peak_gain_dbi=peak, floor_dbi=floor)


def on_antennas(tx: dict, rx: dict | None = None) -> dict:
    """A config edit that transmits on custom antenna tx and receives on rx, or on tx."""
    radio = {"tx_antenna": "tx", "rx_antenna": "rx"}
    return {"radio": radio, "antennas": {"tx": tx, "rx": rx or tx}}


def simulate_warnings_as_errors(tmp_path, edit: dict) -> tuple:
    """simulate of the suburban config with each section of edit updated, in
    a subprocess where a RuntimeWarning is an error: its result and log path."""
    data = json.loads(SUBURBAN.read_text())
    for section, values in edit.items():
        data.setdefault(section, {}).update(values)
    log_path = tmp_path / "x.jsonl"
    argv = ["simulate", str(write_config(tmp_path, data)), "-o", str(log_path)]
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "railwarn.cli", *argv],
        env=railwarn_env(),
        capture_output=True,
        text=True,
    )
    return result, log_path


def write_config(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


MINIMAL = {"train": {"speed_mph": 10}}


class TestConfigLoading:
    def test_minimal_config_gets_standard_defaults(self, tmp_path):
        scenario = load_config(write_config(tmp_path, MINIMAL)).scenario
        assert scenario.radio.center_frequency_hz == 5.87e9
        assert scenario.radio.tx_period_ms == 50.0
        assert scenario.radio.tx_power_dbm == 23.0
        assert scenario.radio.modulation == "QPSK"
        assert scenario.train.speed_mps == pytest.approx(4.4704)
        assert isinstance(scenario.channel, SyntheticChannel)

    def test_power_outside_option_set(self, tmp_path):
        path = write_config(tmp_path, {**MINIMAL, "radio": {"tx_power_dbm": 30}})
        with pytest.raises(ConfigError, match="tx_power_dbm"):
            load_config(path).scenario

    def test_unknown_keys_rejected(self, tmp_path):
        path = write_config(tmp_path, {**MINIMAL, "radio": {"tx_powerr_dbm": 23}})
        with pytest.raises(ConfigError, match="tx_powerr_dbm"):
            load_config(path).scenario
        path = write_config(tmp_path, {**MINIMAL, "extra_section": {}})
        with pytest.raises(ConfigError, match="extra_section"):
            load_config(path).scenario

    def test_empirical_requires_table(self, tmp_path):
        path = write_config(tmp_path, {**MINIMAL, "channel": {"mode": "empirical"}})
        with pytest.raises(ConfigError, match="per_table or inline bins"):
            load_config(path).scenario

    def test_missing_speed_rejected(self, tmp_path):
        path = write_config(tmp_path, {"train": {"start_d_t_m": -100}})
        with pytest.raises(ConfigError, match="speed"):
            load_config(path).scenario

    def test_both_speeds_rejected(self, tmp_path):
        path = write_config(tmp_path, {"train": {"speed_mph": 10, "speed_mps": 4.47}})
        with pytest.raises(ConfigError, match="not both"):
            load_config(path).scenario

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"train": {"speed_mph": 10},}')
        with pytest.raises(ConfigError, match="parse error"):
            load_config(path).scenario

    def test_per_table_relative_to_config(self, tmp_path):
        (tmp_path / "per.csv").write_text("d_start_m,d_end_m,per\n-500,500,0.0\n")
        path = write_config(
            tmp_path,
            {**MINIMAL, "channel": {"mode": "empirical", "per_table": "per.csv"}},
        )
        scenario = load_config(path).scenario
        assert isinstance(scenario.channel, PerProfile)
        assert scenario.channel.bins == ((-500.0, 500.0, 0.0),)

    def test_missing_per_table_reports_key(self, tmp_path):
        path = write_config(
            tmp_path,
            {**MINIMAL, "channel": {"mode": "empirical", "per_table": "nope.csv"}},
        )
        with pytest.raises(ConfigError, match="per_table"):
            load_config(path).scenario

    def test_inline_antenna_tables(self, tmp_path):
        config = {
            **MINIMAL,
            "radio": {"tx_antenna": "custom"},
            "antennas": {
                "custom": {
                    "azimuth": [[0, 9], [180, 3]],
                    "elevation": [[-90, -5], [0, 9], [90, -5]],
                }
            },
        }
        scenario = load_config(write_config(tmp_path, config)).scenario
        assert scenario.resolve_pattern("custom").peak_gain_dbi == 9.0

    def test_antenna_csv_files(self, tmp_path):
        (tmp_path / "az.csv").write_text("angle_deg,gain_dbi\n0,9\n180,3\n")
        (tmp_path / "el.csv").write_text("angle_deg,gain_dbi\n-90,-5\n0,9\n90,-5\n")
        config = {
            **MINIMAL,
            "radio": {"rx_antenna": "aimed"},
            "antennas": {"aimed": {"azimuth_csv": "az.csv", "elevation_csv": "el.csv"}},
        }
        scenario = load_config(write_config(tmp_path, config)).scenario
        assert scenario.resolve_pattern("aimed").peak_gain_dbi == 9.0

    def test_unresolvable_antenna_name(self, tmp_path):
        path = write_config(tmp_path, {**MINIMAL, "radio": {"tx_antenna": "ghost"}})
        with pytest.raises(ConfigError, match="ghost"):
            load_config(path).scenario


class TestRoundTrips:
    def test_scenario_round_trip(self, tmp_path):
        source = {
            "seed": 5,
            "train": {"speed_mph": 20, "start_d_t_m": -550, "end_d_t_m": 420},
            "scene": {
                "receivers": [
                    {"id": "rsu0", "kind": "RSU", "offset_from_crossing_m": 6, "height_m": 3},
                    {"id": "obu0", "kind": "OBU", "offset_from_crossing_m": 42, "height_m": 1.7},
                ],
            },
            "channel": {
                "mode": "empirical",
                "bins": [[-500, 0, 0.0], [0, 350, 0.25]],
                "out_of_range": "zero",
            },
        }
        scenario = load_config(write_config(tmp_path, source)).scenario
        out = write_config(tmp_path, scenario_to_dict(scenario), "rewritten.json")
        assert load_config(out).scenario == scenario

    def test_synthetic_round_trip(self, tmp_path):
        # An empirical channel reads no obstruction (engine.EMPIRICAL_UNREAD).
        obstruction = {
            "d_start_m": -400,
            "d_end_m": -150,
            "excess_loss_db": 30,
            "gap_width_m": 2,
            "gap_period_m": 12,
        }
        source = {
            **MINIMAL,
            "scene": {"obstructions": [obstruction]},
            "channel": {"mode": "synthetic", "path_loss_exponent": 2.9, "shadowing_sigma_db": 3},
        }
        scenario = load_config(write_config(tmp_path, source)).scenario
        out = write_config(tmp_path, scenario_to_dict(scenario), "rewritten.json")
        assert load_config(out).scenario == scenario

    def test_log_round_trip_bit_exact(self, tmp_path):
        scenario = load_config(write_config(tmp_path, MINIMAL)).scenario
        log = run_pass(scenario)
        path = tmp_path / "pass.log.jsonl"
        write_log(log, path)
        loaded = read_log(path)
        assert loaded.records == log.records
        assert loaded.events == log.events
        assert loaded.digest == log.digest
        assert log_bytes(loaded) == log_bytes(log)

    def test_field_log_ingestion(self, tmp_path):
        path = tmp_path / "capture.csv"
        path.write_text(
            "seq,tx_time_s,train_d_t_m,decoded,rx_time_s\n"
            "0,0.0,-120.0,1,0.004\n"
            "1,0.05,-119.5,0,\n"
            "2,0.10,-119.0,true,0.1045\n"
        )
        log = read_field_log(path)
        records = packet_rows(log.records["field"], "field")
        assert len(records) == 3
        assert records[0].latency_s == pytest.approx(0.004)
        assert records[1].decoded is False
        assert records[2].latency_s == pytest.approx(0.0045)

    def test_parse_speed_forms(self):
        assert parse_speed("10mph") == pytest.approx(4.4704)
        assert parse_speed("10 mph") == pytest.approx(4.4704)
        assert parse_speed("4.47mps") == pytest.approx(4.47)
        assert parse_speed("4.47 m/s") == pytest.approx(4.47)
        assert parse_speed("4.47") == pytest.approx(4.47)


class TestCli:
    def test_simulate_then_coverage(self, tmp_path, capsys):
        (tmp_path / "per.csv").write_text("d_start_m,d_end_m,per\n-500,350,0.0\n")
        config = write_config(
            tmp_path,
            {
                "seed": 1,
                "train": {"speed_mph": 20, "start_d_t_m": -600, "end_d_t_m": 600},
                "channel": {"mode": "empirical", "per_table": "per.csv"},
            },
        )
        log_path = tmp_path / "out.log.jsonl"
        assert main(["simulate", str(config), "-o", str(log_path)]) == 0
        assert log_path.exists()
        assert main(["coverage", str(log_path), "--threshold", "5"]) == 0
        output = capsys.readouterr().out
        assert "warning range 500 m" in output

    def test_simulate_reproducible_output_files(self, tmp_path):
        config = write_config(tmp_path, {**MINIMAL, "seed": 9})
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        assert main(["simulate", str(config), "-o", str(a)]) == 0
        assert main(["simulate", str(config), "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_analyze_outputs(self, tmp_path):
        config = write_config(tmp_path, MINIMAL)
        log_path = tmp_path / "pass.jsonl"
        main(["simulate", str(config), "-o", str(log_path)])
        out_dir = tmp_path / "out"
        assert main(["analyze", str(log_path), "--out-dir", str(out_dir)]) == 0
        for name in ("per.csv", "counts.csv", "latency.csv"):
            assert (out_dir / name).exists()
        header = (out_dir / "per.csv").read_text().splitlines()[0]
        assert header == "receiver_id,d_center_m,transmitted,received,per"

    def test_analyze_empty_log_is_runtime_error(self, tmp_path, capsys):
        log_path = tmp_path / "empty.jsonl"
        log_path.write_text(
            json.dumps(
                {
                    "type": "header",
                    "version": 1,
                    "digest": "x",
                    "seed": 0,
                    "train_speed_mps": 1.0,
                    "tx_period_s": 0.05,
                    "start_d_t_m": -1.0,
                    "end_d_t_m": 1.0,
                    "duration_s": 2.0,
                    "analysis_window_m": 50.0,
                    "coverage_threshold": 5,
                    "receivers": [
                        {
                            "id": "rsu0",
                            "kind": "RSU",
                            "offset_from_crossing_m": 5.0,
                            "height_m": 3.0,
                            "boresight_deg": None,
                        }
                    ],
                }
            )
            + "\n"
        )
        # A simulated header's pass has 41 ticks; a field capture has no pass to hold.
        assert main(["analyze", str(log_path)]) == 3
        assert capsys.readouterr().err == (
            f"error: runtime: {log_path}: receiver 'rsu0' has 0 packet lines, "
            "not the 41 of its pass\n"
        )
        capture = tmp_path / "empty.csv"
        capture.write_text("seq,tx_time_s,train_d_t_m,decoded,rx_time_s\n")
        assert main(["coverage", str(capture), "--field-csv"]) == 3
        assert capsys.readouterr().err == f"error: runtime: {capture}: empty log\n"

    def test_safeness_table(self, tmp_path, capsys):
        out = tmp_path / "prot.csv"
        code = main(
            ["safeness", "--dwarn", "200", "--train-speed", "10mph", "--out", str(out)]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "protection band: 34.08 to 38.94 s" in stdout
        rows = out.read_text().splitlines()
        assert len(rows) == 11  # header + 5 speeds x 2 roads

    def test_safeness_from_coverage(self, tmp_path, capsys):
        (tmp_path / "per.csv").write_text("d_start_m,d_end_m,per\n-200,200,0.0\n")
        config = write_config(
            tmp_path,
            {
                "train": {"speed_mph": 10, "start_d_t_m": -300, "end_d_t_m": 300},
                "channel": {"mode": "empirical", "per_table": "per.csv"},
            },
        )
        log_path = tmp_path / "pass.jsonl"
        main(["simulate", str(config), "-o", str(log_path)])
        code = main(
            ["safeness", "--coverage-from", str(log_path), "--train-speed", "10mph"]
        )
        assert code == 0
        assert "warning range 200 m" in capsys.readouterr().out

    def test_sweep_outputs(self, tmp_path):
        config = write_config(
            tmp_path,
            {
                "train": {"speed_mph": 50, "start_d_t_m": -200, "end_d_t_m": 200},
                "channel": {"mode": "empirical", "bins": [[-300, 300, 0.0]]},
            },
        )
        out_dir = tmp_path / "sweep"
        code = main(
            [
                "sweep",
                str(config),
                "--speeds",
                "20mph,50mph",
                "--seeds",
                "1,2",
                "--out-dir",
                str(out_dir),
            ]
        )
        assert code == 0
        logs = sorted(out_dir.glob("*.log.jsonl"))
        assert len(logs) == 4
        summary = (out_dir / "summary.csv").read_text().splitlines()
        assert len(summary) == 5

    def test_usage_error_exit_code(self, capsys):
        assert main(["simulate"]) == 1
        assert "error: usage:" in capsys.readouterr().err
        assert main(["nonsense"]) == 1

    def test_config_error_exit_code(self, tmp_path, capsys):
        config = write_config(tmp_path, {**MINIMAL, "radio": {"tx_power_dbm": 30}})
        assert main(["simulate", str(config)]) == 2
        assert "error: config:" in capsys.readouterr().err

    def test_missing_log_is_runtime_error(self, capsys):
        assert main(["coverage", "no-such-file.jsonl"]) == 3
        assert "error: runtime:" in capsys.readouterr().err

    def test_field_csv_flag(self, tmp_path, capsys):
        capture = tmp_path / "cap.csv"
        rows = ["seq,tx_time_s,train_d_t_m,decoded,rx_time_s"]
        for seq in range(200):
            position = -200.0 + seq * 2.0
            rows.append(f"{seq},{seq * 0.05},{position},1,{seq * 0.05 + 0.004}")
        capture.write_text("\n".join(rows) + "\n")
        assert main(["coverage", str(capture), "--field-csv", "--threshold", "5"]) == 0
        assert "warning range 200 m" in capsys.readouterr().out

    def test_a_log_with_no_approach_side_packet_is_a_0_m_warning_failure(self, tmp_path, capsys):
        capture = tmp_path / "cap.csv"
        rows = ["seq,tx_time_s,train_d_t_m,decoded,rx_time_s"]
        rows += [f"{seq},{seq * 0.05},{seq * 2.0},1,{seq * 0.05 + 0.004}" for seq in range(100)]
        capture.write_text("\n".join(rows) + "\n")
        assert main(["coverage", str(capture), "--field-csv"]) == 0
        assert capsys.readouterr().out == (
            "field: warning range 0 m, farthest qualifying 0 m, contiguous false\n"
            "aggregate: warning range 0 m (threshold 5 per 50 m bin)\n"
            "warning-failure: no bin met the threshold\n"
        )
        # Its safeness report fails every grid point, as a coverage range of 0 m does.
        log = tmp_path / "cap.log.jsonl"
        write_log(read_field_log(capture), log)
        assert main(["safeness", "--coverage-from", str(log), "--train-speed", "10mph"]) == 0
        report = capsys.readouterr().out
        assert main(["safeness", "--dwarn", "0", "--train-speed", "10mph"]) == 0
        assert report == capsys.readouterr().out
        assert report.endswith("system failure at every grid point\n")

    def test_report_tables_pinned(self, tmp_path):
        safeness, curves = tmp_path / "safeness.csv", tmp_path / "curves.csv"
        argv = ["safeness", "--dwarn", "200", "--train-speed", "10mph"]
        assert main([*argv, "--out", str(safeness), "--curves-out", str(curves)]) == 0
        assert safeness.read_text().splitlines()[:2] == [
            "vehicle_speed_mph,road,braking_s,time_to_avoid_collision_s,protection_s,"
            "zero_cross_distance_m,one_cross_distance_m,system_failed",
            "25.0,dry,2.295229522952295,44.73872584108805,38.938496318135755,"
            "25.929346059405937,200.0,False",
        ]
        assert curves.read_text().splitlines()[:2] == [
            "vehicle_speed_mph,road,d_t_m,safeness_level",
            "25.0,dry,0.0,-0.14895874446622673",
        ]
        log, coverage = tmp_path / "suburban.log.jsonl", tmp_path / "coverage.csv"
        assert main(["simulate", str(SUBURBAN), "-o", str(log)]) == 0
        assert main(["coverage", str(log), "--out", str(coverage)]) == 0
        lines = coverage.read_text().splitlines()
        assert lines[0] == (
            "receiver_id,warning_range_m,farthest_qualifying_m,contiguous,threshold,warning_failure"
        )
        # The header lists rsu0 before obu0; the table sorts them.
        assert [line.split(",")[0] for line in lines[1:]] == ["obu0", "rsu0", "aggregate"]

    def test_field_csv_repeated_seq_exits_3(self, tmp_path, capsys):
        capture = tmp_path / "cap.csv"
        rows = ["seq,tx_time_s,train_d_t_m,decoded,rx_time_s"]
        rows += [f"0,{k * 0.05},{-120.0 + k},1,{k * 0.05 + 0.004}" for k in range(50)]
        capture.write_text("\n".join(rows) + "\n")
        assert main(["coverage", str(capture), "--field-csv"]) == 3
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: runtime: {capture}:3: seq of receiver 'field' must increase\n"
        )
        assert captured.out == ""

    def test_field_csv_row_longer_than_its_header_exits_3(self, tmp_path, capsys):
        capture = tmp_path / "cap.csv"
        rows = ["seq,tx_time_s,train_d_t_m,decoded,rx_time_s"]
        rows += [f"{k},{k * 0.05},{-120.0 + k},1,{k * 0.05 + 0.004}" for k in range(50)]
        rows[7] += ",junk"
        capture.write_text("\n".join(rows) + "\n")
        assert main(["coverage", str(capture), "--field-csv"]) == 3
        captured = capsys.readouterr()
        assert captured.err == f"error: runtime: {capture}:8: row has more cells than the header\n"
        assert captured.out == ""

    def test_field_csv_without_its_columns_names_its_file(self, tmp_path, capsys):
        log = tmp_path / "s.log.jsonl"
        assert main(["simulate", str(SUBURBAN), "-o", str(log)]) == 0
        capsys.readouterr()
        assert main(["coverage", str(log), "--field-csv"]) == 3
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: runtime: {log}: the header must name each of {', '.join(FIELD_COLUMNS)} once\n"
        )
        assert captured.out == ""


SUBURBAN = Path(__file__).resolve().parent.parent / "configs" / "suburban_rsu_10mph.json"


def suburban_with(tmp_path, section, key, value):
    data = json.loads(SUBURBAN.read_text())
    data[section][key] = value
    if section == "train" and key == "speed_mps":
        del data["train"]["speed_mph"]
    return write_config(tmp_path, data)


class TestReferenceLoss:
    """A given reference loss leaves the carrier unread unless it is the
    free-space loss there, so the carrier must then keep its default."""

    def test_a_carrier_beside_a_given_reference_loss_exits_2(self, tmp_path, capsys):
        data = json.loads(SUBURBAN.read_text())
        data["channel"]["reference_loss_db"] = 47.8
        data["radio"] = {**data.get("radio", {}), "center_frequency_hz": 2.4e9}
        log_path = tmp_path / "x.jsonl"
        assert main(["simulate", str(write_config(tmp_path, data)), "-o", str(log_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config: radio.center_frequency_hz: ") and err.count("\n") == 1
        assert "channel.reference_loss_db" in err and not log_path.exists()

    def test_a_given_reference_loss_alone_runs(self, tmp_path):
        config = suburban_with(tmp_path, "channel", "reference_loss_db", 47.8)
        assert main(["simulate", str(config), "-o", str(tmp_path / "x.jsonl")]) == 0


NON_FINITE_KEYS = [
    ("policy", "trigger_distance_m"),
    ("channel", "path_loss_exponent"),
    ("train", "speed_mps"),
    ("radio", "tx_period_ms"),
]


class TestNonFiniteInput:
    """NaN and infinities fail every comparison, so they must never reach a gate."""

    @pytest.mark.parametrize("section, key", NON_FINITE_KEYS)
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_literal_rejected_with_key(self, tmp_path, capsys, section, key, value):
        # json.dumps writes NaN / Infinity / -Infinity literals.
        config = suburban_with(tmp_path, section, key, value)
        assert main(["simulate", str(config), "-o", str(tmp_path / "x.jsonl")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config:")
        assert f"{section}.{key}" in err
        assert not (tmp_path / "x.jsonl").exists()

    @pytest.mark.parametrize("section, key", NON_FINITE_KEYS)
    def test_overflowing_number_rejected_with_key(self, tmp_path, capsys, section, key):
        config = suburban_with(tmp_path, section, key, 1.0)
        config.write_text(config.read_text().replace(f'"{key}": 1.0', f'"{key}": 1e999'))
        assert main(["simulate", str(config), "-o", str(tmp_path / "x.jsonl")]) == 2
        assert f"{section}.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "build, key",
        [
            (lambda: TriggerPolicy(trigger_distance_m=math.nan), "trigger_distance_m"),
            (lambda: SyntheticChannel(path_loss_exponent=math.nan), "path_loss_exponent"),
            (lambda: TrainRun(speed_mps=math.nan), "speed_mps"),
            (lambda: RadioConfig(tx_period_ms=math.inf), "tx_period_ms"),
        ],
    )
    def test_dataclasses_reject_non_finite(self, build, key):
        with pytest.raises(ValueError, match=key):
            build()

    def test_nested_literal_path(self, tmp_path, capsys):
        data = json.loads(SUBURBAN.read_text())
        data["scene"]["receivers"][1]["height_m"] = math.nan
        assert main(["simulate", str(write_config(tmp_path, data))]) == 2
        assert "scene.receivers[1].height_m" in capsys.readouterr().err

    def test_jitter_above_base_rejected(self, tmp_path, capsys):
        config = suburban_with(tmp_path, "latency", "processing_jitter_ms", 5.0)
        assert main(["simulate", str(config)]) == 2
        assert "processing_jitter_ms" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, key",
        [
            # Each cut's one gain is finite; the gain they give together is not.
            (
                {
                    "radio": {"tx_antenna": "vast"},
                    "antennas": {"vast": {"azimuth_csv": "cut.csv", "elevation_csv": "cut.csv"}},
                },
                "antennas.vast",
            ),
            # Each segment's loss is finite; where they overlap, the sum is not.
            (
                {
                    "scene": {
                        "obstructions": [
                            {"d_start_m": -100, "d_end_m": 0, "excess_loss_db": 1e308},
                            {"d_start_m": -50, "d_end_m": 50, "excess_loss_db": 1e308},
                        ]
                    }
                },
                "scene.obstructions",
            ),
            # Each antenna's gains are finite; the transmit and receive gains
            # the engine adds, at their floors, are not.
            (on_antennas(antenna([[0, -8e307]], [[0, -8e307]], 0, -1e308)), "radio.rx_antenna"),
            # Only the lowest gains, or only the highest, add to no finite value.
            (
                on_antennas(antenna([[0, 0], [180, -8e307]], [[-90, -8e307], [0, 0]], 0, -1e308)),
                "radio.rx_antenna",
            ),
            (
                on_antennas(
                    antenna([[0, 0]], [[0, 0]], 0, 1.7e308),
                    antenna([[0, 8e307], [180, -1e308]], [[0, 8e307]], 8e307, -10),
                ),
                "radio.rx_antenna",
            ),
            # The loss and the noise floor are each finite; the SNR they give is not.
            ({"channel": {"reference_loss_db": -1e308, "noise_floor_dbm": -1e308}}, "channel"),
            # So does a path loss of 10 x 1e307 dB per decade of range.
            ({"channel": {"path_loss_exponent": 1e307}}, "channel"),
            # The reference loss and an obstruction's loss each are finite;
            # where the train is behind the obstruction, their sum is not.
            (
                {
                    "channel": {"reference_loss_db": 1e308},
                    "scene": {
                        "obstructions": [{"d_start_m": -100, "d_end_m": 0, "excess_loss_db": 1e308}]
                    },
                },
                "channel",
            ),
            # Only near rsu0, about 6 m from the track, does the SNR overflow;
            # at the pass's ends it is finite.
            (
                {
                    "channel": {
                        "reference_loss_db": -1.79e308,
                        "path_loss_exponent": 1e306,
                        "noise_floor_dbm": -1e307,
                    }
                },
                "channel",
            ),
            # A receiver at the crossing at the transmit height: the ticks beside it
            # come as near as the float grid lets them.
            (
                {
                    "scene": {
                        "receivers": [
                            {"id": "rsu0", "kind": "RSU", "offset_from_crossing_m": 0, "height_m": 4}
                        ]
                    },
                    "channel": {"reference_loss_db": -1.75e308, "path_loss_exponent": 1e306},
                },
                "channel",
            ),
        ],
    )
    def test_finite_values_whose_link_budget_overflows(self, tmp_path, edit, key):
        (tmp_path / "cut.csv").write_text("angle_deg,gain_dbi\n0,1e308\n")
        result, log_path = simulate_warnings_as_errors(tmp_path, edit)
        assert result.returncode == 2
        assert result.stderr.startswith(f"error: config: {key}: ")
        assert result.stderr.count("\n") == 1
        assert not log_path.exists()

    @pytest.mark.parametrize("key", ["reference_loss_db", "noise_floor_dbm"])
    def test_a_vast_loss_or_noise_floor_alone_runs(self, tmp_path, key):
        result, log_path = simulate_warnings_as_errors(tmp_path, {"channel": {key: -1e308}})
        assert (result.returncode, result.stderr) == (0, "")
        assert log_path.exists()

    def test_a_vanishing_transition_width_is_a_step(self, tmp_path):
        # The logistic's margin overflows to its limits, with no warning.
        result, log_path = simulate_warnings_as_errors(
            tmp_path, {"channel": {"transition_width_db": 1e-308}}
        )
        assert (result.returncode, result.stderr) == (0, "")
        assert read_log(log_path).decoded_count() > 0


class TestTickBudget:
    def test_oversized_pass_fails_before_allocating(self, tmp_path, capsys):
        config = suburban_with(tmp_path, "train", "start_d_t_m", -1e9)
        tracemalloc.start()
        try:
            code = main(["simulate", str(config), "-o", str(tmp_path / "x.jsonl")])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        # (350 + 1e9) m at 10 mph, one tick per 50 ms, plus the tick at t = 0.
        ticks = (350.0 + 1e9) / (10 * 0.44704) / 0.05 + 1
        assert f"pass needs {ticks:.0f} transmit ticks" in capsys.readouterr().err
        assert peak < 5_000_000
        assert not (tmp_path / "x.jsonl").exists()

    def test_limit_sits_between_tested_passes_and_runaways(self):
        assert 64_001 * 10 <= MAX_TICKS
        period_s = RadioConfig().tx_period_s
        train = TrainRun(speed_mps=1.0, start_d_t_m=-500.0, end_d_t_m=500.0)
        scenario = load_config(SUBURBAN).scenario
        slow = dataclasses.replace(train, speed_mps=1000.0 / (MAX_TICKS * period_s))
        with pytest.raises(ValueError, match="transmit ticks"):
            dataclasses.replace(scenario, train=slow)
        dataclasses.replace(scenario, train=train)


class TestPacketBudget:
    """Packets per pass and per sweep are bounded before anything is allocated
    or any pass runs; these tests build oversized inputs and never run them."""

    @pytest.fixture(autouse=True)
    def no_pass_runs(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an oversized input reached run_pass")

        monkeypatch.setattr(engine, "run_pass", refuse)
        monkeypatch.setattr(railwarn.cli, "run_pass", refuse)

    def test_oversized_pass_names_ticks_and_receivers(self, tmp_path, capsys):
        # 500 OBUs at 0.0141 m/s over -350...350 m: each count alone is in bounds.
        data = json.loads(SUBURBAN.read_text())
        obu = data["scene"]["receivers"][1]
        data["scene"]["receivers"] = [{**obu, "id": f"obu{i}"} for i in range(500)]
        data["train"] = {"speed_mps": 0.0141, "start_d_t_m": -350, "end_d_t_m": 350}
        config = write_config(tmp_path, data)
        log_path = tmp_path / "x.jsonl"
        tracemalloc.start()
        try:
            code = main(["simulate", str(config), "-o", str(log_path)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "error: config: pass needs 992908 transmit ticks x 500 receiver(s) = 496454000 packets, "
            f"more than the limit of {MAX_PACKETS}"
        )
        assert peak < 5_000_000
        assert not log_path.exists()

    def test_pass_limit_sits_between_tested_passes_and_runaways(self):
        # The largest pass the tests and the benchmark run has 300,303 packets.
        assert 300_303 * 10 <= MAX_PACKETS
        scenario = load_config(SUBURBAN).scenario
        obu = scenario.scene.receivers[1]
        speed_mps = 1000.0 / (900_000 * scenario.radio.tx_period_s)
        train = TrainRun(speed_mps=speed_mps, start_d_t_m=-500.0, end_d_t_m=500.0)

        def with_obus(count):
            receivers = tuple(dataclasses.replace(obu, id=f"obu{i}") for i in range(count))
            scene = dataclasses.replace(scenario.scene, receivers=receivers)
            return dataclasses.replace(scenario, scene=scene, train=train)

        # 900,001 ticks: four receivers fit under the limit, five do not.
        assert with_obus(4).packet_count == 3_600_004
        with pytest.raises(ValueError, match=r"900001 transmit ticks x 5 receiver\(s\)"):
            with_obus(5)

    def test_oversized_sweep_names_the_grid(self, tmp_path, capsys):
        # 14 points of 748,664 ticks x 2 receivers, each point in bounds.
        out_dir = tmp_path / "sweep"
        seeds = ",".join(str(seed) for seed in range(14))
        argv = ["sweep", str(SUBURBAN), "--speeds", "0.0187", "--seeds", seeds]
        tracemalloc.start()
        try:
            code = main([*argv, "--out-dir", str(out_dir)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "error: config: sweep of 14 points needs 20962592 packets, "
            f"more than the limit of {MAX_SWEEP_PACKETS}"
        )
        assert peak < 5_000_000
        assert not out_dir.exists()
        scenario = load_config(SUBURBAN).scenario
        with pytest.raises(SweepPointError, match="sweep of 14 points"):
            run_sweep(scenario, speeds_mps=[0.0187], seeds=range(14), out_dir=out_dir)
        assert not out_dir.exists()
        assert 13 * 1_497_328 <= MAX_SWEEP_PACKETS


class TestSafenessFlags:
    """Non-finite safeness inputs exit 2 and name the flag; finite ones whose
    safeness model overflows exit 2 naming the model's flags."""

    @pytest.mark.parametrize(
        "flag, argv",
        [
            ("--dwarn", ["--dwarn", "nan", "--train-speed", "10mph"]),
            ("--train-speed", ["--dwarn", "300", "--train-speed", "nanmph"]),
            ("--tr", ["--dwarn", "300", "--train-speed", "10mph", "--tr", "inf"]),
            ("--ts", ["--dwarn", "300", "--train-speed", "10mph", "--ts=-inf"]),
            (
                "--vehicle-speeds",
                ["--dwarn", "300", "--train-speed", "10mph", "--vehicle-speeds", "25,nan"],
            ),
        ],
    )
    def test_non_finite_flag_rejected(self, capsys, flag, argv):
        assert main(["safeness", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: config: {flag} must be finite")
        assert "protection" not in captured.out

    @pytest.mark.parametrize(
        "argv, value",
        [
            # The stop budget overflows.
            (
                ["--dwarn", "300", "--train-speed", "10mph", "--tr", "1e308", "--ts", "1e308"],
                "stop_budget_s",
            ),
            # The curve's top distance, 1.25 times the range, overflows.
            (["--dwarn", "1.5e308", "--train-speed", "10mph"], "top_distance_m"),
            # The range over the speed overflows.
            (["--dwarn", "1e308", "--train-speed", "1e-300"], "time_to_avoid_collision_s"),
        ],
    )
    def test_overflowing_model_rejected(self, tmp_path, capsys, argv, value):
        out, curves = tmp_path / "s.csv", tmp_path / "c.csv"
        assert main(["safeness", *argv, "--out", str(out), "--curves-out", str(curves)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: config: --dwarn, --train-speed, --tr and --ts: {value} must be finite, "
            "got inf\n"
        )
        assert captured.out == ""
        assert not out.exists() and not curves.exists()


class TestSweepPoints:
    """Every grid point is built and checked before any pass runs."""

    @pytest.mark.parametrize(
        "speeds, message", [("10mph,nan", "must be finite"), ("10mph,0.001", "transmit ticks")]
    )
    def test_bad_point_is_a_config_error(self, tmp_path, capsys, speeds, message):
        out_dir = tmp_path / "sweep"
        code = main(["sweep", str(SUBURBAN), "--speeds", speeds, "--out-dir", str(out_dir)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config: sweep point speed_mps=")
        assert message in err
        assert not out_dir.exists()


class TestSweepFlags:
    """A sweep flag that does not parse or is out of range exits 2 naming it."""

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--seeds", "1.5", "--seeds: cannot parse '1.5'"),
            ("--seeds", "x", "--seeds: cannot parse 'x'"),
            ("--speeds", "abc", "--speeds: cannot parse 'abc'"),
            ("--powers", "abc", "--powers: cannot parse 'abc'"),
            ("--workers", "0", "--workers must be >= 1, got 0"),
            ("--workers", "-3", "--workers must be >= 1, got -3"),
            ("--speeds", ",", "--speeds must list at least one value, got ','"),
            ("--powers", "", "--powers must list at least one value, got ''"),
            ("--modulations", ",", "--modulations must list at least one value"),
            ("--antennas", " ", "--antennas must list at least one value"),
            ("--seeds", ",,", "--seeds must list at least one value"),
        ],
    )
    def test_flag_rejected(self, tmp_path, capsys, flag, value, message):
        out_dir = tmp_path / "sweep"
        code = main(["sweep", str(SUBURBAN), flag, value, "--out-dir", str(out_dir)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: config: {message}")
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "flag, value, key",
        [
            ("--powers", "11,23", "radio.tx_power_dbm"),
            ("--modulations", "QPSK,16QAM", "radio.modulation"),
            ("--antennas", "omni12,bidir23", "radio.tx_antenna"),
        ],
    )
    def test_radio_axis_of_an_empirical_channel_rejected(self, tmp_path, capsys, flag, value, key):
        # Its PER table alone sets each packet's success: the first point
        # with a value other than the default is named, before any pass runs.
        out_dir = tmp_path / "sweep"
        open_track = SUBURBAN.parent / "open_track_20mph.json"
        argv = ["sweep", str(open_track), "--speeds", "10mph,20mph", flag, value]
        assert main([*argv, "--out-dir", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: config: sweep point "), err
        assert f": {key}: an empirical channel does not read it; keep its default\n" in err
        assert not out_dir.exists()

    def test_radio_axis_at_its_default_over_an_empirical_channel_runs(self, tmp_path):
        # The rule compares values: QPSK is the default, as the config's own.
        open_track = SUBURBAN.parent / "open_track_20mph.json"
        argv = ["sweep", str(open_track), "--modulations", "QPSK", "--out-dir", str(tmp_path)]
        assert main(argv) == 0
        assert len(list(tmp_path.glob("*.log.jsonl"))) == 1


class TestSweepPool:
    """A sweep forks a child for each share of its points but the one it
    runs itself, and has no more shares than there are points, pieces or
    units.fork_cpus(): the CPUs this process may run on while it runs one
    thread."""

    @pytest.fixture
    def forks(self, monkeypatch):
        return counted_forks(monkeypatch)

    @pytest.mark.parametrize(
        "workers, seeds, cpus, started",
        [
            (16, [0], 8, []),
            (16, [0, 1, 2], 8, [1, 1]),
            (16, [0, 1, 2], 2, [2]),
            (2, [0, 1, 2], 8, [2]),
        ],
    )
    def test_workers_bounded(self, tmp_path, monkeypatch, forks, workers, seeds, cpus, started):
        # started: the points of each share a child runs.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        dealt, deal = [], engine._shares

        def recorded(*args):
            dealt.append(deal(*args))
            return dealt[-1]

        monkeypatch.setattr(engine, "_shares", recorded)
        scenario = load_config(SUBURBAN).scenario
        rows = run_sweep(scenario, seeds=seeds, max_workers=workers, out_dir=tmp_path)
        assert [len(share) for share in dealt[0][1:]] == started
        assert len(forks) == len(started)
        for pid in forks:
            assert_reaped(pid)
        assert [row[1].seed for row in rows] == seeds
        assert all((tmp_path / row[0]).is_file() for row in rows)

    def test_workers_bounded_by_pieces(self, tmp_path, monkeypatch, forks):
        # The 1 m/s train run holds 98% of the packets and cuts into 2 pieces,
        # the 50 m/s run into 1: a fourth worker would have no piece, so 3
        # shares, 2 of them in children. The rows come back in grid order.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
        scenario = load_config(SUBURBAN).scenario
        rows = run_sweep(
            scenario, speeds_mps=[1.0, 50.0], seeds=[1, 2], max_workers=4, out_dir=tmp_path
        )
        assert len(forks) == 2
        assert [(row[1].speed_mps, row[1].seed) for row in rows] == [
            (1.0, 1),
            (1.0, 2),
            (50.0, 1),
            (50.0, 2),
        ]
        assert [row[0][:8] for row in rows] == [f"point{i:03d}" for i in range(4)]
        assert [row[2] for row in rows] == [28002, 28002, 562, 562]

    def test_a_sweep_starts_its_children_by_fork_only(self, tmp_path, monkeypatch, forks):
        def refused(*args, **kwargs):
            raise AssertionError("a process started otherwise than by os.fork")

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refused)
        monkeypatch.setattr(subprocess, "Popen", refused)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        run_sweep(load_config(SUBURBAN).scenario, seeds=[1, 2], max_workers=2, out_dir=tmp_path)
        assert len(forks) == 1
        assert_reaped(forks[0])

    def test_one_cpu_starts_no_pool(self, tmp_path, monkeypatch, forks):
        scenario = load_config(SUBURBAN).scenario
        run_sweep(scenario, seeds=[1, 2], max_workers=1, out_dir=tmp_path / "one")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        run_sweep(scenario, seeds=[1, 2], max_workers=2, out_dir=tmp_path / "two")
        assert forks == []
        assert sweep_files(tmp_path / "two") == sweep_files(tmp_path / "one")

    def test_a_second_thread_starts_no_pool(self, tmp_path, monkeypatch, forks):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        done = threading.Event()
        thread = threading.Thread(target=done.wait)
        thread.start()
        try:
            run_sweep(load_config(SUBURBAN).scenario, seeds=[1, 2], max_workers=2, out_dir=tmp_path)
        finally:
            done.set()
            thread.join()
        assert forks == []

    def test_a_script_without_a_main_guard(self, tmp_path):
        # The script runs as on two CPUs, so a child starts. A child
        # started by spawn or forkserver (multiprocessing's default on Linux
        # from Python 3.14) would run the script again, and break.
        script = tmp_path / "script.py"
        script.write_text(
            "import os, sys\n"
            "from railwarn.config import load_config\n"
            "from railwarn.engine import run_sweep\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "scenario = load_config(sys.argv[1]).scenario\n"
            "run_sweep(scenario, seeds=[1, 2], max_workers=2, out_dir=sys.argv[2])\n"
        )
        subprocess.run(
            [sys.executable, str(script), str(SUBURBAN), str(tmp_path / "two")],
            env=railwarn_env(),
            capture_output=True,
            check=True,
        )
        run_sweep(load_config(SUBURBAN).scenario, seeds=[1, 2], out_dir=tmp_path / "one")
        summary = (tmp_path / "two" / "summary.csv").read_bytes()
        assert summary == (tmp_path / "one" / "summary.csv").read_bytes()


class TestNegativeSeeds:
    """A seed that is not a non-negative int is a config error naming where it came from."""

    def test_simulate_seed_flag(self, tmp_path, capsys):
        log_path = tmp_path / "pass.jsonl"
        code = main(["simulate", str(SUBURBAN), "--seed", "-1", "-o", str(log_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config: --seed must be a non-negative integer, got -1")
        assert not log_path.exists()

    def test_sweep_seed_point(self, tmp_path, capsys):
        out_dir = tmp_path / "sweep"
        code = main(["sweep", str(SUBURBAN), "--seeds", "1,-1", "--out-dir", str(out_dir)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config: sweep point speed_mps=")
        assert "seed=-1: seed must be a non-negative integer" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "3"])
    def test_scenario_and_run_pass_reject(self, seed):
        scenario = load_config(SUBURBAN).scenario
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            dataclasses.replace(scenario, seed=seed)
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            run_pass(scenario, seed=seed)


class TestNumericFlags:
    """Out-of-range numeric flags exit 2 naming the flag, before any log is read.

    The log path does not exist, so reading it first would exit 3.
    """

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["analyze", "--window", "0"], "--window must be > 0, got 0.0"),
            (["analyze", "--window", "-20"], "--window must be > 0, got -20.0"),
            (["analyze", "--window", "nan"], "--window must be finite, got nan"),
            (["coverage", "--window", "0"], "--window must be > 0, got 0.0"),
            (["coverage", "--threshold", "0"], "--threshold must be >= 1, got 0"),
            (
                ["safeness", "--dwarn", "-5", "--train-speed", "10mph"],
                "--dwarn must be >= 0, got -5.0",
            ),
            (
                ["safeness", "--dwarn", "300", "--train-speed", "abc"],
                "--train-speed: cannot parse 'abc'",
            ),
            (
                ["safeness", "--dwarn", "300", "--train-speed", "0"],
                "--train-speed must be > 0, got 0.0",
            ),
            (
                ["safeness", "--dwarn", "300", "--train-speed", "10mph", "--tr", "-1"],
                "--tr must be >= 0, got -1.0",
            ),
            (
                ["safeness", "--coverage-from", "LOG", "--train-speed", "10mph", "--window", "0"],
                "--window must be > 0, got 0.0",
            ),
            (
                ["safeness", "--coverage-from", "LOG", "--train-speed", "10mph", "--roads", "dry,mud"],
                "--roads must be among dry, wet, got 'mud'",
            ),
            (
                [
                    "safeness", "--coverage-from", "LOG", "--train-speed", "10mph",
                    "--vehicle-speeds", "25,70",
                ],
                "--vehicle-speeds must be within the braking table's 25-65 mph, got 70",
            ),
            (
                ["safeness", "--coverage-from", "LOG", "--train-speed", "10mph", "--roads", ""],
                "--roads must list at least one value, got ''",
            ),
            (
                ["safeness", "--dwarn", "300", "--train-speed", "10mph", "--vehicle-speeds", ","],
                "--vehicle-speeds must list at least one value, got ','",
            ),
            (
                ["safeness", "--dwarn", "300", "--train-speed", "10mph", "--window", "5"],
                "--window applies only with --coverage-from, not --dwarn",
            ),
            (
                ["safeness", "--dwarn", "300", "--train-speed", "10mph", "--threshold", "99"],
                "--threshold applies only with --coverage-from, not --dwarn",
            ),
        ],
    )
    def test_flag_rejected(self, tmp_path, capsys, argv, message):
        missing = str(tmp_path / "missing.jsonl")
        argv = [missing if arg == "LOG" else arg for arg in argv]
        if argv[0] in ("analyze", "coverage"):
            argv.insert(1, missing)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: config: {message}")
        assert captured.out == ""

    def test_valid_flags_still_run(self, tmp_path, capsys):
        log_path = tmp_path / "pass.jsonl"
        assert main(["simulate", str(SUBURBAN), "-o", str(log_path)]) == 0
        assert main(["coverage", str(log_path), "--window", "25", "--threshold", "1"]) == 0
        assert main(["safeness", "--dwarn", "0", "--train-speed", "10mph", "--ts", "0"]) == 0


class TestUnparseableFlags:
    """Every value flag of every command is parsed and checked as argparse
    reads it: a value that does not parse (for a str list, one with no items;
    for an output path, an empty one) exits 2 naming the flag before any
    config or log is read or file written.

    The log path does not exist, so reading it first would exit 3.
    """

    BASE = {
        "simulate": ["simulate", str(SUBURBAN), "-o", "x.jsonl"],
        "analyze": ["analyze", "missing.jsonl", "--out-dir", "out"],
        "coverage": ["coverage", "missing.jsonl", "--out", "out.csv"],
        "safeness": ["safeness", "--train-speed", "10mph", "--out", "out.csv"],
        "sweep": ["sweep", str(SUBURBAN), "--out-dir", "sweep"],
    }

    @pytest.mark.parametrize(
        "command, flag, text",
        [
            ("simulate", "--seed", "abc"),
            ("simulate", "-o", ""),
            ("simulate", "--output", ""),
            ("analyze", "--out-dir", ""),
            ("coverage", "--out", ""),
            ("safeness", "--out", ""),
            ("safeness", "--curves-out", ""),
            ("sweep", "--out-dir", ""),
            ("analyze", "--window", "abc"),
            ("coverage", "--window", "abc"),
            ("coverage", "--threshold", "1.5"),
            ("safeness", "--dwarn", "abc"),
            ("safeness", "--train-speed", "abc"),
            ("safeness", "--vehicle-speeds", "25,abc"),
            ("safeness", "--roads", ","),
            ("safeness", "--tr", "x"),
            ("safeness", "--ts", "x"),
            ("safeness", "--window", "abc"),
            ("safeness", "--threshold", "abc"),
            ("sweep", "--speeds", "10mph,abc"),
            ("sweep", "--powers", "abc"),
            ("sweep", "--modulations", ","),
            ("sweep", "--antennas", ","),
            ("sweep", "--seeds", "abc"),
            ("sweep", "--workers", "abc"),
        ],
    )
    def test_exits_2_naming_the_flag(self, tmp_path, monkeypatch, capsys, command, flag, text):
        monkeypatch.chdir(tmp_path)
        argv = list(self.BASE[command])
        if command == "safeness" and flag != "--dwarn":
            argv += ["--coverage-from", "missing.jsonl"]
        assert main([*argv, flag, text]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: config: {flag}")
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_integer_beyond_float_range_is_finite(self, tmp_path, capsys):
        log_path = tmp_path / "pass.jsonl"
        assert main(["simulate", str(SUBURBAN), "-o", str(log_path)]) == 0
        assert main(["coverage", str(log_path), "--threshold", "1" + "0" * 400]) == 0
        assert "warning-failure: no bin met the threshold" in capsys.readouterr().out


class TestNumericTables:
    """A CSV table row with a missing, blank, non-numeric or non-finite value
    names path:line and the column, and one with more cells than the header
    names path:line; through a config it exits 2."""

    @pytest.mark.parametrize(
        "row, message",
        [
            ("-500,500", "per must be a finite number, got no value"),
            ("-500,,0.0", "d_end_m must be a finite number, got ''"),
            ("-500,500,x", "per must be a finite number, got 'x'"),
            ("-500,500,nan", "per must be a finite number, got 'nan'"),
            ("0,350,0.0,9", "row has more cells than the header"),
        ],
    )
    def test_per_table(self, tmp_path, capsys, row, message):
        (tmp_path / "per.csv").write_text(f"d_start_m,d_end_m,per\n-600,-500,0.0\n{row}\n")
        config = {**MINIMAL, "channel": {"mode": "empirical", "per_table": "per.csv"}}
        output = tmp_path / "pass.log.jsonl"
        assert main(["simulate", str(write_config(tmp_path, config)), "-o", str(output)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config: channel.per_table: ")
        assert f"per.csv:3: {message}" in err
        assert not output.exists()

    @pytest.mark.parametrize(
        "row, message",
        [
            ("90", "gain_dbi must be a finite number, got no value"),
            ("90,", "gain_dbi must be a finite number, got ''"),
            ("ninety,3", "angle_deg must be a finite number, got 'ninety'"),
            ("90,inf", "gain_dbi must be a finite number, got 'inf'"),
            ("0,0,5", "row has more cells than the header"),
        ],
    )
    def test_antenna_cut(self, tmp_path, capsys, row, message):
        (tmp_path / "az.csv").write_text(f"angle_deg,gain_dbi\n0,9\n{row}\n")
        (tmp_path / "el.csv").write_text("angle_deg,gain_dbi\n0,9\n")
        config = {
            **MINIMAL,
            "radio": {"rx_antenna": "aimed"},
            "antennas": {"aimed": {"azimuth_csv": "az.csv", "elevation_csv": "el.csv"}},
        }
        output = tmp_path / "pass.log.jsonl"
        assert main(["simulate", str(write_config(tmp_path, config)), "-o", str(output)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config: antennas.aimed: ")
        assert f"az.csv:3: {message}" in err
        assert not output.exists()


# A CSV input: its header and six rows, where it is named in a config (None
# for a field capture), and the exit code and error prefix of a fault in it.
CSV_INPUTS = {
    "field capture": (
        "seq,tx_time_s,train_d_t_m,decoded,rx_time_s",
        [f"{k},{k * 0.05},{-120.0 + k},1,{k * 0.05 + 0.004}" for k in range(6)],
        None,
        (3, "error: runtime: "),
    ),
    "PER table": (
        "d_start_m,d_end_m,per",
        [f"{d},{d + 100},0.0" for d in range(-600, 0, 100)],
        {"channel": {"mode": "empirical", "per_table": "input.csv"}},
        (2, "error: config: channel.per_table: "),
    ),
    "antenna cut": (
        "angle_deg,gain_dbi",
        [f"{angle},9" for angle in range(0, 360, 60)],
        {
            "radio": {"rx_antenna": "aimed"},
            "antennas": {"aimed": {"azimuth_csv": "input.csv", "elevation_csv": "el.csv"}},
        },
        (2, "error: config: antennas.aimed: "),
    ),
}


def csv_fault(lines: list, fault: str) -> tuple:
    """lines (header first, as bytes) with one fault; the line number the
    error names, None for the header, and the message it starts with."""
    header = lines[0].decode()
    if fault == "header without a required column":
        lines[0] = lines[0].split(b",", 1)[1]
    elif fault == "header naming a column twice":
        lines[0] += b"," + lines[0].split(b",")[0]
    elif fault == "row with an extra cell":
        lines[2] += b",0"
        return 3, "row has more cells than the header"
    elif fault == "short row":
        lines[2] = lines[2].split(b",")[0]
        return 3, ""
    elif fault == "byte not UTF-8":
        lines[2] = b"\xff" + lines[2]
        return 3, "byte 0xff at column 1 is not UTF-8"
    else:  # one row past the bound, patched to one fewer than the rows
        return len(lines), f"more than {len(lines) - 2} rows"
    return None, f"the header must name each of {header.replace(',', ', ')} once"


class TestCsvInputs:
    """Field captures, PER tables and antenna cuts are read by one CSV reader
    (units.csv_rows) with one rule set: each fault exits with one error line
    naming path:line, or the path alone for the header, and writes nothing."""

    @pytest.mark.parametrize(
        "fault",
        [
            "header without a required column",
            "header naming a column twice",
            "row with an extra cell",
            "short row",
            "byte not UTF-8",
            "one row past the bound",
        ],
    )
    @pytest.mark.parametrize("name", list(CSV_INPUTS))
    def test_a_fault_names_its_line_and_writes_nothing(
        self, tmp_path, monkeypatch, capsys, name, fault
    ):
        header, rows, config, (code, prefix) = CSV_INPUTS[name]
        path, out = tmp_path / "input.csv", tmp_path / "out"
        lines = [line.encode() for line in (header, *rows)]
        line, message = csv_fault(lines, fault)
        path.write_bytes(b"\n".join(lines) + b"\n")
        if fault == "one row past the bound":
            monkeypatch.setattr(units, "MAX_PACKETS", len(rows))
            assert len(list(units.csv_rows(path, tuple(header.split(","))))) == len(rows)
            monkeypatch.setattr(units, "MAX_PACKETS", len(rows) - 1)
        (tmp_path / "el.csv").write_text("angle_deg,gain_dbi\n0,9\n")
        if config is None:
            argv = ["analyze", str(path), "--field-csv", "--out-dir", str(out)]
        else:
            argv = ["simulate", str(write_config(tmp_path, {**MINIMAL, **config})), "-o", str(out)]
        written = sorted(tmp_path.iterdir())
        assert main(argv) == code
        captured = capsys.readouterr()
        where = f"{path}:{line}: " if line else f"{path}: "
        assert captured.err.startswith(prefix + where + message)
        assert captured.err.count("\n") == 1 and captured.out == ""
        assert sorted(tmp_path.iterdir()) == written


class TestNotUtf8:
    """A byte that is not UTF-8 names path:line: in a config or the tables it
    names it exits 2, in a log or a field capture 3."""

    def run(self, capsys, argv, code) -> str:
        assert main(argv) == code
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        return captured.err

    def test_config(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_bytes(b'{"train":\n {"speed_mph": 10, "x\xff": 1}}\n')
        err = self.run(capsys, ["simulate", str(path), "-o", str(tmp_path / "o.log")], 2)
        assert err == f"error: config: {path}:2: byte 0xff at column 22 is not UTF-8\n"
        assert not (tmp_path / "o.log").exists()

    def test_per_table_and_antenna_cut(self, tmp_path, capsys):
        (tmp_path / "per.csv").write_bytes(b"d_start_m,d_end_m,per\n-600,600,0.0\n\xfe\n")
        config = {**MINIMAL, "channel": {"mode": "empirical", "per_table": "per.csv"}}
        argv = ["simulate", str(write_config(tmp_path, config)), "-o", str(tmp_path / "o.log")]
        err = self.run(capsys, argv, 2)
        assert err.startswith(f"error: config: channel.per_table: {tmp_path / 'per.csv'}:3: ")
        (tmp_path / "az.csv").write_bytes(b"angle_deg,gain_dbi\n0,9\n90,\xc3\n")
        (tmp_path / "el.csv").write_text("angle_deg,gain_dbi\n0,9\n")
        config = {
            **MINIMAL,
            "radio": {"rx_antenna": "aimed"},
            "antennas": {"aimed": {"azimuth_csv": "az.csv", "elevation_csv": "el.csv"}},
        }
        argv = ["simulate", str(write_config(tmp_path, config)), "-o", str(tmp_path / "o.log")]
        err = self.run(capsys, argv, 2)
        assert err.startswith(f"error: config: antennas.aimed: {tmp_path / 'az.csv'}:3: ")

    def test_log_and_field_capture(self, tmp_path, capsys):
        path = tmp_path / "pass.log.jsonl"
        assert main(["simulate", str(SUBURBAN), "-o", str(path)]) == 0
        # Line 5001 lies past the reader's first batch of lines.
        lines = path.read_bytes().split(b"\n")
        lines[5000] = lines[5000][:20] + b"\xff" + lines[5000][20:]
        path.write_bytes(b"\n".join(lines))
        capsys.readouterr()
        for argv in (["coverage"], ["analyze", "--out-dir", str(tmp_path / "out")]):
            err = self.run(capsys, [*argv, str(path)], 3)
            assert err == f"error: runtime: {path}:5001: byte 0xff at column 21 is not UTF-8\n"
        capture = tmp_path / "capture.csv"
        capture.write_bytes(b"seq,tx_time_s,train_d_t_m,decoded,rx_time_s\n0,0.0,-1\xff20,0,\n")
        err = self.run(capsys, ["coverage", str(capture), "--field-csv"], 3)
        assert err.startswith(f"error: runtime: {capture}:2: byte 0xff ")

    def test_lines_end_as_the_log_reader_ends_them(self, tmp_path, capsys):
        config = tmp_path / "long.json"
        config.write_text(long_config())
        path = tmp_path / "long.log.jsonl"
        assert main(["simulate", str(config), "-o", str(path)]) == 0
        lines = path.read_bytes().split(b"\n")
        # A lone "\r" opening line 11 ends a line, so the 21st "\n"-line is line 22.
        lines[10] = b"\r" + lines[10]
        for line in (b"\xff" + lines[20], b'{"type": "bogus"}'):
            path.write_bytes(b"\n".join([*lines[:20], line, *lines[21:]]))
            capsys.readouterr()
            err = self.run(capsys, ["coverage", str(path)], 3)
            assert err.startswith(f"error: runtime: {path}:22: ")


class TestLibraryMatchesCli:
    """A log carries its scenario's analysis settings whoever writes it."""

    @pytest.mark.parametrize("seed", [None, 1])
    @pytest.mark.parametrize("name", ["open_track_20mph.json", "suburban_rsu_10mph.json"])
    def test_same_log_bytes(self, tmp_path, name, seed):
        config = SUBURBAN.parent / name
        log_path = tmp_path / "cli.log.jsonl"
        argv = ["simulate", str(config), "-o", str(log_path)]
        assert main(argv + ([] if seed is None else ["--seed", str(seed)])) == 0
        assert log_path.read_bytes() == log_bytes(run_pass(load_config(config).scenario, seed))

    def test_coverage_of_a_library_log_reads_its_own_window(self, tmp_path, capsys):
        log_path = tmp_path / "library.log.jsonl"
        write_log(run_pass(load_config(SUBURBAN).scenario), log_path)
        assert main(["coverage", str(log_path)]) == 0
        assert "aggregate: warning range 360 m (threshold 5 per 20 m bin)" in capsys.readouterr().out


GRID = ["--speeds", "20mph,40mph", "--powers", "11,23", "--seeds", "1,2"]
REVERSED_GRID = ["--speeds", "40mph,20mph", "--powers", "23,11", "--seeds", "2,1"]


def sweep_argv(out_dir, grid=GRID, workers=1):
    return ["sweep", str(SUBURBAN), *grid, "--workers", str(workers), "--out-dir", str(out_dir)]


def sweep_files(out_dir) -> dict:
    """Every file a sweep wrote, by name."""
    return {path.name: path.read_bytes() for path in sorted(Path(out_dir).iterdir())}


def by_point(out_dir) -> dict:
    """Each summary row's point -> its other columns and its log's bytes."""
    with open(Path(out_dir) / "summary.csv", newline="") as handle:
        rows = list(csv.reader(handle))[1:]
    return {tuple(row[1:6]): (row[6:], (Path(out_dir) / row[0]).read_bytes()) for row in rows}


class TestSweepWorkers:
    """Each pass's process writes its log and returns one summary row; the
    outputs do not depend on the worker count, a start method the program
    sets, or grid order."""

    def test_outputs_independent_of_workers_and_grid_order(self, tmp_path, capsys):
        assert main(sweep_argv(tmp_path / "one")) == 0
        assert main(sweep_argv(tmp_path / "two", workers=2)) == 0
        assert main(sweep_argv(tmp_path / "reversed", grid=REVERSED_GRID)) == 0
        one = sweep_files(tmp_path / "one")
        assert len(one) == 9
        assert sweep_files(tmp_path / "two") == one
        assert by_point(tmp_path / "reversed") == by_point(tmp_path / "one")

    def test_spawned_workers_match_one_worker(self, tmp_path):
        # A program that sets spawn still gets the sweep's forked children.
        program = (
            "import multiprocessing, sys; multiprocessing.set_start_method('spawn'); "
            "from railwarn.cli import main; sys.exit(main(sys.argv[1:]))"
        )
        subprocess.run(
            [sys.executable, "-c", program, *sweep_argv(tmp_path / "spawn", workers=2)],
            env=railwarn_env(),
            capture_output=True,
            check=True,
        )
        assert main(sweep_argv(tmp_path / "one")) == 0
        assert sweep_files(tmp_path / "spawn") == sweep_files(tmp_path / "one")

    def test_job_writes_and_analyses_each_log_once(self, tmp_path, monkeypatch, capsys):
        calls = {"write_log": [], "coverage_report": []}
        for module, name in ((logio, "write_log"), (analysis, "coverage_report")):
            original = getattr(module, name)

            def counted(*args, _original=original, _calls=calls[name]):
                _calls.append(args)
                return _original(*args)

            monkeypatch.setattr(module, name, counted)
        out_dir = tmp_path / "sweep"
        assert main(sweep_argv(out_dir)) == 0
        logs = sorted(path.name for path in out_dir.glob("*.log.jsonl"))
        assert sorted(Path(args[1]).name for args in calls["write_log"]) == logs
        assert len(logs) == len(calls["coverage_report"]) == 8

    def test_one_worker_formats_each_train_run_once(self, tmp_path, monkeypatch):
        # The benchmark's sweep_grid grid: 3 train runs of 8 points, each
        # point a two-receiver pass that shares its tick text.
        calls = []
        original = logio._tick_text

        def counted(packets):
            calls.append(len(packets))
            return original(packets)

        monkeypatch.setattr(logio, "_tick_text", counted)
        rows = run_sweep(
            load_config(SUBURBAN).scenario,
            speeds_mps=[parse_speed(s) for s in ("10mph", "20mph", "40mph")],
            powers_dbm=[11.0, 23.0],
            modulations=["QPSK", "16QAM"],
            antennas=["omni12", "bidir23"],
            max_workers=1,
            out_dir=tmp_path,
        )
        # Speed is the grid's outer axis: rows 0, 8 and 16 start the train runs.
        assert len(rows) == 24
        assert calls == [row[2] // 2 for row in rows[::8]]

    def test_one_worker_formats_each_head_once_per_train_run_and_seed(
        self, tmp_path, monkeypatch
    ):
        # The benchmark's sweep_grid grid at two seeds: a row's head is
        # formatted once for all points of its train run and seed that decode it.
        formatted = []
        original = logio._heads

        def counted(*args):
            heads = original(*args)
            formatted.append(len(heads))
            return heads

        monkeypatch.setattr(logio, "_heads", counted)
        rows = run_sweep(
            load_config(SUBURBAN).scenario,
            speeds_mps=[parse_speed(s) for s in ("10mph", "20mph", "40mph")],
            powers_dbm=[11.0, 23.0],
            modulations=["QPSK", "16QAM"],
            antennas=["omni12", "bidir23"],
            seeds=[1, 2],
            max_workers=1,
            out_dir=tmp_path,
        )
        decoded: dict = {}  # (speed, seed, receiver id) -> rows decoded in any of its logs
        for name, point, *_ in rows:
            for rid, packets in read_log(tmp_path / name).records.items():
                key = (point.speed_mps, point.seed, rid)
                decoded.setdefault(key, set()).update(np.flatnonzero(packets.decoded).tolist())
        assert len(decoded) == 12
        assert sum(formatted) == sum(map(len, decoded.values()))
        # Without the holder, each log formats all its decoded rows' heads.
        assert sum(formatted) < sum(row[3] for row in rows) / 4

    @pytest.mark.parametrize("workers", [1, 2])
    def test_unwritable_log_exits_3(self, tmp_path, capsys, workers):
        # A failed sweep deletes the logs it wrote and the summary of an
        # earlier sweep in the directory; the directory at a log's name stays.
        out_dir = tmp_path / "sweep"
        assert main(sweep_argv(out_dir, grid=["--speeds", "30mph"])) == 0
        assert (out_dir / "summary.csv").is_file()
        for path in out_dir.glob("*.log.jsonl"):
            path.unlink()
        blocked = out_dir / "point001_v8.9408_p23_QPSK_omni12_s1.log.jsonl"
        blocked.mkdir()
        grid = ["--speeds", "10mph,20mph,40mph", "--seeds", "1"]
        capsys.readouterr()
        assert main(sweep_argv(out_dir, grid=grid, workers=workers)) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("error: runtime: ")
        assert str(blocked) in captured.err
        assert ".tmp" not in captured.err
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert sorted(path.name for path in out_dir.iterdir()) == [blocked.name]
        assert blocked.is_dir()

    def test_invalid_grid_leaves_the_directory_alone(self, tmp_path, capsys):
        out_dir = tmp_path / "sweep"
        assert main(sweep_argv(out_dir, grid=["--speeds", "30mph"])) == 0
        before = sweep_files(out_dir)
        assert main(sweep_argv(out_dir, grid=["--speeds", "30mph,0.001"])) == 2
        assert capsys.readouterr().err.startswith("error: config: sweep point speed_mps=0.001")
        assert sweep_files(out_dir) == before


def simulate(**sections):
    """The argv of a simulate of MINIMAL with these config sections added."""

    def argv(tmp_path) -> list:
        config = write_config(tmp_path, {**MINIMAL, **sections})
        return ["simulate", str(config), "-o", str(tmp_path / "p.log.jsonl")]

    return argv


def coverage_of_a_string_tx_time(tmp_path) -> list:
    """The argv of a coverage of MINIMAL's log, its first packet line's tx_time_s "0.2"."""
    log = tmp_path / "p.log.jsonl"
    assert main(["simulate", str(write_config(tmp_path, MINIMAL)), "-o", str(log)]) == 0
    header, packet, *rest = log.read_text().splitlines(keepends=True)
    packet = json.dumps({**json.loads(packet), "tx_time_s": "0.2"}) + "\n"
    log.write_text("".join([header, packet, *rest]))
    return ["coverage", str(log)]


OBSTRUCTION = {"d_start_m": -100, "d_end_m": -50, "excess_loss_db": 10}


@pytest.mark.parametrize(
    "argv, code, line",
    [
        pytest.param(
            simulate(scene={"obstructions": [{"d_start_m": -100, "d_end_m": -50}]}),
            2,
            "config: scene.obstructions[0]: missing required key(s) ['excess_loss_db']",
            id="obstruction without a loss",
        ),
        pytest.param(
            simulate(channel={"mode": "magic"}),
            2,
            "config: channel.mode: must be 'empirical' or 'synthetic', got 'magic'",
            id="channel mode",
        ),
        pytest.param(
            simulate(antennas={"half": {"azimuth_csv": "az.csv"}}),
            2,
            "config: antennas.half: both azimuth_csv and elevation_csv are required",
            id="antenna with one cut path",
        ),
        pytest.param(
            simulate(antennas={"bare": {"peak_gain_dbi": 3.0}}),
            2,
            "config: antennas.bare: need azimuth_csv/elevation_csv paths "
            "or inline azimuth/elevation tables",
            id="antenna without a cut",
        ),
        pytest.param(
            lambda tmp_path: ["simulate", str(tmp_path / "none.json")],
            2,
            "config: cannot read config: [Errno 2] No such file or directory: '{tmp}/none.json'",
            id="config path",
        ),
        pytest.param(
            simulate(radio={"tx_period_ms": 0}),
            2,
            "config: radio: transmit period must be positive",
            id="transmit period",
        ),
        pytest.param(
            simulate(radio={"center_frequency_hz": -1}),
            2,
            "config: radio: center frequency must be positive",
            id="center frequency",
        ),
        pytest.param(
            simulate(channel={"mode": "empirical", "bins": []}),
            2,
            "config: channel: PER profile must have at least one bin",
            id="empirical bins",
        ),
        pytest.param(
            simulate(channel={"shadowing_sigma_db": -1}),
            2,
            "config: channel: shadowing sigma must be >= 0",
            id="shadowing sigma",
        ),
        pytest.param(
            simulate(channel={"transition_width_db": 0}),
            2,
            "config: channel: transition width must be positive",
            id="transition width",
        ),
        pytest.param(
            simulate(scene={"obstructions": [{**OBSTRUCTION, "gap_width_m": -1}]}),
            2,
            "config: scene.obstructions[0]: gap geometry must be >= 0",
            id="gap width",
        ),
        pytest.param(
            simulate(scene={"receivers": [{"kind": "XYZ"}]}),
            2,
            "config: scene.receivers[0]: placement kind must be RSU or OBU, got 'XYZ'",
            id="receiver kind",
        ),
        pytest.param(
            simulate(scene={"receivers": [{"height_m": 0}]}),
            2,
            "config: scene.receivers[0]: receiver height must be positive",
            id="receiver height",
        ),
        pytest.param(
            coverage_of_a_string_tx_time,
            3,
            "runtime: {tmp}/p.log.jsonl:2: tx_time_s must be a number, got '0.2'",
            id="packet time as a string",
        ),
    ],
)
def test_each_error_exits_with_its_code_and_one_line(tmp_path, capsys, argv, code, line):
    argv = argv(tmp_path)
    capsys.readouterr()
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.err == f"error: {line}\n".replace("{tmp}", str(tmp_path))
    assert captured.out == ""
    if code == 2:
        assert not (tmp_path / "p.log.jsonl").exists()
