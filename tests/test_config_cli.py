import dataclasses
import json
import math
import tracemalloc
from pathlib import Path

import pytest

from railwarn.cli import main
from railwarn.config import (
    AnalysisDefaults,
    ConfigError,
    load_scenario,
    write_scenario,
)
from railwarn.engine import MAX_TICKS, TrainRun, run_pass
from railwarn.link import PerProfile, RadioConfig, SyntheticChannel
from railwarn.logio import log_bytes, read_field_log, read_log, write_log
from railwarn.protocol import TriggerPolicy
from railwarn.units import parse_speed


def write_config(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


MINIMAL = {"train": {"speed_mph": 10}}


class TestConfigLoading:
    def test_minimal_config_gets_standard_defaults(self, tmp_path):
        scenario = load_scenario(write_config(tmp_path, MINIMAL))
        assert scenario.radio.center_frequency_hz == 5.87e9
        assert scenario.radio.channel_number == 174
        assert scenario.radio.packet_size_bytes == 99
        assert scenario.radio.tx_period_ms == 50.0
        assert scenario.radio.tx_power_dbm == 23.0
        assert scenario.radio.modulation == "QPSK"
        assert scenario.train.speed_mps == pytest.approx(4.4704)
        assert isinstance(scenario.channel, SyntheticChannel)

    def test_power_outside_option_set(self, tmp_path):
        path = write_config(tmp_path, {**MINIMAL, "radio": {"tx_power_dbm": 30}})
        with pytest.raises(ConfigError, match="tx_power_dbm"):
            load_scenario(path)

    def test_unknown_keys_rejected(self, tmp_path):
        path = write_config(tmp_path, {**MINIMAL, "radio": {"tx_powerr_dbm": 23}})
        with pytest.raises(ConfigError, match="tx_powerr_dbm"):
            load_scenario(path)
        path = write_config(tmp_path, {**MINIMAL, "extra_section": {}})
        with pytest.raises(ConfigError, match="extra_section"):
            load_scenario(path)

    def test_empirical_requires_table(self, tmp_path):
        path = write_config(tmp_path, {**MINIMAL, "channel": {"mode": "empirical"}})
        with pytest.raises(ConfigError, match="per_table or inline bins"):
            load_scenario(path)

    def test_missing_speed_rejected(self, tmp_path):
        path = write_config(tmp_path, {"train": {"start_d_t_m": -100}})
        with pytest.raises(ConfigError, match="speed"):
            load_scenario(path)

    def test_both_speeds_rejected(self, tmp_path):
        path = write_config(tmp_path, {"train": {"speed_mph": 10, "speed_mps": 4.47}})
        with pytest.raises(ConfigError, match="not both"):
            load_scenario(path)

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"train": {"speed_mph": 10},}')
        with pytest.raises(ConfigError, match="parse error"):
            load_scenario(path)

    def test_per_table_relative_to_config(self, tmp_path):
        (tmp_path / "per.csv").write_text("d_start_m,d_end_m,per\n-500,500,0.0\n")
        path = write_config(
            tmp_path,
            {**MINIMAL, "channel": {"mode": "empirical", "per_table": "per.csv"}},
        )
        scenario = load_scenario(path)
        assert isinstance(scenario.channel, PerProfile)
        assert scenario.channel.per_at(-100.0) == 0.0

    def test_missing_per_table_reports_key(self, tmp_path):
        path = write_config(
            tmp_path,
            {**MINIMAL, "channel": {"mode": "empirical", "per_table": "nope.csv"}},
        )
        with pytest.raises(ConfigError, match="per_table"):
            load_scenario(path)

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
        scenario = load_scenario(write_config(tmp_path, config))
        assert scenario.resolve_pattern("custom").peak_gain_dbi == 9.0

    def test_antenna_csv_files(self, tmp_path):
        (tmp_path / "az.csv").write_text("angle_deg,gain_dbi\n0,9\n180,3\n")
        (tmp_path / "el.csv").write_text("angle_deg,gain_dbi\n-90,-5\n0,9\n90,-5\n")
        config = {
            **MINIMAL,
            "radio": {"rx_antenna": "aimed"},
            "antennas": {"aimed": {"azimuth_csv": "az.csv", "elevation_csv": "el.csv"}},
        }
        scenario = load_scenario(write_config(tmp_path, config))
        assert scenario.resolve_pattern("aimed").peak_gain_dbi == 9.0

    def test_unresolvable_antenna_name(self, tmp_path):
        path = write_config(tmp_path, {**MINIMAL, "radio": {"tx_antenna": "ghost"}})
        with pytest.raises(ConfigError, match="ghost"):
            load_scenario(path)


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
                "obstructions": [
                    {
                        "d_start_m": -400,
                        "d_end_m": -150,
                        "excess_loss_db": 30,
                        "gap_width_m": 2,
                        "gap_period_m": 12,
                    }
                ],
            },
            "channel": {
                "mode": "empirical",
                "bins": [[-500, 0, 0.0], [0, 350, 0.25]],
                "out_of_range": "zero",
            },
        }
        scenario = load_scenario(write_config(tmp_path, source))
        out = tmp_path / "rewritten.json"
        write_scenario(scenario, out)
        assert load_scenario(out) == scenario

    def test_synthetic_round_trip(self, tmp_path):
        source = {
            **MINIMAL,
            "channel": {"mode": "synthetic", "path_loss_exponent": 2.9, "shadowing_sigma_db": 3},
        }
        scenario = load_scenario(write_config(tmp_path, source))
        out = tmp_path / "rewritten.json"
        write_scenario(scenario, out, AnalysisDefaults(window_width_m=20.0))
        assert load_scenario(out) == scenario

    def test_log_round_trip_bit_exact(self, tmp_path):
        scenario = load_scenario(write_config(tmp_path, MINIMAL))
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
        records = log.records["field"]
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
        assert main(["analyze", str(log_path)]) == 3
        assert "empty log" in capsys.readouterr().err

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
                "--powers",
                "11,23",
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


SUBURBAN = Path(__file__).resolve().parent.parent / "configs" / "suburban_rsu_10mph.json"


def suburban_with(tmp_path, section, key, value):
    data = json.loads(SUBURBAN.read_text())
    data[section][key] = value
    if section == "train" and key == "speed_mps":
        del data["train"]["speed_mph"]
    return write_config(tmp_path, data)


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
        scenario = load_scenario(SUBURBAN)
        slow = dataclasses.replace(train, speed_mps=1000.0 / (MAX_TICKS * period_s))
        with pytest.raises(ValueError, match="transmit ticks"):
            dataclasses.replace(scenario, train=slow)
        dataclasses.replace(scenario, train=train)
