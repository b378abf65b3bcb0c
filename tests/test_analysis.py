import dataclasses
import math

import numpy as np
import pytest
from scalar_reference import PacketRecord, columns_from_records

from railwarn.analysis import (
    CoverageReport,
    bin_per,
    coverage_report,
    extract_dwarn,
    latency_stats,
    safeness_report,
)
from railwarn.engine import Scenario, TrainRun, run_pass
from railwarn.logio import SimLog
from railwarn.geometry import CrossingScene, Placement
from railwarn.link import LatencyModel, PerProfile, RadioConfig
from railwarn.protocol import TriggerPolicy
from railwarn.safety import braking_time
from railwarn.units import mph_to_mps

RSU = Placement(id="rsu0", kind="RSU", offset_from_crossing_m=5.0, height_m=3.0)
OBU = Placement(id="obu0", kind="OBU", offset_from_crossing_m=42.0, height_m=1.7)


def synthetic_log(decodes_by_position, receivers=(RSU,), latency_s=0.004):
    """Hand-built log: decodes_by_position maps receiver_id to a list of
    (train_d_t_m, decoded) in transmit order at 50 ms spacing."""
    records = {}
    for placement in receivers:
        rows = []
        for seq, (position, decoded) in enumerate(decodes_by_position[placement.id]):
            tx_time = seq * 0.05
            rows.append(
                PacketRecord(
                    seq=seq,
                    tx_time_s=tx_time,
                    train_d_t_m=position,
                    receiver_id=placement.id,
                    decoded=decoded,
                    rx_time_s=tx_time + latency_s if decoded else None,
                )
            )
        records[placement.id] = rows
    any_rows = next(iter(records.values()))
    records = {rid: columns_from_records(rows, rid) for rid, rows in records.items()}
    return SimLog(
        digest="test",
        seed=0,
        train_speed_mps=None,
        tx_period_s=0.05,
        start_d_t_m=min(r.train_d_t_m for r in any_rows),
        end_d_t_m=max(r.train_d_t_m for r in any_rows),
        duration_s=any_rows[-1].tx_time_s,
        receivers=tuple(receivers),
        records=records,
        events=[],
    )


def uniform_positions(start, stop, step):
    count = int(round((stop - start) / step))
    return [start + i * step for i in range(count)]


def step_per_log(per_by_bin, width=50.0, packets_per_bin=20, receiver=RSU):
    """Log whose decode pattern follows a step PER profile exactly:
    per_by_bin maps bin index i (covering [i*w, (i+1)*w)) to a PER value;
    decodes are laid out deterministically to hit the PER exactly."""
    rows = []
    for index in sorted(per_by_bin):
        per = per_by_bin[index]
        failures = round(per * packets_per_bin)
        for j in range(packets_per_bin):
            position = index * width + (j + 0.5) * width / packets_per_bin
            rows.append((position, j >= failures))
    return synthetic_log({receiver.id: rows}, receivers=(receiver,))


class TestBinPer:
    def test_all_decoded_gives_zero_per(self):
        positions = uniform_positions(-100.0, 100.0, 2.5)
        log = synthetic_log({"rsu0": [(p, True) for p in positions]})
        series = bin_per(log, 50.0)
        assert all(b.per == 0.0 for b in series.bins)
        assert all(b.transmitted == b.received for b in series.bins)

    def test_nominal_20m_window_count(self):
        # 94 transmitted, 94 received in one 20 m bin.
        positions = [(-20.0 + 20.0 * j / 94, True) for j in range(94)]
        log = synthetic_log({"rsu0": positions})
        series = bin_per(log, 20.0)
        assert len(series.bins) == 1
        assert series.bins[0].transmitted == 94
        assert series.bins[0].received == 94
        assert series.bins[0].per == 0.0

    def test_simple_arithmetic(self):
        rows = [(-10.0 + 0.09 * j, j < 90) for j in range(100)]
        log = synthetic_log({"rsu0": rows})
        series = bin_per(log, 50.0)
        assert series.bins[0].transmitted == 100
        assert series.bins[0].received == 90
        assert series.bins[0].per == pytest.approx(0.10)

    def test_bin_edges_anchor_at_crossing(self):
        log = synthetic_log({"rsu0": [(-0.01, True), (0.01, True)]})
        series = bin_per(log, 50.0)
        centers = [b.d_center_m for b in series.bins]
        assert centers == [-25.0, 25.0]

    def test_per_count_duality(self):
        rng = np.random.default_rng(5)
        rows = [(-300.0 + 0.6 * j, bool(rng.random() < 0.7)) for j in range(1000)]
        log = synthetic_log({"rsu0": rows})
        for b in bin_per(log, 50.0).bins:
            assert b.per == (b.transmitted - b.received) / b.transmitted

    def test_empty_log_rejected(self):
        log = synthetic_log({"rsu0": [(-10.0, True)]})
        log.records["rsu0"] = columns_from_records([], "rsu0")
        with pytest.raises(ValueError, match="empty"):
            bin_per(log, 50.0)

    def test_multi_receiver_requires_explicit_id(self):
        log = synthetic_log(
            {"rsu0": [(-10.0, True)], "obu0": [(-10.0, False)]}, receivers=(RSU, OBU)
        )
        with pytest.raises(ValueError, match="receiver_id"):
            bin_per(log, 50.0)
        assert bin_per(log, 50.0, "rsu0").bins[0].received == 1
        assert bin_per(log, 50.0, "obu0").bins[0].received == 0


class TestExtractDwarn:
    def test_open_profile_full_coverage(self):
        # PER 0 out to -500 m at 20 mph packet counts.
        log = step_per_log({i: 0.0 for i in range(-10, 0)}, packets_per_bin=112)
        report = extract_dwarn(bin_per(log, 50.0), threshold=5)
        assert report.warning_range_m == 500.0
        assert report.farthest_qualifying_m == 500.0
        assert report.contiguous
        assert not report.warning_failure

    def test_79mph_profile_450m(self):
        log = step_per_log({i: 0.0 for i in range(-9, 0)}, packets_per_bin=28)
        report = extract_dwarn(bin_per(log, 50.0), threshold=5)
        assert report.warning_range_m == 450.0

    def test_shadowing_split_contiguous_vs_farthest(self):
        # Dead from -450 to -250 except one clear bin at [-350, -300).
        per = {i: 0.0 for i in range(-5, 0)}
        per.update({-6: 1.0, -7: 0.0, -8: 1.0, -9: 1.0})
        log = step_per_log(per, packets_per_bin=40)
        report = extract_dwarn(bin_per(log, 50.0), threshold=5)
        assert report.warning_range_m == 250.0
        assert report.farthest_qualifying_m == 350.0
        assert not report.contiguous
        assert not report.warning_failure

    def test_nothing_meets_threshold(self):
        log = step_per_log({-1: 1.0, -2: 1.0}, packets_per_bin=10)
        report = extract_dwarn(bin_per(log, 50.0), threshold=5)
        assert report.warning_range_m == 0.0
        assert report.warning_failure

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(17)
        per = {i: float(rng.choice([0.0, 0.2, 0.6, 1.0])) for i in range(-12, 0)}
        log = step_per_log(per, packets_per_bin=30)
        series = bin_per(log, 50.0)
        ranges = [extract_dwarn(series, k).warning_range_m for k in (1, 5, 10, 20, 29)]
        assert ranges == sorted(ranges, reverse=True)

    def test_window_refinement_bound(self):
        # Halving the window must not extend contiguous coverage by more
        # than one coarse window.
        rng = np.random.default_rng(23)
        for _ in range(10):
            rows = [
                (-600.0 + 1.2 * j, bool(rng.random() < 0.8)) for j in range(1000)
            ]
            log = synthetic_log({"rsu0": rows})
            coarse = extract_dwarn(bin_per(log, 50.0), threshold=5).warning_range_m
            fine = extract_dwarn(bin_per(log, 25.0), threshold=5).warning_range_m
            assert fine <= coarse + 50.0

    def test_coverage_report_aggregates_worst_receiver(self):
        rows_good = [(-500.0 + 1.0 * j, True) for j in range(520)]
        rows_poor = [(-500.0 + 1.0 * j, j >= 300) for j in range(520)]
        log = synthetic_log({"rsu0": rows_good, "obu0": rows_poor}, receivers=(RSU, OBU))
        report = coverage_report(log, 50.0, threshold=5)
        assert report.per_receiver["rsu0"].warning_range_m == 500.0
        assert report.per_receiver["obu0"].warning_range_m == 200.0
        assert report.warning_range_m == 200.0

    def test_coverage_report_defaults_to_the_log_settings(self):
        rows = [(-500.0 + 1.0 * j, j % 4 != 0) for j in range(520)]
        log = dataclasses.replace(
            synthetic_log({"rsu0": rows}), analysis_window_m=20.0, coverage_threshold=12
        )
        report = coverage_report(log)
        assert (report.window_width_m, report.threshold_used) == (20.0, 12)
        assert report == coverage_report(log, 20.0, 12)
        assert bin_per(log) == bin_per(log, 20.0)


class TestLatencyStats:
    def test_constant_model(self):
        rows = [(-10.0 + 0.1 * j, True) for j in range(100)]
        log = synthetic_log({"rsu0": rows}, latency_s=0.004)
        stats = latency_stats(log)
        assert stats.count == 100
        for value in (stats.mean_s, stats.p50_s, stats.max_s):
            assert value == pytest.approx(0.004, rel=1e-12)
        assert stats.fraction_below_5ms == 1.0
        assert stats.fraction_below_period == 1.0

    def test_percentile_ordering(self):
        rng = np.random.default_rng(29)
        records = []
        for seq in range(500):
            latency = float(rng.uniform(0.003, 0.0075))
            records.append(
                PacketRecord(
                    seq=seq,
                    tx_time_s=seq * 0.05,
                    train_d_t_m=-100.0 + seq * 0.1,
                    receiver_id="rsu0",
                    decoded=True,
                    rx_time_s=seq * 0.05 + latency,
                )
            )
        log = SimLog(
            digest="t",
            seed=0,
            train_speed_mps=None,
            tx_period_s=0.05,
            start_d_t_m=-100.0,
            end_d_t_m=0.0,
            duration_s=25.0,
            receivers=(RSU,),
            records={"rsu0": columns_from_records(records, "rsu0")},
            events=[],
        )
        stats = latency_stats(log)
        assert stats.p50_s <= stats.p95_s <= stats.max_s
        assert 0.0 < stats.fraction_below_5ms < 1.0
        assert stats.max_s <= 0.0075

    def test_no_decodes_is_an_error(self):
        rows = [(-10.0, False), (-9.0, False)]
        log = synthetic_log({"rsu0": rows})
        with pytest.raises(ValueError, match="no decoded"):
            latency_stats(log)


class TestSafenessReport:
    def test_indirect_band(self):
        report = safeness_report(200.0, mph_to_mps(10))
        band = report.protection_band_s()
        assert band is not None
        low, high = band
        assert 34.0 <= low <= high <= 39.0
        assert len(report.rows) == 10

    def test_protection_matches_formula_exactly(self):
        train_speed = mph_to_mps(10)
        report = safeness_report(200.0, train_speed)
        for row in report.rows:
            expected = 200.0 / train_speed - 3.5 - 0.005 - braking_time(
                row.vehicle_speed_mph, row.road
            )
            assert abs(row.protection_s - expected) < 1e-9

    def test_train_speed_sensitivity(self):
        # Fastest protection for the 25 mph dry vehicle at a 200 m range.
        best = {}
        for mph in (10, 25, 35):
            report = safeness_report(200.0, mph_to_mps(mph), roads=("dry",))
            best[mph] = max(row.protection_s for row in report.rows)
        assert best[10] == pytest.approx(38.9, abs=0.1)
        assert best[25] == pytest.approx(12.1, abs=0.1)
        assert best[35] == pytest.approx(7.0, abs=0.1)
        assert best[10] > best[25] > best[35]

    def test_zero_range_flags_failure_everywhere(self):
        report = safeness_report(0.0, mph_to_mps(10))
        assert all(row.system_failed for row in report.rows)
        assert report.protection_band_s() is None

    def test_accepts_coverage_report(self):
        coverage = CoverageReport(
            warning_range_m=200.0,
            threshold_used=5,
            window_width_m=50.0,
            contiguous=True,
            farthest_qualifying_m=200.0,
            warning_failure=False,
        )
        report = safeness_report(coverage, mph_to_mps(10))
        assert report.warning_range_m == 200.0

    def test_crossing_distances_reported(self):
        train_speed = mph_to_mps(10)
        report = safeness_report(200.0, train_speed, vehicle_speeds_mph=(25.0,), roads=("dry",))
        row = report.rows[0]
        assert row.one_cross_distance_m == 200.0
        assert row.zero_cross_distance_m == pytest.approx(
            train_speed * (3.5 + 0.005 + row.braking_s), rel=1e-12
        )


class TestEndToEndRoundTrip:
    def test_simulated_log_recovers_profile(self):
        profile = PerProfile(
            bins=(
                (-200.0, -100.0, 0.6),
                (-100.0, 0.0, 0.1),
                (0.0, 100.0, 0.0),
                (100.0, 200.0, 1.0),
            )
        )
        scenario = Scenario(
            scene=CrossingScene(receivers=(RSU,)),
            radio=RadioConfig(),
            channel=profile,
            latency=LatencyModel(),
            train=TrainRun(speed_mps=1.0, start_d_t_m=-200.0, end_d_t_m=200.0),
            policy=TriggerPolicy(),
            seed=31,
        )
        log = run_pass(scenario)
        series = bin_per(log, 100.0)
        by_center = {b.d_center_m: b for b in series.bins}
        for (start, _end, per) in profile.bins:
            b = by_center[start + 50.0]
            margin = 2.576 * math.sqrt(per * (1 - per) / b.transmitted)
            assert abs(b.per - per) <= margin

    def test_protocol_trigger_within_link_coverage(self):
        profile = PerProfile(bins=((-500.0, 500.0, 0.0),))
        scenario = Scenario(
            scene=CrossingScene(receivers=(RSU,)),
            radio=RadioConfig(),
            channel=profile,
            latency=LatencyModel(),
            train=TrainRun(speed_mps=mph_to_mps(20), start_d_t_m=-600.0, end_d_t_m=300.0),
            policy=TriggerPolicy(reliability_threshold=5, trigger_distance_m=600.0),
            seed=3,
        )
        log = run_pass(scenario)
        report = extract_dwarn(bin_per(log, 50.0), threshold=5)
        assert log.events
        trigger_distance = -log.events[0].train_d_t_at_trigger_m
        assert trigger_distance <= report.farthest_qualifying_m
