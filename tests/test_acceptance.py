"""Acceptance suite: one test per release criterion, stated tolerances only.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion (a failed assertion marks the criterion failed).
"""

import math

import numpy as np
import pytest

from railwarn.analysis import bin_per, extract_dwarn, latency_stats, safeness_report
from railwarn.engine import Scenario, TrainRun, run_pass, run_sweep
from railwarn.geometry import CrossingScene, Placement
from railwarn.link import LatencyModel, PerProfile, RadioConfig, SyntheticChannel, latency_sample
from railwarn.logio import log_bytes
from railwarn.protocol import TriggerPolicy
from railwarn.safety import (
    braking_time,
    minimum_required_range,
    safeness_level,
    time_to_avoid_collision,
)
from railwarn.units import SPEED_OF_LIGHT_MPS, mph_to_mps

RSU = Placement(id="rsu0", kind="RSU", offset_from_crossing_m=5.0, height_m=3.0)

# Published figures the pipeline is checked against.
PUBLISHED_TB = {
    (25, "dry"): 2.3,
    (35, "dry"): 2.66,
    (45, "dry"): 2.96,
    (55, "dry"): 3.27,
    (65, "dry"): 3.57,
    (25, "wet"): 4.62,
    (35, "wet"): 5.32,
    (45, "wet"): 5.91,
    (55, "wet"): 6.52,
    (65, "wet"): 7.15,
}
PUBLISHED_WINDOW_COUNTS = {20: 118, 50: 47, 79: 29}  # 50 m windows
PUBLISHED_20M_COUNT = 94  # 10 mph, 20 m window


def open_scenario(speed_mph: float, coverage_m: float = 500.0, **overrides) -> Scenario:
    """Pass with an ideal step profile: PER 0 inside coverage, dead outside."""
    profile = PerProfile(
        bins=((-coverage_m, 0.0, 0.0), (0.0, 350.0, 0.0)), out_of_range="zero"
    )
    defaults = dict(
        scene=CrossingScene(receivers=(RSU,)),
        radio=RadioConfig(),
        channel=profile,
        latency=LatencyModel(),
        train=TrainRun(speed_mps=mph_to_mps(speed_mph), start_d_t_m=-600.0, end_d_t_m=400.0),
        policy=TriggerPolicy(),
        seed=1,
    )
    defaults.update(overrides)
    return Scenario(**defaults)


def test_criterion_01_stopping_table_reproduction():
    for (speed, road), published in PUBLISHED_TB.items():
        value = braking_time(speed, road)
        assert abs(value - published) <= 0.02, (speed, road, value)
    print("CRITERION 1 PASS: braking times match the published table within 0.02 s")


def test_criterion_02_time_to_avoid_collision_oracle():
    cases = [
        (500.0, 20, 55.9, 56.0),
        (500.0, 50, 22.4, 22.0),
        (450.0, 79, 12.7, 12.0),
    ]
    for distance, mph, expected, published in cases:
        value = time_to_avoid_collision(distance, mph_to_mps(mph))
        assert value == pytest.approx(expected, abs=0.05)
        assert abs(value - published) <= 1.0
    print("CRITERION 2 PASS: warning budgets 55.9/22.4/12.7 s match 56/22/12 s within 1 s")


def test_criterion_03_indirect_protection_band():
    report = safeness_report(
        200.0,
        mph_to_mps(10),
        vehicle_speeds_mph=(25.0, 35.0, 45.0, 55.0, 65.0),
        roads=("dry", "wet"),
        reaction_s=3.5,
        system_delay_s=0.005,
    )
    band = report.protection_band_s()
    assert band is not None
    low, high = band
    assert 34.0 <= low
    assert high <= 39.0
    print(f"CRITERION 3 PASS: indirect protection band [{low:.2f}, {high:.2f}] s within [34, 39] s")


def test_criterion_04_safeness_boundary_identities():
    rng = np.random.default_rng(20240117)
    trials = 10_000
    failures_seen = 0
    trap_seen = 0
    for _ in range(trials):
        tr, ts, tb = rng.uniform(0.0, 8.0, size=3)
        stop = tr + ts + tb
        t_tac = rng.uniform(0.0, 60.0)
        # Exact boundary identities.
        if t_tac - stop > 0:
            at_full = safeness_level(t_tac, t_tac, tr, ts, tb)
            assert at_full.level == 1.0
            at_stop = safeness_level(stop, t_tac, tr, ts, tb)
            assert at_stop.level == 0.0
        # Classification equivalences on a random instant.
        t_t = rng.uniform(0.0, 60.0)
        result = safeness_level(t_t, t_tac, tr, ts, tb)
        if t_tac - stop <= 0:
            failures_seen += 1
            assert result.system_failed
            assert result.category.value == "not_safe"
            if t_t < stop and t_tac < stop and not math.isnan(result.level):
                if result.level > 0:
                    trap_seen += 1  # positive raw level, still failed
        else:
            assert not result.system_failed
            if t_t >= t_tac:
                assert result.category.value == "no_risk"
            elif t_t >= stop:
                assert result.category.value == "safe_but_close"
            else:
                assert result.category.value == "not_safe"
    assert failures_seen > 100
    assert trap_seen > 0
    print(
        f"CRITERION 4 PASS: {trials} randomized budgets, boundaries exact, "
        f"{failures_seen} failures classified, {trap_seen} negative/negative traps caught"
    )


def test_criterion_05_packet_count_law():
    observed = {}
    for mph in (20, 50, 79):
        scenario = open_scenario(mph)
        series = bin_per(run_pass(scenario), 50.0)
        interior = [b.transmitted for b in series.bins if -500.0 < b.d_center_m < 350.0]
        observed[mph] = max(interior)
        published = PUBLISHED_WINDOW_COUNTS[mph]
        for count in interior:
            assert abs(count - published) / published <= 0.10, (mph, count)
    scenario10 = open_scenario(10)
    series10 = bin_per(run_pass(scenario10), 20.0)
    interior10 = [b.transmitted for b in series10.bins if -500.0 < b.d_center_m < 350.0]
    for count in interior10:
        assert abs(count - PUBLISHED_20M_COUNT) / PUBLISHED_20M_COUNT <= 0.10
    print(
        "CRITERION 5 PASS: window counts "
        f"{observed[20]}/{observed[50]}/{observed[79]} per 50 m and "
        f"{max(interior10)} per 20 m, within 10% of 118/47/29/94"
    )


def test_criterion_06_coverage_extraction_oracle():
    for mph in (20, 50):
        log = run_pass(open_scenario(mph, coverage_m=500.0))
        report = extract_dwarn(bin_per(log, 50.0), threshold=5)
        assert report.warning_range_m == 500.0, mph
    log79 = run_pass(open_scenario(79, coverage_m=450.0))
    report79 = extract_dwarn(bin_per(log79, 50.0), threshold=5)
    assert report79.warning_range_m == 450.0

    # Shadowed case: dead zone from -450 to -250 except a clear strip whose
    # packets land in the [-350, -300) bin.
    shadow_profile = PerProfile(
        bins=(
            (-600.0, -450.0, 1.0),
            (-450.0, -350.0, 1.0),
            (-350.0, -300.0, 0.0),
            (-300.0, -250.0, 1.0),
            (-250.0, 0.0, 0.0),
            (0.0, 350.0, 0.0),
        )
    )
    scenario = open_scenario(20, channel=shadow_profile)
    report = extract_dwarn(bin_per(run_pass(scenario), 50.0), threshold=5)
    assert report.warning_range_m == 250.0
    assert report.farthest_qualifying_m == 350.0
    assert not report.contiguous
    print(
        "CRITERION 6 PASS: coverage 500/500/450 m extracted; shadowing case "
        "splits into contiguous 250 m vs farthest 350 m"
    )


def test_criterion_07_empirical_round_trip():
    profile = PerProfile(
        bins=(
            (-150.0, -100.0, 1.0),
            (-100.0, -50.0, 0.3),
            (-50.0, 0.0, 0.05),
            (0.0, 50.0, 0.0),
            (50.0, 100.0, 0.5),
            (100.0, 150.0, 0.9),
        )
    )
    # 0.1 m/s at 20 Hz puts 10,000 packets in every 50 m bin.
    scenario = Scenario(
        scene=CrossingScene(receivers=(RSU,)),
        radio=RadioConfig(),
        channel=profile,
        latency=LatencyModel(),
        train=TrainRun(speed_mps=0.1, start_d_t_m=-160.0, end_d_t_m=160.0),
        policy=TriggerPolicy(),
        seed=404,
    )
    series = bin_per(run_pass(scenario), 50.0)
    by_center = {b.d_center_m: b for b in series.bins}
    z99 = 2.576
    checked = 0
    for d_start, _d_end, per in profile.bins:
        b = by_center[d_start + 25.0]
        assert b.transmitted >= 10_000
        margin = z99 * math.sqrt(per * (1.0 - per) / b.transmitted)
        assert abs(b.per - per) <= margin, (d_start, b.per, per, margin)
        checked += 1
    print(
        f"CRITERION 7 PASS: {checked} bins x >=10k packets re-estimated inside "
        "the 99% binomial interval"
    )


def test_criterion_08_latency_contract():
    log = run_pass(open_scenario(20))
    stats = latency_stats(log)
    assert stats.max_s < 0.05
    assert stats.fraction_below_5ms >= 0.95
    model = LatencyModel(processing_base_ms=0.0, processing_jitter_ms=0.0)
    propagation = latency_sample(300.0, model, np.random.default_rng(0), hops=1)
    assert propagation == pytest.approx(300.0 / SPEED_OF_LIGHT_MPS, rel=1e-12)
    assert propagation < 1.01e-6
    print(
        f"CRITERION 8 PASS: all latencies < 50 ms, {stats.fraction_below_5ms:.4f} "
        f"below 5 ms, 300 m propagation {propagation * 1e6:.3f} us < 1.01 us"
    )


def test_criterion_09_determinism(tmp_path):
    scenario = open_scenario(
        20, channel=SyntheticChannel(path_loss_exponent=2.8, shadowing_sigma_db=4.0)
    )
    assert log_bytes(run_pass(scenario)) == log_bytes(run_pass(scenario))

    speeds = [mph_to_mps(v) for v in (20, 50)]
    mods = ["QPSK", "16QAM"]
    forward = run_sweep(scenario, speeds_mps=speeds, modulations=mods, out_dir=tmp_path / "fwd")
    backward = run_sweep(
        scenario,
        speeds_mps=list(reversed(speeds)),
        modulations=list(reversed(mods)),
        out_dir=tmp_path / "bwd",
    )
    assert {row[1]: (tmp_path / "fwd" / row[0]).read_bytes() for row in forward} == {
        row[1]: (tmp_path / "bwd" / row[0]).read_bytes() for row in backward
    }
    print("CRITERION 9 PASS: same-seed reruns byte-identical; sweep order irrelevant")


def test_criterion_10_minimum_range_rule():
    v35 = mph_to_mps(35)
    assert minimum_required_range(v35, 3.5, 7.15) == pytest.approx(166.6, abs=0.1)

    checked = 0
    for train_mph in (10, 20, 35):
        train_speed = mph_to_mps(train_mph)
        log = run_pass(open_scenario(train_mph, coverage_m=500.0))
        coverage = extract_dwarn(bin_per(log, 50.0), threshold=5)
        report = safeness_report(coverage, train_speed)
        for row in report.rows:
            required = minimum_required_range(train_speed, 3.5, row.braking_s)
            if coverage.warning_range_m >= required:
                assert row.protection_s > 0, (train_mph, row)
                checked += 1
    assert checked == 30  # every grid point had sufficient simulated coverage
    print(
        "CRITERION 10 PASS: minimum range 166.6 m reproduced; coverage >= "
        f"minimum range implied positive protection at {checked}/30 grid points"
    )
