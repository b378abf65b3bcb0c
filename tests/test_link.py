import json
import math
import warnings

import numpy as np
import pytest
from scalar_reference import excess_at, packet_success_probability, path_loss_db, per_at

from railwarn.config import load_config
from railwarn.link import (
    LatencyModel,
    ObstructionSegment,
    PerProfile,
    RadioConfig,
    SyntheticChannel,
    friis_reference_loss_db,
    latency_sample,
    snr_success_probability,
)
from railwarn.protocol import BSM_SIZE_BYTES
from railwarn.units import SPEED_OF_LIGHT_MPS

RADIO = RadioConfig()


class TestRadioConfig:
    def test_defaults_match_standard_setup(self):
        assert RADIO.center_frequency_hz == 5.87e9
        assert BSM_SIZE_BYTES == 99
        assert RADIO.tx_period_ms == 50.0
        assert RADIO.tx_period_s == 0.05

    def test_option_sets_enforced(self):
        with pytest.raises(ValueError, match="tx_power_dbm"):
            RadioConfig(tx_power_dbm=30.0)
        with pytest.raises(ValueError, match="modulation"):
            RadioConfig(modulation="BPSK")


class TestPathLoss:
    def test_reference_is_friis_at_one_meter(self):
        # Independent oracle: 20 log10(4 pi f / c).
        for freq in (5.87e9, 5.9e9):
            expected = 20.0 * math.log10(4.0 * math.pi * freq / SPEED_OF_LIGHT_MPS)
            assert friis_reference_loss_db(freq) == pytest.approx(expected, rel=1e-12)
        assert friis_reference_loss_db(5.9e9) == pytest.approx(47.86, abs=0.01)
        channel = SyntheticChannel(reference_loss_db=47.86)
        assert path_loss_db(1.0, channel) == pytest.approx(47.86, rel=1e-12)

    def test_decade_rule(self):
        channel = SyntheticChannel(path_loss_exponent=2.0, reference_loss_db=47.86)
        assert path_loss_db(100.0, channel) - path_loss_db(10.0, channel) == pytest.approx(
            20.0, rel=1e-12
        )

    def test_exponent_example(self):
        channel = SyntheticChannel(path_loss_exponent=2.5, reference_loss_db=47.86)
        expected = 47.86 + 25.0 * math.log10(200.0)
        assert path_loss_db(200.0, channel) == pytest.approx(expected, rel=1e-12)
        assert path_loss_db(200.0, channel) == pytest.approx(105.4, abs=0.05)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            path_loss_db(0.0, SyntheticChannel())
        with pytest.raises(ValueError):
            path_loss_db(-5.0, SyntheticChannel())


class TestPerProfile:
    def test_lookup_and_policies(self):
        profile = PerProfile(bins=((-500.0, 0.0, 0.0), (0.0, 100.0, 0.25)))
        assert per_at(profile, -300.0) == 0.0
        assert per_at(profile, 50.0) == 0.25
        assert per_at(profile, 500.0) == 1.0  # out of range -> no coverage
        strict = PerProfile(bins=((-500.0, 0.0, 0.0),), out_of_range="error")
        with pytest.raises(ValueError, match="outside"):
            per_at(strict, 10.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="non-overlapping"):
            PerProfile(bins=((-100.0, 0.0, 0.0), (-50.0, 50.0, 0.0)))
        with pytest.raises(ValueError, match="outside"):
            PerProfile(bins=((-100.0, 0.0, 1.5),))
        with pytest.raises(ValueError, match="empty or reversed"):
            PerProfile(bins=((0.0, -100.0, 0.5),))

    def test_csv_load(self, tmp_path):
        # A config's per_table is read into the profile's bins.
        (tmp_path / "per.csv").write_text("d_start_m,d_end_m,per\n-500,0,0.0\n0,350,0.1\n")
        config = tmp_path / "scenario.json"
        channel = {"mode": "empirical", "per_table": "per.csv"}
        config.write_text(json.dumps({"train": {"speed_mph": 20}, "channel": channel}))
        profile = load_config(config).scenario.channel
        assert profile.bins == ((-500.0, 0.0, 0.0), (0.0, 350.0, 0.1))
        assert per_at(profile, -1.0) == 0.0
        assert per_at(profile, 1.0) == 0.1


class TestPacketSuccess:
    def test_empirical_perfect_bin(self):
        profile = PerProfile(bins=((-500.0, 500.0, 0.0),))
        assert packet_success_probability(-300.0, 0.0, RADIO, profile) == 1.0

    def test_empirical_ignores_gains(self):
        profile = PerProfile(bins=((-500.0, 500.0, 0.2),))
        p_low = packet_success_probability(-100.0, -40.0, RADIO, profile)
        p_high = packet_success_probability(-100.0, +40.0, RADIO, profile)
        assert p_low == p_high == pytest.approx(0.8)

    def test_synthetic_midpoint_at_threshold(self):
        channel = SyntheticChannel(reference_loss_db=47.86)
        # Place the mean SNR exactly on the threshold via the shadowing term.
        snr0 = (
            RADIO.tx_power_dbm
            + 0.0
            - path_loss_db(100.0, channel)
            - channel.noise_floor_dbm
        )
        shadow = snr0 - channel.snr_threshold_qpsk_db
        p = packet_success_probability(
            -100.0, 0.0, RADIO, channel, shadowing_db=shadow, range_m=100.0
        )
        assert p == pytest.approx(0.5, abs=1e-9)

    def test_a_vanishing_transition_width_is_a_step(self):
        # The margin in widths overflows; the curve takes its limits, warning nothing.
        channel = SyntheticChannel(transition_width_db=1e-308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            success = snr_success_probability(np.array([-100.0, 8.0, 100.0]), RADIO, channel)
        assert success.tolist() == [0.0, 0.5, 1.0]

    def test_monotone_in_loss(self):
        channel = SyntheticChannel()
        probabilities = [
            packet_success_probability(
                -100.0, 10.0, RADIO, channel, shadowing_db=extra, range_m=100.0
            )
            for extra in (0.0, 5.0, 10.0, 20.0, 40.0)
        ]
        assert probabilities == sorted(probabilities, reverse=True)

    def test_16qam_coverage_subset_of_qpsk(self):
        channel = SyntheticChannel(path_loss_exponent=2.8)
        qpsk = RadioConfig(modulation="QPSK")
        qam = RadioConfig(modulation="16QAM")
        for d in (-500.0, -200.0, -50.0, -5.0):
            p_qpsk = packet_success_probability(d, 18.0, qpsk, channel)
            p_qam = packet_success_probability(d, 18.0, qam, channel)
            assert p_qam <= p_qpsk

    def test_obstruction_excess_and_gaps(self):
        channel = SyntheticChannel(path_loss_exponent=2.0)
        blocked = ObstructionSegment(
            d_start_m=-400.0, d_end_m=-150.0, excess_loss_db=40.0
        )
        clear = packet_success_probability(-100.0, 18.0, RADIO, channel, [blocked])
        shadowed = packet_success_probability(-300.0, 18.0, RADIO, channel, [blocked])
        assert shadowed < clear
        gap = ObstructionSegment(
            d_start_m=-400.0,
            d_end_m=-150.0,
            excess_loss_db=40.0,
            gap_width_m=2.0,
            gap_period_m=12.0,
        )
        # The last 2 m of each 12 m stretch is a clear line of sight.
        assert excess_at(gap, -389.0) == 0.0
        assert excess_at(gap, -395.0) == 40.0
        assert excess_at(gap, -100.0) == 0.0  # outside the segment

    def test_obstruction_validation(self):
        with pytest.raises(ValueError):
            ObstructionSegment(d_start_m=0.0, d_end_m=-10.0, excess_loss_db=5.0)
        with pytest.raises(ValueError):
            ObstructionSegment(d_start_m=-10.0, d_end_m=0.0, excess_loss_db=-1.0)
        with pytest.raises(ValueError):
            ObstructionSegment(
                d_start_m=-10.0, d_end_m=0.0, excess_loss_db=1.0, gap_width_m=5.0, gap_period_m=3.0
            )

    def test_synthetic_channel_validation(self):
        with pytest.raises(ValueError, match="exponent"):
            SyntheticChannel(path_loss_exponent=1.5)
        with pytest.raises(ValueError, match="threshold"):
            SyntheticChannel(snr_threshold_qpsk_db=16.0, snr_threshold_16qam_db=15.0)


class TestLatency:
    def test_propagation_plus_base_oracle(self):
        rng = np.random.default_rng(1)
        model = LatencyModel(processing_base_ms=4.0, processing_jitter_ms=0.0)
        expected = 200.0 / SPEED_OF_LIGHT_MPS + 4e-3
        assert latency_sample(200.0, model, rng) == pytest.approx(expected, rel=1e-12)
        assert latency_sample(200.0, model, rng) == pytest.approx(4.000667e-3, abs=1e-9)

    def test_zero_everything(self):
        rng = np.random.default_rng(1)
        model = LatencyModel(processing_base_ms=0.0, processing_jitter_ms=0.0)
        assert latency_sample(0.0, model, rng) == 0.0

    def test_jitter_band(self):
        rng = np.random.default_rng(7)
        model = LatencyModel(processing_base_ms=4.0, processing_jitter_ms=1.0)
        samples = [latency_sample(100.0, model, rng) for _ in range(1000)]
        assert all(3e-3 <= s <= 5e-3 + 1e-6 for s in samples)

    def test_two_hop_total(self):
        rng = np.random.default_rng(1)
        model = LatencyModel(processing_base_ms=4.0, processing_jitter_ms=0.0)
        total = latency_sample(0.0, model, rng, hops=2)
        assert total == pytest.approx(8e-3, rel=1e-12)
        assert total < 3.5  # negligible next to driver reaction time

    def test_all_samples_below_tx_period_under_defaults(self):
        rng = np.random.default_rng(3)
        model = LatencyModel()
        samples = [latency_sample(500.0, model, rng) for _ in range(2000)]
        assert all(s < 0.05 for s in samples)

    def test_validation(self):
        with pytest.raises(ValueError):
            LatencyModel(processing_base_ms=1.0, processing_jitter_ms=2.0)
        with pytest.raises(ValueError):
            LatencyModel(processing_base_ms=-1.0)
        with pytest.raises(ValueError):
            latency_sample(-1.0, LatencyModel(), np.random.default_rng(0))
