import math

import numpy as np
import pytest
from scalar_reference import ReceiverState, receiver_ingest

from railwarn.link import LatencyModel
from railwarn.protocol import TriggerPolicy, WarningEvent, rsu_relay
from railwarn.units import mph_to_mps


class TestGenerateBsm:
    """The transmit schedule: one message per period from t = 0."""

    def test_message_count_over_a_pass(self):
        # Schedule oracle: ticks every 50 ms at 20 mph from -500 m; the tick
        # at t=0 makes the strictly-before-crossing count one more than the
        # whole periods that fit.
        speed = mph_to_mps(20)
        positions = []
        k = 0
        while -500.0 + speed * 0.05 * k < 0.0:
            positions.append(k)
            k += 1
        whole_periods = math.floor(500.0 / speed * 20.0)
        assert whole_periods == 1118
        assert len(positions) == whole_periods + 1
        assert abs(len(positions) - 500.0 / speed * 20.0) <= 1.0


class TestReceiverIngest:
    def test_event_on_kth_packet(self):
        state = ReceiverState(receiver_id="rsu0", kind="RSU")
        policy = TriggerPolicy(reliability_threshold=5, trigger_distance_m=200.0)
        events = []
        for seq in range(5):
            events.append(receiver_ingest(seq, -195.0 + seq, 0.05 * seq, state, policy))
        assert events[:4] == [None] * 4
        event = events[4]
        assert isinstance(event, WarningEvent)
        assert event.packets_seen == 5
        assert event.trigger_time_s == pytest.approx(0.2)
        assert event.train_d_t_at_trigger_m == pytest.approx(-191.0)
        assert event.mode == "indirect" and event.source == "RSU"

    def test_insufficient_packets_never_trigger(self):
        state = ReceiverState(receiver_id="obu0", kind="OBU")
        policy = TriggerPolicy(reliability_threshold=5, trigger_distance_m=200.0)
        for seq in range(3):
            assert receiver_ingest(seq, -100.0, 0.05 * seq, state, policy) is None
        assert state.event is None

    def test_receding_train_never_triggers(self):
        state = ReceiverState(receiver_id="obu0", kind="OBU")
        policy = TriggerPolicy(reliability_threshold=1, trigger_distance_m=500.0)
        for seq in range(20):
            # Past the crossing, moving away.
            assert receiver_ingest(seq, 5.0 + seq, 0.05 * seq, state, policy) is None

    def test_far_packets_count_toward_reliability(self):
        # Packets decoded outside the trigger distance still build history;
        # the position gate applies to the triggering message itself.
        state = ReceiverState(receiver_id="rsu0", kind="RSU")
        policy = TriggerPolicy(reliability_threshold=5, trigger_distance_m=100.0)
        for seq in range(5):
            assert receiver_ingest(seq, -400.0 + seq, seq * 0.05, state, policy) is None
        event = receiver_ingest(90, -90.0, 4.5, state, policy)
        assert event is not None
        assert event.packets_seen == 6

    def test_single_event_per_pass(self):
        state = ReceiverState(receiver_id="rsu0", kind="RSU")
        policy = TriggerPolicy(reliability_threshold=1, trigger_distance_m=200.0)
        first = receiver_ingest(0, -150.0, 0.0, state, policy)
        assert first is not None
        for seq in range(1, 10):
            assert receiver_ingest(seq, -150.0 + seq, 0.05 * seq, state, policy) is None
        assert state.event is first

    def test_perfect_link_k1_first_packet_inside_trigger(self):
        speed = mph_to_mps(20)
        policy = TriggerPolicy(reliability_threshold=1, trigger_distance_m=200.0)
        state = ReceiverState(receiver_id="rsu0", kind="RSU")
        event = None
        for seq in range(2000):
            position = -500.0 + speed * 0.05 * seq
            if position > 200.0:
                break
            got = receiver_ingest(seq, position, seq * 0.05, state, policy)
            event = event or got
        # First scheduled packet at or inside 200 m on the approach side.
        first_inside = next(
            seq for seq in range(2000) if -500.0 + speed * 0.05 * seq >= -200.0
        )
        assert event is not None
        assert event.trigger_time_s == pytest.approx(first_inside * 0.05)

    def test_reordering_accepted_and_counted(self):
        state = ReceiverState(receiver_id="rsu0", kind="RSU")
        policy = TriggerPolicy(reliability_threshold=3, trigger_distance_m=500.0)
        receiver_ingest(5, -400.0, 0.30, state, policy)
        receiver_ingest(3, -410.0, 0.31, state, policy)  # late arrival
        event = receiver_ingest(6, -395.0, 0.35, state, policy)
        assert state.reorder_count == 1
        assert event is not None and event.packets_seen == 3

    def test_window_expires_old_packets(self):
        state = ReceiverState(receiver_id="rsu0", kind="RSU")
        policy = TriggerPolicy(reliability_threshold=3, trigger_distance_m=500.0, window_s=1.0)
        receiver_ingest(0, -450.0, 0.0, state, policy)
        receiver_ingest(1, -449.0, 0.1, state, policy)
        # Two in-window packets plus one stale one: no trigger.
        assert receiver_ingest(40, -400.0, 2.0, state, policy) is None
        assert receiver_ingest(41, -399.0, 2.05, state, policy) is None
        event = receiver_ingest(42, -398.0, 2.10, state, policy)
        assert event is not None and event.packets_seen == 3

    def test_trigger_time_non_decreasing_in_threshold(self):
        rng = np.random.default_rng(11)
        arrivals = []
        for seq in range(200):
            if rng.random() < 0.6:
                arrivals.append((seq * 0.05, seq, -300.0 + seq * 1.5))
        times = []
        for threshold in (1, 3, 7, 15):
            state = ReceiverState(receiver_id="rsu0", kind="RSU")
            policy = TriggerPolicy(reliability_threshold=threshold, trigger_distance_m=250.0)
            trigger = math.inf
            for rx_time, seq, position in arrivals:
                event = receiver_ingest(seq, position, rx_time, state, policy)
                if event is not None:
                    trigger = event.trigger_time_s
                    break
            times.append(trigger)
        assert times == sorted(times)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            TriggerPolicy(reliability_threshold=0)
        with pytest.raises(ValueError):
            TriggerPolicy(trigger_distance_m=0.0)
        with pytest.raises(ValueError):
            TriggerPolicy(window_s=-1.0)


class TestRsuRelay:
    def make_event(self, mode: str = "indirect") -> WarningEvent:
        return WarningEvent(
            receiver_id="rsu0",
            source="RSU",
            mode=mode,
            trigger_time_s=10.0,
            train_d_t_at_trigger_m=-190.0,
            packets_seen=5,
        )

    def test_zero_delay_model(self):
        model = LatencyModel(processing_base_ms=0.0, processing_jitter_ms=0.0)
        rng = np.random.default_rng(0)
        assert rsu_relay(self.make_event(), model, rng) == 10.0

    def test_adds_second_hop_delay(self):
        model = LatencyModel(processing_base_ms=4.0, processing_jitter_ms=0.0)
        rng = np.random.default_rng(0)
        delivery = rsu_relay(self.make_event(), model, rng)
        assert delivery == pytest.approx(10.0 + 4e-3, rel=1e-12)

    def test_direct_mode_rejected(self):
        with pytest.raises(ValueError, match="indirect"):
            rsu_relay(self.make_event("direct"), LatencyModel(), np.random.default_rng(0))
