"""The per-tick scalar pass loop, kept as the reference for run_pass.

This is the simulator's original loop: per tick it calls the scalar layer
functions (link_geometry, pattern_gain, packet_success_probability,
latency_sample) and feeds every decode to receiver_ingest in arrival order.
run_pass must produce byte-identical logs, and raise the same errors.
"""

import dataclasses

from railwarn.antenna import pattern_gain
from railwarn.engine import (
    PacketRecord,
    Scenario,
    SimLog,
    _tick_count,
    receiver_stream,
    scenario_digest,
)
from railwarn.geometry import link_geometry
from railwarn.link import SyntheticChannel, latency_sample, packet_success_probability
from railwarn.protocol import (
    ReceiverState,
    TrainState,
    generate_bsm,
    receiver_ingest,
    rsu_relay,
)


def reference_run_pass(scenario: Scenario, seed: int | None = None) -> SimLog:
    """Simulate one pass; a pure function of (scenario, seed)."""
    effective_seed = scenario.seed if seed is None else seed
    train = scenario.train
    period_s = scenario.radio.tx_period_s
    ticks = _tick_count(train.duration_s, period_s)
    synthetic = isinstance(scenario.channel, SyntheticChannel)
    tx_pattern = scenario.resolve_pattern(scenario.radio.tx_antenna)
    rx_pattern = scenario.resolve_pattern(scenario.radio.rx_antenna)

    times = [k * period_s for k in range(ticks)]
    positions = [train.start_d_t_m + train.speed_mps * t for t in times]
    messages = [
        generate_bsm(
            TrainState(
                train_id=1,
                distance_to_crossing_m=positions[k],
                speed_mps=train.speed_mps,
                heading_deg=scenario.scene.track_heading_deg,
            ),
            seq=k,
            clock_s=times[k],
        )
        for k in range(ticks)
    ]

    records: dict = {}
    events: list = []
    for placement in scenario.scene.receivers:
        rng = receiver_stream(effective_seed, placement.id)
        receiver_records = []
        decoded = []  # (rx_time_s, tick index)
        sigma = scenario.channel.shadowing_sigma_db if synthetic else 0.0
        for k in range(ticks):
            geo = link_geometry(positions[k], placement, scenario.scene)
            if synthetic:
                gain = pattern_gain(
                    tx_pattern, geo.tx_azimuth_deg, geo.tx_elevation_deg
                ) + pattern_gain(rx_pattern, geo.rx_azimuth_deg, geo.rx_elevation_deg)
                shadow = rng.normal(0.0, sigma) if sigma > 0 else 0.0
            else:
                gain = 0.0
                shadow = 0.0
            p = packet_success_probability(
                positions[k],
                gain,
                scenario.radio,
                scenario.channel,
                scenario.scene.obstructions,
                shadowing_db=shadow,
                range_m=geo.range_m,
            )
            if rng.random() < p:
                rx_time = times[k] + latency_sample(geo.range_m, scenario.latency, rng, hops=1)
                receiver_records.append(
                    PacketRecord(
                        seq=k,
                        tx_time_s=times[k],
                        train_d_t_m=positions[k],
                        receiver_id=placement.id,
                        decoded=True,
                        rx_time_s=rx_time,
                        # Keep the record identity exact under rounding.
                        latency_s=rx_time - times[k],
                    )
                )
                decoded.append((rx_time, k))
            else:
                receiver_records.append(
                    PacketRecord(
                        seq=k,
                        tx_time_s=times[k],
                        train_d_t_m=positions[k],
                        receiver_id=placement.id,
                        decoded=False,
                    )
                )
        records[placement.id] = receiver_records

        # Deliver decodes in arrival order; jitter may reorder them.
        state = ReceiverState(receiver_id=placement.id, kind=placement.kind)
        for rx_time, k in sorted(decoded):
            event = receiver_ingest(messages[k], rx_time, state, scenario.policy)
            if event is not None and placement.kind == "RSU":
                delivery = rsu_relay(event, scenario.latency, rng)
                event = dataclasses.replace(event, relay_delivery_time_s=delivery)
                state.event = event
        if state.event is not None:
            events.append(state.event)

    return SimLog(
        digest=scenario_digest(scenario),
        seed=effective_seed,
        train_speed_mps=train.speed_mps,
        tx_period_s=period_s,
        start_d_t_m=train.start_d_t_m,
        end_d_t_m=train.end_d_t_m,
        duration_s=train.duration_s,
        receivers=scenario.scene.receivers,
        records=records,
        events=events,
    )
