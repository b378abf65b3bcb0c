import dataclasses
import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st
from scalar_reference import PacketRecord, columns_from_records

from railwarn.geometry import Placement
from railwarn.logio import AnalysisDefaults, SimLog, log_bytes, read_log
from railwarn.protocol import WarningEvent

RECEIVER = Placement(id="rsu0", kind="RSU", offset_from_crossing_m=6.0, height_m=3.0)

# Finite floats of every shape: -0.0, subnormals, huge and tiny exponents.
floats = st.floats(allow_nan=False, allow_infinity=False)


def make_log(records, events=()) -> SimLog:
    return SimLog(
        digest="d" * 64,
        seed=7,
        train_speed_mps=None,
        tx_period_s=0.05,
        start_d_t_m=-350.0,
        end_d_t_m=350.0,
        duration_s=(350.0 - -350.0) / 4.4704,
        receivers=(RECEIVER,),
        records={"rsu0": columns_from_records(records, "rsu0")},
        events=list(events),
    )


@st.composite
def records(draw):
    decoded = draw(st.booleans())
    tx_time = draw(floats)
    # A decoded packet's latency_s, rx_time_s - tx_time_s, must be finite to be written.
    later = floats.filter(lambda t: t >= tx_time and math.isfinite(t - tx_time))
    rx_time = draw(later) if decoded else None
    return PacketRecord(
        seq=draw(st.integers(0, 2**63)),
        tx_time_s=tx_time,
        train_d_t_m=draw(floats),
        receiver_id="rsu0",
        decoded=decoded,
        rx_time_s=rx_time,
    )


@given(packets=st.lists(records(), max_size=20), trigger=floats, seen=st.integers(1, 10**6))
def test_lines_equal_json_dumps_sorted(packets, trigger, seen):
    event = WarningEvent("rsu0", "RSU", "indirect", trigger, -120.5, seen, trigger + 0.004)
    log = make_log(packets, [event])
    lines = log_bytes(log).decode().splitlines()
    assert lines[1:-1] == [
        json.dumps(
            {
                "type": "packet",
                "receiver_id": r.receiver_id,
                "seq": r.seq,
                "tx_time_s": r.tx_time_s,
                "train_d_t_m": r.train_d_t_m,
                "decoded": r.decoded,
                "rx_time_s": r.rx_time_s,
                "latency_s": r.latency_s,
            },
            sort_keys=True,
        )
        for r in packets
    ]
    assert lines[-1] == json.dumps({"type": "event", **vars(event)}, sort_keys=True)
    assert json.loads(lines[0])["receivers"][0]["id"] == "rsu0"


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_value_raises(value):
    record = PacketRecord(seq=0, tx_time_s=0.0, train_d_t_m=value, receiver_id="rsu0", decoded=False)
    with pytest.raises(ValueError, match="JSON compliant"):
        log_bytes(make_log([record]))


@pytest.mark.parametrize(
    "field, value", [("analysis_window_m", 20.0), ("coverage_threshold", 3), ("events", [])]
)
def test_a_log_is_never_edited(field, value):
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(make_log([]), field, value)


def test_header_without_analysis_settings_reads_the_defaults(tmp_path):
    path = tmp_path / "old.log.jsonl"
    packet = PacketRecord(0, 0.0, -10.0, "rsu0", False)
    header, line = log_bytes(make_log([packet])).decode().splitlines()
    header = json.loads(header)
    del header["analysis_window_m"], header["coverage_threshold"]
    path.write_text(json.dumps(header) + "\n" + line + "\n")
    log = read_log(path)
    assert (log.analysis_window_m, log.coverage_threshold) == (
        AnalysisDefaults.window_width_m,
        AnalysisDefaults.coverage_threshold,
    )
