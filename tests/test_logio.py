import dataclasses
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scalar_reference import PacketRecord, columns_from_records, packet_rows

from railwarn import logio
from railwarn.config import load_config
from railwarn.engine import run_pass
from railwarn.geometry import Placement
from railwarn.logio import _NUMBER, TextHolder, log_bytes, read_log, write_log
from railwarn.passlog import AnalysisDefaults, PacketColumns, SimLog
from railwarn.protocol import WarningEvent
from railwarn.units import mph_to_mps

RECEIVER = Placement(id="rsu0", kind="RSU", offset_from_crossing_m=6.0, height_m=3.0)

# Finite floats of every shape: -0.0, subnormals, huge and tiny exponents.
floats = st.floats(allow_nan=False, allow_infinity=False)


def make_log(records, events=()) -> SimLog:
    return columns_log({"rsu0": columns_from_records(records, "rsu0")}, events)


def columns_log(records: dict, events=()) -> SimLog:
    """A log of receivers named by records' keys, each holding its PacketColumns."""
    return SimLog(
        digest="d" * 64,
        seed=7,
        train_speed_mps=None,
        tx_period_s=0.05,
        start_d_t_m=-350.0,
        end_d_t_m=350.0,
        duration_s=(350.0 - -350.0) / 4.4704,
        receivers=tuple(dataclasses.replace(RECEIVER, id=rid) for rid in records),
        records=records,
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


def json_line(packet: PacketRecord) -> str:
    return json.dumps(
        {
            "type": "packet",
            "receiver_id": packet.receiver_id,
            "seq": packet.seq,
            "tx_time_s": packet.tx_time_s,
            "train_d_t_m": packet.train_d_t_m,
            "decoded": packet.decoded,
            "rx_time_s": packet.rx_time_s,
            "latency_s": packet.latency_s,
        },
        sort_keys=True,
    )


@given(packets=st.lists(records(), max_size=20), trigger=floats, seen=st.integers(1, 10**6))
def test_lines_equal_json_dumps_sorted(packets, trigger, seen):
    event = WarningEvent("rsu0", "RSU", "indirect", trigger, -120.5, seen, trigger + 0.004)
    log = make_log(packets, [event])
    lines = log_bytes(log).decode().splitlines()
    assert lines[1:-1] == [json_line(r) for r in packets]
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


# How a later receiver holds the first receiver's seq, tx_time_s and
# train_d_t_m: the same arrays, equal copies, copies whose middle row has
# the other sign of zero in one column, copies with each seq one higher, or
# the arrays one row shorter.
SHARES = ("same", "copy", "tx_time_s", "train_d_t_m", "seq", "shorter")
SIGNED = {"tx_time_s": 1, "train_d_t_m": 2}  # column index of a zero-sign share


def sharing_log(ids, ticks, shares, latencies) -> SimLog:
    """A log whose first receiver's tick columns come from ticks, (seq step,
    tx_time_s, train_d_t_m) rows, and each later receiver's from the
    first's as its share says. latencies[r][i] is receiver r's rx_time_s -
    tx_time_s at row i, None where the packet is lost."""
    steps, tx, position = (np.array(column) for column in zip(*ticks))
    base = [np.cumsum(steps, dtype=np.uint64), tx, position]
    middle, later = len(ticks) // 2, shares[: len(ids) - 1]
    for column in (base[SIGNED[share]] for share in later if share in SIGNED):
        column[middle] = math.copysign(0.0, column[middle])
    columns = [base]
    for share in later:
        mine = base if share == "same" else [column.copy() for column in base]
        if share == "shorter":
            mine = [column[:-1] for column in mine]
        elif share == "seq":
            mine[0] += np.uint64(1)
        elif share in SIGNED:
            mine[SIGNED[share]][middle] *= -1
        columns.append(mine)
    records = {}
    for rid, (seq, tx, position), latency in zip(ids, columns, latencies):
        latency = np.array([math.nan if v is None else v for v in latency[: len(seq)]])
        records[rid] = PacketColumns(seq, tx, position, tx + latency)
    return columns_log(records)


# Ids a %-template or a JSON string could mangle.
tricky_ids = st.sampled_from(["%", "%r", "%%s", '"', "\\", "\u00e9\u2603", "rsu0"]) | st.text(
    min_size=1, max_size=4
)
tick_rows = st.lists(st.tuples(st.integers(1, 2**60), floats, floats), min_size=2, max_size=8)
latencies = st.lists(
    st.lists(st.none() | st.floats(0, 1e6), min_size=8, max_size=8), min_size=3, max_size=3
)


@given(
    ids=st.lists(tricky_ids, min_size=2, max_size=3, unique=True),
    ticks=tick_rows,
    shares=st.lists(st.sampled_from(SHARES), min_size=2, max_size=2),
    latencies=latencies,
)
# 0.0 == -0.0, but their text differs: equal numbers are not equal text.
@example(
    ids=["rsu0", "%r"],
    ticks=[(1, 0.0, -10.0), (1, 0.05, 5.0)],
    shares=["train_d_t_m", "same"],
    latencies=[[0.001] * 8, [0.002] * 8, [None] * 8],
)
@example(
    ids=['"', "%", "\\"],
    ticks=[(1, 0.0, -10.0), (1, -1.0, 5.0), (1, 0.05, 7.0)],
    shares=["copy", "tx_time_s"],
    latencies=[[None, 0.5] * 4, [0.25] * 8, [None] * 8],
)
@example(
    ids=["rsu0", "obu0", "\u00e9"],
    ticks=[(1, 0.0, -10.0), (1, 0.05, 5.0)],
    shares=["seq", "shorter"],
    latencies=[[0.001] * 8, [None] * 8, [0.003] * 8],
)
def test_receivers_sharing_ticks_write_json_lines(
    tmp_path_factory, ids, ticks, shares, latencies
):
    log = sharing_log(ids, ticks, shares, latencies)
    path = tmp_path_factory.mktemp("logs") / "pass.log.jsonl"
    write_log(log, path)
    data = path.read_bytes()
    assert data.decode().splitlines()[1:] == [
        json_line(packet) for rid in ids for packet in packet_rows(log.records[rid], rid)
    ]
    assert log_bytes(read_log(path)) == data


@pytest.mark.parametrize("column", ["tx_time_s", "train_d_t_m"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_value_of_a_later_receiver_writes_no_file(tmp_path, column, value):
    seq, tx, position = np.arange(3), np.array([0.0, 0.05, 0.1]), np.array([-10.0, -5.0, 0.0])
    own = {"tx_time_s": tx.copy(), "train_d_t_m": position.copy()}
    own[column][2] = value
    log = columns_log(
        {
            "rsu0": PacketColumns(seq, tx, position, tx + 0.001),
            "obu0": PacketColumns(seq, own["tx_time_s"], own["train_d_t_m"], tx + 0.002),
        }
    )
    message = f"Out of range float values are not JSON compliant: {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        write_log(log, tmp_path / "pass.log.jsonl")
    assert list(tmp_path.iterdir()) == []


# How a log in a sequence holds the columns of the sequence's first rows:
# the same arrays, equal copies, copies with the other sign of zero in one
# train_d_t_m, one ulp moved in one tx_time_s, one row fewer, one ulp moved
# in one rx_time_s, or every row decoded, the first rows' lost ones too.
VARIANTS = ("same", "copy", "sign", "ulp", "shorter", "rx_ulp", "found")


def nudged(value: float) -> float:
    """value one ulp toward zero, or up from zero."""
    return math.nextafter(value, -math.inf if value > 0 else math.inf)


def variant_columns(base: list, variant: str) -> list:
    """(seq, tx_time_s, train_d_t_m, rx_time_s) of a variant of base's columns."""
    if variant == "same":
        return base
    seq, tx, position, rx = (column.copy() for column in base)
    middle = len(seq) // 2
    if variant == "sign":
        position[middle] *= -1
    elif variant == "ulp":
        tx[middle] = nudged(tx[middle])
    elif variant == "shorter":
        return [seq[:-1], tx[:-1], position[:-1], rx[:-1]]
    elif variant == "rx_ulp" and not math.isnan(rx[middle]):
        rx[middle] = nudged(rx[middle])
    elif variant == "found":
        rx = np.where(np.isnan(rx), tx + 0.5, rx)
    return [seq, tx, position, rx]


@given(
    ticks=tick_rows,
    logs=st.lists(
        st.lists(st.sampled_from(VARIANTS), min_size=1, max_size=2), min_size=1, max_size=5
    ),
    latencies=st.lists(st.none() | st.floats(0, 1e6), min_size=8, max_size=8),
)
# Two receivers sharing, one receiver, a zero of the other sign, the first
# ticks again, one ulp, then a shorter log after a shared one.
@example(
    ticks=[(1, 0.0, -10.0), (1, 0.05, 5.0), (1, 0.1, 7.5)],
    logs=[["same", "copy"], ["sign"], ["same"], ["ulp", "ulp"], ["copy", "shorter"]],
    latencies=[0.001] * 8,
)
# One rx_time_s one ulp off, then a row decoded only in the later log, then
# the first rows again.
@example(
    ticks=[(1, 0.0, -10.0), (1, 0.05, 5.0), (1, 0.1, 7.5)],
    logs=[["same", "same"], ["rx_ulp", "copy"], ["found", "found"], ["copy", "same"]],
    latencies=[0.001, None, 0.003] + [None] * 5,
)
def test_logs_written_through_one_holder_keep_their_own_bytes(
    tmp_path_factory, ticks, logs, latencies
):
    steps, tx, position = (np.array(column) for column in zip(*ticks))
    position[len(ticks) // 2] = 0.0  # a zero whose sign the "sign" variant flips
    latency = np.array([math.nan if v is None else v for v in latencies[: len(ticks)]])
    base = [np.cumsum(steps, dtype=np.uint64), tx, position, tx + latency]
    path = tmp_path_factory.mktemp("logs") / "pass.log.jsonl"
    holder = TextHolder()
    for variants in logs:
        records = {}
        # The second id is one a %-template would mangle.
        for rid, variant in zip(("rsu0", "%s%%"), variants):
            records[rid] = PacketColumns(*variant_columns(base, variant))
        log = columns_log(records)
        write_log(log, path, holder)
        assert path.read_bytes() == log_bytes(log)
        # The holder keeps one tick text, formatted from the last receiver's tick columns.
        held, text = holder.ticks
        assert [c.tobytes() for c in held.columns()[:3]] == [
            c.tobytes() for c in records[rid].columns()[:3]
        ]
        assert len(text) == len(records[rid])
        # It keeps the heads of this log's receivers, every decoded row's among them.
        assert set(holder.heads) == set(records)
        for rid, packets in records.items():
            rx, latency_s, heads = holder.heads[rid]
            decoded = packets.decoded
            assert rx[decoded].tobytes() == packets.rx_time_s[decoded].tobytes()
            assert latency_s[decoded].tobytes() == packets.latency_s[decoded].tobytes()
            assert all(isinstance(head, bytes) for head in heads[decoded])


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SUBURBAN = CONFIGS / "suburban_rsu_10mph.json"


def test_holder_keeps_at_most_320_bytes_per_packet_row(tmp_path):
    # The memory law in README: about 250 bytes per packet row of the pass
    # last written, linear in its size; 6,264 and 25,054 rows here. Then
    # the one-receiver open-track config as shipped (2,685 rows).
    base = load_config(SUBURBAN).scenario
    scenarios = [
        dataclasses.replace(base, train=dataclasses.replace(base.train, speed_mps=mph_to_mps(mph)))
        for mph in (10, 2.5)
    ]
    per_row = []
    for scenario in [*scenarios, load_config(CONFIGS / "open_track_20mph.json").scenario]:
        log = run_pass(scenario)
        holder = TextHolder()
        tracemalloc.start()
        try:
            write_log(log, tmp_path / "pass.log.jsonl", holder)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        per_row.append(kept / log.packet_count())
    assert all(200 < kept < 320 for kept in per_row), per_row
    assert abs(per_row[0] - per_row[1]) < 0.02 * per_row[1], per_row


def test_a_write_without_a_holder_drops_each_receivers_heads_once_its_lines_are_out(
    monkeypatch,
):
    log = run_pass(load_config(SUBURBAN).scenario)
    holders = []

    def holder():
        holders.append(TextHolder())
        return holders[-1]

    monkeypatch.setattr(logio, "fork_cpus", lambda: 1)
    monkeypatch.setattr(logio, "TextHolder", holder)
    held = [tuple(holders[0].heads) for _ in logio.log_text(log)]
    assert len(holders) == 1
    # While a receiver's lines are out, only its heads are held; none once the log is.
    first, second = log.receiver_ids()
    assert set(held) == {(), (first,), (second,)}
    assert holders[0].heads == {}
    # A caller's holder keeps them for its next log.
    kept = TextHolder()
    assert b"".join(logio.log_text(log, kept)) == b"".join(logio.log_text(log))
    assert set(kept.heads) == {first, second}


# The reader's number grammar as it was written with optional repeats.
OPTIONAL_NUMBER = r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?"


@settings(max_examples=300)
@given(text=st.text(alphabet="0123456789.eE+-", max_size=12))
@example(text="-0.5e+10")
@example(text="01")
@example(text="1.")
@example(text="1e")
def test_number_grammar_matches_its_optional_form(text):
    matched = re.fullmatch(_NUMBER, text) is not None
    assert matched == (re.fullmatch(OPTIONAL_NUMBER, text) is not None)
    if matched:
        assert json.loads(text) == float(text)
