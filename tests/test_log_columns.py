"""Packet columns, the chunked log writer and reader, and array binning.

Each fast path is checked against a simple form: the reader against json
on re-spaced lines, the writer against its own output read back, bin_per
against a per-packet dictionary count.
"""

import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scalar_reference import PacketRecord, columns_from_records, packet_rows

from railwarn import logio
from railwarn.analysis import PerBin, PerSeries, bin_per, extract_dwarn
from railwarn.cli import main
from railwarn.geometry import Placement
from railwarn.logio import (
    LOG_VERSION,
    MAX_PACKETS,
    PacketColumns,
    SimLog,
    log_bytes,
    read_field_log,
    read_log,
    write_log,
)
from railwarn.protocol import WarningEvent

RSU = Placement(id="rsu0", kind="RSU", offset_from_crossing_m=6.0, height_m=3.0)
OPEN_TRACK = Path(__file__).resolve().parent.parent / "configs" / "open_track_20mph.json"
SUBURBAN = OPEN_TRACK.with_name("suburban_rsu_10mph.json")

# Finite floats of every shape, with the edges named: signed zeros,
# subnormals and the largest doubles.
EDGES = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1.7976931348623157e308]
finite = st.one_of(st.sampled_from(EDGES), st.floats(allow_nan=False, allow_infinity=False))
# Receiver ids that need JSON escapes (quote, backslash, control, non-ASCII)
# and one that holds the writer's template character.
receiver_ids = st.text(
    alphabet=st.sampled_from(list('ab"\\%\n\u00e9\u2603\U0001f682')), min_size=1, max_size=6
)


def make_log(records: dict, receivers=None, events=()) -> SimLog:
    """A log of records, which maps each receiver id to its PacketColumns or PacketRecord rows.

    The records are hand-made packet sets, not a pass, so the header has no train run.
    """
    receivers = receivers or tuple(
        Placement(id=rid, kind="OBU", offset_from_crossing_m=1.0, height_m=1.5) for rid in records
    )
    return SimLog(
        digest="d" * 64,
        seed=3,
        train_speed_mps=None,
        tx_period_s=0.05,
        start_d_t_m=-350.0,
        end_d_t_m=350.0,
        duration_s=(350.0 - -350.0) / 4.4704,
        receivers=receivers,
        records={
            rid: rows if isinstance(rows, PacketColumns) else columns_from_records(rows, rid)
            for rid, rows in records.items()
        },
        events=list(events),
    )


@st.composite
def receiver_packets(draw, receiver_id):
    # At least one packet: a log is read only if every receiver has a line.
    seqs = sorted(draw(st.sets(st.integers(0, 2**63), min_size=1, max_size=12)))
    packets = []
    for seq in seqs:
        tx_time, rx_time = sorted((draw(finite), draw(finite)))
        # A decoded packet's latency_s, rx_time_s - tx_time_s, must be finite
        # to be written; test_decoded_latency_that_overflows_raises has the rest.
        decoded = draw(st.booleans()) and math.isfinite(rx_time - tx_time)
        packets.append(
            PacketRecord(
                seq=seq,
                tx_time_s=tx_time,
                train_d_t_m=draw(finite),
                receiver_id=receiver_id,
                decoded=decoded,
                rx_time_s=rx_time if decoded else None,
            )
        )
    return packets


@st.composite
def logs(draw):
    ids = draw(st.lists(receiver_ids, min_size=1, max_size=3, unique=True))
    records = {rid: draw(receiver_packets(rid)) for rid in ids}
    events = [
        WarningEvent(
            rid, "OBU", "direct", draw(finite.map(abs)), draw(finite), draw(st.integers(1, 99))
        )
        for rid in draw(st.lists(st.sampled_from(ids), max_size=2))
    ]
    return make_log(records, events=events)


def respace(line: str) -> str:
    """The same JSON object with other spacing, which only json parses."""
    return " " + line.replace('": ', '":', 1)


@given(log=logs(), respaced=st.sets(st.integers(1, 40)))
def test_round_trip_byte_for_byte(tmp_path_factory, log, respaced):
    path = tmp_path_factory.mktemp("logs") / "pass.log.jsonl"
    write_log(log, path)
    data = path.read_bytes()
    assert data == log_bytes(log)
    assert log_bytes(read_log(path)) == data
    loaded = read_log(path)
    assert loaded.records == log.records
    assert loaded.events == log.events

    lines = data.decode().split("\n")
    path.write_text(
        "\n".join(
            respace(line) if n in respaced and '"packet"' in line else line
            for n, line in enumerate(lines)
        )
    )
    assert log_bytes(read_log(path)) == data


@given(log=logs())
def test_iteration_rebuilds_the_records(log):
    rebuilt = make_log(
        {rid: packet_rows(packets, rid) for rid, packets in log.records.items()},
        receivers=log.receivers,
        events=log.events,
    )
    assert rebuilt.records == log.records
    assert log_bytes(rebuilt) == log_bytes(log)


def oracle_bins(positions, decoded, width):
    counts = {}
    for position, hit in zip(positions, decoded):
        index = math.floor(position / width)
        tx, rx = counts.get(index, (0, 0))
        counts[index] = (tx + 1, rx + hit)
    return [((i + 0.5) * width, tx, rx, i) for i, (tx, rx) in sorted(counts.items())]


@given(
    rows=st.lists(
        st.tuples(st.floats(-1e6, 1e6, allow_nan=False), st.booleans()), min_size=1, max_size=300
    ),
    width=st.floats(0.5, 1000.0),
)
def test_bin_per_counts_every_packet_once(rows, width):
    positions = [position for position, _ in rows]
    decoded = [hit for _, hit in rows]
    packets = PacketColumns(
        np.arange(len(rows)), np.zeros(len(rows)), positions, np.where(decoded, 0.004, np.nan)
    )
    series = bin_per(make_log({"rsu0": packets}, receivers=(RSU,)), width)
    assert sum(b.transmitted for b in series.bins) == len(rows)
    assert sum(b.received for b in series.bins) == sum(decoded)
    assert [(b.d_center_m, b.transmitted, b.received, b.index) for b in series.bins] == (
        oracle_bins(positions, decoded, width)
    )


@given(
    counts=st.lists(st.integers(0, 12), min_size=1, max_size=30),
    thresholds=st.tuples(st.integers(1, 13), st.integers(1, 13)),
)
def test_warning_range_never_grows_with_threshold(counts, thresholds):
    low, high = sorted(thresholds)
    bins = tuple(
        PerBin(-(i + 0.5) * 50.0, 12, received, (12 - received) / 12, -(i + 1))
        for i, received in enumerate(counts)
    )
    series = PerSeries("rsu0", 50.0, bins)
    assert extract_dwarn(series, high).warning_range_m <= extract_dwarn(series, low).warning_range_m


class TestPacketColumns:
    def test_nan_columns_compare_equal_and_rows_come_back(self):
        records = [
            PacketRecord(0, 0.0, -10.0, "rsu0", False),
            PacketRecord(1, 0.05, -9.5, "rsu0", True, 0.054),
        ]
        columns = columns_from_records(records, "rsu0")
        assert len(columns) == 2
        assert columns == columns_from_records(list(records), "rsu0")
        rows = packet_rows(columns, "rsu0")
        assert rows == records
        assert rows[1] == records[1] and rows[0].decoded is False
        other = columns_from_records(records[:1], "rsu0")
        assert (columns == other) is False

    def test_columns_are_read_only(self):
        columns = columns_from_records([PacketRecord(0, 0.0, -1.0, "a", False)], "a")
        with pytest.raises(ValueError):
            columns.train_d_t_m[0] = 5.0

    def test_records_filed_under_another_receiver_rejected(self):
        with pytest.raises(ValueError, match="filed under"):
            make_log({"a": [PacketRecord(0, 0.0, -1.0, "b", False)]})

    def test_undecoded_record_with_rx_time_rejected(self):
        with pytest.raises(ValueError, match="undecoded"):
            columns_from_records([PacketRecord(0, 0.0, -1.0, "a", False, 0.1)], "a")

    def test_integer_written_for_a_float_reads_back_as_float(self, tmp_path):
        log = make_log({"rsu0": [PacketRecord(0, 1.0, -2.0, "rsu0", False)]}, receivers=(RSU,))
        path = tmp_path / "pass.log.jsonl"
        write_log(log, path)
        path.write_text(path.read_text().replace('"tx_time_s": 1.0', '"tx_time_s": 1'))
        assert packet_rows(read_log(path).records["rsu0"], "rsu0")[0].tx_time_s == 1.0
        assert b'"tx_time_s": 1.0' in log_bytes(read_log(path))


def written_log(tmp_path, packets=3):
    records = [
        PacketRecord(k, k * 0.05, -10.0 + k, "rsu0", k % 2 == 0, k * 0.05 + 0.004)
        if k % 2 == 0
        else PacketRecord(k, k * 0.05, -10.0 + k, "rsu0", False)
        for k in range(packets)
    ]
    path = tmp_path / "pass.log.jsonl"
    write_log(make_log({"rsu0": records}, receivers=(RSU,)), path)
    return path, path.read_text().splitlines()


def rewrite(path, lines):
    path.write_text("\n".join(lines) + "\n")


def on_line(index, old, new):
    """An edit of written_log's lines that replaces old with new on one line."""
    return lambda lines: [*lines[:index], lines[index].replace(old, new), *lines[index + 1 :]]


class TestReaderRejects:
    def test_receiver_missing_from_header(self, tmp_path):
        path, lines = written_log(tmp_path)
        lines[2] = lines[2].replace('"rsu0"', '"ghost"')
        rewrite(path, lines)
        with pytest.raises(ValueError, match=r"pass\.log\.jsonl:3: receiver 'ghost' is not in"):
            read_log(path)

    @pytest.mark.parametrize("seq", ["0", "1"])
    def test_repeated_or_decreasing_seq(self, tmp_path, seq):
        path, lines = written_log(tmp_path)
        lines[3] = lines[3].replace('"seq": 2', f'"seq": {seq}')
        rewrite(path, lines)
        with pytest.raises(ValueError, match=r"pass\.log\.jsonl:4: seq of receiver 'rsu0'"):
            read_log(path)

    def test_missing_key(self, tmp_path):
        path, lines = written_log(tmp_path)
        obj = json.loads(lines[1])
        del obj["seq"]
        lines[1] = json.dumps(obj, sort_keys=True)
        rewrite(path, lines)
        with pytest.raises(ValueError, match=r"pass\.log\.jsonl:2: packet line has no 'seq'"):
            read_log(path)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_literal(self, tmp_path, literal):
        path, lines = written_log(tmp_path)
        lines[2] = lines[2].replace('"train_d_t_m": -9.0', f'"train_d_t_m": {literal}')
        rewrite(path, lines)
        with pytest.raises(ValueError, match=r"pass\.log\.jsonl:3: non-finite number"):
            read_log(path)

    def test_overflowing_number(self, tmp_path):
        path, lines = written_log(tmp_path)
        lines[2] = lines[2].replace('"train_d_t_m": -9.0', '"train_d_t_m": -9e999')
        rewrite(path, lines)
        with pytest.raises(ValueError, match=r"pass\.log\.jsonl:3: packet values must be finite"):
            read_log(path)

    def test_decoded_without_rx_time(self, tmp_path):
        path, lines = written_log(tmp_path)
        lines[1] = lines[1].replace('"rx_time_s": 0.004', '"rx_time_s": null')
        rewrite(path, lines)
        with pytest.raises(ValueError, match=r":2: decoded records need rx_time_s"):
            read_log(path)

    def test_rx_before_tx(self, tmp_path):
        path, lines = written_log(tmp_path)
        lines[3] = lines[3].replace('"rx_time_s": 0.10400000000000001', '"rx_time_s": 0.01')
        rewrite(path, lines)
        with pytest.raises(ValueError, match=r":4: rx_time_s must be >= tx_time_s"):
            read_log(path)

    def test_latency_other_than_rx_minus_tx(self, tmp_path, capsys):
        path, lines = written_log(tmp_path)
        lines[3] = lines[3].replace('"latency_s": 0.0040000000000000036', '"latency_s": 0.0001')
        rewrite(path, lines)
        message = "latency_s must be exactly rx_time_s - tx_time_s"
        with pytest.raises(ValueError, match=rf"pass\.log\.jsonl:4: {message}"):
            read_log(path)
        assert main(["analyze", str(path), "--out-dir", str(tmp_path / "out")]) == 3
        captured = capsys.readouterr()
        assert captured.err == f"error: runtime: {path}:4: {message}\n"
        assert captured.out == "" and not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "edit, line, message",
        [
            pytest.param(
                lambda lines: ["", *lines], 1, "line 1 must be the header, got a 'blank' line",
                id="blank line 1",
            ),
            pytest.param(
                lambda lines: [lines[1], *lines], 1,
                "line 1 must be the header, got a 'packet' line", id="packet line 1",
            ),
            pytest.param(on_line(0, "}", ""), 1, "invalid JSON", id="bad header JSON"),
            pytest.param(
                lambda lines: [*lines, lines[0]], 5, "second header line", id="header twice"
            ),
            pytest.param(
                on_line(2, '"packet"', '"packets"'), 3, "unknown line type 'packets'",
                id="unknown type",
            ),
            pytest.param(
                on_line(2, '"seq": 1', '"seq": 1.0'), 3, "seq must be an integer, got 1.0",
                id="seq not an integer",
            ),
            pytest.param(
                on_line(2, "false", "0"), 3, "decoded must be true or false, got 0",
                id="decoded not a bool",
            ),
            pytest.param(
                on_line(2, '"rx_time_s": null', '"rx_time_s": 0.06'), 3,
                "undecoded records carry no rx_time_s", id="undecoded with rx_time_s",
            ),
        ],
    )
    def test_line_out_of_place_or_mistyped(self, tmp_path, capsys, edit, line, message):
        path, lines = written_log(tmp_path)
        rewrite(path, edit(lines))
        with pytest.raises(ValueError, match=rf"pass\.log\.jsonl:{line}: {re.escape(message)}"):
            read_log(path)
        assert main(["coverage", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: runtime: {path}:{line}: {message}")
        assert captured.err.count("\n") == 1 and captured.out == ""

    def test_cli_reports_runtime_error_with_line(self, tmp_path, capsys):
        path, lines = written_log(tmp_path)
        lines[2] = lines[2].replace('"rsu0"', '"ghost"')
        rewrite(path, lines)
        assert main(["coverage", str(path)]) == 3
        assert "pass.log.jsonl:3:" in capsys.readouterr().err


class TestWriter:
    @pytest.mark.parametrize("where", ["missing/pass.log.jsonl", "directory"])
    def test_error_names_the_log_not_its_temp_file(self, tmp_path, where):
        path = tmp_path / where
        if where == "directory":
            path.mkdir()
        with pytest.raises(OSError) as caught:
            write_log(make_log({"rsu0": []}, receivers=(RSU,)), path)
        assert str(caught.value).endswith(f": {str(path)!r}")
        assert ".tmp" not in str(caught.value)
        assert [p.name for p in tmp_path.iterdir()] == ([] if where != "directory" else [where])

    def test_failed_write_leaves_no_file(self, tmp_path):
        bad = make_log({"rsu0": [PacketRecord(0, 0.0, math.inf, "rsu0", False)]}, receivers=(RSU,))
        path = tmp_path / "pass.log.jsonl"
        with pytest.raises(ValueError, match="JSON compliant"):
            write_log(bad, path)
        assert list(tmp_path.iterdir()) == []

    def test_decoded_latency_that_overflows_raises(self):
        bad = make_log(
            {"rsu0": [PacketRecord(0, -1e308, -1.0, "rsu0", True, 1e308)]}, receivers=(RSU,)
        )
        with pytest.raises(ValueError, match="JSON compliant: inf"):
            log_bytes(bad)


class TestFieldCsv:
    def test_rows_sorted_stably_by_seq(self, tmp_path):
        path = tmp_path / "capture.csv"
        path.write_text(
            "rx_time_s,decoded,seq,train_d_t_m,tx_time_s\n"
            "0.104,1,2,-119.0,0.10\n"
            ",0,0,-120.0,0.0\n"
            ",0,1,-119.5,0.05\n"
        )
        packets = read_field_log(path).records["field"]
        assert packets.seq.tolist() == [0, 1, 2]
        assert packets.decoded.tolist() == [False, False, True]
        assert packet_rows(packets, "field")[2].latency_s == pytest.approx(0.004)

    def test_rx_before_tx_names_the_row(self, tmp_path):
        path = tmp_path / "capture.csv"
        path.write_text(
            "seq,tx_time_s,train_d_t_m,decoded,rx_time_s\n0,0.0,-120.0,0,\n1,0.05,-119.5,1,0.01\n"
        )
        with pytest.raises(ValueError, match=r"capture\.csv:3: rx_time_s must be >= tx_time_s"):
            read_field_log(path)

    def test_repeated_seq_names_the_row(self, tmp_path):
        path = tmp_path / "capture.csv"
        path.write_text(
            "seq,tx_time_s,train_d_t_m,decoded,rx_time_s\n"
            "5,0.1,-119.0,0,\n3,0.0,-120.0,0,\n5,0.1,-119.0,0,\n"
        )
        with pytest.raises(
            ValueError, match=r"capture\.csv:4: seq of receiver 'field' must increase"
        ):
            read_field_log(path)

    def test_fault_names_the_lowest_row(self, tmp_path):
        # Both rows break the rx >= tx rule; seq order puts row 3 first.
        path = tmp_path / "capture.csv"
        path.write_text(
            "seq,tx_time_s,train_d_t_m,decoded,rx_time_s\n"
            "9,0.5,-119.0,1,0.1\n1,0.05,-120.0,1,0.01\n"
        )
        with pytest.raises(ValueError, match=r"capture\.csv:2: rx_time_s must be >= tx_time_s"):
            read_field_log(path)

    @pytest.mark.parametrize(
        "tx, rx", [("nan", ""), ("inf", "inf"), ("-1e308", "1e308"), ("0.05", "nan")]
    )
    def test_non_finite_value_or_latency_names_the_row(self, tmp_path, tx, rx):
        path = tmp_path / "capture.csv"
        path.write_text(
            "seq,tx_time_s,train_d_t_m,decoded,rx_time_s\n"
            f"0,0.0,-120.0,1,0.004\n1,{tx},-119.5,{1 if rx else 0},{rx}\n"
        )
        with pytest.raises(ValueError, match=r"capture\.csv:3: packet values must be finite"):
            read_field_log(path)

    def test_bad_number_names_the_row(self, tmp_path):
        path = tmp_path / "capture.csv"
        path.write_text("seq,tx_time_s,train_d_t_m,decoded,rx_time_s\n0,zero,-120.0,0,\n")
        with pytest.raises(ValueError, match=r"capture\.csv:2:"):
            read_field_log(path)

    def test_decoded_texts(self, tmp_path):
        path = tmp_path / "capture.csv"
        texts = ["1", " TRUE ", "Yes", "0", "false", "NO "]
        rows = [f"{k},{k * 0.05},-120.0,{text},{k * 0.05 + 0.004}" for k, text in enumerate(texts)]
        path.write_text("\n".join(["seq,tx_time_s,train_d_t_m,decoded,rx_time_s", *rows]) + "\n")
        assert read_field_log(path).records["field"].decoded.tolist() == [True] * 3 + [False] * 3

    @pytest.mark.parametrize("text", ["abc", "2", "", "y"])
    def test_other_decoded_text_names_the_row(self, tmp_path, text):
        path = tmp_path / "capture.csv"
        path.write_text(
            "seq,tx_time_s,train_d_t_m,decoded,rx_time_s\n"
            f"0,0.0,-120.0,1,0.004\n1,0.05,-119.5,{text},\n"
        )
        with pytest.raises(ValueError, match=rf"capture\.csv:3: decoded must be .*, got {text!r}"):
            read_field_log(path)


@pytest.mark.parametrize("seq", ["-1", "18446744073709551616"])
def test_seq_outside_uint64_names_the_line(tmp_path, seq):
    path, lines = written_log(tmp_path)
    lines[2] = lines[2].replace('"seq": 1', f'"seq": {seq}')
    rewrite(path, lines)
    with pytest.raises(ValueError, match=rf"pass\.log\.jsonl:3: seq must be in \[0, 2\*\*64\), got {seq}"):
        read_log(path)
    capture = tmp_path / "capture.csv"
    capture.write_text(
        f"seq,tx_time_s,train_d_t_m,decoded,rx_time_s\n0,0.0,-1.0,0,\n{seq},0.05,0.0,0,\n"
    )
    with pytest.raises(ValueError, match=rf"capture\.csv:3: seq must be in \[0, 2\*\*64\)"):
        read_field_log(capture)


@pytest.mark.parametrize("number", ["+1.0", "01.0", ".5", "1.", "1e", "0x10"])
def test_numbers_outside_the_json_grammar_rejected(tmp_path, number):
    path, lines = written_log(tmp_path)
    lines[2] = lines[2].replace('"tx_time_s": 0.05', f'"tx_time_s": {number}')
    rewrite(path, lines)
    with pytest.raises(ValueError, match=r"pass\.log\.jsonl:3: invalid JSON"):
        read_log(path)


class TestLogVersion:
    def test_writer_writes_version_2(self, tmp_path):
        path, lines = written_log(tmp_path)
        assert json.loads(lines[0])["version"] == LOG_VERSION == 2

    def test_version_1_reads_as_version_2(self, tmp_path):
        path, lines = written_log(tmp_path)
        expected = read_log(path)
        lines[0] = lines[0].replace('"version": 2', '"version": 1')
        rewrite(path, lines)
        log = read_log(path)
        assert log.records == expected.records and log.events == expected.events

    @pytest.mark.parametrize("version", ["0", "3", "true", '"2"', "null"])
    def test_other_versions_rejected_at_the_header(self, tmp_path, version):
        path, lines = written_log(tmp_path)
        lines[0] = lines[0].replace('"version": 2', f'"version": {version}')
        rewrite(path, lines)
        with pytest.raises(ValueError, match=r"pass\.log\.jsonl:1: unsupported log version"):
            read_log(path)

    def test_missing_version_rejected(self, tmp_path):
        path, lines = written_log(tmp_path)
        header = json.loads(lines[0])
        del header["version"]
        lines[0] = json.dumps(header, sort_keys=True)
        rewrite(path, lines)
        with pytest.raises(ValueError, match=r"pass\.log\.jsonl:1: unsupported log version None"):
            read_log(path)


def with_header(tmp_path, **fields):
    """A written log whose header has these fields set."""
    path, lines = written_log(tmp_path)
    lines[0] = json.dumps({**json.loads(lines[0]), **fields}, sort_keys=True)
    rewrite(path, lines)
    return path


class TestHeaderFields:
    """Every header field is checked where the header line is read: a bad one
    names path:1 and the key, and the CLI exits 3 with one error line."""

    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("coverage", "analysis_window_m", "abc"),
            ("analyze", "tx_period_s", "x"),
            ("coverage", "coverage_threshold", 2.5),
            ("coverage", "coverage_threshold", True),
            ("coverage", "coverage_threshold", 0),
            ("coverage", "analysis_window_m", -5.0),
            ("analyze", "tx_period_s", -1.0),
            # The pass's shape, checked before the file-size bound.
            ("coverage", "duration_s", -5.0),
            ("coverage", "duration_s", 200.0),
            ("coverage", "train_speed_mps", -1.0),
            ("coverage", "start_d_t_m", 10.0),
            ("coverage", "receivers", []),
            ("analyze", "receivers", []),
        ],
    )
    def test_cli_exits_3_naming_line_and_key(self, tmp_path, capsys, command, key, value):
        path = with_header(tmp_path, **{"train_speed_mps": 4.4704, key: value})
        out = {"analyze": "--out-dir", "coverage": "--out"}[command]
        assert main([command, str(path), out, str(tmp_path / "out")]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: runtime: {path}:1: ")
        assert key in captured.err
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("digest", 5),
            ("seed", "1"),
            ("seed", 1.0),
            ("train_speed_mps", "fast"),
            ("tx_period_s", None),
            ("tx_period_s", 0.0),
            ("start_d_t_m", None),
            ("end_d_t_m", [1]),
            ("duration_s", True),
            ("analysis_window_m", None),
            ("coverage_threshold", "5"),
            ("receivers", []),
            ("receivers", {"id": "rsu0"}),
            ("receivers", ["rsu0"]),
            ("receivers", [dataclasses.asdict(RSU)] * 2),
        ],
    )
    def test_wrong_type_or_range_rejected(self, tmp_path, key, value):
        with pytest.raises(ValueError, match=rf"pass\.log\.jsonl:1: .*{key}"):
            read_log(with_header(tmp_path, **{key: value}))

    def test_pass_shape_rules(self, tmp_path):
        with pytest.raises(ValueError, match=r"pass\.log\.jsonl:1: duration_s: must be >= 0"):
            read_log(with_header(tmp_path, duration_s=-5.0))
        # Without a train run, only the duration's sign and the order of the ends hold.
        free = {"train_speed_mps": None, "duration_s": 200.0}
        assert read_log(with_header(tmp_path, **free)).duration_s == 200.0
        reversed_ends = with_header(tmp_path, **free, start_d_t_m=5.0, end_d_t_m=-5.0)
        with pytest.raises(ValueError, match=r":1: start_d_t_m: must be <= end_d_t_m -5\.0, got 5"):
            read_log(reversed_ends)
        with pytest.raises(ValueError, match=r":1: duration_s: must be 156\.58\d* for this train"):
            read_log(with_header(tmp_path, train_speed_mps=4.4704, duration_s=156.59))

    @pytest.mark.parametrize("key, value", [("id", 5), ("height_m", "x"), ("boresight_deg", "up")])
    def test_receiver_fields_checked(self, tmp_path, key, value):
        path, lines = written_log(tmp_path)
        header = json.loads(lines[0])
        header["receivers"][0][key] = value
        lines[0] = json.dumps(header, sort_keys=True)
        rewrite(path, lines)
        with pytest.raises(ValueError, match=rf"pass\.log\.jsonl:1: receiver {key}"):
            read_log(path)


EVENT = {
    "type": "event",
    "receiver_id": "rsu0",
    "source": "RSU",
    "mode": "indirect",
    "trigger_time_s": 1.5,
    "train_d_t_at_trigger_m": -120.5,
    "packets_seen": 5,
    "relay_delivery_time_s": 1.504,
}


def with_event(tmp_path, **fields):
    """A written log with one event line, these fields set."""
    path, lines = written_log(tmp_path)
    rewrite(path, [*lines, json.dumps({**EVENT, **fields}, sort_keys=True)])
    return path


def with_obu_event(tmp_path, **fields):
    """A written log whose header adds OBU obu1, which holds its last packet
    line, with one direct event of obu1."""
    obu = {"receiver_id": "obu1", "source": "OBU", "mode": "direct", "relay_delivery_time_s": None}
    path = with_event(tmp_path, **{**obu, **fields})
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    header["receivers"].append({**header["receivers"][0], "id": "obu1", "kind": "OBU"})
    lines[0] = json.dumps(header, sort_keys=True)
    lines[3] = lines[3].replace('"receiver_id": "rsu0"', '"receiver_id": "obu1"')
    rewrite(path, lines)
    return path


class TestEventFields:
    """Each event field is checked against its WarningEvent annotation where
    the line is read: a bad one names path:line and the key."""

    @pytest.mark.parametrize(
        "key, value",
        [
            ("receiver_id", 5),
            ("source", None),
            ("mode", ["indirect"]),
            ("trigger_time_s", None),
            ("trigger_time_s", "1.5"),
            ("train_d_t_at_trigger_m", True),
            ("packets_seen", "x"),
            ("packets_seen", 5.0),
            ("relay_delivery_time_s", "late"),
        ],
    )
    def test_wrong_type_rejected(self, tmp_path, key, value):
        with pytest.raises(ValueError, match=rf"pass\.log\.jsonl:5: event {key}: expected"):
            read_log(with_event(tmp_path, **{key: value}))

    @pytest.mark.parametrize(
        "key, value",
        [
            ("receiver_id", "ghost"),
            ("source", "OBU"),
            ("mode", "sideways"),
            ("mode", "direct"),
            ("packets_seen", 0),
            ("packets_seen", -4),
        ],
    )
    def test_value_not_matching_the_header_rejected(self, tmp_path, key, value):
        with pytest.raises(ValueError, match=rf"pass\.log\.jsonl:5: event {key}: "):
            read_log(with_event(tmp_path, **{key: value}))

    def test_obu_event_mode_is_direct(self, tmp_path):
        assert read_log(with_obu_event(tmp_path)).events[0].mode == "direct"
        with pytest.raises(ValueError, match=r"pass\.log\.jsonl:5: event mode: must be 'direct'"):
            read_log(with_obu_event(tmp_path, mode="indirect"))

    def test_cli_exits_3_on_values(self, tmp_path, capsys):
        path = with_event(tmp_path, receiver_id="ghost", mode="sideways", packets_seen=-4)
        assert main(["coverage", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: runtime: {path}:5: event receiver_id: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_cli_exits_3(self, tmp_path, capsys):
        path = with_event(tmp_path, packets_seen="x", trigger_time_s=None)
        assert main(["coverage", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: runtime: {path}:5: event ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"trigger_time_s": -5.0}, "trigger_time_s: must be >= 0, got -5.0"),
            (
                {"trigger_time_s": -5.0, "relay_delivery_time_s": -66.4},
                "trigger_time_s: must be >= 0, got -5.0",
            ),
            (
                {"relay_delivery_time_s": 1.0},
                "relay_delivery_time_s: must be >= trigger_time_s 1.5, got 1.0",
            ),
        ],
    )
    def test_times_before_their_cause_rejected(self, tmp_path, fields, message):
        with pytest.raises(ValueError, match=rf"pass\.log\.jsonl:5: event {message}"):
            read_log(with_event(tmp_path, **fields))

    def test_relay_at_its_trigger_accepted(self, tmp_path):
        # A relay adds a delay of at least zero.
        path = with_event(tmp_path, trigger_time_s=0.0, relay_delivery_time_s=0.0)
        assert read_log(path).events[0].relay_delivery_time_s == 0.0

    def test_direct_event_has_no_relay(self, tmp_path):
        assert read_log(with_obu_event(tmp_path)).events[0].relay_delivery_time_s is None
        with pytest.raises(
            ValueError,
            match=r"pass\.log\.jsonl:5: event relay_delivery_time_s: a direct event has no relay",
        ):
            read_log(with_obu_event(tmp_path, relay_delivery_time_s=1.0))

    def test_cli_exits_3_on_times(self, tmp_path, capsys):
        path = with_event(tmp_path, relay_delivery_time_s=1.0)
        assert main(["coverage", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith(
            f"error: runtime: {path}:5: event relay_delivery_time_s: must be >= trigger_time_s"
        )
        assert captured.err.count("\n") == 1
        assert captured.out == ""


def with_pass(tmp_path, duration_s, tx_period_s=0.05, receivers=1):
    """A written log of 3 packets whose header declares this pass, with no
    train run to fix its duration; a second receiver rsu1 holds the last."""
    header = {"duration_s": duration_s, "tx_period_s": tx_period_s, "train_speed_mps": None}
    if receivers == 1:
        return with_header(tmp_path, **header)
    other = {**dataclasses.asdict(RSU), "id": "rsu1"}
    path = with_header(tmp_path, **header, receivers=[dataclasses.asdict(RSU), other])
    lines = path.read_text().splitlines()
    lines[3] = lines[3].replace('"receiver_id": "rsu0"', '"receiver_id": "rsu1"')
    rewrite(path, lines)
    return path


class TestReadBounds:
    """The header bounds a read before any packet line: its pass holds at
    most MAX_PACKETS packets, the file at most a line's worth of bytes per
    packet, and reading stops at the first packet line past the pass."""

    @pytest.mark.parametrize(
        "receivers, duration_s, fits",
        [
            (1, MAX_PACKETS - 1.0, True),
            (1, float(MAX_PACKETS), False),
            (2, MAX_PACKETS / 2 - 1.0, True),
            (2, MAX_PACKETS / 2, False),
            (1, 1e308, False),
        ],
    )
    def test_header_pass_at_most_max_packets(self, tmp_path, receivers, duration_s, fits):
        path = with_pass(tmp_path, duration_s, tx_period_s=1.0, receivers=receivers)
        if fits:
            assert read_log(path).packet_count() == 3
        else:
            with pytest.raises(
                ValueError,
                match=rf"pass\.log\.jsonl:1: pass needs .* packets, more than the limit of "
                rf"{MAX_PACKETS}$",
            ):
                read_log(path)

    @pytest.mark.parametrize("duration_s", [1e308, -1e308])
    def test_vast_tick_ratio_does_not_overflow(self, tmp_path, duration_s):
        path = with_pass(tmp_path, duration_s, tx_period_s=5e-324)
        # A negative duration is refused by its sign before the ratio is taken.
        message = "pass needs inf transmit ticks" if duration_s > 0 else "duration_s: must be >= 0"
        with pytest.raises(ValueError, match=rf"pass\.log\.jsonl:1: {message}"):
            read_log(path)

    def test_stops_at_the_first_packet_line_past_the_pass(self, tmp_path):
        # 0.05 s at 0.05 s per tick is 2 ticks; the third packet line is
        # refused before it is converted, so its bad seq is never reached.
        path = with_pass(tmp_path, 0.05)
        lines = path.read_text().splitlines()
        lines[3] = lines[3].replace('"seq": 2', '"seq": -1')
        rewrite(path, lines)
        with pytest.raises(
            ValueError, match=r"pass\.log\.jsonl:4: more packet lines than the pass holds \(2\)"
        ):
            read_log(path)

    def test_fast_path_stops_at_the_pass(self, tmp_path):
        path = with_pass(tmp_path, 0.05)
        with pytest.raises(ValueError, match=r"pass\.log\.jsonl:4: more packet lines"):
            read_log(path)
        assert read_log(with_pass(tmp_path, 0.1)).packet_count() == 3

    def test_file_larger_than_the_pass_can_fill(self, tmp_path):
        path = with_pass(tmp_path, 0.1)
        with open(path, "a") as handle:
            handle.write(" " * 4000 + "\n")
        with pytest.raises(
            ValueError, match=r"pass\.log\.jsonl:1: file is \d+ bytes, more than its pass can fill"
        ):
            read_log(path)

    def test_cli_exits_3_with_one_line(self, tmp_path, capsys):
        path = with_pass(tmp_path, float(MAX_PACKETS), tx_period_s=1.0)
        assert main(["coverage", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: runtime: {path}:1: pass needs 4000001 transmit ticks")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_a_simulated_log_holds_its_whole_pass(self, tmp_path, capsys):
        # The open-track pass has 2685 ticks at its one receiver; cut, it holds 999.
        path, cut = tmp_path / "o.log.jsonl", tmp_path / "cut.log.jsonl"
        assert main(["simulate", str(OPEN_TRACK), "-o", str(path)]) == 0
        cut.write_text("".join(path.read_text().splitlines(keepends=True)[:1000]))
        capsys.readouterr()
        assert main(["coverage", str(cut), "--out", str(tmp_path / "coverage.csv")]) == 3
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: runtime: {cut}: receiver 'obu0' has 999 packet lines, "
            "not the 2685 of its pass\n"
        )
        assert captured.out == "" and not (tmp_path / "coverage.csv").exists()
        # Without a train run a header fixes no tick count, but each of its
        # receivers still needs a packet line: none at all, or only rsu0's.
        suburban = tmp_path / "s.log.jsonl"
        assert main(["simulate", str(SUBURBAN), "-o", str(suburban)]) == 0
        for source, keep, missing in ((path, "", "obu0"), (suburban, '"rsu0"', "obu0")):
            lines = source.read_text().splitlines()
            header = {**json.loads(lines[0]), "train_speed_mps": None}
            packets = [line for line in lines[1:] if keep and keep in line and '"packet"' in line]
            rewrite(cut, [json.dumps(header, sort_keys=True), *packets])
            capsys.readouterr()
            for command in (["coverage"], ["analyze", "--out-dir", str(tmp_path / "out")]):
                assert main([*command, str(cut)]) == 3
                assert capsys.readouterr().err == (
                    f"error: runtime: {cut}: receiver {missing!r} has 0 packet lines, "
                    "not at least 1\n"
                )

    def test_field_capture_stops_at_the_row_past_max_packets(self, tmp_path, monkeypatch):
        monkeypatch.setattr(logio, "MAX_PACKETS", 3)
        path = tmp_path / "capture.csv"
        lines = ["seq,tx_time_s,train_d_t_m,decoded,rx_time_s"]
        lines += [f"{k},{k * 0.05},-120.0,0," for k in range(4)]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"capture\.csv:5: more than 3 packet rows"):
            read_field_log(path)
        path.write_text("\n".join(lines[:4]) + "\n")
        assert read_field_log(path).packet_count() == 3
