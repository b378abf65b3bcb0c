"""A long pass's log read in two processes (logio.read_log).

When the header's pass holds logio.FORK_ROWS packet rows or more, the
process runs one thread and it may run on more than one CPU, read_log
forks a child that reads the lines past the first newline after the
body's midpoint, and reads the lines before it itself. Wherever that
might not give what one process reads, it reads in one. These tests
force each path: FORK_ROWS 0 for two processes, one CPU for one. Both
must give an equal SimLog or the same error, and a read that stops early
must leave no child behind.
"""

import dataclasses
import errno
import functools
import hashlib
import json
import os
import signal
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_log_fork import (
    assert_reaped,
    big_log,
    counted_forks,
    in_the_child,
    long_logs,
    two_processes,
)
from test_logio import columns_log

from railwarn import logio
from railwarn.logio import log_bytes, read_log
from railwarn.passlog import PacketColumns
from railwarn.protocol import WarningEvent


def with_pass(log, packets: int):
    """log with a header whose pass holds packets, rounded down to whole ticks."""
    ticks = max(packets // len(log.receivers), 1)
    return dataclasses.replace(log, duration_s=(ticks - 1) * log.tx_period_s)


def one_cpu(monkeypatch) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})


def outcome(path):
    """read_log's SimLog, or the text of its ValueError."""
    try:
        return read_log(path)
    except ValueError as exc:
        return str(exc)


def packet_edit(key, value):
    def edit(line: bytes) -> list:
        try:
            obj = json.loads(line)
        except ValueError:  # a line another fault left no JSON
            return [line]
        obj[key] = value
        return [json.dumps(obj, sort_keys=True).encode() + b"\n"]

    return edit


def event_before(line: bytes) -> list:
    """An event of the line's receiver, raised at its tx_time_s, then the line."""
    try:
        packet = json.loads(line)
        event = WarningEvent(packet["receiver_id"], "RSU", "indirect", packet["tx_time_s"], 0.0, 1)
    except (ValueError, KeyError):  # an event line, or one another fault left no JSON
        return [line]
    text = json.dumps({"type": "event", **dataclasses.asdict(event)}, sort_keys=True)
    return [text.encode() + b"\n", line]


# Each fault replaces a body line with the lines it gives. "past the
# limit" leaves the line, and the header's pass ends just before it
# instead; "CRLF after the header" ends the header line with "\r\n".
FAULTS = {
    "none": lambda line: [line],
    "latency_s": packet_edit("latency_s", 0.0001),
    "seq": packet_edit("seq", 0),
    "past the limit": lambda line: [line],
    "second header": lambda line: [line, b'{"type": "header", "version": 2}\n'],
    "unknown type": lambda line: [line, b'{"type": "bogus"}\n'],
    "blank line": lambda line: [b"\n", line],
    "CRLF": lambda line: [line[:-1] + b"\r\n"],
    "CR": lambda line: [b"\r" + line],
    "CRLF after the header": lambda line: [line],
    "event": event_before,
    "not UTF-8": lambda line: [b"\xff" + line],
}
# The faults a read in one process passes over.
HARMLESS = ("none", "blank line", "CRLF", "CR", "CRLF after the header")
# Where a fault goes, as a share of the body's lines: before the cut, in
# the parent's part, or after it, in the child's. A pass that ends at the
# first place still bounds a file of the whole body (_packet_limit).
PLACES = {"first": (0.4,), "second": (0.8,), "both": (0.4, 0.8)}


def write_faulty(path: Path, log, faults: list, final_newline: bool = True, text=None) -> None:
    """log's bytes (text, if given), with each (fault, place) of faults at
    the place's share of its body."""
    header, *body = (text or log_bytes(log)).splitlines(keepends=True)
    rows = [
        (min(int(share * len(body)), len(body) - 1), fault)
        for fault, place in faults
        for share in PLACES[place]
    ]
    for row, fault in sorted(rows, reverse=True):
        body[row : row + 1] = FAULTS[fault](body[row])
        if fault == "past the limit":
            header = log_bytes(with_pass(log, row)).splitlines(keepends=True)[0]
    if "CRLF after the header" in (fault for fault, _ in faults):
        header = header[:-1] + b"\r\n"
    text = b"".join([header, *body])
    path.write_bytes(text if final_newline else text.rstrip(b"\n"))


def read_both(monkeypatch, path: Path) -> tuple:
    """read_log's outcome in two processes and then in one, and the
    children forked, each reaped."""
    children = two_processes(monkeypatch)
    two = outcome(path)
    one_cpu(monkeypatch)
    one = outcome(path)
    for pid in children:
        assert_reaped(pid)
    return two, one, children


# tests/read_outcomes.json pins read_log's outcome on a 6,000-row log with
# each (fault, place) alone, with each pair of PAIRS, and on the files of
# the first with every "\n" written as "\r\n": the sha256 of log_bytes of
# the SimLog read, or the text of its ValueError with the directory as
# "<tmp>". Print the outcomes of the source on the path (this never writes
# the file itself):
#
#     PYTHONPATH=src:tests python tests/test_read_fork.py > read_outcomes.new.json
PINNED = Path(__file__).resolve().parent / "read_outcomes.json"
PAIRS = [
    (("latency_s", "first"), ("not UTF-8", "second")),
    (("CR", "first"), ("seq", "second")),
    (("CRLF after the header", "first"), ("unknown type", "second")),
    (("blank line", "both"), ("second header", "second")),
    (("not UTF-8", "second"), ("unknown type", "first")),
    (("event", "both"), ("seq", "second")),
    (("past the limit", "first"), ("CRLF", "second")),
    (("CRLF", "both"), ("latency_s", "second")),
    (("CR", "second"), ("not UTF-8", "first")),
    (("past the limit", "second"), ("event", "first")),
]


def pinned_cases() -> dict:
    """Each pinned case's name -> (faults, whether every "\\n" is "\\r\\n")."""
    singles = {f"{fault}/{place}": [(fault, place)] for fault in FAULTS for place in PLACES}
    pairs = {" + ".join(f"{f}/{p}" for f, p in pair): list(pair) for pair in PAIRS}
    return {
        **{name: (faults, False) for name, faults in {**singles, **pairs}.items()},
        **{f"CRLF file: {name}": (faults, True) for name, faults in singles.items()},
    }


@functools.cache
def pinned_log() -> tuple:
    """The log of the pinned cases and its bytes."""
    log = with_pass(big_log(3000), 6000)
    return log, log_bytes(log)


def write_case(path: Path, faults: list, crlf: bool) -> None:
    log, text = pinned_log()
    write_faulty(path, log, faults, text=text)
    if crlf:
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))


def pinned_form(result, directory) -> str:
    """An outcome as PINNED holds it."""
    if isinstance(result, str):
        return result.replace(str(directory), "<tmp>")
    return hashlib.sha256(log_bytes(result)).hexdigest()


@settings(max_examples=40, deadline=None)
@given(
    log=long_logs(),
    faults=st.lists(
        st.tuples(st.sampled_from(sorted(FAULTS)), st.sampled_from(sorted(PLACES))), max_size=3
    ),
    final_newline=st.booleans(),
)
def test_two_processes_read_what_one_reads(log, faults, final_newline):
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as monkeypatch:
        path = Path(tmp) / "pass.log.jsonl"
        one_cpu(monkeypatch)
        write_faulty(path, with_pass(log, log.packet_count()), faults, final_newline)
        two, one, children = read_both(monkeypatch, path)
    assert len(children) <= 1
    assert two == one


@pytest.mark.parametrize("place", sorted(PLACES))
@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_each_fault_reads_as_in_one_process(tmp_path, monkeypatch, fault, place):
    log = pinned_log()[0]
    path = tmp_path / "pass.log.jsonl"
    one_cpu(monkeypatch)
    write_case(path, [(fault, place)], False)
    two, one, children = read_both(monkeypatch, path)
    assert len(children) == 1
    assert two == one
    assert pinned_form(one, tmp_path) == json.loads(PINNED.read_text())[f"{fault}/{place}"]
    if fault in HARMLESS:
        assert one == log
    elif fault == "event":
        assert [event.trigger_time_s for event in one.events] == [
            0.05 * (int(share * 6000) % 3000) for share in PLACES[place]
        ]
    else:
        assert isinstance(one, str)


def test_crlf_files_and_fault_pairs_read_as_pinned(tmp_path, monkeypatch):
    # Each fault alone, in an LF file: test_each_fault_reads_as_in_one_process.
    pinned = json.loads(PINNED.read_text())
    assert sorted(pinned) == sorted(pinned_cases())
    path = tmp_path / "pass.log.jsonl"
    for name, (faults, crlf) in pinned_cases().items():
        if crlf or len(faults) > 1:
            one_cpu(monkeypatch)
            write_case(path, faults, crlf)
            two, one, children = read_both(monkeypatch, path)
            assert (name, len(children), two == one) == (name, 1, True)
            assert (name, pinned_form(one, tmp_path)) == (name, pinned[name])


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["LF", "CRLF", "CR"])
def test_each_line_end_reads_as_lf_in_bounded_batches(tmp_path, monkeypatch, newline):
    log, text = pinned_log()
    path = tmp_path / "pass.log.jsonl"
    path.write_bytes(text.replace(b"\n", newline))
    with open(path, "rb") as handle:
        batches = list(logio._byte_lines(path, handle.fileno(), 0, path.stat().st_size))
    assert "".join(batches) == text.decode()
    # A batch is the rest of one read and the whole lines of the next, even without a "\n".
    assert max(map(len, batches)) <= 2 * logio.READ_BATCH_BYTES
    one_cpu(monkeypatch)
    two, one, children = read_both(monkeypatch, path)
    assert two == one == log
    # A CR-only log has no "\n" to cut at.
    assert len(children) == (newline != b"\r")


@pytest.mark.parametrize(
    "before, shift, forks",
    [([], 0, 1), ([("CR", "second")], 1, 1), ([("CRLF after the header", "first")], 0, 1)],
)
def test_lines_past_the_cut_are_named_by_their_place_in_the_file(
    tmp_path, monkeypatch, before, shift, forks
):
    log = big_log(3000)
    path = tmp_path / "pass.log.jsonl"
    one_cpu(monkeypatch)
    write_faulty(path, log, [*before, ("seq", "second")])
    line = 2 + int(0.8 * 6000) + shift
    two, one, children = read_both(monkeypatch, path)
    assert len(children) == forks
    assert two == one == f"{path}:{line}: seq of receiver 'obu0' must increase"


def test_a_fault_in_the_childs_part_parses_it_once(tmp_path, monkeypatch):
    # The child returns its part's ValueError, and this process reads the
    # log in one process for the error line, without parsing that part again.
    path, parses = tmp_path / "pass.log.jsonl", tmp_path / "parses"
    one_cpu(monkeypatch)
    write_faulty(path, big_log(3000), [("unknown type", "second")])
    one = outcome(path)
    read_lines = logio._read_lines

    def counted(*args):
        if args[2] == 1:  # the child's part, numbered from 1
            with open(parses, "a") as handle:
                handle.write(f"{os.getpid()}\n")
        return read_lines(*args)

    monkeypatch.setattr(logio, "_read_lines", counted)
    children = two_processes(monkeypatch)
    assert outcome(path) == one
    assert len(children) == 1
    assert_reaped(children[0])
    assert parses.read_text().split() == [str(children[0])]


def write_big(path: Path, rows: int = 3000):
    log = big_log(rows)
    path.write_bytes(log_bytes(log))
    return log


def test_an_interrupt_in_the_parents_part_leaves_no_child(tmp_path, monkeypatch):
    path = tmp_path / "pass.log.jsonl"
    one_cpu(monkeypatch)
    write_big(path)
    children = two_processes(monkeypatch)
    parent, read_lines = os.getpid(), logio._read_lines

    def patched(*args):
        if os.getpid() != parent:
            time.sleep(60)
        elif args[2] == 2:  # the parent's part, from line 2
            raise KeyboardInterrupt
        return read_lines(*args)

    monkeypatch.setattr(logio, "_read_lines", patched)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        read_log(path)
    # The child is killed, not waited for.
    assert time.monotonic() - start < 30
    assert len(children) == 1
    assert_reaped(children[0])


def exit_killed():
    os.kill(os.getpid(), signal.SIGKILL)


def fail():
    raise RuntimeError("reading failed")


@pytest.mark.parametrize("act", [fail, exit_killed])
def test_a_failed_child_gives_the_one_process_read(tmp_path, monkeypatch, act):
    path = tmp_path / "pass.log.jsonl"
    one_cpu(monkeypatch)
    log = write_big(path)
    children = two_processes(monkeypatch)
    in_the_child(monkeypatch, act, "_read_lines")
    assert read_log(path) == log
    assert len(children) == 1
    assert_reaped(children[0])


def test_a_refused_spill_file_gives_the_one_process_read(tmp_path, monkeypatch):
    path = tmp_path / "pass.log.jsonl"
    one_cpu(monkeypatch)
    log = write_big(path)
    children = two_processes(monkeypatch)

    def refused(*args, **kwargs):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(tempfile, "TemporaryFile", refused)
    assert read_log(path) == log
    assert children == []


def test_one_cpu_or_a_second_thread_keeps_the_read_in_one_process(tmp_path, monkeypatch):
    path = tmp_path / "pass.log.jsonl"
    one_cpu(monkeypatch)
    log = write_big(path)
    children = two_processes(monkeypatch)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert read_log(path) == log
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    one_cpu(monkeypatch)
    assert read_log(path) == log
    assert children == []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert read_log(path) == log
    assert len(children) == 1
    assert_reaped(children[0])


def test_a_pass_below_the_threshold_is_read_in_one_process(tmp_path, monkeypatch):
    one_cpu(monkeypatch)
    paths = {}
    for rows in (logio.FORK_ROWS - 1, logio.FORK_ROWS):
        seq = np.arange(rows, dtype=np.uint64)
        tx = seq * 0.05
        log = with_pass(columns_log({"rsu0": PacketColumns(seq, tx, -350.0 + 0.5 * tx, tx)}), rows)
        paths[rows] = tmp_path / f"{rows}.log.jsonl", log
        paths[rows][0].write_bytes(log_bytes(log))
    children = counted_forks(monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    path, log = paths[logio.FORK_ROWS - 1]
    assert read_log(path) == log
    assert children == []
    path, log = paths[logio.FORK_ROWS]
    assert read_log(path) == log
    assert len(children) == 1
    assert_reaped(children[0])


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as monkeypatch:
        one_cpu(monkeypatch)
        path, outcomes = Path(tmp) / "pass.log.jsonl", {}
        for name, (faults, crlf) in pinned_cases().items():
            write_case(path, faults, crlf)
            outcomes[name] = pinned_form(outcome(path), tmp)
    json.dump(outcomes, sys.stdout, indent=1, sort_keys=True)
    print()
