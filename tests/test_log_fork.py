"""A long pass's log formatted in two processes (logio.log_text).

Without a holder, log_text forks a child that formats each receiver's
second part into a temporary file, when the pass has logio.FORK_ROWS rows
or more, the process runs one thread and it may run on more than one CPU.
These tests force each path: FORK_ROWS 0 for two processes, one CPU for
one. The two must write the same bytes, and a write that stops early must
leave no child behind.
"""

import errno
import io
import math
import os
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_all_or_nothing import run
from test_logio import columns_log

from railwarn import logio
from railwarn.config import load_config
from railwarn.engine import run_pass
from railwarn.logio import WRITE_BATCH_ROWS, log_bytes, log_text
from railwarn.passlog import PacketColumns
from railwarn.protocol import WarningEvent

SUBURBAN = Path(__file__).resolve().parent.parent / "configs" / "suburban_rsu_10mph.json"


def counted_forks(monkeypatch) -> list:
    """The pids of the children os.fork makes from here on."""
    children, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            children.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return children


def two_processes(monkeypatch) -> list:
    """Make every pass's log formatted in two processes, as on two CPUs,
    and return the pids of the children forked from here on."""
    monkeypatch.setattr(logio, "FORK_ROWS", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    return counted_forks(monkeypatch)


def assert_reaped(pid: int) -> None:
    # Not waitpid(-1), which would reap any child of this process.
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)


# A receiver's rows: a few, or around one or two write batches.
row_counts = st.sampled_from([1, 2, 3]) | st.builds(
    lambda batches, rest: batches * WRITE_BATCH_ROWS + rest, st.integers(1, 2), st.integers(-2, 2)
)
# How a later receiver holds the first's tick columns: the same arrays, its
# own positions, or one row fewer.
TICKS = ("shared", "unshared", "shorter")
# Which of a receiver's packets are decoded.
DECODED = ("all", "none", "some")


@st.composite
def long_logs(draw):
    rows = draw(row_counts)
    random = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    seq = np.arange(rows, dtype=np.uint64)
    tx = seq * 0.05
    position = -350.0 + 0.5 * tx
    records = {}
    ids = draw(st.lists(st.sampled_from(["rsu0", "obu0", "%r"]), min_size=1, unique=True))
    for index, rid in enumerate(ids):
        ticks = "shared" if index == 0 else draw(st.sampled_from(TICKS))
        mine = (seq, tx, position)
        if ticks == "unshared":
            mine = (seq, tx, position + index)
        elif ticks == "shorter":
            mine = tuple(column[:-1] for column in mine)
        decoded = {
            "all": np.ones(len(mine[0]), bool),
            "none": np.zeros(len(mine[0]), bool),
            "some": random.random(len(mine[0])) < 0.6,
        }[draw(st.sampled_from(DECODED))]
        latency = random.uniform(0.003, 0.006, len(mine[0]))
        records[rid] = PacketColumns(*mine, np.where(decoded, mine[1] + latency, math.nan))
    events = []
    if draw(st.booleans()):
        events = [WarningEvent(ids[0], "RSU", "indirect", 12.25, -120.5, 5, 12.254)]
    return columns_log(records, events)


def big_log(rows: int = 50_000):
    """A two-receiver pass sharing its tick columns, long enough that its
    second writer process is still formatting when the first chunk is out."""
    seq = np.arange(rows, dtype=np.uint64)
    tx = seq * 0.05
    return columns_log(
        {rid: PacketColumns(seq, tx, -350.0 + 0.5 * tx, tx + 0.004) for rid in ("rsu0", "obu0")}
    )


@settings(max_examples=25, deadline=None)
@given(log=long_logs())
def test_two_processes_write_the_bytes_of_one(log):
    with pytest.MonkeyPatch.context() as monkeypatch:
        children = two_processes(monkeypatch)
        two = log_bytes(log)
        assert len(children) == 1
        assert_reaped(children[0])
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        one = log_bytes(log)
        assert len(children) == 1
    assert two == one


def test_a_pass_below_the_threshold_stays_in_one_process(monkeypatch):
    threshold = logio.FORK_ROWS
    children = two_processes(monkeypatch)
    monkeypatch.setattr(logio, "FORK_ROWS", threshold)
    log = big_log(threshold // 2 - 1)
    log_bytes(log)
    assert children == []
    monkeypatch.setattr(logio, "FORK_ROWS", log.packet_count())
    log_bytes(log)
    assert len(children) == 1


def test_a_write_without_a_holder_formats_each_tick_and_head_once(monkeypatch):
    # A two-receiver pass whose receivers share their tick columns.
    log = run_pass(load_config(SUBURBAN).scenario)
    ticks, heads = [], []
    tick_text, format_heads = logio._tick_text, logio._heads

    def counted_ticks(packets):
        ticks.append(len(packets))
        return tick_text(packets)

    def counted_heads(*args):
        formatted = format_heads(*args)
        heads.append(len(formatted))
        return formatted

    monkeypatch.setattr(logio, "_tick_text", counted_ticks)
    monkeypatch.setattr(logio, "_heads", counted_heads)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    one = log_bytes(log)
    assert len(ticks) == 1
    assert sum(heads) == log.decoded_count()
    # In two processes, the parent formats its first parts only.
    ticks.clear()
    heads.clear()
    children = two_processes(monkeypatch)
    assert log_bytes(log) == one
    assert len(children) == 1
    first = [len(packets) - len(packets) // 2 for packets in log.records.values()]
    assert ticks == first[:1]
    assert sum(heads) == sum(
        int(packets.decoded[:rows].sum()) for packets, rows in zip(log.records.values(), first)
    )


def in_the_child(monkeypatch, act, name: str = "_packet_lines") -> None:
    """Make the forked child call act() before each call of logio's name,
    by default before it formats anything."""
    parent, function = os.getpid(), getattr(logio, name)

    def patched(*args):
        if os.getpid() != parent:
            act()
        return function(*args)

    monkeypatch.setattr(logio, name, patched)


def stuck_child(monkeypatch) -> None:
    in_the_child(monkeypatch, lambda: time.sleep(60))


@pytest.mark.parametrize("stop", ["close", "interrupt"])
def test_a_text_stopped_after_its_first_chunk_leaves_no_child(monkeypatch, stop):
    children = two_processes(monkeypatch)
    stuck_child(monkeypatch)
    text = log_text(big_log())
    assert next(text).startswith(b'{"analysis_window_m"')
    assert len(children) == 1
    start = time.monotonic()
    if stop == "close":
        text.close()
    else:
        with pytest.raises(KeyboardInterrupt):
            text.throw(KeyboardInterrupt)
    # The child is killed, not waited for.
    assert time.monotonic() - start < 30
    assert_reaped(children[0])


class FullFile(io.BytesIO):
    """A file whose device fills after two chunks."""

    def writelines(self, lines):
        for count, _ in enumerate(lines):
            if count == 2:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_a_failed_commit_stops_the_second_process(tmp_path, monkeypatch):
    children = two_processes(monkeypatch)
    stuck_child(monkeypatch)
    monkeypatch.setattr(logio, "open", lambda path, mode: FullFile(), raising=False)
    # Held, as cli.main holds a command's outputs.
    outputs = [(tmp_path / "pass.log.jsonl", log_text(big_log()))]
    with pytest.raises(OSError, match="No space left on device"):
        logio.commit(outputs)
    assert len(children) == 1
    assert_reaped(children[0])
    assert list(tmp_path.iterdir()) == []


def test_a_second_thread_keeps_the_write_in_one_process(monkeypatch):
    children = two_processes(monkeypatch)
    log = big_log(3 * WRITE_BATCH_ROWS)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        one = log_bytes(log)
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert children == []
    assert log_bytes(log) == one
    assert len(children) == 1


def test_simulate_whose_second_writer_process_fails(tmp_path, monkeypatch):
    # Each receiver's second part is formatted here instead: the bytes of one process.
    def fail():
        raise RuntimeError("formatting failed")

    target = tmp_path / "x.log.jsonl"
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert run(["simulate", str(SUBURBAN), "-o", str(target)])[0] == 0
    one = target.read_bytes()
    target.unlink()
    children = two_processes(monkeypatch)
    in_the_child(monkeypatch, fail)
    spill = tmp_path / "spill"
    spill.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(spill))
    code, _, err = run(["simulate", str(SUBURBAN), "-o", str(target)])
    assert (code, err) == (0, "")
    assert target.read_bytes() == one
    assert len(children) == 1
    assert_reaped(children[0])
    assert list(spill.iterdir()) == []
