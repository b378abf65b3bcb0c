"""One rule wherever railwarn starts a second process (units.child_process).

A child streams the values of its work as it makes them, and this process
computes those it does not send.

A sweep's shares, a long pass's log write and its read each fork a child
only as a shortcut: whatever the child does not deliver (the fork or a
temporary file refused, a child that fails or is killed) is done in this
process, so a command's outputs and its error line are those of one
process. These tests force two processes with FORK_ROWS 0 and two CPUs.
"""

import errno
import os
import signal
import tempfile
import time
from pathlib import Path

import pytest
from test_all_or_nothing import run
from test_log_fork import assert_reaped, counted_forks, in_the_child, two_processes

from railwarn import logio
from railwarn.units import child_process

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SUBURBAN = str(CONFIGS / "suburban_rsu_10mph.json")
# The 10 mph run holds 4 of the grid's 7 parts of packets: a share of its
# own, which a child runs, while this process runs the 20 and 40 mph runs.
SWEEP = ["sweep", SUBURBAN, "--speeds", "10mph,20mph,40mph", "--workers", "2"]


def refuse(monkeypatch, module, name: str, code: int) -> None:
    def refused(*args, **kwargs):
        raise OSError(code, os.strerror(code))

    monkeypatch.setattr(module, name, refused)


def kill_self():
    os.kill(os.getpid(), signal.SIGKILL)


FAULTS = {
    "fork refused": lambda monkeypatch, hook: refuse(monkeypatch, os, "fork", errno.EAGAIN),
    "spill file refused": lambda monkeypatch, hook: refuse(
        monkeypatch, tempfile, "TemporaryFile", errno.ENOSPC
    ),
    "child killed": lambda monkeypatch, hook: in_the_child(monkeypatch, kill_self, hook),
}


def files(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*")}


@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("command", ["sweep", "simulate", "coverage"])
def test_a_child_that_delivers_nothing_gives_the_one_process_outputs(
    tmp_path, monkeypatch, command, fault
):
    out = tmp_path / "out"
    log = tmp_path / "s.log.jsonl"
    argv, hook = {
        "sweep": ([*SWEEP, "--out-dir", str(out)], "_packet_lines"),
        "simulate": (["simulate", SUBURBAN, "-o", str(out / "s.log.jsonl")], "_packet_lines"),
        "coverage": (["coverage", str(log), "--out", str(out / "coverage.csv")], "_read_lines"),
    }[command]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert run(["simulate", SUBURBAN, "-o", str(log)])[0] == 0
    out.mkdir()
    one = run(argv), files(out)
    assert one[0][0] == 0
    for path in out.iterdir():
        path.unlink()
    children = two_processes(monkeypatch)
    spill = tmp_path / "spill"
    spill.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(spill))
    FAULTS[fault](monkeypatch, hook)
    assert (run(argv), files(out)) == one
    assert len(children) == (fault == "child killed")
    for pid in children:
        assert_reaped(pid)
    assert list(spill.iterdir()) == []


def test_a_childs_error_is_the_one_process_error(tmp_path, monkeypatch):
    out = tmp_path / "sweep"
    (out / "point000_v4.4704_p23_QPSK_omni12_s7.log.jsonl").mkdir(parents=True)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    code, _, one = run([*SWEEP, "--workers", "1", "--out-dir", str(out)])
    assert code == 3 and one.count("\n") == 1 and one.startswith("error: runtime: ")
    children = two_processes(monkeypatch)
    assert run([*SWEEP, "--out-dir", str(out)]) == (3, "", one)
    assert len(children) == 1
    assert_reaped(children[0])
    assert [path.name for path in out.iterdir()] == ["point000_v4.4704_p23_QPSK_omni12_s7.log.jsonl"]


def test_a_failed_sweep_leaves_no_temp_file_of_a_child_stalled_in_commit(tmp_path, monkeypatch):
    out = tmp_path / "sweep"
    children = two_processes(monkeypatch)
    parent, deadline = os.getpid(), time.monotonic() + 30

    def packet_lines(*args):
        if os.getpid() != parent:
            time.sleep(60)
        # This process's share fails once the child is writing its log.
        while not list(out.glob(f"*.tmp{children[0]}")) and time.monotonic() < deadline:
            time.sleep(0.01)
        raise OSError(errno.EIO, os.strerror(errno.EIO))

    monkeypatch.setattr(logio, "_packet_lines", packet_lines)
    code, _, err = run([*SWEEP, "--out-dir", str(out)])
    assert code == 3 and err.count("\n") == 1 and ".tmp" not in err
    # The child is killed, not waited for.
    assert time.monotonic() < deadline
    assert len(children) == 1
    assert_reaped(children[0])
    # Nothing is left, not even the directory the sweep made.
    assert not out.exists()


def waiting(release: Path):
    """The pid of the process running it, then, once release exists, that pid again."""
    yield os.getpid()
    deadline = time.monotonic() + 10
    while not release.exists() and time.monotonic() < deadline:
        time.sleep(0.01)
    yield os.getpid()


def test_a_value_is_read_while_the_child_still_runs(tmp_path, monkeypatch):
    children = counted_forks(monkeypatch)
    release = tmp_path / "release"
    with child_process(waiting, release) as values:
        assert next(values) == children[0]
        # The child waits to make its second value.
        assert os.waitpid(children[0], os.WNOHANG) == (0, 0)
        release.touch()
        assert list(values) == children
    assert_reaped(children[0])


def fail():
    raise RuntimeError("the child's work failed")


def numbered(count: int, stop_at: int, act, parent: int):
    """(i, the pid of the process that made it) for i in range(count); a
    child calls act() once it has sent stop_at of them."""
    for i in range(count + 1):
        if i == stop_at and os.getpid() != parent:
            act()
        if i < count:
            yield i, os.getpid()


@pytest.mark.parametrize("act", [kill_self, fail])
@pytest.mark.parametrize("stop_at", [0, 1, 3, 5])
def test_a_child_stopped_after_k_values_gives_the_one_process_sequence(monkeypatch, stop_at, act):
    children = counted_forks(monkeypatch)
    parent = os.getpid()
    with child_process(numbered, 5, stop_at, act, parent) as values:
        got = list(values)
    assert len(children) == 1
    assert_reaped(children[0])
    assert [i for i, _ in got] == list(range(5))
    # The first stop_at from the child, the rest computed here.
    assert [pid for _, pid in got] == children * stop_at + [parent] * (5 - stop_at)
