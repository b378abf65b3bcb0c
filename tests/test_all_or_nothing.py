"""A command's outputs are written all or nothing (logio.commit).

A command that fails exits 3 with one `error: runtime:` line naming the
output it could not write, prints nothing to stdout and leaves no new file
and no temp file behind. Two outputs naming one file exit 2 before anything
is read or written.
"""

import contextlib
import errno
import io
import os
from pathlib import Path

import pytest

from railwarn import logio
from railwarn.cli import main
from railwarn.config import load_config
from railwarn.engine import run_pass

OPEN_TRACK = Path(__file__).resolve().parent.parent / "configs" / "open_track_20mph.json"


@pytest.fixture(scope="module")
def open_track_log(tmp_path_factory):
    path = tmp_path_factory.mktemp("log") / "o.log.jsonl"
    logio.write_log(run_pass(load_config(OPEN_TRACK).scenario), path)
    return path


def files(root: Path) -> set:
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}


def run(argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_failed_cleanly(tmp_path, argv: list, target: str) -> None:
    before = files(tmp_path)
    code, out, err = run(argv)
    assert code == 3
    assert err.count("\n") == 1 and err.startswith("error: runtime: "), err
    assert repr(target) in err and ".tmp" not in err, err
    assert out == ""
    assert files(tmp_path) == before


def test_coverage_with_a_missing_out_directory(tmp_path, open_track_log):
    target = str(tmp_path / "missing" / "cov.csv")
    assert_failed_cleanly(tmp_path, ["coverage", str(open_track_log), "--out", target], target)


def test_analyze_with_latency_csv_a_directory(tmp_path, open_track_log):
    (tmp_path / "out" / "latency.csv").mkdir(parents=True)
    target = str(tmp_path / "out" / "latency.csv")
    argv = ["analyze", str(open_track_log), "--out-dir", str(tmp_path / "out")]
    assert_failed_cleanly(tmp_path, argv, target)


def test_safeness_with_a_missing_curves_out_directory(tmp_path):
    target = str(tmp_path / "missing" / "c.csv")
    argv = ["safeness", "--dwarn", "300", "--train-speed", "10mph"]
    argv += ["--out", str(tmp_path / "s.csv"), "--curves-out", target]
    assert_failed_cleanly(tmp_path, argv, target)


def test_simulate_with_a_missing_output_directory(tmp_path):
    target = str(tmp_path / "missing" / "x.log.jsonl")
    assert_failed_cleanly(tmp_path, ["simulate", str(OPEN_TRACK), "-o", target], target)


@pytest.mark.parametrize("command", ["simulate", "coverage"])
def test_an_output_under_a_regular_file(tmp_path, open_track_log, command):
    # The temp file beside it cannot be removed either; the error names the output.
    (tmp_path / "file").write_text("kept")
    if command == "simulate":
        target = str(tmp_path / "file" / "x.log.jsonl")
        argv = ["simulate", str(OPEN_TRACK), "-o", target]
    else:
        target = str(tmp_path / "file" / "x.csv")
        argv = ["coverage", str(open_track_log), "--out", target]
    assert_failed_cleanly(tmp_path, argv, target)
    assert (tmp_path / "file").read_text() == "kept"


@pytest.mark.parametrize("command", ["simulate", "analyze", "coverage", "safeness", "sweep"])
def test_an_unwritable_output(tmp_path, open_track_log, monkeypatch, command):
    # Run as root, a chmod refuses no write, so the commit's temp-file open refuses it.
    def refuse(path, mode):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)

    monkeypatch.setattr(logio, "open", refuse, raising=False)
    log, new = str(open_track_log), tmp_path / "new" / "out"
    x, c, s = (tmp_path / name for name in ("x.log.jsonl", "c.csv", "s.csv"))
    argv, target = {
        "simulate": (["simulate", str(OPEN_TRACK), "-o", str(x)], x),
        "analyze": (["analyze", log, "--out-dir", str(new)], new / "per.csv"),
        "coverage": (["coverage", log, "--out", str(c)], c),
        "safeness": (["safeness", "--dwarn", "300", "--train-speed", "10mph", "--out", str(s)], s),
        "sweep": (
            ["sweep", str(OPEN_TRACK), "--speeds", "10mph", "--out-dir", str(new)],
            new / "point000_v4.4704_p23_QPSK_omni12_s42.log.jsonl",
        ),
    }[command]
    assert_failed_cleanly(tmp_path, argv, str(target))
    # No temp file and no directory the command made is left.
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "source, curves",
    [
        (["--dwarn", "300"], "s.csv"),
        (["--dwarn", "300"], "./s.csv"),
        (["--coverage-from", "missing.log.jsonl"], "s.csv"),
    ],
)
def test_safeness_with_both_outputs_naming_one_file(tmp_path, monkeypatch, source, curves):
    monkeypatch.chdir(tmp_path)
    argv = ["safeness", *source, "--train-speed", "10mph", "--out", "s.csv", "--curves-out", curves]
    code, out, err = run(argv)
    assert code == 2
    assert err == f"error: config: --out 's.csv' and --curves-out {curves!r} name one file\n"
    assert out == ""
    assert files(tmp_path) == set()


def test_analyze_removes_the_directories_it_made(tmp_path, open_track_log, monkeypatch):
    def full(chunks):
        yield from chunks
        raise OSError(28, "No space left on device")

    commit = logio.commit

    def commit_on_a_full_disk(outputs, directory):
        commit([(path, full(chunks)) for path, chunks in outputs], directory)

    monkeypatch.setattr(logio, "commit", commit_on_a_full_disk)
    target = str(tmp_path / "new" / "out" / "per.csv")
    argv = ["analyze", str(open_track_log), "--out-dir", str(tmp_path / "new" / "out")]
    assert_failed_cleanly(tmp_path, argv, target)
    assert list(tmp_path.iterdir()) == []


class TestCommit:
    def test_writes_every_output(self, tmp_path):
        logio.commit([(tmp_path / "a", [b"x", b"y"]), (tmp_path / "b", [])], tmp_path / "d")
        assert (tmp_path / "a").read_text() == "xy"
        assert (tmp_path / "b").read_bytes() == b""
        assert (tmp_path / "d").is_dir()

    def test_a_directory_target_fails_before_any_rename(self, tmp_path):
        (tmp_path / "old").write_text("kept")
        (tmp_path / "b").mkdir()
        with pytest.raises(IsADirectoryError, match=r"Is a directory: '.*/b'$"):
            logio.commit([(tmp_path / "old", [b"new"]), (tmp_path / "b", [b"x"])])
        assert (tmp_path / "old").read_text() == "kept"
        assert files(tmp_path) == {"old"}

    @pytest.mark.parametrize("second", ["p.txt", "./p.txt", "link.txt"])
    def test_two_outputs_naming_one_file_write_nothing(self, tmp_path, monkeypatch, second):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "link.txt").symlink_to("p.txt")
        with pytest.raises(ValueError, match=rf"outputs 'p.txt', '{second}' name one file"):
            logio.commit([("p.txt", ["first"]), (second, ["second"])], "made")
        assert list(tmp_path.iterdir()) == [tmp_path / "link.txt"]

    def test_a_failed_chunk_removes_temp_files_and_made_directories(self, tmp_path):
        def chunks():
            yield b"x"
            raise ValueError("not JSON compliant")

        directory = tmp_path / "made" / "here"
        with pytest.raises(ValueError, match="not JSON compliant"):
            logio.commit([(directory / "a", [b"a"]), (directory / "b", chunks())], directory)
        assert list(tmp_path.iterdir()) == []
