"""The golden corpus: sha256 of every output file and of stdout for a fixed
set of CLI runs on the shipped configs.

Each run goes in-process through railwarn.cli.main in a fresh directory.
Stdout is hashed after the directory's path is replaced by "<tmp>", so the
hashes do not depend on where the runs were made. tests/test_golden.py
compares a fresh corpus with tests/golden.json.

Print a corpus to stdout (this never writes tests/golden.json itself):

    PYTHONPATH=src python tests/make_golden.py > golden.new.json
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from railwarn.cli import main
from railwarn.config import load_config
from railwarn.engine import run_pass
from railwarn.logio import FIELD_COLUMNS

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
NAMES = ("open_track_20mph", "suburban_rsu_10mph")
SWEEP = ["--speeds", "10mph,20mph,40mph", "--powers", "11,23"]
# The suburban pass at this speed, 56,002 packet rows: a long pass, which
# logio.log_text writes and logio.read_log reads in two processes where it can.
LONG_SPEED_MPS = 0.5


def long_config() -> str:
    """The suburban config slowed to LONG_SPEED_MPS, as JSON."""
    config = json.loads((CONFIGS / "suburban_rsu_10mph.json").read_text())
    config["train"]["speed_mps"] = LONG_SPEED_MPS
    del config["train"]["speed_mph"]
    return json.dumps(config, indent=1, sort_keys=True) + "\n"


def capture_lines(log, receiver_id: str = "rsu0") -> list:
    """One receiver's packets as a field-capture CSV, header first."""
    packets = log.records[receiver_id]
    rows = [
        f"{seq},{tx!r},{position!r},{int(decoded)},{repr(rx) if decoded else ''}"
        for seq, tx, position, decoded, rx in zip(
            packets.seq.tolist(),
            packets.tx_time_s.tolist(),
            packets.train_d_t_m.tolist(),
            packets.decoded.tolist(),
            packets.rx_time_s.tolist(),
        )
    ]
    return [",".join(FIELD_COLUMNS), *rows]


def _safeness_outputs(out: Path) -> list:
    return ["--out", str(out / "safeness.csv"), "--curves-out", str(out / "curves.csv")]


def pass_runs(name: str, config: Path, out: Path) -> list:
    """(name, argv) of simulate, then analyze, coverage and safeness of its log, under out."""
    log = str(out / "pass.log.jsonl")
    safeness = ["safeness", "--coverage-from", log, "--train-speed", "10mph"]
    return [
        (f"{name}/simulate", ["simulate", str(config), "-o", log]),
        (f"{name}/analyze", ["analyze", log, "--out-dir", str(out / "analyze")]),
        (f"{name}/coverage", ["coverage", log, "--out", str(out / "coverage.csv")]),
        (f"{name}/safeness", [*safeness, *_safeness_outputs(out)]),
    ]


def runs(tmp: Path) -> list:
    """(name, argv) of every run, in order; later runs read earlier outputs."""
    result = []
    for name in NAMES:
        result += pass_runs(name, CONFIGS / f"{name}.json", tmp / name)
    dwarn = ["safeness", "--dwarn", "300", "--train-speed", "10mph"]
    result.append(("dwarn/safeness", [*dwarn, *_safeness_outputs(tmp / "dwarn")]))
    capture, field_out = str(tmp / "field" / "capture.csv"), str(tmp / "field" / "analyze")
    result.append(("field/analyze", ["analyze", capture, "--field-csv", "--out-dir", field_out]))
    result += pass_runs("long", tmp / "long" / "config.json", tmp / "long")
    suburban = str(CONFIGS / "suburban_rsu_10mph.json")
    for workers in (1, 2):
        out_dir = str(tmp / f"sweep-w{workers}")
        argv = ["sweep", suburban, *SWEEP, "--workers", str(workers), "--out-dir", out_dir]
        result.append((f"sweep-w{workers}/sweep", argv))
    return result


def corpus(tmp: Path) -> dict:
    """{path: sha256} of every run's stdout and of every file under tmp."""
    tmp = Path(tmp)
    for directory in (*NAMES, "dwarn", "field", "long"):
        (tmp / directory).mkdir()
    (tmp / "long" / "config.json").write_text(long_config())
    log = run_pass(load_config(CONFIGS / "suburban_rsu_10mph.json").scenario)
    (tmp / "field" / "capture.csv").write_text("\n".join(capture_lines(log)) + "\n")
    hashes = {}
    for name, argv in runs(tmp):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        if code != 0 or err.getvalue():
            raise AssertionError(f"{name} exited {code}: {err.getvalue()}")
        stdout = out.getvalue().replace(str(tmp), "<tmp>")
        hashes[f"{name}.stdout"] = hashlib.sha256(stdout.encode()).hexdigest()
    for path in (p for p in tmp.rglob("*") if p.is_file()):
        hashes[path.relative_to(tmp).as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return dict(sorted(hashes.items()))


def dumps(hashes: dict) -> str:
    return json.dumps(hashes, indent=1, sort_keys=True) + "\n"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        sys.stdout.write(dumps(corpus(Path(tmp))))
