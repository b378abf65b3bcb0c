"""The benchmark's workloads: inputs made from a seed, the railwarn CLI
commands of one operation, and the checks on what those commands write.

Sizes are fields so that the benchmark's own tests can run shrunken copies;
the benchmark itself only runs the defaults in WORKLOADS.
"""

import csv
import hashlib
import io
import json
import math
import traceback
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from itertools import product
from pathlib import Path

BASE_CONFIG = Path("configs") / "suburban_rsu_10mph.json"


class SetupError(Exception):
    """The workload's inputs could not be made."""


@dataclass
class Inputs:
    """What one set-up made; paths are absolute."""

    work: Path  # directory of this set-up
    seed: int
    config: Path
    log: Path | None = None  # analyze_logs: the simulated log ...
    field_csv: Path | None = None  # ... and its obu0 rows as a field capture


def packet_count_law(config: dict, speed_mps: float, period_s: float) -> int:
    """Records one pass yields: one per transmit tick, per receiver."""
    train = config["train"]
    duration_s = (train["end_d_t_m"] - train["start_d_t_m"]) / speed_mps
    ticks = math.floor(duration_s / period_s + 1e-9) + 1
    return ticks * len(config["scene"]["receivers"])


def tx_period_s(config: dict) -> float:
    # 50 ms is railwarn's documented default transmit period.
    return config.get("radio", {}).get("tx_period_ms", 50.0) / 1000.0


def parse_speed_mps(text: str) -> float:
    if text.endswith("mph"):
        return float(text[:-3]) * 0.44704
    return float(text)


def run_cli(argv: list) -> tuple:
    """(exit code, stdout, stderr) of railwarn.cli.main(argv) in this process."""
    from railwarn import cli

    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except Exception as exc:  # a crash fails this operation, not the run
        code = f"exception {exc!r}"
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


def packet_lines(path: Path):
    """The packet objects of a JSONL log, parsed from the file itself."""
    with open(path) as handle:
        for line in handle:
            obj = json.loads(line)
            if obj.get("type") == "packet":
                yield obj


def log_problems(path: Path, config: dict, speed_mps: float) -> list:
    """Round trip and packet-count law of one written log.

    write -> read_log -> log_bytes must give back the file's bytes, and each
    receiver must have one record per transmit tick.
    """
    from railwarn import logio

    try:
        data = path.read_bytes()
        if logio.log_bytes(logio.read_log(path)) != data:
            return [f"{path.name}: log_bytes(read_log(file)) differs from the file"]
        counts = Counter(obj["receiver_id"] for obj in packet_lines(path))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"{path.name}: cannot read back: {exc!r}"]
    receivers = [r["id"] for r in config["scene"]["receivers"]]
    ticks = packet_count_law(config, speed_mps, tx_period_s(config)) // len(receivers)
    if sorted(counts) != sorted(receivers) or any(n != ticks for n in counts.values()):
        return [f"{path.name}: record counts {dict(counts)}, the law gives {ticks} each"]
    return []


def long_pass_config(base: dict, speed_mps: float) -> dict:
    """The suburban scenario slowed to a long pass behind a gapped obstruction."""
    config = json.loads(json.dumps(base))
    config["train"] = {
        "speed_mps": speed_mps,
        "start_d_t_m": base["train"]["start_d_t_m"],
        "end_d_t_m": base["train"]["end_d_t_m"],
    }
    config["radio"]["tx_antenna"] = "omni12"
    config["radio"]["rx_antenna"] = "omni6"
    config["scene"]["obstructions"] = [
        {
            "d_start_m": -300.0,
            "d_end_m": -60.0,
            "excess_loss_db": 12.0,
            "gap_width_m": 4.0,
            "gap_period_m": 20.0,
        }
    ]
    return config


def read_base(root: Path) -> dict:
    try:
        return json.loads((root / BASE_CONFIG).read_text())
    except (OSError, ValueError) as exc:
        raise SetupError(f"cannot read {BASE_CONFIG}: {exc}") from None


def write_config(work: Path, config: dict) -> Path:
    path = work / "long.json"
    path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
    return path


def load_checked(path: Path):
    from railwarn.config import ConfigError, load_config

    try:
        return load_config(path)
    except ConfigError as exc:
        raise SetupError(f"{path.name}: {exc}") from None


@dataclass(frozen=True)
class SimulateLong:
    """One slow pass: the per-packet loop and the log write do the work."""

    name: str = "simulate_long"
    speed_mps: float = 0.5

    def prepare(self, root: Path, work: Path, seed: int) -> Inputs:
        config = write_config(work, long_pass_config(read_base(root), self.speed_mps))
        load_checked(config)
        return Inputs(work=work, seed=seed, config=config)

    def records(self, inputs: Inputs) -> int:
        config = json.loads(inputs.config.read_text())
        return packet_count_law(config, self.speed_mps, tx_period_s(config))

    def commands(self, inputs: Inputs, out: Path, workers: int | None = None) -> list:
        return [
            [
                "simulate",
                str(inputs.config),
                "-o",
                str(out / "long.log.jsonl"),
                "--seed",
                str(inputs.seed),
            ]
        ]

    def validate(self, inputs: Inputs, out: Path) -> list:
        log = out / "long.log.jsonl"
        config = json.loads(inputs.config.read_text())
        return log_problems(log, config, self.speed_mps)


@dataclass(frozen=True)
class SweepGrid:
    """A 24-point grid through the process pool; bidir23 points load the antenna layer."""

    name: str = "sweep_grid"
    speeds: tuple = ("10mph", "20mph", "40mph")
    powers: tuple = ("11", "23")
    modulations: tuple = ("QPSK", "16QAM")
    antennas: tuple = ("omni12", "bidir23")
    workers: int = 2

    def prepare(self, root: Path, work: Path, seed: int) -> Inputs:
        config = root / BASE_CONFIG
        load_checked(config)
        return Inputs(work=work, seed=seed, config=config)

    def points(self) -> int:
        return len(self.speeds) * len(self.powers) * len(self.modulations) * len(self.antennas)

    def records(self, inputs: Inputs) -> int:
        config = json.loads(inputs.config.read_text())
        period = tx_period_s(config)
        per_speed = len(self.powers) * len(self.modulations) * len(self.antennas)
        return per_speed * sum(
            packet_count_law(config, parse_speed_mps(s), period) for s in self.speeds
        )

    def commands(self, inputs: Inputs, out: Path, workers: int | None = None) -> list:
        return [
            [
                "sweep",
                str(inputs.config),
                "--speeds",
                ",".join(self.speeds),
                "--powers",
                ",".join(self.powers),
                "--modulations",
                ",".join(self.modulations),
                "--antennas",
                ",".join(self.antennas),
                "--seeds",
                str(inputs.seed),
                "--out-dir",
                str(out / "sweep"),
                "--workers",
                str(workers or self.workers),
            ]
        ]

    def validate(self, inputs: Inputs, out: Path) -> list:
        config = json.loads(inputs.config.read_text())
        try:
            with open(out / "sweep" / "summary.csv", newline="") as handle:
                rows = list(csv.DictReader(handle))
        except OSError as exc:
            return [f"summary.csv: {exc}"]
        if len(rows) != self.points():
            return [f"summary.csv has {len(rows)} rows, the grid has {self.points()} points"]
        grid = sorted(
            (round(parse_speed_mps(s), 9), float(p), m, a)
            for s, p, m, a in product(self.speeds, self.powers, self.modulations, self.antennas)
        )
        listed = sorted(
            (round(float(r["speed_mps"]), 9), float(r["tx_power_dbm"]), r["modulation"], r["tx_antenna"])
            for r in rows
        )
        if listed != grid:
            return ["summary.csv does not list every grid point once"]
        problems = []
        for row in rows:
            log = out / "sweep" / row["log"]
            problems += log_problems(log, config, float(row["speed_mps"]))
        return problems


@dataclass(frozen=True)
class AnalyzeLogs:
    """The read side of simulate_long: four commands over its log and a field CSV."""

    name: str = "analyze_logs"
    speed_mps: float = 0.5
    field_receiver: str = "obu0"

    def prepare(self, root: Path, work: Path, seed: int) -> Inputs:
        inputs = SimulateLong(speed_mps=self.speed_mps).prepare(root, work, seed)
        inputs.log = work / "long.log.jsonl"
        code, _, err = run_cli(
            ["simulate", str(inputs.config), "-o", str(inputs.log), "--seed", str(seed)]
        )
        if code != 0:
            raise SetupError(f"simulate exited {code}: {err.strip()}")
        inputs.field_csv = work / f"{self.field_receiver}.field.csv"
        export_field_csv(inputs.log, self.field_receiver, inputs.field_csv)
        return inputs

    def window_m(self, inputs: Inputs) -> float:
        return json.loads(inputs.config.read_text())["analysis"]["window_width_m"]

    def records(self, inputs: Inputs) -> int:
        config = json.loads(inputs.config.read_text())
        per_pass = packet_count_law(config, self.speed_mps, tx_period_s(config))
        # analyze, coverage and safeness each read the whole log; the field
        # CSV holds one receiver's rows.
        return 3 * per_pass + per_pass // len(config["scene"]["receivers"])

    def commands(self, inputs: Inputs, out: Path, workers: int | None = None) -> list:
        log = str(inputs.log)
        return [
            ["analyze", log, "--out-dir", str(out / "jsonl")],
            ["coverage", log, "--out", str(out / "coverage.csv")],
            [
                "safeness",
                "--coverage-from",
                log,
                "--train-speed",
                f"{self.speed_mps:g}",
                "--out",
                str(out / "safeness.csv"),
                "--curves-out",
                str(out / "curves.csv"),
            ],
            [
                "analyze",
                str(inputs.field_csv),
                "--field-csv",
                "--window",
                f"{self.window_m(inputs):g}",
                "--out-dir",
                str(out / "field"),
            ],
        ]

    def validate(self, inputs: Inputs, out: Path) -> list:
        config = json.loads(inputs.config.read_text())
        problems = log_problems(inputs.log, config, self.speed_mps)
        jsonl = per_bin_counts(out / "jsonl" / "per.csv", self.field_receiver)
        field = per_bin_counts(out / "field" / "per.csv", "field")
        if not jsonl or jsonl != field:
            problems.append(
                f"field-CSV per-bin counts differ from the JSONL {self.field_receiver} rows"
            )
        for name in ("coverage.csv", "safeness.csv", "curves.csv", "jsonl/latency.csv"):
            if not (out / name).is_file():
                problems.append(f"{name} was not written")
        return problems


def export_field_csv(log_path: Path, receiver_id: str, path: Path) -> None:
    """One receiver's packet rows of a JSONL log as a field-capture CSV."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["seq", "tx_time_s", "train_d_t_m", "decoded", "rx_time_s"])
        for obj in packet_lines(log_path):
            if obj["receiver_id"] == receiver_id:
                rx_time = obj["rx_time_s"]
                writer.writerow(
                    [
                        obj["seq"],
                        obj["tx_time_s"],
                        obj["train_d_t_m"],
                        int(obj["decoded"]),
                        "" if rx_time is None else rx_time,
                    ]
                )


def per_bin_counts(path: Path, receiver_id: str) -> list:
    """(bin center, transmitted, received) rows of one receiver in a per.csv."""
    try:
        with open(path, newline="") as handle:
            return [
                (float(row["d_center_m"]), int(row["transmitted"]), int(row["received"]))
                for row in csv.DictReader(handle)
                if row["receiver_id"] == receiver_id
            ]
    except (OSError, KeyError, ValueError):
        return []


def output_hashes(out: Path, stdout: str) -> dict:
    """sha256 of every file an operation wrote, and of its standard output."""
    hashes = {"stdout": hashlib.sha256(stdout.encode()).hexdigest()}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        hashes[path.relative_to(out).as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return hashes


WORKLOADS = {w.name: w for w in (SimulateLong(), SweepGrid(), AnalyzeLogs())}
