"""The CLI on damaged input: never a traceback, and a failure writes nothing.

Read side (test_one_mutation_exits_0_or_3): a simulated suburban log and
its RSU's packets as a field capture each take one mutation: a key
dropped, a value of the wrong type, a line cut short, a NaN or infinity
put in, or a byte that is not UTF-8 inserted; or, in the log, a decoded
line's latency_s moved one ulp off rx_time_s - tx_time_s; or, in the
capture, a cell appended to a row. analyze, coverage and safeness
--coverage-from then read the result in-process. Each either succeeds,
printing no NaN or infinity, or exits 3 with exactly one `error: runtime:`
line and no stdout. Half the examples find every output path taken by a
directory; those, a moved latency_s, a byte that is not UTF-8 and a cell
appended past the header must exit 3 and write nothing, the last two
naming path:line.

Write side (test_simulate_exits_0_2_or_3): a shipped config takes one
mutation of one key (dropped, a wrong type, a non-finite literal, or a
vast or subnormal number), or the open-track PER table one mutation of one
row (a cell replaced or appended, the row cut short, dropped or
duplicated); or either file takes a byte that is not UTF-8. simulate then
either writes its log, or exits 2 or 3 with exactly one error line, no
stdout and no log; a byte that is not UTF-8, and a cell appended to a row
past the header, exit 2 naming path:line.

Sweep grid flags (test_sweep_grid_flags_exit_0_2_or_3): one of --speeds,
--powers, --modulations, --antennas and --seeds of a one-point suburban
grid takes an empty item, a value of the wrong type, a non-finite, negative
or vast one, alone or beside its normal value; or --workers a count that
starts no process. sweep then either writes one log per point and its
summary.csv, or exits 2 or 3 with exactly one error line, no stdout, no log
and no summary.csv.

Safeness flags (test_safeness_flags_exit_0_1_or_2): --dwarn, --train-speed,
--tr and --ts each take an edge value (zero of either sign, the smallest
subnormal, a vast finite number, an overflowing literal), a value that is
not a finite number, or a normal one. safeness then either writes two
tables of finite numbers, or exits 1 or 2 with exactly one error line, no
warning, no stdout and neither table.
"""

import contextlib
import csv
import functools
import io
import json
import math
import re
import shutil
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st
from make_golden import capture_lines

from railwarn.cli import main
from railwarn.config import load_config
from railwarn.engine import run_pass
from railwarn.logio import log_bytes

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SUBURBAN = CONFIGS / "suburban_rsu_10mph.json"

# A log and a capture each take these, and one of their own: a log a decoded
# packet line's latency_s one ulp off, a capture a cell appended to a row.
MUTATIONS = ("drop a key", "wrong type", "truncate", "non-finite", "not UTF-8")
# A lone surrogate, which write_text(errors="surrogateescape") writes as the byte 0xff.
NOT_UTF8 = "\udcff"
WRONG_TYPES = ["x", "", None, True, [], [1.0], {}, {"a": 1}, 1.5, -1, 2**64]
NON_FINITE = [math.nan, math.inf, -math.inf]
NON_FINITE_TEXTS = ["nan", "NaN", "inf", "-inf", "Infinity", "-Infinity"]
BLOCKED = ("per.csv", "counts.csv", "latency.csv", "coverage.csv", "safeness.csv", "curves.csv")


@pytest.fixture(scope="module")
def originals():
    """(log lines, field-capture lines) of one suburban pass."""
    log = run_pass(load_config(SUBURBAN).scenario)
    return log_bytes(log).decode().splitlines(), capture_lines(log)


def mutate_json(line: str, mutation: str, data) -> str:
    if mutation == "truncate":
        return line[: data.draw(st.integers(0, len(line) - 1), label="cut at")]
    whole = json.loads(line)
    if mutation == "latency_s one ulp":
        # Only latency_s: a one-ulp tx_time_s can round away on the tx = 0.0 line.
        direction = data.draw(st.sampled_from([math.inf, -math.inf]), label="direction")
        whole["latency_s"] = math.nextafter(whole["latency_s"], direction)
        return json.dumps(whole, sort_keys=True)
    obj = whole
    if "receivers" in whole and data.draw(st.booleans(), label="in a receiver"):
        obj = data.draw(st.sampled_from(whole["receivers"]), label="receiver")
    key = data.draw(st.sampled_from(sorted(obj)), label="key")
    if mutation == "drop a key":
        del obj[key]
    elif mutation == "wrong type":
        obj[key] = data.draw(st.sampled_from(WRONG_TYPES), label="value")
    else:
        obj[key] = data.draw(st.sampled_from(NON_FINITE), label="value")
    return json.dumps(whole, sort_keys=True)  # writes NaN and Infinity literals


def insert_not_utf8(text: str, data) -> str:
    at = data.draw(st.integers(0, len(text)), label="insert at")
    return text[:at] + NOT_UTF8 + text[at:]


def line_of_not_utf8(path: Path, text: str) -> str:
    return f"{path}:{text[: text.index(NOT_UTF8)].count(chr(10)) + 1}: "


def write_bytes(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8", errors="surrogateescape")


def mutate_csv(line: str, mutation: str, data) -> str:
    if mutation == "truncate":
        return line[: data.draw(st.integers(0, len(line) - 1), label="cut at")]
    if mutation == "append a cell":
        return line + "," + data.draw(st.sampled_from(CELLS), label="value")
    cells = line.split(",")
    index = data.draw(st.integers(0, len(cells) - 1), label="column")
    if mutation == "drop a key":
        del cells[index]
    elif mutation == "wrong type":
        cells[index] = data.draw(st.sampled_from(["x", "1.5.2", "[]", "true", "-"]), label="value")
    else:
        cells[index] = data.draw(st.sampled_from(NON_FINITE_TEXTS), label="value")
    return ",".join(cells)


def run(argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_clean(argv: list, tmp_path: Path, fails: bool, names: str = "") -> None:
    """The command exits 0, or 3 with one error line and no stdout; when it
    fails (outputs blocked, latency_s moved, or a byte not UTF-8) it exits
    3, and its error starts with names. No temp file is left, and nothing
    in blocked/."""
    code, out, err = run(argv)
    event(f"{argv[0]} exit {code}")
    assert code in (0, 3), (argv, code, err)
    if code == 3:
        assert err.startswith(f"error: runtime: {names}") and err.count("\n") == 1, err
        assert out == "" and ".tmp" not in err, (out, err)
    else:
        # A success reports numbers, never a NaN or an infinity.
        assert err == "" and not re.search(r"\b(nan|inf)\b", out, re.IGNORECASE), out
        assert not fails, argv
    assert not list(tmp_path.rglob("*.tmp*"))
    assert not [p for p in (tmp_path / "blocked").rglob("*") if p.is_file()]


def pick_line(lines: list, data) -> int:
    """The header line, the last lines (events, or the last rows) or any line."""
    return data.draw(
        st.one_of(
            st.just(0),
            st.integers(len(lines) - 3, len(lines) - 1),
            st.integers(1, len(lines) - 1),
        ),
        label="line",
    )


# The examples share tmp_path; each writes its inputs afresh. With blocked
# outputs, every file a command writes is a directory in blocked/.
@settings(suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(data=st.data())
def test_one_mutation_exits_0_or_3(tmp_path, originals, data):
    log_lines, field_lines = originals
    blocked = data.draw(st.booleans(), label="outputs blocked")
    out = tmp_path / ("blocked" if blocked else "out")
    for name in BLOCKED:
        (tmp_path / "blocked" / name).mkdir(parents=True, exist_ok=True)
    checked = functools.partial(assert_clean, tmp_path=tmp_path, fails=blocked)
    field = data.draw(st.booleans(), label="field capture")
    lines = list(field_lines if field else log_lines)
    own = "append a cell" if field else "latency_s one ulp"
    mutation = data.draw(st.sampled_from((*MUTATIONS, own)), label="mutation")
    if mutation == "latency_s one ulp":
        decoded = [n for n, line in enumerate(lines) if '"decoded": true' in line]
        index = data.draw(st.sampled_from(decoded), label="line")
        checked = functools.partial(checked, fails=True)
    else:
        index = pick_line(lines, data)
    path = tmp_path / ("capture.csv" if field else "pass.log.jsonl")
    if mutation == "not UTF-8":
        lines[index] = insert_not_utf8(lines[index], data)
        checked = functools.partial(checked, fails=True, names=f"{path}:{index + 1}: ")
    else:
        lines[index] = (mutate_csv if field else mutate_json)(lines[index], mutation, data)
    if mutation == "append a cell" and index > 0:  # past the header
        checked = functools.partial(checked, fails=True, names=f"{path}:{index + 1}: ")
    write_bytes(path, "\n".join(lines) + "\n")
    if field:
        checked(["analyze", str(path), "--field-csv", "--out-dir", str(out)])
        checked(["coverage", str(path), "--field-csv", "--out", str(out / "coverage.csv")])
    else:
        checked(["analyze", str(path), "--out-dir", str(out)])
        checked(["coverage", str(path), "--out", str(out / "coverage.csv")])
        checked(
            ["safeness", "--coverage-from", str(path), "--train-speed", "10mph"]
            + ["--out", str(out / "safeness.csv"), "--curves-out", str(out / "curves.csv")]
        )


# Write side: the mutations of one config key, and of one PER table row.
KEY_MUTATIONS = ("drop a key", "wrong type", "non-finite", "vast or tiny")
VAST_OR_TINY = [1e200, -1e200, 1e308, -1e308, 1e-320]
ROW_MUTATIONS = (
    "replace a cell", "append a cell", "truncate a row", "drop a row", "duplicate a row"
)
CELLS = ["", "x", "nan", "-inf", "Infinity", "-1", "2", "1e200", "-1e308", "1e-320", "0"]
SHIPPED = ("open_track_20mph.json", "suburban_rsu_10mph.json")


def key_paths(obj, prefix=()) -> list:
    """The path of every key of every object in a JSON value, lists entered."""
    if isinstance(obj, list):
        return [path for i, item in enumerate(obj) for path in key_paths(item, (*prefix, i))]
    if not isinstance(obj, dict):
        return []
    return [
        path for key in obj for path in [(*prefix, key), *key_paths(obj[key], (*prefix, key))]
    ]


def mutate_key(config: dict, data) -> None:
    *parents, key = data.draw(st.sampled_from(key_paths(config)), label="key")
    node = functools.reduce(lambda node, step: node[step], parents, config)
    mutation = data.draw(st.sampled_from(KEY_MUTATIONS), label="mutation")
    if mutation == "drop a key":
        del node[key]
    else:
        values = {"wrong type": WRONG_TYPES, "non-finite": NON_FINITE}.get(mutation, VAST_OR_TINY)
        node[key] = data.draw(st.sampled_from(values), label="value")


def mutate_rows(rows: list, data) -> int | None:
    """One mutation of one row; the line it must be named by, where it
    appended a cell past the header, else None."""
    index = data.draw(st.integers(0, len(rows) - 1), label="row")
    mutation = data.draw(st.sampled_from(ROW_MUTATIONS), label="mutation")
    if mutation == "replace a cell":
        cells = rows[index].split(",")
        column = data.draw(st.integers(0, len(cells) - 1), label="column")
        cells[column] = data.draw(st.sampled_from(CELLS), label="value")
        rows[index] = ",".join(cells)
    elif mutation == "append a cell":
        rows[index] += "," + data.draw(st.sampled_from(CELLS), label="value")
        return index + 1 if index > 0 else None
    elif mutation == "truncate a row":
        rows[index] = rows[index][: data.draw(st.integers(0, len(rows[index]) - 1), label="cut")]
    elif mutation == "drop a row":
        del rows[index]
    else:
        rows.insert(index, rows[index])


# Each example writes its config, PER table and log path afresh in the shared tmp_path.
@settings(
    max_examples=200,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(data=st.data())
def test_simulate_exits_0_2_or_3(tmp_path, data):
    """simulate exits 0 and writes its log, or exits 2 or 3 with one error
    line, no stdout and no log.
"""
    name = data.draw(st.sampled_from(SHIPPED), label="config")
    config = json.loads((CONFIGS / name).read_text())
    rows = (CONFIGS / "open_track_per.csv").read_text().splitlines()
    config_path, table_path = tmp_path / "scenario.json", tmp_path / "open_track_per.csv"
    per_table = name.startswith("open_track") and data.draw(st.booleans(), label="PER table")
    not_utf8 = data.draw(st.booleans(), label="insert a byte that is not UTF-8")
    named = None  # the path:line a byte not UTF-8, or a cell past the header, is in
    if per_table and not not_utf8:
        line = mutate_rows(rows, data)
        named = line and f"{table_path}:{line}: "
    elif not not_utf8:
        mutate_key(config, data)
    table, text = "\n".join(rows) + "\n", json.dumps(config)  # writes NaN and Infinity literals
    if not_utf8 and per_table:
        table = insert_not_utf8(table, data)
        named = line_of_not_utf8(table_path, table)
    elif not_utf8:
        text = insert_not_utf8(text, data)
        named = line_of_not_utf8(config_path, text)
    write_bytes(table_path, table)
    write_bytes(config_path, text)
    log_path = tmp_path / "pass.log.jsonl"
    log_path.unlink(missing_ok=True)
    code, out, err = run(["simulate", str(config_path), "-o", str(log_path)])
    event(f"simulate exit {code}")
    assert code in (0, 2, 3), (code, err)
    if named:
        assert code == 2 and err.startswith("error: config: ") and named in err, err
    if code == 0:
        assert err == "" and log_path.is_file(), err
    else:
        assert re.fullmatch(r"error: (config|runtime): [^\n]*\n", err), err
        assert out == "" and not log_path.exists(), out
    assert not list(tmp_path.rglob("*.tmp*"))


# Safeness flags: a normal value for each, or one of the edges and non-numbers.
SAFENESS_NORMAL = {"--dwarn": "300", "--train-speed": "10mph", "--tr": "3.5", "--ts": "0.005"}
SAFENESS_EDGES = ["0", "-0.0", "5e-324", "1e308", "1.7976931348623157e308", "1e400", "nan", ""]


def numeric_cells(path: Path) -> list:
    """Each row of a safeness CSV as (row, its numeric cells as floats)."""
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    text = ("road", "system_failed")
    return [(row, {k: float(v) for k, v in row.items() if k not in text}) for row in rows]


# Each example writes both tables afresh in the shared tmp_path.
@settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_safeness_flags_exit_0_1_or_2(tmp_path, data):
    """safeness exits 0 and writes tables whose numbers are finite, save a
    NaN level on a curve with a protection margin of exactly 0; or it exits
    1 or 2 with one error line, no warning, no stdout and neither table."""
    argv = ["safeness"]
    for flag, normal in SAFENESS_NORMAL.items():
        # One branch is the normal value alone, so that some examples run the model.
        value = data.draw(st.one_of(st.just(normal), st.sampled_from(SAFENESS_EDGES)), label=flag)
        argv.append(f"{flag}={value}")
    out, curves = tmp_path / "safeness.csv", tmp_path / "curves.csv"
    out.unlink(missing_ok=True)
    curves.unlink(missing_ok=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, err = run([*argv, "--out", str(out), "--curves-out", str(curves)])
    event(f"safeness exit {code}")
    assert code in (0, 1, 2), (argv, code, err)
    if code:
        assert re.fullmatch(r"error: (usage|config): [^\n]*\n", err), err
        assert stdout == "" and not out.exists() and not curves.exists(), stdout
        return
    assert err == "" and not re.search(r"\b(nan|inf)\b", stdout, re.IGNORECASE), stdout
    margins = {}
    for row, cells in numeric_cells(out):
        assert all(map(math.isfinite, cells.values())), (argv, row)
        margins[row["vehicle_speed_mph"], row["road"]] = cells["protection_s"]
    for row, cells in numeric_cells(curves):
        if margins[row["vehicle_speed_mph"], row["road"]] == 0.0:
            cells.pop("safeness_level")  # NaN: the level's denominator is 0
        assert all(map(math.isfinite, cells.values())), (argv, row)


# Sweep grid flags: one flag of a one-point suburban grid takes one mutation.
SWEEP_NORMAL = {
    "--speeds": "40mph",
    "--powers": "23",
    "--modulations": "QPSK",
    "--antennas": "omni12",
    "--seeds": "7",
}
SWEEP_MUTATIONS = {
    "empty item": ["", " "],
    "wrong type": ["x", "1.5.2", "[]", "QPSK", "1.5", "-"],
    "non-finite": ["nan", "inf", "-inf", "Infinity", "nanmph"],
    "negative": ["-1", "-0.0", "-40mph", "-1e308"],
    "vast": ["1e308", "1e308mph", "1e400"],
}
# Worker counts that start no process.
BAD_WORKERS = ["abc", "0", "-1", "1.5", ""]


# Each example sweeps into the shared tmp_path's sweep/, removed first.
@settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_sweep_grid_flags_exit_0_2_or_3(tmp_path, data):
    """sweep exits 0 with one log per grid point and a summary, or exits 2
    or 3 with one error line, no warning, no stdout, no log and no summary."""
    flag = data.draw(st.sampled_from([*SWEEP_NORMAL, "--workers"]), label="flag")
    grid = dict(SWEEP_NORMAL, **{"--workers": "1"})
    if flag == "--workers":
        grid[flag] = data.draw(st.sampled_from(BAD_WORKERS), label="value")
    else:
        mutation = data.draw(st.sampled_from(sorted(SWEEP_MUTATIONS)), label="mutation")
        value = data.draw(st.sampled_from(SWEEP_MUTATIONS[mutation]), label="value")
        # The mutated item alone, or beside the normal one: a one- or two-point grid.
        places = [[value], [value, grid[flag]], [grid[flag], value]]
        items = data.draw(st.sampled_from(places), label="items")
        grid[flag] = ",".join(items)
    out_dir = tmp_path / "sweep"
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = ["sweep", str(SUBURBAN), *[f"{k}={v}" for k, v in grid.items()]]
    argv += ["--out-dir", str(out_dir)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(argv)
    event(f"sweep {flag} exit {code}")
    assert code in (0, 2, 3), (argv, code, err)
    logs = sorted(out_dir.glob("*.log.jsonl")) if out_dir.exists() else []
    if code == 0:
        assert err == "" and (out_dir / "summary.csv").is_file(), err
        assert out == f"wrote {len(logs)} logs and {out_dir / 'summary.csv'}\n"
        with open(out_dir / "summary.csv", newline="") as handle:
            assert len(list(csv.reader(handle))) == len(logs) + 1 <= 3
    else:
        assert re.fullmatch(r"error: (config|runtime): [^\n]*\n", err), (argv, err)
        assert out == "" and logs == [] and not (out_dir / "summary.csv").exists(), argv
    assert not list(tmp_path.rglob("*.tmp*"))
