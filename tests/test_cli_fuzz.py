"""The CLI on damaged input: never a traceback, and a failure writes nothing.

Read side (test_one_mutation_exits_0_or_3): a simulated suburban log and
its RSU's packets as a field capture each take one mutation: a key
dropped, a value of the wrong type, a line cut short, or a NaN or infinity
put in; or, in the log, a decoded line's latency_s moved one ulp off
rx_time_s - tx_time_s. analyze, coverage and safeness --coverage-from then
read the result in-process. Each either succeeds, printing no NaN or
infinity, or exits 3 with exactly one `error: runtime:` line and no
stdout. Half the examples find every output path taken by a directory;
those, and a moved latency_s, must exit 3 and write nothing.

Write side (test_simulate_exits_0_2_or_3): a shipped config takes one
mutation of one key (dropped, a wrong type, a non-finite literal, or a
vast or subnormal number), or the open-track PER table one mutation of one
row (a cell replaced, the row cut short, dropped or duplicated). simulate
then either writes its log, or exits 2 or 3 with exactly one error line,
no stdout and no log.
"""

import contextlib
import functools
import io
import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st
from make_golden import capture_lines

from railwarn.cli import main
from railwarn.config import load_scenario
from railwarn.engine import run_pass
from railwarn.logio import log_bytes

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SUBURBAN = CONFIGS / "suburban_rsu_10mph.json"

# The last mutation applies to a decoded packet line; a capture has no latency_s.
MUTATIONS = ("drop a key", "wrong type", "truncate", "non-finite", "latency_s one ulp")
WRONG_TYPES = ["x", "", None, True, [], [1.0], {}, {"a": 1}, 1.5, -1, 2**64]
NON_FINITE = [math.nan, math.inf, -math.inf]
NON_FINITE_TEXTS = ["nan", "NaN", "inf", "-inf", "Infinity", "-Infinity"]
BLOCKED = ("per.csv", "counts.csv", "latency.csv", "coverage.csv", "safeness.csv", "curves.csv")


@pytest.fixture(scope="module")
def originals():
    """(log lines, field-capture lines) of one suburban pass."""
    log = run_pass(load_scenario(SUBURBAN))
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


def mutate_csv(line: str, data) -> str:
    mutation = data.draw(st.sampled_from(MUTATIONS[:-1]), label="mutation")
    if mutation == "truncate":
        return line[: data.draw(st.integers(0, len(line) - 1), label="cut at")]
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


def assert_clean(argv: list, tmp_path: Path, fails: bool) -> None:
    """The command exits 0, or 3 with one error line and no stdout; when it
    fails (outputs blocked, or latency_s moved) it exits 3. No temp file is
    left, and nothing in blocked/."""
    code, out, err = run(argv)
    event(f"{argv[0]} exit {code}")
    assert code in (0, 3), (argv, code, err)
    if code == 3:
        assert err.startswith("error: runtime: ") and err.count("\n") == 1, err
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
    if data.draw(st.booleans(), label="field capture"):
        lines = list(field_lines)
        index = pick_line(lines, data)
        lines[index] = mutate_csv(lines[index], data)
        path = tmp_path / "capture.csv"
        path.write_text("\n".join(lines) + "\n")
        checked(["analyze", str(path), "--field-csv", "--out-dir", str(out)])
        checked(["coverage", str(path), "--field-csv", "--out", str(out / "coverage.csv")])
    else:
        lines = list(log_lines)
        mutation = data.draw(st.sampled_from(MUTATIONS), label="mutation")
        if mutation == "latency_s one ulp":
            decoded = [n for n, line in enumerate(lines) if '"decoded": true' in line]
            index = data.draw(st.sampled_from(decoded), label="line")
            checked = functools.partial(checked, fails=True)
        else:
            index = pick_line(lines, data)
        lines[index] = mutate_json(lines[index], mutation, data)
        path = tmp_path / "pass.log.jsonl"
        path.write_text("\n".join(lines) + "\n")
        checked(["analyze", str(path), "--out-dir", str(out)])
        checked(["coverage", str(path), "--out", str(out / "coverage.csv")])
        checked(
            ["safeness", "--coverage-from", str(path), "--train-speed", "10mph"]
            + ["--out", str(out / "safeness.csv"), "--curves-out", str(out / "curves.csv")]
        )


# Write side: the mutations of one config key, and of one PER table row.
KEY_MUTATIONS = ("drop a key", "wrong type", "non-finite", "vast or tiny")
VAST_OR_TINY = [1e200, -1e200, 1e308, -1e308, 1e-320]
ROW_MUTATIONS = ("replace a cell", "truncate a row", "drop a row", "duplicate a row")
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


def mutate_rows(rows: list, data) -> None:
    index = data.draw(st.integers(0, len(rows) - 1), label="row")
    mutation = data.draw(st.sampled_from(ROW_MUTATIONS), label="mutation")
    if mutation == "replace a cell":
        cells = rows[index].split(",")
        column = data.draw(st.integers(0, len(cells) - 1), label="column")
        cells[column] = data.draw(st.sampled_from(CELLS), label="value")
        rows[index] = ",".join(cells)
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
    if name.startswith("open_track") and data.draw(st.booleans(), label="mutate the PER table"):
        mutate_rows(rows, data)
    else:
        mutate_key(config, data)
    (tmp_path / "open_track_per.csv").write_text("\n".join(rows) + "\n")
    config_path = tmp_path / "scenario.json"
    config_path.write_text(json.dumps(config))  # writes NaN and Infinity literals
    log_path = tmp_path / "pass.log.jsonl"
    log_path.unlink(missing_ok=True)
    code, out, err = run(["simulate", str(config_path), "-o", str(log_path)])
    event(f"simulate exit {code}")
    assert code in (0, 2, 3), (code, err)
    if code == 0:
        assert err == "" and log_path.is_file(), err
    else:
        assert re.fullmatch(r"error: (config|runtime): [^\n]*\n", err), err
        assert out == "" and not log_path.exists(), out
    assert not list(tmp_path.rglob("*.tmp*"))
