"""Tests of the benchmark itself, on shrunken inputs used only here.

Run from the root of a checkout:  python3 -m pytest bench/test_bench.py
"""

import json
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import AnalyzeLogs, SimulateLong, SweepGrid  # noqa: E402

run.import_program(run.ROOT)

SMALL = {
    "simulate_long": SimulateLong(speed_mps=20.0),
    "sweep_grid": SweepGrid(speeds=("40mph",), powers=("23",), modulations=("QPSK",)),
    "analyze_logs": AnalyzeLogs(speed_mps=20.0),
}
# 700 m at 20 m/s in 50 ms ticks is 701 ticks; 40 mph gives 783; two receivers.
SMALL_RECORDS = {"simulate_long": 1402, "sweep_grid": 2 * 1566, "analyze_logs": 3 * 1402 + 701}
DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(SMALL))
def test_every_named_metric_is_emitted_with_its_unit(name, trace, tmp_path):
    details, result = run.run(SMALL[name], 3, 0.01, trace, tmp_path / "work")
    declared = {m["name"]: m["unit"] for m in DECLARED["per_layer" if trace else "end_to_end"]}
    emitted = {metric: value["unit"] for metric, value in result["metrics"].items()}
    assert emitted == declared
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert (result["correct"], result["failed"]) == (True, 0), details["problems"]
    assert result["attempted"] >= 2
    assert details["records_per_op"] == SMALL_RECORDS[name]


def test_full_size_record_counts(tmp_path):
    long = SimulateLong().prepare(run.ROOT, tmp_path, seed=0)
    sweep = SweepGrid().prepare(run.ROOT, tmp_path, seed=0)
    assert SimulateLong().records(long) == 56_002
    assert SweepGrid().records(sweep) == 87_696
    assert AnalyzeLogs().records(long) == 196_007


def test_corrupted_log_line_counts_as_failed_without_aborting(tmp_path):
    workload = SMALL["analyze_logs"]
    _, inputs = run.prepare(workload, 5, tmp_path / "setup")
    lines = inputs.log.read_text().splitlines(keepends=True)
    lines[10] = lines[10][: len(lines[10]) // 2] + "\n"
    inputs.log.write_text("".join(lines))
    runner, samples = run.measure(workload, inputs, 0.01)
    assert len(samples["wall_s"]) == len(samples["cli_wall_s"]) == 1
    assert runner.failed == runner.attempted == 2
    assert "analyze exited 3" in runner.problems[0]


def test_self_time_excludes_child_spans_and_wrappers_are_restored(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(time, "perf_counter", lambda: float(next(ticks)))
    trace = tracer.Tracer()
    inner = trace.wrap(lambda: None, "layer.inner")
    outer = trace.wrap(lambda: inner(), "layer.outer", keep=True)
    outer()  # outer starts at 0, inner runs from 1 to 2, outer ends at 3
    assert trace.get("layer.outer") == tracer.Stat(calls=1, total_s=3.0, self_s=2.0)
    assert trace.get("layer.inner") == tracer.Stat(calls=1, total_s=1.0, self_s=1.0)
    assert trace.spans == [["layer.outer", 0.0, 3.0, None]]

    from railwarn import engine

    original = engine.link_geometry
    with trace.installed(tracer.TARGETS):
        assert engine.link_geometry is not original
    assert engine.link_geometry is original and trace.restored()
