"""Every byte of a fixed set of CLI runs against tests/golden.json.

tests/make_golden.py defines the runs and prints a fresh corpus. A change
that moves a pinned hash re-pins golden.json in the same commit and names
each changed hash and its cause.
"""

import dataclasses
import json
import math
from pathlib import Path

from make_golden import corpus, dumps

from railwarn import analysis

GOLDEN = Path(__file__).with_name("golden.json")


def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_json_is_sorted_by_path():
    assert GOLDEN.read_text() == dumps(golden())


def test_every_output_matches_the_corpus(tmp_path):
    assert corpus(tmp_path) == golden()


def test_one_float_moved_by_its_last_digit_fails_the_corpus(tmp_path, monkeypatch):
    latency_stats = analysis.latency_stats

    def nudged(log, receiver_id=None):
        stats = latency_stats(log, receiver_id)
        return dataclasses.replace(stats, max_s=math.nextafter(stats.max_s, math.inf))

    monkeypatch.setattr(analysis, "latency_stats", nudged)
    pinned = golden()
    changed = {path for path, digest in corpus(tmp_path).items() if pinned[path] != digest}
    assert changed == {
        "open_track_20mph/analyze/latency.csv",
        "suburban_rsu_10mph/analyze/latency.csv",
        "field/analyze/latency.csv",
        "long/analyze/latency.csv",
    }
