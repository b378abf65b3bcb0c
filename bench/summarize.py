"""Summarise benchmark runs: median, quartiles and spread of every metric.

Each argument is a file holding the standard output of one run of
bench/run.py. Runs are grouped by workload and trace mode; for each metric
the summary gives the values, their median, their quartiles as
statistics.quantiles(values, n=4) gives them, and the spread: the distance
between the first and third quartile as a share of the median.

    python3 bench/summarize.py runs/*.out > summary.json
"""

import json
import statistics
import sys
from pathlib import Path


def load(path: Path) -> tuple:
    """(details, result) from the last two lines of a run's output."""
    lines = path.read_text().strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarize(paths: list) -> dict:
    groups: dict = {}
    for path in paths:
        details, result = load(Path(path))
        key = f"{details['workload']}/trace{details['trace']}"
        groups.setdefault(key, []).append((details, result))
    summary = {}
    for key, runs in sorted(groups.items()):
        metrics = {}
        for name, first in runs[0][1]["metrics"].items():
            values = [result["metrics"][name]["value"] for _, result in runs]
            median = statistics.median(values)
            q = statistics.quantiles(values, n=4) if len(values) > 1 else [median] * 3
            metrics[name] = {
                "unit": first["unit"],
                "median": median,
                "quartiles": q,
                "spread": (q[2] - q[0]) / median if median else None,
                "values": values,
            }
        summary[key] = {
            "environment": runs[0][0]["environment"],
            "seeds": [details["seed"] for details, _ in runs],
            "attempted": sum(result["attempted"] for _, result in runs),
            "failed": sum(result["failed"] for _, result in runs),
            "records_per_op": runs[0][0]["records_per_op"],
            "output_sha256": {str(d["seed"]): d["output_sha256"] for d, _ in runs},
            "metrics": metrics,
        }
    return summary


if __name__ == "__main__":
    json.dump(summarize(sys.argv[1:]), sys.stdout, indent=1)
    print()
