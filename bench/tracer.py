"""In-memory tracer for the traced benchmark run.

The tracer wraps railwarn's functions from outside the package, under the
names their callers import them by: ``railwarn.engine.link_geometry`` is
patched, not ``railwarn.geometry.link_geometry``, because the engine looks
the name up in its own module. A call's self time is its duration minus the
duration of the wrapped calls made inside it. Calls of coarse layers (CLI,
config, run_pass, log I/O, analysis) are also kept as spans with their
parent; per-packet calls are only counted, which keeps memory bounded on
passes of 10^5 packets.
"""

import contextlib
import functools
import importlib
import json
import os
import pickle
import time
from dataclasses import asdict, dataclass
from pathlib import Path

# (module, attribute, span name, keep every call as a span). The span name's
# first component is the layer the per-layer metrics are summed over.
TARGETS = (
    ("railwarn.cli", "main", "cli.main", True),
    ("railwarn.cli", "load_config", "config.load_config", True),
    ("railwarn.cli", "run_pass", "engine.run_pass", True),
    ("railwarn.cli", "run_sweep", "engine.run_sweep", True),
    ("railwarn.engine", "run_pass", "engine.run_pass", True),
    ("railwarn.engine", "link_geometry", "geometry.link_geometry", False),
    ("railwarn.engine", "builtin_pattern", "antenna.builtin_pattern", False),
    ("railwarn.engine", "pattern_gain", "antenna.pattern_gain", False),
    ("railwarn.engine", "packet_success_probability", "link.packet_success_probability", False),
    ("railwarn.engine", "latency_sample", "link.latency_sample", False),
    ("railwarn.protocol", "latency_sample", "link.relay_latency_sample", False),
    ("railwarn.engine", "receiver_stream", "rng.receiver_stream", False),
    ("railwarn.engine", "generate_bsm", "protocol.generate_bsm", False),
    ("railwarn.engine", "receiver_ingest", "protocol.receiver_ingest", False),
    ("railwarn.engine", "rsu_relay", "protocol.rsu_relay", False),
    ("railwarn.logio", "write_log", "logio.write_log", True),
    ("railwarn.logio", "log_bytes", "logio.log_bytes", True),
    ("railwarn.logio", "read_log", "logio.read_log", True),
    ("railwarn.logio", "read_field_log", "logio.read_field_log", True),
    ("railwarn.analysis", "bin_per", "analysis.bin_per", True),
    ("railwarn.analysis", "coverage_report", "analysis.coverage_report", True),
    ("railwarn.analysis", "extract_dwarn", "analysis.extract_dwarn", True),
    ("railwarn.analysis", "latency_stats", "analysis.latency_stats", True),
    ("railwarn.analysis", "write_per_csv", "analysis.write_per_csv", True),
    ("railwarn.analysis", "write_counts_csv", "analysis.write_counts_csv", True),
    ("railwarn.analysis", "write_latency_csv", "analysis.write_latency_csv", True),
    ("railwarn.analysis", "write_coverage_csv", "analysis.write_coverage_csv", True),
    ("railwarn.analysis", "write_safeness_csv", "analysis.write_safeness_csv", True),
    ("railwarn.analysis", "write_curves_csv", "analysis.write_curves_csv", True),
    ("railwarn.analysis", "safeness_report", "safety.safeness_report", True),
    ("railwarn.analysis", "safeness_curve", "safety.safeness_curve", True),
    ("railwarn.safety", "safeness_level", "safety.safeness_level", False),
)

RNG_DRAWS = ("random", "normal", "uniform")


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Call statistics and spans of the functions it has patched."""

    def __init__(self):
        self.stats: dict = {}  # span name -> Stat
        self.spans: list = []  # [name, start_s, end_s, parent span index]
        self.missing: list = []  # targets absent from the program
        self._frames: list = []  # [child_s, span index] per open call
        self._patches: list = []  # (module, attribute, original) while installed
        self._originals: list = []  # every (module, attribute, original) ever patched

    def wrap(self, fn, name: str, keep: bool = False, after=None):
        """Return fn timed under `name`; after(args, result) may replace the result."""
        stat = self.stats.setdefault(name, Stat())
        frames, spans, clock = self._frames, self.spans, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = None
            if keep:
                parent = next((f[1] for f in reversed(frames) if f[1] is not None), None)
                index = len(spans)
                spans.append([name, 0.0, 0.0, parent])
            frame = [0.0, index]
            frames.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                frames.pop()
                duration = end - start
                stat.calls += 1
                stat.total_s += duration
                stat.self_s += duration - frame[0]
                if frames:
                    frames[-1][0] += duration
                if index is not None:
                    spans[index][1] = start
                    spans[index][2] = end
            return result if after is None else after(args, result)

        return traced

    @contextlib.contextmanager
    def installed(self, targets=TARGETS, hooks=None):
        """Patch every target present in the program; restore them on exit."""
        hooks = hooks or {}
        try:
            for module_name, attr, name, keep in targets:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                self._patches.append((module, attr, original))
                self._originals.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name, keep, hooks.get(name)))
            yield self
        finally:
            while self._patches:
                module, attr, original = self._patches.pop()
                setattr(module, attr, original)

    def restored(self) -> bool:
        """True when every attribute this tracer patched holds its original again."""
        return all(getattr(m, a, None) is o for m, a, o in self._originals)

    def layer(self, layer: str) -> Stat:
        """Sum of the statistics of every span name in one layer."""
        total = Stat()
        for name, stat in self.stats.items():
            if name.split(".", 1)[0] == layer:
                total.calls += stat.calls
                total.total_s += stat.total_s
                total.self_s += stat.self_s
        return total

    def get(self, name: str) -> Stat:
        return self.stats.get(name, Stat())

    def dump(self, path: Path) -> None:
        data = {
            "stats": {name: asdict(stat) for name, stat in sorted(self.stats.items())},
            "spans": [
                {"name": n, "start_s": s, "end_s": e, "parent": p} for n, s, e, p in self.spans
            ],
            "missing": self.missing,
        }
        path.write_text(json.dumps(data) + "\n")


class RngProxy:
    """Stands in for a numpy Generator and times each draw method."""

    def __init__(self, rng, tracer: Tracer):
        self._rng = rng
        for method in RNG_DRAWS:
            setattr(self, method, tracer.wrap(getattr(rng, method), f"rng.{method}"))

    def __getattr__(self, attr):
        return getattr(self._rng, attr)


class Probe:
    """Counts taken from the arguments and results of traced calls.

    The hooks only keep references or add integers; anything costly (file
    sizes, line counts, pickled sizes) is computed by summary() after the
    traced operations.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.receiver_states: dict = {}
        self.events = 0
        self.written: list = []
        self.read: list = []
        self.sweep_results: list = []

    def hooks(self) -> dict:
        def keep(into: list, pick):
            def hook(args, result):
                into.append(pick(args, result))
                return result

            return hook

        return {
            "rng.receiver_stream": lambda args, rng: RngProxy(rng, self.tracer),
            "protocol.receiver_ingest": self._ingest,
            "logio.write_log": keep(self.written, lambda args, result: args[1]),
            "logio.read_log": keep(self.read, lambda args, result: args[0]),
            "engine.run_sweep": keep(self.sweep_results, lambda args, result: result),
        }

    def _ingest(self, args, event):
        state = args[2]
        self.receiver_states[id(state)] = state
        self.events += event is not None
        return event

    def summary(self) -> dict:
        return {
            "reorders": sum(getattr(s, "reorder_count", 0) for s in self.receiver_states.values()),
            "events": self.events,
            "write_bytes": sum(os.path.getsize(p) for p in self.written),
            "write_lines": sum(_line_count(p) for p in self.written),
            "read_lines": sum(_line_count(p) for p in self.read),
            "sweep_result_bytes": sum(
                len(pickle.dumps(r)) for results in self.sweep_results for r in results
            ),
        }


def _line_count(path) -> int:
    with open(path, "rb") as handle:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: handle.read(1 << 20), b""))
