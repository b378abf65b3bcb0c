"""Benchmark of railwarn's command-line interface.

Run from the root of a checkout:

    python3 bench/run.py --workload simulate_long --seed 1 --seconds 30 --trace 0

An operation is the workload's railwarn commands, run either in this process
through ``railwarn.cli.main(argv)`` with imports warm, or as
``python -m railwarn.cli`` subprocesses with the same argv; the two kinds
alternate for --seconds. Every operation's outputs must equal the first
good operation's byte for byte, and that first one is checked in depth.

--trace 0 prints the end-to-end metrics. --trace 1 makes untraced reference
operations, then traced ones (sweeps run serially), and prints the per-layer
metrics; spans go to .bench_work/trace-<workload>-seed<seed>.json. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it holds the details: the
machine, sample counts, quartiles, output hashes and any problems.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

from tracer import RNG_DRAWS, TARGETS, Probe, Tracer
from workloads import WORKLOADS, SetupError, output_hashes, run_cli

ROOT = Path(__file__).resolve().parent.parent
# A set-up starts railwarn in a fresh interpreter (work moved into import
# time shows here, while in-process operations run with imports warm) and
# makes the workload's inputs. The machine's speed drifts over seconds, so
# after the first set-up more are made between operations, taking up to
# SETUP_SHARE of the run; setup_s is the median of at least SETUPS.
SETUPS = 3
SETUP_SHARE = 0.2
CONFIG_LOADS = 5  # load_config calls timed for config.load_s
IMPORT_PAIRS = 3  # fresh interpreters with and without `import railwarn`
COMMAND_TIMEOUT_S = 60  # a subprocess command slower than this fails
SWEEP_TIMER = (("railwarn.cli", "run_sweep", "engine.run_sweep", True),)

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cli_wall_s": "s",
    "records_per_s": "1/s",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "config.load_s": "s",
    "import.railwarn_s": "s",
    "engine.run_pass_s": "s",
    "engine.self_s": "s",
    "engine.us_per_record": "us",
    "engine.peak_alloc_mb": "MB",
    "engine.sweep_result_bytes": "bytes",
    "engine.sweep_parallel_eff": "ratio",
    "geometry.calls": "count",
    "geometry.self_s": "s",
    "antenna.calls": "count",
    "antenna.self_s": "s",
    "link.calls": "count",
    "link.self_s": "s",
    "link.decode_ratio": "ratio",
    "rng.draws": "count",
    "rng.self_s": "s",
    "protocol.ingest_calls": "count",
    "protocol.self_s": "s",
    "protocol.reorders": "count",
    "protocol.events": "count",
    "logio.write_s": "s",
    "logio.write_bytes": "bytes",
    "logio.write_us_per_line": "us",
    "logio.read_s": "s",
    "logio.read_us_per_line": "us",
    "logio.field_read_s": "s",
    "analysis.bin_s": "s",
    "analysis.coverage_s": "s",
    "analysis.latency_s": "s",
    "analysis.csv_s": "s",
    "safety.report_s": "s",
    "safety.level_calls": "count",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def import_program(root: Path):
    """Import railwarn from the checkout's src/, never from anywhere else."""
    package = root / "src" / "railwarn"
    if not (package / "__init__.py").is_file():
        raise SetupError(f"no railwarn package at {package}")
    sys.path.insert(0, str(root / "src"))
    import railwarn

    if Path(railwarn.__file__).resolve().parent != package.resolve():
        raise SetupError(f"railwarn imported from {railwarn.__file__}, not {package}")
    return railwarn


def subprocess_env(root: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(root / "src"))


def run_inprocess(argv: list) -> tuple:
    """(seconds, exit code, stdout, stderr) of railwarn.cli.main(argv)."""
    start = time.perf_counter()
    code, out, err = run_cli(argv)
    return time.perf_counter() - start, code, out, err


def run_subprocess(command: list, env: dict) -> tuple:
    """(seconds, exit code, stdout, stderr) of a child process, killed on timeout."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        command,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=COMMAND_TIMEOUT_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        code = f"timeout after {COMMAND_TIMEOUT_S} s"
    return time.perf_counter() - start, code, out, err


class Runner:
    """Runs a workload's operations and checks each one's outputs."""

    def __init__(self, workload, inputs, env: dict):
        self.workload = workload
        self.inputs = inputs
        self.env = env
        self.out = inputs.work / "out"
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.reference = None  # (hashes, problems) of the first good operation

    def op(self, inprocess: bool = True, workers: int | None = None) -> float:
        """Run one operation and return its wall time; failures are counted."""
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        self.attempted += 1
        elapsed, stdout, error = 0.0, "", None
        for argv in self.workload.commands(self.inputs, self.out, workers):
            if inprocess:
                seconds, code, out, err = run_inprocess(argv)
            else:
                command = [sys.executable, "-m", "railwarn.cli", *argv]
                seconds, code, out, err = run_subprocess(command, self.env)
            elapsed += seconds
            stdout += out
            if code != 0:
                error = f"{argv[0]} exited {code}: {err.strip()[-300:]}"
                break
        if error is None:
            hashes = output_hashes(self.out, stdout)
            if self.reference is None:
                self.reference = (hashes, self.workload.validate(self.inputs, self.out))
            ref_hashes, ref_problems = self.reference
            if hashes != ref_hashes:
                error = "outputs differ from the first good operation's"
            elif ref_problems:
                error = "; ".join(ref_problems)
        if error is not None:
            self.fail(error)
        return elapsed

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(problem)


def prepare(workload, seed: int, work: Path):
    """One timed set-up in a fresh directory: (seconds, inputs)."""
    work.mkdir(parents=True)
    start = time.perf_counter()
    _, code, _, err = run_subprocess([sys.executable, "-c", "import railwarn"], subprocess_env(ROOT))
    if code != 0:
        raise SetupError(f"import railwarn exited {code}: {err.strip()[-300:]}")
    inputs = workload.prepare(ROOT, work, seed)
    return time.perf_counter() - start, inputs


def measure(workload, inputs, seconds: float, between=None) -> tuple:
    """Alternate in-process and subprocess operations for `seconds`.

    between(elapsed_s), if given, runs untimed after each operation.
    """
    runner = Runner(workload, inputs, subprocess_env(ROOT))
    samples = {"wall_s": [], "cli_wall_s": []}
    start = time.perf_counter()
    while len(samples["cli_wall_s"]) == 0 or time.perf_counter() - start < seconds:
        inprocess = len(samples["wall_s"]) == len(samples["cli_wall_s"])
        samples["wall_s" if inprocess else "cli_wall_s"].append(runner.op(inprocess))
        if between is not None:
            between(time.perf_counter() - start)
    return runner, samples


def peak_rss_mb() -> float:
    """Largest resident set of this process or of any child it waited for."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def untraced_run(workload, seed: int, seconds: float, work: Path) -> tuple:
    setups = []

    def set_up(keep: bool = False):
        path = work / f"setup{len(setups)}"
        elapsed, inputs = prepare(workload, seed, path)
        setups.append(elapsed)
        if not keep:
            shutil.rmtree(path)
        return inputs

    def more_setups(elapsed_s: float) -> None:
        while sum(setups) < SETUP_SHARE * elapsed_s:
            set_up()

    inputs = set_up(keep=True)
    runner, samples = measure(workload, inputs, seconds, more_setups)
    while len(setups) < SETUPS:
        set_up()
    samples["setup_s"] = setups
    values = {name: statistics.median(samples[name]) for name in ("setup_s", "wall_s", "cli_wall_s")}
    values["records_per_s"] = workload.records(inputs) / values["wall_s"]
    values["peak_rss_mb"] = peak_rss_mb()
    metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    return runner, metrics, samples, inputs, {}


def config_load_s(config: Path) -> float:
    from railwarn.config import load_config

    times = []
    for _ in range(CONFIG_LOADS):
        start = time.perf_counter()
        load_config(config)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def import_railwarn_s(env: dict) -> float:
    """Fresh-interpreter cost of `import railwarn` over a bare interpreter."""
    bare, full = [], []
    for _ in range(IMPORT_PAIRS):
        bare.append(run_subprocess([sys.executable, "-c", "pass"], env)[0])
        full.append(run_subprocess([sys.executable, "-c", "import railwarn"], env)[0])
    return statistics.median(full) - statistics.median(bare)


def peak_alloc_mb(inputs) -> float:
    """Peak traced allocation during one untraced run_pass of the workload's config."""
    from railwarn.config import load_config
    from railwarn.engine import run_pass

    scenario = load_config(inputs.config).scenario
    tracemalloc.start()
    try:
        run_pass(scenario, seed=inputs.seed)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def traced_run(workload, seed: int, seconds: float, work: Path) -> tuple:
    _, inputs = prepare(workload, seed, work / "setup0")
    env = subprocess_env(ROOT)
    runner = Runner(workload, inputs, env)
    samples = {}
    load_s = config_load_s(inputs.config)
    import_s = import_railwarn_s(env)

    # Untraced references first, with the workload's own worker count and,
    # for a pool, serially; only run_sweep is timed, for the parallel
    # efficiency. Traced operations then fill the rest of `seconds`.
    start = time.perf_counter()
    parallel, serial = Tracer(), Tracer()
    with parallel.installed(SWEEP_TIMER):
        samples["untraced_s"] = [runner.op()]
    workers = getattr(workload, "workers", 1)
    efficiency = 0.0
    if workers > 1:
        with serial.installed(SWEEP_TIMER):
            samples["untraced_serial_s"] = [runner.op(workers=1)]
        efficiency = serial.get("engine.run_sweep").total_s / (
            workers * parallel.get("engine.run_sweep").total_s
        )
    untraced = samples.get("untraced_serial_s", samples["untraced_s"])[0]

    tracer = Tracer()
    probe = Probe(tracer)
    samples["traced_s"] = traced = []
    with tracer.installed(TARGETS, probe.hooks()):
        while not traced or time.perf_counter() - start < seconds:
            traced.append(runner.op(workers=1))
    if not all(t.restored() for t in (parallel, serial, tracer)):
        runner.fail("tracer wrappers were not restored")
    counts = probe.summary()
    ops = len(traced)
    simulated = tracer.get("engine.run_pass").calls > 0
    values = layer_metrics(tracer, counts, ops)
    values.update(
        {
            "config.load_s": load_s,
            "import.railwarn_s": import_s,
            "engine.us_per_record": (
                values["engine.run_pass_s"] / workload.records(inputs) * 1e6 if simulated else 0.0
            ),
            "engine.peak_alloc_mb": peak_alloc_mb(inputs) if simulated else 0.0,
            "engine.sweep_parallel_eff": efficiency,
            "trace.overhead_s": statistics.median(traced) - untraced,
        }
    )
    trace_file = work.parent / f"trace-{workload.name}-seed{seed}.json"
    tracer.dump(trace_file)
    metrics = {name: (values[name], unit) for name, unit in LAYER_UNITS.items()}
    return runner, metrics, samples, inputs, {"trace_file": trace_file.name, "missing": tracer.missing}


def layer_metrics(tracer: Tracer, counts: dict, ops: int) -> dict:
    """Per-operation figures of every layer the trace saw."""
    get, layer = tracer.get, tracer.layer

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    write, read = get("logio.write_log"), get("logio.read_log")
    per_op = {
        "engine.run_pass_s": get("engine.run_pass").total_s,
        "engine.self_s": layer("engine").self_s,
        "engine.sweep_result_bytes": counts["sweep_result_bytes"],
        "geometry.calls": layer("geometry").calls,
        "geometry.self_s": layer("geometry").self_s,
        "antenna.calls": layer("antenna").calls,
        "antenna.self_s": layer("antenna").self_s,
        "link.calls": layer("link").calls,
        "link.self_s": layer("link").self_s,
        "rng.draws": sum(get(f"rng.{m}").calls for m in RNG_DRAWS),
        "rng.self_s": layer("rng").self_s,
        "protocol.ingest_calls": get("protocol.receiver_ingest").calls,
        "protocol.self_s": layer("protocol").self_s,
        "protocol.reorders": counts["reorders"],
        "protocol.events": counts["events"],
        "logio.write_s": write.total_s,
        "logio.write_bytes": counts["write_bytes"],
        "logio.read_s": read.total_s,
        "logio.field_read_s": get("logio.read_field_log").total_s,
        "analysis.bin_s": get("analysis.bin_per").total_s,
        # coverage_report's own work and extract_dwarn, without its bin_per calls
        "analysis.coverage_s": get("analysis.coverage_report").self_s
        + get("analysis.extract_dwarn").total_s,
        "analysis.latency_s": get("analysis.latency_stats").total_s,
        "analysis.csv_s": sum(
            stat.total_s for name, stat in tracer.stats.items() if name.endswith("_csv")
        ),
        "safety.report_s": get("safety.safeness_report").total_s,
        "safety.level_calls": get("safety.safeness_level").calls,
        "cli.self_s": get("cli.main").self_s,
    }
    values = {name: value / ops for name, value in per_op.items()}
    values["link.decode_ratio"] = ratio(
        get("link.latency_sample").calls, get("link.packet_success_probability").calls
    )
    values["logio.write_us_per_line"] = ratio(write.total_s * 1e6, counts["write_lines"])
    values["logio.read_us_per_line"] = ratio(read.total_s * 1e6, counts["read_lines"])
    return values


def git_commit(root: Path) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(root: Path) -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(root),
        "src_lines": sum(
            p.read_bytes().count(b"\n") for p in sorted((root / "src" / "railwarn").glob("*.py"))
        ),
    }


def quartiles(values: list) -> list:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def run(workload, seed: int, seconds: float, trace: bool, work: Path) -> tuple:
    """(details, result) of one benchmark run."""
    measure_run = traced_run if trace else untraced_run
    runner, metrics, samples, inputs, notes = measure_run(workload, seed, seconds, work)
    details = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(ROOT),
        "records_per_op": workload.records(inputs),
        "failed_frac": runner.failed / runner.attempted,
        "samples": {
            name: {"count": len(v), "quartiles": quartiles(v), "values": v}
            for name, v in samples.items()
        },
        **notes,
        "output_sha256": runner.reference[0] if runner.reference else {},
        "problems": runner.problems,
    }
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    return details, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        import_program(ROOT)
        (ROOT / ".bench_work").mkdir(exist_ok=True)
        work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))
        try:
            details, result = run(
                WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work
            )
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except SetupError as exc:
        print(f"error: set-up: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
