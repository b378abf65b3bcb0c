"""Command-line surface tying simulation to analysis.

Subcommands: simulate, analyze, coverage, safeness, sweep. Exit codes:
0 success, 1 usage, 2 config/schema problem, 3 runtime failure. Errors
print a single machine-parsable line to stderr:  error: <category>: <msg>
Each value flag is parsed and range-checked as argparse reads it, so a bad
value exits 2 naming the flag before a command runs; a missing argument or
an unknown command or flag exits 1.

Each command returns its stdout text, its (path, chunks) outputs and the
directory to make for them or None. main writes the outputs with
logio.commit, all or nothing, and prints the text only after; sweep writes
its own files (engine.run_sweep).
"""

import argparse
import os
import sys
from pathlib import Path

from . import analysis as an
from . import logio, safety
from .config import ConfigError, load_config
from .engine import SweepPointError, check_seed, run_pass, run_sweep
from .units import parse_speed, require_finite

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse API
        raise UsageError(message)


class _Value(argparse.Action):
    """A value flag, parsed and checked where argparse meets it.

    parse turns the text into a value; with many, the text is a comma list
    of at least one item and each item is parsed. check(value, flag), if
    given, raises ValueError for a value out of range. Any failure is a
    ConfigError naming the flag, raised before a command runs.
    """

    def __init__(self, option_strings, dest, parse=float, check=None, many=False, **kwargs):
        super().__init__(option_strings, dest, **kwargs)
        self.parse, self.check, self.many = parse, check, many

    def __call__(self, parser, namespace, text, option_string=None):
        flag = option_string
        items = [item for item in text.split(",") if item.strip()] if self.many else [text]
        if not items:
            raise ConfigError(f"{flag} must list at least one value, got {text!r}")
        values = []
        for item in items:
            try:
                value = self.parse(item)
            except ValueError as exc:
                raise ConfigError(f"{flag}: cannot parse {item!r}: {exc}") from None
            try:
                if self.check:
                    self.check(value, flag)
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
            values.append(value)
        setattr(namespace, self.dest, values if self.many else values[0])


def _at_least(low, strict=False):
    """A check that a value is finite and at least low, or above it when strict."""

    def check(value, flag):
        require_finite(**{flag: value})
        if value < low or (strict and value == low):
            raise ValueError(f"{flag} must be {'>' if strict else '>='} {low:g}, got {value!r}")

    return check


def _braking_speed(value, flag):
    low, high = safety.BRAKING_TABLE[0].speed_mph, safety.BRAKING_TABLE[-1].speed_mph
    require_finite(**{flag: value})
    if not low <= value <= high:
        raise ValueError(
            f"{flag} must be within the braking table's {low:g}-{high:g} mph, got {value:g}"
        )


def _non_empty(value, flag):
    if not value:
        raise ValueError(f"{flag} must name a path, got ''")


def _road(value, flag):
    if value not in safety.ROADS:
        raise ValueError(f"{flag} must be among {', '.join(safety.ROADS)}, got {value!r}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="railwarn", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    non_negative, positive = _at_least(0.0), _at_least(0.0, strict=True)
    window = dict(action=_Value, check=positive, help="bin width in meters")
    threshold = dict(action=_Value, parse=int, check=_at_least(1), help="required packets per bin")
    path = dict(action=_Value, parse=str, check=_non_empty)

    p_sim = sub.add_parser("simulate", help="run one pass from a scenario config")
    p_sim.add_argument("config")
    p_sim.add_argument("-o", "--output", **path, help="log path (default: <config stem>.log.jsonl)")
    p_sim.add_argument(
        "--seed", action=_Value, parse=int, check=check_seed, help="override the config seed"
    )

    p_an = sub.add_parser("analyze", help="PER, counts and latency tables from a log")
    p_an.add_argument("log")
    p_an.add_argument("--window", **window)
    p_an.add_argument("--out-dir", **path, default=".", help="directory for the CSV outputs")
    p_an.add_argument("--field-csv", action="store_true", help="log is a field-capture CSV")

    p_cov = sub.add_parser("coverage", help="warning coverage range from a log")
    p_cov.add_argument("log")
    p_cov.add_argument("--window", **window)
    p_cov.add_argument("--threshold", **threshold)
    p_cov.add_argument("--out", **path, help="optional CSV output path")
    p_cov.add_argument("--field-csv", action="store_true")

    p_safe = sub.add_parser("safeness", help="protection time and safeness curves")
    group = p_safe.add_mutually_exclusive_group(required=True)
    group.add_argument("--dwarn", action=_Value, check=non_negative, help="warning range in meters")
    group.add_argument("--coverage-from", help="log file to extract the range from")
    speed = dict(action=_Value, parse=parse_speed, check=positive)
    p_safe.add_argument("--train-speed", **speed, required=True, help="e.g. 10mph or 4.47 (m/s)")
    items = dict(action=_Value, many=True)
    grid = dict(default=safety.DEFAULT_VEHICLE_SPEEDS_MPH, check=_braking_speed)
    p_safe.add_argument(
        "--vehicle-speeds", **items, **grid, help="mph list (default: the braking table's)"
    )
    roads = dict(default=safety.ROADS, parse=str, check=_road)
    p_safe.add_argument("--roads", **items, **roads, help="comma list (default: every road)")
    seconds = dict(action=_Value, check=non_negative)
    reaction, delay = safety.DEFAULT_REACTION_S, safety.DEFAULT_SYSTEM_DELAY_S
    p_safe.add_argument("--tr", **seconds, default=reaction, help="driver reaction time, s")
    p_safe.add_argument("--ts", **seconds, default=delay, help="system delay, s")
    p_safe.add_argument("--window", **window)
    p_safe.add_argument("--threshold", **threshold)
    p_safe.add_argument("--out", **path, help="protection-time table CSV")
    p_safe.add_argument("--curves-out", **path, help="safeness curve CSV")

    p_sweep = sub.add_parser("sweep", help="grid of passes around a base config")
    p_sweep.add_argument("config")
    p_sweep.add_argument(
        "--speeds", **items, parse=parse_speed, help="comma list, e.g. 20mph,50mph,79mph"
    )
    p_sweep.add_argument("--powers", **items, help="comma list of dBm values")
    p_sweep.add_argument("--modulations", **items, parse=str, help="comma list, e.g. QPSK,16QAM")
    p_sweep.add_argument(
        "--antennas", **items, parse=str, help="comma list of transmit antenna names"
    )
    p_sweep.add_argument("--seeds", **items, parse=int, help="comma list of integer seeds")
    p_sweep.add_argument("--out-dir", **path, default="sweep", help="directory for per-point logs")
    p_sweep.add_argument("--workers", action=_Value, parse=int, check=_at_least(1))
    return parser


def _read_any_log(path: str, field_csv: bool):
    return (logio.read_field_log if field_csv else logio.read_log)(path)


def _cmd_simulate(args) -> tuple:
    log = run_pass(load_config(args.config).scenario, seed=args.seed)
    output = args.output or (Path(args.config).stem + ".log.jsonl")
    text = (
        f"wrote {output}: {log.packet_count()} packet records, "
        f"{log.decoded_count()} decoded, {len(log.events)} warning event(s), "
        f"digest {log.digest[:12]}\n"
    )
    return text, [(output, logio.log_text(log))], None


def _cmd_analyze(args) -> tuple:
    log = _read_any_log(args.log, args.field_csv)
    out_dir = Path(args.out_dir)
    series = [an.bin_per(log, args.window, rid) for rid in log.receiver_ids()]
    # A receiver with no decoded packet has no latency row.
    stats = {
        rid: an.latency_stats(log, rid)
        for rid in log.receiver_ids()
        if log.records[rid].decoded.any()
    }
    lines = [
        f"{s.receiver_id}: {len(s.bins)} bins of {s.window_width_m:g} m, "
        f"worst per {max(b.per for b in s.bins):.3f}"
        for s in series
    ]
    lines += [
        f"{rid}: latency mean {s.mean_s * 1e3:.3f} ms, p95 {s.p95_s * 1e3:.3f} ms, "
        f"below 5 ms {s.fraction_below_5ms:.3f}"
        for rid, s in stats.items()
    ]
    outputs = [
        an.write_per_csv(series, out_dir / "per.csv"),
        an.write_counts_csv(series, out_dir / "counts.csv"),
        an.write_latency_csv(stats, out_dir / "latency.csv"),
    ]
    lines.append("wrote " + ", ".join(str(path) for path, _ in outputs))
    return "\n".join(lines) + "\n", outputs, out_dir


def _cmd_coverage(args) -> tuple:
    log = _read_any_log(args.log, args.field_csv)
    report = an.coverage_report(log, args.window, args.threshold)
    lines = [
        f"{rid}: warning range {sub.warning_range_m:g} m, "
        f"farthest qualifying {sub.farthest_qualifying_m:g} m, "
        f"contiguous {str(sub.contiguous).lower()}"
        for rid, sub in sorted((report.per_receiver or {}).items())
    ]
    lines.append(
        f"aggregate: warning range {report.warning_range_m:g} m "
        f"(threshold {report.threshold_used} per {report.window_width_m:g} m bin)"
    )
    if report.warning_failure:
        lines.append("warning-failure: no bin met the threshold")
    outputs = [an.write_coverage_csv(report, args.out)] if args.out else []
    lines += [f"wrote {path}" for path, _ in outputs]
    return "\n".join(lines) + "\n", outputs, None


def _cmd_safeness(args) -> tuple:
    out, curves = args.out, args.curves_out
    if out and curves and os.path.realpath(out) == os.path.realpath(curves):
        raise ConfigError(f"--out {out!r} and --curves-out {curves!r} name one file")
    if args.coverage_from:
        log = logio.read_log(args.coverage_from)
        warning_range = an.coverage_report(log, args.window, args.threshold).warning_range_m
    else:
        for flag in ("window", "threshold"):
            if getattr(args, flag) is not None:
                raise ConfigError(f"--{flag} applies only with --coverage-from, not --dwarn")
        warning_range = args.dwarn
    try:
        report = an.safeness_report(
            warning_range, args.train_speed, args.vehicle_speeds, args.roads, args.tr, args.ts
        )
    except ValueError as exc:  # each flag is finite, but the model overflows
        source = "--coverage-from" if args.coverage_from else "--dwarn"
        raise ConfigError(f"{source}, --train-speed, --tr and --ts: {exc}") from None
    lines = [
        f"warning range {warning_range:g} m, train speed {args.train_speed:.4f} m/s, "
        f"reaction {args.tr:g} s, system delay {args.ts:g} s"
    ]
    for row in report.rows:
        status = "FAILED" if row.system_failed else f"{row.protection_s:7.2f} s"
        lines.append(
            f"  vehicle {row.vehicle_speed_mph:4.0f} mph {row.road:3s}: "
            f"braking {row.braking_s:5.2f} s, protection {status}"
        )
    band = report.protection_band_s()
    if band is not None:
        lines.append(f"protection band: {band[0]:.2f} to {band[1]:.2f} s")
    else:
        lines.append("system failure at every grid point")
    writers = ((out, an.write_safeness_csv), (curves, an.write_curves_csv))
    outputs = [write(report, path) for path, write in writers if path]
    lines += [f"wrote {path}" for path, _ in outputs]
    return "\n".join(lines) + "\n", outputs, None


def _cmd_sweep(args) -> tuple:
    scenario = load_config(args.config).scenario
    out_dir = Path(args.out_dir)
    try:
        rows = run_sweep(
            scenario,
            speeds_mps=args.speeds,
            powers_dbm=args.powers,
            modulations=args.modulations,
            antennas=args.antennas,
            seeds=args.seeds,
            max_workers=args.workers,
            out_dir=out_dir,
        )
    except SweepPointError as exc:
        raise ConfigError(str(exc)) from None
    return f"wrote {len(rows)} logs and {out_dir / 'summary.csv'}\n", [], None


_COMMANDS = {
    "simulate": _cmd_simulate,
    "analyze": _cmd_analyze,
    "coverage": _cmd_coverage,
    "safeness": _cmd_safeness,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        text, outputs, directory = _COMMANDS[args.command](args)
        logio.commit(outputs, directory)
        sys.stdout.write(text)
        return EXIT_OK
    except UsageError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: runtime: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
