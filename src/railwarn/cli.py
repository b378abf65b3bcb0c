"""Command-line surface tying simulation to analysis.

Subcommands: simulate, analyze, coverage, safeness, sweep. Exit codes:
0 success, 1 usage, 2 config/schema problem, 3 runtime failure. Errors
print a single machine-parsable line to stderr:  error: <category>: <msg>
"""

import argparse
import csv
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


def _build_parser() -> _Parser:
    parser = _Parser(prog="railwarn", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one pass from a scenario config")
    p_sim.add_argument("config")
    p_sim.add_argument("-o", "--output", help="log path (default: <config stem>.log.jsonl)")
    p_sim.add_argument("--seed", type=int, default=None, help="override the config seed")

    p_an = sub.add_parser("analyze", help="PER, counts and latency tables from a log")
    p_an.add_argument("log")
    p_an.add_argument("--window", type=float, default=None, help="bin width in meters")
    p_an.add_argument("--out-dir", default=".", help="directory for the CSV outputs")
    p_an.add_argument("--field-csv", action="store_true", help="log is a field-capture CSV")

    p_cov = sub.add_parser("coverage", help="warning coverage range from a log")
    p_cov.add_argument("log")
    p_cov.add_argument("--window", type=float, default=None)
    p_cov.add_argument("--threshold", type=int, default=None, help="required packets per bin")
    p_cov.add_argument("--out", help="optional CSV output path")
    p_cov.add_argument("--field-csv", action="store_true")

    p_safe = sub.add_parser("safeness", help="protection time and safeness curves")
    group = p_safe.add_mutually_exclusive_group(required=True)
    group.add_argument("--dwarn", type=float, help="warning range in meters")
    group.add_argument("--coverage-from", help="log file to extract the range from")
    p_safe.add_argument("--train-speed", required=True, help="e.g. 10mph or 4.47 (m/s)")
    p_safe.add_argument("--vehicle-speeds", help="mph list (default: the braking table's)")
    p_safe.add_argument("--roads", help="comma list (default: every road)")
    p_safe.add_argument(
        "--tr", type=float, default=safety.DEFAULT_REACTION_S, help="driver reaction time, s"
    )
    p_safe.add_argument(
        "--ts", type=float, default=safety.DEFAULT_SYSTEM_DELAY_S, help="system delay, s"
    )
    p_safe.add_argument("--window", type=float, default=None)
    p_safe.add_argument("--threshold", type=int, default=None)
    p_safe.add_argument("--out", help="protection-time table CSV")
    p_safe.add_argument("--curves-out", help="safeness curve CSV")

    p_sweep = sub.add_parser("sweep", help="grid of passes around a base config")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--speeds", help="comma list, e.g. 20mph,50mph,79mph")
    p_sweep.add_argument("--powers", help="comma list of dBm values")
    p_sweep.add_argument("--modulations", help="comma list, e.g. QPSK,16QAM")
    p_sweep.add_argument("--antennas", help="comma list of transmit antenna names")
    p_sweep.add_argument("--seeds", help="comma list of integer seeds")
    p_sweep.add_argument("--out-dir", default="sweep", help="directory for per-point logs")
    p_sweep.add_argument("--workers", type=int, default=None)
    return parser


def _list_flag(flag: str, text: str | None, conv=str, default=None):
    """The comma list a flag gives, or default when it is unset; one that does
    not parse or has no items raises a ConfigError naming the flag."""
    if text is None:
        return default
    items = _parse_flag(
        flag, lambda text: [conv(item) for item in text.split(",") if item.strip()], text
    )
    if not items:
        raise ConfigError(f"{flag} must list at least one value, got {text!r}")
    return items


def _check_flags(*checks) -> None:
    """Raise ConfigError naming the first flag that fails its check.

    Each check is (flag, value, low, strict): an unset value (None) passes;
    a set one must be finite and, unless low is None, at least low, or above
    it when strict.
    """
    for flag, value, low, strict in checks:
        if value is None:
            continue
        try:
            require_finite(**{flag: value})
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if low is not None and (value < low or (strict and value == low)):
            raise ConfigError(f"{flag} must be {'>' if strict else '>='} {low:g}, got {value!r}")


def _parse_flag(flag: str, parse, text: str):
    """parse(text), with a parse failure raised as a ConfigError naming the flag."""
    try:
        return parse(text)
    except ValueError as exc:
        raise ConfigError(f"{flag}: cannot parse {text!r}: {exc}") from None


def _window_checks(args) -> list:
    """The checks of the optional bin-width and coverage-threshold flags."""
    return [
        ("--window", args.window, 0.0, True),
        ("--threshold", getattr(args, "threshold", None), 1, False),
    ]


def _read_any_log(path: str, field_csv: bool):
    if field_csv:
        return logio.read_field_log(path)
    return logio.read_log(path)


def _cmd_simulate(args) -> int:
    if args.seed is not None:
        try:
            check_seed(args.seed, "--seed")
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    log = run_pass(load_config(args.config).scenario, seed=args.seed)
    output = args.output or (Path(args.config).stem + ".log.jsonl")
    logio.write_log(log, output)
    decoded = log.decoded_count()
    print(
        f"wrote {output}: {log.packet_count()} packet records, "
        f"{decoded} decoded, {len(log.events)} warning event(s), "
        f"digest {log.digest[:12]}"
    )
    return EXIT_OK


def _cmd_analyze(args) -> int:
    _check_flags(*_window_checks(args))
    log = _read_any_log(args.log, args.field_csv)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    series = [an.bin_per(log, args.window, rid) for rid in log.receiver_ids()]
    an.write_per_csv(series, out_dir / "per.csv")
    an.write_counts_csv(series, out_dir / "counts.csv")
    stats = {}
    for rid in log.receiver_ids():
        try:
            stats[rid] = an.latency_stats(log, rid)
        except ValueError:
            continue
    an.write_latency_csv(stats, out_dir / "latency.csv")
    for s in series:
        worst = max(b.per for b in s.bins)
        width = s.window_width_m
        print(f"{s.receiver_id}: {len(s.bins)} bins of {width:g} m, worst per {worst:.3f}")
    for rid, s in stats.items():
        print(
            f"{rid}: latency mean {s.mean_s * 1e3:.3f} ms, p95 {s.p95_s * 1e3:.3f} ms, "
            f"below 5 ms {s.fraction_below_5ms:.3f}"
        )
    print(f"wrote {out_dir / 'per.csv'}, {out_dir / 'counts.csv'}, {out_dir / 'latency.csv'}")
    return EXIT_OK


def _cmd_coverage(args) -> int:
    _check_flags(*_window_checks(args))
    log = _read_any_log(args.log, args.field_csv)
    report = an.coverage_report(log, args.window, args.threshold)
    for rid, sub in sorted((report.per_receiver or {}).items()):
        print(
            f"{rid}: warning range {sub.warning_range_m:g} m, "
            f"farthest qualifying {sub.farthest_qualifying_m:g} m, "
            f"contiguous {str(sub.contiguous).lower()}"
        )
    print(
        f"aggregate: warning range {report.warning_range_m:g} m "
        f"(threshold {report.threshold_used} per {report.window_width_m:g} m bin)"
    )
    if report.warning_failure:
        print("warning-failure: no bin met the threshold")
    if args.out:
        an.write_coverage_csv(report, args.out)
        print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_safeness(args) -> int:
    train_speed = _parse_flag("--train-speed", parse_speed, args.train_speed)
    vehicle_speeds = _list_flag(
        "--vehicle-speeds", args.vehicle_speeds, float, safety.DEFAULT_VEHICLE_SPEEDS_MPH
    )
    roads = _list_flag("--roads", args.roads, default=safety.ROADS)
    _check_flags(
        ("--dwarn", args.dwarn, 0.0, False),
        ("--train-speed", train_speed, 0.0, True),
        ("--tr", args.tr, 0.0, False),
        ("--ts", args.ts, 0.0, False),
        *[("--vehicle-speeds", speed, None, False) for speed in vehicle_speeds],
        *_window_checks(args),
    )
    for road in roads:
        if road not in safety.ROADS:
            raise ConfigError(f"--roads must be among {', '.join(safety.ROADS)}, got {road!r}")
    table = safety.DEFAULT_BRAKING_TABLE
    for speed in vehicle_speeds:
        if not table.min_speed_mph <= speed <= table.max_speed_mph:
            raise ConfigError(
                f"--vehicle-speeds must be within the braking table's "
                f"{table.min_speed_mph:g}-{table.max_speed_mph:g} mph, got {speed:g}"
            )
    if args.coverage_from:
        log = logio.read_log(args.coverage_from)
        warning_range = an.coverage_report(log, args.window, args.threshold).warning_range_m
    else:
        warning_range = args.dwarn
    report = an.safeness_report(
        warning_range,
        train_speed,
        vehicle_speeds_mph=vehicle_speeds,
        roads=roads,
        reaction_s=args.tr,
        system_delay_s=args.ts,
    )
    print(
        f"warning range {warning_range:g} m, train speed {train_speed:.4f} m/s, "
        f"reaction {args.tr:g} s, system delay {args.ts:g} s"
    )
    for row in report.rows:
        status = "FAILED" if row.system_failed else f"{row.protection_s:7.2f} s"
        print(
            f"  vehicle {row.vehicle_speed_mph:4.0f} mph {row.road:3s}: "
            f"braking {row.braking_s:5.2f} s, protection {status}"
        )
    band = report.protection_band_s()
    if band is not None:
        print(f"protection band: {band[0]:.2f} to {band[1]:.2f} s")
    else:
        print("system failure at every grid point")
    if args.out:
        an.write_safeness_csv(report, args.out)
        print(f"wrote {args.out}")
    if args.curves_out:
        an.write_curves_csv(report, args.curves_out)
        print(f"wrote {args.curves_out}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    grid = dict(
        speeds_mps=_list_flag("--speeds", args.speeds, parse_speed),
        powers_dbm=_list_flag("--powers", args.powers, float),
        modulations=_list_flag("--modulations", args.modulations),
        antennas=_list_flag("--antennas", args.antennas),
        seeds=_list_flag("--seeds", args.seeds, int),
    )
    _check_flags(("--workers", args.workers, 1, False))
    scenario = load_config(args.config).scenario
    try:
        results = run_sweep(scenario, **grid, max_workers=args.workers)
    except SweepPointError as exc:
        raise ConfigError(str(exc)) from None
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary_rows = []
    for index, result in enumerate(results):
        point = result.point
        log = result.log
        name = (
            f"point{index:03d}_v{point.speed_mps:g}_p{point.tx_power_dbm:g}"
            f"_{point.modulation}_{point.tx_antenna}_s{point.seed}.log.jsonl"
        )
        logio.write_log(log, out_dir / name)
        decoded = log.decoded_count()
        coverage = an.coverage_report(log)
        summary_rows.append(
            [
                name,
                point.speed_mps,
                point.tx_power_dbm,
                point.modulation,
                point.tx_antenna,
                point.seed,
                log.packet_count(),
                decoded,
                len(log.events),
                coverage.warning_range_m,
            ]
        )
    summary_path = out_dir / "summary.csv"
    with open(summary_path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            [
                "log",
                "speed_mps",
                "tx_power_dbm",
                "modulation",
                "tx_antenna",
                "seed",
                "packets",
                "decoded",
                "events",
                "warning_range_m",
            ]
        )
        writer.writerows(summary_rows)
    print(f"wrote {len(results)} logs and {summary_path}")
    return EXIT_OK


_COMMANDS = {
    "simulate": _cmd_simulate,
    "analyze": _cmd_analyze,
    "coverage": _cmd_coverage,
    "safeness": _cmd_safeness,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except UsageError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: runtime: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
