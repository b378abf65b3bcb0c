"""Measurement-analysis pipeline over packet logs.

Works identically on simulated logs and ingested field captures: bin packet
outcomes into distance windows anchored at the crossing, extract the
reliable coverage range, summarise latency, and convert coverage into
protection-time and safeness-curve reports.

Distance bins are half-open [i*w, (i+1)*w) so one bin edge always sits at
the crossing; approach-side bins have negative centers.
"""

import csv
import dataclasses
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .logio import SimLog
from .safety import (
    DEFAULT_REACTION_S,
    DEFAULT_SYSTEM_DELAY_S,
    DEFAULT_VEHICLE_SPEEDS_MPH,
    ROADS,
    safeness_curve,
)


@dataclass(frozen=True)
class PerBin:
    d_center_m: float
    transmitted: int
    received: int
    per: float
    index: int  # the bin is [index * w, (index + 1) * w)


@dataclass(frozen=True)
class PerSeries:
    receiver_id: str
    window_width_m: float
    bins: tuple[PerBin, ...]


def _single_receiver_id(log: SimLog, receiver_id: str | None) -> str:
    if receiver_id is not None:
        if receiver_id not in log.records:
            raise KeyError(f"receiver {receiver_id!r} not in log")
        return receiver_id
    ids = list(log.records)
    if len(ids) != 1:
        raise ValueError(f"log has receivers {ids}; pass receiver_id explicitly")
    return ids[0]


def bin_per(
    log: SimLog, window_width_m: float | None = None, receiver_id: str | None = None
) -> PerSeries:
    """Packet error rate per distance window for one receiver.

    The window width defaults to the log's own (SimLog.analysis_window_m).
    """
    if window_width_m is None:
        window_width_m = log.analysis_window_m
    if window_width_m <= 0:
        raise ValueError("window width must be positive")
    rid = _single_receiver_id(log, receiver_id)
    packets = log.records[rid]
    if not len(packets):
        raise ValueError("empty log")
    # Only the occupied windows get a bin, however far apart they lie.
    indices, inverse = np.unique(
        np.floor(packets.train_d_t_m / window_width_m), return_inverse=True
    )
    if not np.isfinite(indices).all():
        raise ValueError("a train position has no finite window index")
    transmitted = np.bincount(inverse, minlength=len(indices))
    received = np.bincount(inverse[packets.decoded], minlength=len(indices))
    bins = tuple(
        PerBin(
            d_center_m=(index + 0.5) * window_width_m,
            transmitted=tx,
            received=rx,
            per=(tx - rx) / tx,
            index=index,
        )
        for index, tx, rx in zip(
            map(int, indices.tolist()), transmitted.tolist(), received.tolist()
        )
    )
    return PerSeries(receiver_id=rid, window_width_m=window_width_m, bins=bins)


@dataclass(frozen=True)
class CoverageReport:
    """Reliable warning coverage extracted from binned counts.

    warning_range_m uses the contiguity rule: every approach bin inside the
    range meets the threshold. farthest_qualifying_m is the outer edge of
    the farthest approach bin that meets the threshold anywhere, which can
    exceed the contiguous range when coverage has holes. threshold_used and
    window_width_m are the settings it was read at.
    """

    warning_range_m: float
    threshold_used: int
    window_width_m: float
    contiguous: bool
    farthest_qualifying_m: float
    warning_failure: bool
    per_receiver: "dict | None" = None


def extract_dwarn(series: PerSeries, threshold: int) -> CoverageReport:
    """Coverage range from the binned counts of one receiver.

    Walks approach-side bins outward from the crossing; the contiguous
    range ends at the first bin that misses the threshold (or has no data).
    """
    if threshold < 1:
        raise ValueError("threshold must be >= 1")
    width = series.window_width_m
    approach = {b.index: b.received for b in series.bins if b.index < 0}
    qualifying = [i for i, r in approach.items() if r >= threshold]
    farthest = -min(qualifying) * width if qualifying else 0.0
    index = -1
    while index in approach and approach[index] >= threshold:
        index -= 1
    contiguous_range = -(index + 1) * width
    return CoverageReport(
        warning_range_m=contiguous_range,
        threshold_used=threshold,
        window_width_m=width,
        contiguous=bool(qualifying) and farthest == contiguous_range,
        farthest_qualifying_m=farthest,
        warning_failure=not qualifying,
    )


def coverage_report(
    log: SimLog, window_width_m: float | None = None, threshold: int | None = None
) -> CoverageReport:
    """Per-receiver coverage plus a conservative aggregate (worst receiver).

    The window width and threshold default to the log's own settings.
    """
    if threshold is None:
        threshold = log.coverage_threshold
    per_receiver = {
        rid: extract_dwarn(bin_per(log, window_width_m, rid), threshold)
        for rid in log.records
    }
    worst = min(per_receiver.values(), key=lambda r: r.warning_range_m)
    return dataclasses.replace(worst, per_receiver=per_receiver)


@dataclass(frozen=True)
class LatencyStats:
    count: int
    mean_s: float
    p50_s: float
    p95_s: float
    max_s: float
    fraction_below_5ms: float
    fraction_below_period: float


def latency_stats(log: SimLog, receiver_id: str | None = None) -> LatencyStats:
    """Latency summary over decoded packets only; the period is the log's."""
    receivers = log.records.values() if receiver_id is None else [log.records[receiver_id]]
    values = np.concatenate(
        [np.empty(0), *(packets.latency_s[packets.decoded] for packets in receivers)]
    )
    if not len(values):
        raise ValueError("no decoded packets in log")
    return LatencyStats(
        count=len(values),
        mean_s=float(values.mean()),
        p50_s=float(np.percentile(values, 50)),
        p95_s=float(np.percentile(values, 95)),
        max_s=float(values.max()),
        fraction_below_5ms=float((values < 5e-3).mean()),
        fraction_below_period=float((values < log.tx_period_s).mean()),
    )


@dataclass
class SafenessReport:
    """One SafenessCurve per grid point, vehicle speed major, in rows."""

    warning_range_m: float
    train_speed_mps: float
    reaction_s: float
    system_delay_s: float
    rows: list

    def protection_band_s(self) -> "tuple[float, float] | None":
        values = [row.protection_s for row in self.rows if not row.system_failed]
        return (min(values), max(values)) if values else None


def safeness_report(
    coverage,
    train_speed_mps: float,
    vehicle_speeds_mph=DEFAULT_VEHICLE_SPEEDS_MPH,
    roads=ROADS,
    reaction_s: float = DEFAULT_REACTION_S,
    system_delay_s: float = DEFAULT_SYSTEM_DELAY_S,
) -> SafenessReport:
    """Protection time and safeness curves over a vehicle grid.

    coverage may be a CoverageReport or a bare warning range in meters.
    A zero range marks every grid point as failed rather than raising.
    """
    is_report = isinstance(coverage, CoverageReport)
    warning_range = coverage.warning_range_m if is_report else float(coverage)
    rows = [
        safeness_curve(train_speed_mps, warning_range, speed, road, reaction_s, system_delay_s)
        for speed in vehicle_speeds_mph
        for road in roads
    ]
    return SafenessReport(warning_range, train_speed_mps, reaction_s, system_delay_s, rows)


def csv_output(path: str | Path, header: list, rows: list) -> tuple:
    """A CSV file as the (path, chunks) output logio.commit writes; each write_*_csv returns one."""
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows(rows)
    return path, [text.getvalue().encode()]


def write_per_csv(series_list, path: str | Path) -> tuple:
    rows = [
        [s.receiver_id, b.d_center_m, b.transmitted, b.received, b.per]
        for s in series_list
        for b in s.bins
    ]
    return csv_output(path, ["receiver_id", "d_center_m", "transmitted", "received", "per"], rows)


def write_counts_csv(series_list, path: str | Path) -> tuple:
    rows = [[s.receiver_id, b.d_center_m, b.received] for s in series_list for b in s.bins]
    return csv_output(path, ["receiver_id", "d_center_m", "received"], rows)


def write_latency_csv(stats_by_receiver: dict, path: str | Path) -> tuple:
    rows = [[rid, *dataclasses.astuple(s)] for rid, s in stats_by_receiver.items()]
    header = ["receiver_id", *(field.name for field in dataclasses.fields(LatencyStats))]
    return csv_output(path, header, rows)


# The cells of a coverage.csv row after the receiver id, as CoverageReport
# fields; the header drops the _used suffix.
_COVERAGE_CELLS = (
    "warning_range_m",
    "farthest_qualifying_m",
    "contiguous",
    "threshold_used",
    "warning_failure",
)
_SAFENESS_COLUMNS = (
    "vehicle_speed_mph",
    "road",
    "braking_s",
    "time_to_avoid_collision_s",
    "protection_s",
    "zero_cross_distance_m",
    "one_cross_distance_m",
    "system_failed",
)


def write_coverage_csv(report: CoverageReport, path: str | Path) -> tuple:
    """One row per receiver, sorted by id, then the aggregate row."""
    reports = [*sorted((report.per_receiver or {}).items()), ("aggregate", report)]
    rows = [[rid, *(getattr(sub, cell) for cell in _COVERAGE_CELLS)] for rid, sub in reports]
    header = ["receiver_id", *(cell.removesuffix("_used") for cell in _COVERAGE_CELLS)]
    return csv_output(path, header, rows)


def write_safeness_csv(report: SafenessReport, path: str | Path) -> tuple:
    rows = [[getattr(row, column) for column in _SAFENESS_COLUMNS] for row in report.rows]
    return csv_output(path, list(_SAFENESS_COLUMNS), rows)


def write_curves_csv(report: SafenessReport, path: str | Path) -> tuple:
    rows = [
        [row.vehicle_speed_mph, row.road, d, level]
        for row in report.rows
        for d, level in zip(row.distances_m, row.levels)
    ]
    return csv_output(path, ["vehicle_speed_mph", "road", "d_t_m", "safeness_level"], rows)
