"""The pass log apart from any file format: its types and the rules every reader keeps.

SimLog holds one pass, each receiver's packets as PacketColumns under its
id; the engine makes it and the analysis reads it. It is frozen: a log is
complete when the engine returns it. A packet is four measured values;
decoded and latency_s = rx_time_s - tx_time_s are derived from them. The
header is every SimLog field but records and events (_header_dict), with
the analysis settings (AnalysisDefaults) the scenario gave. A reader checks
each header field against its annotation and the pass's shape
(_header_values), each event against the header (_event), and each decoded
row's latency_s against its times (_first_fault), and that each receiver
has a packet and a simulated log its whole pass, its tick columns bitwise
its train run's (_assemble). This module reads and writes no file: each
codec beside it (JSON lines, the field-capture CSV) turns bytes into a
header object, packet columns and events, and hands them to these rules.
"""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .geometry import Placement, TrainRun, tick_count
from .protocol import WARNING_MODES, WarningEvent
from .units import MAX_PACKETS, check_field, require_finite_fields

# Version 2 logs come from the keyed block streams (engine.receiver_stream);
# version 1 logs came from one stream per receiver drawn tick by tick. Their
# lines have the same layout, so both read.
LOG_VERSION = 2
READABLE_LOG_VERSIONS = (1, 2)


def pass_packets(duration_s: float, period_s: float, receivers: int) -> int:
    """The packet records of a pass, ticks x receivers; over MAX_PACKETS raises ValueError."""
    # The ratio is bounded first: floor() of a vast one overflows.
    ticks = tick_count(duration_s, period_s) if duration_s / period_s <= MAX_PACKETS else math.inf
    if not ticks * receivers <= MAX_PACKETS:
        raise ValueError(
            f"pass needs {ticks} transmit ticks x {receivers} receiver(s) = "
            f"{ticks * receivers} packets, more than the limit of {MAX_PACKETS}"
        )
    return ticks * receivers


class PacketColumns:
    """One receiver's packets as numpy columns, one row per packet.

    Four columns are measured: seq (uint64), tx_time_s, train_d_t_m and
    rx_time_s (float64, NaN where the packet was not decoded). decoded (true
    where rx_time_s is not NaN) and latency_s (rx_time_s - tx_time_s) are
    derived from them. All are read-only; equality is exact with NaN equal
    to NaN. The receiver id is the SimLog.records key they are filed under.
    """

    __slots__ = ("seq", "tx_time_s", "train_d_t_m", "decoded", "rx_time_s", "latency_s")

    def __init__(self, seq, tx_time_s, train_d_t_m, rx_time_s):
        self.seq = np.asarray(seq, dtype=np.uint64)
        self.tx_time_s = np.asarray(tx_time_s, dtype=np.float64)
        self.train_d_t_m = np.asarray(train_d_t_m, dtype=np.float64)
        self.rx_time_s = np.asarray(rx_time_s, dtype=np.float64)
        if not len(self.seq) == len(self.tx_time_s) == len(self.train_d_t_m) == len(self.rx_time_s):
            raise ValueError("packet columns must have equal lengths")
        self.decoded = ~np.isnan(self.rx_time_s)
        with np.errstate(over="ignore", invalid="ignore"):
            self.latency_s = self.rx_time_s - self.tx_time_s
        # Receivers of one pass share the time and position arrays.
        for column in self.columns():
            column.flags.writeable = False

    def columns(self) -> tuple:
        """(seq, tx_time_s, train_d_t_m, decoded, rx_time_s, latency_s)."""
        return tuple(getattr(self, name) for name in self.__slots__)

    def __len__(self) -> int:
        return len(self.seq)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PacketColumns):
            return NotImplemented
        return all(
            np.array_equal(mine, theirs, equal_nan=mine.dtype.kind == "f")
            for mine, theirs in zip(self.columns(), other.columns())
        )

    def __repr__(self) -> str:
        return f"PacketColumns({len(self)} packets)"


@dataclass(frozen=True)
class AnalysisDefaults:
    """The distance-bin width and packets-per-bin threshold a pass's coverage is read at."""

    window_width_m: float = 50.0
    coverage_threshold: int = 5

    def __post_init__(self) -> None:
        require_finite_fields(self)
        if self.window_width_m <= 0:
            raise ValueError("window_width_m must be positive")
        if self.coverage_threshold < 1:
            raise ValueError("coverage_threshold must be >= 1")


@dataclass(frozen=True)
class SimLog:
    """Complete record of one pass: every packet for every receiver.

    records maps each receiver id to its PacketColumns. The analysis settings
    are the scenario's; a header without them reads as AnalysisDefaults().
    """

    digest: str
    seed: int
    train_speed_mps: float | None
    tx_period_s: float
    start_d_t_m: float
    end_d_t_m: float
    duration_s: float
    receivers: tuple[Placement, ...]
    records: dict  # receiver_id -> PacketColumns
    events: list  # list[WarningEvent]
    analysis_window_m: float = AnalysisDefaults.window_width_m
    coverage_threshold: int = AnalysisDefaults.coverage_threshold

    def packet_count(self) -> int:
        return sum(len(recs) for recs in self.records.values())

    def decoded_count(self) -> int:
        return sum(int(packets.decoded.sum()) for packets in self.records.values())

    def receiver_ids(self) -> list:
        return [p.id for p in self.receivers]


# The keys of packet, event and header lines are the slot or field names of
# the types they hold, after a packet's receiver_id. Header lines carry every
# SimLog field but records and events; those with a default may be absent.
PACKET_KEYS = ("receiver_id", *PacketColumns.__slots__)
_EVENT_FIELDS = dataclasses.fields(WarningEvent)
EVENT_KEYS = tuple(field.name for field in _EVENT_FIELDS)
_RECEIVER_FIELDS = dataclasses.fields(Placement)
RECEIVER_KEYS = tuple(field.name for field in _RECEIVER_FIELDS)
_HEADER_FIELDS = tuple(
    field for field in dataclasses.fields(SimLog) if field.name not in ("records", "events")
)
HEADER_KEYS = tuple(
    field.name for field in _HEADER_FIELDS if field.default is dataclasses.MISSING
)


def _header_dict(log: SimLog) -> dict:
    return {
        "type": "header",
        "version": LOG_VERSION,
        **{field.name: getattr(log, field.name) for field in _HEADER_FIELDS},
        "receivers": [dataclasses.asdict(placement) for placement in log.receivers],
    }


def _not_finite(tx, position, decoded, rx, latency) -> np.ndarray:
    """The rows a log cannot hold, which the writer refuses and the reader
    rejects: a time or position that is not finite, or a decoded row without
    a finite rx_time_s and latency_s."""
    finite = np.isfinite(tx) & np.isfinite(position)
    return ~finite | decoded & ~(np.isfinite(rx) & np.isfinite(latency))


def _require(obj: dict, keys, what: str) -> None:
    for key in keys:
        if key not in obj:
            raise ValueError(f"{what} has no {key!r}")


def _field_values(obj: dict, fields, prefix: str = "") -> dict:
    """obj's values for fields, each checked against its annotation; an
    absent one takes the field default."""
    return {
        field.name: check_field(obj.get(field.name, field.default), field.type, prefix + field.name)
        for field in fields
    }


def _header_values(obj: dict) -> dict:
    """The SimLog fields of a header line, checked. A pass has duration_s >= 0
    and start_d_t_m <= end_d_t_m; a simulated one (train_speed_mps set) is a
    TrainRun, and duration_s is that run's. It lists at least one receiver."""
    version = obj.get("version")
    if isinstance(version, bool) or version not in READABLE_LOG_VERSIONS:
        raise ValueError(
            f"unsupported log version {version!r}; this reader reads {list(READABLE_LOG_VERSIONS)}"
        )
    _require(obj, HEADER_KEYS, "header")
    values = _field_values(obj, [field for field in _HEADER_FIELDS if field.name != "receivers"])
    if values["tx_period_s"] <= 0:
        raise ValueError(f"tx_period_s must be positive, got {values['tx_period_s']!r}")
    speed, start, end, duration = (
        values[key] for key in ("train_speed_mps", "start_d_t_m", "end_d_t_m", "duration_s")
    )
    if duration < 0:
        raise ValueError(f"duration_s: must be >= 0, got {duration!r}")
    if start > end:
        raise ValueError(f"start_d_t_m: must be <= end_d_t_m {end!r}, got {start!r}")
    if speed is not None:
        try:
            train = TrainRun(speed, start, end)
        except ValueError as exc:
            raise ValueError(f"train_speed_mps, start_d_t_m, end_d_t_m: {exc}") from None
        if duration != train.duration_s:
            raise ValueError(
                f"duration_s: must be {train.duration_s!r} for this train run, got {duration!r}"
            )
    window, threshold = values["analysis_window_m"], values["coverage_threshold"]
    try:
        AnalysisDefaults(window, threshold)
    except ValueError as exc:
        raise ValueError(
            f"analysis_window_m {window!r}, coverage_threshold {threshold!r}: {exc}"
        ) from None
    if not isinstance(obj["receivers"], list) or not obj["receivers"]:
        raise ValueError("header receivers must be a list of at least one receiver")
    placements = []
    for rec in obj["receivers"]:
        if not isinstance(rec, dict):
            raise ValueError("header receivers must be objects")
        _require(rec, RECEIVER_KEYS, "header receiver")
        placements.append(Placement(**_field_values(rec, _RECEIVER_FIELDS, "receiver ")))
    ids = [p.id for p in placements]
    if len(set(ids)) != len(ids):
        raise ValueError(f"header receivers list an id twice: {ids}")
    return {**values, "receivers": tuple(placements)}


def _event(obj: dict, placements: tuple) -> WarningEvent:
    """An event line's WarningEvent, its fields checked against their
    annotations and its values against the header's receivers."""
    _require(obj, EVENT_KEYS, "event line")
    event = WarningEvent(**_field_values(obj, _EVENT_FIELDS, "event "))
    kinds = {placement.id: placement.kind for placement in placements}
    if event.receiver_id not in kinds:
        raise ValueError(f"event receiver_id: {event.receiver_id!r} is not in the header")
    kind = kinds[event.receiver_id]
    for key, expected in (("source", kind), ("mode", WARNING_MODES[kind])):
        if getattr(event, key) != expected:
            raise ValueError(
                f"event {key}: must be {expected!r} for {kind} {event.receiver_id!r}, "
                f"got {getattr(event, key)!r}"
            )
    if event.packets_seen < 1:
        raise ValueError(f"event packets_seen: must be >= 1, got {event.packets_seen!r}")
    if event.trigger_time_s < 0:
        raise ValueError(f"event trigger_time_s: must be >= 0, got {event.trigger_time_s!r}")
    relay = event.relay_delivery_time_s
    if relay is not None and event.mode != "indirect":
        raise ValueError(
            f"event relay_delivery_time_s: a {event.mode} event has no relay, got {relay!r}"
        )
    if relay is not None and relay < event.trigger_time_s:
        raise ValueError(
            f"event relay_delivery_time_s: must be >= trigger_time_s "
            f"{event.trigger_time_s!r}, got {relay!r}"
        )
    return event


def _first_fault(columns: tuple, placements: tuple) -> "tuple[int, str] | None":
    """(line, message) of the lowest-numbered line that breaks a rule; the
    rows need not be in line order. latency holds each line's own latency_s."""
    receiver, seq, tx, position, decoded, rx, latency, lines = columns
    with np.errstate(over="ignore", invalid="ignore"):
        derived = rx - tx
    rules = [
        (_not_finite(tx, position, decoded, rx, derived), "packet values must be finite"),
        (decoded & (rx < tx), "rx_time_s must be >= tx_time_s"),
        (decoded & (latency != derived), "latency_s must be exactly rx_time_s - tx_time_s"),
    ]
    for index, placement in enumerate(placements):
        rows = np.flatnonzero(receiver == index)
        steps = rows[1:][seq[rows[1:]] <= seq[rows[:-1]]]
        rejected = np.zeros(len(lines), dtype=bool)
        rejected[steps] = True
        rules.append((rejected, f"seq of receiver {placement.id!r} must increase"))
    faults = [(int(lines[mask].min()), message) for mask, message in rules if mask.any()]
    return min(faults, key=lambda fault: fault[0], default=None)


_TICK_COLUMNS = ("seq", "tx_time_s", "train_d_t_m")


def _assemble(path, header: dict, parts: list, events: list) -> SimLog:
    placements = header["receivers"]
    if parts:
        columns = tuple(np.concatenate(column) for column in zip(*parts))
    else:
        columns = tuple(
            np.empty(0, dtype) for dtype in (np.intp, np.uint64, float, float, bool, float, float, int)
        )
    fault = _first_fault(columns, placements)
    if fault is not None:
        raise ValueError(f"{path}:{fault[0]}: {fault[1]}")
    receiver, seq, tx, position, _, rx, _, lines = columns
    # Every receiver has a packet line, and in a simulated log one per tick
    # of its train run, whose tick columns its own equal bitwise.
    ticks = None
    if header["train_speed_mps"] is not None:
        train = TrainRun(*(header[key] for key in ("train_speed_mps", "start_d_t_m", "end_d_t_m")))
        ticks = train.ticks(header["tx_period_s"])
    for placement, count in zip(placements, np.bincount(receiver, minlength=len(placements))):
        if count == 0 or (ticks is not None and count != len(ticks[0])):
            wanted = "at least 1" if ticks is None else f"the {len(ticks[0])} of its pass"
            raise ValueError(
                f"{path}: receiver {placement.id!r} has {count} packet lines, not {wanted}"
            )
    records = {}
    faults = []  # (line, column, tick) of each receiver's first row off its train run
    for index, placement in enumerate(placements):
        rows = receiver == index
        packets = records[placement.id] = PacketColumns(*(c[rows] for c in (seq, tx, position, rx)))
        for column, derived in enumerate(ticks or ()):
            mine = packets.columns()[column]
            off = np.flatnonzero(mine.view(np.uint64) != derived.view(np.uint64))
            faults += [(int(lines[rows][off[0]]), column, int(off[0]))] if off.size else []
    if faults:
        line, column, tick = min(faults)
        name, value = _TICK_COLUMNS[column], ticks[column][tick].item()
        raise ValueError(f"{path}:{line}: {name} must be {value!r} for seq {tick} of this train run")
    return SimLog(**header, records=records, events=events)
