"""The pass log: its types, JSON-lines files and field-capture CSV ingest.

SimLog holds one pass, each receiver's packets as PacketColumns under its
id; the engine writes it and the analysis reads it. It is frozen: a log is
complete when the engine returns it. A packet is four measured values;
decoded and latency_s = rx_time_s - tx_time_s are derived from them. A log
file is one JSON object per line: a header with the scenario digest, pass
metadata and the analysis settings (AnalysisDefaults) the scenario gave,
then packet records (grouped by receiver, ordered by sequence number), then
warning events. Keys are sorted so identical logs are byte-identical. The
reader checks each header field against its annotation and the pass's
shape (_header_values), each event against the header (_event), and each
decoded line's latency_s against its times (_first_fault), and that each
receiver has a packet line and a simulated log its whole pass (_assemble).
Every file the package writes goes through commit, all or nothing.

A packet line has one layout, PACKET_LINE, keys sorted as json.dumps(...,
sort_keys=True) writes them: the writer fills it into one template per
receiver and decoded state, the reader into one pattern. Packets move in
chunks. The reader checks line 1 as the header, then matches packet lines
with the pattern, converting their numbers with float() and int() as json
does; any other line goes through json with the full checks.
"""

import contextlib
import csv
import dataclasses
import errno
import hashlib
import json
import math
import os
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geometry import Placement, TrainRun
from .protocol import WARNING_MODES, WarningEvent
from .units import check_field, require_finite_fields

# Version 2 logs come from the keyed block streams (engine.receiver_stream);
# version 1 logs came from one stream per receiver drawn tick by tick. Their
# lines have the same layout, so both read.
LOG_VERSION = 2
READABLE_LOG_VERSIONS = (1, 2)

# The most packets one pass may hold, transmit ticks x receivers: the
# engine refuses a scenario above it, and read_log a header. The largest
# pass shipped, tested or benchmarked has 300,303.
MAX_PACKETS = 4_000_000


def _tick_count(duration_s: float, period_s: float) -> int:
    # +1 for the packet at t = 0; small epsilon so exact multiples round down
    # consistently instead of dropping the final tick to float dust.
    return math.floor(duration_s / period_s + 1e-9) + 1


def pass_packets(duration_s: float, period_s: float, receivers: int) -> int:
    """The packet records of a pass, ticks x receivers; over MAX_PACKETS raises ValueError."""
    # The ratio is bounded first: floor() of a vast one overflows.
    ticks = _tick_count(duration_s, period_s) if duration_s / period_s <= MAX_PACKETS else math.inf
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


# One encoder for every line: the output equals json.dumps(obj,
# sort_keys=True) byte for byte, without building an encoder per line, and
# a NaN or infinity raises instead of writing a non-JSON literal.
_encode = json.JSONEncoder(sort_keys=True, allow_nan=False).encode

# Packet rows formatted per batch on write; about this many bytes of lines
# parsed per batch on read.
WRITE_BATCH_ROWS = 4096
READ_BATCH_BYTES = 1 << 18

# The keys of packet, event and header lines are the slot or field names of
# the types they hold, after a packet's receiver_id. Header lines carry every
# SimLog field but records and events; those with a default may be absent.
PACKET_KEYS = ("receiver_id", *PacketColumns.__slots__)
PACKET_LINE = (
    '{"decoded": %s, "latency_s": %s, "receiver_id": %s, "rx_time_s": %s, '
    '"seq": %s, "train_d_t_m": %s, "tx_time_s": %s, "type": "packet"}'
)
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


def _packet_batches(receiver_id: str, packets: PacketColumns):
    """Lists of packet lines, WRITE_BATCH_ROWS rows at a time.

    %r of a float is float.__repr__, which is what json writes for a
    float. A row the log cannot hold raises json's ValueError, naming the
    row's first value that is not finite.
    """
    columns = packets.columns()
    bad = np.flatnonzero(_not_finite(*columns[1:]))
    if bad.size:
        value = next(v for v in (float(c[bad[0]]) for c in columns[1:]) if not math.isfinite(v))
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    receiver = _encode(receiver_id).replace("%", "%%")
    decoded_line = PACKET_LINE % ("true", "%r", receiver, "%r", "%d", "%r", "%r")
    lost_line = PACKET_LINE % ("false", "null", receiver, "null", "%d", "%r", "%r")
    for start in range(0, len(packets), WRITE_BATCH_ROWS):
        rows = zip(*(column[start : start + WRITE_BATCH_ROWS].tolist() for column in columns))
        yield [
            decoded_line % (latency, rx, seq, position, tx)
            if decoded
            else lost_line % (seq, position, tx)
            for seq, tx, position, decoded, rx, latency in rows
        ]


def log_text(log: SimLog):
    """The serialised log in pieces of whole lines."""
    yield _encode(_header_dict(log)) + "\n"
    for receiver_id in log.receiver_ids():
        for lines in _packet_batches(receiver_id, log.records[receiver_id]):
            yield "\n".join(lines) + "\n"
    for event in log.events:
        yield _encode({"type": "event", **dataclasses.asdict(event)}) + "\n"


def log_bytes(log: SimLog) -> bytes:
    return "".join(log_text(log)).encode()


def commit(outputs, directory=None) -> None:
    """Write every (path, chunks) output, all or nothing; directory, if
    given, is made first. Two paths naming one file raise ValueError
    before anything is written.

    Each output streams its text chunks to a temp file beside its path, and
    only when every one is complete are they renamed over their paths. A
    path that is a directory fails before anything is written there. Any
    failure deletes every temp file and every directory made here, and an
    OSError names the output's path. The one gap: a rename racing with
    another process's leaves the outputs renamed before it.
    """
    outputs = list(outputs)
    files = [os.path.realpath(path) for path, _ in outputs]
    twice = [os.fspath(path) for (path, _), file in zip(outputs, files) if files.count(file) > 1]
    if twice:
        raise ValueError(f"outputs {', '.join(map(repr, twice))} name one file")
    made, pending, path = [], [], directory  # pending: (temp file, path) pairs
    try:
        if directory:
            made = [d for d in (Path(directory), *Path(directory).parents) if not d.exists()]
            Path(directory).mkdir(parents=True, exist_ok=True)
        for path, chunks in outputs:
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            pending.append((f"{path}.tmp{os.getpid()}", path))
            with open(pending[-1][0], "wb") as handle:
                handle.writelines(text.encode() for text in chunks)
        for tmp, path in pending:
            os.replace(tmp, path)
    except BaseException as exc:
        for tmp, _ in pending:
            Path(tmp).unlink(missing_ok=True)
        for made_dir in made:
            with contextlib.suppress(OSError):
                made_dir.rmdir()
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
        raise


def write_log(log: SimLog, path: str | Path) -> None:
    """Write the log to path, streamed in batches; a failed write leaves no file."""
    commit([(path, log_text(log))])


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name} is not allowed")


_decode = json.JSONDecoder(parse_constant=_reject_constant).decode

_NUMBER = r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?"


def _packet_pattern(encoded_ids) -> re.Pattern:
    """PACKET_LINE as a pattern, for receivers with these JSON-encoded ids.

    Groups: "true" or "" (decoded), latency_s, receiver_id, rx_time_s, seq,
    train_d_t_m, tx_time_s. latency_s and rx_time_s are numbers on a
    decoded line and "" on an undecoded one, where the line holds null.
    Numbers follow the JSON grammar, so NaN and Infinity never match.
    """
    ids = "(" + "|".join(re.escape(encoded) for encoded in encoded_ids) + ")"
    number, if_decoded = f"({_NUMBER})", f"(?(1)({_NUMBER})|null)"
    groups = ("(?:(true)|false)", if_decoded, ids, if_decoded, "(0|[1-9][0-9]*)", number, number)
    return re.compile("^" + re.escape(PACKET_LINE) % groups + "$", re.MULTILINE)


def _rows_to_columns(path, rows: list, receivers: dict, lines) -> tuple:
    """Column arrays of rows in the packet pattern's groups, plus their line numbers."""
    decoded, latency, receiver, rx, seq, position, tx = zip(*rows)
    lines = np.asarray(lines)
    seq = list(map(int, seq))
    if min(seq) < 0 or max(seq) >= 2**64:
        line, value = next((n, v) for n, v in zip(lines, seq) if not 0 <= v < 2**64)
        raise ValueError(f"{path}:{line}: seq must be in [0, 2**64), got {value}")
    decoded = np.fromiter(map(bool, decoded), bool, len(rows))
    rx_column = np.full(len(rows), math.nan)
    rx_column[decoded] = list(map(float, filter(None, rx)))
    latency_column = np.full(len(rows), math.nan)
    latency_column[decoded] = list(map(float, filter(None, latency)))
    return (
        np.array(list(map(receivers.__getitem__, receiver)), dtype=np.intp),
        np.array(seq, dtype=np.uint64),
        np.array(list(map(float, tx))),
        np.array(list(map(float, position))),
        decoded,
        rx_column,
        latency_column,
        lines,
    )


def _require(obj: dict, keys, what: str) -> None:
    for key in keys:
        if key not in obj:
            raise ValueError(f"{what} has no {key!r}")


def _number_text(obj: dict, key: str) -> str:
    value = obj[key]
    if type(value) not in (int, float):
        raise ValueError(f"{key} must be a number, got {value!r}")
    return repr(value)


def _json_row(obj: dict, receivers: dict) -> tuple:
    """A parsed packet line as the groups the packet pattern captures."""
    _require(obj, PACKET_KEYS, "packet line")
    receiver_id, seq, decoded = obj["receiver_id"], obj["seq"], obj["decoded"]
    encoded = _encode(receiver_id) if isinstance(receiver_id, str) else None
    if encoded not in receivers:
        raise ValueError(f"receiver {receiver_id!r} is not in the header")
    if type(seq) is not int:
        raise ValueError(f"seq must be an integer, got {seq!r}")
    if type(decoded) is not bool:
        raise ValueError(f"decoded must be true or false, got {decoded!r}")
    times = (obj["rx_time_s"], obj["latency_s"])
    if decoded and None in times:
        raise ValueError("decoded records need rx_time_s and latency_s")
    if not decoded and times != (None, None):
        raise ValueError("undecoded records carry no rx_time_s or latency_s")
    return (
        "true" if decoded else "",
        _number_text(obj, "latency_s") if decoded else "",
        encoded,
        _number_text(obj, "rx_time_s") if decoded else "",
        str(seq),
        _number_text(obj, "train_d_t_m"),
        _number_text(obj, "tx_time_s"),
    )


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


# Bytes a log may hold per packet or event line of its pass, beyond the
# longest receiver id; a written line has at most about 250.
_LINE_BYTES = 512


def _packet_limit(header: dict, header_bytes: int, file_bytes: int) -> int:
    """The packet lines of a header's pass; a file larger than they fill raises ValueError."""
    receivers = header["receivers"]
    packets = pass_packets(header["duration_s"], header["tx_period_s"], len(receivers))
    longest = max((len(_encode(p.id)) for p in receivers), default=0)
    allowed = header_bytes + (packets + len(receivers)) * (_LINE_BYTES + longest)
    if file_bytes > allowed:
        raise ValueError(f"file is {file_bytes} bytes, more than its pass can fill ({allowed})")
    return packets


def _line_object(line: str) -> tuple:
    """A JSON line's value and its "type", None for a value that is not an object."""
    try:
        obj = _decode(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc}") from None
    return obj, obj.get("type") if isinstance(obj, dict) else None


def read_log(path: str | Path) -> SimLog:
    """Read a JSON-lines log; a line that breaks the format raises ValueError
    naming path:line. The header is line 1 and bounds the read
    (_packet_limit), and reading stops at the first packet line past its pass."""
    packets = 0  # packet lines read so far
    parts: list = []  # column arrays of packet lines, in file order
    events: list = []
    with open(path) as handle:
        first = handle.readline()
        try:
            obj, kind = _line_object(first) if first.strip() else (None, "blank")
            if kind != "header":
                raise ValueError(f"line 1 must be the header, got a {kind!r} line")
            header = _header_values(obj)
            limit = _packet_limit(header, len(first.encode()), os.fstat(handle.fileno()).st_size)
        except (ValueError, TypeError) as exc:
            raise ValueError(f"{path}:1: {exc}") from None
        receivers = {_encode(p.id): i for i, p in enumerate(header["receivers"])}
        pattern = _packet_pattern(receivers)
        line_number = 1
        for lines in iter(lambda: handle.readlines(READ_BATCH_BYTES), []):
            first_line = line_number + 1
            line_number += len(lines)
            rows = pattern.findall("".join(lines))
            if len(rows) == len(lines) and packets + len(rows) <= limit:
                packets += len(rows)
                parts.append(
                    _rows_to_columns(path, rows, receivers, range(first_line, line_number + 1))
                )
                continue
            rows, row_lines = [], []
            for number, line in enumerate(lines, start=first_line):
                try:
                    match = pattern.fullmatch(line.rstrip("\n"))
                    if not (match or line.strip()):
                        continue
                    obj, kind = (None, "packet") if match else _line_object(line)
                    if kind == "packet":
                        if packets == limit:
                            raise ValueError(f"more packet lines than the pass holds ({limit})")
                        packets += 1
                        rows.append(match.groups() if match else _json_row(obj, receivers))
                        row_lines.append(number)
                    elif kind == "event":
                        events.append(_event(obj, header["receivers"]))
                    elif kind == "header":
                        raise ValueError("second header line")
                    else:
                        raise ValueError(f"unknown line type {kind!r}")
                except (ValueError, TypeError) as exc:
                    raise ValueError(f"{path}:{number}: {exc}") from None
            if rows:
                parts.append(_rows_to_columns(path, rows, receivers, row_lines))
    return _assemble(path, header, parts, events)


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
    receiver, seq, tx, position, _, rx = columns[:6]
    # Every receiver has a packet line, and in a simulated log one per tick of its pass.
    ticks = None
    if header["train_speed_mps"] is not None:
        ticks = _tick_count(header["duration_s"], header["tx_period_s"])
    for placement, count in zip(placements, np.bincount(receiver, minlength=len(placements))):
        if count == 0 or (ticks is not None and count != ticks):
            wanted = "at least 1" if ticks is None else f"the {ticks} of its pass"
            raise ValueError(
                f"{path}: receiver {placement.id!r} has {count} packet lines, not {wanted}"
            )
    records = {}
    for index, placement in enumerate(placements):
        rows = receiver == index
        records[placement.id] = PacketColumns(*(c[rows] for c in (seq, tx, position, rx)))
    return SimLog(**header, records=records, events=events)


FIELD_COLUMNS = ("seq", "tx_time_s", "train_d_t_m", "decoded", "rx_time_s")
# The decoded column's accepted texts, compared stripped and in lower case.
_DECODED_TEXTS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def read_field_log(path: str | Path) -> SimLog:
    """Ingest an externally captured log from CSV.

    Expected columns: seq, tx_time_s, train_d_t_m, decoded, rx_time_s.
    decoded accepts 1/0, true/false or yes/no in any case; rx_time_s may be
    blank for undecoded rows. Rows are put in seq order (a stable sort) and
    then meet read_log's packet rules: finite values, rx_time_s >= tx_time_s
    and each seq once; a fault names the lowest CSV row that breaks a rule.
    Reading stops at the row past MAX_PACKETS.
    The capture is one RSU named "field" transmitting every 50 ms; it runs
    through the same analysis pipeline as simulated logs, and pass metadata
    that a capture cannot know is left unset.
    """
    path = Path(path)
    seq, tx, position, decoded, rx, row_numbers = [], [], [], [], [], []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        fieldnames = next(reader, None)
        if fieldnames is None or not set(FIELD_COLUMNS).issubset(fieldnames):
            raise ValueError(f"field log CSV must have columns {sorted(FIELD_COLUMNS)}")
        where = [fieldnames.index(name) for name in FIELD_COLUMNS]
        width = max(where) + 1
        for row_number, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(seq) == MAX_PACKETS:
                raise ValueError(f"{path}:{row_number}: more than {MAX_PACKETS} packet rows")
            row += [""] * (width - len(row))
            seq_text, tx_text, position_text, decoded_text, rx_text = (row[i] for i in where)
            row_decoded = _DECODED_TEXTS.get(decoded_text.strip().lower())
            if row_decoded is None:
                raise ValueError(
                    f"{path}:{row_number}: decoded must be 1/0, true/false or yes/no, "
                    f"got {decoded_text!r}"
                )
            rx_text = rx_text.strip()
            if row_decoded and not rx_text:
                raise ValueError(f"{path}:{row_number}: decoded row missing rx_time_s")
            try:
                row_seq = int(seq_text)
                seq.append(row_seq)
                tx.append(float(tx_text))
                position.append(float(position_text))
                rx.append(float(rx_text) if row_decoded else math.nan)
            except ValueError as exc:
                raise ValueError(f"{path}:{row_number}: {exc}") from None
            if not 0 <= row_seq < 2**64:
                raise ValueError(f"{path}:{row_number}: seq must be in [0, 2**64), got {row_seq}")
            decoded.append(row_decoded)
            row_numbers.append(row_number)
    if not seq:
        raise ValueError(f"{path}: empty log")
    seq = np.array(seq, dtype=np.uint64)
    order = np.argsort(seq, kind="stable")
    seq, tx, position, decoded, rx, row_numbers = (
        np.asarray(column)[order] for column in (seq, tx, position, decoded, rx, row_numbers)
    )
    # _assemble rejects a non-finite value; until then it must not warn. A
    # capture has no latency_s of its own to check, so its derived one stands in.
    with np.errstate(invalid="ignore", over="ignore"):
        latency = rx - tx
        duration = float(tx.max() - tx.min())
    header = dict(
        digest="field-" + hashlib.sha256(path.read_bytes()).hexdigest()[:16],
        seed=0,
        train_speed_mps=None,
        tx_period_s=0.05,
        start_d_t_m=float(position.min()),
        end_d_t_m=float(position.max()),
        duration_s=duration,
        receivers=(Placement(id="field", kind="RSU", offset_from_crossing_m=0.0, height_m=1.0),),
    )
    columns = (np.zeros(len(seq), np.intp), seq, tx, position, decoded, rx, latency, row_numbers)
    return _assemble(path, header, [columns], [])
