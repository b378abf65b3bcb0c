"""The pass log's files: the JSON-lines codec, field-capture CSV ingest and commit.

The log model and the rules every reader keeps are passlog's; this module
knows only how a file holds them. A log file is one JSON object per line: a
header (passlog._header_dict), then packet records (grouped by receiver,
ordered by sequence number), then warning events. Keys are sorted so
identical logs are byte-identical. Every file the package writes goes
through commit, all or nothing; a file read that is not UTF-8 names
path:line (units.utf8_text).

A packet line has one layout, PACKET_LINE, keys sorted as json.dumps(...,
sort_keys=True) writes them: the writer builds each as its receiver's
decoded-row head (or the lost-row one) and then its tick's text, both held
in a TextHolder, the caller's or a new one (log_text); receivers whose tick
columns are bitwise equal share the tick text, within a log and across
logs, and a receiver's heads carry across logs. A long pass's log is
written and read in two processes where it can be (_second_parts,
_read_in_two; units.child_process), with the bytes and errors of one;
the reader fills the layout into one pattern. Packets move in chunks.
The reader checks line 1 as the header and reads the rest by _byte_lines:
packet lines match the pattern, their numbers converted with float() and
int() as json does; any other line goes through json with the full checks.
"""

import contextlib
import dataclasses
import errno
import hashlib
import io
import itertools
import json
import math
import os
import re
from pathlib import Path

import numpy as np

from .geometry import Placement
from .passlog import PACKET_KEYS, PacketColumns, SimLog, _assemble, _event, _header_dict
from .passlog import _header_values, _not_finite, _require, pass_packets
from .units import child_process, csv_rows, fork_cpus, utf8_text

# One encoder for every line: the output equals json.dumps(obj,
# sort_keys=True) byte for byte, without building an encoder per line, and
# a NaN or infinity raises instead of writing a non-JSON literal.
_encode = json.JSONEncoder(sort_keys=True, allow_nan=False).encode

# Packet lines joined per chunk on write; about this many bytes of lines
# parsed per batch on read.
WRITE_BATCH_ROWS = 4096
READ_BATCH_BYTES = 1 << 18

# A packet line's keys are passlog.PACKET_KEYS and its type, sorted.
PACKET_LINE = (
    '{"decoded": %s, "latency_s": %s, "receiver_id": %s, "rx_time_s": %s, '
    '"seq": %s, "train_d_t_m": %s, "tx_time_s": %s, "type": "packet"}'
)

# A packet line is its receiver's head, then its tick's text from "seq" on,
# both bytes templates; %a of a float is its repr, which json writes.
_SPLIT = PACKET_LINE.index('"seq"')
_HEAD = PACKET_LINE[:_SPLIT].encode()
_TICK_LINE = (PACKET_LINE[_SPLIT:] % ("%d", "%a", "%a") + "\n").encode()


def _same_ticks(a: PacketColumns, b: PacketColumns) -> bool:
    """Whether seq, tx_time_s and train_d_t_m are bitwise equal: 0.0 == -0.0, not as text."""
    pairs = zip(a.columns()[:3], b.columns()[:3])
    return all(np.array_equal(x.view(np.uint64), y.view(np.uint64)) for x, y in pairs)


def _tick_text(packets: PacketColumns) -> list:
    """Each tick's text from "seq" on, with its newline, as bytes."""
    columns = (c.tolist() for c in (packets.seq, packets.train_d_t_m, packets.tx_time_s))
    return [_TICK_LINE % row for row in zip(*columns)]


def _heads(template: bytes, latency_s: np.ndarray, rx_time_s: np.ndarray) -> list:
    """The heads of decoded rows with these times, formatted from a receiver's template."""
    return [template % pair for pair in zip(latency_s.tolist(), rx_time_s.tolist())]


def _head_templates(receiver_id) -> tuple:
    """A receiver's lost-row head, and its decoded-row head with %a for
    latency_s and rx_time_s, as bytes: json's encoding is ASCII."""
    receiver = _encode(receiver_id).encode()
    lost = _HEAD % (b"false", b"null", receiver, b"null")
    return lost, _HEAD % (b"true", b"%a", receiver.replace(b"%", b"%%"), b"%a")


class TextHolder:
    """Line text, as bytes, that log_text formats for one log and reuses for
    the next, which a caller keeps across the logs it writes: one pass's
    tick text, as (packets, text), and the decoded-row heads of the last
    log's receivers, as receiver id -> (rx_time_s, latency_s, heads), row by
    row, where a row's head is held only while its times are the ones it
    was formatted from (NaN elsewhere)."""

    __slots__ = ("ticks", "heads")

    def __init__(self):
        self.ticks, self.heads = (), {}


def _held_heads(holder: TextHolder, receiver_id, packets: PacketColumns, template: bytes):
    """The receiver's held heads, brought up to this log: each decoded row's
    held head is reused where its rx_time_s and latency_s are bitwise
    equal to this row's, and formatted and held otherwise."""
    held = holder.heads.get(receiver_id)
    if held is None or len(held[0]) != len(packets):
        held = (np.full(len(packets), math.nan), np.full(len(packets), math.nan))
        held = holder.heads[receiver_id] = (*held, np.empty(len(packets), dtype=object))
    rx, latency, heads = held
    changed = (rx.view(np.uint64) != packets.rx_time_s.view(np.uint64)) | (
        latency.view(np.uint64) != packets.latency_s.view(np.uint64)
    )
    rows = np.flatnonzero(packets.decoded & changed)
    rx[rows], latency[rows] = packets.rx_time_s[rows], packets.latency_s[rows]
    heads[rows] = _heads(template, latency[rows], rx[rows])
    return held


def _packet_lines(receiver_id, packets: PacketColumns, holder: TextHolder, keep_heads: bool):
    """A receiver's packet lines, in chunks of WRITE_BATCH_ROWS lines at
    most: each row's head, then its tick's text. The holder's tick text is
    reused while the receiver's tick columns are bitwise equal to those it
    was formatted from, and formatted and held otherwise; the heads are the
    holder's, brought up to these packets (_held_heads), and dropped once
    the lines are out unless keep_heads."""
    if not (holder.ticks and _same_ticks(holder.ticks[0], packets)):
        holder.ticks = (packets, _tick_text(packets))
    text = holder.ticks[1]
    lost, decoded_head = _head_templates(receiver_id)
    held = _held_heads(holder, receiver_id, packets, decoded_head)
    heads = np.where(packets.decoded, held[2], lost)
    for start in range(0, len(packets), WRITE_BATCH_ROWS):
        rows = slice(start, start + WRITE_BATCH_ROWS)
        pieces = [b""] * (2 * len(heads[rows]))  # each row's head, then its tick's text
        pieces[::2], pieces[1::2] = heads[rows].tolist(), text[rows]
        yield b"".join(pieces)
    if not keep_heads:
        del holder.heads[receiver_id]


# The fewest packet rows of a pass whose log log_text writes and read_log
# reads in two processes: the writer's measured break-even, below which the
# fork, the copy and a second CPU shared with other work can cost more than
# they save. On a 2 vCPU Xeon (Python 3.11), paired writes of two-receiver
# passes in two processes won 0-15 of 15 pairs at 14,002 to 24,002 rows,
# depending on the run, and 12-15 of 15 at 28,002 rows and 14-15 of 15 at
# 56,002, in every run; paired reads won 9 of 15 at 14,002 and 15 of 15 at 28,002.
FORK_ROWS = 28_000


def _part(packets: PacketColumns, second: bool) -> PacketColumns:
    """A receiver's first or second part: the second is its last half of rows, rounded down."""
    split = len(packets) - len(packets) // 2
    rows = slice(split, None) if second else slice(split)
    return PacketColumns(*(c[rows] for c in packets.columns()[:3]), packets.rx_time_s[rows])


def _second_parts(receivers: list):
    """Each receiver's second part's chunks (_packet_lines), through one new holder."""
    holder = TextHolder()
    for receiver_id, packets in receivers:
        yield from _packet_lines(receiver_id, _part(packets, True), holder, False)


def log_text(log: SimLog, holder: TextHolder | None = None):
    """The serialised log as UTF-8 bytes, in pieces of whole lines,
    WRITE_BATCH_ROWS packet lines at most. Packet lines are joined from
    bytes, formatted from bytes templates, and never encoded.

    Each receiver's lines are formatted by _packet_lines through holder, a
    TextHolder the caller keeps, or a new one: a tick's text is formatted
    once and reused by a later receiver, of this log or a later one, whose
    tick columns are bitwise equal; and a decoded row's head is reused by a
    later log's row of that receiver whose rx_time_s and latency_s are
    bitwise equal. So what is held changes no byte. A new holder writes no
    later log, so it drops each receiver's heads once its lines are out. A
    row the log cannot hold raises json's ValueError, naming the row's first
    value that is not finite, before any line is formatted.

    Without holder, a pass of FORK_ROWS packet rows or more, where
    units.fork_cpus() is more than 1, is formatted in two processes: each
    receiver's first part (_part) here and its second part's chunks in a
    child (_second_parts, units.child_process), each through a new holder,
    so the bytes are the same.
    """
    receivers = [(receiver_id, log.records[receiver_id]) for receiver_id in log.receiver_ids()]
    for _, packets in receivers:
        columns = packets.columns()[1:]
        bad = np.flatnonzero(_not_finite(*columns))
        if bad.size:
            value = next(v for v in (float(c[bad[0]]) for c in columns) if not math.isfinite(v))
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    keep_heads = holder is not None
    forked = not keep_heads and log.packet_count() >= FORK_ROWS and fork_cpus() > 1
    holder = holder if keep_heads else TextHolder()
    holder.heads = {rid: held for rid, held in holder.heads.items() if rid in log.records}
    with child_process(_second_parts, receivers) if forked else contextlib.nullcontext() as second:
        yield (_encode(_header_dict(log)) + "\n").encode()
        for receiver_id, packets in receivers:
            part = _part(packets, False) if forked else packets
            yield from _packet_lines(receiver_id, part, holder, keep_heads)
            if forked:  # the chunks of its second part, of len(packets) // 2 rows
                yield from itertools.islice(second, math.ceil(len(packets) // 2 / WRITE_BATCH_ROWS))
        for event in log.events:
            yield (_encode({"type": "event", **dataclasses.asdict(event)}) + "\n").encode()


def log_bytes(log: SimLog) -> bytes:
    return b"".join(log_text(log))


def commit(outputs, directory=None) -> None:
    """Write every (path, chunks) output, all or nothing; directory, if
    given, is made first. Two paths naming one file raise ValueError
    before anything is written.

    Each output streams its chunks of bytes to a temp file beside its path,
    and only when every one is complete are they renamed over their paths. A
    path that is a directory fails before anything is written there. Any
    failure closes every output's chunks that can be closed (a log_text
    generator then stops its second writer process), deletes every temp
    file and every directory made here, and an OSError names the output's
    path. The one gap: a rename racing with another process's leaves the
    outputs renamed before it.
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
                handle.writelines(chunks)
        for tmp, path in pending:
            os.replace(tmp, path)
    except BaseException as exc:
        for _, chunks in outputs:
            getattr(chunks, "close", lambda: None)()
        for tmp, _ in pending:
            # Under a regular file, unlink fails too; the first error stands.
            with contextlib.suppress(OSError):
                Path(tmp).unlink(missing_ok=True)
        for made_dir in made:
            with contextlib.suppress(OSError):
                made_dir.rmdir()
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
        raise


def write_log(log: SimLog, path: str | Path, holder: TextHolder | None = None) -> None:
    """Write the log to path, streamed in batches; a failed write leaves no
    file. holder is log_text's holder of text across logs."""
    commit([(path, log_text(log, holder))])


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name} is not allowed")


_decode = json.JSONDecoder(parse_constant=_reject_constant).decode

# Each optional part is an empty alternative, not a ? repeat: the same
# language, which the regex engine matches faster.
_NUMBER = r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+|)(?:[eE][-+]?[0-9]+|)"


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


def _read_lines(path, batches, line_number: int, header: dict, limit: int) -> tuple:
    """(parts, events, packets, last line number) of batches, each the text
    of whole lines, the first numbered line_number: parts are the column
    arrays of packet lines (_rows_to_columns), in file order. A line that
    breaks the format, or a packet line past limit, raises ValueError
    naming path:line."""
    receivers = {_encode(p.id): i for i, p in enumerate(header["receivers"])}
    pattern = _packet_pattern(receivers)
    packets, parts, events, line_number = 0, [], [], line_number - 1  # lines read so far
    for text in batches:
        first_line = line_number + 1
        line_number += text.count("\n") + (not text.endswith("\n"))
        rows = pattern.findall(text)
        if len(rows) == line_number - first_line + 1 and packets + len(rows) <= limit:
            packets += len(rows)
            parts.append(
                _rows_to_columns(path, rows, receivers, np.arange(first_line, line_number + 1))
            )
            continue
        rows, row_lines = [], []
        for number, line in enumerate(io.StringIO(text), start=first_line):
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
    return parts, events, packets, line_number


def _byte_lines(path, fd: int, start: int, end: int):
    """The text of the whole lines in bytes [start, end) of a file, about
    READ_BATCH_BYTES at a time, by os.pread, which moves no offset a forked
    process shares. A CRLF or a lone CR reads as LF, as in a text file:
    0x0D is in no multi-byte UTF-8 sequence. A byte not UTF-8 raises
    UnicodeDecodeError, and a file cut short ValueError naming path."""
    pieces = []  # the bytes read past the last line end
    while start < end:
        chunk = os.pread(fd, min(READ_BATCH_BYTES, end - start), start)
        if not chunk:
            raise ValueError(f"{path}: the file was cut short while it was read")
        start += len(chunk)
        whole = len(chunk)
        if start < end:  # a batch ends at the last line end whose next byte is read
            whole = chunk.rfind(b"\n") + 1 or chunk.rfind(b"\r", 0, -1) + 1
        if not whole:
            pieces.append(chunk)
            continue
        data, pieces = b"".join([*pieces, chunk[:whole]]), [chunk[whole:]]
        if b"\r" in data:
            data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        yield data.decode()


def _fault_as_value(work, *args):
    """work(*args) as a one-value stream, or the ValueError it raises as that value."""
    try:
        yield work(*args)
    except ValueError as exc:
        yield exc


def _read_in_two(path, fd: int, start: int, end: int, header: dict, limit: int):
    """_read_lines' parts and events of bytes [start, end), read in two
    processes: a forked child (units.child_process) reads the lines past
    the first LF after the midpoint, this process those before it. None
    where no LF lies between, or the parts hold more than limit packet
    lines; a fault in either part raises ValueError, the child's sent as
    its value (_fault_as_value) and raised here, so its part is parsed once."""
    cut = (start + end) // 2
    while b"\n" not in (data := os.pread(fd, 4096, cut)) and data:
        cut += len(data)
    cut += data.find(b"\n") + 1
    if not start < cut < end:
        return None
    second = (_read_lines, path, _byte_lines(path, fd, cut, end), 1, header, limit)
    with child_process(_fault_as_value, *second) as values:
        parts, events, packets, lines = _read_lines(
            path, _byte_lines(path, fd, start, cut), 2, header, limit
        )
        [more] = values
    if isinstance(more, ValueError):
        raise more
    more_parts, more_events, more_packets, _ = more
    if packets + more_packets > limit:
        return None
    return parts + [(*part[:-1], part[-1] + lines) for part in more_parts], events + more_events


def read_log(path: str | Path) -> SimLog:
    """Read a JSON-lines log; a line that breaks the format raises ValueError
    naming path:line. The header is line 1, read as text, and bounds the
    read (_packet_limit); reading stops at the first packet line past its
    pass. The rest is read as bytes by _byte_lines: in two processes
    (_read_in_two) for a pass of FORK_ROWS packet rows or more, where
    units.fork_cpus() is more than 1, and in one otherwise or where that
    fails, which names the first fault."""
    with utf8_text(path) as handle:
        first, fd = handle.readline(), handle.fileno()
        header_bytes, size = len(first.encode()), os.fstat(fd).st_size
        try:
            obj, kind = _line_object(first) if first.strip() else (None, "blank")
            if kind != "header":
                raise ValueError(f"line 1 must be the header, got a {kind!r} line")
            header = _header_values(obj)
            limit = _packet_limit(header, header_bytes, size)
        except (ValueError, TypeError) as exc:
            raise ValueError(f"{path}:1: {exc}") from None
        # The body starts past line 1's bytes, whose CRLF text mode reads as LF.
        start = header_bytes + (os.pread(fd, 2, header_bytes - 1) == b"\r\n")
        body = None
        if limit >= FORK_ROWS and fork_cpus() > 1:
            with contextlib.suppress(ValueError, OSError):
                body = _read_in_two(path, fd, start, size, header, limit)
        if body is None:
            body = _read_lines(path, _byte_lines(path, fd, start, size), 2, header, limit)[:2]
    return _assemble(path, header, *body)


FIELD_COLUMNS = ("seq", "tx_time_s", "train_d_t_m", "decoded", "rx_time_s")
# The decoded column's accepted texts, compared stripped and in lower case.
_DECODED_TEXTS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def read_field_log(path: str | Path) -> SimLog:
    """Ingest an externally captured log from CSV.

    Expected columns: seq, tx_time_s, train_d_t_m, decoded, rx_time_s.
    decoded accepts 1/0, true/false or yes/no in any case; rx_time_s may be
    blank for undecoded rows, and a cell past a row's end reads as blank.
    Rows come from units.csv_rows, put in seq order (a stable sort), and
    then meet read_log's packet rules: finite values, rx_time_s >= tx_time_s
    and each seq once; a fault names the lowest CSV row that breaks a rule.
    The capture is one RSU named "field" transmitting every 50 ms; it runs
    through the same analysis pipeline as simulated logs, and pass metadata
    that a capture cannot know is left unset.
    """
    path = Path(path)
    seq, tx, position, decoded, rx, row_numbers = [], [], [], [], [], []
    for line, cells in csv_rows(path, FIELD_COLUMNS):
        if None in cells:
            cells = [cell or "" for cell in cells]
        seq_text, tx_text, position_text, decoded_text, rx_text = cells
        row_decoded = _DECODED_TEXTS.get(decoded_text.strip().lower())
        if row_decoded is None:
            got = f"got {decoded_text!r}"
            raise ValueError(f"{path}:{line}: decoded must be 1/0, true/false or yes/no, {got}")
        if row_decoded and not rx_text.strip():
            raise ValueError(f"{path}:{line}: decoded row missing rx_time_s")
        try:
            seq.append(row_seq := int(seq_text))
            tx.append(float(tx_text))
            position.append(float(position_text))
            rx.append(float(rx_text) if row_decoded else math.nan)
        except ValueError as exc:
            raise ValueError(f"{path}:{line}: {exc}") from None
        if not 0 <= row_seq < 2**64:
            raise ValueError(f"{path}:{line}: seq must be in [0, 2**64), got {row_seq}")
        decoded.append(row_decoded)
        row_numbers.append(line)
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
