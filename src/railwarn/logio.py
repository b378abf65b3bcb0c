"""Packet-log serialisation: JSON-lines logs and field-capture CSV ingest.

A log file is one JSON object per line. The first line is a header with the
scenario digest and pass metadata; the remaining lines are packet records
(grouped by receiver, ordered by sequence number) followed by warning
events. Keys are sorted so identical logs are byte-identical.
"""

import csv
import hashlib
import json
import os
from pathlib import Path

from .engine import PacketRecord, SimLog
from .geometry import Placement
from .protocol import WarningEvent

LOG_VERSION = 1

# One encoder for every line: the output equals json.dumps(obj,
# sort_keys=True) byte for byte, without building an encoder per line, and
# a NaN or infinity raises instead of writing a non-JSON literal.
_encode = json.JSONEncoder(sort_keys=True, allow_nan=False).encode


def _header_dict(log: SimLog) -> dict:
    return {
        "type": "header",
        "version": LOG_VERSION,
        "digest": log.digest,
        "seed": log.seed,
        "train_speed_mps": log.train_speed_mps,
        "tx_period_s": log.tx_period_s,
        "start_d_t_m": log.start_d_t_m,
        "end_d_t_m": log.end_d_t_m,
        "duration_s": log.duration_s,
        "analysis_window_m": log.analysis_window_m,
        "coverage_threshold": log.coverage_threshold,
        "receivers": [
            {
                "id": p.id,
                "kind": p.kind,
                "offset_from_crossing_m": p.offset_from_crossing_m,
                "height_m": p.height_m,
                "boresight_deg": p.boresight_deg,
            }
            for p in log.receivers
        ],
    }


def log_lines(log: SimLog):
    """Yield the serialised lines of a log, without trailing newlines."""
    yield _encode(_header_dict(log))
    for receiver_id in log.receiver_ids():
        for record in log.records[receiver_id]:
            yield _encode(
                {
                    "type": "packet",
                    "receiver_id": record.receiver_id,
                    "seq": record.seq,
                    "tx_time_s": record.tx_time_s,
                    "train_d_t_m": record.train_d_t_m,
                    "decoded": record.decoded,
                    "rx_time_s": record.rx_time_s,
                    "latency_s": record.latency_s,
                }
            )
    for event in log.events:
        yield _encode(
            {
                "type": "event",
                "receiver_id": event.receiver_id,
                "source": event.source,
                "mode": event.mode,
                "trigger_time_s": event.trigger_time_s,
                "train_d_t_at_trigger_m": event.train_d_t_at_trigger_m,
                "packets_seen": event.packets_seen,
                "relay_delivery_time_s": event.relay_delivery_time_s,
            }
        )


def log_bytes(log: SimLog) -> bytes:
    return ("\n".join(log_lines(log)) + "\n").encode()


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Write via a temp file in the same directory, then rename."""
    path = Path(path)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def write_log(log: SimLog, path: str | Path) -> None:
    atomic_write_bytes(path, log_bytes(log))


def read_log(path: str | Path) -> SimLog:
    header = None
    records: dict = {}
    events: list = []
    with open(path) as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{line_number}: invalid JSON: {exc}") from None
            kind = obj.get("type")
            if kind == "header":
                header = obj
                for rec in obj["receivers"]:
                    records[rec["id"]] = []
            elif kind == "packet":
                if header is None:
                    raise ValueError(f"{path}:{line_number}: packet before header")
                records.setdefault(obj["receiver_id"], []).append(
                    PacketRecord(
                        seq=obj["seq"],
                        tx_time_s=obj["tx_time_s"],
                        train_d_t_m=obj["train_d_t_m"],
                        receiver_id=obj["receiver_id"],
                        decoded=obj["decoded"],
                        rx_time_s=obj["rx_time_s"],
                        latency_s=obj["latency_s"],
                    )
                )
            elif kind == "event":
                events.append(
                    WarningEvent(
                        receiver_id=obj["receiver_id"],
                        source=obj["source"],
                        mode=obj["mode"],
                        trigger_time_s=obj["trigger_time_s"],
                        train_d_t_at_trigger_m=obj["train_d_t_at_trigger_m"],
                        packets_seen=obj["packets_seen"],
                        relay_delivery_time_s=obj["relay_delivery_time_s"],
                    )
                )
            else:
                raise ValueError(f"{path}:{line_number}: unknown line type {kind!r}")
    if header is None:
        raise ValueError(f"{path}: missing header line")
    receivers = tuple(
        Placement(
            id=rec["id"],
            kind=rec["kind"],
            offset_from_crossing_m=rec["offset_from_crossing_m"],
            height_m=rec["height_m"],
            boresight_deg=rec["boresight_deg"],
        )
        for rec in header["receivers"]
    )
    return SimLog(
        digest=header["digest"],
        seed=header["seed"],
        train_speed_mps=header["train_speed_mps"],
        tx_period_s=header["tx_period_s"],
        start_d_t_m=header["start_d_t_m"],
        end_d_t_m=header["end_d_t_m"],
        duration_s=header["duration_s"],
        receivers=receivers,
        records=records,
        events=events,
        analysis_window_m=header.get("analysis_window_m", 50.0),
        coverage_threshold=header.get("coverage_threshold", 5),
    )


def read_field_log(
    path: str | Path,
    receiver_id: str = "field",
    kind: str = "RSU",
    tx_period_s: float = 0.05,
) -> SimLog:
    """Ingest an externally captured log from CSV.

    Expected columns: seq, tx_time_s, train_d_t_m, decoded, rx_time_s.
    decoded accepts 0/1/true/false; rx_time_s may be blank for undecoded
    rows. The result runs through the same analysis pipeline as simulated
    logs; pass metadata that a capture cannot know is left unset.
    """
    path = Path(path)
    records = []
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        required = {"seq", "tx_time_s", "train_d_t_m", "decoded", "rx_time_s"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ValueError(f"field log CSV must have columns {sorted(required)}")
        for row_number, row in enumerate(reader, start=2):
            decoded = row["decoded"].strip().lower() in ("1", "true", "yes")
            tx_time = float(row["tx_time_s"])
            rx_raw = (row["rx_time_s"] or "").strip()
            if decoded:
                if not rx_raw:
                    raise ValueError(f"{path}:{row_number}: decoded row missing rx_time_s")
                rx_time = float(rx_raw)
                latency = rx_time - tx_time
            else:
                rx_time = None
                latency = None
            records.append(
                PacketRecord(
                    seq=int(row["seq"]),
                    tx_time_s=tx_time,
                    train_d_t_m=float(row["train_d_t_m"]),
                    receiver_id=receiver_id,
                    decoded=decoded,
                    rx_time_s=rx_time,
                    latency_s=latency,
                )
            )
    if not records:
        raise ValueError("empty log")
    records.sort(key=lambda r: r.seq)
    positions = [r.train_d_t_m for r in records]
    times = [r.tx_time_s for r in records]
    digest = "field-" + hashlib.sha256(path.read_bytes()).hexdigest()[:16]
    return SimLog(
        digest=digest,
        seed=0,
        train_speed_mps=None,
        tx_period_s=tx_period_s,
        start_d_t_m=min(positions),
        end_d_t_m=max(positions),
        duration_s=max(times) - min(times),
        receivers=(
            Placement(id=receiver_id, kind=kind, offset_from_crossing_m=0.0, height_m=1.0),
        ),
        records={receiver_id: records},
        events=[],
    )
