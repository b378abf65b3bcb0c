"""Unit conversions and physical constants shared across the package.

Internal convention: distances in meters (signed, crossing at 0, negative on
the approach side), times in seconds, speeds in m/s, powers in dBm, gains in
dBi. Miles per hour appear only at user-facing boundaries.
"""

import contextlib
import csv
import dataclasses
import io
import itertools
import math
import operator
import os
import pickle
import signal
import sys
import tempfile
import threading

MPH_TO_MPS = 0.44704
SPEED_OF_LIGHT_MPS = 299_792_458.0

# The most packets one pass may hold, transmit ticks x receivers (the largest
# shipped, tested or benchmarked has 300,303), and rows a CSV input may hold.
MAX_PACKETS = 4_000_000


def require_finite(**values) -> None:
    """Raise ValueError naming the first value that is NaN or infinite.

    None passes, so optional settings can be checked as they are. Every
    comparison with NaN is false, so a NaN that reaches a range check or a
    gate would pass it silently; dataclasses check first (require_finite_fields).
    """
    for name, value in values.items():
        # Not math.isfinite, which overflows on an int beyond the float range.
        if value is not None and not -math.inf < value < math.inf:
            raise ValueError(f"{name} must be finite, got {value!r}")


def require_finite_fields(instance) -> None:
    """require_finite over a dataclass's fields annotated float or float | None,
    in field order. Annotations must be types: postponed ones are strings."""
    floats = [f.name for f in dataclasses.fields(instance) if f.type in (float, float | None)]
    require_finite(**{name: getattr(instance, name) for name in floats})


def check_field(value, annotation, name: str):
    """value as a dataclass field annotated float, int, str or X | None takes it.

    A float field takes an int or float in the finite float range, as a
    float; an int field only an int; a bool is neither; None passes only an
    X | None. Anything else raises ValueError naming name.
    """
    kinds = getattr(annotation, "__args__", (annotation,))
    kind = kinds[0]
    if value is None and type(None) in kinds:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        expected = "int/float" if kind is float else kind.__name__
        got = "null" if value is None else type(value).__name__
        raise ValueError(f"{name}: expected {expected}, got {got}")
    if kind is not float:
        return value
    if not abs(value) <= sys.float_info.max:  # NaN, an infinity or an int too large
        raise ValueError(f"{name}: must be a finite number, got {value!r}")
    return float(value)


def fork_cpus() -> int:
    """How many processes railwarn may run at once: the CPUs this process
    may run on, where os.fork and os.sched_getaffinity exist and no other
    thread runs, else 1. Only where it is more than 1 does railwarn start a
    second process, always through child_process: for a sweep's shares
    (engine.run_sweep) and a long pass's log write and read (logio)."""
    forks = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    return len(os.sched_getaffinity(0)) if forks and threading.active_count() == 1 else 1


class _Spill(io.RawIOBase):
    """A file from offset on, read by os.preadv, which moves no offset a child
    shares; pickle.load reads a pickled array's bytes into its own buffer."""

    def __init__(self, fd: int, offset: int):
        self.fd, self.offset = fd, offset

    def readinto(self, buffer) -> int:
        self.offset += (count := os.preadv(self.fd, [buffer], self.offset))
        return count


@contextlib.contextmanager
def child_process(work, *args):
    """Fork a child that runs work(*args), an iterable: it pickles each value
    into an unlinked temporary file as soon as it is made and sends its end
    offset through a pipe, waiting for this process only once the pipe is
    full (8,192 offsets on Linux). Yield an iterator of the values, each
    read here once its offset arrives, then those the child did not send
    (the file, pipe or fork refused, or the child failed or was killed),
    from work(*args) run here, which makes the sent ones again and drops
    them: the outcome and errors of one process. A child not reaped on exit
    (an exception or KeyboardInterrupt here) is killed and reaped."""
    pid = status = None
    with contextlib.ExitStack() as stack:
        with contextlib.suppress(OSError):
            spill = stack.enter_context(tempfile.TemporaryFile())
            read_end, write_end = os.pipe()
            offsets = stack.enter_context(open(read_end, "rb", 0))
            with open(write_end, "wb", 0) as sender:
                pid = os.fork()
                if pid == 0:
                    try:
                        for value in work(*args):
                            pickle.dump(value, spill, pickle.HIGHEST_PROTOCOL)
                            spill.flush()
                            sender.write(spill.tell().to_bytes(8, "little"))
                        os._exit(0)
                    finally:
                        os._exit(1)

        def values():
            nonlocal status
            sent = start = 0
            while pid and len(end := offsets.read(8)) == 8:
                yield pickle.load(_Spill(spill.fileno(), start))
                start, sent = int.from_bytes(end, "little"), sent + 1
            status = pid and os.waitpid(pid, 0)[1]  # None without a child
            if status != 0:
                yield from itertools.islice(work(*args), sent, None)

        try:
            yield values()
        finally:
            if pid and status is None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


@contextlib.contextmanager
def utf8_text(path, newline=None):
    """path opened as UTF-8 text. A byte that does not decode raises
    ValueError naming path:line; the line is found only then."""
    try:
        with open(path, encoding="utf-8", newline=newline) as handle:
            yield handle
    except UnicodeDecodeError:
        raise ValueError(not_utf8(path)) from None


def not_utf8(path) -> str:
    """Where a file's first byte that is not UTF-8 lies, as path:line, its
    lines ended as a text file's are: by CR LF, a lone CR or LF."""
    # latin-1 reads each byte as one character, so each line is the file's bytes.
    with open(path, encoding="latin-1", newline="") as handle:
        for number, text in enumerate(handle, start=1):
            line = text.encode("latin-1")
            try:
                line.decode()
            except UnicodeDecodeError as exc:
                byte = line[exc.start]
                return f"{path}:{number}: byte 0x{byte:02x} at column {exc.start + 1} is not UTF-8"
    return f"{path}: not UTF-8"


def csv_rows(path, columns: tuple):
    """(line, cells) for each row of a CSV file past its header line: cells
    holds its cells under columns (two or more) in their order, None past its
    end; line is the line it ends on. Blank rows are skipped. ValueError names
    path for a header not naming each of columns once, and path:line for a row
    with more cells than the header or past MAX_PACKETS rows, which is not held."""
    with utf8_text(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, [])
        if any(header.count(column) != 1 for column in columns):
            raise ValueError(f"{path}: the header must name each of {', '.join(columns)} once")
        width, pick = len(header), operator.itemgetter(*map(header.index, columns))
        for count, row in enumerate(filter(None, reader)):
            if count == MAX_PACKETS:
                raise ValueError(f"{path}:{reader.line_num}: more than {MAX_PACKETS} rows")
            if len(row) > width:
                raise ValueError(f"{path}:{reader.line_num}: row has more cells than the header")
            if len(row) < width:
                row += [None] * (width - len(row))
            yield reader.line_num, pick(row)


def read_numeric_table(path, columns: tuple):
    """Each row of csv_rows(path, columns) as a tuple of floats; a cell that is
    missing, blank, not a number or not finite raises ValueError naming it."""
    for line, cells in csv_rows(path, columns):
        for column, text in zip(columns, cells):
            with contextlib.suppress(TypeError, ValueError):  # None past the row's end
                if math.isfinite(float(text)):
                    continue
            got = "no value" if text is None else repr(text)
            raise ValueError(f"{path}:{line}: {column} must be a finite number, got {got}")
        yield tuple(map(float, cells))


def mph_to_mps(speed_mph: float) -> float:
    return speed_mph * MPH_TO_MPS


def parse_speed(text: str) -> float:
    """Parse '10mph', '4.47 mps', '4.47 m/s' or a bare number (m/s) into m/s."""
    cleaned = text.strip().lower().replace(" ", "")
    if cleaned.endswith("mph"):
        return mph_to_mps(float(cleaned[:-3]))
    if cleaned.endswith(("mps", "m/s")):
        return float(cleaned[:-3])
    return float(cleaned)
