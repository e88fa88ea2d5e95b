"""Compact binary trace codec — DaYu's on-disk trace format.

``dayu-run`` saves every task profile in this form (``*.dayu``) unless
``--trace-format`` asks otherwise.  JSON (``--trace-format json``) is the
debug and *interchange* form: self-describing, greppable, and about an
order of magnitude larger than it needs to be.  This module is the
*storage* form the paper's Figure 9d measures: a struct-packed, string-interned
frame stream that encodes :class:`~repro.vfd.tracing.VfdIoRecord`,
:class:`~repro.vfd.tracing.FileSession`,
:class:`~repro.vol.tracer.DataObjectProfile` and
:class:`~repro.mapper.stats.DatasetIoStats` — and whole
:class:`~repro.mapper.mapper.TaskProfile` files.

Format (one profile per file)::

    MAGIC "DYU1"
    frame*            -- tag byte + payload
    END (0x00)

Frames:

- ``STR``: varint length + UTF-8 bytes.  Assigns the next string id
  (ids start at 1; id 0 means ``None``).  Strings are interned on first
  use, so every task/file/object name is stored once per file.
- ``HEADER``: task id, start/end ``f64``, file-id list.
- ``OBJPROF`` / ``SESSION`` / ``STATS`` / ``RECORD``: one item each, all
  integers as unsigned LEB128 varints, floats as little-endian ``f64``
  (exact round-trip), optional floats behind a presence byte.
- ``RECORDS``: varint byte-length announcing that the next N bytes hold
  only ``RECORD``/``STR`` frames.  Per-operation records dominate a trace
  but the offline Analyzer never reads them (graphs and diagnostics are
  built from the joined stats, sessions, and object profiles), so a
  decoder may skip the whole block in O(1) — the core of the scale-out
  ``dayu-analyze`` load path.

Encoding is streaming: each frame depends only on the strings interned
before it, so a tracer can emit frames as items are produced; the decoder
walks frames in one pass.  Region histograms are stored as coalesced page
runs (``first``, ``length-1``, ``count`` with delta-coded starts), not
per-page entries.

A malformed payload (truncated, an unknown frame tag, string id, record
flags or ``first_raw_op`` code, a record block whose frames overrun its
length) raises ``ValueError("corrupt trace: ...")``.  There is no
checksum: damage that still parses decodes to different content.
"""

from __future__ import annotations

import struct
from typing import BinaryIO, Dict, Iterable, List, Optional, Tuple

from repro.vfd.base import IoClass
from repro.vfd.tracing import FileSession, VfdIoRecord, new_io_record
from repro.vol.tracer import DataObjectProfile

from repro.mapper.stats import DatasetIoStats

__all__ = [
    "MAGIC",
    "BINARY_TRACE_SUFFIX",
    "is_binary_trace",
    "encode_profile",
    "decode_profile",
    "write_profile",
    "read_profile",
    "encode_vfd_trace",
    "encode_vol_trace",
    "vfd_trace_nbytes",
    "vol_trace_nbytes",
]

MAGIC = b"DYU1"
#: File suffix used for binary task-profile traces.
BINARY_TRACE_SUFFIX = ".dayu"

_T_END = 0x00
_T_STR = 0x01
_T_HEADER = 0x02
_T_OBJPROF = 0x03
_T_SESSION = 0x04
_T_STATS = 0x05
_T_RECORD = 0x06
_T_RECORDS = 0x07

_F64 = struct.Struct("<d")
#: Adjacent ``f64`` pairs: a record's start/duration, a header's start/end.
_F64X2 = struct.Struct("<dd")
#: A present optional ``f64``: presence byte 1, then the value.
_OPT_F64 = struct.Struct("<Bd")
#: Encoded varints of 0..127, one byte each.
_VU1 = tuple(bytes((n,)) for n in range(0x80))

_END_TAG = _VU1[_T_END]
_STR_TAG = _VU1[_T_STR]
_HEADER_TAG = _VU1[_T_HEADER]
_OBJPROF_TAG = _VU1[_T_OBJPROF]
_SESSION_TAG = _VU1[_T_SESSION]
_STATS_TAG = _VU1[_T_STATS]
_RECORD_TAG = _VU1[_T_RECORD]
_RECORDS_TAG = _VU1[_T_RECORDS]

_OP_CODES = {"read": 0, "write": 1}
_OP_NAMES = {0: "read", 1: "write"}
_IOCLASS_CODES = {IoClass.METADATA: 0, IoClass.RAW: 1}
_IOCLASS_VALUES = {0: IoClass.METADATA, 1: IoClass.RAW}
_RAW_OP_CODES = {None: 0, "read": 1, "write": 2}
_RAW_OP_NAMES = {0: None, 1: "read", 2: "write"}
_RAW = IoClass.RAW
_METADATA = IoClass.METADATA


def is_binary_trace(data: bytes) -> bool:
    """True when ``data`` starts with the binary trace magic."""
    return data[:4] == MAGIC


# ----------------------------------------------------------------------
# Encoder
# ----------------------------------------------------------------------
def _varint(n: int) -> bytes:
    """Unsigned LEB128 encoding of ``n``."""
    if n < 0x80:
        if n < 0:
            raise ValueError(f"cannot varint-encode negative value {n}")
        return _VU1[n]
    if n < 0x4000:
        return bytes((n & 0x7F | 0x80, n >> 7))
    if n < 0x200000:
        return bytes((n & 0x7F | 0x80, n >> 7 & 0x7F | 0x80, n >> 14))
    out = bytearray()
    while n > 0x7F:
        out.append(n & 0x7F | 0x80)
        n >>= 7
    out.append(n)
    return bytes(out)


def _opt_f64(x: Optional[float]) -> bytes:
    return b"\x00" if x is None else _OPT_F64.pack(1, x)


class _StringIds(dict):
    """String -> encoded intern id (``None`` is id 0).  Looking up a new
    string interns it: the next id, and a STR frame appended to
    ``parts`` right away, ahead of the frame that references it."""

    def __init__(self, parts: List[bytes]) -> None:
        super().__init__({None: b"\x00"})
        self.parts = parts

    def __missing__(self, s: str) -> bytes:
        raw = s.encode("utf-8")
        self.parts.append(_STR_TAG + _varint(len(raw)) + raw)
        sid = self[s] = _varint(len(self))
        return sid


class _FrameEncoder:
    """Frame builder: frames accumulate in output order in :attr:`parts`."""

    def __init__(self) -> None:
        self.parts: List[bytes] = [MAGIC]
        self._ids = _StringIds(self.parts)

    # -- frames --------------------------------------------------------
    def header(self, task: str, start: float, end: float,
               files: Iterable[str]) -> None:
        files = list(files)
        ids = self._ids
        out = [_HEADER_TAG, ids[task], _F64X2.pack(start, end),
               _varint(len(files))]
        out += [ids[f] for f in files]
        self.parts.append(b"".join(out))

    def object_profile(self, p: DataObjectProfile) -> None:
        ids = self._ids
        vu = _varint
        self.parts.append(b"".join([
            _OBJPROF_TAG, ids[p.task], ids[p.file], ids[p.object_name],
            _F64.pack(p.acquired), _opt_f64(p.released), vu(p.open_count),
            vu(len(p.shape)), *map(vu, p.shape),
            ids[p.dtype or None], ids[p.layout or None],
            vu(p.nbytes), vu(p.reads), vu(p.writes),
            vu(p.elements_read), vu(p.elements_written),
        ]))

    def session(self, s: FileSession) -> None:
        ids = self._ids
        vu = _varint
        out = [
            _SESSION_TAG, ids[s.task], ids[s.file], _F64.pack(s.open_time),
            _opt_f64(s.close_time),
            vu(s.read_ops), vu(s.write_ops), vu(s.read_bytes),
            vu(s.write_bytes), vu(s.sequential_ops), vu(s.sequential_raw_ops),
            vu(s.metadata_ops), vu(s.raw_ops), vu(len(s.data_objects)),
        ]
        out += [ids[obj] for obj in s.data_objects]
        self.parts.append(b"".join(out))

    def stats(self, s: DatasetIoStats) -> None:
        ids = self._ids
        vu = _varint
        runs = s.region_runs()
        out = [
            _STATS_TAG, ids[s.task], ids[s.file], ids[s.data_object],
            vu(s.reads), vu(s.writes), vu(s.bytes_read), vu(s.bytes_written),
            vu(s.data_ops), vu(s.data_bytes), vu(s.metadata_ops),
            vu(s.metadata_bytes), _F64.pack(s.io_time),
            _opt_f64(s.first_start), _opt_f64(s.last_end),
            _VU1[_RAW_OP_CODES[s.first_raw_op]], vu(len(runs)),
        ]
        prev_end = 0
        for first, last, count in runs:
            out += (vu(first - prev_end), vu(last - first), vu(count))
            prev_end = last + 1
        self.parts.append(b"".join(out))

    def records_block(self, records: Iterable[VfdIoRecord]) -> None:
        """Emit all per-op records behind a skippable byte-length prefix."""
        parts = self.parts
        mark = len(parts)
        ids = self._ids
        vu = _varint
        pack = _F64X2.pack
        for r in records:
            at = r.access_type
            flags = _OP_CODES[r.op] | (
                2 if at is _RAW else 0 if at is _METADATA
                else _IOCLASS_CODES[at] << 1)
            parts += (_RECORD_TAG, ids[r.task], ids[r.file],
                      ids[r.data_object], _VU1[flags], vu(r.offset),
                      vu(r.nbytes), pack(r.start, r.duration))
        size = sum(map(len, parts[mark:]))
        parts.insert(mark, _RECORDS_TAG + vu(size))

    def finish(self) -> bytes:
        """The encoded trace: every frame so far, then END."""
        self.parts.append(_END_TAG)
        return b"".join(self.parts)


def encode_profile(profile) -> bytes:
    """Encode one :class:`TaskProfile` to compact binary bytes."""
    enc = _FrameEncoder()
    enc.header(profile.task, profile.span.start, profile.span.end,
               profile.files)
    for p in profile.object_profiles:
        enc.object_profile(p)
    for s in profile.file_sessions:
        enc.session(s)
    for s in profile.dataset_stats:
        enc.stats(s)
    enc.records_block(profile.io_records)
    return enc.finish()


def write_profile(fp: BinaryIO, profile) -> None:
    """Encode one :class:`TaskProfile` into a binary file object."""
    fp.write(encode_profile(profile))


def encode_vfd_trace(records: Iterable[VfdIoRecord],
                     sessions: Iterable[FileSession] = ()) -> bytes:
    """Encode a standalone VFD trace (sessions + per-op records)."""
    enc = _FrameEncoder()
    for s in sessions:
        enc.session(s)
    enc.records_block(records)
    return enc.finish()


def encode_vol_trace(profiles: Iterable[DataObjectProfile]) -> bytes:
    """Encode a standalone VOL trace (per-object semantic profiles)."""
    enc = _FrameEncoder()
    for p in profiles:
        enc.object_profile(p)
    return enc.finish()


def vfd_trace_nbytes(records: Iterable[VfdIoRecord],
                     sessions: Iterable[FileSession] = ()) -> int:
    """Real encoded size of a VFD trace — the Figure 9d numerator."""
    return len(encode_vfd_trace(records, sessions))


def vol_trace_nbytes(profiles: Iterable[DataObjectProfile]) -> int:
    """Real encoded size of a VOL trace."""
    return len(encode_vol_trace(profiles))


# ----------------------------------------------------------------------
# Decoder
# ----------------------------------------------------------------------
# Readers take the buffer and the position of a frame's payload and
# return ``(item, new_pos)``; STR frames and the record block only
# return ``new_pos``.  Hot loops inline the one-byte varint case and
# call :func:`_vu_tail` only for longer ones.  Every error here is an
# IndexError or struct.error (the payload ends early), a KeyError (an
# unknown string id) or a ValueError; :func:`decode_profile` reports
# each as a ``ValueError("corrupt trace: ...")``.
def _vu_tail(buf, pos: int, n: int) -> Tuple[int, int]:
    """Finish a varint whose first byte ``n`` (continuation bit set) was
    read just before ``pos``."""
    n &= 0x7F
    shift = 7
    while True:
        b = buf[pos]
        pos += 1
        n |= (b & 0x7F) << shift
        if b < 0x80:
            return n, pos
        shift += 7


def _vus(buf, pos: int, count: int) -> Tuple[List[int], int]:
    """``count`` consecutive varints."""
    end = pos + count
    head = buf[pos:end]
    if head.isascii() and len(head) == count:
        return list(head), end  # every one is a one-byte varint
    out = []
    append = out.append
    for _ in range(count):
        n = buf[pos]
        if n < 0x80:
            pos += 1
        else:
            m = buf[pos + 1]
            if m < 0x80:
                n = n & 0x7F | m << 7
                pos += 2
            else:
                n, pos = _vu_tail(buf, pos + 1, n)
        append(n)
    return out, pos


def _opt_f64_at(buf, pos: int) -> Tuple[Optional[float], int]:
    if buf[pos]:
        return _F64.unpack_from(buf, pos + 1)[0], pos + 9
    return None, pos + 1


def _read_str(buf, pos: int, strings: Dict[int, Optional[str]]) -> int:
    n = buf[pos]
    pos += 1
    if n > 0x7F:
        n, pos = _vu_tail(buf, pos, n)
    end = pos + n
    if end > len(buf):
        raise IndexError("string runs past the payload")
    try:
        strings[len(strings)] = str(buf[pos:end], "utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"corrupt trace: string {len(strings)} is not "
                         f"UTF-8 ({exc.reason})") from None
    return end


def _read_header(buf, pos, strings):
    (task_id, ), pos = _vus(buf, pos, 1)
    start, end = _F64X2.unpack_from(buf, pos)
    (n_files, ), pos = _vus(buf, pos + 16, 1)
    ids, pos = _vus(buf, pos, n_files)
    return (strings[task_id], start, end, [strings[i] for i in ids]), pos


def _read_object_profile(buf, pos, strings):
    (task, file, obj), pos = _vus(buf, pos, 3)
    acquired = _F64.unpack_from(buf, pos)[0]
    released, pos = _opt_f64_at(buf, pos + 8)
    (open_count, ndim), pos = _vus(buf, pos, 2)
    rest, pos = _vus(buf, pos, ndim + 7)  # shape, dtype, layout, counters
    return DataObjectProfile(
        strings[task], strings[file], strings[obj], acquired, released,
        open_count, tuple(rest[:ndim]), strings[rest[ndim]] or "",
        strings[rest[ndim + 1]] or "", *rest[ndim + 2:]), pos


def _read_session(buf, pos, strings):
    (task, file), pos = _vus(buf, pos, 2)
    open_time = _F64.unpack_from(buf, pos)[0]
    close_time, pos = _opt_f64_at(buf, pos + 8)
    counters, pos = _vus(buf, pos, 9)
    objects, pos = _vus(buf, pos, counters.pop())
    return FileSession(
        strings[task], strings[file], open_time, close_time, *counters,
        data_objects=[strings[i] for i in objects]), pos


def _read_stats(buf, pos, strings):
    fields, pos = _vus(buf, pos, 11)
    io_time = _F64.unpack_from(buf, pos)[0]
    first_start, pos = _opt_f64_at(buf, pos + 8)
    last_end, pos = _opt_f64_at(buf, pos)
    code = buf[pos]
    if code > 2:
        raise ValueError(f"corrupt trace: unknown first_raw_op code {code}")
    stats = DatasetIoStats(
        strings[fields[0]], strings[fields[1]], strings[fields[2]],
        *fields[3:], io_time, first_start, last_end, _RAW_OP_NAMES[code])
    (n_runs, ), pos = _vus(buf, pos + 1, 1)
    deltas, pos = _vus(buf, pos, 3 * n_runs)
    runs = []
    first = 0
    for i in range(0, len(deltas), 3):
        first += deltas[i]
        last = first + deltas[i + 1]
        runs.append((first, last, deltas[i + 2]))
        first = last + 1
    stats.set_region_runs(runs)
    return stats, pos


def _read_records(buf, pos: int, end: int, strings, out: list) -> int:
    """Decode the RECORD (and STR) frames of a record block."""
    append = out.append
    unpack_dd = _F64X2.unpack_from
    while pos < end:
        tag = buf[pos]
        if tag == _T_RECORD:
            n = buf[pos + 1]
            pos += 2
            if n > 0x7F:
                n, pos = _vu_tail(buf, pos, n)
            task = strings[n]
            n = buf[pos]
            pos += 1
            if n > 0x7F:
                n, pos = _vu_tail(buf, pos, n)
            file = strings[n]
            n = buf[pos]
            pos += 1
            if n > 0x7F:
                n, pos = _vu_tail(buf, pos, n)
            obj = strings[n]
            flags = buf[pos]
            offset = buf[pos + 1]
            pos += 2
            if offset > 0x7F:
                offset, pos = _vu_tail(buf, pos, offset)
            nbytes = buf[pos]
            pos += 1
            if nbytes > 0x7F:
                nbytes, pos = _vu_tail(buf, pos, nbytes)
            start, duration = unpack_dd(buf, pos)
            pos += 16
            if flags > 3:
                raise ValueError(
                    f"corrupt trace: unknown record flags {flags:#x}")
            append(new_io_record(task, file, _OP_NAMES[flags & 1], offset,
                                 nbytes, start, duration,
                                 _IOCLASS_VALUES[flags >> 1], obj))
        elif tag == _T_STR:
            pos = _read_str(buf, pos + 1, strings)
        else:
            raise ValueError(
                f"corrupt trace: frame tag {tag:#x} inside the record block")
    if pos != end:
        raise ValueError("corrupt trace: record block overruns its length")
    return pos


_READERS = {
    _T_OBJPROF: (_read_object_profile, 0),
    _T_SESSION: (_read_session, 1),
    _T_STATS: (_read_stats, 2),
}


def decode_profile(data: bytes, with_io_records: bool = True):
    """Decode a binary task profile.

    With ``with_io_records=False`` the (dominant) per-operation record
    block is skipped in O(1) — everything the Analyzer and Diagnostics
    consume (header, object profiles, sessions, joined stats) is still
    fully decoded.  A malformed payload raises
    ``ValueError("corrupt trace: ...")`` naming the problem.
    """
    from repro.mapper.mapper import TaskProfile
    from repro.simclock import TimeSpan

    if data[:4] != MAGIC:
        raise ValueError("not a DaYu binary trace (bad magic)")
    buf = data if type(data) is bytes else bytes(data)
    pos = 4
    strings: Dict[int, Optional[str]] = {0: None}
    task = ""
    start = end = 0.0
    files: List[str] = []
    # object profiles, file sessions, dataset stats
    items: Tuple[list, list, list] = ([], [], [])
    records: List[VfdIoRecord] = []
    try:
        while True:
            tag = buf[pos]
            pos += 1
            reader = _READERS.get(tag)
            if reader is not None:
                item, pos = reader[0](buf, pos, strings)
                items[reader[1]].append(item)
            elif tag == _T_STR:
                pos = _read_str(buf, pos, strings)
            elif tag == _T_RECORDS:
                (size, ), pos = _vus(buf, pos, 1)
                if with_io_records:
                    pos = _read_records(buf, pos, pos + size, strings,
                                        records)
                else:
                    pos += size
            elif tag == _T_HEADER:
                (task, start, end, files), pos = _read_header(
                    buf, pos, strings)
            elif tag == _T_END:
                break
            else:
                raise ValueError(f"corrupt trace: unknown frame tag {tag:#x}")
    except KeyError as exc:
        raise ValueError(
            f"corrupt trace: unknown string id {exc.args[0]}") from None
    except (IndexError, struct.error) as exc:
        raise ValueError("corrupt trace: truncated payload") from exc
    return TaskProfile(
        task=task, span=TimeSpan(start, end), files=files,
        object_profiles=items[0], file_sessions=items[1],
        io_records=records, dataset_stats=items[2],
    )


def read_profile(fp: BinaryIO, with_io_records: bool = True):
    """Decode one binary task profile from a file object."""
    return decode_profile(fp.read(), with_io_records=with_io_records)
