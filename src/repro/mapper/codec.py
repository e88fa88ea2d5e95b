"""Compact binary trace codec — DaYu's on-disk trace format.

JSON is the *interchange* form of a task profile: self-describing, greppable,
and ~an order of magnitude larger than it needs to be.  This module is the
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

Encoding is streaming: the encoder emits one frame per item as it is
produced; the decoder walks frames incrementally.  Region histograms are
stored as coalesced page runs (``first``, ``length-1``, ``count`` with
delta-coded starts), not per-page entries.
"""

from __future__ import annotations

import struct
from io import BytesIO
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

_OP_CODES = {"read": 0, "write": 1}
_OP_NAMES = {0: "read", 1: "write"}
_IOCLASS_CODES = {IoClass.METADATA: 0, IoClass.RAW: 1}
_IOCLASS_VALUES = {0: IoClass.METADATA, 1: IoClass.RAW}
_RAW_OP_CODES = {None: 0, "read": 1, "write": 2}
_RAW_OP_NAMES = {0: None, 1: "read", 2: "write"}


def is_binary_trace(data: bytes) -> bool:
    """True when ``data`` starts with the binary trace magic."""
    return data[:4] == MAGIC


# ----------------------------------------------------------------------
# Encoder
# ----------------------------------------------------------------------
class _FrameEncoder:
    """Streaming frame writer with an incremental string-intern table."""

    def __init__(self, sink: BinaryIO) -> None:
        self._sink = sink
        self._strings: Dict[str, int] = {}
        sink.write(MAGIC)

    # -- primitives ----------------------------------------------------
    @staticmethod
    def _vu(out: bytearray, n: int) -> None:
        if n < 0:
            raise ValueError(f"cannot varint-encode negative value {n}")
        while True:
            b = n & 0x7F
            n >>= 7
            if n:
                out.append(b | 0x80)
            else:
                out.append(b)
                return

    def _sid(self, out: bytearray, s: Optional[str]) -> None:
        """Append the intern id of ``s``, emitting a STR frame on first use."""
        if s is None:
            out.append(0)
            return
        sid = self._strings.get(s)
        if sid is None:
            sid = len(self._strings) + 1
            self._strings[s] = sid
            raw = s.encode("utf-8")
            frame = bytearray([_T_STR])
            self._vu(frame, len(raw))
            frame += raw
            self._sink.write(frame)
        self._vu(out, sid)

    @staticmethod
    def _f64(out: bytearray, x: float) -> None:
        out += _F64.pack(x)

    @classmethod
    def _opt_f64(cls, out: bytearray, x: Optional[float]) -> None:
        if x is None:
            out.append(0)
        else:
            out.append(1)
            cls._f64(out, x)

    # -- frames --------------------------------------------------------
    def header(self, task: str, start: float, end: float,
               files: Iterable[str]) -> None:
        out = bytearray([_T_HEADER])
        self._sid(out, task)
        self._f64(out, start)
        self._f64(out, end)
        files = list(files)
        self._vu(out, len(files))
        for f in files:
            self._sid(out, f)
        self._sink.write(out)

    def object_profile(self, p: DataObjectProfile) -> None:
        out = bytearray([_T_OBJPROF])
        self._sid(out, p.task)
        self._sid(out, p.file)
        self._sid(out, p.object_name)
        self._f64(out, p.acquired)
        self._opt_f64(out, p.released)
        self._vu(out, p.open_count)
        self._vu(out, len(p.shape))
        for dim in p.shape:
            self._vu(out, dim)
        self._sid(out, p.dtype or None)
        self._sid(out, p.layout or None)
        for n in (p.nbytes, p.reads, p.writes,
                  p.elements_read, p.elements_written):
            self._vu(out, n)
        self._sink.write(out)

    def session(self, s: FileSession) -> None:
        out = bytearray([_T_SESSION])
        self._sid(out, s.task)
        self._sid(out, s.file)
        self._f64(out, s.open_time)
        self._opt_f64(out, s.close_time)
        for n in (s.read_ops, s.write_ops, s.read_bytes, s.write_bytes,
                  s.sequential_ops, s.sequential_raw_ops,
                  s.metadata_ops, s.raw_ops):
            self._vu(out, n)
        self._vu(out, len(s.data_objects))
        for obj in s.data_objects:
            self._sid(out, obj)
        self._sink.write(out)

    def stats(self, s: DatasetIoStats) -> None:
        out = bytearray([_T_STATS])
        self._sid(out, s.task)
        self._sid(out, s.file)
        self._sid(out, s.data_object)
        for n in (s.reads, s.writes, s.bytes_read, s.bytes_written,
                  s.data_ops, s.data_bytes, s.metadata_ops, s.metadata_bytes):
            self._vu(out, n)
        self._f64(out, s.io_time)
        self._opt_f64(out, s.first_start)
        self._opt_f64(out, s.last_end)
        out.append(_RAW_OP_CODES[s.first_raw_op])
        runs = s.region_runs()
        self._vu(out, len(runs))
        prev_end = 0
        for i, (first, last, count) in enumerate(runs):
            self._vu(out, first if i == 0 else first - prev_end)
            self._vu(out, last - first)
            self._vu(out, count)
            prev_end = last + 1
        self._sink.write(out)

    def record(self, r: VfdIoRecord) -> None:
        out = bytearray([_T_RECORD])
        self._sid(out, r.task)
        self._sid(out, r.file)
        self._sid(out, r.data_object)
        out.append(_OP_CODES[r.op] | (_IOCLASS_CODES[r.access_type] << 1))
        self._vu(out, r.offset)
        self._vu(out, r.nbytes)
        self._f64(out, r.start)
        self._f64(out, r.duration)
        self._sink.write(out)

    def records_block(self, records: Iterable[VfdIoRecord]) -> None:
        """Emit all per-op records behind a skippable byte-length prefix."""
        block = BytesIO()
        outer_sink = self._sink
        self._sink = block
        try:
            for r in records:
                self.record(r)
        finally:
            self._sink = outer_sink
        payload = block.getvalue()
        out = bytearray([_T_RECORDS])
        self._vu(out, len(payload))
        self._sink.write(out)
        self._sink.write(payload)

    def end(self) -> None:
        self._sink.write(bytes([_T_END]))


def write_profile(fp: BinaryIO, profile) -> None:
    """Stream-encode one :class:`TaskProfile` into a binary file object."""
    enc = _FrameEncoder(fp)
    enc.header(profile.task, profile.span.start, profile.span.end,
               profile.files)
    for p in profile.object_profiles:
        enc.object_profile(p)
    for s in profile.file_sessions:
        enc.session(s)
    for s in profile.dataset_stats:
        enc.stats(s)
    enc.records_block(profile.io_records)
    enc.end()


def encode_profile(profile) -> bytes:
    """Encode one :class:`TaskProfile` to compact binary bytes."""
    buf = BytesIO()
    write_profile(buf, profile)
    return buf.getvalue()


def encode_vfd_trace(records: Iterable[VfdIoRecord],
                     sessions: Iterable[FileSession] = ()) -> bytes:
    """Encode a standalone VFD trace (sessions + per-op records)."""
    buf = BytesIO()
    enc = _FrameEncoder(buf)
    for s in sessions:
        enc.session(s)
    enc.records_block(records)
    enc.end()
    return buf.getvalue()


def encode_vol_trace(profiles: Iterable[DataObjectProfile]) -> bytes:
    """Encode a standalone VOL trace (per-object semantic profiles)."""
    buf = BytesIO()
    enc = _FrameEncoder(buf)
    for p in profiles:
        enc.object_profile(p)
    enc.end()
    return buf.getvalue()


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
class _FrameDecoder:
    """Incremental frame reader over an in-memory buffer."""

    def __init__(self, buf: bytes) -> None:
        if buf[:4] != MAGIC:
            raise ValueError("not a DaYu binary trace (bad magic)")
        self._buf = buf
        self._pos = 4
        self._strings: List[Optional[str]] = [None]

    def _vu(self) -> int:
        buf, i = self._buf, self._pos
        shift = n = 0
        while True:
            b = buf[i]
            i += 1
            n |= (b & 0x7F) << shift
            if not b & 0x80:
                self._pos = i
                return n
            shift += 7

    def _sid(self) -> Optional[str]:
        return self._strings[self._vu()]

    def _f64(self) -> float:
        x = _F64.unpack_from(self._buf, self._pos)[0]
        self._pos += 8
        return x

    def _opt_f64(self) -> Optional[float]:
        flag = self._buf[self._pos]
        self._pos += 1
        return self._f64() if flag else None

    def _byte(self) -> int:
        b = self._buf[self._pos]
        self._pos += 1
        return b

    def next_tag(self) -> int:
        return self._byte()

    def read_str(self) -> None:
        n = self._vu()
        self._strings.append(self._buf[self._pos:self._pos + n].decode("utf-8"))
        self._pos += n

    def read_header(self) -> Tuple[str, float, float, List[str]]:
        task = self._sid()
        start = self._f64()
        end = self._f64()
        files = [self._sid() for _ in range(self._vu())]
        return task, start, end, files

    def read_object_profile(self) -> DataObjectProfile:
        task = self._sid()
        file = self._sid()
        obj = self._sid()
        acquired = self._f64()
        released = self._opt_f64()
        open_count = self._vu()
        shape = tuple(self._vu() for _ in range(self._vu()))
        dtype = self._sid() or ""
        layout = self._sid() or ""
        nbytes, reads, writes, er, ew = (self._vu() for _ in range(5))
        return DataObjectProfile(
            task=task, file=file, object_name=obj, acquired=acquired,
            released=released, open_count=open_count, shape=shape,
            dtype=dtype, layout=layout, nbytes=nbytes, reads=reads,
            writes=writes, elements_read=er, elements_written=ew,
        )

    def read_session(self) -> FileSession:
        task = self._sid()
        file = self._sid()
        open_time = self._f64()
        close_time = self._opt_f64()
        counters = [self._vu() for _ in range(8)]
        objects = [self._sid() for _ in range(self._vu())]
        return FileSession(
            task=task, file=file, open_time=open_time, close_time=close_time,
            read_ops=counters[0], write_ops=counters[1],
            read_bytes=counters[2], write_bytes=counters[3],
            sequential_ops=counters[4], sequential_raw_ops=counters[5],
            metadata_ops=counters[6], raw_ops=counters[7],
            data_objects=objects,
        )

    def read_stats(self) -> DatasetIoStats:
        task = self._sid()
        file = self._sid()
        obj = self._sid()
        counters = [self._vu() for _ in range(8)]
        stats = DatasetIoStats(
            task=task, file=file, data_object=obj,
            reads=counters[0], writes=counters[1],
            bytes_read=counters[2], bytes_written=counters[3],
            data_ops=counters[4], data_bytes=counters[5],
            metadata_ops=counters[6], metadata_bytes=counters[7],
        )
        stats.io_time = self._f64()
        stats.first_start = self._opt_f64()
        stats.last_end = self._opt_f64()
        stats.first_raw_op = _RAW_OP_NAMES[self._byte()]
        runs: List[Tuple[int, int, int]] = []
        n_runs = self._vu()
        pos = 0
        for i in range(n_runs):
            first = pos + self._vu()
            last = first + self._vu()
            count = self._vu()
            runs.append((first, last, count))
            pos = last + 1
        stats.set_region_runs(runs)
        return stats

    def read_record(self) -> VfdIoRecord:
        task = self._sid()
        file = self._sid()
        obj = self._sid()
        flags = self._byte()
        offset = self._vu()
        nbytes = self._vu()
        start = self._f64()
        duration = self._f64()
        return new_io_record(
            task, file, _OP_NAMES[flags & 1], offset, nbytes, start,
            duration, _IOCLASS_VALUES[(flags >> 1) & 1], obj,
        )

    def skip_block(self) -> None:
        n = self._vu()  # consume the length varint before offsetting
        self._pos += n


def decode_profile(data: bytes, with_io_records: bool = True):
    """Decode a binary task profile.

    With ``with_io_records=False`` the (dominant) per-operation record
    block is skipped in O(1) — everything the Analyzer and Diagnostics
    consume (header, object profiles, sessions, joined stats) is still
    fully decoded.
    """
    from repro.mapper.mapper import TaskProfile
    from repro.simclock import TimeSpan

    dec = _FrameDecoder(data)
    task = ""
    start = end = 0.0
    files: List[str] = []
    object_profiles: List[DataObjectProfile] = []
    sessions: List[FileSession] = []
    stats: List[DatasetIoStats] = []
    records: List[VfdIoRecord] = []
    try:
        while True:
            tag = dec.next_tag()
            if tag == _T_END:
                break
            if tag == _T_STR:
                dec.read_str()
            elif tag == _T_HEADER:
                task, start, end, files = dec.read_header()
            elif tag == _T_OBJPROF:
                object_profiles.append(dec.read_object_profile())
            elif tag == _T_SESSION:
                sessions.append(dec.read_session())
            elif tag == _T_STATS:
                stats.append(dec.read_stats())
            elif tag == _T_RECORD:
                records.append(dec.read_record())
            elif tag == _T_RECORDS:
                if with_io_records:
                    dec._vu()  # byte length; frames inside are self-describing
                else:
                    dec.skip_block()
            else:
                raise ValueError(f"corrupt trace: unknown frame tag {tag:#x}")
    except (IndexError, struct.error) as exc:
        raise ValueError("corrupt trace: truncated payload") from exc
    return TaskProfile(
        task=task, span=TimeSpan(start, end), files=files,
        object_profiles=object_profiles, file_sessions=sessions,
        io_records=records, dataset_stats=stats,
    )


def read_profile(fp: BinaryIO, with_io_records: bool = True):
    """Decode one binary task profile from a file object."""
    return decode_profile(fp.read(), with_io_records=with_io_records)
