"""Binary trace codec: JSON↔binary equivalence, streaming I/O, skipping,
and the coalesced page-run storage behind the region histograms."""

import io
import json
import random

import pytest

from repro.mapper import codec
from repro.mapper.config import DaYuConfig
from repro.mapper.mapper import TaskProfile
from repro.mapper.persist import load_profile, load_profiles_from_host_dir
from repro.mapper.stats import DatasetIoStats, _coalesce_runs
from repro.simclock import TimeSpan
from repro.vfd.base import IoClass
from repro.vfd.tracing import FileSession, VfdIoRecord
from repro.vol.tracer import DataObjectProfile


def make_profile(task="t0"):
    """A hand-built profile exercising every serialized field, including
    the awkward ones: None timestamps, unset first_raw_op, negative-able
    floats, unicode names, shared interned strings."""
    file_a = "/pfs/run/μ-data.h5"
    file_b = "/pfs/run/other.h5"
    records = [
        VfdIoRecord(task=task, file=file_a, op="write", offset=0,
                    nbytes=4096, start=1.25, duration=0.5,
                    access_type=IoClass.METADATA, data_object=None),
        VfdIoRecord(task=task, file=file_a, op="read", offset=4096,
                    nbytes=123, start=2.0, duration=0.0,
                    access_type=IoClass.RAW, data_object="/ds/α"),
        VfdIoRecord(task=None, file=file_b, op="write", offset=1 << 40,
                    nbytes=0, start=0.1, duration=1e-9,
                    access_type=IoClass.RAW, data_object="/ds/α"),
    ]
    sessions = [
        FileSession(task=task, file=file_a, open_time=1.0, close_time=3.5,
                    read_ops=1, write_ops=1, read_bytes=123,
                    write_bytes=4096, sequential_ops=1, sequential_raw_ops=1,
                    metadata_ops=1, raw_ops=1, data_objects=["/ds/α"]),
        FileSession(task=task, file=file_b, open_time=4.0, close_time=None),
    ]
    objects = [
        DataObjectProfile(task=task, file=file_a, object_name="/ds/α",
                          acquired=1.0, released=3.0, open_count=2,
                          shape=(64, 128), dtype="float64", layout="chunked",
                          nbytes=64 * 128 * 8, reads=1, writes=0,
                          elements_read=8192),
        DataObjectProfile(task=None, file=file_b, object_name="/empty",
                          acquired=0.0, released=None),
    ]
    full = DatasetIoStats(task=task, file=file_a, data_object="/ds/α",
                          reads=3, writes=2, bytes_read=300, bytes_written=200,
                          data_ops=4, data_bytes=450, metadata_ops=1,
                          metadata_bytes=50, io_time=0.125,
                          first_start=1.5, last_end=2.5, first_raw_op="read")
    full.regions = {0: 2, 1: 2, 7: 1, 1000000: 3}
    bare = DatasetIoStats(task=None, file=file_b, data_object="/empty")
    return TaskProfile(
        task=task,
        span=TimeSpan(0.5, 9.75),
        files=[file_a, file_b],
        object_profiles=objects,
        file_sessions=sessions,
        io_records=records,
        dataset_stats=[full, bare],
    )


class TestRoundTrip:
    def test_every_field_survives(self):
        p = make_profile()
        q = codec.decode_profile(codec.encode_profile(p))
        assert q.to_json_dict() == p.to_json_dict()

    def test_dataclass_level_equality(self):
        p = make_profile()
        q = codec.decode_profile(codec.encode_profile(p))
        assert q.io_records == p.io_records
        assert [s.to_json_dict() for s in q.file_sessions] == \
               [s.to_json_dict() for s in p.file_sessions]
        assert q.object_profiles == p.object_profiles
        for a, b in zip(q.dataset_stats, p.dataset_stats):
            assert a.regions == b.regions
            assert a.first_raw_op == b.first_raw_op
            assert a.first_start == b.first_start and a.last_end == b.last_end

    def test_binary_vs_json_loaders_agree(self):
        p = make_profile()
        via_binary = load_profile(codec.encode_profile(p))
        via_json = load_profile(p.serialize())
        assert via_binary.to_json_dict() == via_json.to_json_dict()

    def test_empty_profile(self):
        p = TaskProfile(task="empty", span=TimeSpan(0.0, 0.0), files=[],
                        object_profiles=[], file_sessions=[], io_records=[],
                        dataset_stats=[])
        q = codec.decode_profile(codec.encode_profile(p))
        assert q.to_json_dict() == p.to_json_dict()

    def test_float_exactness(self):
        p = make_profile()
        p.span = TimeSpan(1 / 3, 2 / 3)
        p.dataset_stats[0].io_time = 0.1 + 0.2  # not exactly 0.3
        q = codec.decode_profile(codec.encode_profile(p))
        assert q.span.start == p.span.start
        assert q.dataset_stats[0].io_time == p.dataset_stats[0].io_time


class TestSkipRecords:
    def test_records_skipped_rest_identical(self):
        p = make_profile()
        q = codec.decode_profile(codec.encode_profile(p),
                                 with_io_records=False)
        assert q.io_records == []
        want = p.to_json_dict()
        got = q.to_json_dict()
        want.pop("io_records")
        got.pop("io_records")
        assert got == want

    def test_json_loader_honors_flag_too(self):
        p = make_profile()
        q = load_profile(p.serialize(), with_io_records=False)
        assert q.io_records == []
        assert len(q.dataset_stats) == len(p.dataset_stats)


class TestStreaming:
    def test_write_read_file_object(self, tmp_path):
        p = make_profile()
        path = tmp_path / f"t0{codec.BINARY_TRACE_SUFFIX}"
        with open(path, "wb") as fp:
            codec.write_profile(fp, p)
        with open(path, "rb") as fp:
            q = codec.read_profile(fp)
        assert q.to_json_dict() == p.to_json_dict()
        assert codec.is_binary_trace(path.read_bytes())

    def test_sniffing(self):
        p = make_profile()
        assert codec.is_binary_trace(codec.encode_profile(p))
        assert not codec.is_binary_trace(p.serialize())
        assert not codec.is_binary_trace(b"")

    def test_corrupt_payload_rejected(self):
        blob = codec.encode_profile(make_profile())
        with pytest.raises(ValueError):
            codec.decode_profile(blob[:-3])

    def test_mixed_format_directory(self, tmp_path):
        p = make_profile("alpha")
        r = make_profile("beta")
        (tmp_path / "alpha.json").write_bytes(p.serialize())
        (tmp_path / "beta.dayu").write_bytes(codec.encode_profile(r))
        loaded = load_profiles_from_host_dir(str(tmp_path))
        assert sorted(q.task for q in loaded) == ["alpha", "beta"]


def one_stats_profile():
    """A profile whose only item is one dataset-stats row with small
    counters, so every field of its frame sits at a known offset."""
    stats = DatasetIoStats(task="t0", file="/f.h5", data_object="/d",
                           reads=1, writes=2, first_raw_op="write")
    return TaskProfile(task="t0", span=TimeSpan(0.0, 1.0), files=[],
                       object_profiles=[], file_sessions=[], io_records=[],
                       dataset_stats=[stats])


def _decode_both_ways(blob):
    for with_io_records in (True, False):
        try:
            codec.decode_profile(blob, with_io_records=with_io_records)
        except ValueError:
            pass  # the typed rejection; anything else escapes the test


class TestCorruptTraces:
    """A damaged trace decodes or raises ``ValueError``; never another
    exception type.  (Damage that still decodes is not detected: the
    format has no checksums.)"""

    def test_unknown_first_raw_op_code(self):
        blob = bytearray(codec.encode_profile(one_stats_profile()))
        # ... raw-op code, zero region runs, empty record block, END.
        assert blob[-5:] == bytes([2, 0, codec._T_RECORDS, 0, codec._T_END])
        blob[-5] = 3
        with pytest.raises(ValueError, match="unknown first_raw_op code 3"):
            codec.decode_profile(bytes(blob))

    def test_unknown_string_id(self):
        blob = bytearray(codec.encode_profile(one_stats_profile()))
        # MAGIC, STR "t0", then HEADER whose first field is the task id.
        assert blob[8:10] == bytes([codec._T_HEADER, 1])
        blob[9] = 0x7F
        with pytest.raises(ValueError, match="unknown string id 127"):
            codec.decode_profile(bytes(blob))

    def test_unknown_record_flags(self):
        p = one_stats_profile()
        p.io_records = make_profile().io_records[:1]
        blob = bytearray(codec.encode_profile(p))
        # The trace ends: flags, offset 0, nbytes 4096 (two bytes), the
        # start/duration pair, END.
        at = len(blob) - 21
        assert blob[at:at + 4] == bytes([1, 0, 0x80, 0x20])  # metadata write
        blob[at] = 4
        with pytest.raises(ValueError, match="unknown record flags"):
            codec.decode_profile(bytes(blob))

    def test_record_block_length_mismatch(self):
        p = make_profile()
        blob = bytearray(codec.encode_profile(p))
        p.io_records = []
        # Everything before the record block encodes as without records.
        at = len(codec.encode_profile(p)) - 3
        assert blob[at] == codec._T_RECORDS
        blob[at + 1] -= 1
        for with_io_records in (True, False):
            with pytest.raises(ValueError, match="corrupt trace"):
                codec.decode_profile(bytes(blob),
                                     with_io_records=with_io_records)

    @pytest.mark.parametrize("make", [make_profile, one_stats_profile])
    def test_every_single_byte_flip(self, make):
        blob = codec.encode_profile(make())
        for i in range(4, len(blob)):
            for mask in (0x01, 0x02, 0x80, 0xFF):
                damaged = bytearray(blob)
                damaged[i] ^= mask
                _decode_both_ways(bytes(damaged))

    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_mutations(self, seed):
        rng = random.Random(seed)
        blob = codec.encode_profile(make_profile())
        for _ in range(300):
            damaged = bytearray(blob)
            for _ in range(rng.randrange(1, 4)):
                damaged[rng.randrange(4, len(damaged))] = rng.randrange(256)
            if rng.random() < 0.3:
                del damaged[rng.randrange(4, len(damaged)):]
            _decode_both_ways(bytes(damaged))


class TestSizes:
    def test_binary_much_smaller_than_json(self):
        p = make_profile()
        assert len(codec.encode_profile(p)) * 3 < len(p.serialize())

    def test_trace_nbytes_match_encodings(self):
        p = make_profile()
        assert p.vfd_binary_bytes == len(
            codec.encode_vfd_trace(p.io_records, p.file_sessions))
        assert p.vol_binary_bytes == len(
            codec.encode_vol_trace(p.object_profiles))

    def test_vfd_bytes_grow_with_records(self):
        p = make_profile()
        fewer = codec.vfd_trace_nbytes(p.io_records[:1], p.file_sessions)
        assert p.vfd_binary_bytes > fewer > 0


class TestConfig:
    def test_trace_format_validated(self):
        assert DaYuConfig(trace_format="binary").trace_format == "binary"
        assert DaYuConfig().trace_format == "json"
        with pytest.raises(ValueError):
            DaYuConfig(trace_format="xml")

    def test_config_drives_save_format(self):
        from repro.mapper.mapper import DataSemanticMapper
        from repro.simclock import SimClock

        p = make_profile()
        mapper = DataSemanticMapper(SimClock(),
                                    DaYuConfig(trace_format="binary"))
        suffix, blob = mapper._serialized(p, None)
        assert suffix == codec.BINARY_TRACE_SUFFIX
        assert codec.is_binary_trace(blob)
        suffix, blob = mapper._serialized(p, "json")
        assert suffix == ".json"
        json.loads(blob)


class TestCoalescedRegions:
    def naive_observe(self, spans, page_size=4096):
        hist = {}
        for offset, nbytes in spans:
            last = max(offset, offset + nbytes - 1)
            for page in range(offset // page_size, last // page_size + 1):
                hist[page] = hist.get(page, 0) + 1
        return hist

    def test_observe_matches_naive_per_page_histogram(self):
        spans = [(0, 4096), (0, 8192), (4096, 1), (12288, 20000),
                 (1 << 30, 4096), (5000, 0)]
        stats = DatasetIoStats(task="t", file="f", data_object="d")
        for offset, nbytes in spans:
            rec = VfdIoRecord(task="t", file="f", op="read", offset=offset,
                              nbytes=nbytes, start=0.0, duration=0.0,
                              access_type=IoClass.RAW, data_object="d")
            stats.observe(rec, page_size=4096)
        assert stats.regions == self.naive_observe(spans)

    def test_runs_are_sorted_disjoint_maximal(self):
        stats = DatasetIoStats(task="t", file="f", data_object="d")
        stats.regions = {0: 1, 1: 1, 2: 1, 5: 2, 6: 2, 9: 1}
        assert stats.region_runs() == [(0, 2, 1), (5, 6, 2), (9, 9, 1)]

    def test_coalesce_overlapping_increments(self):
        # Two overlapping spans stack; adjacent equal levels merge.
        assert _coalesce_runs([(0, 9, 1), (5, 14, 1)]) == \
               [(0, 4, 1), (5, 9, 2), (10, 14, 1)]
        assert _coalesce_runs([(0, 4, 1), (5, 9, 1)]) == [(0, 9, 1)]
        assert _coalesce_runs([]) == []

    def test_large_write_is_cheap_to_record(self):
        stats = DatasetIoStats(task="t", file="f", data_object="d")
        rec = VfdIoRecord(task="t", file="f", op="write", offset=0,
                          nbytes=1 << 30, start=0.0, duration=0.1,
                          access_type=IoClass.RAW, data_object="d")
        stats.observe(rec, page_size=4096)
        # One run, not 262144 dict entries.
        assert stats.region_runs() == [(0, (1 << 30) // 4096 - 1, 1)]
        payload = stats.to_json_dict()
        assert len(payload["regions"]) == (1 << 30) // 4096
