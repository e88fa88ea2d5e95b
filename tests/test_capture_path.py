"""The per-operation capture path: per-handle file sessions, and the
one-shot record constructors used by the tracer, the POSIX op log and
the trace decoders."""

import dataclasses
import json

import numpy as np
import pytest

from repro.mapper import DaYuConfig, DataSemanticMapper
from repro.mapper import codec, columnar, persist
from repro.posix import SimFS
from repro.posix.simfs import OpRecord, new_op_record
from repro.simclock import SimClock
from repro.storage import Mount, make_device
from repro.vfd import Sec2VFD, TracingVFD, VfdTracer, VolVfdChannel
from repro.vfd.base import IoClass
from repro.vfd.tracing import VfdIoRecord, new_io_record

PATH = "/beegfs/a.h5"


def _env(skip_ops=0):
    clock = SimClock()
    fs = SimFS(clock, mounts=[Mount("/beegfs", make_device("beegfs"))])
    mapper = DataSemanticMapper(clock, DaYuConfig(skip_ops=skip_ops))
    with mapper.task("producer") as ctx:
        f = ctx.open(fs, PATH, "w")
        f.create_dataset("d", shape=(64,), dtype="f8", data=np.arange(64.0))
        f.close()
    return fs, mapper


def _two_handles(skip_ops=0):
    """One task opens the same file twice and reads through each handle."""
    fs, mapper = _env(skip_ops)
    with mapper.task("reader") as ctx:
        first = ctx.open(fs, PATH, "r")
        second = ctx.open(fs, PATH, "r")
        first["d"].read()
        second["d"].read()
        first.close()
        second.close()
    return mapper.profiles["reader"]


class TestPerHandleSessions:
    def test_both_sessions_get_a_lifetime(self):
        profile = _two_handles()
        sessions = [s for s in profile.file_sessions if s.file == PATH]
        assert len(sessions) == 2
        assert all(s.lifetime is not None and s.lifetime > 0
                   for s in sessions)
        assert sessions[0].close_time < sessions[1].close_time

    def test_ops_land_in_the_issuing_handles_session(self):
        profile = _two_handles()
        first, second = profile.file_sessions
        # Both handles issue the same open + full-read sequence.
        assert first.total_ops == second.total_ops > 0
        assert first.total_ops + second.total_ops == len(profile.io_records)
        assert first.data_objects == second.data_objects == ["/d"]

    def test_skip_window_is_per_handle(self):
        fs, _ = _env()
        tracer = VfdTracer(fs.clock, VolVfdChannel(), skip_ops=2)
        one = TracingVFD(Sec2VFD(fs, PATH, "r"), tracer)
        one.read(0, 1, IoClass.METADATA)
        two = TracingVFD(Sec2VFD(fs, PATH, "r"), tracer)
        one.read(1, 1, IoClass.METADATA)
        one.read(2, 1, IoClass.METADATA)
        for addr in (10, 11, 12):
            two.read(addr, 1, IoClass.METADATA)
        one.close()
        two.close()
        # Each handle drops its own first two operations: opening the
        # second handle must not restart the first one's window.
        assert [r.offset for r in tracer.records] == [2, 12]
        assert [s.total_ops for s in tracer.sessions] == [3, 3]
        assert all(s.lifetime is not None for s in tracer.sessions)


class TestObjectScope:
    def test_nests_and_unwinds_on_error(self):
        channel = VolVfdChannel()
        with channel.object_scope("/a"):
            with pytest.raises(KeyError):
                with channel.object_scope("/a/b"):
                    assert channel.current_object == "/a/b"
                    raise KeyError("x")
            assert channel.current_object == "/a"
        assert channel.current_object is None and channel.depth == 0


IO_ARGS = ("task", "/f.h5", "read", 4096, 512, 1.25, 0.5, IoClass.RAW, "/d")
OP_ARGS = ("write", "/f.h5", 4096, 512, 1.25, 0.5, "nvme")


@pytest.mark.parametrize("cls, fast, args", [
    (VfdIoRecord, new_io_record, IO_ARGS),
    (VfdIoRecord, new_io_record, (None, "/f.h5", "write", 0, 0, 0.0, 0.0,
                                  IoClass.METADATA, None)),
    (OpRecord, new_op_record, OP_ARGS),
])
class TestFastConstructors:
    def test_equal_to_dataclass_constructor(self, cls, fast, args):
        a, b = fast(*args), cls(*args)
        assert type(a) is cls
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert dataclasses.astuple(a) == dataclasses.astuple(b)

    def test_still_frozen(self, cls, fast, args):
        rec = fast(*args)
        field = dataclasses.fields(cls)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(rec, field, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            rec.extra = 1

    def test_replace_works(self, cls, fast, args):
        rec = fast(*args)
        moved = dataclasses.replace(rec, offset=8192)
        assert moved == dataclasses.replace(cls(*args), offset=8192)
        assert moved != rec


def _profile():
    fs, mapper = _env()
    with mapper.task("reader") as ctx:
        f = ctx.open(fs, PATH, "r")
        f["d"].read()
        f.close()
    return mapper.profiles["reader"]


def _expected_records(profile):
    return [VfdIoRecord(*dataclasses.astuple(r)) for r in profile.io_records]


class TestDecodersBuildEqualRecords:
    def test_json(self):
        profile = _profile()
        back = persist.profile_from_json_dict(json.loads(profile.serialize()))
        assert back.io_records == _expected_records(profile)
        assert [repr(r) for r in back.io_records] == \
            [repr(r) for r in profile.io_records]

    def test_binary(self):
        profile = _profile()
        back = codec.decode_profile(profile.serialize_binary())
        assert back.io_records == _expected_records(profile)

    def test_columnar(self):
        profile = _profile()
        back = columnar.decode_columnar(profile.serialize_columnar())
        assert back.io_records == _expected_records(profile)
        assert [hash(r) for r in back.io_records] == \
            [hash(r) for r in profile.io_records]
