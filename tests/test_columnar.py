"""Columnar trace format: fuzzed round-trips, typed errors for corrupt
chunks, files carrying page statistics, row ≡ columnar lint, bulk graph
builds, format sniffing, run compaction, and the --jobs 1 inline
guarantee."""

import json
import random
import struct
from pathlib import Path

import pytest

from repro.analyzer import ParallelAnalyzer, build_ftg, build_sdg, graph_to_json
from repro.analyzer.parallel import ParallelAnalyzer as _PA
from repro.mapper import codec, columnar
from repro.mapper.columnar import (
    COLUMNAR_MAGIC,
    RunReader,
    build_graph_from_groups,
    compact_profiles,
    decode_columnar,
    decode_run,
    encode_columnar,
    encode_run,
)
from repro.lint import LintConfig
from repro.mapper.mapper import TaskProfile
from repro.mapper.persist import (
    load_profiles_path,
    sniff_trace_format,
    trace_paths,
)
from repro.mapper.stats import DatasetIoStats
from repro.simclock import TimeSpan
from repro.vfd.base import IoClass
from repro.vfd.tracing import FileSession, VfdIoRecord
from repro.vol.tracer import DataObjectProfile

from tests.test_codec import make_profile


# ---------------------------------------------------------------------------
# Randomized profile generator (property-style fuzzing, seeded).

_NAME_POOL = ("plain.h5", "μ-data.h5", "データ.h5", "smörgås.h5", "a b.h5")
_DS_POOL = ("/ds0", "/ds/α", "/グループ/x", None)
_DTYPES = ("", "float64", "vlen-str", "int32")
_LAYOUTS = ("", "contiguous", "chunked")


def _rand_stats(rng, task, file):
    s = DatasetIoStats(
        task=task, file=file,
        data_object=rng.choice(_DS_POOL) or "/empty",
        reads=rng.randrange(0, 5),
        writes=rng.randrange(0, 5),
        bytes_read=rng.choice((0, 123, 1 << 20, (1 << 64) + 7)),
        bytes_written=rng.randrange(0, 1 << 16),
        data_ops=rng.randrange(0, 8),
        data_bytes=rng.randrange(0, 1 << 20),
        metadata_ops=rng.randrange(0, 4),
        metadata_bytes=rng.randrange(0, 512),
        io_time=rng.choice((0.0, 0.125, 1 / 3)),
        first_start=rng.choice((None, 0.0, 2.5)),
        last_end=rng.choice((None, 9.75)),
        first_raw_op=rng.choice((None, "read", "write")),
    )
    if rng.random() < 0.7:
        s.regions = {rng.randrange(0, 1 << 30): rng.randrange(1, 4)
                     for _ in range(rng.randrange(0, 6))}
    return s


def random_profile(rng: random.Random, idx: int) -> TaskProfile:
    """One randomized TaskProfile hitting the codec's corners: empty
    sections, zero-length sessions, >=2**64 ids, non-ASCII names."""
    # Profile-level task stays set (the mapper always names tasks; graphs
    # key nodes on it) — record/object-level task=None is fuzzed below.
    task = f"täsk-{idx:03d}"
    n_files = rng.randrange(0, 4)
    files = [f"/pfs/ランダム/{idx}/{rng.choice(_NAME_POOL)}-{i}"
             for i in range(n_files)]
    records, sessions, objects, stats = [], [], [], []
    for f in files:
        for _ in range(rng.randrange(0, 4)):
            records.append(VfdIoRecord(
                task=rng.choice((task, None)), file=f,
                op=rng.choice(("read", "write")),
                offset=rng.choice((0, 4096, (1 << 64) + 13)),
                nbytes=rng.choice((0, 1, 4096)),
                start=rng.choice((0.0, 1.25, 1e-9)),
                duration=rng.choice((0.0, 1e-9, 0.5)),
                access_type=rng.choice((IoClass.RAW, IoClass.METADATA)),
                data_object=rng.choice(_DS_POOL),
            ))
        if rng.random() < 0.8:
            open_t = rng.choice((0.0, 1.0))
            sessions.append(FileSession(
                task=task, file=f, open_time=open_t,
                # zero-length and still-open sessions both legal
                close_time=rng.choice((None, open_t, open_t + 2.5)),
                read_ops=rng.randrange(0, 3),
                write_ops=rng.randrange(0, 3),
                read_bytes=rng.randrange(0, 1 << 12),
                write_bytes=rng.randrange(0, 1 << 12),
                sequential_ops=rng.randrange(0, 3),
                sequential_raw_ops=rng.randrange(0, 3),
                metadata_ops=rng.randrange(0, 3),
                raw_ops=rng.randrange(0, 3),
                data_objects=[d for d in _DS_POOL[:rng.randrange(0, 3)]
                              if d is not None],
            ))
        if rng.random() < 0.8:
            objects.append(DataObjectProfile(
                task=rng.choice((task, None)), file=f,
                object_name=rng.choice(_DS_POOL) or "/empty",
                acquired=0.5, released=rng.choice((None, 3.0)),
                open_count=rng.randrange(0, 3),
                shape=rng.choice(((), (64,), (64, 128), (1 << 40,))),
                dtype=rng.choice(_DTYPES),
                layout=rng.choice(_LAYOUTS),
                nbytes=rng.choice((0, 8192, (1 << 64) + 1)),
                reads=rng.randrange(0, 3),
                writes=rng.randrange(0, 3),
                elements_read=rng.randrange(0, 1 << 14),
                elements_written=rng.randrange(0, 1 << 14),
            ))
        for _ in range(rng.randrange(0, 3)):
            stats.append(_rand_stats(rng, task, f))
    start = float(idx)
    return TaskProfile(
        task=task,
        span=TimeSpan(start, start + rng.choice((0.0, 1.0, 9.75))),
        files=files,
        object_profiles=objects,
        file_sessions=sessions,
        io_records=records,
        dataset_stats=stats,
    )


def assert_profiles_equal(a: TaskProfile, b: TaskProfile) -> None:
    assert a.to_json_dict() == b.to_json_dict()
    assert a.io_records == b.io_records
    assert a.object_profiles == b.object_profiles
    # DatasetIoStats.__eq__ skips the run list (compare=False) — check it.
    for sa, sb in zip(a.dataset_stats, b.dataset_stats):
        assert sa.region_runs() == sb.region_runs()
        assert sa.regions == sb.regions


class TestFuzzRoundTrip:
    @pytest.mark.parametrize("seed", range(8))
    def test_single_profile(self, seed):
        rng = random.Random(seed)
        for idx in range(6):
            p = random_profile(rng, idx)
            q = decode_columnar(encode_columnar(p))
            assert_profiles_equal(p, q)

    @pytest.mark.parametrize("seed", (101, 202, 303))
    def test_run_of_many(self, seed):
        rng = random.Random(seed)
        profiles = [random_profile(rng, i) for i in range(10)]
        back = decode_run(encode_run(profiles))
        assert len(back) == len(profiles)
        for p, q in zip(profiles, back):
            assert_profiles_equal(p, q)

    def test_row_columnar_row_via_codec(self):
        # row binary -> columnar -> row binary is byte-identical
        p = make_profile()
        q = decode_columnar(encode_columnar(p))
        assert codec.encode_profile(q) == codec.encode_profile(p)

    def test_handbuilt_profile(self):
        p = make_profile()
        assert_profiles_equal(p, decode_columnar(encode_columnar(p)))

    def test_none_task_profile(self):
        # The row codec round-trips a None task as None; parity demands
        # the columnar codec does too.
        p = TaskProfile(task=None, span=TimeSpan(0.0, 1.0), files=[],
                        object_profiles=[], file_sessions=[], io_records=[],
                        dataset_stats=[])
        q = decode_columnar(encode_columnar(p))
        assert q.task is None
        assert codec.decode_profile(codec.encode_profile(p)).task is None

    def test_empty_profile_and_empty_run(self):
        p = TaskProfile(task="empty", span=TimeSpan(0.0, 0.0), files=[],
                        object_profiles=[], file_sessions=[], io_records=[],
                        dataset_stats=[])
        assert_profiles_equal(p, decode_columnar(encode_columnar(p)))
        assert decode_run(encode_run([])) == []

    def test_records_skipped(self):
        p = make_profile()
        q = decode_columnar(encode_columnar(p), with_io_records=False)
        assert q.io_records == []
        want, got = p.to_json_dict(), q.to_json_dict()
        want.pop("io_records")
        got.pop("io_records")
        assert want == got

    def test_decode_columnar_rejects_multi_group(self):
        p, q = make_profile("t0"), make_profile("t1")
        with pytest.raises(ValueError):
            decode_columnar(encode_run([p, q]))

    def test_corrupt_rejected(self):
        blob = encode_columnar(make_profile())
        with pytest.raises(ValueError):
            RunReader.from_bytes(b"XXXX" + blob[4:])
        with pytest.raises(ValueError):
            RunReader.from_bytes(blob[:-20] + b"\x00" * 16 + COLUMNAR_MAGIC)


class TestCorruptChunks:
    """Corrupt chunks and footers fail with the typed ``ValueError``."""

    def _group(self, blob):
        return RunReader.from_bytes(bytes(blob)).groups[0]

    def test_bad_fixed_width(self):
        blob = bytearray(encode_columnar(make_profile()))
        meta = self._group(blob)._meta.families["objprofs"][1][
            columnar._COLUMN_INDEX["objprofs"]["open_count"]]
        assert meta.enc == columnar._ENC_FIXED
        blob[meta.offset] = 3  # widths are 1/2/4/8
        with pytest.raises(ValueError, match="corrupt columnar trace"):
            self._group(blob).column("objprofs", "open_count")
        with pytest.raises(ValueError, match="corrupt columnar trace"):
            decode_run(bytes(blob))

    def test_presence_bitmap_overclaims(self):
        # Eight rows flagged present, one value stored.
        buf = b"\xff" + struct.pack("<d", 1.5)
        with pytest.raises(ValueError, match="corrupt columnar trace"):
            columnar._decode_optf64(buf, 8)
        assert columnar._decode_optf64(b"\x01" + buf[1:], 8) == \
            [1.5] + [None] * 7

    def test_unknown_stat_kind(self):
        blob = bytearray(encode_columnar(make_profile()))
        # The footer ends with the stat byte of the last column chunk.
        assert blob[-13] == columnar._STAT_NONE
        blob[-13] = 9
        with pytest.raises(ValueError, match="corrupt columnar trace"):
            RunReader.from_bytes(bytes(blob))

    @pytest.mark.parametrize("entry,size", [
        (b"\x00", 1),
        (b"\x01\x03\x04\x80\x01", 5),       # int: min, max, sum
        (b"\x02" + b"\x00" * 24, 25),            # float: min, max, sum
        (b"\x03\x02" + b"\x00" * 24, 26),        # optfloat: n + 3 f64
        (b"\x04\x02\x01\x90\x01", 5),          # distinct ids
        (b"\x05", 1),                           # distinct overflow
    ])
    def test_stat_entries_skipped(self, entry, size):
        assert columnar._skip_stats(entry + b"\xee", 0) == size


class TestShortChunks:
    """A chunk shorter than its footer count, or a count that disagrees
    with the row count, is rejected rather than decoded short (``zip``
    would silently drop rows)."""

    @staticmethod
    def _group(profile):
        return RunReader.from_bytes(encode_columnar(profile)).groups[0]

    @pytest.mark.parametrize("family,name,enc", [
        ("records", "flags", columnar._ENC_BYTES),
        ("stats", "first_raw_op", columnar._ENC_BYTES),
        ("records", "offset", columnar._ENC_DELTA),
        ("records", "nbytes", columnar._ENC_FIXED),
        ("records", "start", columnar._ENC_F64),
        ("stats", "first_start", columnar._ENC_OPTF64),
    ])
    def test_short_chunk_rejected(self, family, name, enc):
        group = self._group(make_profile())
        meta = group.column_meta(family, name)
        assert meta.enc == enc
        meta.length -= 1
        with pytest.raises(ValueError, match="corrupt columnar trace"):
            group.to_profile()

    def test_short_varint_chunk_rejected(self):
        p = make_profile()
        p.dataset_stats[0].bytes_read = (1 << 64) + 7
        group = self._group(p)
        meta = group.column_meta("stats", "bytes_read")
        assert meta.enc == columnar._ENC_VARINT
        meta.length -= 1
        with pytest.raises(ValueError, match="corrupt columnar trace"):
            group.to_profile()

    def test_column_count_must_match_rows(self):
        group = self._group(make_profile())
        meta = group.column_meta("records", "flags")
        meta.count -= 1
        meta.length -= 1
        with pytest.raises(ValueError, match="for 3 row"):
            group.to_profile()

    def test_flat_column_must_match_row_lengths(self):
        group = self._group(make_profile())
        meta = group.column_meta("objprofs", "shape")
        meta.count -= 1
        with pytest.raises(ValueError, match="corrupt columnar trace"):
            group.to_profile()

    def test_unknown_first_raw_op_code(self):
        blob = bytearray(encode_columnar(make_profile()))
        meta = self._group(make_profile()).column_meta("stats",
                                                       "first_raw_op")
        assert blob[meta.offset] == 1  # "read"
        blob[meta.offset] = 7
        with pytest.raises(ValueError, match="first_raw_op code 7"):
            decode_columnar(bytes(blob))

    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_mutations(self, seed):
        rng = random.Random(seed)
        blob = encode_columnar(make_profile())
        for _ in range(300):
            damaged = bytearray(blob)
            damaged[rng.randrange(len(damaged))] ^= 1 << rng.randrange(8)
            if rng.random() < 0.3:
                del damaged[rng.randrange(len(damaged)):]
            try:
                decode_columnar(bytes(damaged))
            except ValueError:
                pass


#: ``ddmd --scale 0.05`` compacted by a writer that stored page statistics
#: in every footer entry (INT, FLOAT, OPTFLOAT and DISTINCT kinds).
PAGESTAT_RUN = Path(__file__).parent / "data" / "ddmd-dyc1-pagestats"


class TestPageStatFiles:
    @pytest.fixture(scope="class")
    def row_traces(self, tmp_path_factory):
        from repro.cli import run_main

        out = tmp_path_factory.mktemp("ddmd-rows")
        assert run_main(["ddmd", "--out", str(out), "--scale", "0.05"]) == 0
        return out

    def test_loads_to_identical_profiles(self, row_traces):
        analyzer = ParallelAnalyzer(max_workers=1, with_io_records=True)
        row = analyzer.load(str(row_traces))
        col = analyzer.load(str(PAGESTAT_RUN))
        assert [p.task for p in col] == [p.task for p in row]
        for a, b in zip(row, col):
            assert_profiles_equal(a, b)

    def test_lints_identically(self, row_traces):
        analyzer = ParallelAnalyzer(max_workers=1, with_io_records=True)
        config = LintConfig(enable=("DY*",))
        row = analyzer.lint(analyzer.load(str(row_traces)), config)
        col = analyzer.lint(analyzer.load(str(PAGESTAT_RUN)), config)
        assert row.to_json() == col.to_json()

    def test_rewrite_drops_page_stats(self, tmp_path):
        with RunReader.open(str(PAGESTAT_RUN / "run.dayuc")) as reader:
            profiles = reader.profiles()
        compact_profiles(profiles, tmp_path / "run.dayuc")
        old = (PAGESTAT_RUN / "run.dayuc").stat().st_size
        assert (tmp_path / "run.dayuc").stat().st_size < old
        for a, b in zip(profiles, decode_run(
                (tmp_path / "run.dayuc").read_bytes())):
            assert_profiles_equal(a, b)


class TestBulkGraphs:
    @pytest.mark.parametrize("seed", (7, 77))
    def test_byte_identical_graphs(self, seed):
        rng = random.Random(seed)
        profiles = [random_profile(rng, i) for i in range(12)]
        reader = RunReader.from_bytes(encode_run(profiles))
        groups = list(reader)
        assert graph_to_json(build_graph_from_groups("ftg", groups)) == \
            graph_to_json(build_ftg(profiles))
        assert graph_to_json(build_graph_from_groups("sdg", groups)) == \
            graph_to_json(build_sdg(profiles))

    def test_byte_identical_sdg_with_regions(self):
        profiles = [make_profile("t0"), make_profile("t1")]
        reader = RunReader.from_bytes(encode_run(profiles))
        assert graph_to_json(
            build_graph_from_groups("sdg", list(reader), with_regions=True)
        ) == graph_to_json(build_sdg(profiles, with_regions=True))

    def test_groups_sorted_by_start(self):
        early = make_profile("late_name_early_start")
        early.span = TimeSpan(0.0, 1.0)
        late = make_profile("a_early_name_late_start")
        late.span = TimeSpan(5.0, 6.0)
        reader = RunReader.from_bytes(encode_run([late, early]))
        g = build_graph_from_groups("ftg", list(reader))
        serial = build_ftg([early, late])
        assert graph_to_json(g) == graph_to_json(serial)


class TestPushdownLint:
    """Row ≡ columnar lint: a compacted run directory, loaded and linted
    like any other trace directory, reports exactly what the per-task
    profiles it was compacted from report."""

    def _row_and_columnar_reports(self, profiles, tmp_path, **kw):
        analyzer = ParallelAnalyzer(max_workers=1, **kw)
        row = analyzer.lint(profiles)
        compact_profiles(profiles, tmp_path / "run.dayuc")
        loaded = analyzer.load(str(tmp_path))
        assert len(loaded) == len(profiles)
        return row, analyzer.lint(loaded)

    def test_parity_on_handbuilt(self, tmp_path):
        profiles = [make_profile("t0"), make_profile("t1")]
        row, col = self._row_and_columnar_reports(
            profiles, tmp_path, with_io_records=True)
        assert row.to_json() == col.to_json()

    @pytest.mark.parametrize("seed", (5, 55))
    def test_parity_on_fuzzed(self, seed, tmp_path):
        rng = random.Random(seed)
        profiles = [random_profile(rng, i) for i in range(10)]
        row, col = self._row_and_columnar_reports(
            profiles, tmp_path, with_io_records=True)
        assert row.to_json() == col.to_json()


class TestSniffingAndLoading:
    def test_sniff(self):
        p = make_profile()
        assert sniff_trace_format(codec.encode_profile(p)) == "binary"
        assert sniff_trace_format(encode_columnar(p)) == "columnar"
        assert sniff_trace_format(p.serialize()) == "json"

    def test_mixed_directory_auto(self, tmp_path):
        p0, p1, p2 = (make_profile(f"t{i}") for i in range(3))
        (tmp_path / "a.json").write_bytes(p0.serialize())
        (tmp_path / "b.dayu").write_bytes(codec.encode_profile(p1))
        (tmp_path / "c.dayuc").write_bytes(encode_columnar(p2))
        analyzer = ParallelAnalyzer(max_workers=1, with_io_records=True)
        profiles = analyzer.load(str(tmp_path))
        assert sorted(p.task for p in profiles) == ["t0", "t1", "t2"]

    def test_trace_format_filter(self, tmp_path):
        p0, p1 = make_profile("t0"), make_profile("t1")
        (tmp_path / "a.json").write_bytes(p0.serialize())
        (tmp_path / "c.dayuc").write_bytes(encode_columnar(p1))
        only = trace_paths(str(tmp_path), trace_format="columnar")
        assert [p.endswith(".dayuc") for p in map(str, only)] == [True]
        with pytest.raises(ValueError):
            trace_paths(str(tmp_path), trace_format="parquet")

    def test_load_profiles_path_expands_runs(self, tmp_path):
        profiles = [make_profile("t0"), make_profile("t1")]
        run = tmp_path / "run.dayuc"
        compact_profiles(profiles, run)
        loaded = load_profiles_path(str(run))
        assert [p.task for p in loaded] == ["t0", "t1"]


class TestCompaction:
    def test_compact_sorts_and_round_trips(self, tmp_path):
        late = make_profile("zz_late")
        late.span = TimeSpan(5.0, 6.0)
        early = make_profile("aa_early")
        early.span = TimeSpan(1.0, 2.0)
        run = tmp_path / "run.dayuc"
        n = compact_profiles([late, early], run)
        assert n == run.stat().st_size
        with RunReader.open(str(run)) as reader:
            assert [g.task for g in reader] == ["aa_early", "zz_late"]

    def test_compact_cli(self, tmp_path, capsys):
        from repro.mapper.compact import compact_main

        rows = tmp_path / "rows"
        rows.mkdir()
        for i in range(3):
            p = make_profile(f"t{i}")
            p.span = TimeSpan(float(i), i + 1.0)
            (rows / f"t{i}.json").write_bytes(p.serialize())
        out = tmp_path / "run.dayuc"
        assert compact_main([str(rows), "--out", str(out)]) == 0
        assert "compacted 3 profile(s)" in capsys.readouterr().out
        with RunReader.open(str(out)) as reader:
            assert len(reader) == 3
            assert all(g.io_records() != [] for g in reader)

    def test_compact_cli_no_records(self, tmp_path):
        from repro.mapper.compact import compact_main

        rows = tmp_path / "rows"
        rows.mkdir()
        (rows / "t0.json").write_bytes(make_profile().serialize())
        out = tmp_path / "run.dayuc"
        assert compact_main([str(rows), "--out", str(out),
                             "--no-records"]) == 0
        with RunReader.open(str(out)) as reader:
            assert reader.groups[0].io_records() == []

    def test_compact_cli_empty_dir(self, tmp_path, capsys):
        from repro.mapper.compact import compact_main

        assert compact_main([str(tmp_path), "--out",
                             str(tmp_path / "x.dayuc")]) == 2
        assert "no saved profiles" in capsys.readouterr().err


class TestInlineJobs:
    def test_inline_property(self):
        assert ParallelAnalyzer(max_workers=1).inline
        assert not ParallelAnalyzer(max_workers=2).inline

    def test_jobs_1_never_spawns_a_pool(self, tmp_path, monkeypatch):
        import concurrent.futures

        def boom(*a, **kw):  # pragma: no cover - must not be reached
            raise AssertionError("--jobs 1 must not spawn a process pool")

        # parallel.py imports the executor at call time, so poisoning the
        # stdlib attribute catches any pool spawn on this code path.
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", boom)
        profiles = [make_profile(f"t{i}") for i in range(3)]
        for i, p in enumerate(profiles):
            p.span = TimeSpan(float(i), i + 1.0)
            (tmp_path / f"t{i}.json").write_bytes(p.serialize())
        analyzer = _PA(max_workers=1, with_io_records=True)
        loaded = analyzer.load(str(tmp_path))
        assert len(loaded) == 3
        assert graph_to_json(analyzer.build_ftg(loaded)) == \
            graph_to_json(build_ftg(loaded))
        analyzer.lint(loaded)


class TestCliParity:
    def test_analyze_graph_json_identical(self, tmp_path, capsys):
        from repro.cli import analyze_main

        rows = tmp_path / "rows"
        rows.mkdir()
        profiles = []
        for i in range(3):
            p = make_profile(f"t{i}")
            p.span = TimeSpan(float(i), i + 1.0)
            profiles.append(p)
            (rows / f"t{i}.json").write_bytes(p.serialize())
        colruns = tmp_path / "colruns"
        colruns.mkdir()
        compact_profiles(profiles, colruns / "run.dayuc")

        g_row, g_col = tmp_path / "g_row", tmp_path / "g_col"
        assert analyze_main([str(rows), "--out", str(g_row),
                             "--graph-json", "--lint"]) == 0
        assert analyze_main([str(colruns), "--out", str(g_col),
                             "--graph-json", "--lint"]) == 0
        capsys.readouterr()
        for name in ("ftg.json", "sdg.json", "lint.json"):
            assert (g_row / name).read_bytes() == (g_col / name).read_bytes()
            json.loads((g_row / name).read_text())
