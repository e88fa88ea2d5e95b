"""Unit tests for the Data Flow Diagnostics detectors and report."""

import json

import numpy as np
import pytest

from repro.diagnostics import (
    InsightKind,
    detect_data_reuse,
    detect_data_scattering,
    detect_disposable_data,
    detect_metadata_overhead,
    detect_partial_file_access,
    detect_readonly_sequential,
    detect_task_independence,
    detect_time_dependent_inputs,
    detect_vlen_layout,
    diagnose,
)
from repro.mapper import DaYuConfig, DataSemanticMapper
from repro.posix import SimFS
from repro.simclock import SimClock
from repro.storage import Mount, make_device


def make_env():
    clock = SimClock()
    fs = SimFS(clock, mounts=[Mount("/", make_device("nvme"))])
    return clock, fs, DataSemanticMapper(clock, DaYuConfig())


class TestDataReuse:
    def test_multi_consumer_file_flagged(self):
        clock, fs, mapper = make_env()
        with mapper.task("producer") as ctx:
            f = ctx.open(fs, "/d.h5", "w")
            f.create_dataset("x", shape=(10,), data=np.zeros(10))
            f.close()
        for name in ("c1", "c2", "c3"):
            with mapper.task(name) as ctx:
                f = ctx.open(fs, "/d.h5", "r")
                f["x"].read()
                f.close()
        insights = detect_data_reuse(list(mapper.profiles.values()))
        reuse = [i for i in insights if i.kind == InsightKind.DATA_REUSE]
        assert len(reuse) == 1
        assert reuse[0].subject == "/d.h5"
        assert reuse[0].evidence["consumers"] == 3
        assert reuse[0].guideline == "customized_caching"

    def test_write_after_read_flagged(self):
        clock, fs, mapper = make_env()
        with mapper.task("seed") as ctx:
            f = ctx.open(fs, "/d.h5", "w")
            f.create_dataset("x", shape=(10,), data=np.zeros(10))
            f.close()
        with mapper.task("war") as ctx:
            f = ctx.open(fs, "/d.h5", "r+")
            v = f["x"].read()
            f["x"].write(v + 1)
            f.close()
        insights = detect_data_reuse(list(mapper.profiles.values()))
        war = [i for i in insights if i.kind == InsightKind.WRITE_AFTER_READ]
        assert any(i.tasks == ["war"] for i in war)

    def test_read_after_write_flagged(self):
        clock, fs, mapper = make_env()
        with mapper.task("writer") as ctx:
            f = ctx.open(fs, "/e.h5", "w")
            f.create_dataset("x", shape=(4,), data=np.zeros(4))
            f.close()
        with mapper.task("reader") as ctx:
            f = ctx.open(fs, "/e.h5", "r")
            f["x"].read()
            f.close()
        insights = detect_data_reuse(list(mapper.profiles.values()))
        raw = [i for i in insights if i.kind == InsightKind.READ_AFTER_WRITE]
        assert raw and raw[0].evidence["producer"] == "writer"

    def test_single_consumer_not_reuse(self):
        clock, fs, mapper = make_env()
        with mapper.task("p") as ctx:
            f = ctx.open(fs, "/d.h5", "w")
            f.create_dataset("x", shape=(4,), data=np.zeros(4))
            f.close()
        with mapper.task("c") as ctx:
            f = ctx.open(fs, "/d.h5", "r")
            f["x"].read()
            f.close()
        reuse = [i for i in detect_data_reuse(list(mapper.profiles.values()))
                 if i.kind == InsightKind.DATA_REUSE]
        assert reuse == []


class TestTimeDependentInputs:
    def test_late_input_flagged(self):
        clock, fs, mapper = make_env()
        # External input files created outside any task.
        for path in ("/early.h5", "/late.h5"):
            from repro.hdf5 import H5File
            with H5File(fs, path, "w") as f:
                f.create_dataset("x", shape=(1000,), data=np.zeros(1000))
        with mapper.task("t1") as ctx:
            f = ctx.open(fs, "/early.h5", "r")
            f["x"].read()
            f.close()
            clock.advance(100.0)  # long compute phase
        with mapper.task("t2") as ctx:
            f = ctx.open(fs, "/late.h5", "r")
            f["x"].read()
            f.close()
        insights = detect_time_dependent_inputs(list(mapper.profiles.values()))
        subjects = {i.subject for i in insights}
        assert "/late.h5" in subjects
        assert "/early.h5" not in subjects

    def test_produced_files_not_flagged(self):
        clock, fs, mapper = make_env()
        with mapper.task("t1") as ctx:
            f = ctx.open(fs, "/made.h5", "w")
            f.create_dataset("x", shape=(4,), data=np.zeros(4))
            f.close()
            clock.advance(100.0)
        with mapper.task("t2") as ctx:
            f = ctx.open(fs, "/made.h5", "r")
            f["x"].read()
            f.close()
        assert detect_time_dependent_inputs(list(mapper.profiles.values())) == []

    def test_empty_profiles(self):
        assert detect_time_dependent_inputs([]) == []


class TestDisposableData:
    def test_single_use_output_flagged(self):
        clock, fs, mapper = make_env()
        with mapper.task("t1") as ctx:
            f = ctx.open(fs, "/tmp.h5", "w")
            f.create_dataset("x", shape=(4,), data=np.zeros(4))
            f.close()
        with mapper.task("t2") as ctx:
            f = ctx.open(fs, "/tmp.h5", "r")
            f["x"].read()
            f.close()
            g = ctx.open(fs, "/final.h5", "w")
            g.create_dataset("y", shape=(4,), data=np.zeros(4))
            g.close()
        with mapper.task("t3") as ctx:
            f = ctx.open(fs, "/final.h5", "r")
            f["y"].read()
            f.close()
        insights = detect_disposable_data(list(mapper.profiles.values()))
        subjects = {i.subject for i in insights}
        assert "/tmp.h5" in subjects  # idle while t3 runs
        assert "/final.h5" not in subjects  # used by the last task


class TestDataScattering:
    def test_many_small_datasets_flagged(self):
        clock, fs, mapper = make_env()
        with mapper.task("writer") as ctx:
            f = ctx.open(fs, "/scatter.h5", "w")
            for i in range(32):
                f.create_dataset(f"s{i}", shape=(10,), dtype="i4",
                                 data=np.zeros(10, "i4"))  # 40 B each
            f.close()
        insights = detect_data_scattering(list(mapper.profiles.values()))
        assert len(insights) == 1
        assert insights[0].evidence["datasets"] == 32
        assert insights[0].guideline == "data_format_optimization"

    def test_vlen_datasets_exempt(self):
        """VL objects' inline footprint is just heap references; they must
        not read as 'tiny scattered datasets'."""
        clock, fs, mapper = make_env()
        with mapper.task("writer") as ctx:
            f = ctx.open(fs, "/vl.h5", "w")
            for i in range(16):
                f.create_dataset(f"v{i}", shape=(4,), dtype="vlen-bytes",
                                 data=[b"big" * 1000] * 4)
            f.close()
        assert detect_data_scattering(list(mapper.profiles.values())) == []

    def test_large_datasets_not_flagged(self):
        clock, fs, mapper = make_env()
        with mapper.task("writer") as ctx:
            f = ctx.open(fs, "/big.h5", "w")
            for i in range(10):
                f.create_dataset(f"b{i}", shape=(10_000,), dtype="f8",
                                 data=np.zeros(10_000))
            f.close()
        assert detect_data_scattering(list(mapper.profiles.values())) == []


class TestPartialFileAccess:
    def test_metadata_only_sibling_flagged(self):
        clock, fs, mapper = make_env()
        with mapper.task("prep") as ctx:
            f = ctx.open(fs, "/agg.h5", "w")
            f.create_dataset("contact_map", shape=(5000,), dtype="f8",
                             data=np.zeros(5000))
            f.create_dataset("rmsd", shape=(100,), dtype="f8",
                             data=np.zeros(100))
            f.close()
        with mapper.task("training") as ctx:
            f = ctx.open(fs, "/agg.h5", "r")
            # Opening the dataset reads only its header (metadata), not data.
            _ = f["contact_map"].shape
            f["rmsd"].read()
            f.close()
        profiles = [mapper.profiles["training"]]
        insights = detect_partial_file_access(profiles)
        assert any("contact_map" in i.subject for i in insights)
        assert all(i.guideline == "partial_file_access" for i in insights)


class TestMetadataOverhead:
    def test_small_chunked_dataset_flagged(self):
        clock, fs, mapper = make_env()
        with mapper.task("w") as ctx:
            f = ctx.open(fs, "/small.h5", "w")
            f.create_dataset("c", shape=(64,), dtype="f8",
                             layout="chunked", chunks=(8,),
                             data=np.zeros(64))
            f.close()
        insights = detect_metadata_overhead(list(mapper.profiles.values()))
        assert any("/c" in i.subject for i in insights)

    def test_contiguous_not_flagged(self):
        clock, fs, mapper = make_env()
        with mapper.task("w") as ctx:
            f = ctx.open(fs, "/c.h5", "w")
            f.create_dataset("d", shape=(64,), dtype="f8", data=np.zeros(64))
            f.close()
        assert detect_metadata_overhead(list(mapper.profiles.values())) == []


class TestReadonlySequential:
    def test_scanning_task_flagged(self):
        clock, fs, mapper = make_env()
        from repro.hdf5 import H5File
        for i in range(4):
            with H5File(fs, f"/sim{i}.h5", "w") as f:
                f.create_dataset("x", shape=(1000,), data=np.zeros(1000))
        with mapper.task("aggregate") as ctx:
            for i in range(4):
                f = ctx.open(fs, f"/sim{i}.h5", "r")
                f["x"].read()
                f.close()
        insights = detect_readonly_sequential(list(mapper.profiles.values()))
        assert len(insights) == 1
        assert insights[0].subject == "aggregate"
        assert insights[0].evidence["files"] == 4


class TestTaskIndependence:
    def test_independent_pair_flagged(self):
        clock, fs, mapper = make_env()
        with mapper.task("training") as ctx:
            f = ctx.open(fs, "/model.h5", "w")
            f.create_dataset("w", shape=(10,), data=np.zeros(10))
            f.close()
        with mapper.task("inference") as ctx:
            f = ctx.open(fs, "/results.h5", "w")
            f.create_dataset("out", shape=(10,), data=np.zeros(10))
            f.close()
        insights = detect_task_independence(list(mapper.profiles.values()))
        assert len(insights) == 1
        assert insights[0].tasks == ["training", "inference"]
        assert insights[0].guideline == "task_parallelization"

    def test_dependent_pair_not_flagged(self):
        clock, fs, mapper = make_env()
        with mapper.task("a") as ctx:
            f = ctx.open(fs, "/shared.h5", "w")
            f.create_dataset("x", shape=(4,), data=np.zeros(4))
            f.close()
        with mapper.task("b") as ctx:
            f = ctx.open(fs, "/shared.h5", "r")
            f["x"].read()
            f.close()
        assert detect_task_independence(list(mapper.profiles.values())) == []


class TestVlenLayout:
    def test_contiguous_vlen_flagged(self):
        clock, fs, mapper = make_env()
        with mapper.task("save") as ctx:
            f = ctx.open(fs, "/arldm.h5", "w")
            f.create_dataset("image0", shape=(10,), dtype="vlen-bytes",
                             data=[b"img" * (i + 1) for i in range(10)])
            f.close()
        insights = detect_vlen_layout(list(mapper.profiles.values()))
        assert len(insights) == 1
        assert "image0" in insights[0].subject

    def test_chunked_vlen_not_flagged(self):
        clock, fs, mapper = make_env()
        with mapper.task("save") as ctx:
            f = ctx.open(fs, "/arldm.h5", "w")
            f.create_dataset("image0", shape=(10,), dtype="vlen-bytes",
                             layout="chunked", chunks=(5,),
                             data=[b"img"] * 10)
            f.close()
        assert detect_vlen_layout(list(mapper.profiles.values())) == []


class TestDiagnoseReport:
    def _workflow(self):
        clock, fs, mapper = make_env()
        with mapper.task("producer") as ctx:
            f = ctx.open(fs, "/scatter.h5", "w")
            for i in range(16):
                f.create_dataset(f"s{i}", shape=(8,), dtype="i4",
                                 data=np.zeros(8, "i4"))
            f.close()
        for name in ("c1", "c2"):
            with mapper.task(name) as ctx:
                f = ctx.open(fs, "/scatter.h5", "r")
                f["s0"].read()
                f.close()
        return list(mapper.profiles.values())

    def test_diagnose_runs_all_detectors(self):
        report = diagnose(self._workflow())
        kinds = {i.kind for i in report.insights}
        assert InsightKind.DATA_REUSE in kinds
        assert InsightKind.DATA_SCATTERING in kinds

    def test_threshold_routing(self):
        # Tighten scattering threshold until it stops firing.
        report = diagnose(self._workflow(), min_datasets=100)
        assert report.by_kind(InsightKind.DATA_SCATTERING) == []

    def test_unknown_threshold_rejected(self):
        with pytest.raises(TypeError, match="unknown diagnose"):
            diagnose([], bogus_threshold=1)

    def test_summary_and_json(self):
        report = diagnose(self._workflow())
        text = report.summary()
        assert "guideline:" in text
        parsed = json.loads(report.to_json())
        assert len(parsed) == len(report)

    def test_empty_summary(self):
        assert "No dataflow issues" in diagnose([]).summary()

    def test_by_guideline_groups(self):
        groups = diagnose(self._workflow()).by_guideline()
        assert "customized_caching" in groups
        assert all(i.guideline == g for g, items in groups.items() for i in items)


_DIAGNOSE_SCRIPT = """
import json, sys
from repro.diagnostics import diagnose
from repro.guidelines import recommend
from repro.mapper.persist import load_profiles_from_host_dir

report = diagnose(load_profiles_from_host_dir(sys.argv[1]))
print(report.to_json())
print(json.dumps([r.to_json_dict() for r in recommend(report.insights)]))
"""


def test_insight_order_independent_of_hash_seed(tmp_path):
    """``insights.json`` and ``recommend()`` output must not depend on
    string hashing: two interpreters with different ``PYTHONHASHSEED``
    produce the same bytes from the same ddmd traces."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    from repro.cli import run_main

    traces = tmp_path / "traces"
    assert run_main(["ddmd", "--out", str(traces), "--scale", "0.2"]) == 0
    src = Path(__file__).resolve().parent.parent / "src"
    outputs = []
    for seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(
                       [str(src), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-c", _DIAGNOSE_SCRIPT, str(traces)],
            capture_output=True, env=env)
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(proc.stdout)
    assert b"read_after_write" in outputs[0]
    assert b"disposable_data" in outputs[0]
    assert outputs[0] == outputs[1] == outputs[2]
