"""``analyze-1k``: the Workflow Analyzer at the paper's Section VII-B scale.

Set-up builds a seeded synthetic trace set from the public profile
dataclasses: 150 tasks over 850 two-dataset files, each task writing its
own files and reading 27 files that earlier tasks produced, with
per-operation VFD records (1k FTG nodes, about 4.8k FTG edges, 2.7k SDG
nodes).  The seed picks which files each task reads, so it changes the
dataflow graph but barely the trace size.  It is
written in every trace format plus one compacted run.  The first worker
process of a run analyzes all four and requires the same graphs and
findings from each; every iteration then writes the set in the
``dayu-run`` default format and analyzes that directory as
``dayu-analyze --lint`` does.
"""

from __future__ import annotations

import random
import shutil
import time
from pathlib import Path
from typing import Dict, List, Tuple

from common import analyze_defaults, analyze_dirs, cli_defaults, digest, \
    dir_bytes

N_TASKS = 150
N_FILES = 850
DATASETS = ("/fields/u", "/fields/v")
READS_PER_TASK = 27
PAGE = 4096
FORMATS = ("json", "binary", "columnar")


def synthetic_profiles(seed: int):
    """Deterministic task profiles for ``seed``."""
    from repro.mapper.mapper import TaskProfile
    from repro.mapper.stats import map_characteristics
    from repro.simclock import TimeSpan
    from repro.vfd.base import IoClass
    from repro.vfd.tracing import FileSession, VfdIoRecord
    from repro.vol.tracer import DataObjectProfile

    rng = random.Random(seed)
    path = [f"/beegfs/synth/f{i:04d}.h5" for i in range(N_FILES)]
    produced: Dict[int, List[int]] = {}
    for f in range(N_FILES):
        produced.setdefault(f * N_TASKS // N_FILES, []).append(f)
    elems = [(1024, 4096, 16384)[f % 3] for f in range(N_FILES)]

    profiles = []
    for t in range(N_TASKS):
        task = f"task_{t:03d}"
        start = float(t)
        earlier = [f for u in range(t) for f in produced.get(u, ())]
        n_reads = min(len(earlier), READS_PER_TASK)
        touched = ([(f, "write") for f in produced.get(t, ())]
                   + [(f, "read") for f in sorted(rng.sample(earlier,
                                                             n_reads))])
        clock = start
        records: List[VfdIoRecord] = []
        sessions: List[FileSession] = []
        objects: List[DataObjectProfile] = []
        for f, op in touched:
            session = FileSession(task=task, file=path[f], open_time=clock)
            for d, name in enumerate(DATASETS):
                nbytes = elems[f] * 4
                ops = 1 + (f + d) % 2
                acquired = clock
                per_op = max(nbytes // ops // PAGE, 1) * PAGE
                offset = PAGE * (2 + d * (nbytes // PAGE))
                batch = [VfdIoRecord(task=task, file=path[f], op=op,
                                     offset=512 * d,
                                     nbytes=512, start=clock, duration=2e-5,
                                     access_type=IoClass.METADATA,
                                     data_object=name)]
                for i in range(ops):
                    clock += 1e-4
                    batch.append(VfdIoRecord(
                        task=task, file=path[f], op=op,
                        offset=offset + i * per_op, nbytes=per_op,
                        start=clock, duration=per_op / 1e9,
                        access_type=IoClass.RAW, data_object=name))
                for record in batch:
                    session.observe(record)
                records.extend(batch)
                clock += 1e-4
                moved = ops * per_op // 4
                objects.append(DataObjectProfile(
                    task=task, file=path[f], object_name=name,
                    acquired=acquired, released=clock, open_count=1,
                    shape=(elems[f],), dtype="float32", layout="contiguous",
                    nbytes=nbytes,
                    reads=ops if op == "read" else 0,
                    writes=ops if op == "write" else 0,
                    elements_read=moved if op == "read" else 0,
                    elements_written=moved if op == "write" else 0))
            session.close_time = clock
            sessions.append(session)
        profiles.append(TaskProfile(
            task=task, span=TimeSpan(start, max(clock, start + 0.5)),
            files=sorted({path[f] for f, _ in touched}),
            object_profiles=objects, file_sessions=sessions,
            io_records=records,
            dataset_stats=map_characteristics(records, PAGE)))
    return profiles


class Analyze1k:
    analyze_passes = 1

    def __init__(self, work: Path) -> None:
        self.work = work

    def setup(self, seed: int) -> None:
        from repro.cli import run_main
        from repro.mapper.columnar import compact_profiles
        from repro.mapper.mapper import DataSemanticMapper
        from repro.simclock import SimClock

        self.trace_format = cli_defaults(run_main, ["ddmd"])["trace_format"]
        self.analyze_opts = analyze_defaults()
        self.mapper = DataSemanticMapper(SimClock())
        profiles = synthetic_profiles(seed)
        self.mapper.profiles = {p.task: p for p in profiles}
        self.dirs = {fmt: self.work / fmt for fmt in FORMATS}
        for fmt, directory in self.dirs.items():
            self.mapper.save_to_host_dir(str(directory), trace_format=fmt)
        self.dirs["compact"] = self.work / "compact"
        self.dirs["compact"].mkdir(parents=True)
        compact_profiles(profiles, str(self.dirs["compact"] / "run.dayuc"))

    def cross_format(self, reference: str) -> Tuple[Dict[str, float],
                                                    List[str]]:
        """Analyze every format; returns load seconds per format
        (``mapper.load_s.<format>``) and the formats whose outputs do not
        digest to ``reference``, the default format's."""
        from spans import Recorder

        load_s, bad = {}, []
        for fmt, directory in self.dirs.items():
            rec = Recorder(keep_spans=0)
            _, outputs, _ = analyze_dirs([directory], self.analyze_opts, rec)
            load_s[f"mapper.load_s.{fmt}"] = rec.take()[0]["mapper.load"]
            if digest(*(blob for _, blob in outputs)) != reference:
                bad.append(fmt)
        return load_s, bad

    def capture(self, rec) -> Dict[str, object]:
        out = self.work / "iteration"
        if out.exists():
            shutil.rmtree(out)
        started = time.perf_counter()
        with rec.span("mapper.write"):
            self.mapper.save_to_host_dir(str(out),
                                         trace_format=self.trace_format)
        return {"capture": time.perf_counter() - started, "run": 0.0,
                "sim_makespan": 0.0, "sim_work": 0.0,
                "trace_bytes": dir_bytes(out),
                "dirs": [out], "failures": 0, "counts": {}, "model": {}}
