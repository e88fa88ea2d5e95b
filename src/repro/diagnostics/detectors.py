"""Diagnostic detectors over task profiles and workflow graphs.

Each detector reproduces one class of observation from the paper's case
studies:

- **data reuse** (PyFLEXTRKR: stage-1 output feeding stages 2/3/4/6/8;
  DDMD: training re-reading embedding files) → customized caching;
- **write-after-read / read-after-write** intra-workflow patterns;
- **time-dependent inputs** (PyFLEXTRKR: stage-6 inputs only needed
  mid-workflow) → customized prefetching;
- **disposable data** (outputs with a single consumer) → stage-out;
- **data scattering** (PyFLEXTRKR stage-9: many sub-500-byte datasets per
  file) → consolidation;
- **partial file access** (DDMD: training never reads contact_map's data,
  only its metadata) → selective access;
- **metadata overhead** (DDMD: chunked layout on small datasets) →
  contiguous conversion;
- **read-only sequential access** (DDMD: aggregate/inference scanning all
  simulation outputs) → rolling stage-in;
- **task independence** (DDMD: training and inference share no data) →
  parallelization;
- **variable-length contiguous layouts** (ARLDM) → chunked conversion.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.diagnostics.insights import Insight, InsightKind
from repro.mapper.mapper import TaskProfile
from repro.mapper.stats import FILE_METADATA_OBJECT

__all__ = [
    "detect_data_reuse",
    "detect_time_dependent_inputs",
    "detect_disposable_data",
    "detect_data_scattering",
    "detect_partial_file_access",
    "detect_metadata_overhead",
    "detect_readonly_sequential",
    "detect_task_independence",
    "detect_vlen_layout",
]


def _readers_writers(
    profiles: Sequence[TaskProfile],
) -> Tuple[Dict[str, List[str]], Dict[str, List[str]]]:
    """Per file: ordered reader task list and writer task list."""
    readers: Dict[str, List[str]] = defaultdict(list)
    writers: Dict[str, List[str]] = defaultdict(list)
    for p in profiles:
        for s in p.dataset_stats:
            if s.reads and p.task not in readers[s.file]:
                readers[s.file].append(p.task)
            if s.writes and p.task not in writers[s.file]:
                writers[s.file].append(p.task)
    return readers, writers


def detect_data_reuse(
    profiles: Sequence[TaskProfile], min_consumers: int = 2
) -> List[Insight]:
    """Files consumed by multiple tasks, plus WAR/RAW access patterns."""
    insights: List[Insight] = []
    readers, writers = _readers_writers(profiles)
    for file, consumer_tasks in readers.items():
        if len(consumer_tasks) >= min_consumers:
            insights.append(
                Insight(
                    kind=InsightKind.DATA_REUSE,
                    subject=file,
                    tasks=list(consumer_tasks),
                    evidence={"consumers": len(consumer_tasks)},
                    description=(
                        f"{file} is read by {len(consumer_tasks)} tasks; "
                        "keep it in the fastest storage tier"
                    ),
                )
            )
    # Intra-task read/write mixes: write-after-read (PyFLEXTRKR stage 3)
    # vs. read-after-write (DDMD's re-read of its own embedding files),
    # told apart by which raw operation touched the object first.
    for p in profiles:
        for s in p.dataset_stats:
            if s.operation == "read_write" and s.data_object != FILE_METADATA_OBJECT:
                if s.first_raw_op == "write":
                    kind = InsightKind.READ_AFTER_WRITE
                    pattern = "writes then re-reads"
                else:
                    kind = InsightKind.WRITE_AFTER_READ
                    pattern = "reads then writes"
                insights.append(
                    Insight(
                        kind=kind,
                        subject=f"{s.file}:{s.data_object}",
                        tasks=[p.task],
                        evidence={"reads": s.reads, "writes": s.writes,
                                  "first_raw_op": s.first_raw_op},
                        description=(
                            f"task {p.task} {pattern} {s.data_object} "
                            f"in {s.file}"
                        ),
                    )
                )
    # Read-after-write across tasks (DDMD embedding-file pattern).
    order = {p.task: i for i, p in enumerate(profiles)}
    for file in sorted(readers.keys() & writers.keys()):
        for w in writers[file]:
            later_readers = [r for r in readers[file] if order.get(r, -1) > order.get(w, -1)]
            if later_readers:
                insights.append(
                    Insight(
                        kind=InsightKind.READ_AFTER_WRITE,
                        subject=file,
                        tasks=[w] + later_readers,
                        evidence={"producer": w, "consumers": later_readers},
                        description=(
                            f"{file} written by {w} is read back by "
                            f"{', '.join(later_readers)}"
                        ),
                    )
                )
    return insights


def detect_time_dependent_inputs(
    profiles: Sequence[TaskProfile], late_fraction: float = 0.3
) -> List[Insight]:
    """External input files whose first access happens late in the run.

    Lateness is measured by *task position* (fraction of tasks already
    executed when the file is first read), which is robust to how much
    total time parallel stages accumulate on the raw clock.
    """
    if not profiles:
        return []
    order = {p.task: i for i, p in enumerate(profiles)}
    denom = max(len(profiles) - 1, 1)
    readers, writers = _readers_writers(profiles)
    insights = []
    for file, readers_of in readers.items():
        if file in writers:
            continue  # produced inside the workflow, not an external input
        first_reader = min(readers_of, key=lambda t: order.get(t, 0))
        lateness = order.get(first_reader, 0) / denom
        if lateness >= late_fraction:
            insights.append(
                Insight(
                    kind=InsightKind.TIME_DEPENDENT_INPUT,
                    subject=file,
                    tasks=list(readers_of),
                    evidence={"first_access_fraction": round(lateness, 3),
                              "first_reader": first_reader},
                    description=(
                        f"input {file} is first needed {lateness:.0%} into the "
                        "workflow; delay its prefetch until just before use"
                    ),
                )
            )
    return insights


def detect_disposable_data(profiles: Sequence[TaskProfile]) -> List[Insight]:
    """Data consumed by at most one downstream task — non-critical once
    processed, a stage-out candidate."""
    readers, writers = _readers_writers(profiles)
    order = {p.task: i for i, p in enumerate(profiles)}
    insights = []
    for file in sorted(readers.keys() | writers.keys()):
        consumers = readers.get(file, [])
        if len(consumers) > 1:
            continue
        last_use = max(
            (order[t] for t in consumers + writers.get(file, []) if t in order),
            default=-1,
        )
        remaining = len(profiles) - 1 - last_use
        if remaining > 0:
            insights.append(
                Insight(
                    kind=InsightKind.DISPOSABLE_DATA,
                    subject=file,
                    tasks=consumers,
                    evidence={"consumers": len(consumers),
                              "tasks_remaining_after_last_use": remaining},
                    description=(
                        f"{file} has {len(consumers)} consumer(s) and is idle for "
                        f"the final {remaining} task(s); stage it out to slower "
                        "storage to free space"
                    ),
                )
            )
    return insights


def detect_data_scattering(
    profiles: Sequence[TaskProfile],
    min_datasets: int = 8,
    max_avg_bytes: float = 500.0,
) -> List[Insight]:
    """Files holding many tiny datasets (the PyFLEXTRKR stage-9 bottleneck:
    'many small datasets (less than 500 bytes) within a file')."""
    per_file: Dict[str, List] = defaultdict(list)
    for p in profiles:
        for obj in p.object_profiles:
            # Variable-length objects are exempt: their inline footprint is
            # just heap references — the content lives elsewhere and its
            # size says nothing about scattering.
            if not obj.dtype.startswith("vlen"):
                per_file[obj.file].append(obj)
    insights = []
    for file, objs in per_file.items():
        sized = [o for o in objs if o.nbytes > 0]
        if len(sized) < min_datasets:
            continue
        avg = sum(o.nbytes for o in sized) / len(sized)
        if avg <= max_avg_bytes:
            tasks = sorted({o.task for o in sized if o.task})
            insights.append(
                Insight(
                    kind=InsightKind.DATA_SCATTERING,
                    subject=file,
                    tasks=tasks,
                    evidence={"datasets": len(sized), "avg_bytes": round(avg, 1)},
                    description=(
                        f"{file} holds {len(sized)} datasets averaging "
                        f"{avg:.0f} B; consolidate them into one large dataset "
                        "to cut metadata I/O"
                    ),
                )
            )
    return insights


def detect_partial_file_access(profiles: Sequence[TaskProfile]) -> List[Insight]:
    """Datasets whose *data* a task never touches while reading siblings —
    including the metadata-only pattern of DDMD's contact_map."""
    insights = []
    for p in profiles:
        per_file: Dict[str, List] = defaultdict(list)
        for s in p.dataset_stats:
            if s.data_object != FILE_METADATA_OBJECT:
                per_file[s.file].append(s)
        for file, rows in per_file.items():
            used = [s for s in rows if s.data_ops > 0]
            unused = [s for s in rows if s.data_ops == 0]
            if used and unused:
                for s in unused:
                    insights.append(
                        Insight(
                            kind=InsightKind.PARTIAL_FILE_ACCESS,
                            subject=f"{file}:{s.data_object}",
                            tasks=[p.task],
                            evidence={
                                "metadata_ops": s.metadata_ops,
                                "siblings_used": len(used),
                            },
                            description=(
                                f"task {p.task} touches only the metadata of "
                                f"{s.data_object} in {file} while using "
                                f"{len(used)} sibling dataset(s); skip moving "
                                "its data"
                            ),
                        )
                    )
    return insights


def detect_metadata_overhead(
    profiles: Sequence[TaskProfile],
    min_metadata_fraction: float = 0.3,
    small_bytes: int = 1 << 20,
) -> List[Insight]:
    """Chunked layouts on small datasets whose I/O is dominated by
    metadata (DDMD's inefficiency)."""
    insights = []
    seen: Set[Tuple[str, str]] = set()
    for p in profiles:
        stats_by_obj = {(s.file, s.data_object): s for s in p.dataset_stats}
        for obj in p.object_profiles:
            key = (obj.file, obj.object_name)
            if key in seen or obj.layout != "chunked" or obj.nbytes > small_bytes:
                continue
            s = stats_by_obj.get(key)
            if s is None or s.access_count == 0:
                continue
            frac = s.metadata_ops / s.access_count
            if frac >= min_metadata_fraction:
                seen.add(key)
                insights.append(
                    Insight(
                        kind=InsightKind.METADATA_OVERHEAD,
                        subject=f"{obj.file}:{obj.object_name}",
                        tasks=[p.task],
                        evidence={
                            "layout": obj.layout,
                            "nbytes": obj.nbytes,
                            "metadata_fraction": round(frac, 3),
                        },
                        description=(
                            f"{obj.object_name} ({obj.nbytes} B, chunked) spends "
                            f"{frac:.0%} of its operations on metadata; convert "
                            "to contiguous layout"
                        ),
                    )
                )
    return insights


def detect_readonly_sequential(
    profiles: Sequence[TaskProfile],
    min_sequential_fraction: float = 0.6,
    min_files: int = 2,
) -> List[Insight]:
    """Tasks that scan many files read-only and mostly sequentially —
    rolling stage-in candidates (DDMD aggregate/inference)."""
    insights = []
    for p in profiles:
        ro_files = []
        for session in p.file_sessions:
            if (
                session.write_ops == 0
                and session.read_ops > 0
                and session.raw_sequential_fraction >= min_sequential_fraction
            ):
                ro_files.append(session.file)
        if len(set(ro_files)) >= min_files:
            insights.append(
                Insight(
                    kind=InsightKind.READONLY_SEQUENTIAL,
                    subject=p.task,
                    tasks=[p.task],
                    evidence={"files": len(set(ro_files))},
                    description=(
                        f"task {p.task} reads {len(set(ro_files))} files "
                        "sequentially and read-only; use a rolling stage-in to "
                        "the nearest tier"
                    ),
                )
            )
    return insights


def detect_task_independence(profiles: Sequence[TaskProfile]) -> List[Insight]:
    """Consecutive task pairs sharing no files — parallelization candidates
    (the DDMD training/inference observation)."""
    insights = []
    touched = [
        (p.task, {s.file for s in p.dataset_stats})
        for p in profiles
    ]
    for (t1, f1), (t2, f2) in zip(touched, touched[1:]):
        if f1 and f2 and not (f1 & f2):
            insights.append(
                Insight(
                    kind=InsightKind.TASK_INDEPENDENCE,
                    subject=f"{t1} ∥ {t2}",
                    tasks=[t1, t2],
                    evidence={"shared_files": 0},
                    description=(
                        f"consecutive tasks {t1} and {t2} have no HDF5 data "
                        "dependency; they can run in parallel"
                    ),
                )
            )
    return insights


def detect_vlen_layout(profiles: Sequence[TaskProfile]) -> List[Insight]:
    """Variable-length datasets stored contiguously — chunked layout would
    index them and halve their I/O (the ARLDM finding)."""
    insights = []
    seen: Set[Tuple[str, str]] = set()
    for p in profiles:
        for obj in p.object_profiles:
            key = (obj.file, obj.object_name)
            if key in seen:
                continue
            if obj.dtype.startswith("vlen") and obj.layout == "contiguous":
                seen.add(key)
                insights.append(
                    Insight(
                        kind=InsightKind.VLEN_LAYOUT,
                        subject=f"{obj.file}:{obj.object_name}",
                        tasks=[p.task] if p.task else [],
                        evidence={"dtype": obj.dtype, "layout": obj.layout},
                        description=(
                            f"variable-length dataset {obj.object_name} uses a "
                            "contiguous layout; switch to chunked to leverage "
                            "metadata indexing"
                        ),
                    )
                )
    return insights
