"""``case-studies`` and ``h5bench-bulk``: dayu-run, then dayu-analyze.

An iteration's capture runs each workflow in a fresh environment under
DaYu tracing (``fresh_env`` + ``build_workload`` + ``env.runner.run``)
and saves its traces with ``DataSemanticMapper.save_to_host_dir`` in the
``dayu-run`` default format; its analysis then reads each trace
directory as ``dayu-analyze --lint`` does by default.  The bundled
workflows take no seed, so every iteration must produce the same bytes.
"""

from __future__ import annotations

import shutil
import time
from pathlib import Path
from typing import Dict, List

from common import analyze_defaults, cli_defaults, dir_bytes

#: Simulated-clock accounts reported beside the traced self times.
MODEL_ACCOUNTS = {
    "vol.model_s": ("dayu.vol.access_tracker",),
    "vfd.model_s": ("dayu.vfd.access_tracker",),
    "mapper.model_s": ("dayu.characteristic_mapper", "dayu.input_parser"),
    "storage.model_s": ("posix_io",),
}

MiB = 1 << 20


def _h5bench_bulk(scale: float):
    from repro.workloads.h5bench import (
        H5benchParams, build_h5bench_read, build_h5bench_write)

    params = H5benchParams(data_dir="/beegfs/h5bench", n_procs=4,
                           bytes_per_proc=int(16 * MiB * scale),
                           ops_per_proc=16, read_pattern="strided")
    return [build_h5bench_write(params), build_h5bench_read(params)]


class PipelineWorkload:
    """Runs a list of *jobs*; each job is one ``dayu-run`` invocation
    (one environment, one or more workflows, one trace dir) and later one
    ``dayu-analyze`` of its trace dir."""

    #: Analyses per capture: each is a sample, and analysis is short.
    analyze_passes = 2

    def __init__(self, jobs: List[str], work: Path) -> None:
        self.jobs = jobs
        self.work = work

    def setup(self, seed: int) -> None:
        from repro.cli import run_main

        self.run_opts = {job: cli_defaults(run_main, [
            "h5bench" if job == "h5bench-bulk" else job]) for job in self.jobs}
        self.analyze_opts = analyze_defaults()
        self.work.mkdir(parents=True, exist_ok=True)

    def _env(self, job: str):
        from repro.experiments.common import fresh_env
        from repro.workloads.registry import build_workload

        opts = self.run_opts[job]
        env = fresh_env(n_nodes=opts["nodes"])
        if opts["event"]:
            from repro.workflow.dscheduler import DataflowRunner

            env.runner = DataflowRunner(
                env.cluster, env.mapper, placement=opts["placement"],
                dependency_mode=opts["deps"],
                path_resolver=env.runner.path_resolver,
                retry_policy=env.runner.retry_policy,
                faults=env.runner.faults)
        if job == "h5bench-bulk":
            return env, _h5bench_bulk(opts["scale"]), None
        workflow, prepare = build_workload(job, opts["scale"])
        return env, [workflow], prepare

    def capture(self, rec) -> Dict[str, object]:
        """The ``dayu-run`` half of an iteration: run every job in a fresh
        environment and save its traces."""
        capture = run = makespan = work = 0.0
        counts: Dict[str, float] = {}
        model: Dict[str, float] = dict.fromkeys(MODEL_ACCOUNTS, 0.0)
        failures = 0
        dirs = []

        def add(key: str, value: float) -> None:
            counts[key] = counts.get(key, 0) + value

        for job in self.jobs:
            out = self.work / job
            if out.exists():
                shutil.rmtree(out)
            started = time.perf_counter()
            env, workflows, prepare = self._env(job)
            # ``run`` is the scope the traced layer spans cover: input
            # staging writes through the same stack as the tasks.
            t = time.perf_counter()
            if prepare is not None:
                prepare(env.cluster)
            for workflow in workflows:
                result = env.runner.run(workflow)
                makespan += result.wall_time
                # Tasks run one after another on the simulated clock, so
                # its accounts add up every task's time, not the makespan.
                work += sum(s.total_work for s in result.stage_results)
                failures += len(result.failures)
                add("workflow.retries", result.retries)
            run += time.perf_counter() - t
            with rec.span("mapper.write"):
                env.mapper.save_to_host_dir(
                    str(out), trace_format=self.run_opts[job]["trace_format"])
            capture += time.perf_counter() - started
            dirs.append(out)

            profiles = env.mapper.profiles.values()
            add("workflow.tasks", len(env.mapper.profiles))
            add("vfd.records", sum(len(p.io_records) for p in profiles))
            add("vol.objects", sum(len(p.object_profiles) for p in profiles))
            fs = env.cluster.fs
            add("posix.ops", fs.op_count())
            add("storage.bytes",
                sum(m.device.counters.total_bytes for m in fs.mounts))
            for key, accounts in MODEL_ACCOUNTS.items():
                model[key] += sum(env.clock.account(a) for a in accounts)
        return {"capture": capture, "run": run, "sim_makespan": makespan,
                "sim_work": work,
                "trace_bytes": sum(dir_bytes(d) for d in dirs),
                "dirs": dirs, "failures": failures, "counts": counts,
                "model": model}


def case_studies(work: Path) -> PipelineWorkload:
    return PipelineWorkload(["pyflextrkr", "ddmd", "arldm"], work)


def h5bench_bulk(work: Path) -> PipelineWorkload:
    return PipelineWorkload(["h5bench-bulk"], work)
