"""One fresh benchmark process: set up a workload, measure it for a
while, check its outputs, and write the samples as JSON.

``run.py`` starts several of these one after another and pools their
samples, so set-up is measured more than once and no single process's
luck decides a median.

    python3 perfbench/worker.py --workload W --seed N --seconds S \
        --trace 0|1 --part I --out part.json
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
from pathlib import Path

from common import WORK, analyze_dirs, content_digest, digest, \
    peak_rss_mb, use_source_tree
from speed import SpeedTrack

WORKLOADS = ("case-studies", "h5bench-bulk", "analyze-1k", "serve")


def build(workload: str, work: Path, part: int):
    if workload == "case-studies":
        from pipeline import case_studies
        return case_studies(work)
    if workload == "h5bench-bulk":
        from pipeline import h5bench_bulk
        return h5bench_bulk(work)
    if workload == "analyze-1k":
        from analyze1k import Analyze1k
        return Analyze1k(work)
    from serve import Serve
    return Serve(work, part)


def closed_loop(wl, speed: SpeedTrack, seconds: float, trace: bool,
                check_formats: bool) -> dict:
    """Iterate until ``seconds`` have passed.  An iteration is one capture
    then ``wl.analyze_passes`` analyses of the captured traces; each is
    one sample, checked against the first iteration's outputs.

    Samples are scaled to the reference core by the probes taken between
    them (see :mod:`speed`); ``*_wall`` keep the wall-clock values.  With
    ``trace``, every other iteration runs with layer spans installed and
    reports wall-clock per-layer numbers; the rest stay untraced so the
    tracing overhead is measured in the same process.
    """
    from spans import NULL, Recorder

    first = wl.capture(NULL)  # warm-up; its outputs are the reference
    _, outputs, _ = analyze_dirs(first["dirs"], wl.analyze_opts, NULL)
    exact = digest(*(blob for _, blob in outputs))
    fixed = (first["trace_bytes"], first["sim_makespan"])
    out = {"reference": content_digest(outputs), "exact": exact,
           "capture": [], "analyze": [], "capture_wall": [],
           "analyze_wall": [], "trace_bytes": [],
           "sim_makespan": [], "attempted": 0, "failed": 0, "errors": [],
           "traced": [], "traced_run_wall": [], "traced_sim_work": [],
           "iteration": [], "traced_iteration": []}
    if first["failures"]:
        out["errors"].append(f"warm-up lost {first['failures']} task(s)")
    if check_formats and hasattr(wl, "cross_format"):
        out["extra"], bad = wl.cross_format(exact)
        out["attempted"] += len(out["extra"])
        out["failed"] += len(bad)
        out["errors"].extend(f"{fmt} analysis differs from the default "
                             "format's" for fmt in bad)

    def check(ok: bool, problem: str) -> None:
        out["attempted"] += 1
        if not ok:
            out["failed"] += 1
            out["errors"].append(problem)

    rec = Recorder() if trace else None
    speed.factor()  # restart the probe pairs at the first sample
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline or i < 2:
        traced = trace and i % 2 == 0
        i += 1
        if traced:
            rec.install()
        try:
            spans = rec if traced else NULL
            cap = wl.capture(spans)
            cap_scale = speed.factor()
            passes = []
            for _ in range(wl.analyze_passes):
                seconds_, outputs, counts = analyze_dirs(
                    cap["dirs"], wl.analyze_opts, spans)
                passes.append((seconds_, speed.factor()))
                check(digest(*(b for _, b in outputs)) == exact,
                      "analysis outputs differ from the first iteration")
        finally:
            if traced:
                rec.uninstall()
        check((cap["trace_bytes"], cap["sim_makespan"]) == fixed
              and not cap["failures"],
              "trace bytes or simulated makespan moved, or a task failed")
        total = cap["capture"] * cap_scale + sum(t * f for t, f in passes)
        if traced:
            self_s, calls = rec.take()
            rec.keep_spans = len(rec.spans)  # keep the first traced pass
            out["traced"].append({"self_s": self_s, "calls": calls,
                                  "counts": {**cap["counts"], **counts},
                                  "model": cap["model"]})
            out["traced_run_wall"].append(cap["run"])
            out["traced_sim_work"].append(cap["sim_work"])
            out["traced_iteration"].append(total)
            continue
        out["iteration"].append(total)
        out["capture"].append(cap["capture"] * cap_scale)
        out["capture_wall"].append(cap["capture"])
        for t, f in passes:
            out["analyze"].append(t * f)
            out["analyze_wall"].append(t)
        out["trace_bytes"].append(cap["trace_bytes"])
        out["sim_makespan"].append(cap["sim_makespan"])
    if trace and rec.spans:
        rec.chrome_trace(str(wl.work / "spans.json"))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(prog="perfbench-worker")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--part", type=int, default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    speed = SpeedTrack()
    started = time.perf_counter()  # set-up includes importing DaYu
    use_source_tree()
    work = WORK / f"{args.workload}-{args.seed}-{args.trace}-{args.part}"
    shutil.rmtree(work, ignore_errors=True)  # left by a run that was killed
    wl = build(args.workload, work, args.part)
    try:
        wl.setup(args.seed)
        setup_wall = time.perf_counter() - started
        setup_s = setup_wall * speed.factor()
        if hasattr(wl, "measure"):
            result = wl.measure(args.seconds, bool(args.trace), speed)
        else:
            result = closed_loop(wl, speed, args.seconds, bool(args.trace),
                                 check_formats=args.part == 0)
    finally:
        if hasattr(wl, "close"):
            wl.close()
        speed.close()
    result["setup_s"] = setup_s
    result["setup_wall"] = setup_wall
    result["peak_rss_mb"] = getattr(wl, "peak_rss_mb", None) or \
        peak_rss_mb(resource.RUSAGE_SELF)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
