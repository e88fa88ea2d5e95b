"""DaYu end-to-end benchmark.

    python3 perfbench/run.py --workload case-studies --seed 1 \
        --seconds 18 --trace 0

Runs the named workload in ``PARTS`` fresh worker processes, one after
another, each measuring for an equal share of ``--seconds``, and pools
their samples.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` reports its per-layer metrics from a
run with layer spans installed.  Every metric is printed by name with
its unit; the last line of standard output is one JSON object.  The
exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

from common import ROOT, SRC, WORK, iqr_share, median, src_lines, tail
from spans import EXECUTION_LAYERS

#: Real time of DaYu's own tracing inside the run: VOL and VFD tracers
#: and the Characteristic Mapper join.
TRACER_LAYERS = ("vol", "vfd", "vfd.record", "mapper.join")

#: Fresh processes per run.  Set-up is measured once in each.
PARTS = 3
#: A run that has not finished by then is stopped and reports nothing.
RUN_LIMIT_S = 170
WORKLOADS = ("case-studies", "h5bench-bulk", "analyze-1k", "serve")
TARGETS = json.loads((Path(__file__).parent / "targets.json").read_text())


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_worker(cmd: list, deadline: float) -> int:
    """Run one worker in its own process group; past ``deadline`` the
    whole group (worker and any daemon it started) is killed."""
    proc = subprocess.Popen(cmd, cwd=str(ROOT), stdout=sys.stderr,
                            start_new_session=True)
    try:
        return proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise SystemExit("perfbench: worker ran out of time")


def _run_parts(args) -> list:
    WORK.mkdir(exist_ok=True)
    deadline = time.monotonic() + RUN_LIMIT_S
    parts = []
    for part in range(PARTS):
        out = WORK / f"{args.workload}-{args.seed}-{args.trace}-{part}.json"
        cmd = [sys.executable, str(Path(__file__).parent / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds / PARTS),
               "--trace", str(args.trace), "--part", str(part),
               "--out", str(out)]
        code = _run_worker(cmd, deadline)
        if code != 0:
            raise SystemExit(f"perfbench: worker {part} exited with {code}")
        parts.append(json.loads(out.read_text()))
        out.unlink()
        work = WORK / out.stem
        if (work / "spans.json").exists() and part == 0:
            (work / "spans.json").replace(WORK / f"spans-{args.workload}.json")
        shutil.rmtree(work, ignore_errors=True)
    return parts


def _pooled(parts: list, key: str) -> list:
    return [v for p in parts for v in p.get(key, [])]


def end_to_end(parts: list) -> dict:
    capture = _pooled(parts, "capture")
    analyze = _pooled(parts, "analyze")
    for name, samples in (("capture", capture), ("analyze", analyze)):
        t = tail(samples)
        wall = _pooled(parts, f"{name}_wall")
        print(f"# {name}: {t['n']} samples, IQR/median "
              f"{iqr_share(samples):.3f}, tail p{t['pct']:.1f} = "
              f"{t['value'] * 1e3:.3f} ms, wall-clock median "
              f"{median(wall) * 1e3:.3f} ms")
    return {
        "setup_s": median([p["setup_s"] for p in parts]),
        "capture_p50_ms": median(capture) * 1e3,
        "analyze_p50_ms": median(analyze) * 1e3,
        "trace_bytes": median(_pooled(parts, "trace_bytes")),
        "peak_rss_mb": median([p["peak_rss_mb"] for p in parts]),
        "setup_wall_s": median([p["setup_wall"] for p in parts]),
        **src_lines(),
    }


def per_layer(parts: list) -> dict:
    traced = _pooled(parts, "traced")
    values: dict = {}

    def put(name: str, value: float) -> None:
        values.setdefault(name, []).append(value)

    for sample in traced:
        for layer, seconds in sample["self_s"].items():
            put(f"{layer}.self_s", seconds)
        for layer, calls in sample["calls"].items():
            put(f"{layer}.calls", calls)
        for group in ("counts", "model"):
            for name, value in sample.get(group, {}).items():
                put(name, value)
    for part in parts:  # measured once per process, not per iteration
        for name, value in part.get("extra", {}).items():
            put(name, value)
    out = {name: median(v) for name, v in values.items()}
    traced = _pooled(parts, "traced_iteration")
    if traced:
        out["trace.overhead_s"] = (median(traced)
                                   - median(_pooled(parts, "iteration")))
    traced_run = median(_pooled(parts, "traced_run_wall"))
    if traced_run:
        real = {layer: out.get(f"{layer}.self_s", 0.0)
                for layer in EXECUTION_LAYERS}
        out["trace.run_coverage"] = sum(real.values()) / traced_run
        out["tracer.real_share"] = sum(real[k] for k in TRACER_LAYERS) \
            / traced_run
        out["workflow.sim_makespan_s"] = median(
            _pooled(parts, "sim_makespan"))
        # On the serial basis of real_share: all simulated task time.
        out["tracer.model_share"] = sum(
            out.get(f"{k}.model_s", 0.0) for k in ("vol", "vfd", "mapper")) \
            / median(_pooled(parts, "traced_sim_work"))
    out.update(src_lines())
    return out


def main() -> int:
    parser = argparse.ArgumentParser(prog="perfbench")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no DaYu source tree at {SRC}", file=sys.stderr)
        return 2

    spec = _spec()
    parts = _run_parts(args)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    measured = per_layer(parts) if args.trace else end_to_end(parts)

    errors = [e for p in parts for e in p["errors"]]
    references = {p["reference"] for p in parts if "reference" in p}
    attempted = sum(p["attempted"] for p in parts)
    failed = sum(p["failed"] for p in parts)
    if len(references) > 1:
        errors.append("worker processes disagree on the analysis outputs")
        failed += 1
    if len({p.get("exact") for p in parts}) > 1:
        print("# NOTE: insight/recommendation order differs between "
              "processes (same content)")
    for error in sorted(set(errors)):
        print(f"# FAILED: {error}")

    metrics = {}
    for m in wanted:
        value = measured.get(m["name"], 0.0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        target = TARGETS.get(m["name"], "")
        print(f"{m['name']:32s} {value:16.6f} {m['unit']:8s} {target}")
    for name in sorted(set(measured) - {m["name"] for m in wanted}):
        print(f"{name:32s} {measured[name]:16.6f}")
    print(f"# error_rate: {failed / max(attempted, 1):.6f} "
          f"({failed} of {attempted})")
    correct = failed == 0 and not errors
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
