"""``serve``: a ``dayu-serve`` daemon under the repo's own service load.

Set-up runs ddmd once (the ``dayu-run`` path) for its per-task traces in
the default format, computes the offline ``dayu-compact`` +
``dayu-analyze --graph-json --lint`` bytes for them, and starts the
daemon on a fresh store.

``--trace 0`` repeats ``benchmarks/bench_service.py``'s load step: the
traces of ``RUNS_PER_BATCH`` runs, shuffled together by the seeded
generator, go through one ``repro.service.loadgen.run_load`` client, as
in ``bench_service``'s one-client row.  It uploads a trace, then
queries ftg, sdg and findings of that run, and waits for every answer
before its next upload: a closed loop, as the loadgen's callers are.
With one client each latency is the service's own time, not a wait
behind another client's refold; across seeds that halved the spread of
the query median.  Queries on a run with uploads still to come find
its memo stale, so the server refolds.  Every request's latency is a
sample, scaled to the benchmark's reference core by speed probes taken
just before and after its batch (see :mod:`speed`), as the other
workloads scale theirs.  After each batch every run's answers must
equal the offline bytes; the runs are then deleted.

``--trace 1`` offers the same traffic open-loop instead, over
``CONNECTIONS`` connections (the box has two CPUs), at ``SWEEP_RATES``
sessions per second with seeded Poisson arrivals, to find the highest
rate whose upload tail, timed from each session's due time, stays
within ``LATENCY_LIMIT_MS`` with no growing backlog.  It records how
late the generator ran, checks every run offered once its missing
traces are uploaded, and scrapes the daemon's ``/metrics`` at the end.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import re
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.service.loadgen import _request, _worker

from common import SRC, analyze_defaults, analyze_dir, canonical, \
    cli_defaults, content_digest, tail

#: Runs whose traces are shuffled together, as ``bench_service``'s
#: ``runs_per_sweep``.
RUNS_PER_BATCH = 4
CONNECTIONS = 2
KINDS = ("ftg", "sdg", "findings")
#: Offered sessions (one upload each) per second for
#: ``service.max_uploads_per_s``: around the ~55/s two closed-loop
#: clients sustain on these traces on a 2-CPU host, and including
#: ``bench_service``'s gate floor of 20/s.
SWEEP_RATES = (10.0, 20.0, 40.0, 60.0)
#: Upload tail latency a rate must meet to count as sustained: the
#: query p99 ceiling ``bench_service`` gates on.
LATENCY_LIMIT_MS = 750.0


class Serve:
    def __init__(self, work: Path, part: int) -> None:
        self.work = work
        self.part = part
        self.daemon: Optional[subprocess.Popen] = None
        self.peak_rss_mb: Optional[float] = None

    # -- set-up -------------------------------------------------------------
    def setup(self, seed: int) -> None:
        from repro.cli import run_main
        from repro.experiments.common import fresh_env
        from repro.mapper.columnar import compact_profiles
        from repro.workloads.registry import build_workload
        from spans import NULL

        self.seed = seed
        opts = cli_defaults(run_main, ["ddmd"])
        env = fresh_env(n_nodes=opts["nodes"])
        workflow, _ = build_workload("ddmd", opts["scale"])
        env.runner.run(workflow)
        traces = self.work / "traces"
        env.mapper.save_to_host_dir(str(traces),
                                    trace_format=opts["trace_format"])
        # A fixed order, so that the seeded shuffle alone decides traffic.
        self.payloads = [
            (p.task, next(traces.glob(f"{p.task}.*")).read_bytes())
            for p in sorted(env.mapper.profiles.values(),
                            key=lambda p: (p.span.start, p.task))]

        compacted = self.work / "compacted"
        compacted.mkdir()
        compact_profiles(list(env.mapper.profiles.values()),
                         str(compacted / "run.dayuc"))
        analysis, _ = analyze_dir(str(compacted), analyze_defaults(), NULL)
        offline = canonical(analysis)
        self.reference = {kind: offline[kind] for kind in KINDS}

        port_file = self.work / "port"
        log = open(self.work / "daemon.log", "wb")
        self.daemon = subprocess.Popen(
            [sys.executable, "-m", "repro.service.cli",
             str(self.work / "store"), "--port", "0",
             "--port-file", str(port_file)],
            cwd=str(self.work), stdout=log, stderr=subprocess.STDOUT,
            env={**os.environ, "PYTHONPATH": str(SRC)})
        log.close()
        deadline = time.monotonic() + 60
        while not (port_file.exists() and port_file.read_text().strip()):
            if self.daemon.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("dayu-serve did not start")
            time.sleep(0.02)
        self.port = int(port_file.read_text())

    def close(self) -> None:
        if self.daemon is None:
            return
        # The store is thrown away: skip the daemon's compaction on a
        # graceful shutdown, which would also add to its peak memory.
        self.daemon.kill()
        self.daemon.wait()
        self.peak_rss_mb = resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        self.daemon = None

    # -- measurement --------------------------------------------------------
    def measure(self, seconds: float, trace: bool, speed) -> dict:
        # Each process of a run offers its own share of the seeded traffic.
        rng = random.Random(f"{self.seed}/{self.part}")
        out = {"reference": content_digest(
                   [(k, self.reference[k]) for k in KINDS]),
               "trace_bytes": [sum(len(p) for _, p in self.payloads)],
               "capture": [], "analyze": [], "capture_wall": [],
               "analyze_wall": [], "attempted": 0, "failed": 0,
               "errors": []}
        if trace:
            self._sweep(seconds, rng, out)
        else:
            self._batches(seconds, rng, speed, out)
        return out

    def _batches(self, seconds: float, rng: random.Random, speed,
                 out: dict) -> None:
        tasks = {task for task, _ in self.payloads}
        speed.factor()  # restart the probe pairs at the first sample
        deadline = time.perf_counter() + seconds
        batch = 0
        while time.perf_counter() < deadline:
            runs = [f"b{batch:05d}-r{r}" for r in range(RUNS_PER_BATCH)]
            batch += 1
            jobs = [(run, payload) for run in runs
                    for _, payload in self.payloads]
            rng.shuffle(jobs)
            upload, query, errors = asyncio.run(_load(self.port, jobs))
            scale = speed.factor()
            for key, samples in (("capture", upload), ("analyze", query)):
                out[key].extend(t * scale for t in samples)
                out[f"{key}_wall"].extend(samples)
            out["attempted"] += len(upload) + len(query)
            out["failed"] += errors
            if errors:
                out["errors"].append("a load-step request failed")
            # Checked runs are deleted, so that the store, and the
            # daemon's memory, does not grow with the batches a faster
            # build gets through.
            _merge(out, asyncio.run(
                _check_runs(self, dict.fromkeys(runs, tasks), drop=True)))

    def _sweep(self, seconds: float, rng: random.Random, out: dict) -> None:
        from spans import Recorder

        rec = Recorder()
        gen = _Generator(self, rng, rec)
        share = seconds / len(SWEEP_RATES)
        # Sessions still queued when a phase ends are dropped unsent: they
        # show as due but not sent.
        results = [asyncio.run(gen.phase(rate, share))
                   for rate in SWEEP_RATES]
        self_s, calls = rec.take()
        extra = {"service.max_uploads_per_s": max(
            [r["rate"] for r in results if r["sustained"]], default=0.0),
            "serve.late_ms": max(r["late_ms"] for r in results),
            "serve.due": sum(r["due"] for r in results),
            "serve.sent": sum(r["sent"] for r in results)}
        extra.update(asyncio.run(gen.scrape_metrics()))
        out["extra"] = extra
        out["traced"] = [{"self_s": self_s, "calls": calls}]
        if rec.spans:
            rec.chrome_trace(str(self.work / "spans.json"))
        for res in results:
            _merge(out, res)
        _merge(out, asyncio.run(_check_runs(self, gen.acked)))


async def _load(port: int, jobs: List[Tuple[str, bytes]]):
    """One ``loadgen.run_load`` client over ``jobs``, keeping every
    latency: upload and query seconds and the failed-request count."""
    upload: List[float] = []
    query: List[float] = []
    errors = [0]
    await _worker("127.0.0.1", port, jobs, KINDS, None, upload, query, errors)
    return upload, query, errors[0]


def _merge(out: dict, res: dict) -> None:
    for key in ("attempted", "failed", "errors"):
        out[key] += res[key]


def _count(res: dict, problem: Optional[str]) -> bool:
    res["attempted"] += 1
    if problem:
        res["failed"] += 1
        res["errors"].append(problem)
    return problem is None


def _check_upload(acked: set, task: str, status: int,
                  body: bytes) -> Optional[str]:
    if status != 200:
        return f"upload answered HTTP {status}"
    try:
        answer = json.loads(body)
    except ValueError:
        return "upload answered with malformed JSON"
    if task not in answer.get("profiles", ()):
        return "upload receipt names the wrong task"
    acked.add(task)
    return None


async def _check_runs(serve: Serve, acked: Dict[str, set],
                      drop: bool = False) -> dict:
    """Upload the traces each run in ``acked`` still lacks, then check
    its answers against the offline bytes; ``drop`` deletes it after."""
    res = {"attempted": 0, "failed": 0, "errors": []}
    reader, writer = await asyncio.open_connection("127.0.0.1", serve.port)
    for run, tasks in acked.items():
        for task, payload in serve.payloads:
            if task not in tasks:
                status, body = await _request(
                    reader, writer, "POST", f"/runs/{run}/traces", {},
                    payload)
                _count(res, _check_upload(tasks, task, status, body))
        for kind in KINDS:
            status, body = await _request(
                reader, writer, "GET", f"/runs/{run}/{kind}", {})
            _count(res, None if (status, body) == (
                200, serve.reference[kind]) else
                f"finished run's {kind} differs from the offline bytes")
        if drop:
            status, _ = await _request(
                reader, writer, "DELETE", f"/runs/{run}", {})
            _count(res, None if status == 200 else
                   f"delete answered HTTP {status}")
    writer.close()
    return res


class _Generator:
    """Seeded open-loop session schedule over ``CONNECTIONS`` sockets."""

    def __init__(self, serve: Serve, rng: random.Random, rec) -> None:
        self.serve = serve
        self.rng = rng
        self.rec = rec
        self.runs = 0
        self.jobs: List[Tuple[str, str, bytes]] = []
        self.acked: Dict[str, set] = {}   # run -> tasks acknowledged

    def _next_job(self) -> Tuple[str, str, bytes]:
        if not self.jobs:
            for _ in range(RUNS_PER_BATCH):
                run = f"run{self.runs:05d}"
                self.runs += 1
                self.acked[run] = set()
                self.jobs.extend((run, task, payload)
                                 for task, payload in self.serve.payloads)
            self.rng.shuffle(self.jobs)
        return self.jobs.pop()

    async def phase(self, rate: float, seconds: float) -> dict:
        queue: asyncio.Queue = asyncio.Queue()
        res = {"rate": rate, "upload": [], "attempted": 0, "failed": 0,
               "errors": [], "due": 0, "sent": 0, "late_ms": 0.0}
        conns = [await asyncio.open_connection("127.0.0.1", self.serve.port)
                 for _ in range(CONNECTIONS)]
        workers = [asyncio.ensure_future(self._connection(r, w, queue, res))
                   for r, w in conns]
        loop = asyncio.get_running_loop()
        start = loop.time()
        end = start + seconds
        due = start
        backlog_mid = None
        while True:
            due += self.rng.expovariate(rate)
            if due >= end:
                break
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            res["late_ms"] = max(res["late_ms"],
                                 (loop.time() - due) * 1e3)
            res["due"] += 1
            if backlog_mid is None and due >= start + seconds / 2:
                backlog_mid = queue.qsize()
            queue.put_nowait((due, self._next_job()))
        backlog_end = queue.qsize()
        while not queue.empty():
            queue.get_nowait()
        for _ in workers:
            queue.put_nowait(None)
        await asyncio.gather(*workers)
        for _, writer in conns:
            writer.close()
        uploads = [(done - due) * 1e3 for due, done in res["upload"]]
        res["sustained"] = (
            tail(uploads)["value"] <= LATENCY_LIMIT_MS
            and backlog_end <= max(backlog_mid or 0, CONNECTIONS))
        return res

    async def _connection(self, reader, writer, queue, res) -> None:
        loop = asyncio.get_running_loop()
        while True:
            item = await queue.get()
            if item is None:
                return
            due, (run, task, payload) = item
            res["sent"] += 1
            started = time.perf_counter_ns()
            status, body = await _request(
                reader, writer, "POST", f"/runs/{run}/traces", {}, payload)
            res["upload"].append((due, loop.time()))
            # Requests on the two connections overlap: root spans.
            self.rec.record("service", "upload", started,
                            time.perf_counter_ns())
            if not _count(res, _check_upload(self.acked[run], task, status,
                                             body)):
                continue
            for kind in KINDS:
                started = time.perf_counter_ns()
                status, body = await _request(
                    reader, writer, "GET", f"/runs/{run}/{kind}", {})
                self.rec.record("service", kind, started,
                                time.perf_counter_ns())
                _count(res, None if status == 200 else
                       f"{kind} query answered HTTP {status}")

    async def scrape_metrics(self) -> Dict[str, float]:
        """Per-route request counts and mean server-side latency."""
        reader, writer = await asyncio.open_connection("127.0.0.1",
                                                       self.serve.port)
        _, body = await _request(reader, writer, "GET", "/metrics", {})
        writer.close()
        out: Dict[str, float] = {}
        sums: Dict[str, float] = {}
        counts: Dict[str, float] = {}
        for line in body.decode().splitlines():
            m = re.match(r'(dayu_service_\w+)\{([^}]*)\} (\S+)', line)
            if not m:
                continue
            name, labels, value = m.group(1), m.group(2), float(m.group(3))
            route = re.search(r'route="([^"]*)"', labels)
            if not route:
                continue
            label = _route_label(route.group(1))
            if label is None:
                continue
            if name == "dayu_service_requests_total":
                key = f"service.{label}.requests"
                out[key] = out.get(key, 0.0) + value
            elif name.endswith("_seconds_sum"):
                sums[label] = sums.get(label, 0.0) + value
            elif name.endswith("_seconds_count"):
                counts[label] = counts.get(label, 0.0) + value
        for label, total in sums.items():
            if counts.get(label):
                out[f"service.{label}.latency_s"] = total / counts[label]
        return out


def _route_label(pattern: str) -> Optional[str]:
    if pattern.endswith("/traces$"):
        return "upload"
    if pattern.endswith("/findings$"):
        return "findings"
    if "ftg|sdg" in pattern:
        return "graph"
    return None
