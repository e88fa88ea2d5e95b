"""Shared benchmark plumbing: repo paths, CLI defaults, statistics, and
the offline analysis every workload measures."""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for traces, stores and exported spans (git-ignored).
WORK = ROOT / ".perfbench"

#: Benchmark layer -> packages under ``src/repro`` whose source it counts.
LAYER_SOURCES: Dict[str, Sequence[str]] = {
    "workflow": ("workflow",),
    "vol": ("vol",),
    "hdf5": ("hdf5",),
    "vfd": ("vfd",),
    "posix": ("posix",),
    "storage": ("storage",),
    "mapper": ("mapper",),
    "analyzer": ("analyzer",),
    "diagnostics": ("diagnostics", "guidelines"),
    "lint": ("lint",),
    "service": ("service",),
}


def use_source_tree() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no source tree at {SRC}")
    sys.path.insert(0, str(SRC))


def src_lines() -> Dict[str, int]:
    """``<layer>.src_lines``: non-blank source lines per layer."""
    out = {}
    for layer, packages in LAYER_SOURCES.items():
        total = 0
        for package in packages:
            for path in sorted((SRC / "repro" / package).rglob("*.py")):
                with open(path, encoding="utf-8") as fh:
                    total += sum(1 for line in fh if line.strip())
        out[f"{layer}.src_lines"] = total
    return out


class _Parsed(Exception):
    def __init__(self, namespace: argparse.Namespace) -> None:
        super().__init__()
        self.namespace = namespace


def cli_defaults(main: Callable[[List[str]], int],
                 argv: List[str]) -> Dict[str, object]:
    """The options a CLI entry point would run with for ``argv``.

    The entry point's own parser does the parsing; the call stops right
    after it, before any work.  A changed CLI default therefore changes
    what the benchmark measures.
    """
    parse_args = argparse.ArgumentParser.parse_args

    def capture(self, args=None, namespace=None):
        raise _Parsed(parse_args(self, args, namespace))

    argparse.ArgumentParser.parse_args = capture
    try:
        main(argv)
    except _Parsed as parsed:
        return vars(parsed.namespace)
    finally:
        argparse.ArgumentParser.parse_args = parse_args
    raise RuntimeError(f"{main.__name__} returned without parsing arguments")


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def content_digest(outputs: Sequence[Tuple[str, bytes]]) -> str:
    """Digest of analysis outputs that ignores the order of insights and
    recommendations, which ``diagnose`` ranks by hash-seed-dependent
    set order: equal content in any order digests the same."""
    parts = []
    for name, blob in outputs:
        if name == "insights":
            items = sorted(json.dumps(i, sort_keys=True)
                           for i in json.loads(blob))
            blob = "\n".join(items).encode()
        elif name == "recs":
            blob = b"\n".join(sorted(blob.split(b"\n")))
        parts.append(blob)
    return digest(*parts)


def dir_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in Path(directory).iterdir()
               if p.is_file())


# -- statistics ---------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail(values: Sequence[float]) -> Dict[str, float]:
    """The highest percentile with at least ten samples beyond it
    (nearest rank); with ten samples or fewer, the maximum."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return {"value": 0.0, "pct": 0.0, "n": 0}
    if n <= 10:
        return {"value": ordered[-1], "pct": 100.0, "n": n}
    rank = n - 10  # 1-based rank with exactly ten samples above it
    return {"value": ordered[rank - 1], "pct": 100.0 * rank / n, "n": n}


def iqr_share(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else math.inf


# -- the dayu-analyze path ----------------------------------------------------
def analyze_defaults() -> Dict[str, object]:
    from repro.cli import analyze_main

    return cli_defaults(analyze_main, ["traces", "--lint"])


def analyze_dir(directory: str, options: Dict[str, object], rec):
    """Trace dir on disk -> FTG, SDG, diagnosis + recommendations, lint
    findings: what ``dayu-analyze --lint`` computes, configured by its
    ``options``.  Returns ``(outputs, counts)``; the canonical output
    bytes are produced after the timed work by :func:`canonical`."""
    from repro.analyzer import ParallelAnalyzer
    from repro.diagnostics import diagnose
    from repro.guidelines import recommend

    analyzer = ParallelAnalyzer(max_workers=options["jobs"])
    with rec.span("mapper.load"):
        profiles = analyzer.load(directory,
                                 trace_format=options["trace_format"])
    if not profiles:
        raise RuntimeError(f"no trace profiles under {directory}")
    with rec.span("analyzer"):
        ftg = analyzer.build_ftg(profiles)
        sdg = analyzer.build_sdg(profiles, with_regions=options["regions"],
                                 region_bytes=options["region_bytes"],
                                 page_size=options["page_size"])
    with rec.span("diagnostics"):
        report = diagnose(profiles)
        recs = recommend(report.insights)
    with rec.span("lint"):
        lint = analyzer.lint(profiles)
    outputs = {"ftg": ftg, "sdg": sdg, "report": report, "recs": recs,
               "lint": lint}
    counts = {"analyzer.sdg_nodes": sdg.number_of_nodes(),
              "analyzer.ftg_nodes": ftg.number_of_nodes(),
              "analyzer.ftg_edges": ftg.number_of_edges(),
              "lint.findings": len(lint.findings),
              "mapper.profiles": len(profiles)}
    return outputs, counts


def canonical(outputs) -> Dict[str, bytes]:
    """Byte forms of the analysis: the ``--graph-json`` graphs, the lint
    report, insights and recommendations."""
    from repro.analyzer.serialize import graph_to_json

    return {
        "ftg": (graph_to_json(outputs["ftg"]) + "\n").encode(),
        "sdg": (graph_to_json(outputs["sdg"]) + "\n").encode(),
        "findings": outputs["lint"].to_json().encode(),
        "insights": outputs["report"].to_json().encode(),
        "recs": "\n".join(str(r) for r in outputs["recs"]).encode(),
    }


def analyze_dirs(dirs, options: Dict[str, object], rec):
    """:func:`analyze_dir` over each trace dir in turn.  Returns the
    seconds the analyses took, the canonical outputs of all of them in
    order, and the summed counts."""
    outputs: List[Tuple[str, bytes]] = []
    counts: Dict[str, int] = {}
    seconds = 0.0
    for directory in dirs:
        started = time.perf_counter()
        analysis, found = analyze_dir(str(directory), options, rec)
        seconds += time.perf_counter() - started
        outputs.extend(canonical(analysis).items())
        for key, value in found.items():
            counts[key] = counts.get(key, 0) + value
    return seconds, outputs, counts
