"""Golden binary traces: the ``.dayu`` row codec's bytes are pinned.

``dayu-run`` saves ``.dayu`` traces by default, so their bytes are as
much a contract as the JSON ones ``test_golden_capture.py`` pins:

- the SHA-256 over each bundled case study's saved ``.dayu`` files at
  scale 0.25 (sorted by name), recorded from the encoder before its
  per-field loops were last optimized;
- ``decode_profile(encode_profile(p))`` equals ``p``, with and without
  the per-operation records;
- the ``dayu-run`` default format and ``--trace-format json`` analyze to
  byte-identical ``--graph-json`` graphs and ``lint.json``.

If a change is *meant* to alter the binary format, update the constants
in the same commit and say why.
"""

import hashlib
from pathlib import Path

import pytest

from repro.cli import analyze_main, run_main
from repro.experiments.common import fresh_env
from repro.mapper import codec
from repro.workloads.registry import build_workload

SCALE = 0.25

GOLDEN = {
    "pyflextrkr":
        "c5ee5d6fb9c50ae9013b8ab1ac15a4eac23e5ede21343a11ce982fa02c266651",
    "ddmd":
        "bc5fabcc16a19a5d24fd93826d5f0abc89c0a0d4b5c73748fff962670ca3487a",
    "arldm":
        "0fe5ab24d75212edad2465fad7b110ccad2211a411cfbaf1c5207c346df96dfc",
}


def _trace_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


@pytest.fixture(scope="module", params=sorted(GOLDEN))
def captured(request):
    env = fresh_env()
    workflow, prepare = build_workload(request.param, SCALE)
    if prepare is not None:
        prepare(env.cluster)
    env.runner.run(workflow)
    return request.param, env.mapper


def test_binary_trace_is_byte_identical(captured, tmp_path):
    workload, mapper = captured
    written = mapper.save_to_host_dir(str(tmp_path), trace_format="binary")
    assert all(p.endswith(codec.BINARY_TRACE_SUFFIX) for p in written)
    assert _trace_digest(tmp_path) == GOLDEN[workload]


@pytest.mark.parametrize("with_io_records", [True, False])
def test_round_trip(captured, with_io_records):
    _, mapper = captured
    for profile in mapper.profiles.values():
        blob = codec.encode_profile(profile)
        back = codec.decode_profile(blob, with_io_records=with_io_records)
        want = profile.to_json_dict()
        if not with_io_records:
            assert back.io_records == []
            want["io_records"] = []
        else:
            assert back.io_records == profile.io_records
        # Dataclass equality skips the region runs; the JSON form has them.
        assert back.to_json_dict() == want
        assert back.object_profiles == profile.object_profiles
        assert back.dataset_stats == profile.dataset_stats
        assert [s.region_runs() for s in back.dataset_stats] == \
            [s.region_runs() for s in profile.dataset_stats]
        if with_io_records:
            assert codec.encode_profile(back) == blob


def test_default_and_json_traces_analyze_identically(tmp_path, capsys):
    outputs = {}
    for label, extra in (("default", []), ("json", ["--trace-format",
                                                    "json"])):
        traces = tmp_path / f"traces-{label}"
        graphs = tmp_path / f"graphs-{label}"
        assert run_main(["ddmd", "--out", str(traces), "--scale",
                         str(SCALE)] + extra) == 0
        suffixes = {p.suffix for p in traces.iterdir()}
        assert suffixes == ({".json"} if extra
                            else {codec.BINARY_TRACE_SUFFIX})
        assert analyze_main([str(traces), "--out", str(graphs),
                             "--graph-json", "--lint"]) == 0
        outputs[label] = {name: (graphs / name).read_bytes()
                          for name in ("ftg.json", "sdg.json", "lint.json")}
    capsys.readouterr()
    assert outputs["default"] == outputs["json"]
