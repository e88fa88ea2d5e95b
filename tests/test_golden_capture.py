"""Golden capture: changes to the capture path cost CPU only.

The bundled case studies run end to end (hdf5 -> VOL/VFD tracers -> posix
-> storage model -> trace files), and three outputs are pinned to
constants recorded before the capture path was last optimized:

- the SHA-256 over the saved trace files (sorted by name);
- every simulated-clock account total, by ``repr`` (bit-exact floats);
- the number of logged POSIX operations.

A speed-up that changes any of them changed what is modelled, not just
how fast it is computed.  No bundled workload compresses its data, so
the trace bytes do not depend on the zlib or NumPy version.  If a change
is *meant* to alter traces or the model, update the constants in the
same commit and say why.
"""

import hashlib
from pathlib import Path

import pytest

from repro.experiments.common import fresh_env
from repro.workloads.registry import build_workload

SCALE = 0.25

GOLDEN = {
    "pyflextrkr": (
        "41bf06948a3c9980715ecf702ee959612ebfa24af9f1f4d63017c2ba7f00b34b",
        "[('compute', 0.44999999999999996), "
        "('dayu.characteristic_mapper', 0.00947), "
        "('dayu.vfd.access_tracker', 0.004830787500000002), "
        "('dayu.vol.access_tracker', 0.004315883999999977), "
        "('posix_io', 0.6629156435489527)]",
        1926,
    ),
    "ddmd": (
        "2aaccf4a417364bb2f0c14b7b5686999485c3421b9d98936629f798bbada174b",
        "[('compute', 0.5), "
        "('dayu.characteristic_mapper', 0.011475), "
        "('dayu.vfd.access_tracker', 0.003039452499999994), "
        "('dayu.vol.access_tracker', 0.0003632039999999995), "
        "('posix_io', 0.9525977399340995)]",
        2295,
    ),
    "arldm": (
        "ec1e1cb614ca9025c8940d7897b1ae9e126cf6fd73530ce3429b2b24736f8908",
        "[('compute', 0.35), "
        "('dayu.characteristic_mapper', 0.00074), "
        "('dayu.vfd.access_tracker', 0.00012227249999999994), "
        "('dayu.vol.access_tracker', 9.498400000000004e-05), "
        "('posix_io', 0.04712812423623274)]",
        148,
    ),
}


def _trace_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("workload", sorted(GOLDEN))
def test_capture_is_byte_identical(workload, tmp_path):
    env = fresh_env()
    workflow, prepare = build_workload(workload, SCALE)
    if prepare is not None:
        prepare(env.cluster)
    env.runner.run(workflow)
    env.mapper.save_to_host_dir(str(tmp_path))

    digest, accounts, posix_ops = GOLDEN[workload]
    assert repr(sorted(env.clock.accounts().items())) == accounts
    assert env.cluster.fs.op_count() == posix_ops
    assert _trace_digest(tmp_path) == digest
