"""Machine-speed probe for a shared, noisy host.

On a host shared with other tenants the same Python code runs up to
~1.5x slower for seconds at a time.  The probe is a fixed mix of dict
updates and large memory copies that touches no DaYu code, so a change
to the program cannot change it.  Timed samples are scaled by
``NOMINAL_S / probe time`` (probes taken just before and just after the
sample), which reports them as if measured on a core that runs the
probe in ``NOMINAL_S``.  On a 2-CPU cloud VM this cut the quartile
spread of ~4-second medians of ddmd run time from 0.15 to 0.06, and of
h5bench-bulk capture time from 0.18 to 0.04.
"""

from __future__ import annotations

import subprocess
import sys
import time

#: Probe time of the reference core: a typical probe time between
#: samples on the 2-CPU host the benchmark was tuned on.
NOMINAL_S = 0.010
_LOOPS = 60_000
_COPIES = 3
_BUFFER_BYTES = 8 << 20  # past the caches, like bulk dataset bytes


def probe(src: bytearray, dst: bytearray) -> float:
    """Seconds for a fixed mix of interpreter work (dict updates) and
    memory traffic (copies of ``src`` into ``dst``, allocating nothing)."""
    started = time.perf_counter()
    d: dict = {}
    for i in range(_LOOPS):
        k = i & 1023
        d[k] = d.get(k, 0) + i
    for _ in range(_COPIES):
        dst[:] = src
    return time.perf_counter() - started


class SpeedTrack:
    """Probes between samples; :meth:`factor` scales the sample taken
    since the previous call.  The probe runs in a helper process, so its
    buffers never count toward the measured process's memory."""

    def __init__(self) -> None:
        self._proc = subprocess.Popen([sys.executable, __file__],
                                      stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE)
        self.last = self._probe()

    def _probe(self) -> float:
        self._proc.stdin.write(b"\n")
        self._proc.stdin.flush()
        return float(self._proc.stdout.readline())

    def factor(self) -> float:
        now = self._probe()
        scale = NOMINAL_S / ((self.last + now) / 2)
        self.last = now
        return scale

    def close(self) -> None:
        self._proc.communicate(b"", timeout=30)


def _serve() -> None:
    """Helper-process loop: one probe per request line, until stdin
    closes."""
    src, dst = bytearray(_BUFFER_BYTES), bytearray(_BUFFER_BYTES)
    while sys.stdin.buffer.readline():
        print(f"{probe(src, dst):.6f}", flush=True)


if __name__ == "__main__":
    _serve()
