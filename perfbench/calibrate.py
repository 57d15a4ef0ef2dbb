"""Machine-speed calibration for the end-to-end timings.

The shared machine this benchmark was built on changes speed by 30-50%
between minutes (other tenants share its cores), and every part of the chain
slows together.  Within a run, ``Speedometer`` times a fixed pure-Python
probe at command boundaries; the end-to-end timings are scaled by
``REFERENCE_S / median(probe)``, i.e. reported in seconds of a machine on
which the probe takes ``REFERENCE_S``.  The probe is frozen benchmark code
that shares nothing with the program, so a change to the program scales its
timings and leaves the probe alone.  Raw timings are printed beside the
scaled ones.
"""

from __future__ import annotations

import gc
import json
import statistics
import time

REFERENCE_S = 0.025  # the probe's median time on the reference machine state
SAMPLE_EVERY_S = 0.5

_HOSTS = [f"cdn.x{i}.t{i % 7}.net" for i in range(400)]


class _Key:
    __slots__ = ("name", "host", "partition")

    def __init__(self, name, host, partition):
        self.name, self.host, self.partition = name, host, partition


def probe() -> float:
    """Seconds for a fixed mix of what the chain does: objects, suffix tests, dicts, JSON, headers, sorting."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        keys = [_Key(f"c{i % 40}", _HOSTS[i % 400], None) for i in range(2500)]
        hits = 0
        for key in keys[:250]:
            for host in _HOSTS[:60]:
                hits += host == key.host or host.endswith("." + key.host)
        counts: dict = {}
        for key in keys:
            counts[key.name, key.host] = counts.get((key.name, key.host), 0) + 1
        records = [json.loads(json.dumps({"n": k.name, "h": k.host, "p": k.partition})) for k in keys]
        header = "; ".join(f"{r['n']}={r['h']}" for r in records[:1200])
        pairs = [segment.strip().partition("=") for segment in header.split(";")]
        sorted(keys, key=lambda k: (-len(k.host), k.host, k.name))
        elapsed = time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    assert hits and pairs
    return elapsed


class Speedometer:
    """Probe samples taken at command boundaries, at most one per ``SAMPLE_EVERY_S``."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = float("-inf")

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= SAMPLE_EVERY_S:
            self.samples.append(probe())
            self._last = time.perf_counter()

    def scale(self) -> float:
        """Factor that turns this run's seconds into reference seconds."""
        return REFERENCE_S / statistics.median(self.samples)
