"""Latency summaries, host speed, failure accounting and the state digest."""

from __future__ import annotations

import gc
import hashlib
import json
import math
import random
import resource
from time import perf_counter

import numpy as np

#: A p99 is published only from at least this many samples, so that at
#: least ten samples lie beyond it.
MIN_P99_SAMPLES = 1000

#: Exporter jobs whose series follow from the seeded hardware and
#: workload alone (self-telemetry jobs carry wall-clock latencies).
DETERMINISTIC_JOBS = frozenset({"ceems", "dcgm", "emissions"})
#: Families of those jobs that still measure the host, not the sim:
#: every app's HTTP middleware telemetry and the exporter's own CPU.
HOST_MEASURED = ("ceems_http_", "ceems_exporter_scrape_cpu_seconds_total")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of a non-empty sample.

    Nearest rank always returns an observed sample with at least
    ``100 - q`` % of the sample at or above it, which is what the
    :data:`MIN_P99_SAMPLES` rule counts on.  ``benchmarks/bench_serving``
    rounds an interpolation index instead; the two can pick neighbouring
    samples, so compare p50s only within one of the two benchmarks.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def latency_summary(seconds: list[float]) -> dict[str, float | int | None]:
    """p50 and p99 in ms with the sample count; p99 is ``None`` when
    fewer than :data:`MIN_P99_SAMPLES` samples back it."""
    n = len(seconds)
    return {
        "n": n,
        "p50_ms": percentile(seconds, 50) * 1e3 if n else None,
        "p99_ms": percentile(seconds, 99) * 1e3 if n >= MIN_P99_SAMPLES else None,
    }


#: Wall seconds of one host-speed sample on the reference host (a 2-vCPU
#: 2.0 GHz Xeon VM, typical of its quiet hours): timings are reported as
#: if the host ran this fast.
REFERENCE_SAMPLE_S = 0.006


class HostSpeed:
    """How fast the host runs this kind of Python right now.

    Other tenants of a shared host change its speed, on the reference
    host by up to 2x over minutes, and an unmodified pipeline phase slows
    with it.  A sample times three fixed kernels that do not depend on
    the program: string-keyed dict updates with small numpy reductions,
    random lookups in a dict of 40k lists, and numpy gathers and sorts
    over 3 MB.  A phase takes a sample after each piece of timed work
    (a tick, a sub-phase, a twentieth of a warm-up) and scales the
    piece's wall times by ``REFERENCE_SAMPLE_S`` over the mean of that
    sample and the one before it.  On the reference host, over 4 minutes
    of a fixed 0.4 s pipeline piece repeated, the spread (quartile
    distance over median) of 10 s window medians was 18 % raw and 3 to
    5 % scaled per piece.
    """

    def __init__(self) -> None:
        before = peak_rss_mb()
        rng = random.Random(0)
        self._table = {f"s{i}": [i, float(i), f"v{i}"] for i in range(40_000)}
        self._keys = [f"s{rng.randrange(40_000)}" for _ in range(15_000)]
        gen = np.random.default_rng(0)
        self._array = gen.random(400_000)
        self._index = gen.integers(0, len(self._array), 200_000)
        self._gathered = np.empty(len(self._index))
        self._sorted = np.empty(100_000)
        self._small = np.arange(20_000, dtype=float)
        #: Resident memory the kernels hold for the whole run (they
        #: allocate nothing large while sampling).
        self.footprint_mb = peak_rss_mb() - before
        self.samples: list[float] = []

    def _dict_kernel(self) -> None:
        counts: dict[str, float] = {}
        for i in range(6_000):
            key = f"k{i % 300}"
            counts[key] = counts.get(key, 0.0) + i * 1.5
            if i % 40 == 0:
                float((self._small[i % 100 : i % 100 + 2_000] * 1.1).sum())

    def _lookup_kernel(self) -> None:
        table, total = self._table, 0.0
        for key in self._keys:
            total += table[key][1]

    def _numpy_kernel(self) -> None:
        for _ in range(2):
            float(np.take(self._array, self._index, out=self._gathered).sum())
            self._sorted[:] = self._array[: len(self._sorted)]
            self._sorted.sort()

    def sample(self) -> None:
        """Time the kernels once (with the collector off, so the
        program's heap does not add a collection to a sample)."""
        collecting = gc.isenabled()
        gc.disable()
        try:
            times = []
            for kernel in (self._dict_kernel, self._lookup_kernel, self._numpy_kernel):
                t0 = perf_counter()
                kernel()
                times.append(perf_counter() - t0)
        finally:
            if collecting:
                gc.enable()
        self.samples.append(math.prod(times) ** (1.0 / len(times)))

    def recent_factor(self) -> float:
        """Reference over measured speed for the work done between the
        last two samples."""
        recent = self.samples[-2:]
        return REFERENCE_SAMPLE_S * len(recent) / sum(recent)


class Checks:
    """Counts operations and the ones that failed or were wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def record(self, ok: bool, what: str, count: int = 1) -> bool:
        """Count ``count`` operations that all passed or all failed."""
        self.attempted += count
        if not ok and count:
            self.failed += count
            if len(self.notes) < 20:
                self.notes.append(what)
        return ok

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def _digested_series(series) -> bool:
    labels = series.labels.as_dict()
    name = labels.get("__name__", "")
    if ":" in name:
        # Recording-rule output; the SLO rules read request latencies.
        return not name.startswith("slo:")
    return labels.get("job") in DETERMINISTIC_JOBS and not name.startswith(HOST_MEASURED)


def state_digest(sim) -> str:
    """Digest of the hot TSDB's seeded series and the API server's units.

    It repeats exactly for a given seed: self-telemetry series, which
    record wall-clock latencies, are left out.
    """
    h = hashlib.blake2b(digest_size=16)
    chosen = [s for s in sim.hot_tsdb.all_series() if _digested_series(s)]
    for series in sorted(chosen, key=lambda s: repr(s.labels)):
        ts, vs = series.arrays()
        h.update(repr(series.labels).encode())
        h.update(ts.tobytes())
        h.update(vs.tobytes())
    rows = sim.db.list_units(limit=10**9)
    units = sorted(json.dumps(dict(r), sort_keys=True, default=str) for r in rows)
    h.update("\n".join(units).encode())
    return h.hexdigest()


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
