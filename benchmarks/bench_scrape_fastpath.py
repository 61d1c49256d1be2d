"""E17 — scrape fast lane: steady-state ingest speedup at Jean-Zay scale.

The paper's deployment story is one stack scraping all of Jean-Zay
(>1400 nodes).  PR 5 gives the ingest path a Prometheus-style fast
lane: per-target scrape caches resolve each raw sample line straight
to an interned ``Labels`` + series ref and samples are applied through
the batched append-by-ref API.

Methodology — what is timed.  In the real deployment the exporters
run on the compute nodes; the scrape manager's cost per cycle is
parsing 1,869 payloads and appending ~77k samples.  The in-process
simulation would otherwise charge every exporter's collect+render to
the scrape cycle, drowning the manager-side work this PR optimises.
So, like Prometheus's own ``BenchmarkScrapeLoopAppend``, each cycle
snapshots every target's payload once (untimed — that work happens on
remote nodes) and then times each mode's *ingest* of the identical
bodies: parse, cache resolution, append, staleness.  Because both
managers consume byte-identical snapshots, the differential check is
exact over **all** series — self-telemetry included.

The hard CI guard is *never slower*; the headline number (target from
the issue: >=5x) is recorded in ``BENCH_scrape_fastpath.json``.
"""

from __future__ import annotations

import json
import math
import time

from repro.cluster import jean_zay_topology
from repro.cluster.simulation import SimulationConfig, StackSimulation
from repro.common.auth import make_basic_auth_header
from repro.common.httpx import Request, Response
from repro.tsdb.scrape import ScrapeConfig, ScrapeManager, ScrapeTarget
from repro.tsdb.storage import TSDB
from tests.oracles.scrape_reference import ReferenceScrapeManager

ARTIFACT_PATH = "BENCH_scrape_fastpath.json"

#: Jean-Zay scale factor.  1.0 is the paper's full deployment; the
#: bench uses it so the headline number is the deployment claim.
SCALE = 1.0
#: Measured scrape cycles (best-of, interleaved ref/fast per cycle so
#: machine-load drift hits both modes alike).
CYCLES = 5
#: Hard guard: the cached path may never be slower than the reference.
MIN_SPEEDUP = 1.0


class _ReplayApp:
    """Serves the last snapshotted response of a real exporter app.

    Fetch cost through this stub is a dict lookup, so the timed cycle
    is the scrape manager's own work — the real app's collect/render
    runs once per cycle in :func:`_snapshot`, outside the timers.
    """

    def __init__(self, app) -> None:
        self._app = app
        self._response: Response | None = None

    def snapshot(self, request: Request) -> None:
        self._response = self._app.handle(request)

    def handle(self, request: Request) -> Response:
        return self._response


def _replays(targets: list[ScrapeTarget]) -> list[tuple[_ReplayApp, ScrapeTarget]]:
    return [(_ReplayApp(t.app), t) for t in targets]


def _snapshot(replays) -> None:
    for replay, target in replays:
        headers = {}
        if target.username:
            headers["authorization"] = make_basic_auth_header(target.username, target.password)
        replay.snapshot(Request.from_url("GET", target.metrics_path, headers=headers))


def _manager(replays, manager_cls: type[ScrapeManager]) -> ScrapeManager:
    """A manager whose targets point at the replay stubs.

    Each manager needs its own target objects — targets carry the
    scrape cache and staleness bookkeeping.
    """
    manager = manager_cls(TSDB(), ScrapeConfig())
    manager.add_targets(
        [
            ScrapeTarget(
                app=replay,
                instance=t.instance,
                job=t.job,
                group_labels=dict(t.group_labels),
                metrics_path=t.metrics_path,
                username=t.username,
                password=t.password,
            )
            for replay, t in replays
        ]
    )
    return manager


def _dump(db: TSDB):
    return sorted(
        (tuple(s.labels), tuple(s.timestamps), tuple(repr(v) for v in s.values))
        for s in db.all_series()
    )


def test_scrape_fastpath_speedup():
    sim = StackSimulation(
        jean_zay_topology(scale=SCALE),
        SimulationConfig(seed=42, meta_monitoring=False, with_workload=True),
    )
    replays = _replays(sim.scrape_manager.targets)
    n_targets = len(replays)

    reference = _manager(replays, ReferenceScrapeManager)
    fast = _manager(replays, ScrapeManager)

    # Two warm-up cycles: the first is all misses by construction,
    # and the exporters' own middleware series (request counters)
    # first appear in the payload one cycle after the first request,
    # missing once more.  Steady state starts at cycle three.
    t = 0.0
    for _ in range(2):
        t += 15.0
        _snapshot(replays)
        reference.scrape_all(t)
        fast.scrape_all(t)
    # Steady-state accounting only: drop the warm-up misses.
    fast.cache_hits_total = fast.cache_misses_total = 0

    ref_best = fast_best = math.inf
    for _ in range(CYCLES):
        t += 15.0
        _snapshot(replays)
        started = time.perf_counter()
        reference.scrape_all(t)
        ref_best = min(ref_best, time.perf_counter() - started)
        started = time.perf_counter()
        fast.scrape_all(t)
        fast_best = min(fast_best, time.perf_counter() - started)

    speedup = ref_best / fast_best
    samples = fast.samples_appended_total // fast.cycles_total
    hit_ratio = fast.cache_hits_total / max(1, fast.cache_hits_total + fast.cache_misses_total)

    # Differential proof: both managers ingested byte-identical
    # payload snapshots, so their TSDBs must match exactly — every
    # series, self-telemetry included.
    identical = _dump(reference.storage) == _dump(fast.storage)

    report = {
        "scale": SCALE,
        "targets": n_targets,
        "samples_per_cycle": int(samples),
        "cycles_measured": CYCLES,
        "reference_cycle_seconds": ref_best,
        "fast_cycle_seconds": fast_best,
        "speedup": speedup,
        "cache_hit_ratio": hit_ratio,
        "min_speedup_guard": MIN_SPEEDUP,
        "contents_identical": identical,
    }
    with open(ARTIFACT_PATH, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
    print(
        f"\n[scrape-fastpath] targets={n_targets} samples/cycle={samples} "
        f"reference={ref_best * 1e3:.0f}ms fast={fast_best * 1e3:.0f}ms "
        f"speedup={speedup:.1f}x hit-ratio={hit_ratio * 100:.1f}%"
    )

    assert identical, "fast path diverged from reference TSDB contents"
    assert hit_ratio > 0.99, "steady state should be nearly all cache hits"
    assert speedup >= MIN_SPEEDUP, report
