"""The three pipeline workloads: seeded inputs, timed phase, checks.

Every workload runs in-process against one ``StackSimulation``; no
socket is involved.  ``build`` constructs the simulation; the set-up
is that plus ``warmup`` simulated seconds of warm-up or history, which
the runner advances.  ``measure`` is the timed phase and ``verify`` the
checks that run after it.  Checks that have to see the state a read saw
run between ticks with the clock stopped, so they never count as timed.
``measure`` takes a :class:`HostSpeed` sample after each piece of timed
work and scales the piece's times to the reference host speed; the time
spent sampling is left out.
"""

from __future__ import annotations

import math
import random
import threading
import urllib.parse
from dataclasses import dataclass, field
from time import perf_counter, thread_time

from benchmarks.bench_scale_jeanzay import SCALE_MIX
from benchmarks.bench_serving import direct_lb
from repro.apiserver.api import USER_HEADER
from repro.cluster import StackSimulation, jean_zay_topology
from repro.cluster.simulation import SimulationConfig
from repro.common.clock import SimClock
from repro.dashboard.grafana_json import all_dashboards
from repro.lb.server import LoadBalancer
from repro.thanos.sidecar import BLOCK_SECONDS

from perfbench.measure import Checks, HostSpeed
from perfbench.trace import REQUEST, TICK, Tracer

ADMIN = "admin"
CLUSTER = "jean-zay"

#: ingest_jz5: the 5 % Jean-Zay (73 nodes) on the default cadences.
INGEST_SCALE = 0.05
#: Warm-up before timing: rate windows and the node/job series are
#: filled, and the first 900 s updater pass falls inside the timed
#: phase.
INGEST_WARMUP = 600.0
#: Timed rule intervals per requested second.  The timed phases of
#: ingest_jz5 and dashboards_live do a fixed amount of simulated work,
#: sized so that it took about ``--seconds`` on a 2-core x86 VM when
#: the benchmark was written.  Fixed work keeps the final state, and so the
#: digest, the same for a seed, and keeps the same periodic passes
#: inside the timed phase whatever the speed.
INGEST_OPS_PER_SECOND = 2.8

#: The dashboards' 1 % slice of Jean-Zay (17 nodes).
DASH_SCALE = 0.01
#: The dashboards read one fixed deployment; ``--seed`` draws the
#: viewers' requests.  A unit's panel cost depends on its size and age
#: (5 to 150 ms for the 24 h peak-power subquery), so a history drawn
#: per seed would make the read metrics follow the few popular units.
DASH_DEPLOYMENT_SEED = 2024
#: History behind the dashboards.  The clock starts 600 s before a
#: 2 h block boundary and the sidecar runs every 900 s, so its first
#: pass uploads a block holding the first 600 s; the 30-minute windows
#: then merge Thanos block data with the head.
DASH_HISTORY = 1500.0
DASH_SIDECAR_INTERVAL = 900.0
DASH_START = SimClock.DEFAULT_START + BLOCK_SECONDS - 600.0
#: Grafana query step and the viewers' time ranges (seconds).
STEP = 15.0
WINDOW_LENGTHS = (900.0, 1800.0)
#: Settled windows end this far apart, before ``now - freshness``.
SETTLED_END_OFFSETS = (0.0, 300.0)
#: Zipf exponent of the unit a viewer binds ``$job`` to.  Neither this
#: nor the four windows is taken from a measured Grafana query log; both
#: are assumptions.  (Web proxy traces fit Zipf exponents of 0.64 to
#: 0.83, Breslau et al., INFOCOM 1999.)  The report prints how the
#: repeat share moves with the exponent and the number of window ends.
ZIPF_S = 1.1
#: Closed-loop client threads on dashboards_settled.
SETTLED_CLIENTS = 2
#: Dashboard loads (over all clients) per requested second.  The closed
#: loop does a fixed number of loads: a time limit would let a faster
#: host draw more loads, and so more repeats the memo answers cheaply.
SETTLED_LOADS_PER_SECOND = 40
#: The closed loop runs in this many sub-phases, with a host-speed
#: sample between them.
SETTLED_SUBPHASES = 40
#: Viewers refreshing after every tick on dashboards_live.
LIVE_VIEWERS = 2
#: Timed scrape ticks per requested second on dashboards_live.
LIVE_TICKS_PER_SECOND = 3.0


@dataclass
class Phase:
    """What one timed phase measured."""

    #: Seconds of timed work at reference host speed (every time of a
    #: phase is; host-speed sampling is left out).
    timed_s: float = 0.0
    #: Wall seconds of the same work as measured.
    raw_s: float = 0.0
    #: CPU seconds (as measured) the threads doing the timed work used.
    cpu_s: float = 0.0
    sim_seconds: float = 0.0
    threads: int = 1
    #: Latency of each operation: a rule interval on ingest_jz5, one
    #: viewer's load of every shipped panel on the dashboard workloads.
    op_latencies: list[float] = field(default_factory=list)
    #: Read latencies by kind: "range", "instant", "api".
    by_kind: dict[str, list[float]] = field(default_factory=dict)
    #: Requests whose (query, window) pair an earlier request had.
    repeats: int = 0
    counters: dict[str, float] = field(default_factory=dict)
    props: dict[str, object] = field(default_factory=dict)

    @property
    def host_factor(self) -> float:
        """Reference over measured host speed over the whole phase."""
        return self.timed_s / self.raw_s if self.raw_s else 1.0

    def add_piece(self, raw_s: float, factor: float) -> None:
        self.raw_s += raw_s
        self.timed_s += raw_s * factor


# -- shared pieces ----------------------------------------------------------
def _scrape_totals(sim) -> tuple[int, int]:
    targets = sim.scrape_manager.targets
    return (
        sum(t.scrapes_total for t in targets),
        sum(t.scrape_failures_total for t in targets),
    )


class _IngestWatch:
    """Counts scrapes and rule evaluations as operations of a phase."""

    def __init__(self, sim) -> None:
        self.sim = sim
        self.groups = [*sim.rule_evaluator.groups, *sim.rule_evaluator.alert_groups]
        self.evaluations = [g.evaluations for g in self.groups]
        self.scrapes, self.scrape_failures = _scrape_totals(sim)
        self.cache_hits = sim.scrape_manager.cache_hits_total
        self.cache_misses = sim.scrape_manager.cache_misses_total
        self.samples = sim.scrape_manager.samples_appended_total

    def after_tick(self, checks: Checks) -> None:
        """Record each rule evaluation since the last call."""
        for i, group in enumerate(self.groups):
            ran = group.evaluations - self.evaluations[i]
            if ran:
                checks.record(not group.last_error, f"rule group {group.name}: {group.last_error}", ran)
                self.evaluations[i] = group.evaluations

    def finish(self, checks: Checks, phase: Phase) -> None:
        scrapes, failures = _scrape_totals(self.sim)
        checks.record(True, "", scrapes - self.scrapes - (failures - self.scrape_failures))
        checks.record(False, "failed scrapes", failures - self.scrape_failures)
        manager = self.sim.scrape_manager
        hits = manager.cache_hits_total - self.cache_hits
        lookups = hits + manager.cache_misses_total - self.cache_misses
        phase.counters.update(
            {
                "scrape.samples": manager.samples_appended_total - self.samples,
                "scrape.cache_hit_ratio": hits / lookups if lookups else 0.0,
                "scrape.failures": failures - self.scrape_failures,
            }
        )


def _stack_counters(sim, phase: Phase) -> None:
    phase.counters["tsdb.series"] = sim.hot_tsdb.num_series
    phase.counters["tsdb.samples"] = sim.hot_tsdb.num_samples
    phase.counters["thanos.blocks"] = len(sim.object_store.blocks)


# -- ingest_jz5 -------------------------------------------------------------
class Ingest:
    """The write path: scrapes, rules and the updater, no read traffic."""

    name = "ingest_jz5"
    warmup = INGEST_WARMUP

    def build(self, seed: int) -> StackSimulation:
        return StackSimulation(
            jean_zay_topology(scale=INGEST_SCALE),
            SimulationConfig(seed=seed, cluster_name=CLUSTER),
            workload=SCALE_MIX,
        )

    def measure(self, sim, seed: int, seconds: float, tracer: Tracer, checks: Checks, host: HostSpeed) -> Phase:
        # One operation is one rule interval (two scrape ticks and one
        # rule evaluation), so operations cost alike and the median
        # does not flip between tick kinds.
        period = sim.config.rule_interval
        phase = Phase()
        watch = _IngestWatch(sim)
        for _ in range(max(1, round(seconds * INGEST_OPS_PER_SECOND))):
            t0, c0 = perf_counter(), thread_time()
            tracer.call(TICK, sim.run, period)
            phase.cpu_s += thread_time() - c0
            latency = perf_counter() - t0
            watch.after_tick(checks)
            host.sample()
            factor = host.recent_factor()
            phase.add_piece(latency, factor)
            phase.op_latencies.append(latency * factor)
        phase.sim_seconds = period * len(phase.op_latencies)
        watch.finish(checks, phase)
        return phase

    def verify(self, sim, phase: Phase, checks: Checks) -> None:
        manager = sim.scrape_manager
        up = manager.healthy_targets()
        checks.record(up == len(manager.targets), f"{len(manager.targets) - up} scrape targets down")
        # Units reach the DB on updater passes; one more pass at the
        # current time makes every submitted job visible.
        sim.updater.run_once(sim.now)
        units, submitted = sim.db.count_units(), sim.slurm.jobs_submitted
        checks.record(units == submitted, f"units_in_db {units} != jobs_submitted {submitted}")
        _stack_counters(sim, phase)
        phase.props.update(series=sim.hot_tsdb.num_series, jobs_submitted=submitted)


# -- dashboards -------------------------------------------------------------
@dataclass(frozen=True)
class Read:
    kind: str  # "range" | "instant" | "api"
    url: str
    user: str


class Viewer:
    """Grafana viewers loading every shipped dashboard panel."""

    def __init__(self, sim) -> None:
        self.instant: list[str] = []
        self.range: list[str] = []
        self.usage_panels = 0
        for dashboard in all_dashboards().values():
            for panel in dashboard["panels"]:
                for target in panel["targets"]:
                    if "expr" in target:
                        (self.instant if target.get("instant") else self.range).append(target["expr"])
                    elif "field" in target:
                        self.usage_panels += 1
        # Popularity follows recency: the newest unit is drawn most.
        rows = sorted(sim.db.list_units(limit=10**9), key=lambda r: (-r["created_at"], r["uuid"]))
        self.units = units = [(r["uuid"], r["user"]) for r in rows]
        self.weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(units))]

    def pick_unit(self, rng: random.Random) -> tuple[str, str]:
        return rng.choices(self.units, weights=self.weights)[0]

    def load(self, unit: tuple[str, str], start: float, end: float) -> list[Read]:
        """Every request one dashboard load sends, ``$job`` = ``unit``."""
        uuid, owner = unit
        reads = []
        for kind, exprs in (("instant", self.instant), ("range", self.range)):
            for expr in exprs:
                user = owner if "$job" in expr else ADMIN
                query = expr.replace("$job", uuid)
                if kind == "instant":
                    params = {"query": query, "time": end}
                    path = "/api/v1/query"
                else:
                    params = {"query": query, "start": start, "end": end, "step": STEP}
                    path = "/api/v1/query_range"
                reads.append(Read(kind, f"{path}?{urllib.parse.urlencode(params)}", user))
        usage = Read("api", f"/api/v1/users/{owner}/usage", owner)
        reads.extend([usage] * self.usage_panels)
        reads.append(Read("api", "/api/v1/units", owner))
        reads.append(Read("api", "/api/v1/units?state=running", owner))
        reads.append(Read("api", "/api/v1/usage/global", ADMIN))
        return reads


class _Reader:
    """Sends reads, times them and keeps each distinct body per URL."""

    def __init__(self, sim, tracer: Tracer) -> None:
        self.sim = sim
        self.tracer = tracer
        #: Latency of each completed dashboard load.
        self.loads: list[float] = []
        self.latencies: list[float] = []
        self.kinds: list[str] = []
        self.seen: dict[Read, dict[bytes, int]] = {}
        self.failed: list[str] = []

    def scale_since(self, loads: int, requests: int, factor: float) -> None:
        """Scale the times recorded after the first ``loads`` loads and
        ``requests`` requests by ``factor``."""
        self.loads[loads:] = [t * factor for t in self.loads[loads:]]
        self.latencies[requests:] = [t * factor for t in self.latencies[requests:]]

    def send(self, read: Read) -> None:
        app = self.sim.api_server.app if read.kind == "api" else self.sim.lb.app
        headers = {USER_HEADER: read.user}
        t0 = perf_counter()
        response = self.tracer.call(REQUEST, app.get, read.url, headers=headers)
        self.latencies.append(perf_counter() - t0)
        self.kinds.append(read.kind)
        if response.status != 200:
            self.failed.append(f"HTTP {response.status} on {read.url[:120]}")
            return
        bodies = self.seen.setdefault(read, {})
        bodies[response.body] = bodies.get(response.body, 0) + 1

    def load(self, reads: list[Read]) -> None:
        """Send one dashboard load."""
        t0 = perf_counter()
        for read in reads:
            self.send(read)
        self.loads.append(perf_counter() - t0)


def _repeats(seen: dict[Read, dict[bytes, int]]) -> int:
    """Requests that repeated an earlier (query, window) pair."""
    return sum(sum(bodies.values()) for bodies in seen.values()) - len(seen)


def _check_reads(sim, direct: LoadBalancer, seen: dict[Read, dict[bytes, int]], checks: Checks) -> None:
    """Every body must equal the same request through ``direct`` (reads
    of the API server: the same request sent again)."""
    for read, bodies in seen.items():
        app = sim.api_server.app if read.kind == "api" else direct.app
        reference = app.get(read.url, headers={USER_HEADER: read.user}).body
        for body, count in bodies.items():
            checks.record(body == reference, f"{read.kind} response differs on {read.url[:120]}", count)


def _read_phase(phase: Phase, readers: list[_Reader], checks: Checks) -> None:
    for reader in readers:
        phase.op_latencies.extend(reader.loads)
        for kind, latency in zip(reader.kinds, reader.latencies):
            phase.by_kind.setdefault(kind, []).append(latency)
        for note in reader.failed:
            checks.record(False, note)


def _frontend_counters(sim) -> dict[str, float]:
    fe = sim.frontend
    cache = fe.cache.stats()
    return {
        "cache_hits": cache["hits"],
        "cache_misses": cache["misses"],
        "frontend.memo_hits": fe.memo.hits,
        "frontend.subqueries": fe.subqueries,
        "frontend.coalesced": fe.single_flight.coalesced,
        "frontend.rejected": fe.admission.rejected,
    }


def _frontend_delta(before: dict[str, float], after: dict[str, float], phase: Phase) -> None:
    delta = {k: after[k] - before[k] for k in after}
    hits, misses = delta.pop("cache_hits"), delta.pop("cache_misses")
    phase.counters["frontend.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    phase.counters.update(delta)


class _Dashboards:
    """The 1 % slice with the query frontend, shared by both readers."""

    warmup = DASH_HISTORY

    def build(self, seed: int) -> StackSimulation:
        return StackSimulation(
            jean_zay_topology(scale=DASH_SCALE),
            SimulationConfig(
                seed=DASH_DEPLOYMENT_SEED,
                cluster_name=CLUSTER,
                start_time=DASH_START,
                sidecar_interval=DASH_SIDECAR_INTERVAL,
                frontend=True,
            ),
            workload=SCALE_MIX,
        )

    def last_end(self, sim) -> float:
        """End of the latest window a viewer of this workload reads."""
        return sim.now

    def verify(self, sim, phase: Phase, checks: Checks) -> None:
        _stack_counters(sim, phase)
        kinds = {k: len(v) for k, v in phase.by_kind.items()}
        cache = sim.frontend.cache
        # Samples each panel query touches, over the longest window for
        # the most popular unit, evaluated once on a backend.
        viewer, end = Viewer(sim), self.last_end(sim)
        touched: dict[str, list[int]] = {"instant": [], "range": []}
        for read in viewer.load(viewer.units[0], end - max(WINDOW_LENGTHS), end):
            if read.kind != "api":
                stats = sim.prom_apis[0].app.get(read.url + "&stats=all").decode_json()["data"]["stats"]
                touched[read.kind].append(stats["samples"]["samplesTouched"])
        phase.props.update(
            samples_per_query={k: round(sum(v) / len(v)) for k, v in touched.items()},
            requests=kinds,
            repeat_share=phase.repeats / max(1, sum(kinds.values())),
            series=sim.hot_tsdb.num_series,
            units=len(sim.db.list_units(limit=10**9)),
            results_cache_bytes=cache.stats()["bytes"],
            results_cache_budget=cache.max_bytes,
            memo_bytes=sim.frontend.memo.total_bytes,
        )


def _drawn_repeat_share(viewer: Viewer, windows, loads_per_client: list[int], seed: int, zipf_s: float) -> float:
    """Repeat share of the requests the settled clients would send with
    Zipf exponent ``zipf_s`` over ``windows`` (no request is sent)."""
    weights = [1.0 / (rank + 1) ** zipf_s for rank in range(len(viewer.units))]
    drawn: dict[tuple, int] = {}
    for i, loads in enumerate(loads_per_client):
        rng = random.Random(seed * 1000 + i)
        for _ in range(loads):
            pair = (rng.choices(viewer.units, weights=weights)[0], rng.choice(windows))
            drawn[pair] = drawn.get(pair, 0) + 1
    total, distinct = 0, set()
    for (unit, window), count in drawn.items():
        reads = viewer.load(unit, *window)
        total += count * len(reads)
        distinct.update(reads)
    return 1.0 - len(distinct) / total if total else 0.0


class Settled(_Dashboards):
    """Closed-loop viewers over windows the frontend may cache."""

    name = "dashboards_settled"

    def last_end(self, sim) -> float:
        # Strictly before ``now - freshness``: the whole grid is settled.
        return math.floor((sim.now - sim.config.frontend_freshness) / STEP) * STEP - STEP

    def windows(self, sim, end_offsets=SETTLED_END_OFFSETS) -> list[tuple[float, float]]:
        settled_end = self.last_end(sim)
        return [
            (end - length, end)
            for end in (settled_end - off for off in end_offsets)
            for length in WINDOW_LENGTHS
        ]

    def measure(self, sim, seed: int, seconds: float, tracer: Tracer, checks: Checks, host: HostSpeed) -> Phase:
        viewer = Viewer(sim)
        windows = self.windows(sim)
        readers = [_Reader(sim, tracer) for _ in range(SETTLED_CLIENTS)]
        rngs = [random.Random(seed * 1000 + i) for i in range(SETTLED_CLIENTS)]
        cpu = [0.0] * SETTLED_CLIENTS
        before = _frontend_counters(sim)
        phase = Phase(threads=SETTLED_CLIENTS)

        def client(i: int, loads: int) -> None:
            c0 = thread_time()
            rng = rngs[i]
            for _ in range(loads):
                readers[i].load(viewer.load(viewer.pick_unit(rng), *rng.choice(windows)))
            cpu[i] += thread_time() - c0

        per_client = max(1, round(seconds * SETTLED_LOADS_PER_SECOND / (SETTLED_CLIENTS * SETTLED_SUBPHASES)))
        for _ in range(SETTLED_SUBPHASES):
            marks = [(len(r.loads), len(r.latencies)) for r in readers]
            started = perf_counter()
            threads = [threading.Thread(target=client, args=(i, per_client)) for i in range(SETTLED_CLIENTS)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            elapsed = perf_counter() - started
            host.sample()
            factor = host.recent_factor()
            phase.add_piece(elapsed, factor)
            for reader, (loads, requests) in zip(readers, marks):
                reader.scale_since(loads, requests, factor)
        phase.cpu_s = sum(cpu)
        phase.props["loads_per_client"] = [len(r.loads) for r in readers]
        _frontend_delta(before, _frontend_counters(sim), phase)
        _read_phase(phase, readers, checks)
        seen: dict[Read, dict[bytes, int]] = {}
        for reader in readers:
            for read, bodies in reader.seen.items():
                merged = seen.setdefault(read, {})
                for body, count in bodies.items():
                    merged[body] = merged.get(body, 0) + count
        # Both clients draw from one (query, window) space.
        phase.repeats = _repeats(seen)
        with tracer.paused():
            _check_reads(sim, direct_lb(sim), seen, checks)
        # How the assumed popularity and window mix set the reuse: the
        # same clients and loads, other exponents and window ends.
        loads = phase.props["loads_per_client"]
        phase.props["repeat_share_by_zipf_s"] = {
            z: round(_drawn_repeat_share(viewer, windows, loads, seed, z), 3) for z in (0.7, 1.1, 1.5)
        }
        phase.props["repeat_share_by_window_ends"] = {
            n: round(_drawn_repeat_share(viewer, self.windows(sim, range(0, 300 * n, 300)), loads, seed, ZIPF_S), 3)
            for n in (1, 2, 8)
        }
        return phase


class Live(_Dashboards):
    """Viewers refreshing windows that end at ``now`` between ticks."""

    name = "dashboards_live"

    def measure(self, sim, seed: int, seconds: float, tracer: Tracer, checks: Checks, host: HostSpeed) -> Phase:
        viewer = Viewer(sim)
        rng = random.Random(seed * 1000)
        direct = direct_lb(sim)
        reader = _Reader(sim, tracer)
        watch = _IngestWatch(sim)
        before = _frontend_counters(sim)
        phase = Phase()
        for _ in range(max(1, round(seconds * LIVE_TICKS_PER_SECOND))):
            loads, requests = len(reader.loads), len(reader.latencies)
            t0, c0 = perf_counter(), thread_time()
            tracer.call(TICK, sim.run, sim.config.scrape_interval)
            for _ in range(LIVE_VIEWERS):
                end = sim.now
                reader.load(viewer.load(viewer.pick_unit(rng), end - rng.choice(WINDOW_LENGTHS), end))
            phase.cpu_s += thread_time() - c0
            elapsed = perf_counter() - t0
            phase.sim_seconds += sim.config.scrape_interval
            # Clock stopped: the direct path must answer the same at
            # the state these reads saw, before the next tick.
            with tracer.paused():
                watch.after_tick(checks)
                _check_reads(sim, direct, reader.seen, checks)
                host.sample()
            factor = host.recent_factor()
            phase.add_piece(elapsed, factor)
            reader.scale_since(loads, requests, factor)
            phase.repeats += _repeats(reader.seen)
            reader.seen.clear()
        watch.finish(checks, phase)
        _frontend_delta(before, _frontend_counters(sim), phase)
        _read_phase(phase, [reader], checks)
        return phase


WORKLOADS = {w.name: w for w in (Ingest(), Settled(), Live())}
