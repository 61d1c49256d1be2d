"""E19 — serving: the query frontend under closed-loop dashboard load.

The paper's deployment serves Grafana dashboards for a whole HPC
center through one LB → Prometheus path; every refresh used to
re-evaluate full long-range PromQL queries with zero reuse across the
users staring at the same panels.  PR 10 adds the query frontend
(range splitting, step-aligned results cache, settled-response memo,
single-flight coalescing, worker-pool admission) between the LB and
the backends.

Methodology.  One simulated deployment (2 h of cluster life) backs
two complete serving paths over the *same* PromQL backends:

* **direct** — an LB wired straight to the backends (the pre-PR-10
  path);
* **frontend** — the LB dispatching query paths through the frontend.

The workload replays the shipped Grafana panel queries (extracted
from the provisioning bundle, ``$job`` bound to a live unit) as
long-range ``query_range`` dashboard refreshes.  Two window shapes:

* **settled** — the window ends at ``now - freshness`` (completed-job
  detail pages, capacity reviews, anything a user reopens): entirely
  immutable history, so repeats are served from the frontend's caches
  with zero backend evaluations.  This is the guarded workload.
* **live** — the window ends at ``now``: the uncacheable tail
  re-evaluates every refresh, so the frontend can only save the
  history prefix.  Reported, not guarded.

Hundreds of closed-loop users (one thread each, next request only
after the previous answer) hammer both paths; per-request latencies
and wall-clock throughput are recorded.

Guards (hard asserts, CI-enforced):

* every frontend response — cold, split, warm, settled, live — is
  byte-identical to the direct path (the differential contract);
* warm p50 speedup ``>= MIN_WARM_P50_SPEEDUP`` (issue target: 3x) on
  repeated settled dashboard queries — the cache serves everything,
  identical in-flight requests coalesce;
* cold-path single-query aggregate latency ratio ``<=
  MAX_COLD_SLOWDOWN`` (1.05x): one user asking once must not pay for
  the machinery.

Cycles interleave direct/frontend so machine-load drift hits both
alike; best-of per cycle.  Numbers land in ``BENCH_serving.json``.
Reduced CI configuration via ``BENCH_SERVING_USERS`` /
``BENCH_SERVING_REQUESTS`` / ``BENCH_SERVING_CYCLES``.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
import urllib.parse

import pytest

from repro.cluster import StackSimulation, small_topology
from repro.cluster.simulation import SimulationConfig
from repro.dashboard.grafana_json import export_provisioning_bundle
from repro.frontend import QueryFrontend
from repro.frontend.cache import DEFAULT_FRESHNESS
from repro.lb.authz import DBAuthorizer
from repro.lb.server import LoadBalancer
from repro.lb.strategies import Backend

from benchmarks.conftest import BENCH_MIX

ARTIFACT_PATH = "BENCH_serving.json"

USERS = int(os.environ.get("BENCH_SERVING_USERS", "200"))
REQUESTS_PER_USER = int(os.environ.get("BENCH_SERVING_REQUESTS", "5"))
COLD_CYCLES = int(os.environ.get("BENCH_SERVING_CYCLES", "5"))

#: Dashboard refresh shape: a 100-step trailing window of the 2 h
#: history (kept inside one day-split bucket so the cold guard
#: measures frontend overhead, not the cost of a genuine 2-way split).
RANGE_SECONDS = 6000.0
STEP = 60.0

#: Hard guards.
MIN_WARM_P50_SPEEDUP = 3.0
MAX_COLD_SLOWDOWN = 1.05

ADMIN = {"x-grafana-user": "admin"}


@pytest.fixture(scope="module")
def serving_sim() -> StackSimulation:
    sim = StackSimulation(
        small_topology(cpu_nodes=3, gpu_nodes=1),
        SimulationConfig(
            seed=7,
            update_interval=600.0,
            frontend=True,
            # Big enough pools that neither path 503s under the
            # thread herd — this bench measures latency, not shedding.
            frontend_max_inflight=64,
            frontend_queue_timeout=60.0,
            max_concurrent_queries=512,
            probe_interval=0,
        ),
        workload=BENCH_MIX,
    )
    sim.run(2 * 3600)
    return sim


def panel_queries(sim: StackSimulation) -> list[str]:
    """Every PromQL expression the shipped dashboards would fire,
    with ``$job`` bound to a unit that actually ran."""
    uuids = sim.prom_apis[0].app.get(
        "/api/v1/label/uuid/values", headers=ADMIN
    ).decode_json()["data"]
    uuid = uuids[len(uuids) // 2]
    bundle = json.loads(export_provisioning_bundle())
    queries: list[str] = []
    for key, dashboard in bundle.items():
        if key == "datasources":
            continue
        for panel in dashboard.get("panels", []):
            for target in panel.get("targets", []):
                expr = target.get("expr")
                if expr:
                    queries.append(expr.replace("$job", uuid))
    # Stable dedup, preserving dashboard order.
    return list(dict.fromkeys(queries))


def refresh_urls(
    sim: StackSimulation, queries: list[str], end_offset: float = 0.0
) -> list[str]:
    end = sim.clock.now() - end_offset
    return [
        "/api/v1/query_range?"
        + urllib.parse.urlencode(
            {"query": q, "start": end - RANGE_SECONDS, "end": end, "step": STEP}
        )
        for q in queries
    ]


def direct_lb(sim: StackSimulation) -> LoadBalancer:
    """The pre-frontend serving path over the same backends."""
    backends = [Backend(name=api.app.name, app=api.app) for api in sim.prom_apis]
    return LoadBalancer(
        backends,
        DBAuthorizer(sim.db, admin_users=("admin",)),
        slow_request_ms=-1.0,
    )


def clear_frontend(frontend: QueryFrontend) -> None:
    frontend.cache.clear()
    frontend.memo.clear()


#: Snapshot fields that count events; a phase reports their change.
#: The other fields (entries, bytes, memo_bytes) are sizes, reported
#: as they stand when the phase ends — before the next phase clears
#: the caches.
_EVENT_COUNTS = ("hits", "misses", "evictions", "memo_hits")


def frontend_snapshot(frontend: QueryFrontend) -> dict[str, float]:
    snap = frontend.cache.stats()
    snap["memo_hits"] = float(frontend.memo.hits)
    snap["memo_bytes"] = float(frontend.memo.total_bytes)
    return snap


def phase_stats(before: dict[str, float], after: dict[str, float]) -> dict[str, float]:
    return {k: after[k] - before[k] if k in _EVENT_COUNTS else after[k] for k in after}


def closed_loop(
    app, urls: list[str], users: int, requests_per_user: int
) -> tuple[list[float], float]:
    """Each user thread issues its next request only after the
    previous one answered; returns per-request latencies + wall time."""
    latencies: list[list[float]] = [[] for _ in range(users)]
    failures: list[str] = []

    def worker(uid: int) -> None:
        for i in range(requests_per_user):
            url = urls[(uid + i) % len(urls)]
            started = time.perf_counter()
            response = app.get(url, headers=ADMIN)
            latencies[uid].append(time.perf_counter() - started)
            if response.status != 200:
                failures.append(f"{response.status} on {url[:80]}")

    threads = [
        threading.Thread(target=worker, args=(uid,), name=f"user-{uid}")
        for uid in range(users)
    ]
    started = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - started
    assert not failures, failures[:5]
    return [lat for per_user in latencies for lat in per_user], wall


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    idx = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[idx]


def test_serving_frontend_speedup(serving_sim):
    sim = serving_sim
    queries = panel_queries(sim)
    settled_urls = refresh_urls(sim, queries, end_offset=DEFAULT_FRESHNESS)
    live_urls = refresh_urls(sim, queries)
    frontend = sim.frontend
    direct = direct_lb(sim)

    # -- differential parity: cold, then warm, every panel query,
    #    both window shapes ------------------------------------------
    for urls in (settled_urls, live_urls):
        clear_frontend(frontend)
        for url in urls:
            reference = direct.app.get(url, headers=ADMIN).body
            assert sim.lb.app.get(url, headers=ADMIN).body == reference, url
            assert sim.lb.app.get(url, headers=ADMIN).body == reference, url

    # -- and across split boundaries (15-min split of the same range) -
    split_fe = QueryFrontend(
        [Backend(name=a.app.name, app=a.app) for a in sim.prom_apis],
        split_interval=900.0,
        clock=sim.clock,
    )
    for url in settled_urls + live_urls:
        reference = direct.app.get(url, headers=ADMIN).body
        assert split_fe.app.get(url, headers=ADMIN).body == reference, url
        assert split_fe.app.get(url, headers=ADMIN).body == reference, url
    assert split_fe.split_requests > 0

    # -- cold guard: one user, one query, nothing cached --------------
    # Interleaved best-of; the aggregate over the panel set must stay
    # within MAX_COLD_SLOWDOWN of the direct path.
    direct_best = [math.inf] * len(settled_urls)
    frontend_best = [math.inf] * len(settled_urls)
    for _cycle in range(COLD_CYCLES):
        for i, url in enumerate(settled_urls):
            started = time.perf_counter()
            direct.app.get(url, headers=ADMIN)
            direct_best[i] = min(direct_best[i], time.perf_counter() - started)
            clear_frontend(frontend)
            started = time.perf_counter()
            sim.lb.app.get(url, headers=ADMIN)
            frontend_best[i] = min(frontend_best[i], time.perf_counter() - started)
    cold_ratio = sum(frontend_best) / sum(direct_best)

    # -- closed-loop load: hundreds of users refreshing settled
    #    dashboards (the guarded workload) ----------------------------
    direct_lat, direct_wall = closed_loop(
        direct.app, settled_urls, USERS, REQUESTS_PER_USER
    )
    clear_frontend(frontend)
    coalesced_before = frontend.single_flight.coalesced
    subqueries_before = frontend.subqueries
    settled_before = frontend_snapshot(frontend)
    frontend_lat, frontend_wall = closed_loop(
        sim.lb.app, settled_urls, USERS, REQUESTS_PER_USER
    )
    settled_stats = phase_stats(settled_before, frontend_snapshot(frontend))
    coalesced = frontend.single_flight.coalesced - coalesced_before
    settled_subqueries = frontend.subqueries - subqueries_before

    direct_p50 = percentile(direct_lat, 0.50)
    frontend_p50 = percentile(frontend_lat, 0.50)
    p50_speedup = direct_p50 / frontend_p50

    # -- live-tail refreshes: reported, not guarded -------------------
    # The tail window re-evaluates on every request by design (the
    # freshness contract), so the frontend can only save the history
    # prefix here.
    live_direct = []
    live_frontend = []
    clear_frontend(frontend)
    live_before = frontend_snapshot(frontend)
    for url in live_urls:  # warm the prefix once
        sim.lb.app.get(url, headers=ADMIN)
    for url in live_urls:
        started = time.perf_counter()
        direct.app.get(url, headers=ADMIN)
        live_direct.append(time.perf_counter() - started)
        started = time.perf_counter()
        sim.lb.app.get(url, headers=ADMIN)
        live_frontend.append(time.perf_counter() - started)
    live_stats = phase_stats(live_before, frontend_snapshot(frontend))

    report = {
        "users": USERS,
        "requests_per_user": REQUESTS_PER_USER,
        "panel_queries": len(settled_urls),
        "range_seconds": RANGE_SECONDS,
        "step_seconds": STEP,
        "cold_cycles": COLD_CYCLES,
        "cold_direct_seconds": sum(direct_best),
        "cold_frontend_seconds": sum(frontend_best),
        "cold_ratio": cold_ratio,
        "direct": {
            "p50_ms": direct_p50 * 1e3,
            "p95_ms": percentile(direct_lat, 0.95) * 1e3,
            "p99_ms": percentile(direct_lat, 0.99) * 1e3,
            "wall_seconds": direct_wall,
            "requests_per_second": len(direct_lat) / direct_wall,
        },
        "frontend": {
            "p50_ms": frontend_p50 * 1e3,
            "p95_ms": percentile(frontend_lat, 0.95) * 1e3,
            "p99_ms": percentile(frontend_lat, 0.99) * 1e3,
            "wall_seconds": frontend_wall,
            "requests_per_second": len(frontend_lat) / frontend_wall,
            "coalesced_requests": coalesced,
            # Cache and memo stats of the settled closed loop alone.
            "cache": {k: v for k, v in settled_stats.items() if not k.startswith("memo_")},
            "memo_hits": settled_stats["memo_hits"],
            "memo_bytes": settled_stats["memo_bytes"],
            "split_subqueries": settled_subqueries,
        },
        "live_tail": {
            "direct_warm_seconds": sum(live_direct),
            "frontend_warm_seconds": sum(live_frontend),
            "warm_ratio": sum(live_frontend) / sum(live_direct),
            # Cache and memo stats of the live-tail phase alone.
            "cache": {k: v for k, v in live_stats.items() if not k.startswith("memo_")},
            "memo_hits": live_stats["memo_hits"],
            "memo_bytes": live_stats["memo_bytes"],
        },
        "p50_speedup": p50_speedup,
        "throughput_speedup": (len(frontend_lat) / frontend_wall)
        / (len(direct_lat) / direct_wall),
        "min_warm_p50_speedup_guard": MIN_WARM_P50_SPEEDUP,
        "max_cold_slowdown_guard": MAX_COLD_SLOWDOWN,
    }
    with open(ARTIFACT_PATH, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
    print(
        f"\n[serving] users={USERS} queries={len(settled_urls)} "
        f"direct-p50={direct_p50 * 1e3:.2f}ms "
        f"frontend-p50={frontend_p50 * 1e3:.2f}ms "
        f"speedup={p50_speedup:.1f}x cold-ratio={cold_ratio:.3f} "
        f"coalesced={coalesced}"
    )

    assert p50_speedup >= MIN_WARM_P50_SPEEDUP, report
    assert cold_ratio <= MAX_COLD_SLOWDOWN, report
