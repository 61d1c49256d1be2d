"""PromQL engine micro-benchmarks and the evaluator guard.

Not a paper table, but the foundation every other latency number
stands on: how instant selectors, rate() and aggregations scale with
the number of matching series — the quantity the Jean-Zay deployment
multiplies by 1400.

The guards compare the engine with the per-step oracle
(``tests/oracles/promql_per_step.py``), the direct AST walk the engine
replaced: a range query must be far faster (columnar speedup), and the
engine's one-step path must be no slower than the walk on the instant
traffic the stack sends — one pass of the shipped recording and
alerting rules at 5 % Jean-Zay scale, and the 11 instant Grafana
panels.  Instant guards time paired rounds (engine and oracle back to
back, order alternating) and bound the median of the per-round ratios;
the numbers land in ``BENCH_promql.json``.
"""

from __future__ import annotations

import json
import platform
import statistics
import time

import numpy as np
import pytest

from benchmarks.bench_scale_jeanzay import SCALE_MIX
from repro.cluster import StackSimulation, jean_zay_topology
from repro.cluster.simulation import SimulationConfig
from repro.dashboard.grafana_json import all_dashboards
from repro.tsdb.model import Labels
from repro.tsdb.promql.engine import PromQLEngine
from repro.tsdb.storage import TSDB
from tests.oracles.promql_per_step import PerStepEngine, assert_instant_identical

ARTIFACT_PATH = "BENCH_promql.json"

SAMPLES_PER_SERIES = 120  # 30 min at 15 s


def make_db(nseries: int) -> TSDB:
    db = TSDB()
    for s in range(nseries):
        labels = Labels(
            {
                "__name__": "m",
                "uuid": str(s),
                "hostname": f"n{s % 100:03d}",
                "nodegroup": "intel-cpu",
            }
        )
        for i in range(SAMPLES_PER_SERIES):
            db.append(labels, i * 15.0, float(s + i))
    return db


AT = (SAMPLES_PER_SERIES - 1) * 15.0


@pytest.mark.parametrize("nseries", [100, 1000, 5000])
def test_instant_selector_scaling(benchmark, nseries):
    engine = PromQLEngine(make_db(nseries))
    result = benchmark(engine.query, "m", AT)
    assert len(result.vector) == nseries


@pytest.mark.parametrize("nseries", [100, 1000, 5000])
def test_rate_scaling(benchmark, nseries):
    engine = PromQLEngine(make_db(nseries))
    result = benchmark(engine.query, "rate(m[2m])", AT)
    assert len(result.vector) == nseries


@pytest.mark.parametrize("nseries", [100, 1000, 5000])
def test_sum_by_scaling(benchmark, nseries):
    engine = PromQLEngine(make_db(nseries))
    result = benchmark(engine.query, "sum by (hostname) (rate(m[2m]))", AT)
    assert len(result.vector) == min(nseries, 100)


def test_indexed_selection_beats_scan(benchmark):
    """The inverted label index: selecting 1 of 5000 series is O(1)-ish."""
    engine = PromQLEngine(make_db(5000))
    result = benchmark(engine.query, 'm{uuid="42"}', AT)
    assert len(result.vector) == 1
    assert benchmark.stats.stats.mean < 1e-3


def test_group_left_join_scaling(benchmark):
    """The Eq. (1) join shape at 1000 units over 100 hosts."""
    db = make_db(1000)
    for h in range(100):
        labels = Labels({"__name__": "node_m", "hostname": f"n{h:03d}", "nodegroup": "intel-cpu"})
        for i in range(SAMPLES_PER_SERIES):
            db.append(labels, i * 15.0, 500.0)
    engine = PromQLEngine(db)
    result = benchmark(
        engine.query, "m / on(hostname) group_left() node_m", AT
    )
    assert len(result.vector) == 1000


# -- columnar vs per-step range evaluation ------------------------------
#
# A Grafana-shaped range query (rate + aggregation + group_left join)
# over a long window must not cost one full instant evaluation per
# step.  The engine resolves selectors once and walks the step axis
# with ndarray ops; the per-step oracle is the differential reference.
# The recorded ``speedup`` lands in the bench JSON via extra_info.

RANGE_QUERY = (
    "sum by (hostname) (rate(m[4m])) "
    "/ on(hostname) group_left() rate(node_m[4m])"
)
RANGE_SAMPLES = 10_500  # ~44 h at 15 s, enough history for 10k steps
RANGE_HOSTS = 5
RANGE_UNITS = 20


def make_range_db() -> TSDB:
    db = TSDB()
    rng = np.random.default_rng(3)
    for s in range(RANGE_UNITS):
        labels = Labels(
            {
                "__name__": "m",
                "uuid": str(s),
                "hostname": f"n{s % RANGE_HOSTS:03d}",
            }
        )
        counter = 0.0
        for i in range(RANGE_SAMPLES):
            counter += float(rng.uniform(0.0, 2.0))
            db.append(labels, i * 15.0, counter)
    for h in range(RANGE_HOSTS):
        labels = Labels({"__name__": "node_m", "hostname": f"n{h:03d}"})
        counter = 0.0
        for i in range(RANGE_SAMPLES):
            counter += float(rng.uniform(50.0, 100.0))
            db.append(labels, i * 15.0, counter)
    return db


@pytest.mark.parametrize("nsteps", [1000, 10_000])
def test_columnar_range_speedup(benchmark, nsteps):
    """Columnar range evaluation: identical results, 10×+ at 10k steps."""
    engine = PromQLEngine(make_range_db())
    start = 300.0
    step = 15.0
    end = start + (nsteps - 1) * step

    t0 = time.perf_counter()
    reference = PerStepEngine(engine.storage).query_range(RANGE_QUERY, start, end, step)
    per_step_seconds = time.perf_counter() - t0

    columnar = benchmark(engine.query_range, RANGE_QUERY, start, end, step)

    # Differential check on the benchmarked workload itself.
    assert set(columnar.series) == set(reference.series) and columnar.series
    for labels, (ref_ts, ref_vs) in reference.series.items():
        col_ts, col_vs = columnar.series[labels]
        assert np.array_equal(col_ts, ref_ts)
        assert np.array_equal(col_vs, ref_vs, equal_nan=True)

    columnar_seconds = benchmark.stats.stats.mean
    speedup = per_step_seconds / columnar_seconds
    benchmark.extra_info["nsteps"] = nsteps
    benchmark.extra_info["per_step_seconds"] = per_step_seconds
    benchmark.extra_info["speedup"] = speedup
    print(f"\n[promql-columnar] {nsteps} steps: per-step {per_step_seconds:.3f}s, "
          f"columnar {columnar_seconds:.3f}s -> {speedup:.1f}x")
    # Perf-regression guard: the engine must never lose to the
    # reference it replaced...
    assert columnar_seconds < per_step_seconds
    # ...and at dashboard scale the win must stay an order of magnitude.
    if nsteps >= 10_000:
        assert speedup > 10.0


# -- single-step guard: instant traffic vs the per-step oracle ------------

#: Paired rounds per guard; the median ratio is what is bounded.  A
#: rule pass takes tens of milliseconds; a pass of the instant panels
#: well under ten, so it gets more rounds for the same noise.
RULE_ROUNDS = 11
PANEL_ROUNDS = 101
#: Bound on median(engine seconds / oracle seconds) per round.
MAX_INSTANT_RATIO = 1.0
JZ_SCALE = 0.05
JZ_WARMUP = 600.0


@pytest.fixture(scope="module")
def jz5():
    """The seeded 5 % Jean-Zay deployment after a rule-window warm-up."""
    sim = StackSimulation(
        jean_zay_topology(scale=JZ_SCALE),
        SimulationConfig(seed=1, cluster_name="jean-zay"),
        workload=SCALE_MIX,
    )
    sim.run(JZ_WARMUP)
    return sim


def _pass_seconds(engine: PromQLEngine, exprs: list, at: float) -> float:
    started = time.perf_counter()
    for expr in exprs:
        engine.query(expr, at)
    return time.perf_counter() - started


def paired_rounds(sim, exprs: list, rounds: int) -> dict[str, float]:
    """Time one pass of ``exprs`` through the engine and the oracle in
    back-to-back pairs (order alternating, so drift hits both alike)."""
    engine = PromQLEngine(sim.hot_tsdb, lookback=sim.lookback)
    oracle = PerStepEngine(sim.hot_tsdb, lookback=sim.lookback)
    at = sim.now
    for expr in exprs:  # parse once, warm caches, and check identity
        assert_instant_identical(engine, expr, at)
    engine_s: list[float] = []
    oracle_s: list[float] = []
    for r in range(rounds):
        if r % 2:
            oracle_s.append(_pass_seconds(oracle, exprs, at))
            engine_s.append(_pass_seconds(engine, exprs, at))
        else:
            engine_s.append(_pass_seconds(engine, exprs, at))
            oracle_s.append(_pass_seconds(oracle, exprs, at))
    ratios = [e / o for e, o in zip(engine_s, oracle_s)]
    return {
        "expressions": len(exprs),
        "rounds": rounds,
        "engine_ms_median": statistics.median(engine_s) * 1e3,
        "oracle_ms_median": statistics.median(oracle_s) * 1e3,
        "ratio_median": statistics.median(ratios),
        "ratio_max": max(ratios),
    }


def _record(section: str, payload: dict) -> None:
    try:
        with open(ARTIFACT_PATH, encoding="utf-8") as fh:
            artifact = json.load(fh)
    except (OSError, ValueError):
        artifact = {}
    artifact["config"] = {
        "scale": JZ_SCALE,
        "warmup_s": JZ_WARMUP,
        "max_ratio": MAX_INSTANT_RATIO,
        "host": f"{platform.machine()} {platform.python_implementation()} {platform.python_version()}",
    }
    artifact[section] = payload
    with open(ARTIFACT_PATH, "w", encoding="utf-8") as fh:
        json.dump(artifact, fh, indent=2, sort_keys=True)


def test_rule_pass_not_slower_than_oracle(jz5):
    """One instant pass of every shipped recording and alerting rule."""
    evaluator = jz5.rule_evaluator
    exprs = [rule.ast() for group in evaluator.groups for rule in group.rules]
    exprs += [rule.ast() for group in evaluator.alert_groups for rule in group.rules]
    report = paired_rounds(jz5, exprs, RULE_ROUNDS)
    _record("rule_pass", report)
    print(f"\n[promql-instant] rules: engine {report['engine_ms_median']:.1f} ms, "
          f"oracle {report['oracle_ms_median']:.1f} ms, ratio {report['ratio_median']:.2f}")
    assert report["ratio_median"] <= MAX_INSTANT_RATIO, report


def test_instant_panels_not_slower_than_oracle(jz5):
    """The 11 instant Grafana panels, ``$job`` bound to one unit of the run."""
    panels = [
        target["expr"]
        for dashboard in all_dashboards().values()
        for panel in dashboard["panels"]
        for target in panel["targets"]
        if target.get("instant") and "expr" in target
    ]
    assert len(panels) == 11
    units = sorted(jz5.hot_tsdb.label_values("uuid"))
    uuid = units[len(units) // 2]
    exprs = [p.replace("$job", uuid) for p in panels]
    report = paired_rounds(jz5, exprs, PANEL_ROUNDS)
    # The 10 panels without a subquery, on their own.
    report["trivial"] = paired_rounds(jz5, [e for e in exprs if "[24h:5m]" not in e], PANEL_ROUNDS)
    _record("instant_panels", report)
    print(f"\n[promql-instant] panels: engine {report['engine_ms_median']:.2f} ms, "
          f"oracle {report['oracle_ms_median']:.2f} ms, ratio {report['ratio_median']:.2f}; "
          f"trivial ratio {report['trivial']['ratio_median']:.2f}")
    assert report["ratio_median"] <= MAX_INSTANT_RATIO, report
